//! `bitgraph` — a compressed-bitmap graph engine with navigation operations.
//!
//! This crate reproduces the *architecture* of the second system studied in
//! *Microblogging Queries on Graph Databases: An Introspection* (GRADES
//! 2015): a graph store in the style of Sparksee (formerly DEX) 5.x.
//!
//! The load-bearing design points:
//!
//! * **Compressed bitmaps everywhere** ([`bitmap`]): the set of objects of a
//!   type, the adjacency of a node, the result of a selection — all are
//!   bitmap-backed unordered sets of object identifiers ([`objects`]),
//!   following Martínez-Bazan et al. (IDEAS 2012), which the paper cites as
//!   Sparksee's storage design.
//! * An **imperative navigation API** ([`graph`]): `neighbors` and
//!   `explode` "return an unordered set of unique node and edge identifiers
//!   adjacent to any given node ID". There is **no declarative language, no
//!   multi-predicate select and no result limiting** — clients combine
//!   `Objects` sets and post-process, exactly the frictions Section 4
//!   reports.
//! * An **extent-based write path** ([`extent`]): persisted state is an
//!   operation log buffered in fixed-size extents; when the write cache
//!   fills, the engine **stalls to flush everything synchronously** — the
//!   sharp jumps of Figure 3 ("Sparksee waits for the cache to be full
//!   before flushing it to disk").
//! * A **script-driven bulk loader** ([`loader`]) with optional **neighbor
//!   materialization**, whose write amplification reproduces the import
//!   blow-up the paper aborted after eight hours.
//! * Native **BFS/DFS traversals and `SinglePairShortestPathBFS`**
//!   ([`traversal`]) with a maximum-hops bound.
//! * **Copy-on-write structure**: per-object data lives in `Arc`-shared
//!   chunks, so [`Graph::snapshot_clone`] copies chunk handles only and a
//!   read generation costs a commit only the chunks it touched.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod extent;
pub mod graph;
pub mod loader;
pub mod objects;
mod oidmap;
pub mod traversal;

pub use bitmap::Bitmap;
pub use graph::{DataType, EdgesDirection, Graph, GraphConfig, Oid};
pub use objects::Objects;

/// Errors produced by the bitgraph engine.
#[derive(Debug)]
pub enum BitError {
    /// Storage failure.
    Io(std::io::Error),
    /// Unknown type/attribute name or bad identifier.
    Unknown(String),
    /// Operation invalid in the current state.
    InvalidState(String),
    /// Malformed script or CSV input.
    Malformed(String),
}

impl std::fmt::Display for BitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitError::Io(e) => write!(f, "i/o error: {e}"),
            BitError::Unknown(m) => write!(f, "unknown: {m}"),
            BitError::InvalidState(m) => write!(f, "invalid state: {m}"),
            BitError::Malformed(m) => write!(f, "malformed input: {m}"),
        }
    }
}

impl std::error::Error for BitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BitError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BitError {
    fn from(e: std::io::Error) -> Self {
        BitError::Io(e)
    }
}

impl From<micrograph_common::CommonError> for BitError {
    fn from(e: micrograph_common::CommonError) -> Self {
        match e {
            micrograph_common::CommonError::Io(io) => BitError::Io(io),
            other => BitError::Malformed(other.to_string()),
        }
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, BitError>;
