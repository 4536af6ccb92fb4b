//! `arbordb` — a transactional, record-store property graph engine.
//!
//! This crate reproduces the *architecture* of the first system studied in
//! *Microblogging Queries on Graph Databases: An Introspection* (GRADES
//! 2015): a fully transactional graph database in the style of Neo4j 2.x.
//!
//! The load-bearing design points, each of which the paper's observations
//! depend on:
//!
//! * **Fixed-size record stores** for nodes and relationships over a paged
//!   buffer pool ([`store`]). Node records point at the head of a per-node
//!   **doubly linked relationship chain**; traversing a neighborhood is
//!   pointer-chasing through the relationship store, which is why latency
//!   tracks the number of page faults ("db hits").
//! * **Dense-node relationship groups** ([`group`]): the batch importer
//!   orders each node's chain by `(type, direction)` and records group entry
//!   points, so typed expansions of high-degree nodes skip unrelated edges —
//!   the "computing the dense nodes" step the paper times during import.
//! * **Property chains** with a blob store for strings (tweet text).
//! * **Label and property indexes** ([`index`]), created *after* bulk import
//!   exactly as the paper describes ("it cannot create indexes while
//!   importing takes place").
//! * **Write-ahead logging** with commit/abort and crash recovery ([`txn`],
//!   `pagestore::wal`).
//! * A **traversal framework** ([`traversal`]) — the "core API" alternative
//!   to the declarative language that Section 4 compares against.
//! * A **batch importer** ([`import`]) that streams pages to disk from a
//!   background flusher thread ("writes continuously and concurrently to
//!   disk"), producing the smooth import curves of Figure 2.
//!
//! The declarative query language lives in the sibling crate `arbor-ql`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod db;
pub mod dict;
pub mod error;
pub mod group;
pub mod import;
pub mod index;
pub mod records;
pub mod statistics;
pub mod store;
pub mod traversal;
pub mod txn;

pub use db::{DbConfig, GraphDb};
pub use error::ArborError;
pub use micrograph_common::ids::Direction;
pub use micrograph_common::{EdgeId, LabelId, NodeId, Value};
pub use statistics::{GraphStatistics, RelTypeStats};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ArborError>;
