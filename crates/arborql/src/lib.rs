//! ArborQL — the declarative, Cypher-style query language of `arbordb`.
//!
//! The paper's first engine is queried through a declarative language whose
//! behaviour Section 4 introspects at length: execution-plan caching when
//! parameters are used, the cost of `ORDER BY ... LIMIT` without pushdown,
//! the three phrasings of the recommendation query, and profiler "db hits".
//! ArborQL reproduces that whole surface:
//!
//! * [`token`] / [`parser`] / [`ast`] — text to abstract syntax. The subset
//!   covers everything Table 2 needs: `MATCH` with linear patterns (mixed
//!   directions, inline property maps, variable-length `[:t*m..n]`),
//!   `WHERE` with boolean/comparison predicates and (negated) pattern
//!   predicates, `RETURN` with `DISTINCT`, `COUNT(*)`, aliases,
//!   `ORDER BY`/`LIMIT`, parameters `$p`, and
//!   `p = shortestPath((a)-[:t*..k]-(b))` with `length(p)`.
//! * [`plan`] — the rule-based planner: index-seek anchor selection,
//!   expansion from the bound side, predicate pushdown, and the
//!   **TopN pushdown** (`ORDER BY`+`LIMIT` fused into a bounded heap) that
//!   Section 4's "overhead for aggregate operations" discussion concerns.
//! * [`vexec`] — the executor: operators push ID batches through the plan
//!   with early termination, and a profiler reports **db hits**
//!   (buffer-pool accesses) and per-operator row counts.
//! * [`exec`] — the row-at-a-time reference interpreter that tests compare
//!   [`vexec`] against; nothing serves through it.
//! * [`engine`] — [`engine::QueryEngine`]: the session facade with the
//!   **plan cache** ("a good speedup can be achieved by specifying
//!   parameters, because it allows caching the execution plans").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod engine;
pub mod exec;
pub mod parser;
pub mod plan;
pub mod token;
pub mod vexec;

pub use engine::{EngineOptions, Prepared, QueryEngine, QueryResult, QueryStats};
pub use plan::PlannerOptions;
pub use micrograph_common::Value;

/// Errors produced by the query layer.
#[derive(Debug)]
pub enum QlError {
    /// Lexing/parsing failure, with position information.
    Syntax(String),
    /// The query references an unknown variable, parameter, label or type.
    Unknown(String),
    /// Planning failed (unsupported construct combination).
    Plan(String),
    /// The underlying engine failed.
    Db(arbordb::ArborError),
}

impl std::fmt::Display for QlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QlError::Syntax(m) => write!(f, "syntax error: {m}"),
            QlError::Unknown(m) => write!(f, "unknown name: {m}"),
            QlError::Plan(m) => write!(f, "planning error: {m}"),
            QlError::Db(e) => write!(f, "database error: {e}"),
        }
    }
}

impl std::error::Error for QlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QlError::Db(e) => Some(e),
            _ => None,
        }
    }
}

impl From<arbordb::ArborError> for QlError {
    fn from(e: arbordb::ArborError) -> Self {
        QlError::Db(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, QlError>;
