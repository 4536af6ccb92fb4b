//! `micrograph-core` — the microblogging query workload of
//! *Microblogging Queries on Graph Databases: An Introspection* (GRADES
//! 2015), runnable on two graph-engine architectures.
//!
//! This crate is the paper's primary contribution, reproduced as a library:
//!
//! * [`schema`] — the Figure 1 data model (`user`/`tweet`/`hashtag` nodes;
//!   `follows`/`posts`/`retweets`/`mentions`/`tags` edges).
//! * [`engine`] — [`engine::MicroblogEngine`]: one trait with every query
//!   of Table 2 (selection, k-step adjacency, co-occurrence,
//!   recommendation, influence, shortest path), implemented by
//! * [`adapters`] — [`adapters::ArborEngine`] (declarative ArborQL over the
//!   record-store engine, plus traversal-API variants and the three §4
//!   recommendation phrasings) and [`adapters::BitEngine`]
//!   (`neighbors`/`explode` navigation with client-side counting/top-n over
//!   the bitmap engine). A load-bearing invariant, enforced by property
//!   tests: **both adapters return identical results** for every query.
//! * [`workload`] — the Table 2 catalog: ids, categories, descriptions,
//!   parameter sampling.
//! * [`runner`] — the paper's measurement protocol: warm up until latency
//!   stabilizes, then average over N runs; plus cold-cache measurement.
//! * [`serve`] — the concurrent serving layer: N reader threads drive a
//!   deterministic mixed Q1–Q6 request stream against one shared
//!   `dyn MicroblogEngine`, reporting per-query latency percentiles and
//!   aggregate throughput (byte-identical results at any thread count).
//! * [`shard`] — the scale-out composition: [`shard::ShardedEngine`]
//!   hash-partitions users across N inner engines and answers every
//!   workload query byte-identically to an unsharded engine via
//!   shard-local kernels plus engine-agnostic merges. Scatter fan-outs run
//!   concurrently by default ([`shard::ScatterMode`]) on a work-stealing
//!   worker pool the caller participates in, with in-shard-order gathers
//!   and max-latency fault accounting keeping every answer
//!   interleaving-independent. Each shard slot holds N replicas: reads
//!   route to a pure-hash primary ([`shard::replica_of`]) and heal
//!   permanent single-replica loss through a deterministic failover
//!   ladder, writes fan out to every replica (a replica that misses one
//!   is torn and fails fast), and answers never move a byte with R.
//! * [`ingest`] — drives both bulk loaders over the same CSV sources
//!   (§3.2), capturing the Figure 2/3 progress curves; also builds
//!   sharded engine pairs from a partitioned dataset.
//! * [`compose`] — the §3.3 derived query (topic experts via co-occurring
//!   hashtags, retweets and path lengths).
//! * [`fault`] — deterministic fault injection ([`fault::ChaosEngine`] under
//!   a seeded [`fault::FaultPlan`]) plus the retry/deadline/degradation
//!   semantics ([`fault::RetryPolicy`], [`fault::DegradationMode`]) the
//!   sharded serving stack uses to survive it. Headline invariant: under
//!   transient faults with retries, answers stay byte-identical to the
//!   fault-free run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapters;
pub mod compose;
pub mod engine;
pub mod fault;
pub mod ingest;
pub mod runner;
pub mod schema;
pub mod serve;
pub mod shard;
pub mod workload;

pub use adapters::{ArborEngine, BitEngine};
pub use engine::{CoreError, ExecMode, MicroblogEngine, Ranked, WriteMode};
pub use fault::{ChaosEngine, Coverage, DegradationMode, FaultPlan, FaultStats, RetryPolicy};
pub use shard::{ScatterMode, ShardedEngine};
pub use serve::{ServeConfig, ServeReport};
pub use micrograph_common::Value;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
