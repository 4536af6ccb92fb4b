//! The `experiments` binary's library: fixtures, figure generators and
//! report rendering that regenerate every table and figure of the paper.
//! Serving throughput and latency are measured by `perfbench` alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod fixture;
pub mod report;

pub use fixture::{fixture, Fixture, Scale};
