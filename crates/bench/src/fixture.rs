//! Shared dataset/engine fixtures.
//!
//! Building engines is expensive relative to single queries, so fixtures
//! are built once per process and per scale, and shared by reference.

use std::path::PathBuf;
use std::sync::OnceLock;

use micrograph_core::ingest::{build_engines, IngestReports};
use micrograph_core::{ArborEngine, BitEngine};
use micrograph_datagen::{generate, CsvFiles, Dataset, GenConfig};

/// Benchmark scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// ~400 users: smoke tests of the harness itself.
    Unit,
    /// ~2 000 users: the `experiments` default.
    Small,
    /// ~20 000 users / ~300k edges: the figures.
    Medium,
}

impl Scale {
    /// The generator configuration for this scale.
    pub fn config(self) -> GenConfig {
        match self {
            Scale::Unit => GenConfig { users: 400, ..GenConfig::small() },
            Scale::Small => GenConfig::small(),
            Scale::Medium => GenConfig::medium(),
        }
    }
}

/// A built benchmark fixture: the dataset, its CSV files and both engines.
pub struct Fixture {
    /// The generated dataset (ground truth for parameter selection).
    pub dataset: Dataset,
    /// The emitted CSV bundle.
    pub files: CsvFiles,
    /// The record-store engine (declarative adapter).
    pub arbor: ArborEngine,
    /// The bitmap engine (navigation adapter).
    pub bit: BitEngine,
    /// Ingest reports captured while building.
    pub reports: IngestReports,
    /// Working directory under the temp dir. The fixture is never dropped,
    /// so its owner removes this once done (`experiments` does after its command).
    pub dir: PathBuf,
}

impl Fixture {
    /// Builds a fixture from an explicit generator configuration.
    pub fn build(config: &GenConfig) -> Fixture {
        let dir = std::env::temp_dir().join(format!(
            "micrograph-bench-{}-{}",
            config.users,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let dataset = generate(config);
        let files = dataset.write_csv(&dir).expect("csv emission");
        let (arbor, bit, reports) = build_engines(&files).expect("ingest");
        Fixture { dataset, files, arbor, bit, reports, dir }
    }

    /// Users sorted by how often they are mentioned (descending) — the
    /// Figure 4(e)/(f) x-axis and a good source of co-occurrence subjects.
    pub fn users_by_mention_degree(&self) -> Vec<(i64, u64)> {
        let mut counts = std::collections::HashMap::new();
        for &(_, u) in &self.dataset.mentions {
            *counts.entry(u as i64).or_insert(0u64) += 1;
        }
        let mut v: Vec<(i64, u64)> = counts.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Users sorted by follows out-degree (descending).
    pub fn users_by_out_degree(&self) -> Vec<(i64, u64)> {
        let mut counts = std::collections::HashMap::new();
        for &(s, _) in &self.dataset.follows {
            *counts.entry(s as i64).or_insert(0u64) += 1;
        }
        let mut v: Vec<(i64, u64)> = counts.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Picks `n` subjects spread across a descending-degree ranking
    /// (head, middle and tail — so figure series cover the x-range).
    pub fn spread<T: Copy>(ranked: &[T], n: usize) -> Vec<T> {
        if ranked.is_empty() || n == 0 {
            return Vec::new();
        }
        let n = n.min(ranked.len());
        if n == 1 {
            return vec![ranked[0]];
        }
        (0..n).map(|i| ranked[i * (ranked.len() - 1) / (n - 1)]).collect()
    }

    /// Picks `n` subjects spaced *geometrically* through a descending-degree
    /// ranking: dense at the head, sparse at the tail. With power-law
    /// degrees this yields roughly even coverage of the figures' x-axes.
    pub fn log_spread<T: Copy>(ranked: &[T], n: usize) -> Vec<T> {
        if ranked.is_empty() || n == 0 {
            return Vec::new();
        }
        let n = n.min(ranked.len());
        if n == 1 {
            return vec![ranked[0]];
        }
        let len = ranked.len() as f64;
        let mut idx: Vec<usize> = (0..n)
            .map(|i| (len.powf(i as f64 / (n - 1) as f64) - 1.0).round() as usize)
            .map(|i| i.min(ranked.len() - 1))
            .collect();
        idx.dedup();
        idx.into_iter().map(|i| ranked[i]).collect()
    }
}

static SMALL: OnceLock<Fixture> = OnceLock::new();
static MEDIUM: OnceLock<Fixture> = OnceLock::new();
static UNIT: OnceLock<Fixture> = OnceLock::new();

/// Returns the process-wide fixture for `scale`, building it on first use.
pub fn fixture(scale: Scale) -> &'static Fixture {
    let cell = match scale {
        Scale::Unit => &UNIT,
        Scale::Small => &SMALL,
        Scale::Medium => &MEDIUM,
    };
    cell.get_or_init(|| Fixture::build(&scale.config()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_fixture_builds_and_ranks() {
        let f = fixture(Scale::Unit);
        assert!(!f.dataset.users.is_empty());
        let by_mentions = f.users_by_mention_degree();
        assert!(!by_mentions.is_empty());
        assert!(by_mentions.windows(2).all(|w| w[0].1 >= w[1].1));
        let picked = Fixture::spread(&by_mentions, 5);
        assert_eq!(picked.len(), 5);
        assert_eq!(picked[0], by_mentions[0], "head included");
        std::fs::remove_dir_all(&f.dir).unwrap();
    }

    #[test]
    fn spread_edge_cases() {
        let empty: Vec<i32> = vec![];
        assert!(Fixture::spread(&empty, 3).is_empty());
        assert_eq!(Fixture::spread(&[7], 3), vec![7]);
        let v: Vec<i32> = (0..100).collect();
        let s = Fixture::spread(&v, 4);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0], 0);
        assert_eq!(*s.last().unwrap(), 99);
    }
}
