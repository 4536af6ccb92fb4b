//! The result line, the provenance line and their JSON.

use crate::setup::{Built, SHARDS};
use crate::{batches, Args, Workload, BATCH, CLIENTS, REPLAYS_PER_ROUND, SETUP_REPS};

/// Named metrics in the order they were put.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records a metric; a ratio with an empty base (NaN) reads as 0.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }
}

/// The last line of a run's output.
#[derive(Debug, Default)]
pub struct Result {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Result {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(name),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Everything a reader needs to reproduce or compare the run, as one JSON
/// object on the line before the result.
pub fn provenance(args: &Args, built: &Built) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stats = built.dataset.stats();
    let edges = stats.follows + stats.posts + stats.mentions + stats.tags + stats.retweets;
    let sharded = args.workload == Workload::ServeSharded;
    let on_disk = args.workload == Workload::ServeMono;
    let pool_pages = arbordb::db::DbConfig::default().page_cache_pages;
    let fields: Vec<(&str, String)> = vec![
        ("commit", quote(&commit())),
        ("workload", quote(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("dataset_seed", built.config.seed.to_string()),
        ("event_seed", crate::EVENT_SEED.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("users", stats.users.to_string()),
        ("edges", edges.to_string()),
        ("client_threads", CLIENTS.to_string()),
        ("writer_threads", "1".into()),
        (
            "scatter_pool_threads",
            if sharded {
                (nproc - 1).clamp(1, SHARDS).to_string()
            } else {
                "0".into()
            },
        ),
        (
            "shards",
            if sharded {
                SHARDS.to_string()
            } else {
                "1".into()
            },
        ),
        ("pool_pages", pool_pages.to_string()),
        (
            "pool_bytes",
            (pool_pages * micrograph_pagestore::page::PAGE_SIZE).to_string(),
        ),
        ("arbordb_store_bytes", built.arbor.disk_bytes.to_string()),
        (
            "arbordb_storage",
            quote(if on_disk { "disk" } else { "memory" }),
        ),
        ("csv_bytes", built.csv_bytes.to_string()),
        ("batch_events", BATCH.to_string()),
        (
            "batches_per_backend",
            batches(args.workload, args.seconds).to_string(),
        ),
        (
            "batches_per_round",
            args.workload.batches_per_round().to_string(),
        ),
        (
            "writer",
            quote("closed loop, after the round's reads and replays"),
        ),
        ("replays_per_round", REPLAYS_PER_ROUND.to_string()),
        ("slice_s", args.workload.slice_s().to_string()),
        (
            "fsync",
            quote(if on_disk {
                "wal sync_data per commit"
            } else {
                "none (in-memory store)"
            }),
        ),
        ("setup_reps", SETUP_REPS.to_string()),
        (
            "build_profile",
            quote(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ];
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}
