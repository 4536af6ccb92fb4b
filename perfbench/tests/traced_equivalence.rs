//! Tracing must be a pure observer: the same seed, run through engines
//! built with and without the span wrappers, gives identical answers and
//! identical engine work counts (db hits, navigation calls).

use std::path::PathBuf;
use std::sync::Arc;

use micrograph_datagen::GenConfig;
use micrograph_perfbench::drive::{event_batches, read_fixed, write_window, RequestGen, Subjects};
use micrograph_perfbench::setup::{build, Built};
use micrograph_perfbench::trace::{Layer, Tracer};
use micrograph_perfbench::Workload;

fn work_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-test-{tag}-{}", std::process::id()))
}

/// Answer hashes and `ops_count` deltas per backend for a fixed request
/// list, then for the same requests after a fixed write stream.
fn fingerprint(built: &Built, subjects: Subjects) -> Vec<(Vec<Option<u64>>, u64)> {
    let gen = RequestGen::new(99, &built.dataset, &built.config, subjects);
    let batches = event_batches(&built.dataset, &built.config, 5, 6, 8);
    let mut out = Vec::new();
    for top in [&built.arbor.top, &built.bit.top] {
        let before = top.ops_count();
        let reads = read_fixed(top.as_ref(), &gen, 0, 120);
        let writes = write_window(top.as_ref(), &batches, 1 << 39, None);
        assert_eq!(writes.errors, 0, "write stream applies cleanly");
        let after = read_fixed(top.as_ref(), &gen, 0, 60);
        let hashes = reads.iter().chain(&after).map(|s| s.hash).collect();
        out.push((hashes, top.ops_count() - before));
    }
    out
}

fn check(workload: Workload, subjects: Subjects) {
    let config = GenConfig {
        users: 400,
        ..GenConfig::small()
    };
    let plain_dir = work_dir(&format!("{}-plain", workload.name()));
    let plain = fingerprint(&build(workload, &config, &plain_dir, None), subjects);

    let tracer = Arc::new(Tracer::default());
    tracer.set_enabled(true);
    let traced_dir = work_dir(&format!("{}-traced", workload.name()));
    let traced_built = build(workload, &config, &traced_dir, Some(&tracer));
    let traced = fingerprint(&traced_built, subjects);

    assert_eq!(
        plain,
        traced,
        "{}: tracing changed answers or engine work",
        workload.name()
    );
    let spans = tracer.spans();
    assert!(
        spans.iter().any(|s| s.layer == Layer::Engine),
        "engine spans recorded"
    );
    assert!(
        spans
            .iter()
            .any(|s| s.layer == Layer::Setup && s.name == "ingest_bit"),
        "setup spans recorded"
    );
    if workload == Workload::ServeSharded {
        // Forwarded kernels: the sharded engine must still reach the inner
        // engines' batched kernel and write paths through the wrapper.
        assert!(spans
            .iter()
            .any(|s| matches!(s.layer, Layer::Shard(_)) && s.name.ends_with("_topn_kernel")));
        assert!(spans
            .iter()
            .any(|s| matches!(s.layer, Layer::Shard(_)) && s.name == "apply_event_batch"));
    }
    drop(traced_built);
    let _ = std::fs::remove_dir_all(plain_dir);
    let _ = std::fs::remove_dir_all(traced_dir);
}

#[test]
fn tracing_is_a_pure_observer_on_disk_backed_monoliths() {
    check(Workload::ServeMono, Subjects::Uniform);
}

#[test]
fn tracing_is_a_pure_observer_on_sharded_engines() {
    check(Workload::ServeSharded, Subjects::Zipf);
}
