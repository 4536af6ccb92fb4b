//! Parallel scatter-gather determinism: while no deadline binds,
//! `ScatterMode::Parallel` (the default) must be byte-identical to the
//! `Sequential` oracle — same rendered answers, same digests, same
//! coverage tags — on clean engines, under transient chaos, and in
//! Partial degradation mode, at any reader thread count. The merge gathers
//! partials in shard order, so worker interleaving can never leak into an
//! answer. The two modes charge virtual time differently (Parallel the
//! *max* per-shard spend, Sequential the sum), so a deadline between one
//! leg's cost and the sum separates them; that difference is pinned too.

use micrograph_core::engine::MicroblogEngine;
use micrograph_core::fault::silence_injected_panics;
use micrograph_core::ingest::{build_chaos_sharded_engines, build_sharded_engines};
use micrograph_core::serve::{serve, ServeConfig, ServeReport};
use micrograph_core::workload::{run_query, QueryId, QueryParams};
use micrograph_core::{CoreError, DegradationMode, FaultPlan, RetryPolicy, ScatterMode};
use micrograph_datagen::{generate, Dataset, GenConfig};
use proptest::prelude::*;

struct Guard(std::path::PathBuf);
impl Drop for Guard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const USERS: u64 = 120;

fn dataset(seed: u64, tag: &str) -> (Dataset, Guard) {
    let mut cfg = GenConfig::unit();
    cfg.seed = seed;
    cfg.users = USERS;
    cfg.poster_fraction = 0.3;
    cfg.tweets_per_poster = 6;
    cfg.mentions_per_tweet = 1.2;
    cfg.tags_per_tweet = 0.8;
    let dir = micrograph_common::unique_temp_dir(&format!("par-scatter-{tag}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    (generate(&cfg), Guard(dir))
}

fn config(threads: usize, requests: usize) -> ServeConfig {
    ServeConfig { threads, requests, seed: 7, users: USERS, vocab: 16, ..Default::default() }
}

/// Everything a scatter-mode flip must keep identical on a clean engine.
fn fingerprint(r: &ServeReport) -> (Vec<String>, u64, u64, String) {
    (r.rendered.clone(), r.errors, r.degraded, r.faults.to_string())
}

/// Answers only — for hostile plans, where Sequential's first-error
/// short-circuit legitimately skips later shards' internal fault counters.
fn answers(r: &ServeReport) -> (Vec<String>, u64, u64) {
    (r.rendered.clone(), r.errors, r.degraded)
}

#[test]
fn scatter_mode_is_exposed_through_the_trait() {
    let (ds, g) = dataset(71, "trait");
    let (sharded, _) = build_sharded_engines(&ds, &g.0.join("s"), 2).unwrap();
    let dyn_sharded: &dyn MicroblogEngine = &sharded;
    // Sharded engines default to Parallel and accept flips through &dyn.
    assert_eq!(dyn_sharded.scatter_mode(), Some(ScatterMode::Parallel));
    assert!(dyn_sharded.set_scatter_mode(ScatterMode::Sequential));
    assert_eq!(dyn_sharded.scatter_mode(), Some(ScatterMode::Sequential));
    assert!(dyn_sharded.set_scatter_mode(ScatterMode::Parallel));
    // Monoliths have no scatter path: they report None and reject flips.
    let files = ds.write_csv(&g.0.join("mono")).unwrap();
    let (arbor, bit, _) = micrograph_core::ingest::build_engines(&files).unwrap();
    for mono in [&arbor as &dyn MicroblogEngine, &bit] {
        assert_eq!(mono.scatter_mode(), None, "{}", mono.name());
        assert!(!mono.set_scatter_mode(ScatterMode::Sequential), "{}", mono.name());
    }
}

#[test]
fn parallel_agrees_with_sequential_across_the_matrix() {
    // The 8-engine matrix of cross_engine_equivalence, with the scatter
    // axis added: every sharded engine must answer the full Q1–Q6 sweep
    // identically in Parallel and Sequential mode, and identically to the
    // monolith reference.
    let (ds, g) = dataset(72, "matrix");
    let files = ds.write_csv(&g.0.join("mono")).unwrap();
    let (arbor, bit, _) = micrograph_core::ingest::build_engines(&files).unwrap();
    let mut sharded = Vec::new();
    for shards in [1usize, 2, 4] {
        let (sa, sb) =
            build_sharded_engines(&ds, &g.0.join(format!("shards-{shards}")), shards).unwrap();
        sharded.push(sa);
        sharded.push(sb);
    }
    let reference: &dyn MicroblogEngine = &arbor;
    let mut rng = micrograph_common::rng::SplitMix64::new(72);
    for _ in 0..4 {
        let params = QueryParams::sample(&mut rng, USERS, 8);
        for q in QueryId::ALL {
            let expected = run_query(reference, q, &params).unwrap();
            let mono = run_query(&bit, q, &params).unwrap();
            assert_eq!(expected, mono, "{} monolith divergence", q.label());
            for s in &sharded {
                for mode in [ScatterMode::Parallel, ScatterMode::Sequential] {
                    assert!(s.set_scatter_mode(mode));
                    let got = run_query(s, q, &params).unwrap();
                    assert_eq!(
                        expected,
                        got,
                        "{} on {} in {mode:?} diverged from monolith",
                        q.label(),
                        s.name()
                    );
                }
            }
        }
    }
}

#[test]
fn serve_digests_match_across_modes_and_thread_counts() {
    // Full serving runs: the digest (and the whole fingerprint) is
    // invariant across scatter mode and reader thread count.
    let (ds, g) = dataset(73, "digest");
    for shards in [1usize, 2, 4] {
        let (sa, sb) =
            build_sharded_engines(&ds, &g.0.join(format!("s{shards}")), shards).unwrap();
        for engine in [&sa as &dyn MicroblogEngine, &sb] {
            assert!(engine.set_scatter_mode(ScatterMode::Sequential));
            let oracle = serve(engine, &config(1, 128)).unwrap();
            assert_eq!(oracle.scatter_mode, Some(ScatterMode::Sequential));
            assert!(engine.set_scatter_mode(ScatterMode::Parallel));
            for threads in [1usize, 2, 4] {
                let par = serve(engine, &config(threads, 128)).unwrap();
                assert_eq!(par.scatter_mode, Some(ScatterMode::Parallel));
                assert_eq!(
                    fingerprint(&par),
                    fingerprint(&oracle),
                    "{} x{threads}: parallel scatter diverged from sequential oracle",
                    engine.name()
                );
                assert_eq!(par.digest(), oracle.digest(), "{} digest", engine.name());
                if shards > 1 {
                    let maxfan =
                        par.per_query.iter().map(|q| q.max_fanout).max().unwrap_or(0);
                    assert!(
                        maxfan as usize == shards,
                        "{}: broadcast queries should fan out to all {shards} shards, saw {maxfan}",
                        engine.name()
                    );
                }
            }
        }
    }
}

#[test]
fn chaos_parallel_masks_transient_faults_identically() {
    // The chaos headline invariant survives the parallel executor: under a
    // transient plan with retries, the Parallel digest equals both the
    // Sequential chaos oracle AND the fault-free run — fault decisions are
    // pure per (salt, method, args, attempt), so moving a shard call onto
    // a worker thread cannot change its outcome.
    silence_injected_panics();
    let (ds, g) = dataset(74, "transient");
    let (clean, _) = build_sharded_engines(&ds, &g.0.join("clean"), 4).unwrap();
    let (chaos, _) = build_chaos_sharded_engines(
        &ds,
        &g.0.join("chaos"),
        4,
        FaultPlan::transient(3),
        RetryPolicy::default(),
        DegradationMode::Strict,
    )
    .unwrap();
    assert!(clean.set_scatter_mode(ScatterMode::Sequential));
    let base = serve(&clean, &config(1, 128)).unwrap();
    assert!(base.faults.is_zero());

    assert!(chaos.set_scatter_mode(ScatterMode::Sequential));
    let seq = serve(&chaos, &config(1, 128)).unwrap();
    assert!(chaos.set_scatter_mode(ScatterMode::Parallel));
    for threads in [1usize, 4] {
        let par = serve(&chaos, &config(threads, 128)).unwrap();
        assert_eq!(par.rendered, base.rendered, "x{threads}: faults leaked into answers");
        assert_eq!(par.digest(), base.digest(), "x{threads}: digest diverged from clean");
        // Transient plans heal on every shard, so even the internal fault
        // counters match the sequential chaos run exactly.
        assert_eq!(fingerprint(&par), fingerprint(&seq), "x{threads}");
        assert_eq!(par.errors, 0);
        assert_eq!(par.degraded, 0);
        assert!(par.faults.total_injected() > 0, "vacuous: plan injected nothing");
        assert!(par.faults.retries > 0, "recovery must have spent retries");
    }
}

#[test]
fn chaos_parallel_surfaces_hostile_errors_identically() {
    // Hostile (permanent) faults: the rendered answers, error count and
    // degraded count still match the sequential oracle byte-for-byte.
    // (Internal fault counters may differ: Sequential short-circuits at
    // the first failed shard, Parallel has already dispatched the rest.)
    silence_injected_panics();
    let (ds, g) = dataset(75, "hostile");
    let (chaos, _) = build_chaos_sharded_engines(
        &ds,
        &g.0.join("chaos"),
        4,
        FaultPlan::hostile(5),
        RetryPolicy::default(),
        DegradationMode::Strict,
    )
    .unwrap();
    assert!(chaos.set_scatter_mode(ScatterMode::Sequential));
    let seq = serve(&chaos, &config(1, 128)).unwrap();
    assert!(seq.errors > 0, "hostile plan should defeat the retry budget somewhere");
    assert!(chaos.set_scatter_mode(ScatterMode::Parallel));
    for threads in [1usize, 4] {
        let par = serve(&chaos, &config(threads, 128)).unwrap();
        assert_eq!(answers(&par), answers(&seq), "x{threads}: hostile errors diverged");
    }
}

#[test]
fn a_deadline_between_one_leg_and_the_sum_separates_the_modes() {
    // A fault-free plan that charges 10 virtual µs per shard call, under a
    // 25 µs query deadline: a 4-shard broadcast costs 10 µs in Parallel
    // mode (the max leg) but 40 µs in Sequential mode (the sum). Parallel
    // answers like the monolith; Sequential returns a typed Timeout.
    let (ds, g) = dataset(76, "deadline");
    let files = ds.write_csv(&g.0.join("mono")).unwrap();
    let (arbor, _, _) = micrograph_core::ingest::build_engines(&files).unwrap();
    let plan = FaultPlan { call_latency_us: 10, ..FaultPlan::new(1) };
    let policy = RetryPolicy { deadline_us: Some(25), ..RetryPolicy::default() };
    let (sa, sb) = build_chaos_sharded_engines(
        &ds,
        &g.0.join("chaos"),
        4,
        plan,
        policy,
        DegradationMode::Strict,
    )
    .unwrap();
    let threshold = 2;
    let expected = arbor.users_with_followers_over(threshold).unwrap();
    assert!(!expected.is_empty(), "vacuous: Q1.1 selected nobody");
    for engine in [&sa as &dyn MicroblogEngine, &sb] {
        assert!(engine.set_scatter_mode(ScatterMode::Parallel));
        let par = engine.users_with_followers_over(threshold);
        assert_eq!(par.unwrap(), expected, "{}: Parallel must answer", engine.name());
        assert!(engine.set_scatter_mode(ScatterMode::Sequential));
        let seq = engine.users_with_followers_over(threshold);
        assert!(
            matches!(seq, Err(CoreError::Timeout(_))),
            "{}: Sequential must time out, got {seq:?}",
            engine.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Partial-mode coverage tags are a pure function of the fault plan:
    /// for random (data seed, chaos seed) pairs, the `<coverage:a/t>`
    /// tape — and the whole fingerprint — is identical in Parallel and
    /// Sequential mode at any thread count. In Partial mode every shard
    /// is consulted on both paths (lost shards are skipped, not
    /// short-circuited), so even the fault counters must agree.
    #[test]
    fn partial_coverage_tags_are_interleaving_independent(
        data_seed in 80u64..200,
        chaos_seed in 1u64..64,
    ) {
        silence_injected_panics();
        let (ds, g) = dataset(data_seed, "prop");
        let (chaos, _) = build_chaos_sharded_engines(
            &ds,
            &g.0.join("chaos"),
            2,
            FaultPlan::hostile(chaos_seed),
            RetryPolicy::default(),
            DegradationMode::Partial,
        )
        .unwrap();
        prop_assert!(chaos.set_scatter_mode(ScatterMode::Sequential));
        let oracle = serve(&chaos, &config(1, 64)).unwrap();
        prop_assert!(chaos.set_scatter_mode(ScatterMode::Parallel));
        for threads in [1usize, 4] {
            let par = serve(&chaos, &config(threads, 64)).unwrap();
            prop_assert_eq!(
                fingerprint(&par),
                fingerprint(&oracle),
                "seed ({}, {}) x{}: partial coverage diverged",
                data_seed, chaos_seed, threads
            );
            for (p, o) in par.rendered.iter().zip(oracle.rendered.iter()) {
                prop_assert_eq!(
                    p.contains("<coverage:"),
                    o.contains("<coverage:"),
                    "coverage tagging diverged: {} vs {}", p, o
                );
            }
        }
    }
}
