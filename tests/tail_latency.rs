//! Tail-latency engineering invariants (DESIGN.md §4f): the per-shard
//! top-n pushdown merge and deterministic hedged requests are pure
//! performance features — neither may move a single byte of any answer.
//! Pushdown-merge ≡ monolith is pinned across the 8-engine matrix,
//! hedge-on ≡ hedge-off across clean and transient-chaos runs, and
//! per-class deadlines shed scatter stragglers deterministically in
//! Partial mode.

use micrograph_core::engine::MicroblogEngine;
use micrograph_core::fault::silence_injected_panics;
use micrograph_core::ingest::{build_chaos_sharded_engines, build_sharded_engines};
use micrograph_core::serve::{serve, ClassDeadlines, ServeConfig, ServeReport};
use micrograph_core::workload::{run_query, QueryClass, QueryId, QueryParams};
use micrograph_core::{DegradationMode, FaultPlan, RetryPolicy};
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
    let dir = micrograph_common::unique_temp_dir(&format!("tail-{tag}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    (generate(&cfg), Guard(dir))
}

fn config(threads: usize, requests: usize) -> ServeConfig {
    ServeConfig { threads, requests, seed: 7, users: USERS, vocab: 16, ..Default::default() }
}

/// Everything a hedge flip must keep identical on a clean engine.
fn fingerprint(r: &ServeReport) -> (Vec<String>, u64, u64, String) {
    (r.rendered.clone(), r.errors, r.degraded, r.faults.to_string())
}

#[test]
fn pushdown_merge_matches_the_monolith_across_the_matrix() {
    // The 8-engine matrix: for every sharded engine, the threshold-
    // algorithm merge over bounded `*_topn_kernel` partials must answer
    // the full Q1–Q6 sweep identically to the monolith reference.
    let (ds, g) = dataset(91, "matrix");
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
    let mut rng = micrograph_common::rng::SplitMix64::new(91);
    for round in 0..4 {
        let mut params = QueryParams::sample(&mut rng, USERS, 8);
        // Sweep n across the TA edge cases: n == 1, n larger than most
        // candidate sets, and the default.
        params.n = [1, 25, 10, 3][round];
        for q in QueryId::ALL {
            let expected = run_query(reference, q, &params).unwrap();
            assert_eq!(expected, run_query(&bit, q, &params).unwrap(), "{}", q.label());
            for s in &sharded {
                let got = run_query(s, q, &params).unwrap();
                assert_eq!(expected, got, "{} on {} diverged from monolith", q.label(), s.name());
            }
        }
    }
}

#[test]
fn hedging_is_inert_on_clean_engines() {
    // On clean engines nothing ever crosses the straggler threshold, so
    // arming hedging (under a deadline, which installs the virtual budget
    // hedging keys off) changes nothing — not even the fault counters.
    let (ds, g) = dataset(93, "clean-hedge");
    let (sharded, _) = build_sharded_engines(&ds, &g.0.join("s"), 4).unwrap();
    let mut cfg = config(2, 128);
    cfg.deadline_us = Some(10_000_000);
    sharded.set_hedging(None);
    let off = serve(&sharded, &cfg).unwrap();
    sharded.set_hedging(Some(25));
    let on = serve(&sharded, &cfg).unwrap();
    sharded.set_hedging(None);
    assert_eq!(fingerprint(&on), fingerprint(&off), "hedge flip moved the fingerprint");
    assert_eq!(on.digest(), off.digest());
    assert_eq!(on.faults.hedges, 0, "clean legs must never trip the threshold");
}

#[test]
fn transient_chaos_hedging_preserves_the_clean_digest() {
    // The tentpole invariant: under a transient plan with a generous
    // deadline, hedged scatter legs fire (faulted primaries exceed the
    // threshold), hedge attempts run on their own attempt band, and the
    // answers stay byte-identical to both the unhedged chaos run and the
    // fault-free run.
    silence_injected_panics();
    let (ds, g) = dataset(94, "chaos-hedge");
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
    let mut cfg = config(1, 128);
    cfg.deadline_us = Some(50_000_000);
    let base = serve(&clean, &cfg).unwrap();
    assert!(base.faults.is_zero());

    chaos.set_hedging(None);
    let unhedged = serve(&chaos, &cfg).unwrap();
    assert_eq!(unhedged.rendered, base.rendered, "chaos leaked into answers");
    assert!(unhedged.faults.total_injected() > 0, "vacuous: plan injected nothing");
    assert_eq!(unhedged.faults.hedges, 0);

    // A threshold above a healthy call (10 virtual us) but below a faulted
    // retry ladder (fault latency 50 + backoff): only stragglers hedge.
    for threads in [1usize, 4] {
        let mut hcfg = cfg;
        hcfg.threads = threads;
        chaos.set_hedging(Some(25));
        let hedged = serve(&chaos, &hcfg).unwrap();
        chaos.set_hedging(None);
        assert_eq!(hedged.rendered, base.rendered, "x{threads}: hedging moved an answer");
        assert_eq!(hedged.digest(), base.digest(), "x{threads}: digest diverged");
        assert_eq!(hedged.errors, 0);
        assert_eq!(hedged.degraded, 0);
        assert!(hedged.faults.hedges > 0, "x{threads}: no straggler ever hedged");
        assert!(
            hedged.faults.hedge_wins > 0,
            "x{threads}: healthy hedge attempts should beat faulted retry ladders"
        );
    }
}

#[test]
fn per_class_deadlines_shed_scatter_stragglers_deterministically() {
    // Partial mode + a tight scatter-class deadline: overload sheds
    // straggler legs (tagged `<coverage:a/t>`) instead of queueing, the
    // shed tape is a pure function of the fault plan (identical at any
    // thread count), and point/traversal classes keep running without a
    // budget.
    silence_injected_panics();
    let (ds, g) = dataset(96, "shed");
    let (chaos, _) = build_chaos_sharded_engines(
        &ds,
        &g.0.join("chaos"),
        2,
        FaultPlan::transient(5),
        RetryPolicy::default(),
        DegradationMode::Partial,
    )
    .unwrap();
    let mut cfg = config(1, 128);
    cfg.class_deadlines = ClassDeadlines { scatter_us: Some(120), ..Default::default() };
    let oracle = serve(&chaos, &cfg).unwrap();
    assert!(oracle.faults.shed > 0, "tight scatter budget never shed a leg");
    assert!(oracle.degraded > 0, "shedding must surface as degraded answers");
    assert!(
        oracle.rendered.iter().any(|r| r.contains("<coverage:")),
        "shed answers must carry coverage tags"
    );
    // The class table reports the effective deadline per class.
    for row in &oracle.per_class {
        let expect = match row.class {
            QueryClass::Scatter => Some(120),
            _ => None,
        };
        assert_eq!(row.deadline_us, expect, "{} deadline row", row.class.label());
    }
    assert_eq!(
        oracle.per_class.iter().map(|c| c.count).sum::<u64>(),
        oracle.requests as u64,
        "class rows must partition the stream"
    );
    for threads in [2usize, 4] {
        let mut tcfg = cfg;
        tcfg.threads = threads;
        let par = serve(&chaos, &tcfg).unwrap();
        assert_eq!(
            fingerprint(&par),
            fingerprint(&oracle),
            "x{threads}: shedding was not interleaving-independent"
        );
    }
}

#[test]
fn class_rows_partition_a_clean_serving_run() {
    // Satellite check on the report shape itself: per-class percentile
    // rows cover every request, appear in catalog order, and render.
    let (ds, g) = dataset(97, "rows");
    let (sharded, _) = build_sharded_engines(&ds, &g.0.join("s"), 2).unwrap();
    let report = serve(&sharded, &config(2, 128)).unwrap();
    assert_eq!(
        report.per_class.iter().map(|c| c.count).sum::<u64>(),
        report.requests as u64
    );
    let labels: Vec<&str> = report.per_class.iter().map(|c| c.class.label()).collect();
    assert_eq!(labels, ["point", "scatter", "traversal"]);
    let text = report.render();
    for label in labels {
        assert!(text.contains(label), "{label} row missing from render");
    }
    assert!(text.contains("deadline"), "class table must show deadlines");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// For random datasets and top-n limits, the sharded pushdown merge
    /// returns the same rows as the monolith of the same backend for every
    /// top-n query — the TA bound logic can never change an answer, only
    /// how many candidates cross the wire.
    #[test]
    fn pushdown_merge_equals_the_monolith(
        data_seed in 300u64..400,
        n in 1usize..24,
    ) {
        let (ds, g) = dataset(data_seed, "prop");
        let files = ds.write_csv(&g.0.join("mono")).unwrap();
        let (arbor, bit, _) = micrograph_core::ingest::build_engines(&files).unwrap();
        let (sa, sb) = build_sharded_engines(&ds, &g.0.join("s"), 2).unwrap();
        let mut rng = micrograph_common::rng::SplitMix64::new(data_seed);
        let mut params = QueryParams::sample(&mut rng, USERS, 8);
        params.n = n;
        let pairs: [(&dyn MicroblogEngine, &dyn MicroblogEngine); 2] =
            [(&arbor, &sa), (&bit, &sb)];
        for q in [QueryId::Q3_1, QueryId::Q3_2, QueryId::Q4_1, QueryId::Q4_2,
                  QueryId::Q5_1, QueryId::Q5_2] {
            for (mono, sharded) in pairs {
                prop_assert_eq!(
                    run_query(mono, q, &params).unwrap(),
                    run_query(sharded, q, &params).unwrap(),
                    "{} n={} seed={}: {} diverged from {}",
                    q.label(), n, data_seed, sharded.name(), mono.name()
                );
            }
        }
    }
}
