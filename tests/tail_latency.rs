//! Tail-latency engineering invariants (DESIGN.md §4f): the sharded top-n
//! merges (Q3/Q4 sum the full per-shard counts, Q5 merges one round of
//! bounded partials) answer exactly what the monolith answers — pinned
//! across the 8-engine matrix. Each top-n request is one fan-out, so a
//! lost shard costs it exactly one shard of coverage; transient chaos
//! under a deadline keeps the clean digest, and per-class deadlines shed
//! scatter stragglers deterministically in Partial mode.

use micrograph_core::engine::MicroblogEngine;
use micrograph_core::fault::{self, silence_injected_panics};
use micrograph_core::ingest::{
    build_chaos_sharded_engines, build_replicated_engines, build_sharded_engines,
};
use micrograph_core::serve::{
    execute_rendered, serve, ClassDeadlines, Request, ServeConfig, ServeReport,
};
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

/// Everything a thread-count change must keep identical on one engine.
fn fingerprint(r: &ServeReport) -> (Vec<String>, u64, u64, String) {
    (r.rendered.clone(), r.errors, r.degraded, r.faults.to_string())
}

#[test]
fn count_sum_merge_matches_the_monolith_across_the_matrix() {
    // The 8-engine matrix: for every sharded engine, the Q3/Q4 count-sum
    // merge (full per-shard counts, summed, exclusions dropped, then the
    // top-n cut) and the rest of the Q1–Q6 sweep must answer identically
    // to the monolith reference.
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
    for round in 0..5 {
        let mut params = QueryParams::sample(&mut rng, USERS, 8);
        // Sweep n across the cut's edge cases: n == 1, n larger than most
        // candidate sets, the default, and n == 0 (an empty answer).
        params.n = [1, 25, 10, 3, 0][round];
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
fn partial_mode_tags_every_q3_answer_with_one_fanout_of_coverage() {
    // 4 shards, R = 1, Partial mode, the sole replica of shard 2 killed: a
    // Q3 request is ONE broadcast, so exactly 3 of its 4 shard calls
    // answer and every answer is tagged `<coverage:3/4>` on both backends.
    // The dataset is dense and n = 1 is swept, so shards hold far more
    // co-occurrence candidates than any top-n cut keeps.
    let mut cfg = GenConfig::unit();
    cfg.seed = 98;
    cfg.users = USERS;
    cfg.poster_fraction = 0.5;
    cfg.tweets_per_poster = 10;
    cfg.mentions_per_tweet = 3.0;
    cfg.tags_per_tweet = 3.0;
    cfg.hashtag_vocab = 120;
    let ds = generate(&cfg);
    let g = Guard(micrograph_common::unique_temp_dir("tail-coverage-98"));
    let _ = std::fs::remove_dir_all(&g.0);
    let (arbor, bit) = build_replicated_engines(&ds, &g.0, 4, 1).unwrap();
    let base = QueryParams::sample(&mut micrograph_common::rng::SplitMix64::new(98), USERS, 8);
    let mut requests = Vec::new();
    for n in [1, 10] {
        for uid in 1..=USERS as i64 {
            let params = QueryParams { uid, n, ..base.clone() };
            requests.push(Request { query: QueryId::Q3_1, params });
        }
        for tag in &ds.hashtags {
            let params = QueryParams { tag: tag.clone(), n, ..base.clone() };
            requests.push(Request { query: QueryId::Q3_2, params });
        }
    }
    for engine in [arbor, bit] {
        let engine = engine.with_degradation(DegradationMode::Partial);
        engine.kill_replica(2, 0);
        for req in &requests {
            let (answer, stats) =
                fault::with_request_budget(None, || execute_rendered(&engine, req));
            answer.unwrap();
            assert_eq!(
                format!("<coverage:{}>", stats.coverage),
                "<coverage:3/4>",
                "{}: {} uid={} tag={} n={}",
                engine.name(),
                req.query.label(),
                req.params.uid,
                req.params.tag,
                req.params.n
            );
        }
    }
}

#[test]
fn transient_chaos_under_a_deadline_preserves_the_clean_digest() {
    // Under a transient plan with a generous deadline, every faulted
    // scatter leg is masked by its retry ladder inside the budget, so the
    // answers and the digest stay byte-identical to the fault-free run at
    // any reader thread count — with nothing degraded and nothing failed.
    silence_injected_panics();
    let (ds, g) = dataset(94, "chaos-deadline");
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

    for threads in [1usize, 4] {
        let mut tcfg = cfg;
        tcfg.threads = threads;
        let run = serve(&chaos, &tcfg).unwrap();
        assert_eq!(run.rendered, base.rendered, "x{threads}: chaos leaked into answers");
        assert_eq!(run.digest(), base.digest(), "x{threads}: digest diverged");
        assert_eq!(run.errors, 0);
        assert_eq!(run.degraded, 0);
        assert!(run.faults.total_injected() > 0, "x{threads}: vacuous: plan injected nothing");
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

    /// For random datasets and top-n limits, the sharded top-n merges (the
    /// Q3/Q4 count-sum, Q5's one round of disjoint partials) return the
    /// same rows as the monolith of the same backend for every top-n
    /// query: summing before the cut sees every key's full count.
    #[test]
    fn count_sum_merge_equals_the_monolith(
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
