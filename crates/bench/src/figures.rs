//! Generators for every table and figure in the paper's evaluation.
//!
//! | artifact | generator |
//! |---|---|
//! | Table 1  | [`table1`] |
//! | Table 2  | [`table2`] |
//! | Fig 2    | [`fig2`] (arbordb import curves) |
//! | Fig 3    | [`fig3`] (bitgraph load curves + follows marker) |
//! | Fig 4a–h | [`fig4`] (Q3.1 / Q4.1 / Q5.2 / Q6.1 per engine) |
//! | §4 items | [`ablations`] (D1–D6 in DESIGN.md) |
//! | §5 FW1   | [`update_throughput`] (the future-work update workload) |
//! | §5 FW3   | [`chaos`] (fault-injection robustness, DESIGN.md §4d) |
//!
//! Serving throughput and latency (FW2, FW4–FW9) are measured by the
//! `perfbench` package alone; their invariants are integration tests.

use arbor_ql::EngineOptions;
use arbor_ql::plan::PlannerOptions;
use micrograph_common::rng::SplitMix64;
use micrograph_common::stats::{percentile, ProgressCurve};
use micrograph_core::adapters::RecommendationPhrasing;
use micrograph_core::engine::MicroblogEngine;
use micrograph_core::ingest::ingest_bit;
use micrograph_core::runner::{measure, measure_cold, measure_query, MeasureConfig};
use micrograph_core::serve::{serve, ServeConfig};
use micrograph_core::workload::{render_table2, QueryId, QueryParams};
use micrograph_core::{ArborEngine, Value};

use crate::fixture::Fixture;
use crate::report::{compare_line, Series};

/// Lighter measurement protocol for figure sweeps (many subjects).
pub fn figure_protocol() -> MeasureConfig {
    MeasureConfig { min_warmup: 2, max_warmup: 6, stable_spread: 0.35, runs: 5 }
}

/// Regenerates Table 1 alongside the paper's reference counts.
pub fn table1(f: &Fixture) -> String {
    let s = f.dataset.stats();
    let mut out = String::new();
    out.push_str("Table 1: Characteristics of the data set (synthetic, paper-shape ratios)\n\n");
    out.push_str(&s.render_table());
    out.push('\n');
    out.push_str("Paper reference (Li et al. crawl):\n");
    out.push_str("  user 24,789,792   follows  284,000,284\n");
    out.push_str("  tweet 24,000,023  posts     24,000,023\n");
    out.push_str("  hashtag 616,109   mentions  11,100,547\n");
    out.push_str("                    tags       7,137,992\n");
    out.push_str(&format!(
        "\nShape checks: follows fraction {:.2} (paper 0.87), mentions/tweet {:.2} (paper 0.46), tags/tweet {:.2} (paper 0.30)\n",
        s.follows_fraction(),
        s.mentions as f64 / s.tweets.max(1) as f64,
        s.tags as f64 / s.tweets.max(1) as f64,
    ));
    out
}

/// Regenerates Table 2 (the query workload).
pub fn table2() -> String {
    format!("Table 2: Query workload\n\n{}", render_table2())
}

fn curve_series(title: &str, curve: &ProgressCurve) -> Series {
    let mut s = Series::new(title, "records", "interval ms");
    s.points = curve
        .interval_times_ms()
        .into_iter()
        .map(|(r, t)| (r as f64, t))
        .collect();
    s.markers = curve.markers.iter().map(|(l, at)| (l.clone(), *at as f64)).collect();
    s
}

/// Figure 2: arbordb import times for nodes (a) and edges (b).
pub fn fig2(f: &Fixture) -> Vec<Series> {
    let a = curve_series("Fig 2(a) arbordb node import", &f.reports.arbor.node_curve);
    let b = curve_series("Fig 2(b) arbordb edge import", &f.reports.arbor.edge_curve);
    vec![a, b]
}

/// Figure 3: bitgraph load times for nodes (a) and edges (b), with the
/// end-of-follows marker (the paper's vertical line).
pub fn fig3(f: &Fixture) -> Vec<Series> {
    let a = curve_series("Fig 3(a) bitgraph node load", &f.reports.bit.node_curve);
    let b = curve_series("Fig 3(b) bitgraph edge load", &f.reports.bit.edge_curve);
    vec![a, b]
}

/// A Figure 4 panel id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    /// (a) Q3.1 on arbordb.
    A,
    /// (b) Q3.1 on bitgraph.
    B,
    /// (c) Q4.1 on arbordb.
    C,
    /// (d) Q4.1 on bitgraph.
    D,
    /// (e) Q5.2 on arbordb.
    E,
    /// (f) Q5.2 on bitgraph.
    F,
    /// (g) Q6.1 on arbordb.
    G,
    /// (h) Q6.1 on bitgraph.
    H,
}

impl Panel {
    /// All panels in paper order.
    pub const ALL: [Panel; 8] =
        [Panel::A, Panel::B, Panel::C, Panel::D, Panel::E, Panel::F, Panel::G, Panel::H];

    /// Parses "a".."h".
    pub fn parse(s: &str) -> Option<Panel> {
        match s.to_ascii_lowercase().as_str() {
            "a" => Some(Panel::A),
            "b" => Some(Panel::B),
            "c" => Some(Panel::C),
            "d" => Some(Panel::D),
            "e" => Some(Panel::E),
            "f" => Some(Panel::F),
            "g" => Some(Panel::G),
            "h" => Some(Panel::H),
            _ => None,
        }
    }
}

/// How many subjects each figure panel sweeps.
const SUBJECTS: usize = 20;
/// "No limit": the paper's Figure 4(a–d) x-axis is total rows returned.
const UNLIMITED: usize = usize::MAX / 2;

fn engine_of(f: &Fixture, arbor: bool) -> &dyn MicroblogEngine {
    if arbor {
        &f.arbor
    } else {
        &f.bit
    }
}

/// Regenerates one Figure 4 panel.
pub fn fig4(f: &Fixture, panel: Panel) -> Series {
    match panel {
        Panel::A => fig4_q31(f, true),
        Panel::B => fig4_q31(f, false),
        Panel::C => fig4_q41(f, true),
        Panel::D => fig4_q41(f, false),
        Panel::E => fig4_q52(f, true),
        Panel::F => fig4_q52(f, false),
        Panel::G => fig4_q61(f, true),
        Panel::H => fig4_q61(f, false),
    }
}

/// Q3.1 latency against rows returned (panels a/b).
fn fig4_q31(f: &Fixture, arbor: bool) -> Series {
    let engine = engine_of(f, arbor);
    let name = if arbor { "arbordb" } else { "bitgraph" };
    let subjects = Fixture::log_spread(&f.users_by_mention_degree(), SUBJECTS);
    let mut s = Series::new(
        format!("Fig 4({}) Q3.1 co-occurrence — {name}", if arbor { 'a' } else { 'b' }),
        "rows returned",
        "average time (ms)",
    );
    for (uid, _) in subjects {
        let rows = engine.co_mentioned_users(uid, UNLIMITED).expect("q3.1").len() as f64;
        let params = QueryParams { uid, n: UNLIMITED, ..QueryParams::default() };
        let m = measure_query(engine, QueryId::Q3_1, &params, &figure_protocol())
            .expect("measure");
        s.points.push((rows, m.avg_ms));
    }
    s.points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    s
}

/// Q4.1 latency against rows returned (panels c/d).
fn fig4_q41(f: &Fixture, arbor: bool) -> Series {
    let engine = engine_of(f, arbor);
    let name = if arbor { "arbordb" } else { "bitgraph" };
    let subjects = Fixture::log_spread(&f.users_by_out_degree(), SUBJECTS);
    let mut s = Series::new(
        format!("Fig 4({}) Q4.1 recommendation — {name}", if arbor { 'c' } else { 'd' }),
        "rows returned",
        "average time (ms)",
    );
    for (uid, _) in subjects {
        let rows = engine.recommend_followees(uid, UNLIMITED).expect("q4.1").len() as f64;
        let params = QueryParams { uid, n: UNLIMITED, ..QueryParams::default() };
        let m = measure_query(engine, QueryId::Q4_1, &params, &figure_protocol())
            .expect("measure");
        s.points.push((rows, m.avg_ms));
    }
    s.points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    s
}

/// Q5.2 latency against mention degree (panels e/f).
fn fig4_q52(f: &Fixture, arbor: bool) -> Series {
    let engine = engine_of(f, arbor);
    let name = if arbor { "arbordb" } else { "bitgraph" };
    let subjects = Fixture::log_spread(&f.users_by_mention_degree(), SUBJECTS);
    let mut s = Series::new(
        format!("Fig 4({}) Q5.2 potential influence — {name}", if arbor { 'e' } else { 'f' }),
        "degree (mentions of user)",
        "average time (ms)",
    );
    for (uid, degree) in subjects {
        let params = QueryParams { uid, n: UNLIMITED, ..QueryParams::default() };
        let m = measure_query(engine, QueryId::Q5_2, &params, &figure_protocol())
            .expect("measure");
        s.points.push((degree as f64, m.avg_ms));
    }
    s.points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    s
}

/// Q6.1 latency against path length (panels g/h): random user pairs
/// bucketed by the length of the path found.
fn fig4_q61(f: &Fixture, arbor: bool) -> Series {
    let engine = engine_of(f, arbor);
    let name = if arbor { "arbordb" } else { "bitgraph" };
    let users = f.dataset.users.len() as u64;
    let mut rng = SplitMix64::new(0x6_1);
    let max_hops = 4u32;
    // Collect pairs per observed path length until each bucket has a few.
    let mut buckets: std::collections::BTreeMap<u32, Vec<(i64, i64)>> = Default::default();
    let mut attempts = 0;
    while attempts < 4000 && buckets.values().map(|v| v.len()).sum::<usize>() < 40 {
        attempts += 1;
        let a = rng.next_range(1, users + 1) as i64;
        let b = rng.next_range(1, users + 1) as i64;
        if a == b {
            continue;
        }
        if let Some(len) = engine.shortest_path_len(a, b, max_hops).expect("q6.1") {
            let bucket = buckets.entry(len).or_default();
            if bucket.len() < 8 {
                bucket.push((a, b));
            }
        }
    }
    let mut s = Series::new(
        format!("Fig 4({}) Q6.1 shortest path — {name}", if arbor { 'g' } else { 'h' }),
        "path length",
        "average time (ms)",
    );
    for (len, pairs) in buckets {
        let mut total = 0.0;
        for &(a, b) in &pairs {
            let params =
                QueryParams { uid: a, uid_b: b, max_hops, ..QueryParams::default() };
            let m = measure_query(engine, QueryId::Q6_1, &params, &figure_protocol())
                .expect("measure");
            total += m.avg_ms;
        }
        s.points.push((len as f64, total / pairs.len() as f64));
    }
    s
}

/// The §4 ablations (DESIGN.md D1–D5) as a text report.
pub fn ablations(f: &Fixture) -> String {
    let mut out = String::new();
    out.push_str("== Ablations (Section 4 discussion items) ==\n\n");
    out.push_str(&d1_plan_cache(f));
    out.push_str(&d2_phrasings(f));
    out.push_str(&d3_topn_pushdown(f));
    out.push_str(&d4_cold_cache(f));
    out.push_str(&d5_materialization(f));
    out.push_str(&d6_traversal_vs_navigation(f));
    out
}

/// D6 — §4: bitgraph raw navigation vs traversal contexts ("raw navigation
/// operations are slightly more efficient ... perhaps due to the overhead
/// involved with the traversals").
pub fn d6_traversal_vs_navigation(f: &Fixture) -> String {
    let subjects = Fixture::log_spread(&f.users_by_out_degree(), 8);
    let mut nav_total = 0.0;
    let mut trav_total = 0.0;
    for &(uid, _) in &subjects {
        let nav = measure(&figure_protocol(), || f.bit.two_step_reach_nav(uid).map(|_| ()))
            .expect("measure");
        let trav = measure(&figure_protocol(), || {
            f.bit.two_step_reach_traversal(uid).map(|_| ())
        })
        .expect("measure");
        nav_total += nav.avg_ms;
        trav_total += trav.avg_ms;
    }
    let n = subjects.len() as f64;
    format!(
        "D6 bitgraph 2-step reach: raw navigation {:.3} ms vs traversal context {:.3} ms ({:.2}x)\n",
        nav_total / n,
        trav_total / n,
        (trav_total / n) / (nav_total / n).max(1e-9)
    )
}

/// D1 — plan-cache speedup with parameters.
pub fn d1_plan_cache(f: &Fixture) -> String {
    // Low-degree subjects keep execution cheap, so compilation cost is the
    // variable under test.
    let ranked = f.users_by_out_degree();
    let subjects: Vec<(i64, u64)> = ranked.iter().rev().take(10).copied().collect();
    let q = "MATCH (a:user {uid: $uid})-[:follows]->(x)-[:posts]->(t:tweet) RETURN t.tid";
    let ql = f.arbor.ql();
    ql.clear_cache();
    let run = |literal: bool| -> f64 {
        let mut total = 0.0;
        for _ in 0..20 {
            for &(uid, _) in &subjects {
                let t = micrograph_common::stats::Timer::start();
                if literal {
                    // A fresh literal text never repeats in a real workload:
                    // every execution pays parse + plan.
                    ql.clear_cache();
                    let text = q.replace("$uid", &uid.to_string());
                    ql.query(&text, &[]).expect("query");
                } else {
                    ql.query(q, &[("uid", Value::Int(uid))]).expect("query");
                }
                total += t.elapsed_ms();
            }
        }
        total / (20.0 * subjects.len() as f64)
    };
    let parameterized = run(false);
    let literal = run(true);
    format!(
        "D1 plan cache (Q2.2): parameterized {parameterized:.3} ms/query vs literal {literal:.3} ms/query ({:.2}x)\n",
        literal / parameterized.max(1e-9)
    )
}

/// Rounds behind each D2/D3 figure: one `figure_protocol` measurement of
/// a phrasing or plan swings by ±30% on a shared host, so each arm
/// reports its median over this many rounds.
const ROUNDS: usize = 7;

/// Runs every arm once per round for [`ROUNDS`] rounds, round `r` starting
/// at arm `r mod n` so no arm always runs first, and returns each arm's
/// samples in arm order.
fn rounds(arms: &[&dyn Fn() -> f64]) -> Vec<Vec<f64>> {
    let mut samples = vec![Vec::with_capacity(ROUNDS); arms.len()];
    for r in 0..ROUNDS {
        for i in 0..arms.len() {
            let arm = (r + i) % arms.len();
            samples[arm].push(arms[arm]());
        }
    }
    samples
}

/// The median of `samples` and its rendering with the min–max range.
fn median(samples: &[f64]) -> (f64, String) {
    let m = percentile(samples, 50.0);
    let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (m, format!("{m:.3} ms ({lo:.3}–{hi:.3})"))
}

/// D2 — the three recommendation phrasings, median of [`ROUNDS`] rounds.
pub fn d2_phrasings(f: &Fixture) -> String {
    let (uid, _) = f.users_by_out_degree()[0];
    let time = |phrasing| {
        measure(&figure_protocol(), || f.arbor.recommend_phrasing(phrasing, uid, 10).map(|_| ()))
            .expect("measure")
            .avg_ms
    };
    let samples = rounds(&[
        &|| time(RecommendationPhrasing::VarLength),
        &|| time(RecommendationPhrasing::Canonical),
        &|| time(RecommendationPhrasing::Undirected),
    ]);
    let mut out = String::new();
    let mut medians = Vec::new();
    let labels = ["(a) [:follows*2..2]", "(b) explicit 2-step", "(c) undirected *2..2"];
    for (label, s) in labels.iter().zip(&samples) {
        let (m, text) = median(s);
        medians.push(m);
        out.push_str(&format!("D2 phrasing {label:<22} {text} (uid {uid}, median of {ROUNDS})\n"));
    }
    out.push_str(&format!(
        "D2 (c) / slower of (a), (b): {:.2}x\n",
        medians[2] / medians[0].max(medians[1]).max(1e-9)
    ));
    out
}

/// D3 — TopN pushdown on/off, plus the navigation engine's forced full
/// retrieval, median of [`ROUNDS`] rounds.
pub fn d3_topn_pushdown(f: &Fixture) -> String {
    // Head users: the ordering/limiting overhead only matters when the
    // aggregated candidate set is large.
    let subjects: Vec<(i64, u64)> =
        f.users_by_out_degree().into_iter().take(3).collect();
    let with = ArborEngine::with_options(f.arbor.db_arc(), EngineOptions::standard());
    let without = ArborEngine::with_options(
        f.arbor.db_arc(),
        EngineOptions {
            planner: PlannerOptions { topn_pushdown: false, ..PlannerOptions::default() },
            ..EngineOptions::standard()
        },
    );
    let time = |e: &dyn MicroblogEngine| -> f64 {
        let mut total = 0.0;
        for &(uid, _) in &subjects {
            let m = measure(&figure_protocol(), || e.recommend_followees(uid, 10).map(|_| ()))
                .expect("measure");
            total += m.avg_ms;
        }
        total / subjects.len() as f64
    };
    let samples = rounds(&[&|| time(&with), &|| time(&without), &|| time(&f.bit)]);
    let (topn, topn_text) = median(&samples[0]);
    let (sort, sort_text) = median(&samples[1]);
    format!(
        "D3 top-n (Q4.1, n=10, median of {ROUNDS}): TopN pushdown {topn_text} vs Sort+Limit {sort_text} ({:.2}x); bitgraph full-retrieve+sort {}\n",
        sort / topn.max(1e-9),
        median(&samples[2]).1
    )
}

/// D4 — cold vs warm cache against source degree.
pub fn d4_cold_cache(f: &Fixture) -> String {
    let ranked = f.users_by_out_degree();
    let lo = ranked[ranked.len() - 1];
    let hi = ranked[0];
    let mut out = String::new();
    for (label, (uid, deg)) in [("low-degree", lo), ("high-degree", hi)] {
        let warm = measure(&figure_protocol(), || f.arbor.followee_tweets(uid).map(|_| ()))
            .expect("measure");
        let cold = measure_cold(&f.arbor, 3, || f.arbor.followee_tweets(uid).map(|_| ()))
            .expect("measure");
        out.push_str(&format!(
            "D4 cold cache (Q2.2, {label}, out-degree {deg}): cold {:.3} ms vs warm {:.3} ms ({:.1}x)\n",
            cold.avg_ms,
            warm.avg_ms,
            cold.avg_ms / warm.avg_ms.max(1e-9)
        ));
    }
    out
}

/// D5 — neighbor-materialization import blow-up. Both stores are deleted
/// once measured (the materialized one is ~1 GB at medium scale).
pub fn d5_materialization(f: &Fixture) -> String {
    use bitgraph::loader::{LoadConfig, LoadOptions};
    let load = |name: &str, materialize: bool| {
        let path = f.dir.join(name);
        let config = LoadConfig { materialize, ..LoadConfig::default() };
        let (graph, report) =
            ingest_bit(&f.files, Some(&path), config, &LoadOptions::default()).expect("load");
        drop(graph);
        std::fs::remove_file(&path).expect("remove D5 store");
        report
    };
    let off = load("d5-off.gdb", false);
    let on = load("d5-on.gdb", true);
    format!(
        "D5 materialization: off {:.0} ms / {} bytes; on {:.0} ms / {} bytes ({:.1}x bytes)\n",
        off.total_ms,
        off.disk_bytes,
        on.total_ms,
        on.disk_bytes,
        on.disk_bytes as f64 / off.disk_bytes.max(1) as f64
    )
}

/// FW1 — the §5 future-work update workload: event-application throughput
/// on both engines over fresh copies of the fixture's dataset, once per
/// event through `apply_event` and once in group-commit batches through
/// `apply_event_batch` (DESIGN.md §4j).
pub fn update_throughput(f: &Fixture) -> String {
    use bitgraph::loader::{LoadConfig, LoadOptions};
    use micrograph_core::ingest::ingest_arbor;
    use micrograph_core::BitEngine;
    use micrograph_datagen::{StreamGen, StreamMix};

    const EVENTS: usize = 2_000;
    const BATCH: usize = 256;
    let config = crate::fixture::Scale::Small.config();
    // Events continue the fixture's dataset; engines are rebuilt so the
    // fixture itself stays immutable for other experiments.
    let mut events_gen = StreamGen::new(&f.dataset, &config, 7, StreamMix::default());
    let events = events_gen.events(EVENTS);

    let fresh = |tag: &str| -> (ArborEngine, BitEngine) {
        let (db, _) = ingest_arbor(
            &f.files,
            Some(&f.dir.join(format!("fw1-arbordb-{tag}"))),
            arbordb::db::DbConfig::default(),
            &arbordb::import::ImportOptions::default(),
        )
        .expect("ingest");
        let (g, _) = ingest_bit(&f.files, None, LoadConfig::default(), &LoadOptions::default())
            .expect("ingest");
        (ArborEngine::new(db), BitEngine::new(g).expect("bitgraph"))
    };
    // One generic application path for both engines, through the trait.
    let rate = |engine: &dyn MicroblogEngine, batch: usize| -> f64 {
        let t = micrograph_common::stats::Timer::start();
        for chunk in events.chunks(batch) {
            if batch == 1 { engine.apply_event(&chunk[0]) } else { engine.apply_event_batch(chunk) }
                .expect("apply");
        }
        EVENTS as f64 / t.elapsed_ms() * 1000.0
    };
    let (arbor, bit) = fresh("event");
    let (arbor_batched, bit_batched) = fresh("batch");
    let mut out = format!("FW1 update workload ({EVENTS} events, per event vs batches of {BATCH}):\n");
    for (name, each, batched) in [
        ("arbordb (WAL commit per write, disk)", rate(&arbor, 1), rate(&arbor_batched, BATCH)),
        ("bitgraph (snapshot publish per write)", rate(&bit, 1), rate(&bit_batched, BATCH)),
    ] {
        out.push_str(&format!(
            "  {name:<38} {each:>9.0} ev/s vs {batched:>9.0} ev/s ({:.1}x)\n",
            batched / each
        ));
    }
    out
}

/// The chaos-serving experiment: deterministic fault injection against the
/// sharded composition (DESIGN.md §4d). Three regimes over a 2-shard
/// chaos-wrapped engine: transient faults fully masked by retries (digest
/// pinned byte-identical to the fault-free run), a hostile plan in Strict
/// mode (typed errors, caught panics), and the same plan in Partial mode
/// (coverage-tagged degradation).
pub fn chaos(f: &Fixture) -> String {
    use micrograph_core::fault::silence_injected_panics;
    use micrograph_core::ingest::{build_chaos_sharded_engines, build_sharded_engines};
    use micrograph_core::{DegradationMode, FaultPlan, RetryPolicy};
    silence_injected_panics();
    let users = f.dataset.users.len() as u64;
    let config = ServeConfig { threads: 4, requests: 128, seed: 42, users, vocab: 16, ..Default::default() };
    let mut out = String::new();
    out.push_str("== Chaos serving (seeded fault injection, sharded stack) ==\n\n");

    let (clean, _) =
        build_sharded_engines(&f.dataset, &f.dir.join("chaos-clean"), 2).expect("build clean");
    let baseline = serve(&clean, &config).expect("serve baseline");

    let (masked_engine, _) = build_chaos_sharded_engines(
        &f.dataset,
        &f.dir.join("chaos-transient"),
        2,
        FaultPlan::transient(3),
        RetryPolicy::default(),
        DegradationMode::Strict,
    )
    .expect("build transient");
    let masked = serve(&masked_engine, &config).expect("serve transient");
    assert_eq!(masked.digest(), baseline.digest(), "transient faults leaked into answers");
    out.push_str(&format!(
        "transient plan: {} faults injected, {} retries spent, 0 answers changed \
         (digest == fault-free {:#018x})\n",
        masked.faults.total_injected(),
        masked.faults.retries,
        baseline.digest(),
    ));

    for (mode, label) in
        [(DegradationMode::Strict, "Strict"), (DegradationMode::Partial, "Partial")]
    {
        let (engine, _) = build_chaos_sharded_engines(
            &f.dataset,
            &f.dir.join(format!("chaos-hostile-{label}")),
            2,
            FaultPlan::hostile(5),
            RetryPolicy::default(),
            mode,
        )
        .expect("build hostile");
        let report = serve(&engine, &config).expect("serve hostile");
        out.push_str(&format!(
            "hostile plan, {label}: {} — {} errored, {} degraded\n",
            report.faults, report.errors, report.degraded,
        ));
    }
    out
}

/// Import/size summary (the §3.2 headline numbers).
pub fn import_summary(f: &Fixture) -> String {
    let mut out = String::new();
    out.push_str("== Import summary (paper: Neo4j 45 min / 2.8 GB; Sparksee 72 min / 15.1 GB) ==\n");
    out.push_str(&compare_line(
        "bulk import wall time",
        f.reports.arbor.total_ms,
        f.reports.bit.total_ms,
        "ms",
    ));
    out.push_str(&compare_line(
        "disk bytes",
        f.reports.arbor.disk_bytes as f64,
        f.reports.bit.disk_bytes as f64,
        "B",
    ));
    out.push_str(&format!(
        "edge-curve jitter (flush jumps): arbordb {:.2} vs bitgraph {:.2} (higher = spikier)\n",
        f.reports.arbor.edge_curve.jitter(),
        f.reports.bit.edge_curve.jitter(),
    ));
    out.push_str(&format!(
        "arbordb intermediate (dense nodes) {:.0} ms, index build {:.0} ms; bitgraph flush stalls {}\n",
        f.reports.arbor.intermediate_ms, f.reports.arbor.index_build_ms, f.reports.bit.flush_stalls,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn rounds_rotate_the_first_arm_and_report_the_median() {
        let order = RefCell::new(Vec::new());
        let arm = |i: usize| {
            let order = &order;
            move || {
                order.borrow_mut().push(i);
                i as f64
            }
        };
        let (a, b, c) = (arm(0), arm(1), arm(2));
        let samples = rounds(&[&a, &b, &c]);
        assert_eq!(samples, vec![vec![0.0; ROUNDS], vec![1.0; ROUNDS], vec![2.0; ROUNDS]]);
        let firsts: Vec<usize> = order.borrow().chunks(3).map(|r| r[0]).collect();
        assert_eq!(firsts, [0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(median(&[3.0, 1.0, 2.0]), (2.0, "2.000 ms (1.000–3.000)".to_owned()));
    }
}
