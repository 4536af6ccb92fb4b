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
//! | §5 FW2   | [`serving`] (concurrent multi-reader throughput) |
//! | §5 FW3   | [`chaos`] (fault-injection robustness, DESIGN.md §4d) |
//! | §5 FW4   | [`serving_json`] (tail latency: p50/p95/p99 per scatter row, DESIGN.md §4f) |

use arbor_ql::EngineOptions;
use arbor_ql::plan::PlannerOptions;
use micrograph_common::rng::SplitMix64;
use micrograph_common::stats::ProgressCurve;
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

/// D2 — the three recommendation phrasings.
pub fn d2_phrasings(f: &Fixture) -> String {
    let (uid, _) = f.users_by_out_degree()[0];
    let mut out = String::new();
    for (label, phrasing) in [
        ("(a) [:follows*2..2]", RecommendationPhrasing::VarLength),
        ("(b) explicit 2-step", RecommendationPhrasing::Canonical),
        ("(c) undirected *2..2", RecommendationPhrasing::Undirected),
    ] {
        let m = measure(&figure_protocol(), || {
            f.arbor.recommend_phrasing(phrasing, uid, 10).map(|_| ())
        })
        .expect("measure");
        out.push_str(&format!(
            "D2 phrasing {label:<22} {:.3} ms (uid {uid})\n",
            m.avg_ms
        ));
    }
    out
}

/// D3 — TopN pushdown on/off, plus the navigation engine's forced full
/// retrieval.
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
    let time = |e: &ArborEngine| -> f64 {
        let mut total = 0.0;
        for &(uid, _) in &subjects {
            let m = measure(&figure_protocol(), || e.recommend_followees(uid, 10).map(|_| ()))
                .expect("measure");
            total += m.avg_ms;
        }
        total / subjects.len() as f64
    };
    let bit_time = {
        let mut total = 0.0;
        for &(uid, _) in &subjects {
            let m = measure(&figure_protocol(), || f.bit.recommend_followees(uid, 10).map(|_| ()))
                .expect("measure");
            total += m.avg_ms;
        }
        total / subjects.len() as f64
    };
    format!(
        "D3 top-n (Q4.1, n=10): TopN pushdown {:.3} ms vs Sort+Limit {:.3} ms; bitgraph full-retrieve+sort {:.3} ms\n",
        time(&with),
        time(&without),
        bit_time
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

/// D5 — neighbor-materialization import blow-up at two scales.
pub fn d5_materialization(f: &Fixture) -> String {
    use bitgraph::loader::{LoadConfig, LoadOptions};
    let base = LoadConfig::default();
    let mut out = String::new();
    let (_g1, off) = ingest_bit(
        &f.files,
        Some(&f.dir.join("d5-off.gdb")),
        base.clone(),
        &LoadOptions::default(),
    )
    .expect("load");
    let (_g2, on) = ingest_bit(
        &f.files,
        Some(&f.dir.join("d5-on.gdb")),
        LoadConfig { materialize: true, ..base },
        &LoadOptions::default(),
    )
    .expect("load");
    out.push_str(&format!(
        "D5 materialization: off {:.0} ms / {} bytes; on {:.0} ms / {} bytes ({:.1}x bytes)\n",
        off.total_ms,
        off.disk_bytes,
        on.total_ms,
        on.disk_bytes,
        on.disk_bytes as f64 / off.disk_bytes.max(1) as f64
    ));
    out
}

/// FW1 — the §5 future-work update workload: event-application throughput
/// on both engines over a fresh copy of the fixture's dataset.
pub fn update_throughput(f: &Fixture) -> String {
    use micrograph_core::ingest::{build_engines, ingest_arbor};
    use micrograph_datagen::{StreamGen, StreamMix};

    const EVENTS: usize = 2_000;
    let config = crate::fixture::Scale::Small.config();
    // Events continue the fixture's dataset; engines are rebuilt so the
    // fixture itself stays immutable for other experiments.
    let mut events_gen = StreamGen::new(&f.dataset, &config, 7, StreamMix::default());
    let events = events_gen.events(EVENTS);

    let (db, _) = ingest_arbor(
        &f.files,
        Some(&f.dir.join("fw1-arbordb")),
        arbordb::db::DbConfig::default(),
        &arbordb::import::ImportOptions::default(),
    )
    .expect("ingest");
    let arbor = ArborEngine::new(db);
    let (_a2, bit, _) = build_engines(&f.files).expect("ingest");
    // One generic application path for both engines, through the trait.
    let apply_all = |engine: &dyn MicroblogEngine| -> f64 {
        let t = micrograph_common::stats::Timer::start();
        for e in &events {
            engine.apply_event(e).expect("apply");
        }
        t.elapsed_ms()
    };
    let arbor_ms = apply_all(&arbor);
    let bit_ms = apply_all(&bit);

    format!(
        "FW1 update workload ({EVENTS} events): arbordb {:.0} ev/s (WAL commit per event, disk) vs bitgraph {:.0} ev/s (in-memory + extent log)
",
        EVENTS as f64 / arbor_ms * 1000.0,
        EVENTS as f64 / bit_ms * 1000.0,
    )
}

/// One measurement on the mixed read/write axis of [`serving`]
/// (DESIGN.md §4j): one writer drains a firehose event stream in batches
/// while two readers serve the Q1–Q6 mix against the same engine.
pub struct MixedRow {
    /// Engine name.
    pub engine: &'static str,
    /// Write-path label: bitgraph's write mode (`snapshot` / `locked`), or
    /// `latched` for arbordb (readers queue behind the transaction latch).
    pub mode: &'static str,
    /// Events per write batch.
    pub batch: usize,
    /// Whether batches took the group-commit path (`false` = the per-event
    /// loop, the semantic oracle).
    pub batched: bool,
    /// Ingest throughput during the burst (events/s).
    pub write_eps: f64,
    /// 99th-percentile per-batch commit latency (ms).
    pub write_p99_ms: f64,
    /// Reader throughput during the burst (requests/s).
    pub read_qps: f64,
    /// Median reader latency during the burst (ms).
    pub read_p50_ms: f64,
    /// 95th-percentile reader latency during the burst (ms).
    pub read_p95_ms: f64,
    /// 99th-percentile reader latency during the burst (ms).
    pub read_p99_ms: f64,
}

/// Measures the mixed read/write axis: arbordb on disk (real WAL) at batch
/// sizes 1 (per-event loop) / 64 / 256, then bitgraph at the same ladder in
/// `Snapshot` write mode plus the `Locked` oracle at batch 64 — the
/// reader-tail comparison non-blocking snapshot reads exist for. Every run
/// rebuilds its engine from the fixture's CSV bundle, applies the same
/// event stream, and must land on the same quiesced serving digest: batch
/// size, batching, and write mode are pure performance toggles (asserted
/// here; `tests/mixed_serving.rs` pins the same property across the full
/// engine matrix).
pub fn mixed_axis(f: &Fixture) -> Vec<MixedRow> {
    use micrograph_core::adapters::BitEngine;
    use micrograph_core::ingest::ingest_arbor;
    use micrograph_core::serve::{serve_mixed, MixedConfig};
    use micrograph_core::WriteMode;
    use micrograph_datagen::{StreamGen, StreamMix};

    const EVENTS: usize = 1_000;
    let users = f.dataset.users.len() as u64;
    let stream_config = crate::fixture::Scale::Small.config();
    let mut events_gen = StreamGen::new(&f.dataset, &stream_config, 7, StreamMix::default());
    let events = events_gen.events(EVENTS);
    let base = MixedConfig {
        threads: 2,
        requests: 128,
        seed: 42,
        users,
        vocab: 16,
        batch: 1,
        batched: false,
    };

    let mut rows = Vec::new();
    let mut digest = None;
    let mut run = |engine: &dyn MicroblogEngine, mode: &'static str, batch: usize, batched: bool| {
        let report = serve_mixed(engine, &events, &MixedConfig { batch, batched, ..base })
            .expect("mixed serve");
        let d = report.digest();
        assert_eq!(
            *digest.get_or_insert(d),
            d,
            "{} quiesced answers changed with batch={batch} batched={batched} mode={mode}",
            engine.name()
        );
        rows.push(MixedRow {
            engine: report.engine,
            mode,
            batch,
            batched,
            write_eps: report.writer.events_per_s,
            write_p99_ms: report.writer.p99_ms,
            read_qps: report.reader.qps,
            read_p50_ms: report.reader.p50_ms,
            read_p95_ms: report.reader.p95_ms,
            read_p99_ms: report.reader.p99_ms,
        });
    };

    // arbordb on disk — the WAL is what group commit amortizes.
    for (i, (batch, batched)) in [(1usize, false), (64, true), (256, true)].iter().enumerate() {
        // The axis may run twice in one process (text report + JSON
        // artifact) — each run needs a fresh on-disk database.
        let dir = f.dir.join(format!("mixed-arbordb-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let (db, _) = ingest_arbor(
            &f.files,
            Some(&dir),
            arbordb::db::DbConfig::default(),
            &arbordb::import::ImportOptions::default(),
        )
        .expect("ingest");
        let arbor = ArborEngine::new(db);
        run(&arbor, "latched", *batch, *batched);
    }
    // bitgraph: the same ladder with snapshot reads, plus the locked
    // oracle at batch 64 for the reader-p99 contrast.
    for (batch, batched, mode) in [
        (1usize, false, WriteMode::Snapshot),
        (64, true, WriteMode::Snapshot),
        (256, true, WriteMode::Snapshot),
        (64, true, WriteMode::Locked),
    ] {
        let (g, _) = ingest_bit(
            &f.files,
            None,
            bitgraph::loader::LoadConfig::default(),
            &bitgraph::loader::LoadOptions { sample_interval: 5_000, abort_after: None },
        )
        .expect("load");
        let bit = BitEngine::new(g).expect("engine");
        assert!(bit.set_write_mode(mode), "bitgraph lost its write-mode toggle");
        run(&bit, mode.as_str(), batch, batched);
    }
    rows
}

/// The concurrent-serving experiment: a mixed Q1–Q6 request stream from
/// 1/2/4 reader threads over each shared engine — per-query latency
/// percentiles and aggregate throughput (the LDBC-style multi-client axis
/// the paper leaves open; see DESIGN.md "Concurrency & serving").
pub fn serving(f: &Fixture) -> String {
    use micrograph_core::ingest::build_sharded_engines;
    let users = f.dataset.users.len() as u64;
    let mut out = String::new();
    out.push_str("== Concurrent serving (shared engine, mixed Q1-Q6 stream) ==\n\n");
    for engine in [&f.arbor as &dyn MicroblogEngine, &f.bit] {
        let mut digest = None;
        for threads in [1usize, 2, 4] {
            let config = ServeConfig { threads, requests: 128, seed: 42, users, vocab: 16, ..Default::default() };
            let report = serve(engine, &config).expect("serve");
            // The rendered results must not depend on the thread count.
            let d = report.digest();
            assert_eq!(*digest.get_or_insert(d), d, "{} serving nondeterminism", engine.name());
            out.push_str(&report.render());
            out.push('\n');
        }
    }
    // Scale-out axis: the same stream over hash-partitioned 2-shard
    // compositions of both backends, pinned byte-identical to the
    // unsharded engines above (the ShardedEngine correctness invariant,
    // exercised here so the CI smoke run covers the merge layer too).
    let config = ServeConfig { threads: 4, requests: 128, seed: 42, users, vocab: 16, ..Default::default() };
    let (sharded_arbor, sharded_bit) =
        build_sharded_engines(&f.dataset, &f.dir.join("serving-shards-2"), 2)
            .expect("build sharded engines");
    for (engine, base) in [
        (&sharded_arbor as &dyn MicroblogEngine, &f.arbor as &dyn MicroblogEngine),
        (&sharded_bit, &f.bit),
    ] {
        let report = serve(engine, &config).expect("serve");
        let unsharded = serve(base, &config).expect("serve");
        assert_eq!(
            report.digest(),
            unsharded.digest(),
            "{} diverged from {}",
            engine.name(),
            base.name()
        );
        out.push_str(&report.render());
        out.push('\n');
    }
    // Scatter-execution axis: the Sequential oracle vs the parallel worker
    // pool (DESIGN.md §4e), one reader so the only concurrency is the
    // scatter fan-out itself. Digest equality across modes is asserted
    // inside scatter_axis; only wall-clock may differ.
    out.push_str("-- Scatter execution: sequential vs parallel (1 reader) --\n\n");
    let rows = scatter_axis(f);
    let (arbor_qps, bit_qps) = gap_headline(&rows);
    for pair in rows.chunks(2) {
        let (seq, par) = (&pair[0], &pair[1]);
        out.push_str(&format!(
            "{} x{}: seq {:.0} q/s, par {:.0} q/s ({:.2}x), par p50/p95/p99 {:.3}/{:.3}/{:.3} ms\n",
            seq.engine,
            seq.shards,
            seq.qps,
            par.qps,
            par.qps / seq.qps.max(f64::MIN_POSITIVE),
            par.p50_ms,
            par.p95_ms,
            par.p99_ms,
        ));
    }
    // Sharded backend gap (DESIGN.md §4h): the 4-shard parallel rows above,
    // arbordb against bitgraph.
    out.push_str(&format!(
        "\ngap headline: bitgraph/arbordb = {:.2}x (4 shards, parallel)\n",
        bit_qps / arbor_qps.max(f64::MIN_POSITIVE)
    ));
    // Executor axis: arbordb's tuple-at-a-time oracle vs the vectorized
    // operators (DESIGN.md §4g). Digest equality across modes is asserted
    // inside exec_axis; only wall-clock may differ.
    out.push_str("\n-- ArborQL executor: tuple vs vectorized (1 reader, arbordb) --\n\n");
    let rows = exec_axis(f);
    let mut i = 0;
    while i < rows.len() {
        if rows[i].exec == "tuple" && i + 1 < rows.len() && rows[i + 1].exec == "vectorized" {
            let (tup, vec) = (&rows[i], &rows[i + 1]);
            out.push_str(&format!(
                "{} (shards={}): tuple {:.0} q/s, vectorized {:.0} q/s ({:.2}x), \
                 vec p50/p95/p99 {:.3}/{:.3}/{:.3} ms\n",
                tup.engine,
                tup.shards,
                tup.qps,
                vec.qps,
                vec.qps / tup.qps.max(f64::MIN_POSITIVE),
                vec.p50_ms,
                vec.p95_ms,
                vec.p99_ms,
            ));
            i += 2;
        } else {
            let r = &rows[i];
            out.push_str(&format!(
                "{} (shards={}): {} {:.0} q/s, p50/p95/p99 {:.3}/{:.3}/{:.3} ms\n",
                r.engine, r.shards, r.exec, r.qps, r.p50_ms, r.p95_ms, r.p99_ms,
            ));
            i += 1;
        }
    }
    // Mixed read/write axis (DESIGN.md §4j): group-commit batching and
    // non-blocking snapshot reads under a firehose write burst. Quiesced
    // digests are asserted equal inside mixed_axis.
    out.push_str("\n-- Mixed read/write: group commit x write mode (1 writer, 2 readers) --\n\n");
    let rows = mixed_axis(f);
    for r in &rows {
        out.push_str(&format!(
            "{} ({}, batch {}, {}): write {:.0} ev/s (batch p99 {:.3} ms), \
             read {:.0} q/s p50/p95/p99 {:.3}/{:.3}/{:.3} ms\n",
            r.engine,
            r.mode,
            r.batch,
            if r.batched { "group commit" } else { "per event" },
            r.write_eps,
            r.write_p99_ms,
            r.read_qps,
            r.read_p50_ms,
            r.read_p95_ms,
            r.read_p99_ms,
        ));
    }
    let eps = |engine: &str, mode: &str, batch: usize| {
        rows.iter()
            .find(|r| r.engine.contains(engine) && r.mode == mode && r.batch == batch)
            .map(|r| r.write_eps)
            .unwrap_or(0.0)
    };
    let p99 = |mode: &str, batch: usize| {
        rows.iter()
            .find(|r| r.engine.contains("bitgraph") && r.mode == mode && r.batch == batch)
            .map(|r| r.read_p99_ms)
            .unwrap_or(0.0)
    };
    out.push_str(&format!(
        "\nmixed headline: arbordb group commit x256 = {:.1}x events/s over per-event; \
         bitgraph reader p99 under burst: snapshot {:.3} ms vs locked {:.3} ms\n",
        eps("arbordb", "latched", 256) / eps("arbordb", "latched", 1).max(f64::MIN_POSITIVE),
        p99("snapshot", 64),
        p99("locked", 64),
    ));
    out
}

/// One measurement on the executor axis of [`serving`]: arbordb's
/// row-at-a-time reference interpreter vs the vectorized operator tree
/// (DESIGN.md §4g).
pub struct ExecRow {
    /// Engine name (includes the shard count when sharded).
    pub engine: &'static str,
    /// Hash-partition count (0 = the monolithic engine).
    pub shards: usize,
    /// Executor this row measured: `"tuple"` / `"vectorized"` for arbordb,
    /// `"native"` for the bitgraph baseline (no declarative layer).
    pub exec: &'static str,
    /// Aggregate throughput (requests/s).
    pub qps: f64,
    /// Median request latency (ms).
    pub p50_ms: f64,
    /// 95th-percentile request latency (ms).
    pub p95_ms: f64,
    /// 99th-percentile request latency (ms).
    pub p99_ms: f64,
}

/// Measures the executor axis: the monolithic arbordb engine plus its 2-
/// and 4-shard compositions, Tuple then Vectorized over the same
/// single-reader stream, closing with the monolithic bitgraph engine as a
/// `"native"` baseline row (no declarative layer, so no mode pair) — the
/// declarative-vs-native serve-mix gap read straight off the artifact.
/// Asserts the mode flip never changes the serving digest; one unmeasured
/// warmup pass per engine absorbs cold-cache first-touches. arbordb rows
/// come in consecutive (tuple, vectorized) pairs.
pub fn exec_axis(f: &Fixture) -> Vec<ExecRow> {
    use micrograph_core::ingest::build_sharded_engines;
    use micrograph_core::ExecMode;
    let users = f.dataset.users.len() as u64;
    let config =
        ServeConfig { threads: 1, requests: 128, seed: 42, users, vocab: 16, ..Default::default() };
    let mut sharded = Vec::new();
    for shards in [2usize, 4] {
        let (arbor, _bit) =
            build_sharded_engines(&f.dataset, &f.dir.join(format!("exec-axis-{shards}")), shards)
                .expect("build sharded engines");
        sharded.push((shards, arbor));
    }
    let mut targets: Vec<(usize, &dyn MicroblogEngine)> = vec![(0, &f.arbor)];
    for (shards, engine) in &sharded {
        targets.push((*shards, engine));
    }
    let mut rows = Vec::new();
    for (shards, engine) in targets {
        serve(engine, &config).expect("warmup");
        let mut digest = None;
        for mode in [ExecMode::Tuple, ExecMode::Vectorized] {
            assert!(engine.set_exec_mode(mode), "arbordb engine lost its exec-mode toggle");
            let report = serve(engine, &config).expect("serve");
            let d = report.digest();
            assert_eq!(
                *digest.get_or_insert(d),
                d,
                "{} answers changed with exec mode {}",
                engine.name(),
                mode.as_str()
            );
            rows.push(ExecRow {
                engine: report.engine,
                shards,
                exec: mode.as_str(),
                qps: report.qps,
                p50_ms: report.p50_ms,
                p95_ms: report.p95_ms,
                p99_ms: report.p99_ms,
            });
        }
        engine.set_exec_mode(ExecMode::Vectorized);
    }
    // Native baseline: the same stream on the monolithic bitgraph engine,
    // which refuses the exec-mode toggle (no declarative layer).
    let bit = &f.bit as &dyn MicroblogEngine;
    assert!(!bit.set_exec_mode(ExecMode::Tuple), "bitgraph must refuse the exec toggle");
    serve(bit, &config).expect("warmup");
    let report = serve(bit, &config).expect("serve");
    rows.push(ExecRow {
        engine: report.engine,
        shards: 0,
        exec: "native",
        qps: report.qps,
        p50_ms: report.p50_ms,
        p95_ms: report.p95_ms,
        p99_ms: report.p99_ms,
    });
    rows
}

/// One measurement on the scatter-execution axis of [`serving`].
pub struct ScatterRow {
    /// Engine name (includes the shard count).
    pub engine: &'static str,
    /// Hash-partition count.
    pub shards: usize,
    /// Scatter execution mode this row measured.
    pub mode: micrograph_core::ScatterMode,
    /// Aggregate throughput (requests/s).
    pub qps: f64,
    /// Median request latency (ms).
    pub p50_ms: f64,
    /// 95th-percentile request latency (ms).
    pub p95_ms: f64,
    /// 99th-percentile request latency (ms).
    pub p99_ms: f64,
}

/// Measures the scatter-mode axis: both sharded backends at 1/2/4 shards,
/// Sequential then Parallel over the same stream, single reader, after one
/// unmeasured warmup pass per engine that absorbs cold-cache first-touches.
/// Asserts the mode flip never changes the serving digest. Rows come out
/// in (shards, backend, mode) order — consecutive pairs are (seq, par).
pub fn scatter_axis(f: &Fixture) -> Vec<ScatterRow> {
    use micrograph_core::ingest::build_sharded_engines;
    use micrograph_core::ScatterMode;
    let users = f.dataset.users.len() as u64;
    let config =
        ServeConfig { threads: 1, requests: 128, seed: 42, users, vocab: 16, ..Default::default() };
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4] {
        let (sharded_arbor, sharded_bit) =
            build_sharded_engines(&f.dataset, &f.dir.join(format!("scatter-axis-{shards}")), shards)
                .expect("build sharded engines");
        for engine in [&sharded_arbor as &dyn MicroblogEngine, &sharded_bit] {
            serve(engine, &config).expect("warmup");
            let mut digest = None;
            for mode in [ScatterMode::Sequential, ScatterMode::Parallel] {
                assert!(engine.set_scatter_mode(mode));
                let report = serve(engine, &config).expect("serve");
                let d = report.digest();
                assert_eq!(
                    *digest.get_or_insert(d),
                    d,
                    "{} answers changed with scatter mode",
                    engine.name()
                );
                rows.push(ScatterRow {
                    engine: report.engine,
                    shards,
                    mode,
                    qps: report.qps,
                    p50_ms: report.p50_ms,
                    p95_ms: report.p95_ms,
                    p99_ms: report.p99_ms,
                });
            }
        }
    }
    rows
}

/// The sharded backend gap (DESIGN.md §4h) read off [`scatter_axis`]:
/// `(arbordb qps, bitgraph qps)` of the 4-shard parallel rows.
fn gap_headline(rows: &[ScatterRow]) -> (f64, f64) {
    let qps = |backend: &str| {
        rows.iter()
            .find(|r| {
                r.shards == 4
                    && r.engine.contains(backend)
                    && matches!(r.mode, micrograph_core::ScatterMode::Parallel)
            })
            .map(|r| r.qps)
            .unwrap_or(0.0)
    };
    (qps("arbordb"), qps("bitgraph"))
}

/// One measurement on the replication axis ([`replica_axis`]): the serve
/// mix over a 2-shard composition with R replicas behind each shard slot
/// (DESIGN.md §4i), 4 reader threads.
pub struct ReplicaRow {
    /// Engine name (includes shard count and replica factor).
    pub engine: &'static str,
    /// Hash-partition count.
    pub shards: usize,
    /// Replicas behind each shard slot.
    pub replicas: usize,
    /// Reader threads used.
    pub threads: usize,
    /// `"healthy"` for an all-replicas-up run, `"degraded"` for the same
    /// stream with one replica of every shard killed mid-axis.
    pub condition: &'static str,
    /// Aggregate throughput (requests/s), errors included.
    pub qps: f64,
    /// Useful throughput: full-coverage, non-error answers per second.
    /// Equals `qps` while healthy; the number replication exists to
    /// protect — at R = 1 a dead replica drives it to zero, at R ≥ 2 the
    /// failover ladder keeps it at the healthy level.
    pub goodput: f64,
    /// Requests that errored (0 on every healthy run).
    pub errors: u64,
    /// Median request latency (ms).
    pub p50_ms: f64,
    /// 95th-percentile request latency (ms).
    pub p95_ms: f64,
    /// 99th-percentile request latency (ms).
    pub p99_ms: f64,
    /// Failover hops the run recorded.
    pub failovers: u64,
    /// Reads the run routed to a non-zero primary replica.
    pub replica_reads: u64,
}

/// Measures the replication axis: both backends at 2 shards × R ∈
/// {1, 2, 3}, 4 reader threads over the same stream, healthy and then
/// degraded (replica 0 of every shard permanently killed, same stream
/// replayed). The healthy rows record whatever read scale-out the host
/// offers — spreading reads across R engine instances needs spare cores
/// to turn into qps, so on a single-core runner they stay flat. The
/// degraded rows are the axis's headline and are host-independent: at
/// R = 1 the dead replica drives goodput to zero (every request errors,
/// fast-failing on the torn group), while at R ≥ 2 the failover ladder
/// keeps goodput at the healthy level with byte-identical answers.
/// Asserts no R (and, for R ≥ 2, no replica loss) moves the serving
/// digest, and that R = 1 replica loss errors every request.
pub fn replica_axis(f: &Fixture) -> Vec<ReplicaRow> {
    use micrograph_core::ingest::build_replicated_engines;
    let users = f.dataset.users.len() as u64;
    let threads = 4usize;
    let requests = 512usize;
    let config =
        ServeConfig { threads, requests, seed: 42, users, vocab: 16, ..Default::default() };
    let shards = 2usize;
    let mut rows = Vec::new();
    let mut digests: [Option<u64>; 2] = [None, None];
    let goodput = |report: &micrograph_core::serve::ServeReport| {
        report.qps * (requests as u64 - report.errors - report.degraded) as f64 / requests as f64
    };
    for replicas in [1usize, 2, 3] {
        let (sharded_arbor, sharded_bit) = build_replicated_engines(
            &f.dataset,
            &f.dir.join(format!("replica-axis-{replicas}")),
            shards,
            replicas,
        )
        .expect("build replicated engines");
        for (which, engine) in
            [&sharded_arbor as &dyn MicroblogEngine, &sharded_bit].into_iter().enumerate()
        {
            serve(engine, &config).expect("warmup");
            let before = engine.fault_stats();
            let report = serve(engine, &config).expect("serve");
            let spent = engine.fault_stats().since(&before);
            let d = report.digest();
            assert_eq!(
                *digests[which].get_or_insert(d),
                d,
                "{} answers changed with R={replicas}",
                engine.name()
            );
            rows.push(ReplicaRow {
                engine: report.engine,
                shards,
                replicas,
                threads,
                condition: "healthy",
                qps: report.qps,
                goodput: goodput(&report),
                errors: report.errors,
                p50_ms: report.p50_ms,
                p95_ms: report.p95_ms,
                p99_ms: report.p99_ms,
                failovers: spent.failovers,
                replica_reads: spent.replica_reads,
            });
        }
        // Kill replica 0 of every shard and replay the stream. With a
        // spare replica the failover ladder must absorb the loss
        // byte-identically; with R = 1 the whole stream must fail fast
        // (goodput 0) — never a stale or partial answer in Strict mode.
        for (which, (concrete, engine)) in [
            (&sharded_arbor, &sharded_arbor as &dyn MicroblogEngine),
            (&sharded_bit, &sharded_bit),
        ]
        .into_iter()
        .enumerate()
        {
            for shard in 0..shards {
                concrete.kill_replica(shard, 0);
            }
            let before = engine.fault_stats();
            let report = serve(engine, &config).expect("serve degraded");
            let spent = engine.fault_stats().since(&before);
            if replicas == 1 {
                assert_eq!(
                    report.errors, requests as u64,
                    "{}: a dead sole replica must fail every request",
                    engine.name()
                );
            } else {
                assert_eq!(
                    Some(report.digest()),
                    digests[which],
                    "{} answers changed after losing a replica of every shard",
                    engine.name()
                );
                assert!(
                    spent.failovers > 0,
                    "{}: surviving replica loss must have hopped",
                    engine.name()
                );
            }
            rows.push(ReplicaRow {
                engine: report.engine,
                shards,
                replicas,
                threads,
                condition: "degraded",
                qps: report.qps,
                goodput: goodput(&report),
                errors: report.errors,
                p50_ms: report.p50_ms,
                p95_ms: report.p95_ms,
                p99_ms: report.p99_ms,
                failovers: spent.failovers,
                replica_reads: spent.replica_reads,
            });
        }
    }
    rows
}

/// Writes one `"key": [...]` array of `BENCH_serving.json`: a row object
/// per line, its fields rendered by `fields` (everything between the
/// braces), comma-separated, and the closing `],`.
fn push_rows<R>(out: &mut String, key: &str, rows: &[R], fields: impl Fn(&R) -> String) {
    out.push_str(&format!("  \"{key}\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!("    {{{}}}{comma}\n", fields(r)));
    }
    out.push_str("  ],\n");
}

/// Renders the scatter-mode axis as the `BENCH_serving.json` artifact:
/// sequential vs parallel throughput and latency percentiles per backend
/// and shard count, one reader thread.
pub fn serving_json(f: &Fixture, scale: &str) -> String {
    let rows = scatter_axis(f);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"serving_scatter_modes\",\n");
    out.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    out.push_str("  \"threads\": 1,\n");
    out.push_str("  \"requests\": 128,\n");
    push_rows(&mut out, "rows", &rows, |r| {
        format!(
            "\"engine\": \"{}\", \"shards\": {}, \"mode\": \"{}\", \"qps\": {:.1}, \
             \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}",
            r.engine,
            r.shards,
            r.mode.label(),
            r.qps,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
        )
    });
    // Executor axis (DESIGN.md §4g): tuple vs vectorized on arbordb,
    // monolithic (shards = 0) and sharded. Digests asserted equal inside
    // exec_axis — only throughput/latency may differ between modes.
    let exec_rows = exec_axis(f);
    push_rows(&mut out, "exec_rows", &exec_rows, |r| {
        format!(
            "\"engine\": \"{}\", \"shards\": {}, \"exec\": \"{}\", \"qps\": {:.1}, \
             \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}",
            r.engine,
            r.shards,
            r.exec,
            r.qps,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
        )
    });
    // Replication axis (DESIGN.md §4i): qps and goodput vs R at 2 shards
    // / 4 reader threads, healthy plus the degraded (replica 0 of every
    // shard killed) replay at every R. Digests asserted equal inside
    // replica_axis.
    let replica_rows = replica_axis(f);
    push_rows(&mut out, "replica_rows", &replica_rows, |r| {
        format!(
            "\"engine\": \"{}\", \"shards\": {}, \"replicas\": {}, \"threads\": {}, \
             \"condition\": \"{}\", \"qps\": {:.1}, \"goodput\": {:.1}, \"errors\": {}, \
             \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \"failovers\": {}, \
             \"replica_reads\": {}",
            r.engine,
            r.shards,
            r.replicas,
            r.threads,
            r.condition,
            r.qps,
            r.goodput,
            r.errors,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
            r.failovers,
            r.replica_reads,
        )
    });
    // The replication headline: scatter goodput from R = 1 to R = 2 per
    // backend with one replica of every shard permanently dead (2 shards,
    // 4 readers) — the comparison replication exists for, and one that
    // holds on any host: R = 1 fails the whole stream (goodput 0) while
    // R = 2 serves it byte-identically. Healthy qps at both R is recorded
    // alongside; turning the replica spread into healthy-read scale-out
    // additionally needs spare cores on the measurement host.
    let replica_val = |engine_contains: &str, replicas: usize, condition: &str| {
        replica_rows
            .iter()
            .find(|r| {
                r.condition == condition
                    && r.replicas == replicas
                    && r.engine.contains(engine_contains)
            })
            .map(|r| if condition == "healthy" { r.qps } else { r.goodput })
            .unwrap_or(0.0)
    };
    let (a1, a2) = (replica_val("arbordb", 1, "healthy"), replica_val("arbordb", 2, "healthy"));
    let (b1, b2) = (replica_val("bitgraph", 1, "healthy"), replica_val("bitgraph", 2, "healthy"));
    let (ad1, ad2) =
        (replica_val("arbordb", 1, "degraded"), replica_val("arbordb", 2, "degraded"));
    let (bd1, bd2) =
        (replica_val("bitgraph", 1, "degraded"), replica_val("bitgraph", 2, "degraded"));
    out.push_str(&format!(
        "  \"replica_headline\": {{\"arbordb_r1_qps\": {a1:.1}, \"arbordb_r2_qps\": {a2:.1}, \
         \"bitgraph_r1_qps\": {b1:.1}, \"bitgraph_r2_qps\": {b2:.1}, \
         \"arbordb_replica_dead_r1_goodput\": {ad1:.1}, \
         \"arbordb_replica_dead_r2_goodput\": {ad2:.1}, \
         \"bitgraph_replica_dead_r1_goodput\": {bd1:.1}, \
         \"bitgraph_replica_dead_r2_goodput\": {bd2:.1}}},\n",
    ));
    // The sharded backend gap: parallel arbordb throughput against parallel
    // bitgraph, both at 4 shards (the scatter rows above).
    let (arbor_qps, bit_qps) = gap_headline(&rows);
    out.push_str(&format!(
        "  \"gap_headline\": {{\"arbordb_parallel_qps\": {arbor_qps:.1}, \
         \"bitgraph_parallel_qps\": {bit_qps:.1}, \"bitgraph_over_arbordb\": {:.3}}},\n",
        bit_qps / arbor_qps.max(f64::MIN_POSITIVE)
    ));
    // Mixed read/write axis (DESIGN.md §4j): a write burst drained by one
    // writer (group commit vs per-event loop) while two readers serve the
    // query mix. Quiesced digests asserted equal inside mixed_axis — batch
    // size, batching, and write mode are pure performance toggles.
    let mixed_rows = mixed_axis(f);
    push_rows(&mut out, "mixed_rows", &mixed_rows, |r| {
        format!(
            "\"engine\": \"{}\", \"mode\": \"{}\", \"batch\": {}, \"batched\": {}, \
             \"write_eps\": {:.1}, \"write_p99_ms\": {:.4}, \"read_qps\": {:.1}, \
             \"read_p50_ms\": {:.4}, \"read_p95_ms\": {:.4}, \"read_p99_ms\": {:.4}",
            r.engine,
            r.mode,
            r.batch,
            r.batched,
            r.write_eps,
            r.write_p99_ms,
            r.read_qps,
            r.read_p50_ms,
            r.read_p95_ms,
            r.read_p99_ms,
        )
    });
    // The mixed headline: group-commit ingest scaling on arbordb's WAL and
    // the snapshot-vs-locked reader tail on bitgraph.
    let mixed_val = |engine: &str, mode: &str, batch: usize, read: bool| {
        mixed_rows
            .iter()
            .find(|r| r.engine.contains(engine) && r.mode == mode && r.batch == batch)
            .map(|r| if read { r.read_p99_ms } else { r.write_eps })
            .unwrap_or(0.0)
    };
    let (a1, a256) =
        (mixed_val("arbordb", "latched", 1, false), mixed_val("arbordb", "latched", 256, false));
    let (b1, b256) = (
        mixed_val("bitgraph", "snapshot", 1, false),
        mixed_val("bitgraph", "snapshot", 256, false),
    );
    out.push_str(&format!(
        "  \"mixed_headline\": {{\"arbordb_perevent_eps\": {a1:.1}, \
         \"arbordb_batch256_eps\": {a256:.1}, \"arbordb_group_commit_speedup\": {:.3}, \
         \"bitgraph_perevent_eps\": {b1:.1}, \"bitgraph_batch256_eps\": {b256:.1}, \
         \"bitgraph_snapshot_read_p99_ms\": {:.4}, \"bitgraph_locked_read_p99_ms\": {:.4}}}\n",
        a256 / a1.max(f64::MIN_POSITIVE),
        mixed_val("bitgraph", "snapshot", 64, true),
        mixed_val("bitgraph", "locked", 64, true),
    ));
    out.push_str("}\n");
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
