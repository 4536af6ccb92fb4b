//! Cost-based planning invariants (DESIGN.md §4g): the cardinality
//! statistics the planner consults are pinned against a from-scratch
//! rebuild scan after incremental `apply_event` streams, and statistics may
//! shape plans, never answers.

use arbordb::db::{DbConfig, GraphDb};
use micrograph_core::engine::MicroblogEngine;
use micrograph_core::ingest::build_engines;
use micrograph_core::workload::{run_query, QueryId, QueryParams};
use micrograph_core::Value;
use micrograph_datagen::{generate, Dataset, GenConfig, StreamGen, StreamMix};

struct Guard(std::path::PathBuf);
impl Drop for Guard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const USERS: u64 = 120;

fn gen_config(seed: u64) -> GenConfig {
    let mut cfg = GenConfig::unit();
    cfg.seed = seed;
    cfg.users = USERS;
    cfg.poster_fraction = 0.3;
    cfg.tweets_per_poster = 6;
    cfg.mentions_per_tweet = 1.2;
    cfg.tags_per_tweet = 0.8;
    cfg
}

fn dataset(seed: u64, tag: &str) -> (Dataset, Guard) {
    let dir = micrograph_common::unique_temp_dir(&format!("vexec-{tag}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    (generate(&gen_config(seed)), Guard(dir))
}

// ---- cardinality-statistics maintenance ------------------------------------

/// A full snapshot of everything the planner can read: per-label node
/// counts, per-type edge counts, and both degree histograms per type.
#[allow(clippy::type_complexity)]
fn stats_snapshot(db: &GraphDb) -> (u64, u64, Vec<(String, u64)>, Vec<(String, u64, Vec<u64>, Vec<u64>)>) {
    let s = db.statistics();
    let labels = ["user", "tweet", "hashtag"]
        .iter()
        .map(|l| (l.to_string(), db.label_id(l).map_or(0, |id| s.node_count(id))))
        .collect();
    let rels = ["follows", "posts", "retweets", "mentions", "tags"]
        .iter()
        .map(|t| match db.rel_type_id(t) {
            Some(id) => {
                let r = s.rel_type_stats(id).unwrap_or_default();
                (t.to_string(), r.edges, r.out_hist.to_vec(), r.in_hist.to_vec())
            }
            None => (t.to_string(), 0, Vec::new(), Vec::new()),
        })
        .collect();
    (s.total_nodes(), s.total_edges(), labels, rels)
}

#[test]
fn statistics_track_apply_event_streams_incrementally() {
    // Incrementally-maintained statistics after a streaming update
    // workload must be indistinguishable from a from-scratch rebuild scan
    // — the ground truth the planner's estimates are anchored to.
    let cfg = gen_config(74);
    let ds = generate(&cfg);
    let g = Guard(micrograph_common::unique_temp_dir("vexec-stats-74"));
    let _ = std::fs::remove_dir_all(&g.0);
    let files = ds.write_csv(&g.0.join("csv")).unwrap();
    let (arbor, _bit, _) = build_engines(&files).unwrap();
    let db = arbor.db();
    assert!(db.statistics().total_nodes() > 0, "bulk import must seed the statistics");

    let before_nodes = db.statistics().total_nodes();
    let before_edges = db.statistics().total_edges();
    let events = StreamGen::new(&ds, &cfg, 11, StreamMix::default()).events(400);
    for e in &events {
        arbor.apply_event(e).unwrap();
    }
    assert!(db.statistics().total_nodes() > before_nodes, "stream created no nodes");
    assert!(db.statistics().total_edges() > before_edges, "stream created no edges");

    let incremental = stats_snapshot(db);
    db.rebuild_statistics().unwrap();
    assert_eq!(
        incremental,
        stats_snapshot(db),
        "incremental maintenance drifted from the rebuild scan"
    );
}

#[test]
fn statistics_survive_aborts_and_deletes() {
    // The transactional rules: an aborted write leaves no trace, a
    // committed delete unwinds node/edge/histogram counters exactly.
    let db = GraphDb::open_memory(DbConfig::default()).unwrap();
    let (a, b) = {
        let mut tx = db.begin_write().unwrap();
        let a = tx.create_node("user", &[("uid", Value::Int(1))]).unwrap();
        let b = tx.create_node("user", &[("uid", Value::Int(2))]).unwrap();
        tx.create_rel(a, b, "follows", &[]).unwrap();
        tx.commit().unwrap();
        (a, b)
    };
    let committed = stats_snapshot(&db);
    assert_eq!(db.statistics().total_nodes(), 2);
    assert_eq!(db.statistics().total_edges(), 1);

    // Abort (explicit and implicit drop): statistics must not move.
    {
        let mut tx = db.begin_write().unwrap();
        let c = tx.create_node("user", &[("uid", Value::Int(3))]).unwrap();
        tx.create_rel(c, a, "follows", &[]).unwrap();
        tx.abort().unwrap();
    }
    {
        let mut tx = db.begin_write().unwrap();
        tx.create_node("tweet", &[("tid", Value::Int(9))]).unwrap();
        // dropped without commit
    }
    assert_eq!(stats_snapshot(&db), committed, "aborted writes leaked into statistics");

    // Delete the edge, then a node: counters unwind to the empty-ish state
    // and match a rebuild at every step.
    let rel = db
        .rels(a, None, arbordb::Direction::Outgoing)
        .next()
        .expect("a has one outgoing edge")
        .unwrap()
        .0;
    let mut tx = db.begin_write().unwrap();
    tx.delete_rel(rel).unwrap();
    tx.commit().unwrap();
    assert_eq!(db.statistics().total_edges(), 0);
    let follows = db.rel_type_id("follows").unwrap();
    assert_eq!(db.statistics().participants(follows, arbordb::Direction::Outgoing), 0);
    let mut tx = db.begin_write().unwrap();
    tx.delete_node(b).unwrap();
    tx.commit().unwrap();
    assert_eq!(db.statistics().total_nodes(), 1);
    let after_deletes = stats_snapshot(&db);
    db.rebuild_statistics().unwrap();
    assert_eq!(after_deletes, stats_snapshot(&db), "delete path drifted from the rebuild scan");
}

#[test]
fn statistics_only_shape_plans_never_answers() {
    // The §4g safety property, exercised end to end: clearing the
    // statistics out from under a live engine may change the chosen plan,
    // but every workload answer stays byte-identical.
    let (ds, g) = dataset(75, "stale");
    let files = ds.write_csv(&g.0.join("mono")).unwrap();
    let (arbor, _bit, _) = build_engines(&files).unwrap();
    let mut rng = micrograph_common::rng::SplitMix64::new(75);
    let params = QueryParams::sample(&mut rng, USERS, 8);
    let mut expected = Vec::new();
    for q in QueryId::ALL {
        expected.push(run_query(&arbor, q, &params).unwrap());
    }
    // Nuke the statistics (planner falls back to heuristics) and clear the
    // plan cache so new plans are actually built against the empty snapshot.
    arbor.db().statistics().clear();
    arbor.ql().clear_cache();
    for (i, q) in QueryId::ALL.into_iter().enumerate() {
        assert_eq!(
            expected[i],
            run_query(&arbor, q, &params).unwrap(),
            "{}: empty statistics changed an answer",
            q.label()
        );
    }
}
