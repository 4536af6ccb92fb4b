//! Property tests: declarative queries against imperative reference
//! computations on random multigraphs, and the vectorized executor against
//! the tuple interpreter on queries drawn from a grammar.

use std::collections::HashMap;
use std::sync::Arc;

use arbor_ql::exec::{execute, ExecContext};
use arbor_ql::plan::{instrument, Plan};
use arbor_ql::vexec::{execute_vec, BATCH_SIZE};
use arbor_ql::{QueryEngine, Value};
use arbordb::db::{DbConfig, GraphDb};
use arbordb::{Direction, NodeId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Spec {
    users: usize,
    follows: Vec<(usize, usize)>,
    followers_attr: Vec<i64>,
}

fn spec() -> impl Strategy<Value = Spec> {
    (2usize..14).prop_flat_map(|users| {
        (
            prop::collection::vec((0..users, 0..users), 0..50),
            prop::collection::vec(0i64..100, users..=users),
        )
            .prop_map(move |(follows, followers_attr)| Spec { users, follows, followers_attr })
    })
}

fn build(s: &Spec) -> (Arc<GraphDb>, Vec<NodeId>) {
    let db = GraphDb::open_memory(DbConfig { page_cache_pages: 128, dense_node_threshold: 4 })
        .unwrap();
    let mut tx = db.begin_write().unwrap();
    let nodes: Vec<NodeId> = (0..s.users)
        .map(|i| {
            tx.create_node(
                "user",
                &[
                    ("uid", Value::Int(i as i64)),
                    ("followers", Value::Int(s.followers_attr[i])),
                ],
            )
            .unwrap()
        })
        .collect();
    for &(a, b) in &s.follows {
        tx.create_rel(nodes[a], nodes[b], "follows", &[]).unwrap();
    }
    tx.commit().unwrap();
    db.create_index("user", "uid").unwrap();
    (Arc::new(db), nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `MATCH (a {uid})-[:follows]->(f)` equals the core-API neighborhood.
    #[test]
    fn ql_adjacency_matches_api(s in spec()) {
        let (db, nodes) = build(&s);
        let ql = QueryEngine::new(db.clone());
        let follows = db.rel_type_id("follows");
        for (i, &n) in nodes.iter().enumerate() {
            let r = ql
                .query(
                    "MATCH (a:user {uid: $uid})-[:follows]->(f) RETURN f.uid ORDER BY f.uid",
                    &[("uid", Value::Int(i as i64))],
                )
                .unwrap();
            let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
            let mut expect: Vec<i64> = db
                .neighbors(n, follows, Direction::Outgoing)
                .map(|x| db.node_prop(x.unwrap(), "uid").unwrap().unwrap().as_int().unwrap())
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(got, expect, "uid {}", i);
        }
    }

    /// Selection with a range predicate equals a direct scan.
    #[test]
    fn ql_selection_matches_scan(s in spec(), th in 0i64..100) {
        let (db, _nodes) = build(&s);
        let ql = QueryEngine::new(db.clone());
        let r = ql
            .query(
                "MATCH (u:user) WHERE u.followers > $th RETURN u.uid ORDER BY u.uid",
                &[("th", Value::Int(th))],
            )
            .unwrap();
        let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        let mut expect: Vec<i64> = s
            .followers_attr
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f > th)
            .map(|(i, _)| i as i64)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Grouped counting equals a reference count over edges, and the TopN
    /// ordering invariant holds.
    #[test]
    fn ql_group_count_matches_reference(s in spec()) {
        let (db, _nodes) = build(&s);
        let ql = QueryEngine::new(db);
        let r = ql
            .query(
                "MATCH (a:user)-[:follows]->(b:user) \
                 RETURN b.uid, count(*) AS c ORDER BY c DESC, b.uid ASC LIMIT 5",
                &[],
            )
            .unwrap();
        let mut expect: HashMap<i64, i64> = HashMap::new();
        for &(_, b) in &s.follows {
            *expect.entry(b as i64).or_insert(0) += 1;
        }
        let mut pairs: Vec<(i64, i64)> = expect.into_iter().collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(5);
        let got: Vec<(i64, i64)> = r
            .rows
            .iter()
            .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
            .collect();
        prop_assert_eq!(got, pairs);
    }

    /// Variable-length paths count exactly the 2-paths of the graph.
    #[test]
    fn ql_varlength_counts_two_paths(s in spec(), start in 0usize..14) {
        let start = start % s.users;
        let (db, _nodes) = build(&s);
        let ql = QueryEngine::new(db);
        let r = ql
            .query(
                "MATCH (a:user {uid: $uid})-[:follows*2..2]->(r) RETURN count(*)",
                &[("uid", Value::Int(start as i64))],
            )
            .unwrap();
        let got = r.rows[0][0].as_int().unwrap();
        // Reference: ordered pairs of distinct edges forming a 2-path.
        let mut expect = 0i64;
        for (e1, &(a, b)) in s.follows.iter().enumerate() {
            if a != start {
                continue;
            }
            for (e2, &(c, _)) in s.follows.iter().enumerate() {
                if e1 != e2 && c == b {
                    expect += 1;
                }
            }
        }
        prop_assert_eq!(got, expect);
    }
}

// ---- tuple ≡ vectorized differential ---------------------------------------

/// Graphs whose intermediates cross several vectorized batches: every user
/// follows 4–5 random users, so a two-hop label-scan pattern in any
/// direction mix yields at least 16 · users ≥ 2560 rows.
fn wide_spec() -> impl Strategy<Value = Spec> {
    (160usize..240, 4usize..6).prop_flat_map(|(users, out)| {
        (
            prop::collection::vec(0..users, users * out..=users * out),
            prop::collection::vec(0i64..100, users..=users),
        )
            .prop_map(move |(to, followers_attr)| Spec {
                users,
                follows: to.iter().enumerate().map(|(i, &t)| (i / out, t)).collect(),
                followers_attr,
            })
    })
}

/// Anchor patterns, the WHERE conjunct each adds (`{uid}` seek, `IN` seek,
/// range seek) and the share of users each is estimated to bind.
const ANCHORS: [(&str, &str, f64); 7] = [
    ("(a:user)", "", 1.0),
    ("(a:user {uid: $p})", "", 0.0),
    ("(a:user)", "a.uid IN $list", 0.0),
    ("(a:user)", "a.uid IN [3, 1, 3, 0]", 0.0),
    ("(a:user)", "a.uid > $p", 0.5),
    ("(a:user)", "a.uid <= $p", 0.5),
    ("(a:user)", "$p > a.uid AND a.uid >= 2", 0.5),
];
/// Hop shapes (`r` is the relationship) and whether each is undirected.
const HOPS: [(&str, bool); 3] = [("-r->", false), ("<-r-", false), ("-r-", true)];
/// Relationships with their hop-count ranges.
const RELS: [(&str, i32, i32); 4] = [
    ("[:follows]", 1, 1),
    ("[:follows]", 1, 1),
    ("[:follows*1..2]", 1, 2),
    ("[:follows*2..3]", 2, 3),
];
/// Extra WHERE conjuncts over the anchor `a` and the last hop's node `x`.
const PREDS: [&str; 7] = [
    "x.uid <> $q",
    "x.uid <> a.uid",
    "x.followers > 50",
    "(x.uid < 5 OR x.followers <= 20)",
    "NOT (a)-[:follows]->(x)",
    "(x)-[:follows]->(a)",
    "NOT (x)-[:follows]-(a)",
];
/// Query tails. Group order is a hash order, so grouped rows reach the
/// output only through a sort; sorts on tied keys expose the full-row
/// tie-break. The first three consume every row (wide queries use them).
const TAILS: [&str; 10] = [
    "RETURN x.followers, a.uid ORDER BY x.followers DESC",
    "RETURN x.uid, count(*) AS c ORDER BY c DESC",
    "RETURN count(*)",
    "RETURN x.uid, a.uid",
    "RETURN DISTINCT x.followers ORDER BY x.followers",
    "WITH x, count(*) AS c WHERE c > 1 MATCH (x) RETURN x.uid, c ORDER BY c, x.uid DESC",
    "WITH x, count(*) AS c ORDER BY c DESC MATCH (x) RETURN x.uid, c",
    "WITH x, count(*) AS c ORDER BY c DESC LIMIT 3 \
     MATCH (x)-[:follows]->(z:user) RETURN z.uid, c ORDER BY z.uid",
    "WITH DISTINCT x MATCH (x)-[:follows]->(z:user) RETURN z.uid ORDER BY z.uid",
    "RETURN DISTINCT x.uid",
];
const LIMITS: [&str; 5] = ["", "", " LIMIT 0", " LIMIT 7", " LIMIT $n"];

/// Upper bound on a non-wide query's estimated row count, so the
/// row-at-a-time reference stays cheap on wide graphs.
const ROW_BUDGET: f64 = 4_000.0;

/// A generated query: text plus parameter bindings.
type GenQuery = (String, HashMap<String, Value>);

/// Draws a query from the grammar above (plus `shortestPath`). A `wide`
/// query is a bare two-hop label scan with a tail that consumes every row.
fn gen_query(rng: &mut TestRng, s: &Spec, wide: bool) -> GenQuery {
    let mut pick = |n: usize| rng.next_below(n as u64) as usize;
    let uid = |k: usize| Value::Int((k % (s.users + 3)) as i64);
    // `IN` operands: duplicates, nulls, the empty list, a null list, and
    // (as an execution error) a non-list.
    let list = match pick(12) {
        0 => Value::List(Vec::new()),
        1 => Value::Null,
        2 => Value::Int(1),
        k => Value::List(vec![uid(k * 7), Value::Null, uid(k), uid(pick(99)), uid(k * 7)]),
    };
    let p = if pick(10) == 0 { Value::Null } else { uid(pick(99)) };
    let mut params = HashMap::from([
        ("p".to_owned(), p),
        ("q".to_owned(), uid(pick(99))),
        ("n".to_owned(), Value::Int(1 + pick(8) as i64)),
        ("list".to_owned(), list),
    ]);
    if !wide && pick(30) == 0 {
        params.clear(); // unbound parameters: an execution error in both
    }
    if !wide && pick(12) == 0 {
        let text = format!(
            "MATCH p = shortestPath((a:user {{uid: $p}})-[:follows*..{}]{}(b:user {{uid: $q}})) \
             RETURN length(p)",
            1 + pick(6),
            ["-", "->"][pick(2)]
        );
        return (text, params);
    }
    let (anchor, anchor_pred, share) = ANCHORS[if wide { 0 } else { pick(ANCHORS.len()) }];
    let avg = s.follows.len() as f64 / s.users as f64 + 1.0;
    let mut rows = share * s.users as f64 + 8.0;
    let mut pattern = anchor.to_owned();
    for hop in 0..if wide { 2 } else { 1 + pick(3) } {
        let ((mut shape, undirected), (mut rel, min, max)) =
            (HOPS[pick(3)], RELS[if wide { 0 } else { pick(RELS.len()) }]);
        let d = if undirected { 2.0 * avg } else { avg };
        let mut factor = (min..=max).map(|k| d.powi(k)).sum::<f64>();
        if !wide && rows * factor > ROW_BUDGET {
            if hop > 0 {
                break;
            }
            (shape, rel, factor) = ("-r->", "[:follows]", avg);
        }
        rows *= factor;
        let label = [":user", ""][pick(2)];
        pattern.push_str(&format!("{}(n{hop}{label})", shape.replace('r', rel)));
    }
    // The last hop's node is `x`.
    let last = pattern.rfind("(n").expect("one hop");
    pattern.replace_range(last + 1..last + 3, "x");
    let mut preds: Vec<&str> = vec![anchor_pred];
    for _ in 0..if wide { 0 } else { pick(3) } {
        preds.push(PREDS[pick(PREDS.len())]);
    }
    preds.retain(|p| !p.is_empty());
    let mut text = format!("MATCH {pattern}");
    if !preds.is_empty() {
        text.push_str(&format!(" WHERE {}", preds.join(" AND ")));
    }
    // A wide query must consume every row: no LIMIT 0, no bare LIMIT.
    let (tail, limit) = if wide {
        (TAILS[pick(3)], [" LIMIT 7", ""][pick(2)])
    } else {
        (TAILS[pick(TAILS.len())], LIMITS[pick(LIMITS.len())])
    };
    (format!("{text} {tail}{limit}"), params)
}

type Outcome = Result<(Vec<Vec<Value>>, Vec<u64>), String>;

/// Runs one plan through both executors, each outcome as rows plus
/// per-operator counts, or error text.
fn run_both(plan: &Plan, n: usize, db: &GraphDb, params: &HashMap<String, Value>) -> [Outcome; 2] {
    let tuple_ctx = ExecContext::new(db, params, n);
    let tuple = execute(plan, &tuple_ctx).map(|rows| (rows, tuple_ctx.take_counters()));
    let vec_ctx = ExecContext::new(db, params, n);
    let vec = execute_vec(plan, &vec_ctx).map(|rows| (rows, vec_ctx.take_counters()));
    [tuple.map_err(|e| e.to_string()), vec.map_err(|e| e.to_string())]
}

/// Asserts the two executors agree on the query's plan — rows
/// byte-identical or the same error — both as served and under `PROFILE`
/// instrumentation, where per-operator counts must match too. Returns the
/// widest operator output seen.
fn differential(ql: &QueryEngine, db: &GraphDb, q: &GenQuery) -> Result<u64, TestCaseError> {
    let (text, params) = q;
    let prepared = ql.prepare(text).map_err(|e| {
        TestCaseError::fail(format!("grammar produced an unplannable query: {e}\n{text}"))
    })?;
    let plan = prepared.plan();
    let [tuple, vec] = run_both(plan, 0, db, params);
    prop_assert_eq!(tuple, vec, "served plan: {} {:?}", text, params);
    let (instrumented, descs) = instrument(plan);
    let [mut tuple, mut vec] = run_both(&instrumented, descs.len(), db, params);
    let widest = tuple.as_ref().map_or(0, |(_, counts)| counts.iter().max().copied().unwrap_or(0));
    // Below a `Limit` (or a `TopN` of 0) the tuple interpreter stops after
    // the limit-th row and the vectorized one after the batch holding it,
    // so per-operator counts there legitimately differ.
    if plan.explain().contains("Limit") || text.contains("LIMIT 0") {
        for (_, counts) in [&mut tuple, &mut vec].into_iter().flatten() {
            counts.clear();
        }
    }
    prop_assert_eq!(tuple, vec, "profiled plan: {} {:?}\n{}", text, params, plan.explain());
    Ok(widest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The vectorized executor returns byte-identical rows (or the same
    /// error) and the same per-operator `PROFILE` counts as the tuple
    /// interpreter on one prepared plan, for generated queries over small
    /// graphs and over wide graphs whose intermediates span several batches.
    #[test]
    fn vectorized_matches_tuple_on_generated_queries(
        s in prop_oneof![2 => spec(), 1 => wide_spec()],
        seed in any::<u64>(),
    ) {
        let (db, _nodes) = build(&s);
        let ql = QueryEngine::new(db.clone());
        let mut rng = TestRng::new(seed);
        let wide = s.users >= 160;
        if wide {
            let q = gen_query(&mut rng, &s, true);
            let widest = differential(&ql, &db, &q)?;
            prop_assert!(widest > 2 * BATCH_SIZE as u64, "widest output {}: {:?}", widest, q);
        }
        for _ in 0..8 {
            differential(&ql, &db, &gen_query(&mut rng, &s, false))?;
        }
    }
}
