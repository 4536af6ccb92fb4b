//! End-to-end ArborQL tests over a small Twitter-shaped graph.
//!
//! The fixture mirrors Figure 1's schema:
//!
//! ```text
//! users:   u1..u5  (uid 1..5, followers = uid * 100)
//! tweets:  t1..t4  (posted by u1,u2,u3,u1)
//! tags:    #rust on t1, t2; #db on t2, t3
//! mentions: t1 -> u2, u3;  t2 -> u2;  t3 -> u1;  t4 -> u2
//! follows: u1->u2, u1->u3, u2->u3, u3->u4, u4->u5, u5->u1, u2->u1
//! ```

use std::sync::Arc;

use arbor_ql::{EngineOptions, QueryEngine, Value};
use arbordb::db::{DbConfig, GraphDb};
use arbordb::NodeId;

struct Fixture {
    db: Arc<GraphDb>,
    users: Vec<NodeId>,
}

fn fixture() -> Fixture {
    let db = GraphDb::open_memory(DbConfig {
        page_cache_pages: 512,
        dense_node_threshold: 100,
    })
    .unwrap();
    let mut tx = db.begin_write().unwrap();
    let users: Vec<NodeId> = (1..=5i64)
        .map(|i| {
            tx.create_node(
                "user",
                &[("uid", Value::Int(i)), ("followers", Value::Int(i * 100))],
            )
            .unwrap()
        })
        .collect();
    let tweets: Vec<NodeId> = (1..=4i64)
        .map(|i| {
            tx.create_node(
                "tweet",
                &[
                    ("tid", Value::Int(i)),
                    ("text", Value::Str(format!("tweet {i}"))),
                ],
            )
            .unwrap()
        })
        .collect();
    let rust = tx
        .create_node("hashtag", &[("tag", Value::from("rust"))])
        .unwrap();
    let dbtag = tx
        .create_node("hashtag", &[("tag", Value::from("db"))])
        .unwrap();

    let posts = [(0usize, 0usize), (1, 1), (2, 2), (0, 3)];
    for (u, t) in posts {
        tx.create_rel(users[u], tweets[t], "posts", &[]).unwrap();
    }
    for (t, h) in [(0usize, rust), (1, rust), (1, dbtag), (2, dbtag)] {
        tx.create_rel(tweets[t], h, "tags", &[]).unwrap();
    }
    for (t, u) in [(0usize, 1usize), (0, 2), (1, 1), (2, 0), (3, 1)] {
        tx.create_rel(tweets[t], users[u], "mentions", &[]).unwrap();
    }
    for (a, b) in [
        (0usize, 1usize),
        (0, 2),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 0),
        (1, 0),
    ] {
        tx.create_rel(users[a], users[b], "follows", &[]).unwrap();
    }
    tx.commit().unwrap();
    db.create_index("user", "uid").unwrap();
    db.create_index("tweet", "tid").unwrap();
    db.create_index("hashtag", "tag").unwrap();
    Fixture {
        db: Arc::new(db),
        users,
    }
}

fn ints(rows: &[Vec<Value>], col: usize) -> Vec<i64> {
    rows.iter().map(|r| r[col].as_int().unwrap()).collect()
}

#[test]
fn q1_selection_with_predicate() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql
        .query(
            "MATCH (u:user) WHERE u.followers > $th RETURN u.uid ORDER BY u.uid",
            &[("th", Value::Int(250))],
        )
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![3, 4, 5]);
    assert_eq!(r.columns, vec!["u.uid"]);
}

#[test]
fn q1_conjunctive_predicates() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql
        .query(
            "MATCH (u:user) WHERE u.followers > 150 AND u.followers < 450 RETURN u.uid ORDER BY u.uid",
            &[],
        )
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![2, 3, 4]);
}

#[test]
fn q2_1_one_step_followees() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql
        .query(
            "MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid ORDER BY f.uid",
            &[("uid", Value::Int(1))],
        )
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![2, 3]);
}

#[test]
fn q2_2_tweets_of_followees() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql
        .query(
            "MATCH (a:user {uid: $uid})-[:follows]->(f)-[:posts]->(t:tweet) \
             RETURN t.tid ORDER BY t.tid",
            &[("uid", Value::Int(1))],
        )
        .unwrap();
    // u1 follows u2 (posts t2) and u3 (posts t3).
    assert_eq!(ints(&r.rows, 0), vec![2, 3]);
}

#[test]
fn q2_3_hashtags_of_followees() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql
        .query(
            "MATCH (a:user {uid: $uid})-[:follows]->(f)-[:posts]->(t)-[:tags]->(h:hashtag) \
             RETURN DISTINCT h.tag ORDER BY h.tag",
            &[("uid", Value::Int(1))],
        )
        .unwrap();
    let tags: Vec<&str> = r.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
    assert_eq!(tags, vec!["db", "rust"]);
}

#[test]
fn q3_1_co_mentions() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    // Users co-mentioned with u2: tweets mentioning u2 are t1 (also u3), t2
    // (only u2), t4 (only u2) → u3 once.
    let r = ql
        .query(
            "MATCH (a:user {uid: $uid})<-[:mentions]-(t:tweet)-[:mentions]->(b:user) \
             WHERE b.uid <> $uid \
             RETURN b.uid, count(*) AS c ORDER BY c DESC LIMIT 10",
            &[("uid", Value::Int(2))],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(ints(&r.rows, 0), vec![3]);
    assert_eq!(ints(&r.rows, 1), vec![1]);
}

#[test]
fn q4_1_recommendation_not_following() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    // 2-step followees of u1: via u2 -> {u3, u1}, via u3 -> {u4}.
    // Excluding already-followed (u2, u3) and u1 itself: u4.
    let r = ql
        .query(
            "MATCH (a:user {uid: $uid})-[:follows]->(f)-[:follows]->(r) \
             WHERE NOT (a)-[:follows]->(r) AND r.uid <> $uid \
             RETURN r.uid, count(*) AS c ORDER BY c DESC LIMIT 10",
            &[("uid", Value::Int(1))],
        )
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![4]);
}

#[test]
fn q4_1_varlength_phrasing_counts_paths() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    // Phrasing (a): [:follows*2..2] counts every distinct 2-path.
    let r = ql
        .query(
            "MATCH (a:user {uid: $uid})-[:follows*2..2]->(r) \
             RETURN r.uid, count(*) AS c ORDER BY c DESC, r.uid ASC LIMIT 10",
            &[("uid", Value::Int(1))],
        )
        .unwrap();
    // 2-paths from u1: u1->u2->u3, u1->u2->u1, u1->u3->u4.
    let pairs: Vec<(i64, i64)> = r
        .rows
        .iter()
        .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
        .collect();
    assert_eq!(pairs, vec![(1, 1), (3, 1), (4, 1)]);
}

#[test]
fn q5_2_potential_influence() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    // Posters of tweets mentioning u1 who u1 does NOT follow... wait:
    // potential influence = users mentioning A, not direct followers of A.
    // Tweets mentioning u1: t3 (posted by u3). Is u3 a follower of u1? No
    // (u3 follows u4). So u3 counts.
    let r = ql
        .query(
            "MATCH (p:user)-[:posts]->(t:tweet)-[:mentions]->(a:user {uid: $uid}) \
             WHERE NOT (p)-[:follows]->(a) AND p.uid <> $uid \
             RETURN p.uid, count(*) AS c ORDER BY c DESC LIMIT 10",
            &[("uid", Value::Int(1))],
        )
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![3]);
}

#[test]
fn q6_1_shortest_path() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql
        .query(
            "MATCH p = shortestPath((a:user {uid: $a})-[:follows*..6]-(b:user {uid: $b})) \
             RETURN length(p)",
            &[("a", Value::Int(1)), ("b", Value::Int(5))],
        )
        .unwrap();
    // Undirected: u1 - u5 via the u5->u1 edge = 1 hop.
    assert_eq!(ints(&r.rows, 0), vec![1]);
}

#[test]
fn q6_1_directed_shortest_path() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql
        .query(
            "MATCH p = shortestPath((a:user {uid: $a})-[:follows*..6]->(b:user {uid: $b})) \
             RETURN length(p)",
            &[("a", Value::Int(1)), ("b", Value::Int(5))],
        )
        .unwrap();
    // Directed: u1->u3->u4->u5 = 3 hops.
    assert_eq!(ints(&r.rows, 0), vec![3]);
}

#[test]
fn shortest_path_absent_returns_no_rows() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql
        .query(
            "MATCH p = shortestPath((a:user {uid: $a})-[:posts*..3]-(b:user {uid: $b})) \
             RETURN length(p)",
            &[("a", Value::Int(1)), ("b", Value::Int(5))],
        )
        .unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn plan_cache_hits_with_parameters() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let q = "MATCH (a:user {uid: $uid})-[:follows]->(f) RETURN f.uid";
    for i in 1..=5 {
        let r = ql.query(q, &[("uid", Value::Int(i))]).unwrap();
        assert_eq!(r.stats.plan_cached, i > 1);
    }
    let (hits, misses) = ql.cache_stats();
    assert_eq!((hits, misses), (4, 1));

    // Literal phrasings never share a cache entry.
    ql.clear_cache();
    for i in 1..=3 {
        let text = format!("MATCH (a:user {{uid: {i}}})-[:follows]->(f) RETURN f.uid");
        let r = ql.query(&text, &[]).unwrap();
        assert!(!r.stats.plan_cached);
    }
    let (hits, misses) = ql.cache_stats();
    assert_eq!((hits, misses), (0, 3));
}

#[test]
fn plan_cache_disabled() {
    let f = fixture();
    let ql = QueryEngine::with_options(
        f.db.clone(),
        EngineOptions {
            plan_cache: false,
            ..EngineOptions::standard()
        },
    );
    let q = "MATCH (a:user {uid: $uid})-[:follows]->(f) RETURN f.uid";
    for _ in 0..3 {
        let r = ql.query(q, &[("uid", Value::Int(1))]).unwrap();
        assert!(!r.stats.plan_cached);
    }
}

#[test]
fn db_hits_reported() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql
        .query(
            "MATCH (a:user {uid: $uid})-[:follows]->(f) RETURN f.uid",
            &[("uid", Value::Int(1))],
        )
        .unwrap();
    assert!(r.stats.db_hits > 0, "stats: {:?}", r.stats);
    assert_eq!(r.stats.rows, 2);
}

#[test]
fn limit_without_order() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql
        .query("MATCH (u:user) RETURN u.uid LIMIT 2", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn limit_zero() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql
        .query("MATCH (u:user) RETURN u.uid LIMIT 0", &[])
        .unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn order_by_two_keys() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    // Group by nothing interesting — order users by followers desc.
    let r = ql
        .query(
            "MATCH (u:user) RETURN u.followers AS fl, u.uid AS id ORDER BY fl DESC, id ASC",
            &[],
        )
        .unwrap();
    assert_eq!(ints(&r.rows, 1), vec![5, 4, 3, 2, 1]);
}

#[test]
fn missing_property_is_null_and_filtered() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    // tweets have no `followers` property: predicate never holds.
    let r = ql
        .query("MATCH (t:tweet) WHERE t.followers > 0 RETURN t.tid", &[])
        .unwrap();
    assert!(r.rows.is_empty());
    // But projecting it yields nulls.
    let r = ql
        .query("MATCH (t:tweet) RETURN t.followers LIMIT 1", &[])
        .unwrap();
    assert!(r.rows[0][0].is_null());
}

#[test]
fn missing_parameter_is_error() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let e = ql.query("MATCH (u:user {uid: $nope}) RETURN u.uid", &[]);
    assert!(e.is_err());
}

#[test]
fn undirected_one_step() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    // u1's undirected follows neighborhood: out {u2, u3}, in {u5, u2}.
    let r = ql
        .query(
            "MATCH (a:user {uid: 1})-[:follows]-(x) RETURN DISTINCT x.uid ORDER BY x.uid",
            &[],
        )
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![2, 3, 5]);
}

#[test]
fn label_filter_on_expanded_node() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    // All outgoing edges of u1 reach users (follows) and tweets (posts);
    // the :tweet label filter keeps only the tweets.
    let r = ql
        .query(
            "MATCH (a:user {uid: 1})-[]->(t:tweet) RETURN t.tid ORDER BY t.tid",
            &[],
        )
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![1, 4]);
}

#[test]
fn explain_is_stable() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let e1 = ql
        .explain("MATCH (a:user {uid: $uid})-[:follows]->(f) RETURN f.uid")
        .unwrap();
    assert!(e1.contains("NodeIndexSeek"));
    assert!(e1.contains("Expand"));
}

#[test]
fn count_star_total() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql.query("MATCH (u:user) RETURN count(*)", &[]).unwrap();
    assert_eq!(ints(&r.rows, 0), vec![5]);
}

#[test]
fn self_reference_cycle_pattern() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    // Mutual follows: (a)-[:follows]->(b) AND (b)-[:follows]->(a).
    let r = ql
        .query(
            "MATCH (a:user)-[:follows]->(b:user) WHERE (b)-[:follows]->(a) \
             RETURN a.uid, b.uid ORDER BY a.uid",
            &[],
        )
        .unwrap();
    // u1<->u2 mutual.
    assert_eq!(r.rows.len(), 2);
    assert_eq!(ints(&r.rows, 0), vec![1, 2]);
    let _ = &f.users;
}

#[test]
fn profile_reports_per_operator_rows() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let p = ql
        .profile(
            "MATCH (a:user {uid: $uid})-[:follows]->(x) WHERE x.uid <> 3 RETURN x.uid",
            &[("uid", Value::Int(1))],
        )
        .unwrap();
    // The seek emits 1 row, the expand 2 (u2, u3), the filter 1 (u2).
    let rows: Vec<u64> = p.operators.iter().map(|(_, r)| *r).collect();
    let descs: Vec<&str> = p.operators.iter().map(|(d, _)| d.as_str()).collect();
    assert!(
        descs.iter().any(|d| d.contains("NodeIndexSeek")),
        "{descs:?}"
    );
    assert!(descs.iter().any(|d| d.contains("Expand")), "{descs:?}");
    let seek_rows = rows[descs
        .iter()
        .position(|d| d.contains("NodeIndexSeek"))
        .unwrap()];
    let expand_rows = rows[descs.iter().position(|d| d.contains("Expand")).unwrap()];
    assert_eq!(seek_rows, 1);
    assert_eq!(expand_rows, 2);
    assert_eq!(p.result.rows.len(), 1);
    assert!(p.result.stats.db_hits > 0);
    let rendered = p.render();
    assert!(rendered.contains("rows="), "{rendered}");
    assert!(rendered.contains("total db hits"), "{rendered}");
}

#[test]
fn profile_and_query_agree() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let q = "MATCH (a:user {uid: $uid})<-[:mentions]-(t)-[:mentions]->(b:user) \
             WHERE b.uid <> $uid RETURN b.uid, count(*) AS c ORDER BY c DESC LIMIT 5";
    let params = [("uid", Value::Int(2))];
    let plain = ql.query(q, &params).unwrap();
    let profiled = ql.profile(q, &params).unwrap();
    assert_eq!(
        plain.rows, profiled.result.rows,
        "instrumentation must not change results"
    );
}

#[test]
fn relationship_variables_and_type_fn() {
    // Fresh db with edge properties (weights on follows).
    let db = GraphDb::open_memory(DbConfig::default()).unwrap();
    let mut tx = db.begin_write().unwrap();
    let a = tx.create_node("user", &[("uid", Value::Int(1))]).unwrap();
    let b = tx.create_node("user", &[("uid", Value::Int(2))]).unwrap();
    let c = tx.create_node("user", &[("uid", Value::Int(3))]).unwrap();
    tx.create_rel(a, b, "follows", &[("since", Value::Int(2014))])
        .unwrap();
    tx.create_rel(a, c, "follows", &[("since", Value::Int(2015))])
        .unwrap();
    tx.create_rel(a, c, "blocks", &[]).unwrap();
    tx.commit().unwrap();
    db.create_index("user", "uid").unwrap();
    let db = Arc::new(db);
    let ql = QueryEngine::new(db);

    // Edge property access + filter.
    let r = ql
        .query(
            "MATCH (a:user {uid: 1})-[r:follows]->(x) WHERE r.since > 2014 \
             RETURN x.uid, r.since",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int(3));
    assert_eq!(r.rows[0][1], Value::Int(2015));

    // type(r) over an untyped expansion.
    let r = ql
        .query(
            "MATCH (a:user {uid: 1})-[r]->(x) RETURN type(r), x.uid \
             ORDER BY type(r) ASC, x.uid ASC",
            &[],
        )
        .unwrap();
    let got: Vec<(String, i64)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row[0].as_str().unwrap().to_owned(),
                row[1].as_int().unwrap(),
            )
        })
        .collect();
    assert_eq!(
        got,
        vec![
            ("blocks".into(), 3),
            ("follows".into(), 2),
            ("follows".into(), 3)
        ]
    );

    // id(r) is usable and distinct per edge.
    let r = ql
        .query(
            "MATCH (a:user {uid: 1})-[r:follows]->(x) RETURN id(r) ORDER BY id(r)",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_ne!(r.rows[0][0], r.rows[1][0]);

    // Missing edge property is null.
    let r = ql
        .query(
            "MATCH (a:user {uid: 1})-[r:blocks]->(x) RETURN r.since",
            &[],
        )
        .unwrap();
    assert!(r.rows[0][0].is_null());

    // Rel var on a var-length pattern is a syntax error.
    assert!(ql
        .query("MATCH (a)-[r:follows*1..2]->(x) RETURN x", &[])
        .is_err());
}

// ---------------------------------------------------------------------------
// WITH stages (multi-part queries)
// ---------------------------------------------------------------------------

#[test]
fn with_passthrough_then_expand() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    // Equivalent to the plain 2-step query, split at a WITH boundary.
    let staged = ql
        .query(
            "MATCH (a:user {uid: $uid})-[:follows]->(fr) WITH fr \
             MATCH (fr)-[:posts]->(t:tweet) RETURN t.tid ORDER BY t.tid",
            &[("uid", Value::Int(1))],
        )
        .unwrap();
    let plain = ql
        .query(
            "MATCH (a:user {uid: $uid})-[:follows]->(fr)-[:posts]->(t:tweet) \
             RETURN t.tid ORDER BY t.tid",
            &[("uid", Value::Int(1))],
        )
        .unwrap();
    assert_eq!(staged.rows, plain.rows);
    assert!(!staged.rows.is_empty());
}

#[test]
fn with_alias_renames_variable() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql
        .query(
            "MATCH (a:user {uid: 1})-[:follows]->(fr) WITH fr AS friend \
             MATCH (friend)-[:follows]->(x) RETURN DISTINCT x.uid ORDER BY x.uid",
            &[],
        )
        .unwrap();
    // u1 follows u2, u3; their followees: u2->{u3,u1}, u3->{u4}.
    assert_eq!(ints(&r.rows, 0), vec![1, 3, 4]);
}

#[test]
fn with_where_filters_intermediate() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql
        .query(
            "MATCH (a:user {uid: 1})-[:follows]->(fr) WITH fr WHERE fr.uid > 2 \
             MATCH (fr)-[:posts]->(t) RETURN t.tid",
            &[],
        )
        .unwrap();
    // Only u3 passes the filter; u3 posts t3.
    assert_eq!(ints(&r.rows, 0), vec![3]);
}

#[test]
fn with_computed_value_carries_forward() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql
        .query(
            "MATCH (u:user) WITH u, u.followers AS fl WHERE fl > 250 \
             MATCH (u)-[:follows]->(x) RETURN u.uid, fl, x.uid ORDER BY u.uid, x.uid",
            &[],
        )
        .unwrap();
    // Users with >250 followers: u3 (300, follows u4), u4 (400, follows u5),
    // u5 (500, follows u1).
    let triples: Vec<(i64, i64, i64)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row[0].as_int().unwrap(),
                row[1].as_int().unwrap(),
                row[2].as_int().unwrap(),
            )
        })
        .collect();
    assert_eq!(triples, vec![(3, 300, 4), (4, 400, 5), (5, 500, 1)]);
}

#[test]
fn with_aggregation_then_match_on_group_node() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    // Count each user's followers, keep the node, then expand it again.
    let r = ql
        .query(
            "MATCH (f:user)-[:follows]->(u:user) WITH u, count(*) AS fans WHERE fans >= 2 \
             MATCH (u)-[:posts]->(t:tweet) RETURN u.uid, fans, t.tid ORDER BY u.uid, t.tid",
            &[],
        )
        .unwrap();
    // In-degrees: u1←{u2,u5}=2, u2←{u1}=1, u3←{u1,u2}=2, u4←{u3}=1, u5←{u4}=1.
    // With ≥2 fans: u1 (posts t1, t4) and u3 (posts t3).
    let triples: Vec<(i64, i64, i64)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row[0].as_int().unwrap(),
                row[1].as_int().unwrap(),
                row[2].as_int().unwrap(),
            )
        })
        .collect();
    assert_eq!(triples, vec![(1, 2, 1), (1, 2, 4), (3, 2, 3)]);
}

#[test]
fn with_distinct_collapses_duplicates() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    // Tweets of u1's followees' followees reach u3 twice without DISTINCT.
    let without = ql
        .query(
            "MATCH (a:user {uid: 1})-[:follows]->(x)-[:follows]->(y:user) WITH y \
             MATCH (y)-[:posts]->(t) RETURN t.tid ORDER BY t.tid",
            &[],
        )
        .unwrap();
    let with_distinct = ql
        .query(
            "MATCH (a:user {uid: 1})-[:follows]->(x)-[:follows]->(y:user) WITH DISTINCT y \
             MATCH (y)-[:posts]->(t) RETURN t.tid ORDER BY t.tid",
            &[],
        )
        .unwrap();
    assert!(with_distinct.rows.len() <= without.rows.len());
    let mut dedup = without.rows.clone();
    dedup.dedup();
    assert_eq!(with_distinct.rows, dedup);
}

#[test]
fn with_order_limit_picks_top_group() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    // The most-followed user, then their tweets.
    let r = ql
        .query(
            "MATCH (f:user)-[:follows]->(u:user) \
             WITH u, count(*) AS fans ORDER BY fans DESC, u.uid ASC LIMIT 1 \
             MATCH (u)-[:posts]->(t) RETURN u.uid, t.tid ORDER BY t.tid",
            &[],
        )
        .unwrap();
    // Tie between u1 and u3 at 2 fans; uid ascending picks u1 (posts t1,t4).
    let pairs: Vec<(i64, i64)> = r
        .rows
        .iter()
        .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
        .collect();
    assert_eq!(pairs, vec![(1, 1), (1, 4)]);
}

#[test]
fn with_out_of_scope_variable_is_error() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    // `a` is not carried through the WITH, so the final RETURN can't see it.
    let e = ql.query(
        "MATCH (a:user {uid: 1})-[:follows]->(fr) WITH fr \
         MATCH (fr)-[:posts]->(t) RETURN a.uid",
        &[],
    );
    assert!(e.is_err(), "out-of-scope variable must be rejected");
}

#[test]
fn recommendation_via_with_matches_canonical() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    // The paper's phrasing (b) "collecting the intermediate results and
    // checking them against the results at depth 2" — as an actual staged
    // query.
    let staged = ql
        .query(
            "MATCH (a:user {uid: $uid})-[:follows]->(fr) WITH a, fr \
             MATCH (fr)-[:follows]->(r) \
             WHERE NOT (a)-[:follows]->(r) AND r.uid <> $uid \
             RETURN r.uid, count(*) AS c ORDER BY c DESC, r.uid ASC LIMIT 10",
            &[("uid", Value::Int(1))],
        )
        .unwrap();
    let canonical = ql
        .query(
            "MATCH (a:user {uid: $uid})-[:follows]->(fr)-[:follows]->(r) \
             WHERE NOT (a)-[:follows]->(r) AND r.uid <> $uid \
             RETURN r.uid, count(*) AS c ORDER BY c DESC, r.uid ASC LIMIT 10",
            &[("uid", Value::Int(1))],
        )
        .unwrap();
    assert_eq!(staged.rows, canonical.rows);
}

#[test]
fn range_seek_matches_scan_filter_in_both_modes() {
    // Two engines over structurally identical data: one with a followers
    // index (range predicates become NodeIndexRangeSeek), one without
    // (label scan + filter). Every comparison and both orientations must
    // agree row-for-row.
    let indexed = fixture();
    indexed.db.create_index("user", "followers").unwrap();
    let plain = fixture();
    let queries = [
        "MATCH (u:user) WHERE u.followers > $th RETURN u.uid ORDER BY u.uid",
        "MATCH (u:user) WHERE u.followers >= $th RETURN u.uid ORDER BY u.uid",
        "MATCH (u:user) WHERE u.followers < $th RETURN u.uid ORDER BY u.uid",
        "MATCH (u:user) WHERE u.followers <= $th RETURN u.uid ORDER BY u.uid",
        "MATCH (u:user) WHERE $th > u.followers RETURN u.uid ORDER BY u.uid",
        "MATCH (u:user) WHERE u.followers > $th AND u.followers < 450 \
         RETURN u.uid ORDER BY u.uid",
        "MATCH (u:user) WHERE u.followers > $th RETURN count(*)",
    ];
    let ql_i = QueryEngine::new(indexed.db.clone());
    let ql_p = QueryEngine::new(plain.db.clone());
    for q in queries {
        for th in [-1i64, 0, 100, 250, 500, 1000] {
            let a = ql_i.query(q, &[("th", Value::Int(th))]).unwrap();
            let b = ql_p.query(q, &[("th", Value::Int(th))]).unwrap();
            assert_eq!(a.rows, b.rows, "query {q}, th {th}");
        }
        // A null bound matches nothing on either path.
        let a = ql_i.query(q, &[("th", Value::Null)]).unwrap();
        let b = ql_p.query(q, &[("th", Value::Null)]).unwrap();
        assert_eq!(a.rows, b.rows, "null bound, query {q}");
    }
}

#[test]
fn range_seek_tracks_live_follower_updates() {
    let f = fixture();
    f.db.create_index("user", "followers").unwrap();
    let ql = QueryEngine::new(f.db.clone());
    let q = "MATCH (u:user) WHERE u.followers > $th RETURN u.uid ORDER BY u.uid";
    assert_eq!(
        ints(&ql.query(q, &[("th", Value::Int(450))]).unwrap().rows, 0),
        vec![5]
    );
    // u1: 100 → 600 followers; the ordered index must move the entry.
    let mut tx = f.db.begin_write().unwrap();
    tx.set_node_prop(f.users[0], "followers", Value::Int(600))
        .unwrap();
    tx.commit().unwrap();
    assert_eq!(
        ints(&ql.query(q, &[("th", Value::Int(450))]).unwrap().rows, 0),
        vec![1, 5]
    );
}

#[test]
fn in_seek_matches_filter_in_both_modes() {
    // Same data, two planners: pushdown on (IN becomes NodeIdInSeek over the
    // uid index) vs pushdown off (scan + Filter membership). Both must
    // agree row-for-row on every list shape.
    let f = fixture();
    let seek = QueryEngine::new(f.db.clone());
    let filt = QueryEngine::with_options(
        f.db.clone(),
        EngineOptions {
            planner: arbor_ql::PlannerOptions {
                predicate_pushdown: false,
                ..Default::default()
            },
            ..EngineOptions::standard()
        },
    );
    let q = "MATCH (u:user) WHERE u.uid IN $uids RETURN u.uid ORDER BY u.uid";
    let lists: &[Vec<Value>] = &[
        vec![Value::Int(3), Value::Int(1)],
        vec![Value::Int(2), Value::Int(2), Value::Int(2)],
        vec![Value::Int(99), Value::Int(4)],
        vec![Value::Null, Value::Int(5)],
        vec![],
    ];
    for list in lists {
        let p = [("uids", Value::List(list.clone()))];
        let a = seek.query(q, &p).unwrap();
        let b = filt.query(q, &p).unwrap();
        assert_eq!(a.rows, b.rows, "list {list:?}");
    }
    // Null list behaves like an empty one on both paths.
    let p = [("uids", Value::Null)];
    assert!(seek.query(q, &p).unwrap().rows.is_empty());
    assert!(filt.query(q, &p).unwrap().rows.is_empty());
}

#[test]
fn in_seek_drives_multi_hop_kernels() {
    // The batched-kernel shape: anchor a whole uid list and expand. IN [..]
    // duplicates must not double-count rows (the grouped tally below would
    // drift if the seek emitted an anchor twice).
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql
        .query(
            "MATCH (a:user)-[:posts]->(t:tweet) WHERE a.uid IN $uids \
             RETURN a.uid, t.tid ORDER BY a.uid, t.tid",
            &[("uids", Value::from(&[3i64, 1, 1][..]))],
        )
        .unwrap();
    let pairs: Vec<(i64, i64)> = r
        .rows
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    assert_eq!(pairs, vec![(1, 1), (1, 4), (3, 3)]);

    let counts = ql
        .query(
            "MATCH (a:user)-[:follows]->(f:user) WHERE a.uid IN [2, 1, 2] \
             RETURN a.uid, count(*) AS c ORDER BY a.uid",
            &[],
        )
        .unwrap();
    let tallies: Vec<(i64, i64)> = counts
        .rows
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    assert_eq!(tallies, vec![(1, 2), (2, 2)]);
}

#[test]
fn in_seek_plan_shape_and_estimate() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    // Literal list: the multi-anchor seek is the source and estimates one
    // row per distinct key.
    let d = ql
        .describe("MATCH (u:user) WHERE u.uid IN [1, 2, 3] RETURN u.uid ORDER BY u.uid")
        .unwrap();
    assert!(
        d.contains("NodeIdInSeek(:user {uid IN …})"),
        "describe:\n{d}"
    );
    // Parameter list: still a seek (the cost model assumes a small batch).
    let d = ql
        .describe("MATCH (u:user) WHERE u.uid IN $uids RETURN u.uid ORDER BY u.uid")
        .unwrap();
    assert!(
        d.contains("NodeIdInSeek(:user {uid IN …})"),
        "describe:\n{d}"
    );
    // Multi-hop: a short anchor list out-costs scanning the other end, so
    // the cost-based planner roots the plan at the seek.
    let d = ql
        .describe(
            "MATCH (a:user)-[:posts]->(t:tweet) WHERE a.uid IN [1, 3] \
             RETURN a.uid, t.tid ORDER BY a.uid, t.tid",
        )
        .unwrap();
    assert!(
        d.contains("NodeIdInSeek(:user {uid IN …})"),
        "describe:\n{d}"
    );
    // No index on the key → membership stays a Filter, not a seek.
    let d = ql
        .describe("MATCH (u:user) WHERE u.followers IN [100, 300] RETURN u.uid")
        .unwrap();
    assert!(!d.contains("NodeIdInSeek"), "describe:\n{d}");
}

#[test]
fn in_empty_list_yields_empty_not_error() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let r = ql
        .query(
            "MATCH (u:user) WHERE u.uid IN $uids RETURN u.uid",
            &[("uids", Value::List(vec![]))],
        )
        .unwrap();
    assert!(r.rows.is_empty());
    let r = ql
        .query("MATCH (u:user) WHERE u.uid IN [] RETURN u.uid", &[])
        .unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn in_non_list_operand_is_a_plan_error() {
    let f = fixture();
    let ql = QueryEngine::new(f.db.clone());
    let err = ql
        .query(
            "MATCH (u:user) WHERE u.uid IN $uids RETURN u.uid",
            &[("uids", Value::Int(3))],
        )
        .unwrap_err();
    assert!(err.to_string().contains("IN requires a list"), "{err}");
}
