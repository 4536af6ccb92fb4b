//! Property-based tests for the arbordb engine.
//!
//! The model: a random multigraph built through the transactional API must
//! agree with a plain adjacency-list reference on every neighborhood,
//! degree and shortest-path-length query.

use std::collections::HashMap;

use arbordb::db::{DbConfig, GraphDb};
use arbordb::traversal::{shortest_path, shortest_path_unidirectional};
use arbordb::{Direction, NodeId, Value};
use proptest::prelude::*;

const REL_TYPES: [&str; 3] = ["follows", "posts", "mentions"];

#[derive(Debug, Clone)]
struct GraphSpec {
    nodes: usize,
    edges: Vec<(usize, usize, usize)>, // (src, dst, type index)
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (2usize..20).prop_flat_map(|nodes| {
        prop::collection::vec((0..nodes, 0..nodes, 0usize..REL_TYPES.len()), 0..60)
            .prop_map(move |edges| GraphSpec { nodes, edges })
    })
}

fn build(spec: &GraphSpec) -> (GraphDb, Vec<NodeId>) {
    let db = GraphDb::open_memory(DbConfig {
        page_cache_pages: 128,
        dense_node_threshold: 4,
    })
    .unwrap();
    let mut tx = db.begin_write().unwrap();
    let ids: Vec<NodeId> = (0..spec.nodes)
        .map(|i| {
            tx.create_node("user", &[("uid", Value::Int(i as i64))])
                .unwrap()
        })
        .collect();
    for &(s, d, t) in &spec.edges {
        tx.create_rel(ids[s], ids[d], REL_TYPES[t], &[]).unwrap();
    }
    tx.commit().unwrap();
    (db, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Neighborhoods and degrees match an adjacency-list reference model.
    #[test]
    fn neighborhoods_match_model(spec in graph_spec()) {
        let (db, ids) = build(&spec);
        #[allow(clippy::needless_range_loop)] // index used in model filters too
        for t in 0..REL_TYPES.len() {
            let tid = match db.rel_type_id(REL_TYPES[t]) {
                Some(x) => x,
                None => continue, // type never used in this spec
            };
            for n in 0..spec.nodes {
                let mut model_out: Vec<u64> = spec.edges.iter()
                    .filter(|&&(s, _, et)| s == n && et == t)
                    .map(|&(_, d, _)| ids[d].raw())
                    .collect();
                let mut got_out: Vec<u64> = db
                    .neighbors(ids[n], Some(tid), Direction::Outgoing)
                    .map(|r| r.unwrap().raw())
                    .collect();
                model_out.sort_unstable();
                got_out.sort_unstable();
                prop_assert_eq!(&model_out, &got_out, "out({}, {})", n, REL_TYPES[t]);

                let mut model_in: Vec<u64> = spec.edges.iter()
                    .filter(|&&(_, d, et)| d == n && et == t)
                    .map(|&(s, _, _)| ids[s].raw())
                    .collect();
                let mut got_in: Vec<u64> = db
                    .neighbors(ids[n], Some(tid), Direction::Incoming)
                    .map(|r| r.unwrap().raw())
                    .collect();
                model_in.sort_unstable();
                got_in.sort_unstable();
                prop_assert_eq!(&model_in, &got_in, "in({}, {})", n, REL_TYPES[t]);

                prop_assert_eq!(
                    db.degree(ids[n], Some(tid), Direction::Outgoing).unwrap(),
                    model_out.len() as u64
                );
            }
        }
        // Untyped degrees.
        #[allow(clippy::needless_range_loop)]
        for n in 0..spec.nodes {
            let out = spec.edges.iter().filter(|&&(s, _, _)| s == n).count() as u64;
            let inc = spec.edges.iter().filter(|&&(_, d, _)| d == n).count() as u64;
            prop_assert_eq!(db.degree(ids[n], None, Direction::Outgoing).unwrap(), out);
            prop_assert_eq!(db.degree(ids[n], None, Direction::Incoming).unwrap(), inc);
        }
    }

    /// Bidirectional shortest path length equals a reference BFS length.
    #[test]
    fn shortest_path_lengths_match_bfs(spec in graph_spec(), from in 0usize..20, to in 0usize..20) {
        let from = from % spec.nodes;
        let to = to % spec.nodes;
        let (db, ids) = build(&spec);
        // Reference BFS over the untyped, outgoing-edge graph.
        let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
        for &(s, d, _) in &spec.edges {
            adj.entry(s).or_default().push(d);
        }
        let reference = {
            let mut dist: HashMap<usize, u32> = HashMap::new();
            dist.insert(from, 0);
            let mut q = std::collections::VecDeque::from([from]);
            let mut found = None;
            while let Some(n) = q.pop_front() {
                if n == to {
                    found = Some(dist[&n]);
                    break;
                }
                for &m in adj.get(&n).into_iter().flatten() {
                    if !dist.contains_key(&m) {
                        dist.insert(m, dist[&n] + 1);
                        q.push_back(m);
                    }
                }
            }
            found.filter(|&d| d <= 8)
        };
        let bi = shortest_path(&db, ids[from], ids[to], None, Direction::Outgoing, 8).unwrap();
        let uni = shortest_path_unidirectional(&db, ids[from], ids[to], None, Direction::Outgoing, 8)
            .unwrap();
        prop_assert_eq!(bi.as_ref().map(|p| p.len() as u32 - 1), reference, "bidirectional");
        prop_assert_eq!(uni.as_ref().map(|p| p.len() as u32 - 1), reference, "unidirectional");
        // Returned paths must be real paths.
        if let Some(p) = &bi {
            prop_assert_eq!(p.first(), Some(&ids[from]));
            prop_assert_eq!(p.last(), Some(&ids[to]));
            for w in p.windows(2) {
                let hop_ok = db
                    .neighbors(w[0], None, Direction::Outgoing)
                    .any(|r| r.unwrap() == w[1]);
                prop_assert!(hop_ok, "edge {:?}->{:?} missing", w[0], w[1]);
            }
        }
    }

    /// Abort is a perfect rollback: the visible graph equals the pre-txn graph.
    #[test]
    fn abort_restores_graph(spec in graph_spec(), extra in prop::collection::vec((0usize..20, 0usize..20), 1..10)) {
        let (db, ids) = build(&spec);
        let snapshot: Vec<(u64, u64)> = ids.iter()
            .map(|&n| (
                db.degree(n, None, Direction::Outgoing).unwrap(),
                db.degree(n, None, Direction::Incoming).unwrap(),
            ))
            .collect();
        let node_count = db.node_count();

        let mut tx = db.begin_write().unwrap();
        let fresh = tx.create_node("user", &[("uid", Value::Int(-1))]).unwrap();
        for &(s, d) in &extra {
            tx.create_rel(ids[s % spec.nodes], ids[d % spec.nodes], "follows", &[]).unwrap();
            tx.create_rel(ids[s % spec.nodes], fresh, "mentions", &[]).unwrap();
        }
        tx.abort().unwrap();

        prop_assert_eq!(db.node_count(), node_count, "allocation counter rolled back");
        prop_assert!(!db.node_exists(fresh), "aborted node invisible");
        for (i, &n) in ids.iter().enumerate() {
            prop_assert_eq!(
                (
                    db.degree(n, None, Direction::Outgoing).unwrap(),
                    db.degree(n, None, Direction::Incoming).unwrap(),
                ),
                snapshot[i],
                "degrees of node {} changed by aborted txn", i
            );
        }
    }
}
