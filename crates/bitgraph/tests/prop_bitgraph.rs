//! Property-based tests: the compressed bitmap against a `BTreeSet` model,
//! graph navigation against an adjacency-list model, and the shortest path
//! against a BFS-distance model.

use std::collections::BTreeSet;

use bitgraph::graph::{DataType, EdgesDirection, Graph, GraphConfig};
use bitgraph::traversal::single_pair_shortest_path_bfs;
use bitgraph::Bitmap;
use micrograph_common::Value;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum BmOp {
    Insert(u64),
    Remove(u64),
    Optimize,
}

fn bm_ops() -> impl Strategy<Value = Vec<BmOp>> {
    // Values concentrated in two chunks plus outliers, so container
    // conversions actually happen.
    let value = prop_oneof![
        0u64..200_000,
        Just(u64::MAX - 1),
        (0u64..100).prop_map(|x| x + (1 << 40)),
    ];
    prop::collection::vec(
        prop_oneof![
            8 => value.clone().prop_map(BmOp::Insert),
            4 => value.prop_map(BmOp::Remove),
            1 => Just(BmOp::Optimize),
        ],
        0..2000,
    )
}

/// Values per bitmap chunk (the container's low 16 bits).
const CHUNK: u64 = 1 << 16;

/// A set over five chunks holding every container kind: sparse values (an
/// array), a strided block of more than 4,096 values in one chunk (a
/// bitset, also once optimized), a consecutive range that may cross a
/// chunk boundary (a run once optimized) and values at `k·65,536 ± 1`.
fn dense_set() -> impl Strategy<Value = BTreeSet<u64>> {
    (
        prop::collection::btree_set(0u64..5 * CHUNK, 0..300),
        (0u64..4, 0u64..30_000, 2u64..4, 4_097u64..7_000),
        (0u64..5 * CHUNK, 1u64..20_000),
        prop::collection::vec((1u64..5, 0u64..3), 0..8),
    )
        .prop_map(
            |(sparse, (chunk, offset, stride, n), (start, len), edges)| {
                let mut s = sparse;
                s.extend((0..n).map(|i| chunk * CHUNK + offset + i * stride));
                s.extend(start..start + len);
                s.extend(edges.iter().map(|&(k, d)| k * CHUNK + d - 1));
                s
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bitmap == BTreeSet under arbitrary insert/remove interleavings.
    #[test]
    fn bitmap_matches_btreeset(ops in bm_ops()) {
        let mut bm = Bitmap::new();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for op in ops {
            match op {
                BmOp::Insert(x) => {
                    prop_assert_eq!(bm.insert(x), model.insert(x));
                }
                BmOp::Remove(x) => {
                    prop_assert_eq!(bm.remove(x), model.remove(&x));
                }
                BmOp::Optimize => bm.optimize(),
            }
        }
        prop_assert_eq!(bm.len(), model.len() as u64);
        prop_assert_eq!(bm.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
    }

    /// Construction, iteration order and set algebra agree with the model
    /// for every container kind on both sides, raw and run-optimized.
    #[test]
    fn bitmap_algebra_matches_model(a in dense_set(), b in dense_set()) {
        let raw = |s: &BTreeSet<u64>| {
            let sorted: Vec<u64> = s.iter().copied().collect();
            let bm = Bitmap::from_sorted(&sorted);
            (bm, sorted)
        };
        let ((ra, va), (rb, vb)) = (raw(&a), raw(&b));
        prop_assert_eq!(&ra, &Bitmap::from_iter(va.iter().copied()));
        prop_assert_eq!(&rb, &Bitmap::from_iter(vb.iter().copied()));
        let optimized = |bm: &Bitmap| {
            let mut o = bm.clone();
            o.optimize();
            o
        };
        let (oa, ob) = (optimized(&ra), optimized(&rb));
        for (bm, model) in [(&ra, &va), (&oa, &va), (&rb, &vb), (&ob, &vb)] {
            prop_assert_eq!(bm.len(), model.len() as u64);
            prop_assert_eq!(&bm.iter().collect::<Vec<_>>(), model);
        }
        let and: Vec<u64> = a.intersection(&b).copied().collect();
        let or: Vec<u64> = a.union(&b).copied().collect();
        let a_not_b: Vec<u64> = a.difference(&b).copied().collect();
        let b_not_a: Vec<u64> = b.difference(&a).copied().collect();
        for (x, y) in [(&ra, &rb), (&oa, &ob), (&oa, &rb), (&ra, &ob)] {
            for (got, want) in [
                (x.and(y), &and),
                (y.and(x), &and),
                (x.or(y), &or),
                (y.or(x), &or),
                (x.and_not(y), &a_not_b),
                (y.and_not(x), &b_not_a),
            ] {
                prop_assert_eq!(got.len(), want.len() as u64);
                prop_assert_eq!(&got.iter().collect::<Vec<_>>(), want);
            }
        }
    }

    /// `single_pair_shortest_path_bfs` agrees with a BFS-distance model on
    /// random multigraphs (self-loops, parallel edges, a decoy edge type),
    /// in every direction and for hop bounds 0..=5, and returns a valid
    /// path: from `from` to `to`, no repeated node, every step an edge.
    #[test]
    fn shortest_path_matches_model(
        nodes in 1usize..12,
        edges in prop::collection::vec((0usize..12, 0usize..12, 1usize..3), 0..30),
        decoys in prop::collection::vec((0usize..12, 0usize..12), 0..12),
        dir in 0usize..3,
        max_hops in 0u32..=5,
    ) {
        let dir = [EdgesDirection::Outgoing, EdgesDirection::Ingoing, EdgesDirection::Any][dir];
        let mut g = Graph::new(GraphConfig::default());
        let user = g.new_node_type("user").unwrap();
        let follows = g.new_edge_type("follows").unwrap();
        let decoy = g.new_edge_type("decoy").unwrap();
        // 63 padding nodes after each user put every user in its own
        // 64-oid word of the search's visited bitset.
        let pad = g.new_node_type("pad").unwrap();
        let oids: Vec<u64> = (0..nodes)
            .map(|_| {
                let o = g.add_node(user).unwrap();
                for _ in 0..63 {
                    g.add_node(pad).unwrap();
                }
                o
            })
            .collect();
        let mut model: Vec<(usize, usize)> = Vec::new();
        for &(s, d, copies) in &edges {
            for _ in 0..copies {
                g.add_edge(follows, oids[s % nodes], oids[d % nodes]).unwrap();
            }
            model.push((s % nodes, d % nodes));
        }
        for &(s, d) in &decoys {
            g.add_edge(decoy, oids[s % nodes], oids[d % nodes]).unwrap();
        }
        let step = |a: usize, b: usize| {
            model.iter().any(|&(s, d)| match dir {
                EdgesDirection::Outgoing => (s, d) == (a, b),
                EdgesDirection::Ingoing => (s, d) == (b, a),
                EdgesDirection::Any => (s, d) == (a, b) || (s, d) == (b, a),
            })
        };
        let index = |oid: u64| oids.iter().position(|&o| o == oid).unwrap();
        for from in 0..nodes {
            // BFS distances over the model's adjacency.
            let mut dist = vec![None; nodes];
            dist[from] = Some(0u32);
            let mut queue = std::collections::VecDeque::from([from]);
            while let Some(a) = queue.pop_front() {
                for b in 0..nodes {
                    if dist[b].is_none() && step(a, b) {
                        dist[b] = Some(dist[a].unwrap() + 1);
                        queue.push_back(b);
                    }
                }
            }
            for to in 0..nodes {
                let got = single_pair_shortest_path_bfs(
                    &g, oids[from], oids[to], follows, dir, max_hops,
                ).unwrap();
                let want = dist[to].filter(|&d| d <= max_hops);
                prop_assert_eq!(
                    got.as_ref().map(|p| p.len() as u32 - 1), want,
                    "{} -> {} {:?} max_hops {}", from, to, dir, max_hops
                );
                let Some(path) = got else { continue };
                let path: Vec<usize> = path.into_iter().map(index).collect();
                prop_assert_eq!(path.first(), Some(&from));
                prop_assert_eq!(path.last(), Some(&to));
                prop_assert_eq!(path.iter().collect::<BTreeSet<_>>().len(), path.len());
                for w in path.windows(2) {
                    prop_assert!(step(w[0], w[1]), "{:?} is no {:?} edge", w, dir);
                }
            }
        }
    }

    /// Graph navigation agrees with an adjacency-list model, including
    /// neighbors-dedup vs explode-multiplicity semantics.
    #[test]
    fn navigation_matches_model(
        nodes in 2usize..15,
        edges in prop::collection::vec((0usize..15, 0usize..15), 0..80),
    ) {
        let mut g = Graph::new(GraphConfig::default());
        let user = g.new_node_type("user").unwrap();
        let uid = g.new_attribute(user, "uid", DataType::Integer, true).unwrap();
        let follows = g.new_edge_type("follows").unwrap();
        let oids: Vec<u64> = (0..nodes)
            .map(|i| {
                let o = g.add_node(user).unwrap();
                g.set_attr(o, uid, Value::Int(i as i64)).unwrap();
                o
            })
            .collect();
        let edges: Vec<(usize, usize)> =
            edges.into_iter().map(|(s, d)| (s % nodes, d % nodes)).collect();
        for &(s, d) in &edges {
            g.add_edge(follows, oids[s], oids[d]).unwrap();
        }
        for n in 0..nodes {
            // explode counts edge multiplicity; neighbors collapses.
            let out_edges = edges.iter().filter(|&&(s, _)| s == n).count() as u64;
            prop_assert_eq!(
                g.explode(oids[n], follows, EdgesDirection::Outgoing).unwrap().count(),
                out_edges
            );
            prop_assert_eq!(
                g.degree(oids[n], follows, EdgesDirection::Outgoing).unwrap(),
                out_edges
            );
            let out_set: BTreeSet<u64> = edges
                .iter()
                .filter(|&&(s, _)| s == n)
                .map(|&(_, d)| oids[d])
                .collect();
            let got: BTreeSet<u64> =
                g.neighbors(oids[n], follows, EdgesDirection::Outgoing).unwrap().iter().collect();
            prop_assert_eq!(got, out_set);

            let in_set: BTreeSet<u64> = edges
                .iter()
                .filter(|&&(_, d)| d == n)
                .map(|&(s, _)| oids[s])
                .collect();
            let got_in: BTreeSet<u64> =
                g.neighbors(oids[n], follows, EdgesDirection::Ingoing).unwrap().iter().collect();
            prop_assert_eq!(got_in, in_set);
            prop_assert_eq!(
                g.degree(oids[n], follows, EdgesDirection::Ingoing).unwrap(),
                edges.iter().filter(|&&(_, d)| d == n).count() as u64
            );

            let any_set: BTreeSet<u64> = edges
                .iter()
                .filter_map(|&(s, d)| {
                    if s == n { Some(oids[d]) } else if d == n { Some(oids[s]) } else { None }
                })
                .collect();
            let got_any: BTreeSet<u64> =
                g.neighbors(oids[n], follows, EdgesDirection::Any).unwrap().iter().collect();
            prop_assert_eq!(got_any, any_set);
        }
        // find_object resolves every uid.
        for (i, &o) in oids.iter().enumerate() {
            prop_assert_eq!(g.find_object(uid, &Value::Int(i as i64)).unwrap(), Some(o));
        }
    }
}
