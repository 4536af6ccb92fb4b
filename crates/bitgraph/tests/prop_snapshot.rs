//! Copy-on-write isolation of published generations.
//!
//! `Graph::snapshot_clone` shares every chunk of per-object data with the
//! canonical graph, and a later write un-shares only what it touches. Over
//! random streams of `add_node`, `add_edge` and `set_attr` (indexed values
//! overwritten often, so index entries move between value buckets), every
//! snapshot taken after a random prefix must still answer exactly as it did
//! when taken, and the canonical graph must answer like a fresh graph that
//! replayed the same stream without any snapshot or `compact`.

use bitgraph::graph::{Condition, DataType, EdgesDirection, Graph, GraphConfig, Oid};
use micrograph_common::Value;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// A node of type `user` (0) or `tweet` (1).
    AddNode(u8),
    /// An edge of type `follows` (0) or `mentions` (1) between two picked
    /// existing nodes.
    AddEdge(u8, u16, u16),
    /// Attribute `attr` of a picked node of the attribute's owner type.
    SetAttr(u8, u16, u8),
    Snapshot,
    /// `Graph::compact` (re-lays every structure out; answers unchanged).
    Compact,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0u8..2).prop_map(Op::AddNode),
            8 => (0u8..2, any::<u16>(), any::<u16>()).prop_map(|(t, s, d)| Op::AddEdge(t, s, d)),
            8 => (0u8..4, any::<u16>(), 0u8..24).prop_map(|(a, o, v)| Op::SetAttr(a, o, v)),
            1 => Just(Op::Snapshot),
            1 => Just(Op::Compact),
        ],
        0..900,
    )
}

/// Schema handles: node types, edge types, and `(attr, owner, indexed,
/// is_string)` per attribute.
struct Schema {
    nodes: [u32; 2],
    edges: [u32; 2],
    attrs: [(u32, u32, bool, bool); 4],
}

fn schema(g: &mut Graph) -> Schema {
    let user = g.new_node_type("user").unwrap();
    let tweet = g.new_node_type("tweet").unwrap();
    let follows = g.new_edge_type("follows").unwrap();
    let mentions = g.new_edge_type("mentions").unwrap();
    let uid = g
        .new_attribute(user, "uid", DataType::Integer, true)
        .unwrap();
    let followers = g
        .new_attribute(user, "followers", DataType::Integer, false)
        .unwrap();
    let tag = g
        .new_attribute(tweet, "tag", DataType::String, true)
        .unwrap();
    let text = g
        .new_attribute(tweet, "text", DataType::String, false)
        .unwrap();
    Schema {
        nodes: [user, tweet],
        edges: [follows, mentions],
        attrs: [
            (uid, user, true, false),
            (followers, user, false, false),
            (tag, tweet, true, true),
            (text, tweet, false, true),
        ],
    }
}

fn value(is_string: bool, v: u8) -> Value {
    if is_string {
        Value::Str(format!("v{v:02}"))
    } else {
        Value::Int(i64::from(v))
    }
}

fn ids(objects: bitgraph::Objects) -> Vec<Oid> {
    objects.iter().collect()
}

/// Replays `ops` into `g`; with `snapshots` set, also takes the snapshots
/// and compactions and returns the snapshots with their dumps.
fn replay(g: &mut Graph, s: &Schema, ops: &[Op], snapshots: bool) -> Vec<(Graph, String)> {
    let mut by_type: [Vec<Oid>; 2] = [Vec::new(), Vec::new()];
    let mut taken = Vec::new();
    for op in ops {
        match *op {
            Op::AddNode(t) => by_type[t as usize].push(g.add_node(s.nodes[t as usize]).unwrap()),
            Op::AddEdge(t, src, dst) => {
                let all: Vec<Oid> = by_type.concat();
                if !all.is_empty() {
                    let (a, b) = (all[src as usize % all.len()], all[dst as usize % all.len()]);
                    g.add_edge(s.edges[t as usize], a, b).unwrap();
                }
            }
            Op::SetAttr(a, o, v) => {
                let (attr, owner, _, is_string) = s.attrs[a as usize];
                let pool = &by_type[s.nodes.iter().position(|&n| n == owner).unwrap()];
                if !pool.is_empty() {
                    g.set_attr(pool[o as usize % pool.len()], attr, value(is_string, v))
                        .unwrap();
                }
            }
            Op::Snapshot => {
                if snapshots {
                    let snap = g.snapshot_clone();
                    let d = dump(&snap, s);
                    assert_eq!(
                        d,
                        dump(g, s),
                        "a fresh snapshot must answer like its source"
                    );
                    taken.push((snap, d));
                }
            }
            Op::Compact => {
                if snapshots {
                    g.compact();
                }
            }
        }
    }
    taken
}

/// Everything the public read API answers about `g`.
fn dump(g: &Graph, s: &Schema) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for &t in s.nodes.iter().chain(&s.edges) {
        writeln!(out, "type {t}: {:?}", ids(g.objects_of_type(t).unwrap())).unwrap();
    }
    let nodes: Vec<Oid> = s
        .nodes
        .iter()
        .flat_map(|&t| ids(g.objects_of_type(t).unwrap()))
        .collect();
    for &n in &nodes {
        for &e in &s.edges {
            for dir in [
                EdgesDirection::Outgoing,
                EdgesDirection::Ingoing,
                EdgesDirection::Any,
            ] {
                writeln!(
                    out,
                    "nav {n} {e} {dir:?}: {:?} {:?}",
                    ids(g.explode(n, e, dir).unwrap()),
                    ids(g.neighbors(n, e, dir).unwrap())
                )
                .unwrap();
            }
        }
    }
    for oid in 0..g.object_count() {
        for &(attr, ..) in &s.attrs {
            if let Some(v) = g.get_attr(oid, attr).unwrap() {
                writeln!(out, "attr {oid} {attr}: {v:?}").unwrap();
            }
        }
    }
    for &(attr, _, indexed, is_string) in &s.attrs {
        // Every value the stream can set (so every value seen) plus one
        // it never sets.
        for v in 0..=24u8 {
            let v = value(is_string, v);
            if indexed {
                writeln!(
                    out,
                    "find {attr} {v:?}: {:?}",
                    g.find_object(attr, &v).unwrap()
                )
                .unwrap();
            }
        }
        let pivot = value(is_string, 12);
        for cond in [
            Condition::Equal,
            Condition::NotEqual,
            Condition::GreaterThan,
            Condition::GreaterEqual,
            Condition::LessThan,
            Condition::LessEqual,
        ] {
            let sel = ids(g.select(attr, cond, &pivot).unwrap());
            writeln!(out, "select {attr} {cond:?}: {sel:?}").unwrap();
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Retained snapshots never see later writes, and publishing never
    /// changes what the canonical graph answers.
    #[test]
    fn snapshots_are_isolated_from_later_writes(ops in ops(), materialize in any::<bool>()) {
        let config = GraphConfig { materialize_neighbors: materialize, ..Default::default() };
        let mut g = Graph::new(config.clone());
        let s = schema(&mut g);
        let taken = replay(&mut g, &s, &ops, true);
        for (i, (snap, at_publish)) in taken.iter().enumerate() {
            prop_assert_eq!(&dump(snap, &s), at_publish, "snapshot {} saw later writes", i);
        }
        let mut fresh = Graph::new(config);
        let fs = schema(&mut fresh);
        replay(&mut fresh, &fs, &ops, false);
        prop_assert_eq!(dump(&g, &s), dump(&fresh, &fs));
    }
}
