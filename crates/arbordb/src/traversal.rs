//! The traversal framework — arbordb's imperative "core API".
//!
//! Section 4 of the paper compares Cypher against Neo4j's traversal
//! framework: "all the queries can be alternatively written using the Java
//! API exploiting the traversal framework", observing "a slight improvement
//! in performance compared to the Cypher queries" at the cost of
//! expressiveness. This module is that alternative path: a builder
//! describing *how* to walk the graph, evaluated lazily.
//!
//! It also hosts [`shortest_path`], the engine's native single-pair
//! shortest-path (bidirectional BFS) used by Q6.1.

use std::collections::{HashMap, HashSet, VecDeque};

use micrograph_common::ids::Direction;
use micrograph_common::NodeId;

use crate::db::GraphDb;
use crate::Result;

/// Traversal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Breadth-first: visit all depth-d nodes before depth d+1.
    BreadthFirst,
    /// Depth-first: follow each branch to the depth bound before backtracking.
    DepthFirst,
}

/// Node uniqueness during a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uniqueness {
    /// Visit every node at most once (default; what adjacency queries want).
    NodeGlobal,
    /// No uniqueness: a node may be reached along every distinct path
    /// (multigraph-faithful; path counting).
    None,
}

/// What to do with a visited node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evaluation {
    /// Emit the node and continue expanding beneath it.
    IncludeAndContinue,
    /// Emit the node but do not expand beneath it.
    IncludeAndPrune,
    /// Skip the node but continue expanding.
    ExcludeAndContinue,
    /// Skip and prune.
    ExcludeAndPrune,
}

/// One step of expansion: which edges to follow from a node.
#[derive(Debug, Clone, Copy)]
pub struct Expander {
    /// Relationship type filter (`None` = all types).
    pub rel_type: Option<u32>,
    /// Direction to expand.
    pub dir: Direction,
}

/// A visited node with its BFS/DFS depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visit {
    /// The node.
    pub node: NodeId,
    /// Depth from the start node (start itself is depth 0).
    pub depth: u32,
}

/// An installed evaluator callback.
type Evaluator<'a> = Box<dyn FnMut(&GraphDb, Visit) -> Evaluation + 'a>;

/// Builder for a traversal description.
pub struct Traversal<'a> {
    db: &'a GraphDb,
    order: Order,
    uniqueness: Uniqueness,
    expander: Expander,
    min_depth: u32,
    max_depth: u32,
    evaluator: Option<Evaluator<'a>>,
}

impl<'a> Traversal<'a> {
    /// Starts describing a traversal over `db`.
    pub fn new(db: &'a GraphDb) -> Self {
        Traversal {
            db,
            order: Order::BreadthFirst,
            uniqueness: Uniqueness::NodeGlobal,
            expander: Expander {
                rel_type: None,
                dir: Direction::Both,
            },
            min_depth: 1,
            max_depth: 1,
            evaluator: None,
        }
    }

    /// Sets the traversal order.
    pub fn order(mut self, order: Order) -> Self {
        self.order = order;
        self
    }

    /// Sets node uniqueness.
    pub fn uniqueness(mut self, u: Uniqueness) -> Self {
        self.uniqueness = u;
        self
    }

    /// Sets the expansion rule (type and direction).
    pub fn expand(mut self, rel_type: Option<u32>, dir: Direction) -> Self {
        self.expander = Expander { rel_type, dir };
        self
    }

    /// Sets the depth window `[min, max]` of emitted nodes.
    pub fn depths(mut self, min: u32, max: u32) -> Self {
        assert!(min <= max, "min depth must not exceed max depth");
        self.min_depth = min;
        self.max_depth = max;
        self
    }

    /// Installs a custom evaluator (runs after the depth window check).
    pub fn evaluator(mut self, f: impl FnMut(&GraphDb, Visit) -> Evaluation + 'a) -> Self {
        self.evaluator = Some(Box::new(f));
        self
    }

    /// Runs the traversal from `start`, collecting emitted visits.
    pub fn traverse(mut self, start: NodeId) -> Result<Vec<Visit>> {
        let mut out = Vec::new();
        let mut seen: HashSet<NodeId> = HashSet::new();
        seen.insert(start);
        // (node, depth); VecDeque front-pop for BFS, back-pop for DFS.
        let mut frontier: VecDeque<Visit> = VecDeque::new();
        frontier.push_back(Visit {
            node: start,
            depth: 0,
        });

        while let Some(visit) = match self.order {
            Order::BreadthFirst => frontier.pop_front(),
            Order::DepthFirst => frontier.pop_back(),
        } {
            let in_window = visit.depth >= self.min_depth && visit.depth <= self.max_depth;
            let eval = if in_window {
                match &mut self.evaluator {
                    Some(f) => f(self.db, visit),
                    None => Evaluation::IncludeAndContinue,
                }
            } else if visit.depth < self.min_depth {
                Evaluation::ExcludeAndContinue
            } else {
                Evaluation::ExcludeAndPrune
            };

            match eval {
                Evaluation::IncludeAndContinue | Evaluation::IncludeAndPrune => {
                    out.push(visit);
                }
                _ => {}
            }
            let prune = matches!(
                eval,
                Evaluation::IncludeAndPrune | Evaluation::ExcludeAndPrune
            ) || visit.depth >= self.max_depth;
            if prune {
                continue;
            }

            for next in self
                .db
                .neighbors(visit.node, self.expander.rel_type, self.expander.dir)
            {
                let next = next?;
                if self.uniqueness == Uniqueness::NodeGlobal && !seen.insert(next) {
                    continue;
                }
                frontier.push_back(Visit {
                    node: next,
                    depth: visit.depth + 1,
                });
            }
        }
        Ok(out)
    }
}

/// Single-pair shortest path by **bidirectional BFS** over `rel_type` edges.
///
/// `dir` is the direction as seen from `from` (the reverse frontier expands
/// opposite). Returns the node sequence `from..=to`, or `None` when no path
/// of length ≤ `max_hops` exists.
pub fn shortest_path(
    db: &GraphDb,
    from: NodeId,
    to: NodeId,
    rel_type: Option<u32>,
    dir: Direction,
    max_hops: u32,
) -> Result<Option<Vec<NodeId>>> {
    if from == to {
        return Ok(Some(vec![from]));
    }
    // Per-side (depth, parent) maps; insertion depth is the BFS-minimal
    // distance from that side's source.
    let mut fwd: HashMap<NodeId, (u32, NodeId)> = HashMap::new();
    let mut bwd: HashMap<NodeId, (u32, NodeId)> = HashMap::new();
    fwd.insert(from, (0, from));
    bwd.insert(to, (0, to));
    let mut fwd_frontier = vec![from];
    let mut bwd_frontier = vec![to];
    let mut fwd_depth = 0u32;
    let mut bwd_depth = 0u32;
    let mut best: Option<(u32, NodeId)> = None; // (total length, meet node)

    loop {
        // A found meeting of length L is optimal once no shorter meeting can
        // appear: any future meet costs at least fwd_depth + bwd_depth + 1.
        if let Some((len, _)) = best {
            if len <= fwd_depth + bwd_depth + 1 {
                break;
            }
        }
        if fwd_depth + bwd_depth >= max_hops || fwd_frontier.is_empty() || bwd_frontier.is_empty() {
            break;
        }
        // Expand the smaller frontier one full level.
        let expand_fwd = fwd_frontier.len() <= bwd_frontier.len();
        let (frontier, mine, other, d, my_depth) = if expand_fwd {
            (&mut fwd_frontier, &mut fwd, &bwd, dir, fwd_depth + 1)
        } else {
            (
                &mut bwd_frontier,
                &mut bwd,
                &fwd,
                dir.reverse(),
                bwd_depth + 1,
            )
        };
        let mut next_frontier = Vec::new();
        for &n in frontier.iter() {
            for nb in db.neighbors(n, rel_type, d) {
                let nb = nb?;
                if mine.contains_key(&nb) {
                    continue;
                }
                mine.insert(nb, (my_depth, n));
                if let Some(&(od, _)) = other.get(&nb) {
                    let total = my_depth + od;
                    if best.is_none_or(|(b, _)| total < b) {
                        best = Some((total, nb));
                    }
                }
                next_frontier.push(nb);
            }
        }
        *frontier = next_frontier;
        if expand_fwd {
            fwd_depth += 1;
        } else {
            bwd_depth += 1;
        }
    }

    let Some((len, meet)) = best else {
        return Ok(None);
    };
    if len > max_hops {
        return Ok(None);
    }
    // Stitch the two half-paths at the meeting node.
    let mut path = Vec::new();
    let mut at = meet;
    while at != from {
        path.push(at);
        at = fwd[&at].1;
    }
    path.push(from);
    path.reverse();
    let mut at = meet;
    while at != to {
        let next = bwd[&at].1;
        path.push(next);
        at = next;
    }
    debug_assert_eq!(path.len() as u32 - 1, len, "stitched path length mismatch");
    Ok(Some(path))
}

/// Plain unidirectional BFS shortest-path — the reference implementation
/// used by tests, and by design the slower of the two (Figure 4(g)/(h)
/// shows the engine with the better path primitive winning).
pub fn shortest_path_unidirectional(
    db: &GraphDb,
    from: NodeId,
    to: NodeId,
    rel_type: Option<u32>,
    dir: Direction,
    max_hops: u32,
) -> Result<Option<Vec<NodeId>>> {
    if from == to {
        return Ok(Some(vec![from]));
    }
    let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
    parent.insert(from, from);
    let mut frontier = vec![from];
    for _ in 0..max_hops {
        let mut next_frontier = Vec::new();
        for &n in &frontier {
            for nb in db.neighbors(n, rel_type, dir) {
                let nb = nb?;
                if parent.contains_key(&nb) {
                    continue;
                }
                parent.insert(nb, n);
                if nb == to {
                    let mut path = vec![to];
                    let mut at = to;
                    while at != from {
                        at = parent[&at];
                        path.push(at);
                    }
                    path.reverse();
                    return Ok(Some(path));
                }
                next_frontier.push(nb);
            }
        }
        if next_frontier.is_empty() {
            return Ok(None);
        }
        frontier = next_frontier;
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{DbConfig, GraphDb};

    /// Builds a small follows graph:
    ///
    /// ```text
    /// 0 -> 1 -> 2 -> 3 -> 4
    /// 0 -> 2        (shortcut)
    /// 4 -> 0        (cycle back)
    /// ```
    fn chain_db() -> (GraphDb, Vec<NodeId>, u32) {
        let db = GraphDb::open_memory(DbConfig {
            page_cache_pages: 256,
            dense_node_threshold: 1000,
        })
        .unwrap();
        let mut tx = db.begin_write().unwrap();
        let nodes: Vec<NodeId> = (0..5)
            .map(|_| tx.create_node("user", &[]).unwrap())
            .collect();
        for w in nodes.windows(2) {
            tx.create_rel(w[0], w[1], "follows", &[]).unwrap();
        }
        tx.create_rel(nodes[0], nodes[2], "follows", &[]).unwrap();
        tx.create_rel(nodes[4], nodes[0], "follows", &[]).unwrap();
        tx.commit().unwrap();
        let t = db.rel_type_id("follows").unwrap();
        (db, nodes, t)
    }

    #[test]
    fn bfs_one_step() {
        let (db, n, t) = chain_db();
        let visits = Traversal::new(&db)
            .expand(Some(t), Direction::Outgoing)
            .depths(1, 1)
            .traverse(n[0])
            .unwrap();
        let got: Vec<NodeId> = visits.iter().map(|v| v.node).collect();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&n[1]) && got.contains(&n[2]));
        assert!(visits.iter().all(|v| v.depth == 1));
    }

    #[test]
    fn bfs_two_step_window() {
        let (db, n, t) = chain_db();
        let visits = Traversal::new(&db)
            .expand(Some(t), Direction::Outgoing)
            .depths(2, 2)
            .traverse(n[0])
            .unwrap();
        let got: Vec<NodeId> = visits.iter().map(|v| v.node).collect();
        // Depth-2 via BFS with global uniqueness: n2 is depth 1 (shortcut),
        // so depth-2 nodes are n3 only (n2->n3).
        assert_eq!(got, vec![n[3]]);
    }

    #[test]
    fn dfs_vs_bfs_visit_same_set() {
        let (db, n, t) = chain_db();
        let bfs = Traversal::new(&db)
            .order(Order::BreadthFirst)
            .expand(Some(t), Direction::Outgoing)
            .depths(1, 3)
            .traverse(n[0])
            .unwrap();
        let dfs = Traversal::new(&db)
            .order(Order::DepthFirst)
            .expand(Some(t), Direction::Outgoing)
            .depths(1, 3)
            .traverse(n[0])
            .unwrap();
        let mut b: Vec<NodeId> = bfs.iter().map(|v| v.node).collect();
        let mut d: Vec<NodeId> = dfs.iter().map(|v| v.node).collect();
        b.sort();
        d.sort();
        assert_eq!(b, d, "order changes sequence, not membership");
    }

    #[test]
    fn evaluator_prunes() {
        let (db, n, t) = chain_db();
        // Prune at n2: nothing beneath it is reached (n3 only via n2 at depth 2).
        let n2 = n[2];
        let visits = Traversal::new(&db)
            .expand(Some(t), Direction::Outgoing)
            .depths(1, 4)
            .evaluator(move |_, v| {
                if v.node == n2 {
                    Evaluation::ExcludeAndPrune
                } else {
                    Evaluation::IncludeAndContinue
                }
            })
            .traverse(n[0])
            .unwrap();
        let got: Vec<NodeId> = visits.iter().map(|v| v.node).collect();
        assert!(got.contains(&n[1]));
        assert!(!got.contains(&n[2]));
        assert!(!got.contains(&n[3]), "pruned subtree must not be visited");
    }

    #[test]
    fn shortest_path_direct() {
        let (db, n, t) = chain_db();
        let p = shortest_path(&db, n[0], n[3], Some(t), Direction::Outgoing, 5)
            .unwrap()
            .expect("path exists");
        assert_eq!(p, vec![n[0], n[2], n[3]], "shortcut beats long chain");
    }

    #[test]
    fn shortest_path_respects_max_hops() {
        let (db, n, t) = chain_db();
        assert!(
            shortest_path(&db, n[0], n[4], Some(t), Direction::Outgoing, 2)
                .unwrap()
                .is_none()
        );
        assert!(
            shortest_path(&db, n[0], n[4], Some(t), Direction::Outgoing, 3)
                .unwrap()
                .is_some()
        );
    }

    #[test]
    fn shortest_path_same_node() {
        let (db, n, t) = chain_db();
        assert_eq!(
            shortest_path(&db, n[1], n[1], Some(t), Direction::Both, 3).unwrap(),
            Some(vec![n[1]])
        );
    }

    #[test]
    fn shortest_path_no_route() {
        let db = GraphDb::open_memory(DbConfig::default()).unwrap();
        let mut tx = db.begin_write().unwrap();
        let a = tx.create_node("user", &[]).unwrap();
        let b = tx.create_node("user", &[]).unwrap();
        tx.commit().unwrap();
        assert!(shortest_path(&db, a, b, None, Direction::Both, 10)
            .unwrap()
            .is_none());
    }

    #[test]
    fn bidirectional_matches_unidirectional_length() {
        let (db, n, t) = chain_db();
        for (from, to) in [(n[0], n[4]), (n[1], n[0]), (n[3], n[1])] {
            let bi = shortest_path(&db, from, to, Some(t), Direction::Outgoing, 6).unwrap();
            let uni = shortest_path_unidirectional(&db, from, to, Some(t), Direction::Outgoing, 6)
                .unwrap();
            assert_eq!(
                bi.as_ref().map(|p| p.len()),
                uni.as_ref().map(|p| p.len()),
                "path lengths must agree for {from}->{to}"
            );
        }
    }

    #[test]
    fn directionality_matters() {
        let (db, n, t) = chain_db();
        // Incoming from n1's point of view: only n0.
        let p = shortest_path(&db, n[1], n[0], Some(t), Direction::Incoming, 3)
            .unwrap()
            .expect("reverse edge path");
        assert_eq!(p, vec![n[1], n[0]]);
    }
}
