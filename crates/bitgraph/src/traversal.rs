//! Native traversals: BFS/DFS contexts and `SinglePairShortestPathBFS`.
//!
//! The paper used "the native function SinglePairShortestPathBFS ... where
//! maximum length of the shortest path was set to 3 hops" for Q6.1. The
//! engine's primitive is a plain **unidirectional** BFS with a hop bound —
//! by design the less sophisticated of the two engines' path primitives
//! (Figure 4(g)/(h): "Neo4j seems to perform shortest path queries more
//! efficiently").
//!
//! Unidirectional is the algorithm; the bookkeeping is kept to what the
//! bitmaps cost. [`single_pair_shortest_path_bfs`] expands a frontier node
//! by walking its adjacency edge bitmaps in place (no per-node `Objects`),
//! marks visited nodes in one dense bitset over the oid space, and keeps
//! the levels as `(node, parent index)` pairs to read the path back, so a
//! discovered node costs a bit test and a push. Both buffers stay with the
//! thread between searches. Each expanded node still counts as one
//! `neighbors` call on [`GraphStats`](crate::graph::GraphStats).

use std::cell::RefCell;
use std::collections::VecDeque;

use crate::graph::{EdgesDirection, Graph, Oid};
use crate::objects::Objects;
use crate::Result;

/// Breadth-first traversal from a start node over one edge type, up to a
/// depth bound. Yields `(node, depth)` in BFS order (start at depth 0).
pub struct TraversalBfs<'g> {
    graph: &'g Graph,
    etype: u32,
    dir: EdgesDirection,
    max_depth: u32,
    queue: VecDeque<(Oid, u32)>,
    seen: Objects,
}

impl<'g> TraversalBfs<'g> {
    /// Creates a BFS traversal context.
    pub fn new(
        graph: &'g Graph,
        start: Oid,
        etype: u32,
        dir: EdgesDirection,
        max_depth: u32,
    ) -> Self {
        let mut seen = Objects::new();
        seen.add(start);
        TraversalBfs {
            graph,
            etype,
            dir,
            max_depth,
            queue: VecDeque::from([(start, 0)]),
            seen,
        }
    }
}

impl Iterator for TraversalBfs<'_> {
    type Item = Result<(Oid, u32)>;

    fn next(&mut self) -> Option<Self::Item> {
        let (node, depth) = self.queue.pop_front()?;
        if depth < self.max_depth {
            match self.graph.neighbors(node, self.etype, self.dir) {
                Ok(nb) => {
                    for n in nb.iter() {
                        if self.seen.add(n) {
                            self.queue.push_back((n, depth + 1));
                        }
                    }
                }
                Err(e) => return Some(Err(e)),
            }
        }
        Some(Ok((node, depth)))
    }
}

/// Depth-first traversal (pre-order), same parameters as [`TraversalBfs`].
pub struct TraversalDfs<'g> {
    graph: &'g Graph,
    etype: u32,
    dir: EdgesDirection,
    max_depth: u32,
    stack: Vec<(Oid, u32)>,
    seen: Objects,
}

impl<'g> TraversalDfs<'g> {
    /// Creates a DFS traversal context.
    pub fn new(
        graph: &'g Graph,
        start: Oid,
        etype: u32,
        dir: EdgesDirection,
        max_depth: u32,
    ) -> Self {
        let mut seen = Objects::new();
        seen.add(start);
        TraversalDfs {
            graph,
            etype,
            dir,
            max_depth,
            stack: vec![(start, 0)],
            seen,
        }
    }
}

impl Iterator for TraversalDfs<'_> {
    type Item = Result<(Oid, u32)>;

    fn next(&mut self) -> Option<Self::Item> {
        let (node, depth) = self.stack.pop()?;
        if depth < self.max_depth {
            match self.graph.neighbors(node, self.etype, self.dir) {
                Ok(nb) => {
                    for n in nb.iter() {
                        if self.seen.add(n) {
                            self.stack.push((n, depth + 1));
                        }
                    }
                }
                Err(e) => return Some(Err(e)),
            }
        }
        Some(Ok((node, depth)))
    }
}

/// Single-pair shortest path by unidirectional, level-synchronous BFS,
/// bounded by `max_hops`. Returns *a* shortest node sequence `from..=to`
/// (which one, when several tie, is unspecified) or `None`. Expands only
/// nodes closer to `from` than the path is long.
pub fn single_pair_shortest_path_bfs(
    graph: &Graph,
    from: Oid,
    to: Oid,
    etype: u32,
    dir: EdgesDirection,
    max_hops: u32,
) -> Result<Option<Vec<Oid>>> {
    if from == to {
        return Ok(Some(vec![from]));
    }
    let objects = graph.object_count();
    if from >= objects || to >= objects {
        return Ok(None); // an oid never assigned has no edges
    }
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        scratch.prepare(objects);
        let path = scratch.search(graph, from, to, etype, dir, max_hops);
        scratch.reset(to);
        path
    })
}

/// Per-thread buffers of [`single_pair_shortest_path_bfs`], kept between
/// searches: allocating and freeing a frontier of thousands of nodes on
/// every search churns the allocator's heap top (trims, then page faults)
/// and slows every other request the process serves.
struct Scratch {
    /// One bit per oid; all zero between searches.
    visited: Vec<u64>,
    /// Every node found so far as `(node, index of its parent)`, level by
    /// level, `from` first.
    found: Vec<(Oid, u32)>,
    /// False while a search runs, so one that unwound is cleaned up.
    clean: bool,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> =
        const { RefCell::new(Scratch { visited: Vec::new(), found: Vec::new(), clean: true }) };
}

impl Scratch {
    /// Zeroed bits for `objects` oids and no found nodes.
    fn prepare(&mut self, objects: u64) {
        if !self.clean {
            self.visited.fill(0);
            self.found.clear();
        }
        self.clean = false;
        let words = objects.div_ceil(64) as usize;
        if self.visited.len() < words {
            self.visited.resize(words, 0);
        }
    }

    /// Zeroes exactly the words the search set: those of every found node
    /// and of `to`.
    fn reset(&mut self, to: Oid) {
        for &(node, _) in &self.found {
            self.visited[(node >> 6) as usize] = 0;
        }
        self.visited[(to >> 6) as usize] = 0;
        self.found.clear();
        self.clean = true;
    }

    /// Marks `oid` visited; true when it was not yet.
    fn first_visit(&mut self, oid: Oid) -> bool {
        let (word, bit) = (&mut self.visited[(oid >> 6) as usize], 1u64 << (oid & 63));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// The level-synchronous search itself.
    fn search(
        &mut self,
        graph: &Graph,
        from: Oid,
        to: Oid,
        etype: u32,
        dir: EdgesDirection,
        max_hops: u32,
    ) -> Result<Option<Vec<Oid>>> {
        self.first_visit(from);
        self.found.push((from, 0));
        let mut level = 0..1;
        for _ in 0..max_hops {
            for parent in level.clone() {
                for peer in graph.peers(self.found[parent].0, etype, dir) {
                    let peer = peer?;
                    if !self.first_visit(peer) {
                        continue;
                    }
                    if peer == to {
                        return Ok(Some(path_back(&self.found, to, parent)));
                    }
                    self.found.push((peer, parent as u32));
                }
            }
            if self.found.len() == level.end {
                return Ok(None);
            }
            level = level.end..self.found.len();
        }
        Ok(None)
    }
}

/// `from..=to` for a `to` found from `found[parent]`.
fn path_back(found: &[(Oid, u32)], to: Oid, mut parent: usize) -> Vec<Oid> {
    let mut path = vec![to];
    loop {
        let (node, up) = found[parent];
        path.push(node);
        if parent == 0 {
            break;
        }
        parent = up as usize;
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphConfig;

    /// 0 -> 1 -> 2 -> 3 -> 4, plus 0 -> 2 and 4 -> 0.
    fn chain() -> (Graph, Vec<Oid>, u32) {
        let mut g = Graph::new(GraphConfig::default());
        let user = g.new_node_type("user").unwrap();
        let follows = g.new_edge_type("follows").unwrap();
        let n: Vec<Oid> = (0..5).map(|_| g.add_node(user).unwrap()).collect();
        for w in n.windows(2) {
            g.add_edge(follows, w[0], w[1]).unwrap();
        }
        g.add_edge(follows, n[0], n[2]).unwrap();
        g.add_edge(follows, n[4], n[0]).unwrap();
        (g, n, follows)
    }

    #[test]
    fn bfs_depth_order() {
        let (g, n, f) = chain();
        let visits: Vec<(Oid, u32)> = TraversalBfs::new(&g, n[0], f, EdgesDirection::Outgoing, 2)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(visits[0], (n[0], 0));
        let depth1: Vec<Oid> = visits.iter().filter(|v| v.1 == 1).map(|v| v.0).collect();
        assert_eq!(depth1.len(), 2);
        assert!(depth1.contains(&n[1]) && depth1.contains(&n[2]));
        let depth2: Vec<Oid> = visits.iter().filter(|v| v.1 == 2).map(|v| v.0).collect();
        assert_eq!(depth2, vec![n[3]], "n2 already seen at depth 1");
    }

    #[test]
    fn dfs_visits_same_set_as_bfs() {
        let (g, n, f) = chain();
        let mut bfs: Vec<Oid> = TraversalBfs::new(&g, n[0], f, EdgesDirection::Outgoing, 4)
            .map(|r| r.unwrap().0)
            .collect();
        let mut dfs: Vec<Oid> = TraversalDfs::new(&g, n[0], f, EdgesDirection::Outgoing, 4)
            .map(|r| r.unwrap().0)
            .collect();
        bfs.sort_unstable();
        dfs.sort_unstable();
        assert_eq!(bfs, dfs);
    }

    #[test]
    fn shortest_path_takes_shortcut() {
        let (g, n, f) = chain();
        let p = single_pair_shortest_path_bfs(&g, n[0], n[3], f, EdgesDirection::Outgoing, 5)
            .unwrap()
            .unwrap();
        assert_eq!(p, vec![n[0], n[2], n[3]], "the only 2-hop path");
        // Over `Any`, 0-2-3 and 0-4-3 tie: either is a valid answer.
        let p = single_pair_shortest_path_bfs(&g, n[0], n[3], f, EdgesDirection::Any, 5)
            .unwrap()
            .unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!((p[0], p[2]), (n[0], n[3]));
        assert!(p[1] == n[2] || p[1] == n[4], "{p:?}");
    }

    /// `SinglePairShortestPathBFS` stays unidirectional: a path of length
    /// `d` expands exactly the nodes within `d - 1` hops of `from`, however
    /// widely the target side fans out. The graph is
    /// `from -> a[0..10]`, `a[9] -> b[0..10]`, `b[9] -> c -> to`, so the
    /// level-synchronous search must expand `from`, every `a`, every `b`
    /// and `c` (22 nodes) in any order; a search that also expanded from
    /// `to` could skip most of them.
    #[test]
    fn shortest_path_expands_only_the_source_ball() {
        for fan in [0, 300] {
            let mut g = Graph::new(GraphConfig::default());
            let user = g.new_node_type("user").unwrap();
            let f = g.new_edge_type("follows").unwrap();
            let mut node = || g.add_node(user).unwrap();
            let (from, c, to) = (node(), node(), node());
            let a: Vec<Oid> = (0..10).map(|_| node()).collect();
            let b: Vec<Oid> = (0..10).map(|_| node()).collect();
            let wide: Vec<Oid> = (0..fan).map(|_| node()).collect();
            for &x in &a {
                g.add_edge(f, from, x).unwrap();
            }
            for &y in &b {
                g.add_edge(f, a[9], y).unwrap();
            }
            g.add_edge(f, b[9], c).unwrap();
            g.add_edge(f, c, to).unwrap();
            // The target side: `to` and `c` fan out both ways.
            for &w in &wide {
                g.add_edge(f, w, to).unwrap();
                g.add_edge(f, to, w).unwrap();
                g.add_edge(f, w, c).unwrap();
            }
            let before = g.stats().neighbors_calls;
            let p = single_pair_shortest_path_bfs(&g, from, to, f, EdgesDirection::Outgoing, 4)
                .unwrap()
                .unwrap();
            assert_eq!(p, vec![from, a[9], b[9], c, to]);
            let within_three_hops = 1 + a.len() + b.len() + 1;
            assert_eq!(
                g.stats().neighbors_calls - before,
                within_three_hops as u64,
                "fan {fan}"
            );
        }
    }

    #[test]
    fn shortest_path_hop_bound() {
        let (g, n, f) = chain();
        assert!(
            single_pair_shortest_path_bfs(&g, n[0], n[4], f, EdgesDirection::Outgoing, 2)
                .unwrap()
                .is_none()
        );
        assert!(
            single_pair_shortest_path_bfs(&g, n[0], n[4], f, EdgesDirection::Outgoing, 3)
                .unwrap()
                .is_some()
        );
    }

    #[test]
    fn shortest_path_identity_and_unreachable() {
        let (mut g, n, f) = chain();
        assert_eq!(
            single_pair_shortest_path_bfs(&g, n[1], n[1], f, EdgesDirection::Outgoing, 3).unwrap(),
            Some(vec![n[1]])
        );
        let user = g.find_type("user").unwrap();
        let lonely = g.add_node(user).unwrap();
        assert!(
            single_pair_shortest_path_bfs(&g, n[0], lonely, f, EdgesDirection::Any, 10)
                .unwrap()
                .is_none()
        );
    }
}
