//! Incrementally-maintained cardinality statistics for the cost-based
//! ArborQL planner (DESIGN.md §4g).
//!
//! Three families of counters, all updated transactionally (buffered in the
//! write transaction and applied at commit, exactly like index updates, so
//! an abort never skews them) and rebuilt by a single store scan at open or
//! after a bulk import:
//!
//! - per-label live node counts,
//! - per-relationship-type live edge counts,
//! - per-`(type, direction)` degree histograms in log2 buckets, from which
//!   the participant count (nodes with ≥ 1 edge of that type/direction)
//!   and the average fan-out fall out.
//!
//! The planner reads these to choose anchors and expansion directions.
//! **Statistics may never shape answer bytes** — a stale or empty snapshot
//! must only ever produce a slower plan, never a different result. That is
//! why every accessor returns plain counts with graceful zero-defaults and
//! no accessor can fail.

use std::collections::HashMap;

use micrograph_common::ids::Direction;
use micrograph_common::{LabelId, NodeId};
use parking_lot::RwLock;

/// Number of log2 degree buckets: bucket `b` holds nodes whose degree `d`
/// satisfies `2^(b-1) <= d < 2^b` (bucket 0 is unused — degree-0 nodes are
/// simply not participants).
pub const DEGREE_BUCKETS: usize = 33;

/// Log2 bucket of a (non-zero) degree.
fn bucket(degree: u32) -> usize {
    (u32::BITS - degree.leading_zeros()) as usize
}

/// Per-relationship-type statistics snapshot.
#[derive(Debug, Clone)]
pub struct RelTypeStats {
    /// Live edges of this type.
    pub edges: u64,
    /// Out-degree histogram over source nodes (log2 buckets).
    pub out_hist: [u64; DEGREE_BUCKETS],
    /// In-degree histogram over target nodes (log2 buckets).
    pub in_hist: [u64; DEGREE_BUCKETS],
}

impl Default for RelTypeStats {
    fn default() -> Self {
        RelTypeStats {
            edges: 0,
            out_hist: [0; DEGREE_BUCKETS],
            in_hist: [0; DEGREE_BUCKETS],
        }
    }
}

impl RelTypeStats {
    fn hist(&self, dir: Direction) -> &[u64; DEGREE_BUCKETS] {
        match dir {
            Direction::Outgoing => &self.out_hist,
            // `Both` is answered by the caller summing both directions.
            Direction::Incoming | Direction::Both => &self.in_hist,
        }
    }

    /// Nodes with at least one edge of this type in `dir`
    /// (`Both` is not meaningful here; it reads the in-side).
    pub fn participants(&self, dir: Direction) -> u64 {
        self.hist(dir).iter().sum()
    }

    /// Mean fan-out among participants in `dir`; 0 when no edges exist.
    pub fn avg_degree(&self, dir: Direction) -> f64 {
        if let Direction::Both = dir {
            return self.avg_degree(Direction::Outgoing) + self.avg_degree(Direction::Incoming);
        }
        let p = self.participants(dir);
        if p == 0 {
            0.0
        } else {
            self.edges as f64 / p as f64
        }
    }
}

#[derive(Debug, Default)]
struct StatsInner {
    /// Live node count per label id.
    node_counts: Vec<u64>,
    /// Per-relationship-type counters, indexed by type id.
    rel: Vec<RelTypeStats>,
    /// Typed degrees per `(node, type)` — the working state that lets an
    /// incremental edge add/remove move a node between histogram buckets.
    /// Bounded by the number of (node, type) participations, i.e. ≤ edges.
    deg: HashMap<(u64, u32), (u32, u32)>,
}

impl StatsInner {
    fn rel_mut(&mut self, t: u32) -> &mut RelTypeStats {
        let idx = t as usize;
        if self.rel.len() <= idx {
            self.rel.resize_with(idx + 1, RelTypeStats::default);
        }
        &mut self.rel[idx]
    }
}

/// The database-wide statistics registry. All methods are lock-cheap reads
/// or single-writer updates; see the module docs for the maintenance rules.
#[derive(Debug, Default)]
pub struct GraphStatistics {
    inner: RwLock<StatsInner>,
}

impl GraphStatistics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets everything (start of a rebuild).
    pub fn clear(&self) {
        *self.inner.write() = StatsInner::default();
    }

    /// Records a node created with `label`.
    pub fn note_node_added(&self, label: LabelId) {
        let mut w = self.inner.write();
        let idx = label.index();
        if w.node_counts.len() <= idx {
            w.node_counts.resize(idx + 1, 0);
        }
        w.node_counts[idx] += 1;
    }

    /// Records a node with `label` deleted.
    pub fn note_node_removed(&self, label: LabelId) {
        let mut w = self.inner.write();
        if let Some(c) = w.node_counts.get_mut(label.index()) {
            *c = c.saturating_sub(1);
        }
    }

    /// Records a `src -[t]-> dst` edge created.
    pub fn note_edge_added(&self, src: NodeId, dst: NodeId, t: u32) {
        let mut w = self.inner.write();
        w.rel_mut(t).edges += 1;
        let old_out = {
            let e = w.deg.entry((src.raw(), t)).or_default();
            let old = e.0;
            e.0 += 1;
            old
        };
        let r = w.rel_mut(t);
        if old_out > 0 {
            r.out_hist[bucket(old_out)] -= 1;
        }
        r.out_hist[bucket(old_out + 1)] += 1;
        let old_in = {
            let e = w.deg.entry((dst.raw(), t)).or_default();
            let old = e.1;
            e.1 += 1;
            old
        };
        let r = w.rel_mut(t);
        if old_in > 0 {
            r.in_hist[bucket(old_in)] -= 1;
        }
        r.in_hist[bucket(old_in + 1)] += 1;
    }

    /// Records a `src -[t]-> dst` edge deleted.
    pub fn note_edge_removed(&self, src: NodeId, dst: NodeId, t: u32) {
        let mut w = self.inner.write();
        {
            let r = w.rel_mut(t);
            r.edges = r.edges.saturating_sub(1);
        }
        let old_out = {
            let e = w.deg.entry((src.raw(), t)).or_default();
            let old = e.0;
            e.0 = e.0.saturating_sub(1);
            old
        };
        if old_out > 0 {
            let r = w.rel_mut(t);
            r.out_hist[bucket(old_out)] -= 1;
            if old_out > 1 {
                r.out_hist[bucket(old_out - 1)] += 1;
            }
        }
        let old_in = {
            let e = w.deg.entry((dst.raw(), t)).or_default();
            let old = e.1;
            e.1 = e.1.saturating_sub(1);
            old
        };
        if old_in > 0 {
            let r = w.rel_mut(t);
            r.in_hist[bucket(old_in)] -= 1;
            if old_in > 1 {
                r.in_hist[bucket(old_in - 1)] += 1;
            }
        }
        // Drop fully-disconnected working entries so memory tracks liveness.
        let sk = (src.raw(), t);
        if w.deg.get(&sk) == Some(&(0, 0)) {
            w.deg.remove(&sk);
        }
        let dk = (dst.raw(), t);
        if w.deg.get(&dk) == Some(&(0, 0)) {
            w.deg.remove(&dk);
        }
    }

    /// Live nodes with `label` (0 when unseen).
    pub fn node_count(&self, label: LabelId) -> u64 {
        self.inner
            .read()
            .node_counts
            .get(label.index())
            .copied()
            .unwrap_or(0)
    }

    /// Live nodes summed over all labels.
    pub fn total_nodes(&self) -> u64 {
        self.inner.read().node_counts.iter().sum()
    }

    /// Live edges of type `t` (0 when unseen).
    pub fn edge_count(&self, t: u32) -> u64 {
        self.inner.read().rel.get(t as usize).map_or(0, |r| r.edges)
    }

    /// Live edges summed over all types.
    pub fn total_edges(&self) -> u64 {
        self.inner.read().rel.iter().map(|r| r.edges).sum()
    }

    /// Snapshot of the per-type counters, `None` when the type is unseen.
    pub fn rel_type_stats(&self, t: u32) -> Option<RelTypeStats> {
        self.inner.read().rel.get(t as usize).cloned()
    }

    /// Nodes with ≥ 1 edge of type `t` in `dir` (`Both` reads the in-side).
    pub fn participants(&self, t: u32, dir: Direction) -> u64 {
        self.inner
            .read()
            .rel
            .get(t as usize)
            .map_or(0, |r| r.participants(dir))
    }

    /// Mean fan-out of a `t`-typed expansion in `dir` among participating
    /// nodes; `Both` sums both directions; 0 when no such edges exist.
    pub fn avg_degree(&self, t: u32, dir: Direction) -> f64 {
        self.inner
            .read()
            .rel
            .get(t as usize)
            .map_or(0.0, |r| r.avg_degree(dir))
    }

    /// Mean untyped fan-out per node over the whole graph (both directions
    /// count one edge each way); 0 on an empty graph.
    pub fn avg_degree_untyped(&self, dir: Direction) -> f64 {
        let r = self.inner.read();
        let nodes: u64 = r.node_counts.iter().sum();
        if nodes == 0 {
            return 0.0;
        }
        let edges: u64 = r.rel.iter().map(|s| s.edges).sum();
        let per_dir = edges as f64 / nodes as f64;
        match dir {
            Direction::Both => 2.0 * per_dir,
            _ => per_dir,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(1023), 10);
        assert_eq!(bucket(1024), 11);
        assert_eq!(bucket(u32::MAX), 32);
    }

    #[test]
    fn edge_add_remove_roundtrip() {
        let s = GraphStatistics::new();
        let (a, b, c) = (NodeId(1), NodeId(2), NodeId(3));
        s.note_edge_added(a, b, 0);
        s.note_edge_added(a, c, 0);
        s.note_edge_added(b, c, 0);
        assert_eq!(s.edge_count(0), 3);
        assert_eq!(s.participants(0, Direction::Outgoing), 2); // a, b
        assert_eq!(s.participants(0, Direction::Incoming), 2); // b, c
        assert!((s.avg_degree(0, Direction::Outgoing) - 1.5).abs() < 1e-9);
        assert!((s.avg_degree(0, Direction::Both) - 3.0).abs() < 1e-9);

        s.note_edge_removed(a, c, 0);
        s.note_edge_removed(a, b, 0);
        s.note_edge_removed(b, c, 0);
        assert_eq!(s.edge_count(0), 0);
        assert_eq!(s.participants(0, Direction::Outgoing), 0);
        assert_eq!(s.participants(0, Direction::Incoming), 0);
        assert_eq!(s.avg_degree(0, Direction::Outgoing), 0.0);
        assert!(s.inner.read().deg.is_empty(), "working map must drain");
    }

    #[test]
    fn histograms_move_between_buckets() {
        let s = GraphStatistics::new();
        let hub = NodeId(7);
        for i in 0..5u64 {
            s.note_edge_added(hub, NodeId(100 + i), 1);
        }
        let r = s.rel_type_stats(1).unwrap();
        assert_eq!(r.out_hist.iter().sum::<u64>(), 1, "one out-participant");
        assert_eq!(r.out_hist[bucket(5)], 1, "hub sits in the degree-5 bucket");
        assert_eq!(r.in_hist[bucket(1)], 5, "five degree-1 targets");
        assert_eq!(s.avg_degree(1, Direction::Outgoing), 5.0);
        assert_eq!(s.avg_degree(1, Direction::Incoming), 1.0);
    }

    #[test]
    fn self_loops_count_both_directions() {
        let s = GraphStatistics::new();
        s.note_edge_added(NodeId(4), NodeId(4), 2);
        assert_eq!(s.edge_count(2), 1);
        assert_eq!(s.participants(2, Direction::Outgoing), 1);
        assert_eq!(s.participants(2, Direction::Incoming), 1);
        s.note_edge_removed(NodeId(4), NodeId(4), 2);
        assert_eq!(s.participants(2, Direction::Outgoing), 0);
        assert_eq!(s.participants(2, Direction::Incoming), 0);
    }

    #[test]
    fn node_counts_by_label() {
        let s = GraphStatistics::new();
        s.note_node_added(LabelId(0));
        s.note_node_added(LabelId(0));
        s.note_node_added(LabelId(2));
        assert_eq!(s.node_count(LabelId(0)), 2);
        assert_eq!(s.node_count(LabelId(1)), 0);
        assert_eq!(s.node_count(LabelId(2)), 1);
        assert_eq!(s.total_nodes(), 3);
        s.note_node_removed(LabelId(0));
        assert_eq!(s.node_count(LabelId(0)), 1);
        s.note_node_removed(LabelId(9)); // unseen label: no-op
    }
}
