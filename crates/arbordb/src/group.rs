//! Dense-node relationship groups.
//!
//! The paper observes that after importing nodes, the system spends time
//! "computing the dense nodes" before importing edges. The payoff of that
//! work: for a node with, say, two million `follows` edges and a handful of
//! `mentions` edges, a typed expansion should not walk the whole chain.
//!
//! Our batch importer physically orders every node's relationship chain by
//! `(type, direction)` and, for nodes whose degree exceeds the dense
//! threshold, records a **group entry**: the first edge of each
//! `(type, direction)` run and the run length. A typed traversal on a dense
//! node starts at the entry and stops after `count` edges.
//!
//! A node that got group entries is marked **grouped**: the importer writes
//! an entry for every non-empty `(type, direction)` run of it, so a run
//! without an entry is empty and costs nothing to walk.
//!
//! Transactional writes after import invalidate a node's groups (its chain
//! head insertion breaks the ordering); traversal then falls back to a full
//! chain scan with filtering.

use std::collections::HashMap;

use micrograph_common::{EdgeId, NodeId};
use parking_lot::RwLock;

/// Direction slot within a group key (outgoing = 0, incoming = 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupDir {
    /// The node is the source of the run's edges.
    Out = 0,
    /// The node is the target of the run's edges.
    In = 1,
}

/// A run of same-typed, same-direction edges in a node's chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupEntry {
    /// First edge of the run.
    pub first: EdgeId,
    /// Number of edges in the run.
    pub count: u64,
}

/// A grouped node's runs, as `(rel_type, dir, entry)`.
type Runs = Vec<(u32, GroupDir, GroupEntry)>;

/// The dense-node group directory: the runs of every grouped node, keyed
/// by node so an ungrouped node costs one lookup.
#[derive(Debug)]
pub struct DenseGroups {
    threshold: u32,
    map: RwLock<HashMap<NodeId, Runs>>,
}

impl GroupEntry {
    /// A run of no edges.
    pub const EMPTY: GroupEntry = GroupEntry {
        first: EdgeId::NONE,
        count: 0,
    };
}

impl DenseGroups {
    /// Creates a directory with the given dense-degree threshold.
    pub fn new(threshold: u32) -> Self {
        DenseGroups {
            threshold,
            map: RwLock::new(HashMap::new()),
        }
    }

    /// The degree above which a node is considered dense.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Registers (or replaces) the group entry for `(node, rel_type, dir)`;
    /// `node` is grouped from then on.
    pub fn insert(&self, node: NodeId, rel_type: u32, dir: GroupDir, entry: GroupEntry) {
        let mut map = self.map.write();
        let runs = map.entry(node).or_default();
        runs.retain(|&(t, d, _)| (t, d) != (rel_type, dir));
        runs.push((rel_type, dir, entry));
    }

    /// The `(rel_type, dir)` run of `node`: its entry, [`GroupEntry::EMPTY`]
    /// when `node` is grouped but has no such run, `None` when `node` is not
    /// grouped.
    pub fn get(&self, node: NodeId, rel_type: u32, dir: GroupDir) -> Option<GroupEntry> {
        let map = self.map.read();
        let runs = map.get(&node)?;
        let run = runs.iter().find(|&&(t, d, _)| (t, d) == (rel_type, dir));
        Some(run.map_or(GroupEntry::EMPTY, |&(_, _, entry)| entry))
    }

    /// Drops every group of `node`, which is then no longer grouped —
    /// called when a transactional write prepends to the node's chain,
    /// breaking the import-time ordering.
    pub fn invalidate(&self, node: NodeId) {
        self.map.write().remove(&node);
    }

    /// Number of group entries.
    pub fn len(&self) -> usize {
        self.map.read().values().map(Vec::len).sum()
    }

    /// True when no groups exist.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Dumps all entries for meta-file persistence.
    pub fn entries(&self) -> Vec<(NodeId, u32, GroupDir, GroupEntry)> {
        let map = self.map.read();
        map.iter()
            .flat_map(|(&n, runs)| runs.iter().map(move |&(t, d, e)| (n, t, d, e)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_invalidate() {
        let g = DenseGroups::new(50);
        assert_eq!(g.threshold(), 50);
        g.insert(
            NodeId(1),
            0,
            GroupDir::Out,
            GroupEntry {
                first: EdgeId(10),
                count: 100,
            },
        );
        g.insert(
            NodeId(1),
            1,
            GroupDir::In,
            GroupEntry {
                first: EdgeId(5),
                count: 3,
            },
        );
        g.insert(
            NodeId(2),
            0,
            GroupDir::Out,
            GroupEntry {
                first: EdgeId(7),
                count: 60,
            },
        );
        assert_eq!(
            g.get(NodeId(1), 0, GroupDir::Out),
            Some(GroupEntry {
                first: EdgeId(10),
                count: 100
            })
        );
        assert_eq!(
            g.get(NodeId(1), 0, GroupDir::In),
            Some(GroupEntry::EMPTY),
            "grouped, no run"
        );
        assert_eq!(g.get(NodeId(9), 0, GroupDir::Out), None, "not grouped");
        g.invalidate(NodeId(1));
        assert_eq!(g.get(NodeId(1), 0, GroupDir::Out), None);
        assert_eq!(
            g.get(NodeId(1), 0, GroupDir::In),
            None,
            "invalidate clears the mark"
        );
        assert_eq!(g.get(NodeId(1), 1, GroupDir::In), None);
        assert_eq!(g.get(NodeId(2), 0, GroupDir::Out).unwrap().count, 60);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn entries_roundtrip() {
        let g = DenseGroups::new(10);
        g.insert(
            NodeId(3),
            2,
            GroupDir::In,
            GroupEntry {
                first: EdgeId(1),
                count: 11,
            },
        );
        let entries = g.entries();
        assert_eq!(entries.len(), 1);
        let (n, t, d, e) = entries[0];
        assert_eq!((n, t, d), (NodeId(3), 2, GroupDir::In));
        assert_eq!(e.count, 11);
    }
}
