//! On-disk record layouts.
//!
//! All stores use fixed-size records so a record id maps to a
//! `(page, offset)` pair with pure arithmetic — the property that makes the
//! engine's performance a function of buffer-pool behaviour, which is the
//! phenomenon the paper observes throughout Sections 3.3 and 4.
//!
//! Chain terminators use the `u64::MAX` sentinel ([`micrograph_common::ids`]).

use micrograph_common::{EdgeId, LabelId, NodeId};

/// A fixed-size record that can live in a [`crate::store::RecordStore`].
pub trait Record: Sized + Clone {
    /// Encoded size in bytes; must divide into the page payload.
    const SIZE: usize;
    /// Encodes into exactly [`Self::SIZE`] bytes.
    fn encode(&self, buf: &mut [u8]);
    /// Decodes from exactly [`Self::SIZE`] bytes.
    fn decode(buf: &[u8]) -> Self;
    /// Whether this record slot holds live data.
    fn in_use(&self) -> bool;
}

/// Identifier of a property record (chain element).
pub type PropId = u64;
/// Sentinel for "no property record".
pub const NO_PROP: PropId = u64::MAX;

// ---------------------------------------------------------------------------

/// A node record: 32 bytes.
///
/// Layout: `[in_use u8][pad 3][label u32][first_rel u64][first_prop u64]`
/// `[degree_out u32][degree_in u32]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRecord {
    /// Live flag.
    pub in_use: bool,
    /// The node's label (exactly one, like the schema of Figure 1 needs).
    pub label: LabelId,
    /// Head of the relationship chain.
    pub first_rel: EdgeId,
    /// Head of the property chain.
    pub first_prop: PropId,
    /// Number of outgoing relationships.
    pub degree_out: u32,
    /// Number of incoming relationships.
    pub degree_in: u32,
}

impl Default for NodeRecord {
    fn default() -> Self {
        NodeRecord {
            in_use: false,
            label: LabelId(0),
            first_rel: EdgeId::NONE,
            first_prop: NO_PROP,
            degree_out: 0,
            degree_in: 0,
        }
    }
}

impl Record for NodeRecord {
    const SIZE: usize = 32;

    fn encode(&self, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), Self::SIZE);
        buf.fill(0);
        buf[0] = self.in_use as u8;
        buf[4..8].copy_from_slice(&(self.label.raw() as u32).to_le_bytes());
        buf[8..16].copy_from_slice(&self.first_rel.raw().to_le_bytes());
        buf[16..24].copy_from_slice(&self.first_prop.to_le_bytes());
        buf[24..28].copy_from_slice(&self.degree_out.to_le_bytes());
        buf[28..32].copy_from_slice(&self.degree_in.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        debug_assert_eq!(buf.len(), Self::SIZE);
        NodeRecord {
            in_use: buf[0] != 0,
            label: LabelId(u32::from_le_bytes(buf[4..8].try_into().expect("4b")) as u64),
            first_rel: EdgeId(u64::from_le_bytes(buf[8..16].try_into().expect("8b"))),
            first_prop: u64::from_le_bytes(buf[16..24].try_into().expect("8b")),
            degree_out: u32::from_le_bytes(buf[24..28].try_into().expect("4b")),
            degree_in: u32::from_le_bytes(buf[28..32].try_into().expect("4b")),
        }
    }

    fn in_use(&self) -> bool {
        self.in_use
    }
}

// ---------------------------------------------------------------------------

/// A relationship record: 64 bytes.
///
/// Each relationship is a member of **two** doubly linked chains: the chain
/// of its source node (`src_prev`/`src_next`) and of its target node
/// (`dst_prev`/`dst_next`). This is the Neo4j store design: a node's
/// neighborhood is enumerated by walking its chain, alternating on whether
/// the node is this record's source or target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelRecord {
    /// Live flag.
    pub in_use: bool,
    /// Relationship type id.
    pub rel_type: u32,
    /// Source node.
    pub src: NodeId,
    /// Target node.
    pub dst: NodeId,
    /// Previous relationship in the source node's chain.
    pub src_prev: EdgeId,
    /// Next relationship in the source node's chain.
    pub src_next: EdgeId,
    /// Previous relationship in the target node's chain.
    pub dst_prev: EdgeId,
    /// Next relationship in the target node's chain.
    pub dst_next: EdgeId,
    /// Head of the property chain.
    pub first_prop: PropId,
}

impl Default for RelRecord {
    fn default() -> Self {
        RelRecord {
            in_use: false,
            rel_type: 0,
            src: NodeId::NONE,
            dst: NodeId::NONE,
            src_prev: EdgeId::NONE,
            src_next: EdgeId::NONE,
            dst_prev: EdgeId::NONE,
            dst_next: EdgeId::NONE,
            first_prop: NO_PROP,
        }
    }
}

impl RelRecord {
    /// The next relationship in `node`'s chain.
    ///
    /// # Panics
    /// Panics if `node` is neither endpoint (a broken chain).
    pub fn next_for(&self, node: NodeId) -> EdgeId {
        if self.src == node {
            self.src_next
        } else if self.dst == node {
            self.dst_next
        } else {
            panic!("relationship chain corrupt: node {node} not an endpoint");
        }
    }

    /// The node at the other end from `node`. For self-loops returns `node`.
    pub fn other(&self, node: NodeId) -> NodeId {
        if self.src == node {
            self.dst
        } else {
            self.src
        }
    }
}

impl Record for RelRecord {
    const SIZE: usize = 64;

    fn encode(&self, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), Self::SIZE);
        buf.fill(0);
        buf[0] = self.in_use as u8;
        buf[4..8].copy_from_slice(&self.rel_type.to_le_bytes());
        buf[8..16].copy_from_slice(&self.src.raw().to_le_bytes());
        buf[16..24].copy_from_slice(&self.dst.raw().to_le_bytes());
        buf[24..32].copy_from_slice(&self.src_prev.raw().to_le_bytes());
        buf[32..40].copy_from_slice(&self.src_next.raw().to_le_bytes());
        buf[40..48].copy_from_slice(&self.dst_prev.raw().to_le_bytes());
        buf[48..56].copy_from_slice(&self.dst_next.raw().to_le_bytes());
        buf[56..64].copy_from_slice(&self.first_prop.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        debug_assert_eq!(buf.len(), Self::SIZE);
        let u64_at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().expect("8b"));
        RelRecord {
            in_use: buf[0] != 0,
            rel_type: u32::from_le_bytes(buf[4..8].try_into().expect("4b")),
            src: NodeId(u64_at(8)),
            dst: NodeId(u64_at(16)),
            src_prev: EdgeId(u64_at(24)),
            src_next: EdgeId(u64_at(32)),
            dst_prev: EdgeId(u64_at(40)),
            dst_next: EdgeId(u64_at(48)),
            first_prop: u64_at(56),
        }
    }

    fn in_use(&self) -> bool {
        self.in_use
    }
}

// ---------------------------------------------------------------------------

/// Property value type tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueTag {
    /// Null value.
    Null = 0,
    /// Boolean, stored inline.
    Bool = 1,
    /// 64-bit integer, stored inline.
    Int = 2,
    /// 64-bit float, stored inline as bits.
    Double = 3,
    /// String: `val` is a blob-store offset, `aux` the byte length.
    Str = 4,
}

impl ValueTag {
    /// Decodes a tag byte.
    pub fn from_u8(b: u8) -> Option<ValueTag> {
        match b {
            0 => Some(ValueTag::Null),
            1 => Some(ValueTag::Bool),
            2 => Some(ValueTag::Int),
            3 => Some(ValueTag::Double),
            4 => Some(ValueTag::Str),
            _ => None,
        }
    }
}

/// A property record: 32 bytes, one key/value per record, chained.
///
/// Layout: `[in_use u8][vtype u8][pad 2][key u32][val u64][aux u64][next u64]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropRecord {
    /// Live flag.
    pub in_use: bool,
    /// Value type tag.
    pub vtype: ValueTag,
    /// Property key id.
    pub key: u32,
    /// Inline value bits, or blob offset for strings.
    pub val: u64,
    /// Auxiliary word (string byte length).
    pub aux: u64,
    /// Next property record in the chain.
    pub next: PropId,
}

impl Default for PropRecord {
    fn default() -> Self {
        PropRecord {
            in_use: false,
            vtype: ValueTag::Null,
            key: 0,
            val: 0,
            aux: 0,
            next: NO_PROP,
        }
    }
}

impl Record for PropRecord {
    const SIZE: usize = 32;

    fn encode(&self, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), Self::SIZE);
        buf.fill(0);
        buf[0] = self.in_use as u8;
        buf[1] = self.vtype as u8;
        buf[4..8].copy_from_slice(&self.key.to_le_bytes());
        buf[8..16].copy_from_slice(&self.val.to_le_bytes());
        buf[16..24].copy_from_slice(&self.aux.to_le_bytes());
        buf[24..32].copy_from_slice(&self.next.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        debug_assert_eq!(buf.len(), Self::SIZE);
        PropRecord {
            in_use: buf[0] != 0,
            vtype: ValueTag::from_u8(buf[1]).unwrap_or(ValueTag::Null),
            key: u32::from_le_bytes(buf[4..8].try_into().expect("4b")),
            val: u64::from_le_bytes(buf[8..16].try_into().expect("8b")),
            aux: u64::from_le_bytes(buf[16..24].try_into().expect("8b")),
            next: u64::from_le_bytes(buf[24..32].try_into().expect("8b")),
        }
    }

    fn in_use(&self) -> bool {
        self.in_use
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_record_roundtrip() {
        let r = NodeRecord {
            in_use: true,
            label: LabelId(2),
            first_rel: EdgeId(77),
            first_prop: 91,
            degree_out: 5,
            degree_in: 9,
        };
        let mut buf = [0u8; NodeRecord::SIZE];
        r.encode(&mut buf);
        assert_eq!(NodeRecord::decode(&buf), r);
    }

    #[test]
    fn node_record_default_not_in_use() {
        let mut buf = [0u8; NodeRecord::SIZE];
        NodeRecord::default().encode(&mut buf);
        let d = NodeRecord::decode(&buf);
        assert!(!d.in_use());
        assert!(d.first_rel.is_none());
        assert_eq!(d.first_prop, NO_PROP);
    }

    #[test]
    fn rel_record_roundtrip() {
        let r = RelRecord {
            in_use: true,
            rel_type: 3,
            src: NodeId(10),
            dst: NodeId(20),
            src_prev: EdgeId(1),
            src_next: EdgeId(2),
            dst_prev: EdgeId::NONE,
            dst_next: EdgeId(4),
            first_prop: NO_PROP,
        };
        let mut buf = [0u8; RelRecord::SIZE];
        r.encode(&mut buf);
        assert_eq!(RelRecord::decode(&buf), r);
    }

    #[test]
    fn rel_chain_navigation() {
        let r = RelRecord {
            in_use: true,
            rel_type: 0,
            src: NodeId(1),
            dst: NodeId(2),
            src_next: EdgeId(100),
            dst_next: EdgeId(200),
            ..Default::default()
        };
        assert_eq!(r.next_for(NodeId(1)), EdgeId(100));
        assert_eq!(r.next_for(NodeId(2)), EdgeId(200));
        assert_eq!(r.other(NodeId(1)), NodeId(2));
        assert_eq!(r.other(NodeId(2)), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "chain corrupt")]
    fn rel_next_for_non_endpoint_panics() {
        let r = RelRecord {
            in_use: true,
            src: NodeId(1),
            dst: NodeId(2),
            ..Default::default()
        };
        let _ = r.next_for(NodeId(9));
    }

    #[test]
    fn prop_record_roundtrip() {
        let r = PropRecord {
            in_use: true,
            vtype: ValueTag::Str,
            key: 6,
            val: 4096,
            aux: 140,
            next: 8,
        };
        let mut buf = [0u8; PropRecord::SIZE];
        r.encode(&mut buf);
        assert_eq!(PropRecord::decode(&buf), r);
    }

    #[test]
    fn value_tag_decode() {
        assert_eq!(ValueTag::from_u8(2), Some(ValueTag::Int));
        assert_eq!(ValueTag::from_u8(200), None);
    }
}
