//! The `GraphDb` facade: open/create, transactions, the read API and the
//! meta catalog.
//!
//! A database is four physical stores (nodes, relationships, properties,
//! blobs), three name dictionaries, a label index, property indexes and the
//! dense-node group directory. On disk these live in one directory:
//!
//! ```text
//! <dir>/nodes.store  rels.store  props.store  blob.store  wal.log  meta.csv
//! ```

use std::io::{BufReader, BufWriter};
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use micrograph_common::csvio::{CsvReader, CsvWriter};
use micrograph_common::ids::Direction;
use micrograph_common::{CommonError, EdgeId, LabelId, NodeId, Value};
use micrograph_pagestore::backend::{DiskBackend, MemBackend, StorageBackend};
use micrograph_pagestore::buffer::{PoolConfig, PoolStats};
use micrograph_pagestore::wal::Wal;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::dict::Dict;
use crate::error::ArborError;
use crate::group::{DenseGroups, GroupDir, GroupEntry};
use crate::index::{IndexKey, LabelIndex, PropIndex};
use crate::records::{NodeRecord, PropRecord, RelRecord, ValueTag, NO_PROP};
use crate::statistics::GraphStatistics;
use crate::store::{BlobStore, PageCache, RecordStore};
use crate::txn::{untag_page, StoreTag, TxCtx};
use crate::Result;

/// Database configuration.
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Total buffer-pool capacity in pages, split across the four stores
    /// (1/8 nodes, 4/8 relationships, 2/8 properties, 1/8 blob).
    pub page_cache_pages: usize,
    /// Degree above which a node gets relationship groups at import.
    pub dense_node_threshold: u32,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            page_cache_pages: 16384,
            dense_node_threshold: 64,
        }
    }
}

impl DbConfig {
    fn pool_for(&self, tag: StoreTag) -> PoolConfig {
        let total = self.page_cache_pages.max(32);
        let share = match tag {
            StoreTag::Nodes => total / 8,
            StoreTag::Rels => total / 2,
            StoreTag::Props => total / 4,
            StoreTag::Blob => total / 8,
        };
        PoolConfig {
            capacity_pages: share.max(8),
        }
    }
}

/// Aggregated engine statistics: the "db hits" the paper reads off the
/// profiler, plus index counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DbStats {
    /// Sum of buffer-pool counters over all four stores.
    pub pages: PoolStats,
    /// Property-index seeks.
    pub index_seeks: u64,
    /// Label-index scans.
    pub label_scans: u64,
}

impl DbStats {
    /// Logical page accesses — the headline "db hits" number.
    pub fn db_hits(&self) -> u64 {
        self.pages.accesses
    }
}

/// A transactional, record-store property graph database.
pub struct GraphDb {
    pub(crate) nodes: RecordStore<NodeRecord>,
    pub(crate) rels: RecordStore<RelRecord>,
    pub(crate) props: RecordStore<PropRecord>,
    pub(crate) blob: BlobStore,
    pub(crate) labels: Dict,
    pub(crate) rel_types: Dict,
    pub(crate) prop_keys: Dict,
    pub(crate) label_index: LabelIndex,
    pub(crate) prop_index: PropIndex,
    pub(crate) groups: DenseGroups,
    pub(crate) statistics: GraphStatistics,
    wal: Option<Mutex<Wal>>,
    dir: Option<PathBuf>,
    next_tx: AtomicU64,
    write_mutex: Mutex<()>,
    /// Coarse read/write latch for mixed serving (DESIGN.md §4j): every
    /// [`WriteTxn`] holds it exclusively for its whole lifetime, and query
    /// entry points take it shared via [`GraphDb::read_latch`], so a reader
    /// never observes a half-applied multi-page mutation. Pages were always
    /// individually locked; this guards the *record-graph* invariants
    /// (chain splices, prop chains) that span pages. Acquired after
    /// `write_mutex`, and readers never touch `write_mutex`, so the order
    /// is acyclic.
    latch: RwLock<()>,
    config: DbConfig,
}

impl GraphDb {
    /// Creates a purely in-memory database (tests, small experiments).
    pub fn open_memory(config: DbConfig) -> Result<GraphDb> {
        let mk = || -> Box<dyn StorageBackend> { Box::new(MemBackend::new()) };
        Ok(GraphDb {
            nodes: RecordStore::open(mk(), StoreTag::Nodes, config.pool_for(StoreTag::Nodes))?,
            rels: RecordStore::open(mk(), StoreTag::Rels, config.pool_for(StoreTag::Rels))?,
            props: RecordStore::open(mk(), StoreTag::Props, config.pool_for(StoreTag::Props))?,
            blob: BlobStore::open(mk(), StoreTag::Blob, config.pool_for(StoreTag::Blob))?,
            labels: Dict::new(),
            rel_types: Dict::new(),
            prop_keys: Dict::new(),
            label_index: LabelIndex::new(),
            prop_index: PropIndex::new(),
            groups: DenseGroups::new(config.dense_node_threshold),
            statistics: GraphStatistics::new(),
            wal: None,
            dir: None,
            next_tx: AtomicU64::new(1),
            write_mutex: Mutex::new(()),
            latch: RwLock::new(()),
            config,
        })
    }

    /// Opens (or creates) an on-disk database in `dir`, running WAL
    /// recovery if the previous process crashed.
    pub fn open(dir: &Path, config: DbConfig) -> Result<GraphDb> {
        std::fs::create_dir_all(dir)?;
        let disk = |name: &str| -> Result<Box<dyn StorageBackend>> {
            Ok(Box::new(DiskBackend::open(&dir.join(name))?))
        };
        let nodes = RecordStore::open(
            disk("nodes.store")?,
            StoreTag::Nodes,
            config.pool_for(StoreTag::Nodes),
        )?;
        let rels = RecordStore::open(
            disk("rels.store")?,
            StoreTag::Rels,
            config.pool_for(StoreTag::Rels),
        )?;
        let props = RecordStore::open(
            disk("props.store")?,
            StoreTag::Props,
            config.pool_for(StoreTag::Props),
        )?;
        let blob = BlobStore::open(
            disk("blob.store")?,
            StoreTag::Blob,
            config.pool_for(StoreTag::Blob),
        )?;

        let mut db = GraphDb {
            nodes,
            rels,
            props,
            blob,
            labels: Dict::new(),
            rel_types: Dict::new(),
            prop_keys: Dict::new(),
            label_index: LabelIndex::new(),
            prop_index: PropIndex::new(),
            groups: DenseGroups::new(config.dense_node_threshold),
            statistics: GraphStatistics::new(),
            wal: None,
            dir: Some(dir.to_path_buf()),
            next_tx: AtomicU64::new(1),
            write_mutex: Mutex::new(()),
            latch: RwLock::new(()),
            config,
        };

        // Crash recovery: replay committed after-images, then clear the log.
        let wal_path = dir.join("wal.log");
        let records = Wal::read_all(&wal_path)?;
        if !records.is_empty() {
            for (tagged, offset, bytes) in Wal::committed_updates(&records) {
                let (tag, page) = untag_page(tagged).ok_or_else(|| {
                    ArborError::Store(CommonError::Corruption("wal page tag invalid".into()))
                })?;
                match tag {
                    StoreTag::Nodes => db.nodes.apply_raw(page, offset, bytes)?,
                    StoreTag::Rels => db.rels.apply_raw(page, offset, bytes)?,
                    StoreTag::Props => db.props.apply_raw(page, offset, bytes)?,
                    StoreTag::Blob => db.blob.apply_raw(page, offset, bytes)?,
                }
            }
            db.flush_stores()?;
        }
        let mut wal = Wal::open(&wal_path)?;
        if !records.is_empty() {
            wal.truncate()?;
        }
        db.wal = Some(Mutex::new(wal));

        db.load_meta()?;
        db.rebuild_indexes()?;
        db.rebuild_statistics()?;
        Ok(db)
    }

    // -- meta catalog --------------------------------------------------------

    fn meta_path(&self) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join("meta.csv"))
    }

    pub(crate) fn save_meta(&self) -> Result<()> {
        let Some(path) = self.meta_path() else {
            return Ok(());
        };
        let file = std::fs::File::create(&path)?;
        let mut w = CsvWriter::new(BufWriter::new(file));
        for name in self.labels.names() {
            w.write_row(&["label", &name])?;
        }
        for name in self.rel_types.names() {
            w.write_row(&["reltype", &name])?;
        }
        for name in self.prop_keys.names() {
            w.write_row(&["propkey", &name])?;
        }
        for (label, key) in self.prop_index.declared() {
            w.write_row(&["index", &label.to_string(), &key.to_string()])?;
        }
        for (node, rel_type, dir, entry) in self.groups.entries() {
            w.write_row(&[
                "group",
                &node.raw().to_string(),
                &rel_type.to_string(),
                &(dir as u8).to_string(),
                &entry.first.raw().to_string(),
                &entry.count.to_string(),
            ])?;
        }
        w.into_inner()?;
        Ok(())
    }

    fn load_meta(&mut self) -> Result<()> {
        let Some(path) = self.meta_path() else {
            return Ok(());
        };
        let file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let mut r = CsvReader::new(BufReader::new(file));
        let mut fields = Vec::new();
        let parse = |s: &str| -> Result<u64> {
            s.parse::<u64>()
                .map_err(|_| ArborError::Malformed(format!("meta: bad number {s:?}")))
        };
        while r.read_row(&mut fields)? {
            match fields.first().map(String::as_str) {
                Some("label") => {
                    self.labels.intern(&fields[1]);
                }
                Some("reltype") => {
                    self.rel_types.intern(&fields[1]);
                }
                Some("propkey") => {
                    self.prop_keys.intern(&fields[1]);
                }
                Some("index") => {
                    self.prop_index
                        .declare((parse(&fields[1])?, parse(&fields[2])?));
                }
                Some("group") => {
                    let dir = if parse(&fields[3])? == 0 {
                        GroupDir::Out
                    } else {
                        GroupDir::In
                    };
                    self.groups.insert(
                        NodeId(parse(&fields[1])?),
                        parse(&fields[2])? as u32,
                        dir,
                        GroupEntry {
                            first: EdgeId(parse(&fields[4])?),
                            count: parse(&fields[5])?,
                        },
                    );
                }
                _ => {
                    return Err(ArborError::Malformed(format!(
                        "meta: unknown row kind {:?}",
                        fields.first()
                    )))
                }
            }
        }
        Ok(())
    }

    /// Rebuilds the in-memory label and property indexes by scanning the
    /// node store (run once at open; the paper's scale justifies a persisted
    /// index, ours does not).
    fn rebuild_indexes(&self) -> Result<()> {
        let declared = self.prop_index.declared();
        for entry in self.nodes.scan() {
            let (id, rec) = entry?;
            let node = NodeId(id);
            self.label_index.add(rec.label, node);
            if declared.iter().any(|&(l, _)| l == rec.label.raw()) {
                for (key, value) in self.props_of_chain(rec.first_prop)? {
                    let ik = (rec.label.raw(), key);
                    if self.prop_index.has(ik) {
                        self.prop_index.add(ik, &value, node);
                    }
                }
            }
        }
        Ok(())
    }

    /// Rebuilds the cardinality statistics by scanning the node and
    /// relationship stores once. Run at open (after index rebuild) and at
    /// the end of a bulk import; incremental maintenance via the write
    /// transaction keeps them current afterwards.
    pub fn rebuild_statistics(&self) -> Result<()> {
        self.statistics.clear();
        for entry in self.nodes.scan() {
            let (_, rec) = entry?;
            self.statistics.note_node_added(rec.label);
        }
        for entry in self.rels.scan() {
            let (_, rec) = entry?;
            self.statistics
                .note_edge_added(rec.src, rec.dst, rec.rel_type);
        }
        Ok(())
    }

    /// The cardinality-statistics registry the planner consults.
    pub fn statistics(&self) -> &GraphStatistics {
        &self.statistics
    }

    // -- dictionaries --------------------------------------------------------

    /// Resolves a label name.
    pub fn label_id(&self, name: &str) -> Option<LabelId> {
        self.labels.get(name).map(LabelId)
    }

    /// Resolves a relationship type name.
    pub fn rel_type_id(&self, name: &str) -> Option<u32> {
        self.rel_types.get(name).map(|v| v as u32)
    }

    /// Resolves a property key name.
    pub fn prop_key_id(&self, name: &str) -> Option<u64> {
        self.prop_keys.get(name)
    }

    /// Name of a label id.
    pub fn label_name(&self, label: LabelId) -> Option<String> {
        self.labels.name_of(label.raw())
    }

    /// Name of a relationship type id.
    pub fn rel_type_name(&self, t: u32) -> Option<String> {
        self.rel_types.name_of(t as u64)
    }

    // -- value encoding ------------------------------------------------------

    fn encode_value(&self, v: &Value, tx: &mut TxCtx<'_>) -> Result<(ValueTag, u64, u64)> {
        Ok(match v {
            Value::Null => (ValueTag::Null, 0, 0),
            Value::Bool(b) => (ValueTag::Bool, *b as u64, 0),
            Value::Int(i) => (ValueTag::Int, *i as u64, 0),
            Value::Double(d) => (ValueTag::Double, d.to_bits(), 0),
            Value::Str(s) => {
                let off = self.blob.append(s.as_bytes(), tx)?;
                (ValueTag::Str, off, s.len() as u64)
            }
            Value::List(_) => {
                return Err(ArborError::InvalidState(
                    "list values are query bindings and cannot be stored as properties".into(),
                ))
            }
        })
    }

    /// Crate-internal value encoding for the bulk importer.
    pub(crate) fn encode_value_raw(
        &self,
        v: &Value,
        tx: &mut TxCtx<'_>,
    ) -> Result<(ValueTag, u64, u64)> {
        self.encode_value(v, tx)
    }

    fn decode_value(&self, rec: &PropRecord) -> Result<Value> {
        Ok(match rec.vtype {
            ValueTag::Null => Value::Null,
            ValueTag::Bool => Value::Bool(rec.val != 0),
            ValueTag::Int => Value::Int(rec.val as i64),
            ValueTag::Double => Value::Double(f64::from_bits(rec.val)),
            ValueTag::Str => {
                let bytes = self.blob.read(rec.val, rec.aux)?;
                Value::Str(String::from_utf8(bytes).map_err(|_| {
                    ArborError::Store(CommonError::Corruption("non-UTF-8 string property".into()))
                })?)
            }
        })
    }

    // -- read API ------------------------------------------------------------

    /// Reads a node record, requiring it to be live.
    pub fn node_record(&self, node: NodeId) -> Result<NodeRecord> {
        let rec = self.nodes.get(node.raw())?;
        if !rec.in_use {
            return Err(ArborError::RecordNotFound(format!("node {node}")));
        }
        Ok(rec)
    }

    /// Reads a relationship record, requiring it to be live.
    pub fn rel_record(&self, rel: EdgeId) -> Result<RelRecord> {
        let rec = self.rels.get(rel.raw())?;
        if !rec.in_use {
            return Err(ArborError::RecordNotFound(format!("relationship {rel}")));
        }
        Ok(rec)
    }

    /// True when `node` refers to a live node.
    pub fn node_exists(&self, node: NodeId) -> bool {
        self.nodes
            .get(node.raw())
            .map(|r| r.in_use)
            .unwrap_or(false)
    }

    /// The label of `node`.
    pub fn label_of(&self, node: NodeId) -> Result<LabelId> {
        Ok(self.node_record(node)?.label)
    }

    fn props_of_chain(&self, mut head: u64) -> Result<Vec<(u64, Value)>> {
        let mut out = Vec::new();
        while head != NO_PROP {
            let rec = self.props.get(head)?;
            if rec.in_use {
                out.push((rec.key as u64, self.decode_value(&rec)?));
            }
            head = rec.next;
        }
        Ok(out)
    }

    /// All properties of `node` as `(key name, value)`.
    pub fn node_props(&self, node: NodeId) -> Result<Vec<(String, Value)>> {
        let rec = self.node_record(node)?;
        self.props_of_chain(rec.first_prop)?
            .into_iter()
            .map(|(k, v)| {
                self.prop_keys
                    .name_of(k)
                    .map(|n| (n, v))
                    .ok_or_else(|| ArborError::UnknownName(format!("property key id {k}")))
            })
            .collect()
    }

    /// One property of `node` by key name, `None` when absent.
    pub fn node_prop(&self, node: NodeId, key: &str) -> Result<Option<Value>> {
        let Some(kid) = self.prop_keys.get(key) else {
            return Ok(None);
        };
        self.node_prop_by_id(node, kid)
    }

    /// One property of `node` by pre-resolved key id — lets batch executors
    /// hoist the dictionary lookup out of per-row loops.
    pub fn node_prop_by_id(&self, node: NodeId, kid: u64) -> Result<Option<Value>> {
        let rec = self.node_record(node)?;
        let mut head = rec.first_prop;
        while head != NO_PROP {
            let p = self.props.get(head)?;
            if p.in_use && p.key as u64 == kid {
                return Ok(Some(self.decode_value(&p)?));
            }
            head = p.next;
        }
        Ok(None)
    }

    /// Batched [`GraphDb::node_prop_by_id`]: one value per input node, in
    /// input order (`Null` where the property is absent). Internally visits
    /// nodes in id order under per-store page caches, so a dense batch pays
    /// one buffer-pool access per page rather than one per record. Value
    /// semantics are identical to the scalar accessor; only the order in
    /// which an error for a dead node surfaces may differ (callers that need
    /// the scalar error order must re-probe row-by-row).
    pub fn node_prop_by_id_batch(&self, nodes: &[NodeId], kid: u64) -> Result<Vec<Value>> {
        let mut order: Vec<u32> = (0..nodes.len() as u32).collect();
        order.sort_unstable_by_key(|&i| nodes[i as usize].raw());
        let mut out = vec![Value::Null; nodes.len()];
        let mut ncache = PageCache::default();
        let mut pcache = PageCache::default();
        for &i in &order {
            let node = nodes[i as usize];
            let rec = self.nodes.get_cached(node.raw(), &mut ncache)?;
            if !rec.in_use {
                return Err(ArborError::RecordNotFound(format!("node {node}")));
            }
            let mut head = rec.first_prop;
            while head != NO_PROP {
                let p = self.props.get_cached(head, &mut pcache)?;
                if p.in_use && p.key as u64 == kid {
                    out[i as usize] = self.decode_value(&p)?;
                    break;
                }
                head = p.next;
            }
        }
        Ok(out)
    }

    /// One property of a relationship by key name, `None` when absent.
    pub fn rel_prop(&self, rel: EdgeId, key: &str) -> Result<Option<Value>> {
        let Some(kid) = self.prop_keys.get(key) else {
            return Ok(None);
        };
        self.rel_prop_by_id(rel, kid)
    }

    /// One property of a relationship by pre-resolved key id (the batch
    /// counterpart of [`GraphDb::node_prop_by_id`]).
    pub fn rel_prop_by_id(&self, rel: EdgeId, kid: u64) -> Result<Option<Value>> {
        let rec = self.rel_record(rel)?;
        let mut head = rec.first_prop;
        while head != NO_PROP {
            let p = self.props.get(head)?;
            if p.in_use && p.key as u64 == kid {
                return Ok(Some(self.decode_value(&p)?));
            }
            head = p.next;
        }
        Ok(None)
    }

    /// All properties of a relationship.
    pub fn rel_props(&self, rel: EdgeId) -> Result<Vec<(String, Value)>> {
        let rec = self.rel_record(rel)?;
        self.props_of_chain(rec.first_prop)?
            .into_iter()
            .map(|(k, v)| {
                self.prop_keys
                    .name_of(k)
                    .map(|n| (n, v))
                    .ok_or_else(|| ArborError::UnknownName(format!("property key id {k}")))
            })
            .collect()
    }

    /// Walks `node`'s relationships, optionally filtered by type and
    /// direction. Uses the dense-node group directory when applicable.
    pub fn rels(&self, node: NodeId, rel_type: Option<u32>, dir: Direction) -> RelWalk<'_> {
        // Typed, single-direction expansion of a grouped node: start at the
        // group entry and stop after `count` edges (none for a run the node
        // does not have).
        if let Some(entry) = self.group_entry(node, rel_type, dir) {
            return RelWalk {
                db: self,
                node,
                next: entry.first,
                rel_type,
                dir,
                remaining: Some(entry.count),
                error: false,
            };
        }
        let first = self
            .nodes
            .get(node.raw())
            .map(|r| r.first_rel)
            .unwrap_or(EdgeId::NONE);
        RelWalk {
            db: self,
            node,
            next: first,
            rel_type,
            dir,
            remaining: None,
            error: false,
        }
    }

    /// Neighbor node ids of `node` over `rel_type` edges in `dir`.
    /// Multi-edges yield the neighbor once per edge (multigraph semantics).
    pub fn neighbors<'a>(
        &'a self,
        node: NodeId,
        rel_type: Option<u32>,
        dir: Direction,
    ) -> impl Iterator<Item = Result<NodeId>> + 'a {
        self.rels(node, rel_type, dir)
            .map(move |r| r.map(|(_, rec)| rec.other(node)))
    }

    /// Degree of `node`: untyped degrees come from the node record; typed
    /// degrees from the group directory when possible, else a chain walk.
    pub fn degree(&self, node: NodeId, rel_type: Option<u32>, dir: Direction) -> Result<u64> {
        let rec = self.node_record(node)?;
        match rel_type {
            None => Ok(match dir {
                Direction::Outgoing => rec.degree_out as u64,
                Direction::Incoming => rec.degree_in as u64,
                Direction::Both => rec.degree_out as u64 + rec.degree_in as u64,
            }),
            Some(t) => {
                if let Some(n) = self.grouped_degree(node, rel_type, dir) {
                    return Ok(n);
                }
                let mut n = 0u64;
                for r in self.rels(node, Some(t), dir) {
                    r?;
                    n += 1;
                }
                Ok(n)
            }
        }
    }

    /// Typed, single-direction degree of `node` when it is grouped: an
    /// in-memory lookup that touches no page, 0 for a run the node does not
    /// have. `None` for untyped or `Both` walks and for nodes that are not
    /// grouped; this never falls back to a chain walk (see
    /// [`GraphDb::degree`]).
    pub fn grouped_degree(
        &self,
        node: NodeId,
        rel_type: Option<u32>,
        dir: Direction,
    ) -> Option<u64> {
        self.group_entry(node, rel_type, dir).map(|e| e.count)
    }

    fn group_entry(
        &self,
        node: NodeId,
        rel_type: Option<u32>,
        dir: Direction,
    ) -> Option<GroupEntry> {
        let gd = match dir {
            Direction::Outgoing => GroupDir::Out,
            Direction::Incoming => GroupDir::In,
            Direction::Both => return None,
        };
        self.groups.get(node, rel_type?, gd)
    }

    /// All nodes with `label` (label index scan).
    pub fn nodes_with_label(&self, label: LabelId) -> Vec<NodeId> {
        self.label_index.nodes(label)
    }

    /// Appends all nodes with `label` to `out` without allocating a fresh
    /// vector per call (the batch-scan entry point; counts as one scan).
    pub fn nodes_with_label_into(&self, label: LabelId, out: &mut Vec<NodeId>) {
        self.label_index.nodes_into(label, out);
    }

    /// Appends `node`'s `(edge, neighbor)` pairs over `rel_type`/`dir` to
    /// `out` — the batch-expand entry point (one chain walk, reusable
    /// caller-side buffer).
    pub fn rels_into(
        &self,
        node: NodeId,
        rel_type: Option<u32>,
        dir: Direction,
        out: &mut Vec<(EdgeId, NodeId)>,
    ) -> Result<()> {
        for r in self.rels(node, rel_type, dir) {
            let (id, rec) = r?;
            out.push((id, rec.other(node)));
        }
        Ok(())
    }

    /// Count of nodes with `label`.
    pub fn label_count(&self, label: LabelId) -> u64 {
        self.label_index.count(label)
    }

    /// Index seek: nodes with `label` whose `key` equals `value`.
    /// `None` when no such index exists.
    pub fn index_seek(&self, label: &str, key: &str, value: &Value) -> Option<Vec<NodeId>> {
        let l = self.labels.get(label)?;
        let k = self.prop_keys.get(key)?;
        self.prop_index.seek((l, k), value)
    }

    /// Index seek appending matches to `out` instead of allocating; returns
    /// `false` when no such index exists (caller falls back to a scan).
    pub fn index_seek_into(
        &self,
        label: &str,
        key: &str,
        value: &Value,
        out: &mut Vec<NodeId>,
    ) -> bool {
        let Some(l) = self.labels.get(label) else {
            return false;
        };
        let Some(k) = self.prop_keys.get(key) else {
            return false;
        };
        self.prop_index.seek_into((l, k), value, out)
    }

    /// Index range seek over `(label, key)`.
    pub fn index_range(
        &self,
        label: &str,
        key: &str,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Option<Vec<NodeId>> {
        let l = self.labels.get(label)?;
        let k = self.prop_keys.get(key)?;
        self.prop_index.range((l, k), lo, hi)
    }

    /// True when an index exists on `(label id, key id)` — consulted by the
    /// query planner for anchor selection.
    pub fn prop_index_has(&self, label: u64, key: u64) -> bool {
        self.prop_index.has((label, key))
    }

    /// Creates (and populates) an index on `(label, key)`. Returns the
    /// number of entries indexed.
    pub fn create_index(&self, label: &str, key: &str) -> Result<u64> {
        let l = self
            .labels
            .get(label)
            .ok_or_else(|| ArborError::UnknownName(format!("label {label}")))?;
        let k = self.prop_keys.intern(key);
        let ik: IndexKey = (l, k);
        self.prop_index.declare(ik);
        let mut n = 0u64;
        for node in self.label_index.nodes(LabelId(l)) {
            if let Some(v) = self.node_prop(node, key)? {
                self.prop_index.add(ik, &v, node);
                n += 1;
            }
        }
        self.save_meta()?;
        Ok(n)
    }

    // -- write API -----------------------------------------------------------

    /// Takes the shared side of the serving latch. Query entry points hold
    /// this for the duration of one query so they never interleave with a
    /// live [`WriteTxn`] (which holds the exclusive side). Do **not** call
    /// while a `WriteTxn` on the same thread is open — the latch is not
    /// reentrant; in-transaction reads go through the store APIs directly.
    pub fn read_latch(&self) -> RwLockReadGuard<'_, ()> {
        self.latch.read()
    }

    /// Begins a write transaction. Blocks while another writer is active.
    pub fn begin_write(&self) -> Result<WriteTxn<'_>> {
        let guard = self.write_mutex.lock();
        let latch = self.latch.write();
        let ctx = match &self.wal {
            Some(wal) => TxCtx::logged(wal, self.next_tx.fetch_add(1, Ordering::AcqRel))?,
            None => TxCtx::undo_only(),
        };
        Ok(WriteTxn {
            db: self,
            ctx: Some(ctx),
            _guard: guard,
            _latch: latch,
            index_ops: Vec::new(),
            stat_ops: Vec::new(),
            dict_dirty: false,
        })
    }

    /// Begins a group-commit write transaction (DESIGN.md §4j): on a
    /// disk-backed database every WAL record is buffered in memory and the
    /// whole tape is appended + synced under ONE log lock acquisition at
    /// commit; in-memory databases use the undo-only context as always.
    /// Because nothing touches the log before commit, the transaction also
    /// supports partial rollback via [`WriteTxn::savepoint`] /
    /// [`WriteTxn::rollback_to`] — the machinery `apply_event_batch` uses
    /// to commit a batch's successful prefix when a mid-batch event fails.
    pub fn begin_write_batched(&self) -> Result<WriteTxn<'_>> {
        let guard = self.write_mutex.lock();
        let latch = self.latch.write();
        let ctx = match &self.wal {
            Some(wal) => TxCtx::buffered(wal, self.next_tx.fetch_add(1, Ordering::AcqRel)),
            None => TxCtx::undo_only(),
        };
        Ok(WriteTxn {
            db: self,
            ctx: Some(ctx),
            _guard: guard,
            _latch: latch,
            index_ops: Vec::new(),
            stat_ops: Vec::new(),
            dict_dirty: false,
        })
    }

    pub(crate) fn apply_undo(&self, undo: Vec<crate::txn::UndoEntry>) -> Result<()> {
        for e in undo {
            match e.store {
                StoreTag::Nodes => self.nodes.apply_raw(e.page, e.offset, &e.before)?,
                StoreTag::Rels => self.rels.apply_raw(e.page, e.offset, &e.before)?,
                StoreTag::Props => self.props.apply_raw(e.page, e.offset, &e.before)?,
                StoreTag::Blob => self.blob.apply_raw(e.page, e.offset, &e.before)?,
            }
        }
        Ok(())
    }

    // -- maintenance ---------------------------------------------------------

    pub(crate) fn flush_stores(&self) -> Result<()> {
        self.nodes.flush()?;
        self.rels.flush()?;
        self.props.flush()?;
        self.blob.flush()?;
        Ok(())
    }

    /// Persists the name catalog (labels, types, keys, indexes, groups)
    /// without flushing data pages or truncating the WAL. Commit already
    /// does this when new names were interned; exposed for tests and tools
    /// that simulate crashes between commit and checkpoint.
    pub fn sync_catalog(&self) -> Result<()> {
        self.save_meta()
    }

    /// Flushes all dirty pages, the meta catalog and the WAL.
    pub fn flush(&self) -> Result<()> {
        self.flush_stores()?;
        self.save_meta()?;
        if let Some(wal) = &self.wal {
            let mut w = wal.lock();
            w.sync()?;
            // All pages are durable: the log can be truncated (checkpoint).
            w.truncate()?;
        }
        Ok(())
    }

    /// Drops every page cache — the "cold cache" experiment switch.
    pub fn evict_caches(&self) -> Result<()> {
        self.nodes.evict_all()?;
        self.rels.evict_all()?;
        self.props.evict_all()?;
        self.blob.evict_all()?;
        Ok(())
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> DbStats {
        let mut pages = PoolStats::default();
        for s in [
            self.nodes.stats(),
            self.rels.stats(),
            self.props.stats(),
            self.blob.stats(),
        ] {
            pages.accesses += s.accesses;
            pages.hits += s.hits;
            pages.misses += s.misses;
            pages.evictions += s.evictions;
            pages.writebacks += s.writebacks;
        }
        DbStats {
            pages,
            index_seeks: self.prop_index.seek_count(),
            label_scans: self.label_index.scan_count(),
        }
    }

    /// Resets statistics counters.
    pub fn reset_stats(&self) {
        self.nodes.reset_stats();
        self.rels.reset_stats();
        self.props.reset_stats();
        self.blob.reset_stats();
    }

    /// Total bytes on the backing media (the paper's disk-size metric).
    pub fn size_bytes(&self) -> u64 {
        self.nodes.size_bytes()
            + self.rels.size_bytes()
            + self.props.size_bytes()
            + self.blob.size_bytes()
    }

    /// Total live node count (sum over labels).
    pub fn node_count(&self) -> u64 {
        self.nodes.count()
    }

    /// Total relationship records allocated.
    pub fn rel_count(&self) -> u64 {
        self.rels.count()
    }

    /// The configuration this database was opened with.
    pub fn config(&self) -> DbConfig {
        self.config
    }

    /// True when no dense-node groups exist (test support).
    pub fn groups_is_empty_for_test(&self) -> bool {
        self.groups.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Relationship chain iterator
// ---------------------------------------------------------------------------

/// Iterator over a node's relationship chain with type/direction filtering.
pub struct RelWalk<'a> {
    db: &'a GraphDb,
    node: NodeId,
    next: EdgeId,
    rel_type: Option<u32>,
    dir: Direction,
    /// `Some(n)` when walking a dense group: stop after n edges.
    remaining: Option<u64>,
    error: bool,
}

impl<'a> Iterator for RelWalk<'a> {
    type Item = Result<(EdgeId, RelRecord)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.error {
            return None;
        }
        loop {
            if let Some(0) = self.remaining {
                return None;
            }
            if self.next.is_none() {
                return None;
            }
            let id = self.next;
            let rec = match self.db.rels.get(id.raw()) {
                Ok(r) => r,
                Err(e) => {
                    self.error = true;
                    return Some(Err(e));
                }
            };
            self.next = rec.next_for(self.node);
            if let Some(r) = self.remaining.as_mut() {
                *r -= 1;
            }
            if !rec.in_use {
                continue;
            }
            if let Some(t) = self.rel_type {
                if rec.rel_type != t {
                    continue;
                }
            }
            let is_out = rec.src == self.node;
            let is_in = rec.dst == self.node;
            let matches = match self.dir {
                Direction::Outgoing => is_out,
                Direction::Incoming => is_in,
                Direction::Both => is_out || is_in,
            };
            if !matches {
                continue;
            }
            return Some(Ok((id, rec)));
        }
    }
}

// ---------------------------------------------------------------------------
// Write transaction
// ---------------------------------------------------------------------------

enum IndexOp {
    LabelAdd(LabelId, NodeId),
    LabelRemove(LabelId, NodeId),
    PropAdd(IndexKey, Value, NodeId),
    PropRemove(IndexKey, Value, NodeId),
}

/// Buffered statistics updates, applied at commit like [`IndexOp`] so an
/// aborted transaction never skews the planner's cardinality counters.
enum StatOp {
    NodeAdd(LabelId),
    NodeRemove(LabelId),
    EdgeAdd(NodeId, NodeId, u32),
    EdgeRemove(NodeId, NodeId, u32),
}

/// A point inside a live [`WriteTxn`] that [`WriteTxn::rollback_to`] can
/// restore — the coordinates of the undo list, the pending WAL tape, and
/// the buffered index/stat ops at [`WriteTxn::savepoint`] time.
#[derive(Debug, Clone, Copy)]
pub struct TxSavepoint {
    undo_len: usize,
    wal_len: usize,
    index_len: usize,
    stat_len: usize,
}

/// A write transaction. Exactly one exists at a time (single-writer).
///
/// Mutations are visible to readers immediately (read-uncommitted with
/// respect to concurrent readers — the engine's supported workload is bulk
/// load followed by read-mostly querying, like the paper's). Commit makes
/// them durable; abort rolls pages back and discards buffered index updates.
pub struct WriteTxn<'db> {
    db: &'db GraphDb,
    ctx: Option<TxCtx<'db>>,
    _guard: MutexGuard<'db, ()>,
    /// Exclusive side of the serving latch: readers queue behind the whole
    /// transaction, which is exactly what group commit amortizes.
    _latch: RwLockWriteGuard<'db, ()>,
    index_ops: Vec<IndexOp>,
    stat_ops: Vec<StatOp>,
    dict_dirty: bool,
}

impl<'db> WriteTxn<'db> {
    fn intern_label(&mut self, name: &str) -> LabelId {
        if self.db.labels.get(name).is_none() {
            self.dict_dirty = true;
        }
        LabelId(self.db.labels.intern(name))
    }

    fn intern_rel_type(&mut self, name: &str) -> u32 {
        if self.db.rel_types.get(name).is_none() {
            self.dict_dirty = true;
        }
        self.db.rel_types.intern(name) as u32
    }

    fn intern_prop_key(&mut self, name: &str) -> u32 {
        if self.db.prop_keys.get(name).is_none() {
            self.dict_dirty = true;
        }
        self.db.prop_keys.intern(name) as u32
    }

    fn build_prop_chain(&mut self, props: &[(&str, Value)]) -> Result<u64> {
        let mut head = NO_PROP;
        // Build back-to-front so the chain preserves input order.
        for (key, value) in props.iter().rev() {
            let kid = self.intern_prop_key(key);
            let ctx = self.ctx.as_mut().expect("txn live");
            let (vtype, val, aux) = self.db.encode_value(value, ctx)?;
            let pid = self.db.props.allocate(ctx)?;
            let rec = PropRecord {
                in_use: true,
                vtype,
                key: kid,
                val,
                aux,
                next: head,
            };
            self.db.props.put(pid, &rec, ctx)?;
            head = pid;
        }
        Ok(head)
    }

    /// Creates a node with `label` and `props`, returning its id.
    pub fn create_node(&mut self, label: &str, props: &[(&str, Value)]) -> Result<NodeId> {
        let label_id = self.intern_label(label);
        let first_prop = self.build_prop_chain(props)?;
        let ctx = self.ctx.as_mut().expect("txn live");
        let id = self.db.nodes.allocate(ctx)?;
        let rec = NodeRecord {
            in_use: true,
            label: label_id,
            first_rel: EdgeId::NONE,
            first_prop,
            degree_out: 0,
            degree_in: 0,
        };
        self.db.nodes.put(id, &rec, ctx)?;
        let node = NodeId(id);
        self.index_ops.push(IndexOp::LabelAdd(label_id, node));
        self.stat_ops.push(StatOp::NodeAdd(label_id));
        for (key, value) in props {
            let kid = self.db.prop_keys.get(key).expect("interned above");
            let ik = (label_id.raw(), kid);
            if self.db.prop_index.has(ik) {
                self.index_ops
                    .push(IndexOp::PropAdd(ik, value.clone(), node));
            }
        }
        Ok(node)
    }

    /// Creates a relationship `src -[rel_type]-> dst` with `props`.
    pub fn create_rel(
        &mut self,
        src: NodeId,
        dst: NodeId,
        rel_type: &str,
        props: &[(&str, Value)],
    ) -> Result<EdgeId> {
        let t = self.intern_rel_type(rel_type);
        let mut src_rec = self.db.node_record(src)?;
        let mut dst_rec = if src == dst {
            src_rec.clone()
        } else {
            self.db.node_record(dst)?
        };
        let first_prop = self.build_prop_chain(props)?;
        let ctx = self.ctx.as_mut().expect("txn live");
        let id = EdgeId(self.db.rels.allocate(ctx)?);

        let mut rec = RelRecord {
            in_use: true,
            rel_type: t,
            src,
            dst,
            src_prev: EdgeId::NONE,
            src_next: src_rec.first_rel,
            dst_prev: EdgeId::NONE,
            dst_next: if src == dst {
                EdgeId::NONE
            } else {
                dst_rec.first_rel
            },
            first_prop,
        };

        // Fix the old heads' prev pointers.
        if src_rec.first_rel.is_some() {
            let mut old = self.db.rels.get(src_rec.first_rel.raw())?;
            if old.src == src {
                old.src_prev = id;
            } else {
                old.dst_prev = id;
            }
            self.db.rels.put(src_rec.first_rel.raw(), &old, ctx)?;
        }
        if src != dst && dst_rec.first_rel.is_some() {
            let mut old = self.db.rels.get(dst_rec.first_rel.raw())?;
            if old.src == dst {
                old.src_prev = id;
            } else {
                old.dst_prev = id;
            }
            self.db.rels.put(dst_rec.first_rel.raw(), &old, ctx)?;
        }

        if src == dst {
            // Self-loop: single chain membership via the src pointers.
            rec.dst_next = EdgeId::NONE;
            self.db.rels.put(id.raw(), &rec, ctx)?;
            src_rec.first_rel = id;
            src_rec.degree_out += 1;
            src_rec.degree_in += 1;
            self.db.nodes.put(src.raw(), &src_rec, ctx)?;
        } else {
            self.db.rels.put(id.raw(), &rec, ctx)?;
            src_rec.first_rel = id;
            src_rec.degree_out += 1;
            self.db.nodes.put(src.raw(), &src_rec, ctx)?;
            dst_rec.first_rel = id;
            dst_rec.degree_in += 1;
            self.db.nodes.put(dst.raw(), &dst_rec, ctx)?;
        }

        // Chain-head insertion breaks the import-time (type, dir) ordering.
        self.db.groups.invalidate(src);
        self.db.groups.invalidate(dst);
        self.stat_ops.push(StatOp::EdgeAdd(src, dst, t));
        Ok(id)
    }

    /// Sets (or overwrites) a property on `node`.
    pub fn set_node_prop(&mut self, node: NodeId, key: &str, value: Value) -> Result<()> {
        let kid = self.intern_prop_key(key);
        let mut node_rec = self.db.node_record(node)?;
        // Look for an existing record with this key.
        let mut at = node_rec.first_prop;
        while at != NO_PROP {
            let mut p = self.db.props.get(at)?;
            if p.in_use && p.key == kid {
                let old_value = self.db.decode_value(&p)?;
                let ctx = self.ctx.as_mut().expect("txn live");
                let (vtype, val, aux) = self.db.encode_value(&value, ctx)?;
                p.vtype = vtype;
                p.val = val;
                p.aux = aux;
                self.db.props.put(at, &p, ctx)?;
                let ik = (node_rec.label.raw(), kid as u64);
                if self.db.prop_index.has(ik) {
                    self.index_ops
                        .push(IndexOp::PropRemove(ik, old_value, node));
                    self.index_ops.push(IndexOp::PropAdd(ik, value, node));
                }
                return Ok(());
            }
            at = p.next;
        }
        // Not present: prepend a record.
        let ctx = self.ctx.as_mut().expect("txn live");
        let (vtype, val, aux) = self.db.encode_value(&value, ctx)?;
        let pid = self.db.props.allocate(ctx)?;
        let rec = PropRecord {
            in_use: true,
            vtype,
            key: kid,
            val,
            aux,
            next: node_rec.first_prop,
        };
        self.db.props.put(pid, &rec, ctx)?;
        node_rec.first_prop = pid;
        self.db.nodes.put(node.raw(), &node_rec, ctx)?;
        let ik = (node_rec.label.raw(), kid as u64);
        if self.db.prop_index.has(ik) {
            self.index_ops.push(IndexOp::PropAdd(ik, value, node));
        }
        Ok(())
    }

    /// Deletes a relationship, unlinking it from both chains.
    pub fn delete_rel(&mut self, rel: EdgeId) -> Result<()> {
        let rec = self.db.rel_record(rel)?;
        let ctx = self.ctx.as_mut().expect("txn live");

        // Unlink from one endpoint's chain.
        let mut unlink = |node: NodeId, prev: EdgeId, next: EdgeId| -> Result<()> {
            if prev.is_some() {
                let mut p = self.db.rels.get(prev.raw())?;
                if p.src == node {
                    p.src_next = next;
                } else {
                    p.dst_next = next;
                }
                self.db.rels.put(prev.raw(), &p, ctx)?;
            } else {
                let mut n = self.db.nodes.get(node.raw())?;
                n.first_rel = next;
                self.db.nodes.put(node.raw(), &n, ctx)?;
            }
            if next.is_some() {
                let mut nx = self.db.rels.get(next.raw())?;
                if nx.src == node {
                    nx.src_prev = prev;
                } else {
                    nx.dst_prev = prev;
                }
                self.db.rels.put(next.raw(), &nx, ctx)?;
            }
            Ok(())
        };

        unlink(rec.src, rec.src_prev, rec.src_next)?;
        if rec.src != rec.dst {
            unlink(rec.dst, rec.dst_prev, rec.dst_next)?;
        }

        // Degrees.
        let mut s = self.db.nodes.get(rec.src.raw())?;
        s.degree_out -= 1;
        if rec.src == rec.dst {
            s.degree_in -= 1;
            self.db.nodes.put(rec.src.raw(), &s, ctx)?;
        } else {
            self.db.nodes.put(rec.src.raw(), &s, ctx)?;
            let mut d = self.db.nodes.get(rec.dst.raw())?;
            d.degree_in -= 1;
            self.db.nodes.put(rec.dst.raw(), &d, ctx)?;
        }

        // Tombstone the record.
        let mut dead = rec.clone();
        dead.in_use = false;
        self.db.rels.put(rel.raw(), &dead, ctx)?;
        self.db.groups.invalidate(rec.src);
        self.db.groups.invalidate(rec.dst);
        self.stat_ops
            .push(StatOp::EdgeRemove(rec.src, rec.dst, rec.rel_type));
        Ok(())
    }

    /// Deletes a node. Fails unless its degree is zero.
    pub fn delete_node(&mut self, node: NodeId) -> Result<()> {
        let rec = self.db.node_record(node)?;
        if rec.degree_out + rec.degree_in != 0 {
            return Err(ArborError::InvalidState(format!(
                "node {node} still has {} relationships",
                rec.degree_out + rec.degree_in
            )));
        }
        // Collect indexed properties for index removal, then tombstone.
        let props = self.db.props_of_chain(rec.first_prop)?;
        let ctx = self.ctx.as_mut().expect("txn live");
        let mut at = rec.first_prop;
        while at != NO_PROP {
            let mut p = self.db.props.get(at)?;
            let next = p.next;
            p.in_use = false;
            self.db.props.put(at, &p, ctx)?;
            at = next;
        }
        let mut dead = rec.clone();
        dead.in_use = false;
        self.db.nodes.put(node.raw(), &dead, ctx)?;
        self.index_ops.push(IndexOp::LabelRemove(rec.label, node));
        self.stat_ops.push(StatOp::NodeRemove(rec.label));
        for (k, v) in props {
            let ik = (rec.label.raw(), k);
            if self.db.prop_index.has(ik) {
                self.index_ops.push(IndexOp::PropRemove(ik, v, node));
            }
        }
        Ok(())
    }

    /// Marks a point in this transaction that [`WriteTxn::rollback_to`]
    /// can restore: the current undo/pending-WAL/index/stat lengths.
    /// Meaningful only for transactions from
    /// [`GraphDb::begin_write_batched`] (an eagerly-logged transaction has
    /// already shipped its WAL records).
    pub fn savepoint(&self) -> TxSavepoint {
        let ctx = self.ctx.as_ref().expect("txn live");
        TxSavepoint {
            undo_len: ctx.undo_len(),
            wal_len: ctx.pending_wal_len(),
            index_len: self.index_ops.len(),
            stat_len: self.stat_ops.len(),
        }
    }

    /// Rolls the transaction back to `sp`: restores before-images of every
    /// write since the savepoint (newest first), truncates the pending WAL
    /// tape, and discards the buffered index/stat ops staged since. The
    /// transaction stays live — later writes and a final commit see
    /// exactly the pre-savepoint state, which is how a failed event inside
    /// a batch leaves the same state as the failed looped prefix. Name
    /// interning is intentionally not undone: a dropped per-event
    /// transaction leaks interned names identically.
    pub fn rollback_to(&mut self, sp: &TxSavepoint) -> Result<()> {
        let ctx = self.ctx.as_mut().expect("txn live");
        let undo = ctx.rollback_to(sp.undo_len, sp.wal_len);
        self.db.apply_undo(undo)?;
        self.index_ops.truncate(sp.index_len);
        self.stat_ops.truncate(sp.stat_len);
        Ok(())
    }

    /// Commits: forces the WAL, then applies buffered index updates.
    pub fn commit(mut self) -> Result<()> {
        let ctx = self.ctx.take().expect("transaction already finished");
        ctx.commit()?;
        for op in self.index_ops.drain(..) {
            match op {
                IndexOp::LabelAdd(l, n) => self.db.label_index.add(l, n),
                IndexOp::LabelRemove(l, n) => self.db.label_index.remove(l, n),
                IndexOp::PropAdd(ik, v, n) => self.db.prop_index.add(ik, &v, n),
                IndexOp::PropRemove(ik, v, n) => self.db.prop_index.remove(ik, &v, n),
            }
        }
        for op in self.stat_ops.drain(..) {
            match op {
                StatOp::NodeAdd(l) => self.db.statistics.note_node_added(l),
                StatOp::NodeRemove(l) => self.db.statistics.note_node_removed(l),
                StatOp::EdgeAdd(s, d, t) => self.db.statistics.note_edge_added(s, d, t),
                StatOp::EdgeRemove(s, d, t) => self.db.statistics.note_edge_removed(s, d, t),
            }
        }
        if self.dict_dirty {
            self.db.save_meta()?;
        }
        Ok(())
    }

    /// Aborts: restores before-images; buffered index updates are dropped.
    pub fn abort(mut self) -> Result<()> {
        let ctx = self.ctx.take().expect("transaction already finished");
        let undo = ctx.abort()?;
        self.db.apply_undo(undo)?;
        self.index_ops.clear();
        self.stat_ops.clear();
        Ok(())
    }
}

impl Drop for WriteTxn<'_> {
    fn drop(&mut self) {
        // Implicit abort when neither commit nor abort was called.
        if let Some(ctx) = self.ctx.take() {
            if let Ok(undo) = ctx.abort() {
                let _ = self.db.apply_undo(undo);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_db() -> GraphDb {
        GraphDb::open_memory(DbConfig {
            page_cache_pages: 256,
            dense_node_threshold: 8,
        })
        .unwrap()
    }

    #[test]
    fn create_and_read_node() {
        let db = mem_db();
        let mut tx = db.begin_write().unwrap();
        let n = tx
            .create_node(
                "user",
                &[("uid", Value::Int(531)), ("name", Value::from("alice"))],
            )
            .unwrap();
        tx.commit().unwrap();
        assert!(db.node_exists(n));
        assert_eq!(db.node_prop(n, "uid").unwrap(), Some(Value::Int(531)));
        assert_eq!(db.node_prop(n, "name").unwrap(), Some(Value::from("alice")));
        assert_eq!(db.node_prop(n, "missing").unwrap(), None);
        let props = db.node_props(n).unwrap();
        assert_eq!(props.len(), 2);
        assert_eq!(props[0].0, "uid", "chain preserves insertion order");
        assert_eq!(db.label_name(db.label_of(n).unwrap()), Some("user".into()));
    }

    #[test]
    fn create_rel_and_walk_chains() {
        let db = mem_db();
        let mut tx = db.begin_write().unwrap();
        let a = tx.create_node("user", &[]).unwrap();
        let b = tx.create_node("user", &[]).unwrap();
        let c = tx.create_node("user", &[]).unwrap();
        tx.create_rel(a, b, "follows", &[]).unwrap();
        tx.create_rel(a, c, "follows", &[]).unwrap();
        tx.create_rel(c, a, "follows", &[]).unwrap();
        tx.commit().unwrap();

        let t = db.rel_type_id("follows").unwrap();
        let out: Vec<NodeId> = db
            .neighbors(a, Some(t), Direction::Outgoing)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&b) && out.contains(&c));
        let inc: Vec<NodeId> = db
            .neighbors(a, Some(t), Direction::Incoming)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(inc, vec![c]);
        let both: Vec<NodeId> = db
            .neighbors(a, Some(t), Direction::Both)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(both.len(), 3);
        assert_eq!(db.degree(a, None, Direction::Outgoing).unwrap(), 2);
        assert_eq!(db.degree(a, None, Direction::Incoming).unwrap(), 1);
        assert_eq!(db.degree(a, Some(t), Direction::Outgoing).unwrap(), 2);
    }

    #[test]
    fn multigraph_allows_parallel_edges() {
        let db = mem_db();
        let mut tx = db.begin_write().unwrap();
        let a = tx.create_node("user", &[]).unwrap();
        let t1 = tx.create_node("tweet", &[]).unwrap();
        tx.create_rel(a, t1, "mentions", &[]).unwrap();
        tx.create_rel(a, t1, "mentions", &[]).unwrap();
        tx.commit().unwrap();
        let t = db.rel_type_id("mentions").unwrap();
        let out: Vec<NodeId> = db
            .neighbors(a, Some(t), Direction::Outgoing)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(out, vec![t1, t1], "parallel edges both enumerated");
    }

    #[test]
    fn self_loop_handled() {
        let db = mem_db();
        let mut tx = db.begin_write().unwrap();
        let a = tx.create_node("user", &[]).unwrap();
        let b = tx.create_node("user", &[]).unwrap();
        tx.create_rel(a, a, "follows", &[]).unwrap();
        tx.create_rel(a, b, "follows", &[]).unwrap();
        tx.commit().unwrap();
        let t = db.rel_type_id("follows").unwrap();
        let out: Vec<NodeId> = db
            .neighbors(a, Some(t), Direction::Outgoing)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&a) && out.contains(&b));
        assert_eq!(db.degree(a, None, Direction::Incoming).unwrap(), 1);
    }

    #[test]
    fn rel_type_filtering() {
        let db = mem_db();
        let mut tx = db.begin_write().unwrap();
        let u = tx.create_node("user", &[]).unwrap();
        let t1 = tx.create_node("tweet", &[]).unwrap();
        let u2 = tx.create_node("user", &[]).unwrap();
        tx.create_rel(u, t1, "posts", &[]).unwrap();
        tx.create_rel(u, u2, "follows", &[]).unwrap();
        tx.commit().unwrap();
        let posts = db.rel_type_id("posts").unwrap();
        let follows = db.rel_type_id("follows").unwrap();
        let p: Vec<_> = db
            .neighbors(u, Some(posts), Direction::Outgoing)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(p, vec![t1]);
        let f: Vec<_> = db
            .neighbors(u, Some(follows), Direction::Outgoing)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(f, vec![u2]);
        let all: Vec<_> = db
            .neighbors(u, None, Direction::Outgoing)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn abort_rolls_back_pages_and_indexes() {
        let db = mem_db();
        let mut tx = db.begin_write().unwrap();
        let a = tx.create_node("user", &[("uid", Value::Int(1))]).unwrap();
        tx.commit().unwrap();
        db.create_index("user", "uid").unwrap();

        let mut tx = db.begin_write().unwrap();
        let b = tx.create_node("user", &[("uid", Value::Int(2))]).unwrap();
        tx.create_rel(a, b, "follows", &[]).unwrap();
        tx.abort().unwrap();

        assert!(!db.node_exists(b), "aborted node must be gone");
        assert_eq!(db.degree(a, None, Direction::Outgoing).unwrap(), 0);
        assert_eq!(
            db.index_seek("user", "uid", &Value::Int(2)).unwrap(),
            vec![],
            "aborted index entry must be gone"
        );
        assert_eq!(db.nodes_with_label(db.label_id("user").unwrap()), vec![a]);
    }

    #[test]
    fn implicit_abort_on_drop() {
        let db = mem_db();
        {
            let mut tx = db.begin_write().unwrap();
            let _ = tx.create_node("user", &[]).unwrap();
            // dropped without commit
        }
        assert_eq!(db.label_count(db.label_id("user").unwrap()), 0);
    }

    #[test]
    fn index_seek_and_range() {
        let db = mem_db();
        let mut tx = db.begin_write().unwrap();
        for i in 0..20i64 {
            tx.create_node(
                "user",
                &[("uid", Value::Int(i)), ("followers", Value::Int(i * 100))],
            )
            .unwrap();
        }
        tx.commit().unwrap();
        db.create_index("user", "uid").unwrap();
        db.create_index("user", "followers").unwrap();
        let hit = db.index_seek("user", "uid", &Value::Int(7)).unwrap();
        assert_eq!(hit.len(), 1);
        let range = db
            .index_range(
                "user",
                "followers",
                Bound::Excluded(&Value::Int(1500)),
                Bound::Unbounded,
            )
            .unwrap();
        assert_eq!(range.len(), 4); // 1600..1900
        assert!(db.index_seek("tweet", "tid", &Value::Int(0)).is_none());
    }

    #[test]
    fn set_prop_overwrites_and_indexes() {
        let db = mem_db();
        let mut tx = db.begin_write().unwrap();
        let n = tx
            .create_node("user", &[("followers", Value::Int(10))])
            .unwrap();
        tx.commit().unwrap();
        db.create_index("user", "followers").unwrap();
        let mut tx = db.begin_write().unwrap();
        tx.set_node_prop(n, "followers", Value::Int(99)).unwrap();
        tx.set_node_prop(n, "bio", Value::from("hello")).unwrap();
        tx.commit().unwrap();
        assert_eq!(db.node_prop(n, "followers").unwrap(), Some(Value::Int(99)));
        assert_eq!(db.node_prop(n, "bio").unwrap(), Some(Value::from("hello")));
        assert_eq!(
            db.index_seek("user", "followers", &Value::Int(10)).unwrap(),
            vec![]
        );
        assert_eq!(
            db.index_seek("user", "followers", &Value::Int(99)).unwrap(),
            vec![n]
        );
    }

    #[test]
    fn delete_rel_relinks_chain() {
        let db = mem_db();
        let mut tx = db.begin_write().unwrap();
        let a = tx.create_node("user", &[]).unwrap();
        let b = tx.create_node("user", &[]).unwrap();
        let c = tx.create_node("user", &[]).unwrap();
        let e1 = tx.create_rel(a, b, "follows", &[]).unwrap();
        let e2 = tx.create_rel(a, c, "follows", &[]).unwrap();
        let e3 = tx.create_rel(b, a, "follows", &[]).unwrap();
        tx.commit().unwrap();

        let mut tx = db.begin_write().unwrap();
        tx.delete_rel(e2).unwrap();
        tx.commit().unwrap();

        let out: Vec<_> = db
            .neighbors(a, None, Direction::Outgoing)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(out, vec![b]);
        assert_eq!(db.degree(a, None, Direction::Outgoing).unwrap(), 1);
        assert!(db.rel_record(e2).is_err());
        assert!(db.rel_record(e1).is_ok());
        assert!(db.rel_record(e3).is_ok());

        // Delete the head of the chain too.
        let mut tx = db.begin_write().unwrap();
        tx.delete_rel(e3).unwrap();
        tx.commit().unwrap();
        let both: Vec<_> = db
            .neighbors(a, None, Direction::Both)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(both, vec![b]);
    }

    #[test]
    fn delete_node_requires_zero_degree() {
        let db = mem_db();
        let mut tx = db.begin_write().unwrap();
        let a = tx.create_node("user", &[("uid", Value::Int(1))]).unwrap();
        let b = tx.create_node("user", &[]).unwrap();
        let e = tx.create_rel(a, b, "follows", &[]).unwrap();
        tx.commit().unwrap();

        let mut tx = db.begin_write().unwrap();
        assert!(tx.delete_node(a).is_err());
        tx.delete_rel(e).unwrap();
        tx.delete_node(a).unwrap();
        tx.commit().unwrap();
        assert!(!db.node_exists(a));
        assert!(db.node_exists(b));
    }

    #[test]
    fn stats_count_page_accesses() {
        let db = mem_db();
        let mut tx = db.begin_write().unwrap();
        let a = tx.create_node("user", &[]).unwrap();
        let b = tx.create_node("user", &[]).unwrap();
        tx.create_rel(a, b, "follows", &[]).unwrap();
        tx.commit().unwrap();
        db.reset_stats();
        let _: Vec<_> = db.neighbors(a, None, Direction::Outgoing).collect();
        let s = db.stats();
        assert!(s.db_hits() > 0, "traversal must touch pages");
    }

    #[test]
    fn disk_db_persists_and_reopens() {
        let dir = std::env::temp_dir().join(format!("arbordb-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let na;
        {
            let db = GraphDb::open(&dir, DbConfig::default()).unwrap();
            let mut tx = db.begin_write().unwrap();
            na = tx
                .create_node(
                    "user",
                    &[("uid", Value::Int(5)), ("name", Value::from("carol"))],
                )
                .unwrap();
            let nb = tx.create_node("user", &[("uid", Value::Int(6))]).unwrap();
            tx.create_rel(na, nb, "follows", &[]).unwrap();
            tx.commit().unwrap();
            db.create_index("user", "uid").unwrap();
            db.flush().unwrap();
        }
        {
            let db = GraphDb::open(&dir, DbConfig::default()).unwrap();
            assert_eq!(
                db.node_prop(na, "name").unwrap(),
                Some(Value::from("carol"))
            );
            assert_eq!(
                db.index_seek("user", "uid", &Value::Int(5)).unwrap(),
                vec![na]
            );
            assert_eq!(db.degree(na, None, Direction::Outgoing).unwrap(), 1);
            assert_eq!(db.label_count(db.label_id("user").unwrap()), 2);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_recovery_replays_committed() {
        let dir = std::env::temp_dir().join(format!("arbordb-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let n;
        {
            let db = GraphDb::open(&dir, DbConfig::default()).unwrap();
            let mut tx = db.begin_write().unwrap();
            n = tx.create_node("user", &[("uid", Value::Int(42))]).unwrap();
            tx.commit().unwrap();
            // Simulate crash: no flush; drop the db. Dirty pages are lost
            // unless recovery replays the WAL. (MemBackend would lose them;
            // DiskBackend pages may or may not have been written back —
            // recovery must make the outcome deterministic.)
            // Deliberately do NOT call flush().
            // But we must persist the dictionaries for name resolution:
            db.save_meta().unwrap();
        }
        {
            let db = GraphDb::open(&dir, DbConfig::default()).unwrap();
            assert!(db.node_exists(n), "committed node must survive crash");
            assert_eq!(db.node_prop(n, "uid").unwrap(), Some(Value::Int(42)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
