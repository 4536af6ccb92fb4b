//! Copy-on-write containers that let a [`Graph`](crate::Graph) share its
//! structure with every published read generation (DESIGN.md §4j).
//!
//! [`OidMap`] is a `Vec` of `Arc`-shared chunks indexed by
//! `oid >> CHUNK_BITS`. Cloning a map copies chunk handles, never entries;
//! a write first un-shares the one chunk it touches (`Arc::make_mut`), so a
//! commit that publishes a new generation pays for the chunks it changed,
//! not for the graph. [`ValueIndex`] does the same for value indexes by
//! splitting one ordered map into value-hash buckets.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::Arc;

use micrograph_common::Value;

use crate::bitmap::Bitmap;
use crate::graph::Oid;

/// Entries per chunk, as a power of two. Measured on the medium dataset
/// (monolithic engine, 16-event commits, 2 vCPU): 256 entries gave a
/// commit p50 of 0.7–0.9 ms, 1,024 gave 1.2–1.3 ms (each touched chunk
/// copies four times the entries) and 64 gave 0.8–1.0 ms (four times the
/// handles to clone and drop on every publish).
const CHUNK_BITS: u32 = 8;
const CHUNK: usize = 1 << CHUNK_BITS;

type Chunk<V> = Arc<[Option<V>; CHUNK]>;

/// A sparse oid-keyed map with chunk-level structural sharing.
#[derive(Debug)]
pub(crate) struct OidMap<V> {
    chunks: Vec<Option<Chunk<V>>>,
}

impl<V> Default for OidMap<V> {
    fn default() -> Self {
        OidMap { chunks: Vec::new() }
    }
}

impl<V> Clone for OidMap<V> {
    /// O(#chunks): copies handles, shares every entry.
    fn clone(&self) -> Self {
        OidMap {
            chunks: self.chunks.clone(),
        }
    }
}

fn split(oid: Oid) -> (usize, usize) {
    ((oid >> CHUNK_BITS) as usize, oid as usize & (CHUNK - 1))
}

impl<V: Clone> OidMap<V> {
    /// The entry at `oid`.
    pub(crate) fn get(&self, oid: Oid) -> Option<&V> {
        let (c, i) = split(oid);
        self.chunks.get(c)?.as_ref()?[i].as_ref()
    }

    /// The slot at `oid`, un-sharing (and creating) its chunk first.
    fn slot(&mut self, oid: Oid) -> &mut Option<V> {
        let (c, i) = split(oid);
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, || None);
        }
        let empty = || Arc::new(std::array::from_fn(|_| None));
        &mut Arc::make_mut(self.chunks[c].get_or_insert_with(empty))[i]
    }

    /// Stores `value` at `oid`.
    pub(crate) fn insert(&mut self, oid: Oid, value: V) {
        *self.slot(oid) = Some(value);
    }

    /// The entry at `oid`, created with `f` when absent.
    pub(crate) fn get_or_insert_with(&mut self, oid: Oid, f: impl FnOnce() -> V) -> &mut V {
        self.slot(oid).get_or_insert_with(f)
    }

    /// A copy sharing nothing: fresh chunks, each entry copied by `f`.
    pub(crate) fn compacted(&self, f: impl Fn(&V) -> V) -> Self {
        let copy = |c: &Chunk<V>| Arc::new(std::array::from_fn(|i| c[i].as_ref().map(&f)));
        OidMap {
            chunks: self.chunks.iter().map(|c| c.as_ref().map(copy)).collect(),
        }
    }

    /// Every entry, ascending by oid.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Oid, &V)> + '_ {
        self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            chunk.iter().flat_map(move |slots| {
                slots.iter().enumerate().filter_map(move |(i, v)| {
                    v.as_ref().map(|v| (((c << CHUNK_BITS) | i) as Oid, v))
                })
            })
        })
    }
}

/// Per-node bitmaps (adjacency, materialized neighbors): entries are
/// `Arc`s, so un-sharing a chunk copies refcounts, not bitmaps.
pub(crate) type BitmapMap = OidMap<Arc<Bitmap>>;

impl BitmapMap {
    /// Adds `member` to `key`'s bitmap, un-sharing only that bitmap.
    pub(crate) fn add(&mut self, key: Oid, member: Oid) {
        Arc::make_mut(self.get_or_insert_with(key, Arc::default)).insert(member);
    }
}

/// Value buckets per index. A publish copies each bucket its commit
/// touched. Measured like `CHUNK_BITS`: 1,024 buckets gave a commit p50 of
/// 0.5–0.77 ms, 256 gave 0.7–1.3 ms (bigger buckets to copy) and 4,096
/// gave 0.78–0.94 ms (more handles to clone).
const INDEX_BUCKETS: usize = 1024;

/// A value index (`value → objects`) split into value-hash buckets of
/// shared ordered maps.
#[derive(Debug, Clone)]
pub(crate) struct ValueIndex {
    buckets: Vec<Arc<BTreeMap<Value, Bitmap>>>,
}

impl Default for ValueIndex {
    fn default() -> Self {
        ValueIndex {
            buckets: vec![Arc::default(); INDEX_BUCKETS],
        }
    }
}

fn bucket_of(value: &Value) -> usize {
    // `DefaultHasher::new()` is fixed-keyed: placement is deterministic.
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    (h.finish() % INDEX_BUCKETS as u64) as usize
}

impl ValueIndex {
    /// The objects holding `value` (reads one bucket).
    pub(crate) fn get(&self, value: &Value) -> Option<&Bitmap> {
        self.buckets[bucket_of(value)].get(value)
    }

    /// The objects under `value`, created empty when absent; un-shares
    /// only `value`'s bucket.
    pub(crate) fn entry(&mut self, value: Value) -> &mut Bitmap {
        Arc::make_mut(&mut self.buckets[bucket_of(&value)])
            .entry(value)
            .or_default()
    }

    /// Removes `oid` from under `value`, dropping the key when it empties.
    pub(crate) fn remove(&mut self, value: &Value, oid: Oid) {
        let bucket = Arc::make_mut(&mut self.buckets[bucket_of(value)]);
        if let Some(bm) = bucket.get_mut(value) {
            bm.remove(oid);
            if bm.is_empty() {
                bucket.remove(value);
            }
        }
    }

    /// Every `(value, objects)` entry, bucket by bucket (unordered across
    /// buckets, ascending within one).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Value, &Bitmap)> + '_ {
        self.buckets.iter().flat_map(|b| b.iter())
    }

    /// The objects of every value within `(lo, hi)`, from all buckets.
    pub(crate) fn range<'a>(
        &'a self,
        lo: Bound<&'a Value>,
        hi: Bound<&'a Value>,
    ) -> impl Iterator<Item = &'a Bitmap> + 'a {
        self.buckets
            .iter()
            .flat_map(move |b| b.range::<Value, _>((lo, hi)).map(|(_, bm)| bm))
    }
}
