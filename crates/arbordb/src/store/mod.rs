//! Physical stores: fixed-size record stores and the append-only blob store.
//!
//! Each store owns one paged file (or in-memory backend) fronted by a buffer
//! pool. Page 0 of every store is a header page holding the record count
//! (blob: byte length); data records start at page 1, so record id ↔ page
//! translation is pure arithmetic.

use std::sync::atomic::{AtomicU64, Ordering};

use micrograph_common::{CommonError, PageId};
use micrograph_pagestore::backend::StorageBackend;
use micrograph_pagestore::buffer::{BufferPool, PageRef, PoolConfig, PoolStats};
use micrograph_pagestore::page::PAGE_SIZE;

use crate::records::Record;
use crate::txn::{StoreTag, TxCtx};
use crate::Result;

/// A store of fixed-size records over a buffer pool.
pub struct RecordStore<R: Record> {
    pool: BufferPool,
    tag: StoreTag,
    count: AtomicU64,
    _marker: std::marker::PhantomData<fn() -> R>,
}

impl<R: Record> RecordStore<R> {
    /// Records per data page.
    pub const fn records_per_page() -> usize {
        PAGE_SIZE / R::SIZE
    }

    /// Opens a store over `backend`. Reads the count from the header page,
    /// creating it when the backend is empty.
    pub fn open(backend: Box<dyn StorageBackend>, tag: StoreTag, pool: PoolConfig) -> Result<Self> {
        let pool = BufferPool::new(backend, pool);
        if pool.page_count() == 0 {
            let hdr = pool.allocate()?;
            debug_assert_eq!(hdr, PageId(0));
        }
        let count = pool.read(PageId(0))?.read_u64(0);
        Ok(RecordStore {
            pool,
            tag,
            count: AtomicU64::new(count),
            _marker: std::marker::PhantomData,
        })
    }

    #[inline]
    fn page_of(id: u64) -> PageId {
        PageId(1 + id / Self::records_per_page() as u64)
    }

    #[inline]
    fn offset_of(id: u64) -> usize {
        (id as usize % Self::records_per_page()) * R::SIZE
    }

    /// Number of allocated records (also the next id to be allocated).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// Allocates the next record id, persisting the new count.
    pub fn allocate(&self, tx: &mut TxCtx<'_>) -> Result<u64> {
        let id = self.count.fetch_add(1, Ordering::AcqRel);
        self.ensure_page(Self::page_of(id))?;
        self.write_header(id + 1, tx)?;
        Ok(id)
    }

    /// Grows the backend until `page` exists.
    fn ensure_page(&self, page: PageId) -> Result<()> {
        while self.pool.page_count() <= page.raw() {
            self.pool.allocate()?;
        }
        Ok(())
    }

    fn write_header(&self, new_count: u64, tx: &mut TxCtx<'_>) -> Result<()> {
        logged_write(
            &self.pool,
            self.tag,
            PageId(0),
            0,
            &new_count.to_le_bytes(),
            tx,
        )
    }

    fn check_readable(&self, id: u64) -> Result<()> {
        if id >= self.count() {
            return Err(CommonError::NotFound(format!(
                "record {id} beyond store count {}",
                self.count()
            ))
            .into());
        }
        Ok(())
    }

    /// Reads record `id`.
    pub fn get(&self, id: u64) -> Result<R> {
        self.check_readable(id)?;
        let page = self.pool.read(Self::page_of(id))?;
        Ok(R::decode(page.read(Self::offset_of(id), R::SIZE)))
    }

    /// Reads record `id` through `cache`: consecutive gets that land on the
    /// same page reuse the held [`PageRef`] instead of going back to the
    /// buffer pool, so an id-sorted batch pays one pool access per page
    /// rather than per record, and takes no lock per record.
    pub fn get_cached<'a>(&'a self, id: u64, cache: &mut PageCache<'a>) -> Result<R> {
        self.check_readable(id)?;
        let page = Self::page_of(id);
        let held = match &mut cache.slot {
            Some((p, held)) if *p == page => held,
            slot => {
                // Drop the old guard first, so a batch never pins two frames.
                *slot = None;
                &slot.insert((page, self.pool.read(page)?)).1
            }
        };
        Ok(R::decode(held.read(Self::offset_of(id), R::SIZE)))
    }

    /// Writes record `id` (which must have been allocated), logging through `tx`.
    pub fn put(&self, id: u64, rec: &R, tx: &mut TxCtx<'_>) -> Result<()> {
        if id >= self.count() {
            return Err(CommonError::InvalidState(format!(
                "write to unallocated record {id} (count {})",
                self.count()
            ))
            .into());
        }
        let page_id = Self::page_of(id);
        let off = Self::offset_of(id);
        let mut buf = vec![0u8; R::SIZE];
        rec.encode(&mut buf);
        logged_write(&self.pool, self.tag, page_id, off, &buf, tx)
    }

    /// Applies raw bytes at `(page, offset)` without logging — used by
    /// recovery redo and abort undo. Grows the store if needed and fixes the
    /// in-memory count when the header page is the target.
    pub fn apply_raw(&self, page: PageId, offset: u32, bytes: &[u8]) -> Result<()> {
        self.ensure_page(page)?;
        self.pool.write(page)?.write(offset as usize, bytes);
        if page == PageId(0) && offset == 0 && bytes.len() >= 8 {
            let c = u64::from_le_bytes(bytes[..8].try_into().expect("8b"));
            self.count.store(c, Ordering::Release);
        }
        Ok(())
    }

    /// Iterates over all live records as `(id, record)`.
    pub fn scan(&self) -> impl Iterator<Item = Result<(u64, R)>> + '_ {
        (0..self.count()).filter_map(move |id| match self.get(id) {
            Ok(r) if r.in_use() => Some(Ok((id, r))),
            Ok(_) => None,
            Err(e) => Some(Err(e)),
        })
    }

    /// Flushes dirty pages and syncs.
    pub fn flush(&self) -> Result<()> {
        Ok(self.pool.flush_all()?)
    }

    /// Drops the page cache (cold-cache experiments).
    pub fn evict_all(&self) -> Result<()> {
        Ok(self.pool.evict_all()?)
    }

    /// Buffer pool statistics.
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Resets buffer pool statistics.
    pub fn reset_stats(&self) {
        self.pool.reset_stats()
    }

    /// Bytes on the backing medium.
    pub fn size_bytes(&self) -> u64 {
        self.pool.size_bytes()
    }
}

/// One-page read cache for [`RecordStore::get_cached`]. It holds at most one
/// page's [`PageRef`], which pins the page and blocks writers to it: drop it
/// (or let it fall out of scope) when the batch is done, and never write to
/// its store while it is held.
#[derive(Default)]
pub struct PageCache<'a> {
    slot: Option<(PageId, PageRef<'a>)>,
}

/// Logs `bytes` at `(page, offset)` through `tx`, then writes them: one
/// buffer-pool access, whose write guard covers both the before-image read
/// and the write.
fn logged_write(
    pool: &BufferPool,
    tag: StoreTag,
    page: PageId,
    offset: usize,
    bytes: &[u8],
    tx: &mut TxCtx<'_>,
) -> Result<()> {
    let mut held = pool.write(page)?;
    tx.log_write(
        tag,
        page,
        offset as u32,
        held.read(offset, bytes.len()),
        bytes,
    )?;
    held.write(offset, bytes);
    Ok(())
}

/// Append-only store of raw bytes (string values, tweet text).
pub struct BlobStore {
    pool: BufferPool,
    tag: StoreTag,
    len: AtomicU64,
}

impl BlobStore {
    /// Opens a blob store over `backend`.
    pub fn open(backend: Box<dyn StorageBackend>, tag: StoreTag, pool: PoolConfig) -> Result<Self> {
        let pool = BufferPool::new(backend, pool);
        if pool.page_count() == 0 {
            let hdr = pool.allocate()?;
            debug_assert_eq!(hdr, PageId(0));
        }
        let len = pool.read(PageId(0))?.read_u64(0);
        Ok(BlobStore {
            pool,
            tag,
            len: AtomicU64::new(len),
        })
    }

    #[inline]
    fn page_of(offset: u64) -> PageId {
        PageId(1 + offset / PAGE_SIZE as u64)
    }

    /// Total bytes appended.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// True when no bytes have been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `bytes`, returning their starting offset.
    pub fn append(&self, bytes: &[u8], tx: &mut TxCtx<'_>) -> Result<u64> {
        let start = self.len.fetch_add(bytes.len() as u64, Ordering::AcqRel);
        let mut written = 0usize;
        while written < bytes.len() {
            let at = start + written as u64;
            let page_id = Self::page_of(at);
            while self.pool.page_count() <= page_id.raw() {
                self.pool.allocate()?;
            }
            let in_page = (at % PAGE_SIZE as u64) as usize;
            let chunk = (PAGE_SIZE - in_page).min(bytes.len() - written);
            let part = &bytes[written..written + chunk];
            logged_write(&self.pool, self.tag, page_id, in_page, part, tx)?;
            written += chunk;
        }
        // Persist the new length in the header.
        let new_len = start + bytes.len() as u64;
        logged_write(
            &self.pool,
            self.tag,
            PageId(0),
            0,
            &new_len.to_le_bytes(),
            tx,
        )?;
        Ok(start)
    }

    /// Reads `len` bytes at `offset`.
    pub fn read(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        if offset + len > self.len() {
            return Err(CommonError::NotFound(format!(
                "blob read [{offset}, {}) beyond length {}",
                offset + len,
                self.len()
            ))
            .into());
        }
        let mut out = Vec::with_capacity(len as usize);
        let mut read = 0u64;
        while read < len {
            let at = offset + read;
            let page_id = Self::page_of(at);
            let in_page = (at % PAGE_SIZE as u64) as usize;
            let chunk = ((PAGE_SIZE - in_page) as u64).min(len - read) as usize;
            out.extend_from_slice(self.pool.read(page_id)?.read(in_page, chunk));
            read += chunk as u64;
        }
        Ok(out)
    }

    /// Applies raw bytes (recovery/undo); see [`RecordStore::apply_raw`].
    pub fn apply_raw(&self, page: PageId, offset: u32, bytes: &[u8]) -> Result<()> {
        while self.pool.page_count() <= page.raw() {
            self.pool.allocate()?;
        }
        self.pool.write(page)?.write(offset as usize, bytes);
        if page == PageId(0) && offset == 0 && bytes.len() >= 8 {
            let l = u64::from_le_bytes(bytes[..8].try_into().expect("8b"));
            self.len.store(l, Ordering::Release);
        }
        Ok(())
    }

    /// Flushes dirty pages and syncs.
    pub fn flush(&self) -> Result<()> {
        Ok(self.pool.flush_all()?)
    }

    /// Drops the page cache.
    pub fn evict_all(&self) -> Result<()> {
        Ok(self.pool.evict_all()?)
    }

    /// Buffer pool statistics.
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Resets buffer pool statistics.
    pub fn reset_stats(&self) {
        self.pool.reset_stats()
    }

    /// Bytes on the backing medium.
    pub fn size_bytes(&self) -> u64 {
        self.pool.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::NodeRecord;
    use micrograph_common::{EdgeId, LabelId};
    use micrograph_pagestore::backend::MemBackend;

    fn node_store() -> RecordStore<NodeRecord> {
        RecordStore::open(
            Box::new(MemBackend::new()),
            StoreTag::Nodes,
            PoolConfig { capacity_pages: 16 },
        )
        .unwrap()
    }

    #[test]
    fn allocate_put_get() {
        let s = node_store();
        let mut tx = TxCtx::unlogged();
        let id = s.allocate(&mut tx).unwrap();
        assert_eq!(id, 0);
        let rec = NodeRecord {
            in_use: true,
            label: LabelId(1),
            first_rel: EdgeId(5),
            ..Default::default()
        };
        s.put(id, &rec, &mut tx).unwrap();
        assert_eq!(s.get(id).unwrap(), rec);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn get_beyond_count_errors() {
        let s = node_store();
        assert!(s.get(0).is_err());
    }

    #[test]
    fn put_unallocated_errors() {
        let s = node_store();
        let mut tx = TxCtx::unlogged();
        assert!(s.put(3, &NodeRecord::default(), &mut tx).is_err());
    }

    #[test]
    fn many_records_cross_pages() {
        let s = node_store();
        let mut tx = TxCtx::unlogged();
        let n = RecordStore::<NodeRecord>::records_per_page() * 3 + 5;
        for i in 0..n {
            let id = s.allocate(&mut tx).unwrap();
            let rec = NodeRecord {
                in_use: true,
                degree_out: i as u32,
                ..Default::default()
            };
            s.put(id, &rec, &mut tx).unwrap();
        }
        for i in (0..n).step_by(37) {
            assert_eq!(s.get(i as u64).unwrap().degree_out, i as u32);
        }
        assert_eq!(s.count(), n as u64);
    }

    #[test]
    fn scan_skips_unused() {
        let s = node_store();
        let mut tx = TxCtx::unlogged();
        for i in 0..5u32 {
            let id = s.allocate(&mut tx).unwrap();
            if i % 2 == 0 {
                s.put(
                    id,
                    &NodeRecord {
                        in_use: true,
                        degree_in: i,
                        ..Default::default()
                    },
                    &mut tx,
                )
                .unwrap();
            }
        }
        let live: Vec<u64> = s.scan().map(|r| r.unwrap().0).collect();
        assert_eq!(live, vec![0, 2, 4]);
    }

    #[test]
    fn blob_append_read_roundtrip() {
        let b = BlobStore::open(
            Box::new(MemBackend::new()),
            StoreTag::Blob,
            PoolConfig { capacity_pages: 16 },
        )
        .unwrap();
        let mut tx = TxCtx::unlogged();
        let o1 = b.append(b"hello", &mut tx).unwrap();
        let o2 = b.append(b"world", &mut tx).unwrap();
        assert_eq!(o1, 0);
        assert_eq!(o2, 5);
        assert_eq!(b.read(o1, 5).unwrap(), b"hello");
        assert_eq!(b.read(o2, 5).unwrap(), b"world");
        assert_eq!(b.len(), 10);
    }

    #[test]
    fn blob_spans_pages() {
        let b = BlobStore::open(
            Box::new(MemBackend::new()),
            StoreTag::Blob,
            PoolConfig { capacity_pages: 16 },
        )
        .unwrap();
        let mut tx = TxCtx::unlogged();
        let big: Vec<u8> = (0..PAGE_SIZE * 2 + 100).map(|i| (i % 251) as u8).collect();
        let off = b.append(&big, &mut tx).unwrap();
        assert_eq!(b.read(off, big.len() as u64).unwrap(), big);
        // Read a window crossing the page boundary.
        let window = b.read(PAGE_SIZE as u64 - 10, 20).unwrap();
        assert_eq!(window, big[PAGE_SIZE - 10..PAGE_SIZE + 10]);
    }

    #[test]
    fn blob_read_out_of_bounds_errors() {
        let b = BlobStore::open(
            Box::new(MemBackend::new()),
            StoreTag::Blob,
            PoolConfig { capacity_pages: 4 },
        )
        .unwrap();
        let mut tx = TxCtx::unlogged();
        b.append(b"abc", &mut tx).unwrap();
        assert!(b.read(1, 3).is_err());
    }

    #[test]
    fn count_persists_via_header() {
        // Use a shared Mem backend by writing through and reopening is not
        // possible with MemBackend (moved); use disk.
        let dir = std::env::temp_dir().join(format!("recstore-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("count.store");
        let _ = std::fs::remove_file(&path);
        {
            let s: RecordStore<NodeRecord> = RecordStore::open(
                Box::new(micrograph_pagestore::backend::DiskBackend::open(&path).unwrap()),
                StoreTag::Nodes,
                PoolConfig { capacity_pages: 8 },
            )
            .unwrap();
            let mut tx = TxCtx::unlogged();
            for _ in 0..7 {
                let id = s.allocate(&mut tx).unwrap();
                s.put(
                    id,
                    &NodeRecord {
                        in_use: true,
                        ..Default::default()
                    },
                    &mut tx,
                )
                .unwrap();
            }
            s.flush().unwrap();
        }
        {
            let s: RecordStore<NodeRecord> = RecordStore::open(
                Box::new(micrograph_pagestore::backend::DiskBackend::open(&path).unwrap()),
                StoreTag::Nodes,
                PoolConfig { capacity_pages: 8 },
            )
            .unwrap();
            assert_eq!(s.count(), 7);
            assert!(s.get(6).unwrap().in_use());
        }
        std::fs::remove_file(&path).unwrap();
    }
}
