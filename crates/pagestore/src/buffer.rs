//! The buffer pool: an in-memory cache of pages with clock eviction.
//!
//! Every logical page access goes through [`BufferPool::read`] or
//! [`BufferPool::write`] and is counted in [`PoolStats`] — the analog of the
//! "db hits" the paper reads off Cypher's profiler, and the mechanism behind
//! its cold-/warm-cache observations (Section 4): a cold pool faults every
//! page from the backend, and high-degree traversals "attempt to load a
//! large portion of the graph in memory", evicting everything else.
//!
//! # Concurrency
//!
//! A page hit takes no pool-wide lock. Frames live in one fixed slice, and a
//! page table of atomic slots (open addressing over frame indices, sized by
//! the capacity) says which frame may hold a page. A reader locks that frame
//! and then checks the frame's own page id, so a stale or missed slot only
//! sends it to the slow path. The slow path runs under the pool mutex and is
//! the only place that faults, evicts or remaps a page, and the only writer
//! of the page table.
//!
//! The frame lock is the pin: a [`PageRef`] is the frame's read guard and a
//! [`PageMut`] its write guard. The clock sweep claims a victim with
//! `try_write`, so a frame whose guard is held is never evicted.
//!
//! **Lock order:** never wait on a frame lock while holding the pool mutex.
//! A thread that holds a guard may wait for the mutex, so a mutex holder
//! that waited for a guard could deadlock; under the mutex only `try_write`
//! is used. A frame lock is not reentrant: a thread that holds a guard on a
//! page must not lock that page again (even a second [`PageRef`] can queue
//! behind a waiting writer).

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use micrograph_common::PageId;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::backend::StorageBackend;
use crate::page::Page;
use crate::Result;

/// Buffer pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Maximum number of pages held in memory.
    pub capacity_pages: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        // 64 MiB at 8 KiB pages.
        PoolConfig {
            capacity_pages: 8192,
        }
    }
}

/// Counters exposed by the pool. Snapshot via [`BufferPool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Logical page accesses (the "db hits" analog).
    pub accesses: u64,
    /// Accesses served from memory (`accesses - misses`).
    pub hits: u64,
    /// Accesses that faulted from the backend.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back to the backend.
    pub writebacks: u64,
}

#[derive(Default)]
struct AtomicStats {
    accesses: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
}

/// `Frame::page` of a frame that holds no page. No backend reaches this id:
/// its byte offset overflows `u64`.
const NO_PAGE: u64 = u64::MAX;

struct Frame {
    /// The page buffer, allocated when the frame is first used.
    data: RwLock<Option<Page>>,
    /// Id of the page held, or [`NO_PAGE`]. Changed only under the pool
    /// mutex *and* this frame's write lock, so it is stable under any guard.
    page: AtomicU64,
    dirty: AtomicBool,
    referenced: AtomicBool,
}

impl Frame {
    fn holds(&self, id: PageId) -> bool {
        self.page.load(Ordering::Acquire) == id.raw()
    }
}

/// A frame's write guard, as the slow path hands it over.
type FrameGuard<'a> = RwLockWriteGuard<'a, Option<Page>>;

/// The mutex-protected half of the pool. Methods that change the page table
/// take `&mut Inner` as proof that the caller holds the mutex.
struct Inner {
    backend: Box<dyn StorageBackend>,
    hand: usize,
}

/// A page held for reading: the frame's read guard. The page stays resident
/// until the guard is dropped.
pub struct PageRef<'a>(RwLockReadGuard<'a, Option<Page>>);

impl Deref for PageRef<'_> {
    type Target = Page;
    fn deref(&self) -> &Page {
        self.0.as_ref().expect("a mapped frame holds a page")
    }
}

/// A page held for writing: the frame's write guard. The page was marked
/// dirty when the guard was taken.
pub struct PageMut<'a>(RwLockWriteGuard<'a, Option<Page>>);

impl Deref for PageMut<'_> {
    type Target = Page;
    fn deref(&self) -> &Page {
        self.0.as_ref().expect("a mapped frame holds a page")
    }
}

impl DerefMut for PageMut<'_> {
    fn deref_mut(&mut self) -> &mut Page {
        self.0.as_mut().expect("a mapped frame holds a page")
    }
}

/// A buffer pool over a [`StorageBackend`].
pub struct BufferPool {
    inner: Mutex<Inner>,
    frames: Box<[Frame]>,
    /// Open-addressed page table with linear probing: each slot holds a
    /// frame index + 1, or 0 when empty. Its length is a power of two at
    /// least twice the capacity, so it never fills.
    table: Box<[AtomicU32]>,
    /// `64 - log2(table.len())`: the shift of the multiplicative hash.
    shift: u32,
    stats: AtomicStats,
}

impl BufferPool {
    /// Creates a pool over `backend` with the given configuration.
    pub fn new(backend: Box<dyn StorageBackend>, config: PoolConfig) -> Self {
        let capacity = config.capacity_pages;
        assert!(capacity > 0, "pool needs at least one frame");
        assert!(
            capacity < u32::MAX as usize / 2,
            "pool capacity exceeds the page table"
        );
        let slots = (2 * capacity).next_power_of_two();
        BufferPool {
            inner: Mutex::new(Inner { backend, hand: 0 }),
            frames: (0..capacity)
                .map(|_| Frame {
                    data: RwLock::new(None),
                    page: AtomicU64::new(NO_PAGE),
                    dirty: AtomicBool::new(false),
                    referenced: AtomicBool::new(false),
                })
                .collect(),
            table: (0..slots).map(|_| AtomicU32::new(0)).collect(),
            shift: 64 - slots.trailing_zeros(),
            stats: AtomicStats::default(),
        }
    }

    /// Allocates a fresh zero page in the backend and returns its id.
    pub fn allocate(&self) -> Result<PageId> {
        let mut inner = self.inner.lock();
        inner.backend.allocate()
    }

    /// Number of pages in the backend.
    pub fn page_count(&self) -> u64 {
        self.inner.lock().backend.page_count()
    }

    /// Bytes on the backing medium.
    pub fn size_bytes(&self) -> u64 {
        self.inner.lock().backend.size_bytes()
    }

    /// Holds page `id` for reading, faulting it from the backend on a miss.
    pub fn read(&self, id: PageId) -> Result<PageRef<'_>> {
        let (_, guard) = self.pin(id, |f| f.data.read(), RwLockWriteGuard::downgrade)?;
        Ok(PageRef(guard))
    }

    /// Holds page `id` for writing and marks it dirty, faulting it from the
    /// backend on a miss.
    pub fn write(&self, id: PageId) -> Result<PageMut<'_>> {
        let (frame, guard) = self.pin(id, |f| f.data.write(), |g| g)?;
        // Set under the write lock, so a flush holding a read guard cannot
        // clear it before the write it announces.
        frame.dirty.store(true, Ordering::Release);
        Ok(PageMut(guard))
    }

    /// Finds `id`'s frame and locks it with `lock`, counting one access
    /// however many times a race sends it round the loop. On a miss the
    /// slow path hands back the frame write-locked, converted by `faulted`.
    fn pin<'a, G>(
        &'a self,
        id: PageId,
        lock: impl Fn(&'a Frame) -> G,
        faulted: impl FnOnce(FrameGuard<'a>) -> G,
    ) -> Result<(&'a Frame, G)> {
        self.stats.accesses.fetch_add(1, Ordering::Relaxed);
        loop {
            match self.lookup(id) {
                Some(frame) => {
                    let guard = lock(frame);
                    if frame.holds(id) {
                        frame.referenced.store(true, Ordering::Relaxed);
                        return Ok((frame, guard));
                    }
                }
                None => {
                    if let Some((frame, guard)) = self.fault(id)? {
                        return Ok((frame, faulted(guard)));
                    }
                }
            }
        }
    }

    #[inline]
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The frame the page table maps `id` to, if any. Lock-free; the answer
    /// may be stale by the time the caller locks the frame.
    fn lookup(&self, id: PageId) -> Option<&Frame> {
        let mask = self.table.len() - 1;
        let mut i = self.home(id.raw());
        for _ in 0..self.table.len() {
            // Acquire pairs with the Release stores in `map`/`unmap`.
            let slot = self.table[i].load(Ordering::Acquire);
            if slot == 0 {
                return None;
            }
            let frame = &self.frames[slot as usize - 1];
            if frame.holds(id) {
                return Some(frame);
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// The slow path, under the pool mutex. Returns `None` when `id` turned
    /// out to be resident (the caller retries the lookup); otherwise faults
    /// it into a victim frame and returns that frame write-locked.
    fn fault(&self, id: PageId) -> Result<Option<(&Frame, FrameGuard<'_>)>> {
        let mut inner = self.inner.lock();
        if self.lookup(id).is_some() {
            return Ok(None);
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let (fi, mut guard) = self.claim_frame(&mut inner)?;
        let frame = &self.frames[fi];
        let old = frame.page.load(Ordering::Acquire);
        if old != NO_PAGE {
            self.write_back(&mut inner, frame, &guard)?;
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        // The old mapping stays published while the new page loads: readers
        // that find it block on the frame lock and then see the new page id.
        let page = guard.get_or_insert_with(Page::zeroed);
        let loaded = inner.backend.read_page(id, page);
        if old != NO_PAGE {
            self.unmap(&mut inner, fi, old);
        }
        loaded?;
        self.map(&mut inner, fi, id);
        frame.referenced.store(true, Ordering::Relaxed);
        Ok(Some((frame, guard)))
    }

    /// Finds a frame for a new page with the clock algorithm and returns it
    /// write-locked (still mapped to its old page, if any). Until the pool
    /// fills, the hand meets only unused frames and takes them in order.
    fn claim_frame(&self, inner: &mut Inner) -> Result<(usize, FrameGuard<'_>)> {
        let n = self.frames.len();
        // Clock sweep: skip held frames (the lock is the pin); clear
        // reference bits; give up after 3 full sweeps (every frame held) —
        // a configuration error.
        for _ in 0..3 * n {
            let i = inner.hand;
            inner.hand = (inner.hand + 1) % n;
            let frame = &self.frames[i];
            let Some(guard) = frame.data.try_write() else {
                continue;
            };
            if frame.referenced.swap(false, Ordering::Relaxed) {
                continue;
            }
            return Ok((i, guard));
        }
        Err(micrograph_common::CommonError::InvalidState(
            "buffer pool exhausted: all frames pinned".into(),
        ))
    }

    /// Writes `frame`'s page back if it is dirty. The caller holds the mutex
    /// (`inner`) and a guard on the frame, so no writer can dirty it
    /// meanwhile; a failed write leaves the page dirty.
    fn write_back(&self, inner: &mut Inner, frame: &Frame, data: &Option<Page>) -> Result<()> {
        let Some(page) = data else {
            return Ok(());
        };
        // Only `write` sets `dirty`, on a mapped frame, and nothing unmaps
        // a frame before writing it back, so a dirty frame is mapped.
        if frame.dirty.swap(false, Ordering::AcqRel) {
            let id = PageId(frame.page.load(Ordering::Acquire));
            if let Err(e) = inner.backend.write_page(id, page) {
                frame.dirty.store(true, Ordering::Release);
                return Err(e);
            }
            self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Publishes frame `fi` as holding page `id`. The caller holds the
    /// frame's write lock.
    fn map(&self, _inner: &mut Inner, fi: usize, id: PageId) {
        self.frames[fi].page.store(id.raw(), Ordering::Release);
        let mask = self.table.len() - 1;
        let home = self.home(id.raw());
        let slot = (0..self.table.len())
            .map(|k| (home + k) & mask)
            .find(|&i| self.table[i].load(Ordering::Relaxed) == 0)
            .expect("the page table is twice the capacity, so it has a free slot");
        self.table[slot].store(fi as u32 + 1, Ordering::Release);
    }

    /// Removes frame `fi`'s mapping of page `old`. The caller holds the
    /// frame's write lock. Later entries of the probe run shift back into the
    /// hole (no tombstones); a reader racing the shift may miss an entry and
    /// takes the slow path.
    fn unmap(&self, _inner: &mut Inner, fi: usize, old: u64) {
        let mask = self.table.len() - 1;
        let mut hole = self.home(old);
        while self.table[hole].load(Ordering::Relaxed) != fi as u32 + 1 {
            hole = (hole + 1) & mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let slot = self.table[j].load(Ordering::Relaxed);
            if slot == 0 {
                break;
            }
            let home = self.home(self.frames[slot as usize - 1].page.load(Ordering::Relaxed));
            // The entry may fill the hole unless its home lies after the
            // hole on the way to `j`.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.table[hole].store(slot, Ordering::Release);
                hole = j;
            }
        }
        self.table[hole].store(0, Ordering::Release);
        self.frames[fi].page.store(NO_PAGE, Ordering::Release);
    }

    /// Writes every dirty frame back and syncs the backend.
    pub fn flush_all(&self) -> Result<()> {
        for frame in self.frames.iter() {
            if !frame.dirty.load(Ordering::Acquire) {
                continue;
            }
            // Frame lock first, then the mutex: the allowed order.
            let guard = frame.data.read();
            self.write_back(&mut self.inner.lock(), frame, &guard)?;
        }
        self.inner.lock().backend.sync()
    }

    /// Flushes and then drops every frame no guard holds — the "cold cache"
    /// switch used by the Section 4 warm-up experiments.
    pub fn evict_all(&self) -> Result<()> {
        self.flush_all()?;
        let mut inner = self.inner.lock();
        for (fi, frame) in self.frames.iter().enumerate() {
            let Some(guard) = frame.data.try_write() else {
                continue;
            };
            let old = frame.page.load(Ordering::Acquire);
            if old != NO_PAGE {
                self.write_back(&mut inner, frame, &guard)?;
                self.unmap(&mut inner, fi, old);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> PoolStats {
        let misses = self.stats.misses.load(Ordering::Relaxed);
        let accesses = self.stats.accesses.load(Ordering::Relaxed);
        PoolStats {
            accesses,
            // Saturating: a snapshot taken mid-access may see the miss of an
            // access it does not yet count.
            hits: accesses.saturating_sub(misses),
            misses,
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            writebacks: self.stats.writebacks.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the counters (between measured query runs).
    pub fn reset_stats(&self) {
        self.stats.accesses.store(0, Ordering::Relaxed);
        self.stats.misses.store(0, Ordering::Relaxed);
        self.stats.evictions.store(0, Ordering::Relaxed);
        self.stats.writebacks.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(
            Box::new(MemBackend::new()),
            PoolConfig {
                capacity_pages: capacity,
            },
        )
    }

    #[test]
    fn read_after_write() {
        let p = pool(4);
        let id = p.allocate().unwrap();
        p.write(id).unwrap().write_u64(0, 123);
        assert_eq!(p.read(id).unwrap().read_u64(0), 123);
    }

    #[test]
    fn hits_and_misses_counted() {
        let p = pool(4);
        let id = p.allocate().unwrap();
        drop(p.read(id).unwrap());
        drop(p.read(id).unwrap());
        let s = p.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let p = pool(2);
        let ids: Vec<PageId> = (0..4).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id).unwrap().write_u64(0, i as u64 + 1);
        }
        // Capacity 2 < 4 pages → evictions happened; data must survive.
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.read(id).unwrap().read_u64(0), i as u64 + 1, "page {i}");
        }
        let s = p.stats();
        assert!(s.evictions >= 2, "stats: {s:?}");
        assert!(s.writebacks >= 2);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let c = p.allocate().unwrap();
        p.write(a).unwrap().write_u64(0, 7);
        // A held PageRef pins a: b and c fight over the other frame.
        let ha = p.read(a).unwrap();
        for _ in 0..3 {
            drop(p.read(b).unwrap());
            drop(p.read(c).unwrap());
        }
        assert_eq!(ha.read_u64(0), 7);
        drop(ha);
        let misses = p.stats().misses;
        assert_eq!(p.read(a).unwrap().read_u64(0), 7);
        assert_eq!(p.stats().misses, misses, "a was evicted while held");
    }

    #[test]
    fn all_pinned_errors() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let c = p.allocate().unwrap();
        let _ha = p.read(a).unwrap();
        let _hb = p.write(b).unwrap();
        assert!(p.read(c).is_err());
    }

    #[test]
    fn evict_all_forces_cold_cache() {
        let p = pool(8);
        let id = p.allocate().unwrap();
        p.write(id).unwrap().write_u64(0, 9);
        p.reset_stats();
        p.evict_all().unwrap();
        assert_eq!(p.read(id).unwrap().read_u64(0), 9);
        let s = p.stats();
        assert_eq!(s.misses, 1, "expected a cold read: {s:?}");
    }

    #[test]
    fn flush_all_persists_to_backend() {
        let p = pool(8);
        let id = p.allocate().unwrap();
        p.write(id).unwrap().write_u64(16, 55);
        p.flush_all().unwrap();
        // Evict and re-read from backend.
        p.evict_all().unwrap();
        assert_eq!(p.read(id).unwrap().read_u64(16), 55);
    }

    #[test]
    fn concurrent_readers() {
        use std::sync::Arc as StdArc;
        let p = StdArc::new(pool(16));
        let id = p.allocate().unwrap();
        p.write(id).unwrap().write_u64(0, 31415);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    assert_eq!(p.read(id).unwrap().read_u64(0), 31415);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Four readers and a writer share 8 frames over 64 pages, so nearly
    /// every access races an eviction. Each page holds a stamp (page id at
    /// offset 0, version at offset 8). Readers check that a page is the one
    /// they asked for and that its version never goes back; afterwards the
    /// counters must add up to exactly the calls made. A watchdog turns a
    /// deadlock into a failure.
    #[test]
    fn reads_under_eviction() {
        use std::sync::mpsc;
        use std::sync::Arc;
        use std::time::Duration;

        const PAGES: u64 = 64;
        const READERS: u64 = 4;
        const READS: u64 = 20_000;
        const WRITES: u64 = 20_000;

        fn next(state: &mut u64) -> u64 {
            // xorshift64: fixed seeds, so every run makes the same requests.
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state
        }

        fn check(page: &Page, id: u64, seen: &mut [u64]) {
            assert_eq!(page.read_u64(0), id, "asked for page {id}, got another");
            let version = page.read_u64(8);
            let last = &mut seen[id as usize];
            assert!(
                version >= *last,
                "page {id} went back from version {last} to {version}"
            );
            *last = version;
        }

        let p = Arc::new(pool(8));
        for i in 0..PAGES {
            let id = p.allocate().unwrap();
            p.write(id).unwrap().write_u64(0, i);
        }
        p.reset_stats();

        // Readers 0 and 1 hold a second page at times; at most 2 + 2 + 1 +
        // 1 readers' guards and the writer's one are held at once (7 < 8),
        // so the pool never runs out of frames.
        let readers = (0..READERS).map(|r| {
            let p = p.clone();
            std::thread::spawn(move || {
                let mut rng = 0x9E37_79B9_7F4A_7C15 ^ (r + 1);
                let mut seen = vec![0u64; PAGES as usize];
                let mut calls = 0;
                for _ in 0..READS {
                    let a = next(&mut rng) % PAGES;
                    let held = p.read(PageId(a)).unwrap();
                    calls += 1;
                    check(&held, a, &mut seen);
                    if r < 2 && next(&mut rng).is_multiple_of(4) {
                        let b = (a + 1 + next(&mut rng) % (PAGES - 1)) % PAGES;
                        let second = p.read(PageId(b)).unwrap();
                        calls += 1;
                        check(&second, b, &mut seen);
                        check(&held, a, &mut seen);
                    }
                }
                calls
            })
        });
        let writer = {
            let p = p.clone();
            std::thread::spawn(move || {
                let mut rng = 0xD1B5_4A32_D192_ED03;
                let mut versions = vec![0u64; PAGES as usize];
                for _ in 0..WRITES {
                    let a = next(&mut rng) % PAGES;
                    let mut page = p.write(PageId(a)).unwrap();
                    assert_eq!(page.read_u64(0), a, "writer got the wrong page");
                    versions[a as usize] += 1;
                    page.write_u64(8, versions[a as usize]);
                }
                WRITES
            })
        };
        let workers: Vec<_> = readers.chain(std::iter::once(writer)).collect();
        let (tx, rx) = mpsc::channel();
        let joiner = std::thread::spawn(move || {
            let results: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
            tx.send(results)
                .expect("the test thread waits for the results");
        });
        let results = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("workers did not finish within 60 s: deadlock");
        joiner.join().unwrap();
        let mut calls = 0;
        for r in results {
            calls += r.unwrap_or_else(|e| std::panic::resume_unwind(e));
        }
        let s = p.stats();
        assert_eq!(s.accesses, calls, "one access per call: {s:?}");
        assert_eq!(s.hits + s.misses, s.accesses, "{s:?}");
        assert!(s.evictions > 1000, "the workload must evict: {s:?}");
    }
}
