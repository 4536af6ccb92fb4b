//! Fixed-size pages and a slotted-page layout.
//!
//! All record stores address storage in [`PAGE_SIZE`] units. Fixed-size
//! record stores (nodes, relationships) treat a page as a raw byte array;
//! variable-size stores (strings, property blobs) use the [`SlottedPage`]
//! view, which manages a slot directory growing from the front and cell
//! data growing from the back.

use micrograph_common::CommonError;

/// Size of every page in bytes (8 KiB, Neo4j's default page size).
pub const PAGE_SIZE: usize = 8192;

/// A fixed-size page of bytes.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({} bytes)", PAGE_SIZE)
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

impl Page {
    /// A page of all zero bytes.
    pub fn zeroed() -> Self {
        Page {
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// Builds a page from raw bytes.
    ///
    /// # Panics
    /// Panics when `bytes` is not exactly [`PAGE_SIZE`] long.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), PAGE_SIZE, "page must be {PAGE_SIZE} bytes");
        let mut p = Page::zeroed();
        p.data.copy_from_slice(bytes);
        p
    }

    /// Read-only view of the whole page.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data[..]
    }

    /// Mutable view of the whole page.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data[..]
    }

    /// Reads `len` bytes at `offset`.
    #[inline]
    pub fn read(&self, offset: usize, len: usize) -> &[u8] {
        &self.data[offset..offset + len]
    }

    /// Writes `bytes` at `offset`.
    #[inline]
    pub fn write(&mut self, offset: usize, bytes: &[u8]) {
        self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Reads a little-endian `u64` at `offset`.
    #[inline]
    pub fn read_u64(&self, offset: usize) -> u64 {
        u64::from_le_bytes(self.data[offset..offset + 8].try_into().expect("8 bytes"))
    }

    /// Writes a little-endian `u64` at `offset`.
    #[inline]
    pub fn write_u64(&mut self, offset: usize, v: u64) {
        self.data[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `u32` at `offset`.
    #[inline]
    pub fn read_u32(&self, offset: usize) -> u32 {
        u32::from_le_bytes(self.data[offset..offset + 4].try_into().expect("4 bytes"))
    }

    /// Writes a little-endian `u32` at `offset`.
    #[inline]
    pub fn write_u32(&mut self, offset: usize, v: u32) {
        self.data[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `u16` at `offset`.
    #[inline]
    pub fn read_u16(&self, offset: usize) -> u16 {
        u16::from_le_bytes(self.data[offset..offset + 2].try_into().expect("2 bytes"))
    }

    /// Writes a little-endian `u16` at `offset`.
    #[inline]
    pub fn write_u16(&mut self, offset: usize, v: u16) {
        self.data[offset..offset + 2].copy_from_slice(&v.to_le_bytes());
    }
}

/// FNV-1a checksum over page contents; cheap and adequate for detecting
/// torn writes in tests and recovery.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

// ---------------------------------------------------------------------------
// Slotted page layout
//
//   [n_slots u16][free_end u16][slot 0: off u16, len u16][slot 1]...
//   ...free space...
//   [cell k][cell k-1]...[cell 0]  (cells grow downward from PAGE_SIZE)
// ---------------------------------------------------------------------------

const HDR: usize = 4;
const SLOT: usize = 4;

/// A slotted-page view over a [`Page`], for variable-length cells.
///
/// Deleted slots keep their index (tombstoned with `len == 0, off == 0`)
/// so cell ids remain stable; `compact` reclaims their space.
#[derive(Debug)]
pub struct SlottedPage<'a> {
    page: &'a mut Page,
}

impl<'a> SlottedPage<'a> {
    /// Initializes an empty slotted layout on a page.
    pub fn init(page: &'a mut Page) -> Self {
        page.write_u16(0, 0);
        page.write_u16(2, PAGE_SIZE as u16);
        SlottedPage { page }
    }

    /// Wraps an already-initialized slotted page.
    pub fn open(page: &'a mut Page) -> Self {
        SlottedPage { page }
    }

    /// Number of slots (including tombstones).
    pub fn slot_count(&self) -> usize {
        self.page.read_u16(0) as usize
    }

    fn free_end(&self) -> usize {
        let fe = self.page.read_u16(2) as usize;
        if fe == 0 {
            PAGE_SIZE
        } else {
            fe
        }
    }

    /// Bytes currently available for a new cell (including its slot entry).
    pub fn free_space(&self) -> usize {
        let slots_end = HDR + self.slot_count() * SLOT;
        self.free_end().saturating_sub(slots_end)
    }

    /// True when a cell of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT
    }

    /// Inserts a cell, returning its slot index.
    pub fn insert(&mut self, cell: &[u8]) -> Result<usize, CommonError> {
        if !self.fits(cell.len()) {
            return Err(CommonError::InvalidState(format!(
                "slotted page full: need {} have {}",
                cell.len() + SLOT,
                self.free_space()
            )));
        }
        let n = self.slot_count();
        let new_end = self.free_end() - cell.len();
        self.page.write(new_end, cell);
        let slot_off = HDR + n * SLOT;
        self.page.write_u16(slot_off, new_end as u16);
        self.page.write_u16(slot_off + 2, cell.len() as u16);
        self.page.write_u16(0, (n + 1) as u16);
        self.page.write_u16(2, new_end as u16);
        Ok(n)
    }

    /// Reads the cell in `slot`; `None` for tombstones or out-of-range slots.
    pub fn get(&self, slot: usize) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let slot_off = HDR + slot * SLOT;
        let off = self.page.read_u16(slot_off) as usize;
        let len = self.page.read_u16(slot_off + 2) as usize;
        if off == 0 && len == 0 {
            return None; // tombstone
        }
        Some(self.page.read(off, len))
    }

    /// Tombstones a slot. Space is reclaimed by [`Self::compact`].
    pub fn delete(&mut self, slot: usize) {
        if slot >= self.slot_count() {
            return;
        }
        let slot_off = HDR + slot * SLOT;
        self.page.write_u16(slot_off, 0);
        self.page.write_u16(slot_off + 2, 0);
    }

    /// Rewrites live cells contiguously, erasing tombstone space. Slot
    /// indexes of live cells are preserved.
    pub fn compact(&mut self) {
        let n = self.slot_count();
        let mut cells: Vec<(usize, Vec<u8>)> = Vec::with_capacity(n);
        for s in 0..n {
            if let Some(c) = self.get(s) {
                cells.push((s, c.to_vec()));
            }
        }
        // Zero the cell area, rewrite from the back.
        let mut end = PAGE_SIZE;
        for (s, cell) in &cells {
            end -= cell.len();
            self.page.write(end, cell);
            let slot_off = HDR + s * SLOT;
            self.page.write_u16(slot_off, end as u16);
            self.page.write_u16(slot_off + 2, cell.len() as u16);
        }
        self.page.write_u16(2, end as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_int_roundtrips() {
        let mut p = Page::zeroed();
        p.write_u64(16, 0xDEAD_BEEF_CAFE_F00D);
        p.write_u32(100, 77);
        p.write_u16(200, 999);
        assert_eq!(p.read_u64(16), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(p.read_u32(100), 77);
        assert_eq!(p.read_u16(200), 999);
    }

    #[test]
    fn from_bytes_roundtrip() {
        let mut raw = vec![0u8; PAGE_SIZE];
        raw[0] = 1;
        raw[PAGE_SIZE - 1] = 2;
        let p = Page::from_bytes(&raw);
        assert_eq!(p.bytes(), &raw[..]);
    }

    #[test]
    #[should_panic(expected = "page must be")]
    fn from_bytes_wrong_len_panics() {
        let _ = Page::from_bytes(&[0u8; 100]);
    }

    #[test]
    fn checksum_detects_change() {
        let mut p = Page::zeroed();
        let c0 = checksum(p.bytes());
        p.write_u64(0, 1);
        assert_ne!(c0, checksum(p.bytes()));
    }

    #[test]
    fn slotted_insert_get() {
        let mut page = Page::zeroed();
        let mut sp = SlottedPage::init(&mut page);
        let a = sp.insert(b"hello").unwrap();
        let b = sp.insert(b"world!").unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(sp.get(0), Some(&b"hello"[..]));
        assert_eq!(sp.get(1), Some(&b"world!"[..]));
        assert_eq!(sp.get(2), None);
    }

    #[test]
    fn slotted_delete_tombstones() {
        let mut page = Page::zeroed();
        let mut sp = SlottedPage::init(&mut page);
        sp.insert(b"aaa").unwrap();
        sp.insert(b"bbb").unwrap();
        sp.delete(0);
        assert_eq!(sp.get(0), None);
        assert_eq!(sp.get(1), Some(&b"bbb"[..]));
    }

    #[test]
    fn slotted_fills_up() {
        let mut page = Page::zeroed();
        let mut sp = SlottedPage::init(&mut page);
        let cell = [7u8; 128];
        let mut n = 0;
        while sp.fits(cell.len()) {
            sp.insert(&cell).unwrap();
            n += 1;
        }
        assert!(n >= 60, "expected ~62 cells, got {n}");
        assert!(sp.insert(&cell).is_err());
        // All still readable.
        for s in 0..n {
            assert_eq!(sp.get(s), Some(&cell[..]));
        }
    }

    #[test]
    fn compact_reclaims_space() {
        let mut page = Page::zeroed();
        let mut sp = SlottedPage::init(&mut page);
        let big = [1u8; 1000];
        for _ in 0..8 {
            sp.insert(&big).unwrap();
        }
        assert!(!sp.fits(1000));
        for s in (0..8).step_by(2) {
            sp.delete(s);
        }
        sp.compact();
        assert!(sp.fits(1000), "compaction should free tombstone space");
        // Survivors unchanged, at their original slots.
        for s in (1..8).step_by(2) {
            assert_eq!(sp.get(s), Some(&big[..]));
        }
        // New insert goes to a fresh slot index.
        let s = sp.insert(&big).unwrap();
        assert_eq!(s, 8);
    }

    #[test]
    fn reopen_preserves_layout() {
        let mut page = Page::zeroed();
        {
            let mut sp = SlottedPage::init(&mut page);
            sp.insert(b"persist me").unwrap();
        }
        let sp = SlottedPage::open(&mut page);
        assert_eq!(sp.get(0), Some(&b"persist me"[..]));
        assert_eq!(sp.slot_count(), 1);
    }
}
