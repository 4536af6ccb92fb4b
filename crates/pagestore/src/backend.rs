//! Storage backends: where pages physically live.
//!
//! The buffer pool talks to a [`StorageBackend`]. Two implementations:
//! [`DiskBackend`] (a single file of consecutive pages — what the paper's
//! import/disk-size measurements exercise) and [`MemBackend`] (used by unit
//! tests and the in-memory experiment presets).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use micrograph_common::PageId;

use crate::page::{Page, PAGE_SIZE};
use crate::Result;

/// A linear array of pages addressed by [`PageId`].
pub trait StorageBackend: Send {
    /// Reads page `id` into `page`.
    fn read_page(&mut self, id: PageId, page: &mut Page) -> Result<()>;
    /// Writes `page` at `id`, growing the backend if needed.
    fn write_page(&mut self, id: PageId, page: &Page) -> Result<()>;
    /// Appends a zero page, returning its id.
    fn allocate(&mut self) -> Result<PageId>;
    /// Number of allocated pages.
    fn page_count(&self) -> u64;
    /// Flushes to durable storage.
    fn sync(&mut self) -> Result<()>;
    /// Bytes occupied on the medium (the paper's "disk space" metric).
    fn size_bytes(&self) -> u64 {
        self.page_count() * PAGE_SIZE as u64
    }
}

/// In-memory backend: a vector of pages.
#[derive(Default)]
pub struct MemBackend {
    pages: Vec<Page>,
}

impl MemBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageBackend for MemBackend {
    fn read_page(&mut self, id: PageId, page: &mut Page) -> Result<()> {
        let src = self.pages.get(id.index()).ok_or_else(|| {
            micrograph_common::CommonError::NotFound(format!("page {id} of {}", self.pages.len()))
        })?;
        page.bytes_mut().copy_from_slice(src.bytes());
        Ok(())
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<()> {
        let idx = id.index();
        if idx >= self.pages.len() {
            self.pages.resize_with(idx + 1, Page::zeroed);
        }
        self.pages[idx].bytes_mut().copy_from_slice(page.bytes());
        Ok(())
    }

    fn allocate(&mut self) -> Result<PageId> {
        self.pages.push(Page::zeroed());
        Ok(PageId(self.pages.len() as u64 - 1))
    }

    fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

/// File-backed backend: page `i` lives at byte offset `i * PAGE_SIZE`.
pub struct DiskBackend {
    file: File,
    pages: u64,
}

impl DiskBackend {
    /// Opens (or creates) the backing file at `path`.
    pub fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(micrograph_common::CommonError::Corruption(format!(
                "store file {} has length {len}, not a multiple of {PAGE_SIZE}",
                path.display()
            )));
        }
        Ok(DiskBackend {
            file,
            pages: len / PAGE_SIZE as u64,
        })
    }

    fn seek_to(&mut self, id: PageId) -> Result<()> {
        self.file
            .seek(SeekFrom::Start(id.raw() * PAGE_SIZE as u64))?;
        Ok(())
    }
}

impl StorageBackend for DiskBackend {
    fn read_page(&mut self, id: PageId, page: &mut Page) -> Result<()> {
        if id.raw() >= self.pages {
            return Err(micrograph_common::CommonError::NotFound(format!(
                "page {id} of {}",
                self.pages
            )));
        }
        self.seek_to(id)?;
        self.file.read_exact(page.bytes_mut())?;
        Ok(())
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<()> {
        self.seek_to(id)?;
        self.file.write_all(page.bytes())?;
        if id.raw() >= self.pages {
            self.pages = id.raw() + 1;
        }
        Ok(())
    }

    fn allocate(&mut self) -> Result<PageId> {
        let id = PageId(self.pages);
        // Extend the file eagerly so page_count matches the file length.
        self.seek_to(id)?;
        self.file.write_all(Page::zeroed().bytes())?;
        self.pages += 1;
        Ok(id)
    }

    fn page_count(&self) -> u64 {
        self.pages
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: &mut dyn StorageBackend) {
        let a = backend.allocate().unwrap();
        let b = backend.allocate().unwrap();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        let mut p = Page::zeroed();
        p.write_u64(0, 41);
        backend.write_page(a, &p).unwrap();
        p.write_u64(0, 42);
        backend.write_page(b, &p).unwrap();
        let mut out = Page::zeroed();
        backend.read_page(a, &mut out).unwrap();
        assert_eq!(out.read_u64(0), 41);
        backend.read_page(b, &mut out).unwrap();
        assert_eq!(out.read_u64(0), 42);
        assert_eq!(backend.page_count(), 2);
        assert_eq!(backend.size_bytes(), 2 * PAGE_SIZE as u64);
        assert!(backend.read_page(PageId(5), &mut out).is_err());
        backend.sync().unwrap();
    }

    #[test]
    fn mem_backend_basics() {
        exercise(&mut MemBackend::new());
    }

    #[test]
    fn disk_backend_basics() {
        let dir = std::env::temp_dir().join(format!("pagestore-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("basics.store");
        let _ = std::fs::remove_file(&path);
        exercise(&mut DiskBackend::open(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn disk_backend_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("pagestore-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.store");
        let _ = std::fs::remove_file(&path);
        {
            let mut b = DiskBackend::open(&path).unwrap();
            let id = b.allocate().unwrap();
            let mut p = Page::zeroed();
            p.write_u64(8, 777);
            b.write_page(id, &p).unwrap();
            b.sync().unwrap();
        }
        {
            let mut b = DiskBackend::open(&path).unwrap();
            assert_eq!(b.page_count(), 1);
            let mut p = Page::zeroed();
            b.read_page(PageId(0), &mut p).unwrap();
            assert_eq!(p.read_u64(8), 777);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn disk_backend_rejects_torn_file() {
        let dir = std::env::temp_dir().join(format!("pagestore-test3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.store");
        std::fs::write(&path, vec![0u8; PAGE_SIZE + 17]).unwrap();
        assert!(DiskBackend::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
