//! Extent-based persistence with a bounded write cache.
//!
//! All durable state is an operation log, buffered in fixed-size extents.
//! The engine keeps appending to in-memory extents until the configured
//! cache is full, then **synchronously writes everything out** before
//! accepting more work. The paper observed exactly this: "Sharp jumps in the
//! insertion time of edges is when the cache is full and has to flush to
//! disk, before insertions can be continued" (Figure 3), versus the other
//! engine's continuous concurrent writes. The paper also tuned the same two
//! knobs we expose: "The extent size was set to 64 KB and cache size to 5GB"
//! and "Recovery and rollback features were disabled to allow faster
//! insertions".

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::Result;

/// Write-path configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExtentConfig {
    /// Extent size in bytes (the paper used 64 KB).
    pub extent_size: usize,
    /// Write-cache capacity in bytes: flush happens when exceeded.
    pub cache_bytes: usize,
    /// When true, every flush also fsyncs (the "recovery" feature the paper
    /// disabled for faster insertions).
    pub recovery: bool,
}

impl Default for ExtentConfig {
    fn default() -> Self {
        ExtentConfig {
            extent_size: 64 * 1024,
            cache_bytes: 8 * 1024 * 1024,
            recovery: false,
        }
    }
}

/// An append-only extent-buffered record log.
pub struct ExtentStore {
    path: PathBuf,
    file: File,
    config: ExtentConfig,
    current: Vec<u8>,
    pending: Vec<Vec<u8>>,
    pending_bytes: usize,
    bytes_written: u64,
    flushes: u64,
}

impl ExtentStore {
    /// Creates (truncating) a store at `path`.
    pub fn create(path: &Path, config: ExtentConfig) -> Result<Self> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(ExtentStore {
            path: path.to_path_buf(),
            file,
            config,
            current: Vec::with_capacity(config.extent_size),
            pending: Vec::new(),
            pending_bytes: 0,
            bytes_written: 0,
            flushes: 0,
        })
    }

    /// Opens for appending (replaying existing content is the caller's job).
    pub fn open_append(path: &Path, config: ExtentConfig) -> Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes_written = file.metadata()?.len();
        Ok(ExtentStore {
            path: path.to_path_buf(),
            file,
            config,
            current: Vec::with_capacity(config.extent_size),
            pending: Vec::new(),
            pending_bytes: 0,
            bytes_written,
            flushes: 0,
        })
    }

    /// Appends one length-prefixed record. Returns `true` when this append
    /// triggered a cache flush (the Figure 3 stall).
    pub fn append(&mut self, record: &[u8]) -> Result<bool> {
        self.current
            .extend_from_slice(&(record.len() as u32).to_le_bytes());
        self.current.extend_from_slice(record);
        if self.current.len() >= self.config.extent_size {
            let full = std::mem::replace(
                &mut self.current,
                Vec::with_capacity(self.config.extent_size),
            );
            self.pending_bytes += full.len();
            self.pending.push(full);
        }
        if self.pending_bytes + self.current.len() >= self.config.cache_bytes {
            self.flush_cache()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Writes every buffered extent out (the stall). Does not touch the
    /// open, partially-filled extent.
    pub fn flush_cache(&mut self) -> Result<()> {
        for extent in self.pending.drain(..) {
            self.file.write_all(&extent)?;
            self.bytes_written += extent.len() as u64;
        }
        self.pending_bytes = 0;
        if self.config.recovery {
            self.file.sync_data()?;
        }
        self.flushes += 1;
        Ok(())
    }

    /// Flushes everything including the open extent (end of load).
    pub fn finish(&mut self) -> Result<()> {
        let tail = std::mem::take(&mut self.current);
        if !tail.is_empty() {
            self.pending_bytes += tail.len();
            self.pending.push(tail);
        }
        self.flush_cache()?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Total bytes written to disk so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Number of cache flushes performed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads every record back from a store file (replay on open).
    pub fn read_records(path: &Path) -> Result<Vec<Vec<u8>>> {
        let mut buf = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut buf)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        }
        let mut out = Vec::new();
        let mut at = 0usize;
        while at + 4 <= buf.len() {
            let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4b")) as usize;
            let start = at + 4;
            if start + len > buf.len() {
                break; // torn tail (recovery off): ignore
            }
            out.push(buf[start..start + len].to_vec());
            at = start + len;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("extent-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_read_roundtrip() {
        let path = tmp("rt.gdb");
        let mut s = ExtentStore::create(
            &path,
            ExtentConfig {
                extent_size: 64,
                cache_bytes: 256,
                recovery: true,
            },
        )
        .unwrap();
        for i in 0..50u32 {
            s.append(&i.to_le_bytes()).unwrap();
        }
        s.finish().unwrap();
        let recs = ExtentStore::read_records(&path).unwrap();
        assert_eq!(recs.len(), 50);
        assert_eq!(recs[49], 49u32.to_le_bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flush_happens_when_cache_full() {
        let path = tmp("stall.gdb");
        let mut s = ExtentStore::create(
            &path,
            ExtentConfig {
                extent_size: 32,
                cache_bytes: 128,
                recovery: false,
            },
        )
        .unwrap();
        let mut stalls = 0;
        for _ in 0..100 {
            if s.append(&[7u8; 12]).unwrap() {
                stalls += 1;
            }
        }
        assert!(
            stalls > 2,
            "expected multiple cache-full stalls, got {stalls}"
        );
        assert!(s.bytes_written() > 0, "flushes must write to disk");
        s.finish().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn nothing_written_until_cache_full() {
        let path = tmp("lazy.gdb");
        let mut s = ExtentStore::create(
            &path,
            ExtentConfig {
                extent_size: 64,
                cache_bytes: 1 << 20,
                recovery: false,
            },
        )
        .unwrap();
        for _ in 0..10 {
            s.append(&[1u8; 16]).unwrap();
        }
        assert_eq!(s.bytes_written(), 0, "cache not full: no disk writes yet");
        s.finish().unwrap();
        assert!(s.bytes_written() > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_tolerated() {
        let path = tmp("torn.gdb");
        {
            let mut s = ExtentStore::create(&path, ExtentConfig::default()).unwrap();
            s.append(b"complete").unwrap();
            s.finish().unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[200, 0, 0, 0, 1, 2]).unwrap(); // claims 200 bytes, has 2
        }
        let recs = ExtentStore::read_records(&path).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0], b"complete");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty() {
        assert!(ExtentStore::read_records(Path::new("/no/such/file.gdb"))
            .unwrap()
            .is_empty());
    }
}
