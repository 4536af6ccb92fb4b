//! Write-ahead log.
//!
//! `arbordb` is "fully transactional" like its model system: every mutation
//! is logged before the page is dirtied, commits force the log, and recovery
//! replays committed transactions after a crash. The log is a single
//! append-only file of length-prefixed, checksummed records.
//!
//! Record wire format:
//! ```text
//! [payload_len u32][crc32 u32][kind u8][payload ...]
//! ```

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use micrograph_common::{CommonError, PageId};

use crate::page::checksum;
use crate::Result;

/// Transaction identifier.
pub type TxId = u64;

/// A logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Transaction `tx` began.
    Begin {
        /// Transaction id.
        tx: TxId,
    },
    /// Transaction `tx` wrote `bytes` at `offset` within `page` (redo image).
    Update {
        /// Transaction id.
        tx: TxId,
        /// Target page.
        page: PageId,
        /// Byte offset within the page.
        offset: u32,
        /// The after-image bytes.
        bytes: Vec<u8>,
    },
    /// Transaction `tx` committed.
    Commit {
        /// Transaction id.
        tx: TxId,
    },
    /// Transaction `tx` aborted; its updates must not be replayed.
    Abort {
        /// Transaction id.
        tx: TxId,
    },
}

impl WalRecord {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::Begin { .. } => 1,
            WalRecord::Update { .. } => 2,
            WalRecord::Commit { .. } => 3,
            WalRecord::Abort { .. } => 4,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Begin { tx } | WalRecord::Commit { tx } | WalRecord::Abort { tx } => {
                out.extend_from_slice(&tx.to_le_bytes());
            }
            WalRecord::Update {
                tx,
                page,
                offset,
                bytes,
            } => {
                out.extend_from_slice(&tx.to_le_bytes());
                out.extend_from_slice(&page.raw().to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
        }
    }

    fn decode(kind: u8, payload: &[u8]) -> Result<WalRecord> {
        let take_u64 = |b: &[u8], at: usize| -> Result<u64> {
            b.get(at..at + 8)
                .map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
                .ok_or_else(|| CommonError::Corruption("short wal payload".into()))
        };
        let take_u32 = |b: &[u8], at: usize| -> Result<u32> {
            b.get(at..at + 4)
                .map(|s| u32::from_le_bytes(s.try_into().expect("4 bytes")))
                .ok_or_else(|| CommonError::Corruption("short wal payload".into()))
        };
        match kind {
            1 => Ok(WalRecord::Begin {
                tx: take_u64(payload, 0)?,
            }),
            3 => Ok(WalRecord::Commit {
                tx: take_u64(payload, 0)?,
            }),
            4 => Ok(WalRecord::Abort {
                tx: take_u64(payload, 0)?,
            }),
            2 => {
                let tx = take_u64(payload, 0)?;
                let page = PageId(take_u64(payload, 8)?);
                let offset = take_u32(payload, 16)?;
                let len = take_u32(payload, 20)? as usize;
                let bytes = payload
                    .get(24..24 + len)
                    .ok_or_else(|| CommonError::Corruption("short wal update body".into()))?
                    .to_vec();
                Ok(WalRecord::Update {
                    tx,
                    page,
                    offset,
                    bytes,
                })
            }
            k => Err(CommonError::Corruption(format!(
                "unknown wal record kind {k}"
            ))),
        }
    }
}

/// An append-only write-ahead log.
pub struct Wal {
    path: PathBuf,
    writer: BufWriter<File>,
    records_written: u64,
}

impl Wal {
    /// Opens (creating if absent, appending if present) the log at `path`.
    pub fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Wal {
            path: path.to_path_buf(),
            writer: BufWriter::new(file),
            records_written: 0,
        })
    }

    /// Appends a record (buffered; not yet durable).
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        let mut payload = Vec::with_capacity(32);
        rec.encode_payload(&mut payload);
        let crc = checksum(&payload);
        self.writer
            .write_all(&(payload.len() as u32).to_le_bytes())?;
        self.writer.write_all(&crc.to_le_bytes())?;
        self.writer.write_all(&[rec.kind()])?;
        self.writer.write_all(&payload)?;
        self.records_written += 1;
        Ok(())
    }

    /// Flushes buffers and fsyncs — called on commit.
    pub fn sync(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }

    /// Number of records appended through this handle.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads every complete, checksum-valid record from the log at `path`.
    /// A torn tail (partial final record) is tolerated and ignored, as after
    /// a crash mid-append.
    pub fn read_all(path: &Path) -> Result<Vec<WalRecord>> {
        let mut buf = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut buf)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        }
        let mut records = Vec::new();
        let mut at = 0usize;
        while at + 9 <= buf.len() {
            let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(buf[at + 4..at + 8].try_into().expect("4 bytes"));
            let kind = buf[at + 8];
            let body_start = at + 9;
            if body_start + len > buf.len() {
                break; // torn tail
            }
            let payload = &buf[body_start..body_start + len];
            if checksum(payload) != crc {
                break; // torn/corrupt tail: stop replay here
            }
            records.push(WalRecord::decode(kind, payload)?);
            at = body_start + len;
        }
        Ok(records)
    }

    /// Computes the redo actions of *committed* transactions, in log order.
    /// Updates from unfinished or aborted transactions are dropped.
    pub fn committed_updates(records: &[WalRecord]) -> Vec<(PageId, u32, &[u8])> {
        use std::collections::HashSet;
        let committed: HashSet<TxId> = records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Commit { tx } => Some(*tx),
                _ => None,
            })
            .collect();
        records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Update {
                    tx,
                    page,
                    offset,
                    bytes,
                } if committed.contains(tx) => Some((*page, *offset, bytes.as_slice())),
                _ => None,
            })
            .collect()
    }

    /// Truncates the log (after a checkpoint has flushed all pages).
    pub fn truncate(&mut self) -> Result<()> {
        self.writer.flush()?;
        let file = OpenOptions::new().write(true).open(&self.path)?;
        file.set_len(0)?;
        file.sync_data()?;
        self.writer = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_read_roundtrip() {
        let path = tmp("roundtrip.wal");
        let recs = vec![
            WalRecord::Begin { tx: 1 },
            WalRecord::Update {
                tx: 1,
                page: PageId(3),
                offset: 64,
                bytes: vec![1, 2, 3],
            },
            WalRecord::Commit { tx: 1 },
        ];
        {
            let mut w = Wal::open(&path).unwrap();
            for r in &recs {
                w.append(r).unwrap();
            }
            w.sync().unwrap();
            assert_eq!(w.records_written(), 3);
        }
        assert_eq!(Wal::read_all(&path).unwrap(), recs);
    }

    #[test]
    fn missing_file_is_empty() {
        assert!(Wal::read_all(Path::new("/nonexistent/definitely.wal"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn torn_tail_tolerated() {
        let path = tmp("torn.wal");
        {
            let mut w = Wal::open(&path).unwrap();
            w.append(&WalRecord::Begin { tx: 9 }).unwrap();
            w.append(&WalRecord::Commit { tx: 9 }).unwrap();
            w.sync().unwrap();
        }
        // Append garbage simulating a crash mid-record.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xFF, 0x00, 0x00, 0x00, 0x12]).unwrap();
        }
        let recs = Wal::read_all(&path).unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn committed_updates_filters_uncommitted() {
        let recs = vec![
            WalRecord::Begin { tx: 1 },
            WalRecord::Update {
                tx: 1,
                page: PageId(0),
                offset: 0,
                bytes: vec![1],
            },
            WalRecord::Begin { tx: 2 },
            WalRecord::Update {
                tx: 2,
                page: PageId(0),
                offset: 0,
                bytes: vec![2],
            },
            WalRecord::Commit { tx: 1 },
            // tx 2 never commits
            WalRecord::Begin { tx: 3 },
            WalRecord::Update {
                tx: 3,
                page: PageId(1),
                offset: 8,
                bytes: vec![3],
            },
            WalRecord::Abort { tx: 3 },
        ];
        let ups = Wal::committed_updates(&recs);
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].0, PageId(0));
        assert_eq!(ups[0].2, &[1]);
    }

    #[test]
    fn truncate_empties_log() {
        let path = tmp("truncate.wal");
        let mut w = Wal::open(&path).unwrap();
        w.append(&WalRecord::Begin { tx: 4 }).unwrap();
        w.sync().unwrap();
        w.truncate().unwrap();
        assert!(Wal::read_all(&path).unwrap().is_empty());
        // Still usable after truncation.
        w.append(&WalRecord::Begin { tx: 5 }).unwrap();
        w.sync().unwrap();
        assert_eq!(
            Wal::read_all(&path).unwrap(),
            vec![WalRecord::Begin { tx: 5 }]
        );
    }
}
