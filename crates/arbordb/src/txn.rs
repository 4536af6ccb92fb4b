//! Transactions: WAL logging, undo on abort, crash recovery support.
//!
//! The engine is single-writer: [`crate::db::GraphDb::begin_write`] hands out
//! one [`crate::db::WriteTxn`] at a time (guarded by a mutex). Every record mutation
//! flows through [`TxCtx::log_write`], which
//!
//! 1. saves the before-image in the transaction's undo list,
//! 2. appends the after-image to the WAL, and
//! 3. only then lets the store dirty the page.
//!
//! Commit forces the WAL; abort replays the undo list. Recovery (on open)
//! replays after-images of committed transactions — see [`crate::db`].

use micrograph_common::PageId;
use micrograph_pagestore::wal::{TxId, Wal, WalRecord};
use parking_lot::Mutex;

use crate::Result;

/// Identifies which physical store a page belongs to, so WAL records from
/// the four store files can share one log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreTag {
    /// Node record store.
    Nodes = 1,
    /// Relationship record store.
    Rels = 2,
    /// Property record store.
    Props = 3,
    /// String/blob store.
    Blob = 4,
}

impl StoreTag {
    /// Decodes a tag from the high byte of a tagged page id.
    pub fn from_u8(b: u8) -> Option<StoreTag> {
        match b {
            1 => Some(StoreTag::Nodes),
            2 => Some(StoreTag::Rels),
            3 => Some(StoreTag::Props),
            4 => Some(StoreTag::Blob),
            _ => None,
        }
    }
}

/// Packs a store tag into the high byte of a page id for WAL records.
pub fn tag_page(tag: StoreTag, page: PageId) -> PageId {
    debug_assert!(page.raw() < (1 << 56), "page id overflows tag space");
    PageId(((tag as u64) << 56) | page.raw())
}

/// Splits a tagged page id back into `(tag, page)`.
pub fn untag_page(tagged: PageId) -> Option<(StoreTag, PageId)> {
    let tag = StoreTag::from_u8((tagged.raw() >> 56) as u8)?;
    Some((tag, PageId(tagged.raw() & ((1 << 56) - 1))))
}

/// One undo entry: the before-image of a byte range.
#[derive(Debug, Clone)]
pub struct UndoEntry {
    /// Which store the page belongs to.
    pub store: StoreTag,
    /// Page within that store.
    pub page: PageId,
    /// Byte offset within the page.
    pub offset: u32,
    /// The bytes that were there before this transaction's write.
    pub before: Vec<u8>,
}

/// Where a transaction's writes are logged.
pub enum WalSink<'a> {
    /// Normal transactional mode: records go to the shared WAL.
    Logged {
        /// The database WAL.
        wal: &'a Mutex<Wal>,
        /// This transaction's id.
        tx: TxId,
    },
    /// Bulk-import mode: no logging, no undo (the paper's import tool is
    /// likewise non-transactional; durability comes from the final flush).
    Unlogged,
    /// In-memory database mode: undo is captured so abort works, but there
    /// is no WAL (nothing to recover after a process exit).
    UndoOnly,
    /// Group-commit mode (DESIGN.md §4j): `Update` records are buffered in
    /// memory and the whole tape — `Begin`, every `Update`, `Commit` — is
    /// appended and synced under ONE WAL lock acquisition at commit.
    /// Nothing touches the log before commit, which is what makes partial
    /// rollback safe: a savepoint rollback just truncates the pending
    /// buffer, and an abort writes nothing at all.
    Buffered {
        /// The database WAL.
        wal: &'a Mutex<Wal>,
        /// This transaction's id.
        tx: TxId,
        /// Update records awaiting the commit-time append.
        pending: Vec<WalRecord>,
    },
}

/// Mutation context threaded through every store write.
pub struct TxCtx<'a> {
    sink: WalSink<'a>,
    undo: Vec<UndoEntry>,
}

impl<'a> TxCtx<'a> {
    /// Creates a logged context; emits the `Begin` record.
    pub fn logged(wal: &'a Mutex<Wal>, tx: TxId) -> Result<Self> {
        wal.lock().append(&WalRecord::Begin { tx })?;
        Ok(TxCtx {
            sink: WalSink::Logged { wal, tx },
            undo: Vec::new(),
        })
    }

    /// Creates an unlogged (bulk import) context.
    pub fn unlogged() -> Self {
        TxCtx {
            sink: WalSink::Unlogged,
            undo: Vec::new(),
        }
    }

    /// Creates an undo-only context (in-memory databases).
    pub fn undo_only() -> Self {
        TxCtx {
            sink: WalSink::UndoOnly,
            undo: Vec::new(),
        }
    }

    /// Creates a buffered group-commit context. Unlike [`TxCtx::logged`]
    /// this appends nothing yet — the `Begin` record is part of the
    /// commit-time tape.
    pub fn buffered(wal: &'a Mutex<Wal>, tx: TxId) -> Self {
        TxCtx {
            sink: WalSink::Buffered {
                wal,
                tx,
                pending: Vec::new(),
            },
            undo: Vec::new(),
        }
    }

    /// True when this context performs WAL logging.
    pub fn is_logged(&self) -> bool {
        matches!(self.sink, WalSink::Logged { .. } | WalSink::Buffered { .. })
    }

    /// Current undo-list length — a savepoint coordinate.
    pub fn undo_len(&self) -> usize {
        self.undo.len()
    }

    /// Buffered WAL records so far (0 for non-buffered sinks) — the other
    /// savepoint coordinate.
    pub fn pending_wal_len(&self) -> usize {
        match &self.sink {
            WalSink::Buffered { pending, .. } => pending.len(),
            _ => 0,
        }
    }

    /// Rolls this context back to a savepoint: truncates the pending WAL
    /// buffer and splits off the undo suffix, returned newest-first so the
    /// caller can restore before-images in reverse application order.
    /// Only meaningful for [`TxCtx::buffered`]/[`TxCtx::undo_only`]
    /// contexts — an eagerly-logged sink has already shipped its `Update`
    /// records, which a later commit of the same transaction would replay.
    pub fn rollback_to(&mut self, undo_len: usize, wal_len: usize) -> Vec<UndoEntry> {
        debug_assert!(
            !matches!(self.sink, WalSink::Logged { .. }),
            "savepoint rollback requires a buffered or undo-only sink"
        );
        if let WalSink::Buffered { pending, .. } = &mut self.sink {
            pending.truncate(wal_len);
        }
        let mut suffix = self.undo.split_off(undo_len.min(self.undo.len()));
        suffix.reverse();
        suffix
    }

    /// Records a write: `before` → `after` at `(store, page, offset)`.
    /// Must be called *before* the page is modified.
    pub fn log_write(
        &mut self,
        store: StoreTag,
        page: PageId,
        offset: u32,
        before: &[u8],
        after: &[u8],
    ) -> Result<()> {
        match &mut self.sink {
            WalSink::Logged { wal, tx } => {
                self.undo.push(UndoEntry {
                    store,
                    page,
                    offset,
                    before: before.to_vec(),
                });
                wal.lock().append(&WalRecord::Update {
                    tx: *tx,
                    page: tag_page(store, page),
                    offset,
                    bytes: after.to_vec(),
                })?;
            }
            WalSink::Buffered { tx, pending, .. } => {
                self.undo.push(UndoEntry {
                    store,
                    page,
                    offset,
                    before: before.to_vec(),
                });
                pending.push(WalRecord::Update {
                    tx: *tx,
                    page: tag_page(store, page),
                    offset,
                    bytes: after.to_vec(),
                });
            }
            WalSink::UndoOnly => {
                self.undo.push(UndoEntry {
                    store,
                    page,
                    offset,
                    before: before.to_vec(),
                });
            }
            WalSink::Unlogged => {}
        }
        Ok(())
    }

    /// Emits the commit record and forces the log. Returns the undo list's
    /// length for statistics.
    pub fn commit(self) -> Result<usize> {
        let n = self.undo.len();
        match &self.sink {
            WalSink::Logged { wal, tx } => {
                let mut w = wal.lock();
                w.append(&WalRecord::Commit { tx: *tx })?;
                w.sync()?;
            }
            WalSink::Buffered { wal, tx, pending } => {
                // The group commit: the entire transaction tape lands under
                // one lock acquisition and one sync.
                let mut w = wal.lock();
                w.append(&WalRecord::Begin { tx: *tx })?;
                for rec in pending {
                    w.append(rec)?;
                }
                w.append(&WalRecord::Commit { tx: *tx })?;
                w.sync()?;
            }
            WalSink::UndoOnly | WalSink::Unlogged => {}
        }
        Ok(n)
    }

    /// Emits the abort record and hands back the undo list so the database
    /// can restore before-images (newest first). A buffered context writes
    /// nothing — its tape never reached the log.
    pub fn abort(self) -> Result<Vec<UndoEntry>> {
        if let WalSink::Logged { wal, tx } = &self.sink {
            wal.lock().append(&WalRecord::Abort { tx: *tx })?;
        }
        let mut undo = self.undo;
        undo.reverse();
        Ok(undo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        for tag in [
            StoreTag::Nodes,
            StoreTag::Rels,
            StoreTag::Props,
            StoreTag::Blob,
        ] {
            let t = tag_page(tag, PageId(12345));
            assert_eq!(untag_page(t), Some((tag, PageId(12345))));
        }
        assert_eq!(untag_page(PageId(99)), None, "untagged page has tag 0");
    }

    #[test]
    fn unlogged_ctx_skips_wal() {
        let mut ctx = TxCtx::unlogged();
        assert!(!ctx.is_logged());
        ctx.log_write(StoreTag::Nodes, PageId(0), 0, &[0], &[1])
            .unwrap();
        let undo = ctx.abort().unwrap();
        assert!(undo.is_empty());
    }

    #[test]
    fn logged_ctx_builds_undo_in_reverse() {
        let dir = std::env::temp_dir().join(format!("txn-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ctx.wal");
        let _ = std::fs::remove_file(&path);
        let wal = Mutex::new(Wal::open(&path).unwrap());
        let mut ctx = TxCtx::logged(&wal, 7).unwrap();
        ctx.log_write(StoreTag::Nodes, PageId(1), 0, &[1], &[2])
            .unwrap();
        ctx.log_write(StoreTag::Rels, PageId(2), 8, &[3], &[4])
            .unwrap();
        let undo = ctx.abort().unwrap();
        assert_eq!(undo.len(), 2);
        assert_eq!(undo[0].store, StoreTag::Rels, "undo is newest-first");
        assert_eq!(undo[1].before, vec![1]);
        drop(wal);
        let recs = Wal::read_all(&path).unwrap();
        assert_eq!(recs.len(), 4); // begin, 2 updates, abort
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn commit_forces_wal() {
        let dir = std::env::temp_dir().join(format!("txn-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("commit.wal");
        let _ = std::fs::remove_file(&path);
        let wal = Mutex::new(Wal::open(&path).unwrap());
        let mut ctx = TxCtx::logged(&wal, 9).unwrap();
        ctx.log_write(StoreTag::Props, PageId(0), 4, &[0, 0], &[5, 6])
            .unwrap();
        let n = ctx.commit().unwrap();
        assert_eq!(n, 1);
        drop(wal);
        let recs = Wal::read_all(&path).unwrap();
        let ups = Wal::committed_updates(&recs);
        assert_eq!(ups.len(), 1);
        assert_eq!(untag_page(ups[0].0), Some((StoreTag::Props, PageId(0))));
        std::fs::remove_file(&path).unwrap();
    }
}
