//! Property-based tests for the paged storage substrate.

use micrograph_common::PageId;
use micrograph_pagestore::backend::MemBackend;
use micrograph_pagestore::buffer::{BufferPool, PoolConfig};
use micrograph_pagestore::page::{Page, SlottedPage};
use micrograph_pagestore::wal::{Wal, WalRecord};
use proptest::prelude::*;

proptest! {
    /// Slotted page behaves like a Vec<Option<Vec<u8>>> model under
    /// insert/delete/compact, as long as cells fit.
    #[test]
    fn slotted_page_matches_model(ops in prop::collection::vec(
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..200).prop_map(Op::Insert),
            (0usize..40).prop_map(Op::Delete),
            Just(Op::Compact),
        ], 0..60)) {
        let mut page = Page::zeroed();
        let mut sp = SlottedPage::init(&mut page);
        let mut model: Vec<Option<Vec<u8>>> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(cell) => {
                    if sp.fits(cell.len()) {
                        let slot = sp.insert(&cell).unwrap();
                        prop_assert_eq!(slot, model.len());
                        model.push(Some(cell));
                    }
                }
                Op::Delete(slot) => {
                    sp.delete(slot);
                    if slot < model.len() {
                        model[slot] = None;
                    }
                }
                Op::Compact => sp.compact(),
            }
            for (i, cell) in model.iter().enumerate() {
                prop_assert_eq!(sp.get(i), cell.as_deref());
            }
        }
    }

    /// Any sequence of page writes through a tiny buffer pool is durable:
    /// reads after random eviction pressure always see the last write.
    #[test]
    fn buffer_pool_linearizes_writes(
        writes in prop::collection::vec((0u64..16, any::<u64>()), 1..100),
        capacity in 1usize..8,
    ) {
        let pool = BufferPool::new(Box::new(MemBackend::new()), PoolConfig { capacity_pages: capacity });
        let mut last = std::collections::HashMap::new();
        let max_page = writes.iter().map(|&(p, _)| p).max().unwrap();
        for _ in 0..=max_page {
            pool.allocate().unwrap();
        }
        for (p, v) in writes {
            pool.write(PageId(p)).unwrap().write_u64(0, v);
            last.insert(p, v);
        }
        for (p, v) in last {
            prop_assert_eq!(pool.read(PageId(p)).unwrap().read_u64(0), v);
        }
    }

    /// WAL append → read_all is the identity for arbitrary records.
    #[test]
    fn wal_roundtrip(recs in prop::collection::vec(record_strategy(), 0..30)) {
        let dir = std::env::temp_dir().join(format!("wal-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("t{:x}.wal", rand_suffix()));
        let _ = std::fs::remove_file(&path);
        {
            let mut w = Wal::open(&path).unwrap();
            for r in &recs {
                w.append(r).unwrap();
            }
            w.sync().unwrap();
        }
        let got = Wal::read_all(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(got, recs);
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>),
    Delete(usize),
    Compact,
}

fn record_strategy() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        any::<u64>().prop_map(|tx| WalRecord::Begin { tx }),
        any::<u64>().prop_map(|tx| WalRecord::Commit { tx }),
        any::<u64>().prop_map(|tx| WalRecord::Abort { tx }),
        (
            any::<u64>(),
            0u64..1000,
            0u32..8192,
            prop::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(tx, page, offset, bytes)| WalRecord::Update {
                tx,
                page: PageId(page),
                offset,
                bytes,
            }),
    ]
}

fn rand_suffix() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .subsec_nanos() as u64
        ^ (std::process::id() as u64) << 32
}
