//! Dense-node relationship groups: the import-time optimization must be
//! transparent — identical answers with and without groups, before and
//! after transactional writes invalidate them.

use arbordb::db::{DbConfig, GraphDb};
use arbordb::import::{
    bulk_import, ColumnSpec, ColumnType, ImportOptions, ImportSource, NodeFile, RelFile,
};
use arbordb::{Direction, NodeId, Value};
use std::io::Write as _;

struct Guard(std::path::PathBuf);
impl Drop for Guard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds a star: user 0 has `fan` outgoing follows edges plus a handful of
/// posts edges, interleaved in the source files.
fn star_db(threshold: u32, fan: usize) -> (GraphDb, Guard) {
    let dir = std::env::temp_dir().join(format!(
        "dense-groups-{threshold}-{fan}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut users = String::new();
    for i in 0..=fan {
        users.push_str(&format!("{i},user{i}\n"));
    }
    let mut tweets = String::new();
    for i in 0..5 {
        tweets.push_str(&format!("{i},tweet {i}\n"));
    }
    let mut follows = String::new();
    for i in 1..=fan {
        follows.push_str(&format!("0,{i}\n"));
        if i % 3 == 0 {
            follows.push_str(&format!("{i},0\n"));
        }
    }
    let mut posts = String::new();
    for i in 0..5 {
        posts.push_str(&format!("0,{i}\n"));
    }
    let w = |name: &str, content: &str| {
        let p = dir.join(name);
        std::fs::File::create(&p)
            .unwrap()
            .write_all(content.as_bytes())
            .unwrap();
        p
    };
    let source = ImportSource {
        nodes: vec![
            NodeFile {
                label: "user".into(),
                path: w("users.csv", &users),
                columns: vec![
                    ColumnSpec::new("uid", ColumnType::Int),
                    ColumnSpec::new("name", ColumnType::Str),
                ],
                id_column: "uid".into(),
            },
            NodeFile {
                label: "tweet".into(),
                path: w("tweets.csv", &tweets),
                columns: vec![
                    ColumnSpec::new("tid", ColumnType::Int),
                    ColumnSpec::new("text", ColumnType::Str),
                ],
                id_column: "tid".into(),
            },
        ],
        rels: vec![
            RelFile {
                rel_type: "follows".into(),
                path: w("follows.csv", &follows),
                src: ("user".into(), ColumnType::Int),
                dst: ("user".into(), ColumnType::Int),
                extra: vec![],
            },
            RelFile {
                rel_type: "posts".into(),
                path: w("posts.csv", &posts),
                src: ("user".into(), ColumnType::Int),
                dst: ("tweet".into(), ColumnType::Int),
                extra: vec![],
            },
        ],
        indexes: vec![("user".into(), "uid".into())],
    };
    let db = GraphDb::open_memory(DbConfig {
        page_cache_pages: 2048,
        dense_node_threshold: threshold,
    })
    .unwrap();
    bulk_import(&db, &source, &ImportOptions::default()).unwrap();
    (db, Guard(dir))
}

fn hub(db: &GraphDb) -> NodeId {
    db.index_seek("user", "uid", &Value::Int(0)).unwrap()[0]
}

fn typed_out(db: &GraphDb, n: NodeId, ty: &str) -> Vec<u64> {
    let t = db.rel_type_id(ty).unwrap();
    let mut v: Vec<u64> = db
        .neighbors(n, Some(t), Direction::Outgoing)
        .map(|r| r.unwrap().raw())
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn grouped_and_ungrouped_answers_agree() {
    let (with_groups, _g1) = star_db(10, 200);
    let (without_groups, _g2) = star_db(100_000, 200);
    assert!(!with_groups.groups_is_empty_for_test(), "hub must be dense");
    let h1 = hub(&with_groups);
    let h2 = hub(&without_groups);
    assert_eq!(
        typed_out(&with_groups, h1, "follows"),
        typed_out(&without_groups, h2, "follows")
    );
    assert_eq!(
        typed_out(&with_groups, h1, "posts"),
        typed_out(&without_groups, h2, "posts")
    );
    assert_eq!(
        with_groups
            .degree(h1, with_groups.rel_type_id("follows"), Direction::Outgoing)
            .unwrap(),
        200
    );
    assert_eq!(
        with_groups
            .degree(h1, with_groups.rel_type_id("follows"), Direction::Incoming)
            .unwrap(),
        66
    );
}

#[test]
fn group_skips_unrelated_edges() {
    // With groups, a typed posts expansion of the hub must touch far fewer
    // relationship records than the hub's total degree.
    let (db, _g) = star_db(10, 500);
    let h = hub(&db);
    db.reset_stats();
    let posts = typed_out(&db, h, "posts");
    assert_eq!(posts.len(), 5);
    let grouped_hits = db.stats().db_hits();
    // Without groups (threshold high), the same expansion scans the chain.
    let (db2, _g2) = star_db(100_000, 500);
    let h2 = hub(&db2);
    db2.reset_stats();
    let posts2 = typed_out(&db2, h2, "posts");
    assert_eq!(posts2.len(), 5);
    let scanned_hits = db2.stats().db_hits();
    assert!(
        grouped_hits * 4 < scanned_hits,
        "groups should cut page hits: {grouped_hits} vs {scanned_hits}"
    );
}

#[test]
fn transactional_write_invalidates_but_stays_correct() {
    let (db, _g) = star_db(10, 120);
    let h = hub(&db);
    let before = typed_out(&db, h, "follows");

    // Add one more followee transactionally: the chain-head prepend breaks
    // the import-time ordering, so the hub's groups must be dropped.
    let mut tx = db.begin_write().unwrap();
    let fresh = tx
        .create_node("user", &[("uid", Value::Int(10_000))])
        .unwrap();
    tx.create_rel(h, fresh, "follows", &[]).unwrap();
    tx.commit().unwrap();

    let after = typed_out(&db, h, "follows");
    assert_eq!(after.len(), before.len() + 1);
    assert!(after.contains(&fresh.raw()));
    for e in &before {
        assert!(after.contains(e), "edge {e} lost after invalidation");
    }
    // Typed posts expansion still correct through the fallback scan.
    assert_eq!(typed_out(&db, h, "posts").len(), 5);
    assert_eq!(
        db.degree(h, db.rel_type_id("follows"), Direction::Outgoing)
            .unwrap(),
        121
    );
}
