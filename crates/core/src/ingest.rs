//! Data ingestion: one set of CSV sources, two bulk loaders (§3.2).
//!
//! "The same source files containing the nodes and edges were used with
//! both databases." This module maps a [`CsvFiles`] bundle (from
//! `micrograph-datagen`) onto the arbordb batch importer's [`ImportSource`]
//! and the bitgraph loader's [`LoadScript`], runs them, and returns the
//! progress reports that regenerate Figures 2 and 3.

use std::path::Path;
use std::sync::Arc;

use arbordb::db::{DbConfig, GraphDb};
use arbordb::import::{
    bulk_import, ColumnSpec, ColumnType, ImportOptions, ImportReport, ImportSource, NodeFile,
    RelFile,
};
use bitgraph::graph::{DataType, Graph};
use bitgraph::loader::{load, EdgeSpec, LoadConfig, LoadOptions, LoadReport, LoadScript, NodeSpec};
use micrograph_datagen::{CsvFiles, Dataset};

use crate::adapters::{ArborEngine, BitEngine};
use crate::engine::MicroblogEngine;
use crate::fault::{ChaosEngine, DegradationMode, FaultPlan, RetryPolicy};
use crate::schema;
use crate::shard::{partition_dataset, ShardedEngine};
use crate::{CoreError, Result};

/// Builds the arbordb import description for a CSV bundle.
pub fn arbor_source(files: &CsvFiles) -> ImportSource {
    let mut source = ImportSource {
        nodes: vec![
            NodeFile {
                label: schema::USER.into(),
                path: files.users.clone(),
                columns: vec![
                    ColumnSpec::new(schema::UID, ColumnType::Int),
                    ColumnSpec::new(schema::NAME, ColumnType::Str),
                    ColumnSpec::new(schema::FOLLOWERS, ColumnType::Int),
                    ColumnSpec::new(schema::VERIFIED, ColumnType::Int),
                ],
                id_column: schema::UID.into(),
            },
            NodeFile {
                label: schema::TWEET.into(),
                path: files.tweets.clone(),
                columns: vec![
                    ColumnSpec::new(schema::TID, ColumnType::Int),
                    ColumnSpec::new(schema::TEXT, ColumnType::Str),
                ],
                id_column: schema::TID.into(),
            },
            NodeFile {
                label: schema::HASHTAG.into(),
                path: files.hashtags.clone(),
                columns: vec![ColumnSpec::new(schema::TAG, ColumnType::Str)],
                id_column: schema::TAG.into(),
            },
        ],
        rels: vec![
            RelFile {
                rel_type: schema::FOLLOWS.into(),
                path: files.follows.clone(),
                src: (schema::USER.into(), ColumnType::Int),
                dst: (schema::USER.into(), ColumnType::Int),
                extra: vec![],
            },
            RelFile {
                rel_type: schema::POSTS.into(),
                path: files.posts.clone(),
                src: (schema::USER.into(), ColumnType::Int),
                dst: (schema::TWEET.into(), ColumnType::Int),
                extra: vec![],
            },
            RelFile {
                rel_type: schema::MENTIONS.into(),
                path: files.mentions.clone(),
                src: (schema::TWEET.into(), ColumnType::Int),
                dst: (schema::USER.into(), ColumnType::Int),
                extra: vec![],
            },
            RelFile {
                rel_type: schema::TAGS.into(),
                path: files.tags.clone(),
                src: (schema::TWEET.into(), ColumnType::Int),
                dst: (schema::HASHTAG.into(), ColumnType::Str),
                extra: vec![],
            },
        ],
        indexes: vec![
            (schema::USER.into(), schema::UID.into()),
            // Ordered index serving Q1.1's range predicate (`followers > th`)
            // as a NodeIndexRangeSeek instead of a user scan; maintained
            // incrementally by `set_node_prop` on live follower updates.
            (schema::USER.into(), schema::FOLLOWERS.into()),
            (schema::TWEET.into(), schema::TID.into()),
            (schema::HASHTAG.into(), schema::TAG.into()),
        ],
    };
    if let Some(rt) = &files.retweets {
        source.rels.push(RelFile {
            rel_type: schema::RETWEETS.into(),
            path: rt.clone(),
            src: (schema::TWEET.into(), ColumnType::Int),
            dst: (schema::TWEET.into(), ColumnType::Int),
            extra: vec![],
        });
    }
    source
}

/// Builds the bitgraph load script for the same CSV bundle. Paths are
/// relative to `files.dir` (the loader's base directory).
pub fn bit_script(files: &CsvFiles, config: LoadConfig) -> LoadScript {
    let rel = |p: &Path| p.file_name().expect("csv file name").into();
    let mut script = LoadScript {
        nodes: vec![
            NodeSpec {
                type_name: schema::USER.into(),
                columns: vec![
                    (schema::UID.into(), DataType::Integer),
                    (schema::NAME.into(), DataType::String),
                    (schema::FOLLOWERS.into(), DataType::Integer),
                    (schema::VERIFIED.into(), DataType::Integer),
                ],
                file: rel(&files.users),
                indexed: vec![schema::UID.into()],
            },
            NodeSpec {
                type_name: schema::TWEET.into(),
                columns: vec![
                    (schema::TID.into(), DataType::Integer),
                    (schema::TEXT.into(), DataType::String),
                ],
                file: rel(&files.tweets),
                indexed: vec![schema::TID.into()],
            },
            NodeSpec {
                type_name: schema::HASHTAG.into(),
                columns: vec![(schema::TAG.into(), DataType::String)],
                file: rel(&files.hashtags),
                indexed: vec![schema::TAG.into()],
            },
        ],
        edges: vec![
            EdgeSpec {
                type_name: schema::FOLLOWS.into(),
                src: (schema::USER.into(), schema::UID.into()),
                dst: (schema::USER.into(), schema::UID.into()),
                file: rel(&files.follows),
            },
            EdgeSpec {
                type_name: schema::POSTS.into(),
                src: (schema::USER.into(), schema::UID.into()),
                dst: (schema::TWEET.into(), schema::TID.into()),
                file: rel(&files.posts),
            },
            EdgeSpec {
                type_name: schema::MENTIONS.into(),
                src: (schema::TWEET.into(), schema::TID.into()),
                dst: (schema::USER.into(), schema::UID.into()),
                file: rel(&files.mentions),
            },
            EdgeSpec {
                type_name: schema::TAGS.into(),
                src: (schema::TWEET.into(), schema::TID.into()),
                dst: (schema::HASHTAG.into(), schema::TAG.into()),
                file: rel(&files.tags),
            },
        ],
        config,
    };
    if let Some(rt) = &files.retweets {
        script.edges.push(EdgeSpec {
            type_name: schema::RETWEETS.into(),
            src: (schema::TWEET.into(), schema::TID.into()),
            dst: (schema::TWEET.into(), schema::TID.into()),
            file: rel(rt),
        });
    }
    script
}

/// Renders the bit script as loader-script text (round-trips through
/// [`bitgraph::loader::parse_script`]; used by the import example).
pub fn bit_script_text(script: &LoadScript) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "options extent_kb {} cache_kb {} materialize {} recovery {}\n",
        script.config.extent_kb,
        script.config.cache_kb,
        if script.config.materialize { "on" } else { "off" },
        if script.config.recovery { "on" } else { "off" },
    ));
    for n in &script.nodes {
        let cols = n
            .columns
            .iter()
            .map(|(name, dt)| format!("{name} {}", dtype_name(*dt)))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "node {} ({cols}) from '{}'",
            n.type_name,
            n.file.display()
        ));
        if !n.indexed.is_empty() {
            out.push_str(&format!(" index {}", n.indexed.join(" ")));
        }
        out.push('\n');
    }
    for e in &script.edges {
        out.push_str(&format!(
            "edge {} ({}.{}, {}.{}) from '{}'\n",
            e.type_name,
            e.src.0,
            e.src.1,
            e.dst.0,
            e.dst.1,
            e.file.display()
        ));
    }
    out
}

fn dtype_name(dt: DataType) -> &'static str {
    match dt {
        DataType::Integer => "integer",
        DataType::String => "string",
        DataType::Double => "double",
        DataType::Boolean => "boolean",
    }
}

/// Imports the CSV bundle into a fresh arbordb instance.
///
/// `db_dir = None` uses an in-memory database (benchmarks that should not
/// measure the host filesystem); `Some(dir)` builds an on-disk one whose
/// size is the paper's disk-space metric.
pub fn ingest_arbor(
    files: &CsvFiles,
    db_dir: Option<&Path>,
    db_config: DbConfig,
    options: &ImportOptions,
) -> Result<(Arc<GraphDb>, ImportReport)> {
    let db = match db_dir {
        Some(dir) => GraphDb::open(dir, db_config)?,
        None => GraphDb::open_memory(db_config)?,
    };
    let source = arbor_source(files);
    let report = bulk_import(&db, &source, options)?;
    Ok((Arc::new(db), report))
}

/// Loads the CSV bundle into a fresh bitgraph instance.
pub fn ingest_bit(
    files: &CsvFiles,
    graph_path: Option<&Path>,
    config: LoadConfig,
    options: &LoadOptions,
) -> Result<(Graph, LoadReport)> {
    let script = bit_script(files, config);
    let (g, report) = load(graph_path, &script, &files.dir, options)?;
    if report.aborted {
        return Err(CoreError::Ingest("bitgraph load aborted by deadline".into()));
    }
    Ok((g, report))
}

/// Reports from building both engines off one CSV bundle.
#[derive(Debug, Clone, Default)]
pub struct IngestReports {
    /// The arbordb import report (Figure 2 material).
    pub arbor: ImportReport,
    /// The bitgraph load report (Figure 3 material).
    pub bit: LoadReport,
}

/// Convenience: ingest into both engines with default settings, returning
/// the two workload adapters plus reports.
pub fn build_engines(files: &CsvFiles) -> Result<(ArborEngine, BitEngine, IngestReports)> {
    let (db, arbor_report) = ingest_arbor(
        files,
        None,
        DbConfig::default(),
        &ImportOptions { sample_interval: 5_000, ..Default::default() },
    )?;
    let (g, bit_report) = ingest_bit(
        files,
        None,
        LoadConfig::default(),
        &LoadOptions { sample_interval: 5_000, abort_after: None },
    )?;
    Ok((
        ArborEngine::new(db),
        BitEngine::new(g)?,
        IngestReports { arbor: arbor_report, bit: bit_report },
    ))
}

/// Partitions `dataset` into `shards` hash-partitions (see
/// [`crate::shard`]), writes each partition's CSV bundle under
/// `dir/shard-N`, ingests every partition into BOTH backends with default
/// settings, and returns one [`ShardedEngine`] per backend
/// (arbordb-backed, bitgraph-backed). The engines run with the default
/// [`crate::shard::ScatterMode::Parallel`]; flip one with
/// `set_scatter_mode` (answers are byte-identical either way). This is
/// [`build_replicated_engines`] at one replica per shard.
pub fn build_sharded_engines(
    dataset: &Dataset,
    dir: &Path,
    shards: usize,
) -> Result<(ShardedEngine, ShardedEngine)> {
    build_replicated_engines(dataset, dir, shards, 1)
}

/// Like [`build_sharded_engines`], but wraps every shard of both backends
/// in a [`ChaosEngine`] under `plan` (salted by shard index, so shards
/// fault independently), and configures the sharded facades with `policy`
/// and `mode`. This is the chaos-serving test/bench entry point: same
/// partitions, same data, faults injected at the shard boundary. Scatter
/// execution defaults to parallel here too — fault decisions are pure per
/// `(shard, method, args, attempt)`, so chaos digests match the sequential
/// oracle. This is [`build_chaos_replicated_engines`] at one replica per
/// shard.
pub fn build_chaos_sharded_engines(
    dataset: &Dataset,
    dir: &Path,
    shards: usize,
    plan: FaultPlan,
    policy: RetryPolicy,
    mode: DegradationMode,
) -> Result<(ShardedEngine, ShardedEngine)> {
    build_chaos_replicated_engines(dataset, dir, shards, 1, |_, _| plan, policy, mode)
}

/// Like [`build_sharded_engines`], but every shard slot is an R-way
/// [`crate::shard`] replica group (DESIGN.md §4i): each partition's CSV
/// bundle is written once and ingested `replicas` times per backend, so
/// all replicas of a shard hold identical data.
pub fn build_replicated_engines(
    dataset: &Dataset,
    dir: &Path,
    shards: usize,
    replicas: usize,
) -> Result<(ShardedEngine, ShardedEngine)> {
    let (arbors, bits) = build_replica_groups(dataset, dir, shards, replicas, |_, _, e| e)?;
    Ok((ShardedEngine::new_replicated(arbors), ShardedEngine::new_replicated(bits)))
}

/// Like [`build_replicated_engines`], but wraps every replica of every
/// shard in a [`ChaosEngine`] under the plan `plan_for(shard, replica)`
/// returns, salted by the flat replica index `shard * replicas + replica`
/// — at R = 1 that reduces to the shard index. The per-slot plan closure
/// is what the permanent-fault tests use to kill one replica of every
/// shard while its groupmates stay clean.
pub fn build_chaos_replicated_engines(
    dataset: &Dataset,
    dir: &Path,
    shards: usize,
    replicas: usize,
    plan_for: impl Fn(usize, usize) -> FaultPlan,
    policy: RetryPolicy,
    mode: DegradationMode,
) -> Result<(ShardedEngine, ShardedEngine)> {
    let (arbors, bits) = build_replica_groups(dataset, dir, shards, replicas, |i, r, e| {
        let salt = (i * replicas + r) as u64;
        Box::new(ChaosEngine::new(e, plan_for(i, r), salt))
    })?;
    Ok((
        ShardedEngine::new_replicated(arbors).with_policy(policy).with_degradation(mode),
        ShardedEngine::new_replicated(bits).with_policy(policy).with_degradation(mode),
    ))
}

/// Per-backend replica groups: `groups[shard][replica]`.
type ReplicaGroups = Vec<Vec<Box<dyn MicroblogEngine>>>;

/// The one partition-and-ingest loop behind the sharded builders: writes
/// each partition's CSV bundle once under `dir/shard-N`, ingests it
/// `replicas` times into both backends, and passes every engine through
/// `wrap(shard, replica, engine)`.
fn build_replica_groups(
    dataset: &Dataset,
    dir: &Path,
    shards: usize,
    replicas: usize,
    wrap: impl Fn(usize, usize, Box<dyn MicroblogEngine>) -> Box<dyn MicroblogEngine>,
) -> Result<(ReplicaGroups, ReplicaGroups)> {
    let mut arbors: ReplicaGroups = Vec::with_capacity(shards);
    let mut bits: ReplicaGroups = Vec::with_capacity(shards);
    for (i, part) in partition_dataset(dataset, shards).iter().enumerate() {
        let files = part
            .write_csv(&dir.join(format!("shard-{i}")))
            .map_err(|e| CoreError::Ingest(e.to_string()))?;
        let mut arbor_group: Vec<Box<dyn MicroblogEngine>> = Vec::with_capacity(replicas);
        let mut bit_group: Vec<Box<dyn MicroblogEngine>> = Vec::with_capacity(replicas);
        for r in 0..replicas {
            let (arbor, bit, _) = build_engines(&files)?;
            arbor_group.push(wrap(i, r, Box::new(arbor)));
            bit_group.push(wrap(i, r, Box::new(bit)));
        }
        arbors.push(arbor_group);
        bits.push(bit_group);
    }
    Ok((arbors, bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use micrograph_datagen::{generate, GenConfig};

    fn bundle(tag: &str, config: &GenConfig) -> CsvFiles {
        let dir = std::env::temp_dir().join(format!("core-ingest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        generate(config).write_csv(&dir).unwrap()
    }

    #[test]
    fn both_engines_ingest_the_same_bundle() {
        let files = bundle("both", &GenConfig::unit());
        let (arbor, bit, reports) = build_engines(&files).unwrap();
        assert_eq!(reports.arbor.nodes, reports.bit.nodes);
        assert_eq!(reports.arbor.edges, reports.bit.edges);
        assert!(reports.arbor.nodes > 0);
        // Spot-check one user exists in both.
        use crate::engine::MicroblogEngine;
        let a = arbor.followees(1).unwrap();
        let b = bit.followees(1).unwrap();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&files.dir).unwrap();
    }

    #[test]
    fn script_text_roundtrips() {
        let files = bundle("script", &GenConfig::unit());
        let script = bit_script(&files, LoadConfig::default());
        let text = bit_script_text(&script);
        let parsed = bitgraph::loader::parse_script(&text).unwrap();
        assert_eq!(parsed, script);
        std::fs::remove_dir_all(&files.dir).unwrap();
    }

    #[test]
    fn sharded_engines_agree_with_unsharded_spot_checks() {
        let dir = std::env::temp_dir().join(format!("core-ingest-sharded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dataset = generate(&GenConfig::unit());
        let files = dataset.write_csv(&dir).unwrap();
        let (arbor, _, _) = build_engines(&files).unwrap();
        let (sa, sb) = build_sharded_engines(&dataset, &dir.join("parts"), 2).unwrap();
        assert_eq!(sa.shard_count(), 2);
        assert!(sa.name().contains("arbordb"), "{}", sa.name());
        assert!(sb.name().contains("bitgraph"), "{}", sb.name());
        for uid in [1i64, 5, 17] {
            assert_eq!(sa.followees(uid).unwrap(), arbor.followees(uid).unwrap());
            assert_eq!(sb.followees(uid).unwrap(), arbor.followees(uid).unwrap());
            assert_eq!(sa.followee_tweets(uid).unwrap(), arbor.followee_tweets(uid).unwrap());
            assert_eq!(sb.followee_tweets(uid).unwrap(), arbor.followee_tweets(uid).unwrap());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retweets_included_when_present() {
        let mut cfg = GenConfig::unit();
        cfg.with_retweets = true;
        cfg.retweet_fraction = 0.9;
        let files = bundle("rt", &cfg);
        assert!(files.retweets.is_some());
        let source = arbor_source(&files);
        assert_eq!(source.rels.len(), 5);
        let script = bit_script(&files, LoadConfig::default());
        assert_eq!(script.edges.len(), 5);
        let (arbor, bit, _) = build_engines(&files).unwrap();
        use crate::engine::MicroblogEngine;
        // Some tweet has a retweet in both engines.
        let total_rt: u64 = (1..=40).map(|t| arbor.retweet_count(t).unwrap()).sum();
        let total_rt_bit: u64 = (1..=40).map(|t| bit.retweet_count(t).unwrap()).sum();
        assert_eq!(total_rt, total_rt_bit);
        assert!(total_rt > 0);
        std::fs::remove_dir_all(&files.dir).unwrap();
    }
}
