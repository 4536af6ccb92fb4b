//! Workload set-up: dataset generation, CSV emission and import into the
//! engines a workload serves, timed step by step.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use arbordb::db::DbConfig;
use arbordb::import::ImportOptions;
use bitgraph::loader::{LoadConfig, LoadOptions};
use micrograph_core::ingest::{ingest_arbor, ingest_bit};
use micrograph_core::shard::partition_dataset;
use micrograph_core::{ArborEngine, BitEngine, MicroblogEngine, ShardedEngine};
use micrograph_datagen::{generate, CsvFiles, Dataset, GenConfig};

use crate::trace::{Layer, Traced, Tracer};
use crate::Workload;

/// Shards behind `serve-sharded`'s engines.
pub const SHARDS: usize = 4;

/// Wall seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: f64,
    pub csv: f64,
    pub partition: f64,
    pub arbordb: f64,
    pub bitgraph: f64,
    pub total: f64,
}

/// One backend's engines: the top engine the clients call, plus the leaf
/// engines whose public counters the traced run reads. Untraced sharded
/// builds hand their leaves to the `ShardedEngine` and keep none.
pub struct Backend<L> {
    pub top: Arc<dyn MicroblogEngine>,
    pub leaves: Vec<Arc<L>>,
    /// Bytes the import left on the backing media.
    pub disk_bytes: u64,
}

/// Everything a workload serves.
pub struct Built {
    pub dataset: Dataset,
    pub config: GenConfig,
    pub arbor: Backend<ArborEngine>,
    pub bit: Backend<BitEngine>,
    /// The arbordb write-ahead logs (on-disk stores only).
    pub wals: Vec<PathBuf>,
    /// Bytes of the CSV bundles the engines imported.
    pub csv_bytes: u64,
    /// Cache-full flush stalls of every bitgraph load.
    pub flush_stalls: u64,
    pub times: SetupTimes,
}

/// Times one set-up step into `acc`, inside a setup span when traced.
fn step<T>(
    acc: &mut f64,
    tracer: Option<&Arc<Tracer>>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let t = Instant::now();
    let out = match tracer {
        Some(tr) => tr.span(Layer::Setup, name, 0, f),
        None => f(),
    };
    *acc += t.elapsed().as_secs_f64();
    out
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read store directory")
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

fn csv_bytes(files: &CsvFiles) -> u64 {
    [
        &files.users,
        &files.tweets,
        &files.hashtags,
        &files.follows,
        &files.posts,
        &files.mentions,
        &files.tags,
    ]
    .into_iter()
    .chain(files.retweets.as_ref())
    .map(|p| std::fs::metadata(p).expect("CSV file written").len())
    .sum()
}

/// Collects a backend's imported leaves into its top engine: the engine
/// itself for a monolith, a `ShardedEngine` over all of them otherwise.
/// Traced builds wrap every shard and the top engine in [`Traced`].
fn assemble<L: MicroblogEngine + 'static>(
    mut engines: Vec<L>,
    disk_bytes: u64,
    tracer: Option<&Arc<Tracer>>,
) -> Backend<L> {
    if engines.len() == 1 {
        let leaf = Arc::new(engines.pop().expect("one engine"));
        let top: Arc<dyn MicroblogEngine> = match tracer {
            Some(tr) => Arc::new(Traced::new(leaf.clone(), Layer::Engine, tr.clone())),
            None => leaf.clone(),
        };
        return Backend {
            top,
            leaves: vec![leaf],
            disk_bytes,
        };
    }
    let (shards, leaves): (Vec<Box<dyn MicroblogEngine>>, Vec<Arc<L>>) = match tracer {
        Some(tr) => engines
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                let leaf = Arc::new(e);
                let shard: Box<dyn MicroblogEngine> = Box::new(Traced::new(
                    leaf.clone(),
                    Layer::Shard(i as u16),
                    tr.clone(),
                ));
                (shard, leaf)
            })
            .unzip(),
        None => (
            engines
                .into_iter()
                .map(|e| Box::new(e) as Box<dyn MicroblogEngine>)
                .collect(),
            Vec::new(),
        ),
    };
    let sharded = ShardedEngine::new(shards);
    let top: Arc<dyn MicroblogEngine> = match tracer {
        Some(tr) => Arc::new(Traced::new(Arc::new(sharded), Layer::Engine, tr.clone())),
        None => Arc::new(sharded),
    };
    Backend {
        top,
        leaves,
        disk_bytes,
    }
}

/// Generates the workload's dataset from `config`, writes its CSV and
/// imports every engine the workload serves under `dir` (emptied first).
pub fn build(
    workload: Workload,
    config: &GenConfig,
    dir: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Built {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create work directory");
    let mut t = SetupTimes::default();
    let start = Instant::now();
    let dataset = step(&mut t.generate, tracer, "generate", || generate(config));

    let bundles: Vec<CsvFiles> = if workload == Workload::ServeSharded {
        let parts = step(&mut t.partition, tracer, "partition_dataset", || {
            partition_dataset(&dataset, SHARDS)
        });
        let mut bundles = Vec::with_capacity(SHARDS);
        for (i, part) in parts.iter().enumerate() {
            bundles.push(step(&mut t.csv, tracer, "write_csv", || {
                part.write_csv(&dir.join(format!("shard-{i}")))
                    .expect("write shard CSV")
            }));
        }
        bundles
    } else {
        vec![step(&mut t.csv, tracer, "write_csv", || {
            dataset.write_csv(&dir.join("csv")).expect("write CSV")
        })]
    };

    // The monolith's store lives on disk, so commits go through the WAL;
    // the default pool holds the whole store, so reads never miss.
    let on_disk = workload == Workload::ServeMono;
    let (mut arbors, mut bits, mut wals) = (Vec::new(), Vec::new(), Vec::new());
    let (mut arbor_disk, mut bit_disk, mut flush_stalls) = (0u64, 0u64, 0u64);
    for files in &bundles {
        let db_dir = on_disk.then(|| files.dir.join("arbordb"));
        let (db, _) = step(&mut t.arbordb, tracer, "ingest_arbor", || {
            ingest_arbor(
                files,
                db_dir.as_deref(),
                DbConfig::default(),
                &ImportOptions::default(),
            )
            .expect("arbordb import")
        });
        arbor_disk += match &db_dir {
            Some(d) => {
                wals.push(d.join("wal.log"));
                dir_bytes(d)
            }
            None => db.size_bytes(),
        };
        arbors.push(ArborEngine::new(db));
        let (g, report) = step(&mut t.bitgraph, tracer, "ingest_bit", || {
            ingest_bit(files, None, LoadConfig::default(), &LoadOptions::default())
                .expect("bitgraph load")
        });
        bit_disk += report.disk_bytes;
        flush_stalls += report.flush_stalls;
        bits.push(BitEngine::new(g).expect("bitgraph schema"));
    }
    let csv_total = bundles.iter().map(csv_bytes).sum();
    let arbor = assemble(arbors, arbor_disk, tracer);
    let bit = assemble(bits, bit_disk, tracer);
    t.total = start.elapsed().as_secs_f64();
    Built {
        dataset,
        config: config.clone(),
        arbor,
        bit,
        wals,
        csv_bytes: csv_total,
        flush_stalls,
        times: t,
    }
}
