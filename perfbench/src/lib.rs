//! The repository benchmark. One run sets up one workload's engines from a
//! seed, drives both backends (arbordb, bitgraph) for a fixed time, checks
//! every answer and reports the end-to-end metrics — or, traced, the
//! per-layer breakdown. See `perfbench/README.md` for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.

pub mod drive;
pub mod layers;
pub mod report;
pub mod setup;
pub mod trace;

use std::path::Path;
use std::sync::Arc;

use micrograph_common::rng::SplitMix64;
use micrograph_common::stats::percentile;
use micrograph_core::MicroblogEngine;
use micrograph_datagen::{GenConfig, UpdateEvent};

use drive::{
    errors, event_batches, read_at, read_fixed, read_window, sample_positions, write_window,
    ReadOut, RequestGen, Subjects, WriteOut,
};
use report::Metrics;
use setup::Built;
use trace::Tracer;

/// A named traffic mix over one engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Monolithic engines, uniform subjects; arbordb on disk with a buffer
    /// pool that holds the whole store.
    ServeMono,
    /// 4-shard in-memory engines, Zipf subjects.
    ServeSharded,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ServeMono, Workload::ServeSharded];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMono => "serve-mono",
            Workload::ServeSharded => "serve-sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Length of one measured read slice of one backend, seconds.
    pub fn slice_s(self) -> f64 {
        match self {
            Workload::ServeMono => 0.5,
            Workload::ServeSharded => 1.0,
        }
    }

    /// Write batches each backend commits per round. A monolith's commit
    /// is cheap (one WAL sync; one bitgraph snapshot republish of about
    /// 80 ms), so it commits several in short rounds, and its commit
    /// percentiles rest on many samples spread over the run: the host's
    /// speed drifts from one second to the next, and the commits of one
    /// round share its speed. A sharded bitgraph batch republishes a shard
    /// snapshot per cross-shard event, about 1 s in all, so it commits one.
    pub fn batches_per_round(self) -> usize {
        match self {
            Workload::ServeMono => 2,
            Workload::ServeSharded => 1,
        }
    }

    fn subjects(self) -> Subjects {
        match self {
            Workload::ServeMono => Subjects::Uniform,
            Workload::ServeSharded => Subjects::Zipf,
        }
    }
}

/// Closed-loop read clients on every workload. One client leaves the
/// second vCPU to the sharded scatter pool and to the host: with two
/// clients both vCPUs were busy and every stall of the host moved the
/// read figures, by up to a quarter between runs.
pub const CLIENTS: usize = 1;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Events per write batch.
pub const BATCH: usize = 16;
/// Seed of the `StreamGen` event stream. Fixed like the dataset: which
/// events cross shards sets a batch's cost, and the few batches of a run
/// would otherwise move commit latency between seeds by a quarter.
pub const EVENT_SEED: u64 = 1;
/// Unmeasured reads before each backend's measured slices.
pub const WARMUP_S: f64 = 0.5;
/// Requests of the post-write answer check, per backend.
pub const CHECK_REQUESTS: usize = 33;
/// Reads per round that only the faster backend reached and that the
/// slower one replays, untimed, for the answer check.
pub const REPLAYS_PER_ROUND: usize = 64;
/// Stream positions of warm-up and check requests, clear of the slices'.
const WARMUP_BASE: usize = 1 << 30;
const CHECK_BASE: usize = 1 << 31;
const BACKENDS: [&str; 2] = ["arbordb", "bitgraph"];

/// The parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one backend's measured phases produced.
#[derive(Default)]
pub struct Phases {
    /// Reads of the untraced slices.
    pub reads: ReadOut,
    /// Reads of the traced slices (traced runs only).
    pub traced_reads: ReadOut,
    pub writes: WriteOut,
    /// Counter deltas over the traced slices and over the writes.
    pub read_counters: layers::Counters,
    pub write_counters: layers::Counters,
    /// Untimed replays of reads only the other backend reached.
    pub replays: Vec<drive::Sample>,
    /// Post-write answer check.
    pub check: Vec<drive::Sample>,
}

impl Phases {
    /// Every read of the run, traced or not, by stream position.
    fn all_reads(&self) -> Vec<drive::Sample> {
        let mut all: Vec<_> = self
            .reads
            .samples
            .iter()
            .chain(&self.traced_reads.samples)
            .chain(&self.replays)
            .copied()
            .collect();
        all.sort_by_key(|s| s.index);
        all
    }
}

fn leaf_counters(built: &Built, backend: usize) -> layers::Counters {
    match backend {
        0 => layers::Counters::arbor(&built.arbor.leaves, &built.wals),
        _ => layers::Counters::bit(&built.bit.leaves),
    }
}

/// Drives both backends in rounds. In each round each backend serves one
/// read slice, then commits the round's write batches: slices alternate
/// between the backends and commits spread over the whole run, so every
/// metric samples the run's machine noise rather than one burst of it.
/// Both backends start a round's slice at the same stream position and have
/// applied the same batches, so a request both ran must get the same
/// answer; before the round's commits, the slower backend replays a sample
/// of the reads only the faster one reached. Traced runs trace every other
/// round's reads (and every write) and compare time per request with the
/// untraced rounds'. Last, each backend answers a fixed check stream.
fn drive(
    args: &Args,
    built: &Built,
    gen: &RequestGen,
    batches: &[Vec<UpdateEvent>],
    tracer: Option<&Arc<Tracer>>,
) -> Vec<Phases> {
    let engines: [&dyn MicroblogEngine; 2] = [built.arbor.top.as_ref(), built.bit.top.as_ref()];
    let id_base = |b: usize| (b as u64 + 1) << 40;
    let set_traced = |on: bool| {
        if let Some(tr) = tracer {
            tr.set_enabled(on);
        }
        tracer.filter(|_| on).map(|t| &**t)
    };
    for engine in engines {
        read_window(engine, gen, CLIENTS, WARMUP_BASE, WARMUP_S, 0, None);
    }
    let mut phases: Vec<Phases> = (0..2).map(|_| Phases::default()).collect();
    let mut start = 0;
    let per_round = args.workload.batches_per_round();
    for (round, round_batches) in batches.chunks(per_round).enumerate() {
        let traced = tracer.is_some() && round % 2 == 1;
        let mut ends = [start; 2];
        for (b, engine) in engines.into_iter().enumerate() {
            let before = leaf_counters(built, b);
            let tr = set_traced(traced);
            let slice = args.workload.slice_s();
            let reads = read_window(engine, gen, CLIENTS, start, slice, id_base(b), tr);
            set_traced(false);
            ends[b] = reads.samples.last().map_or(start, |s| s.index + 1);
            let p = &mut phases[b];
            if traced {
                let delta = leaf_counters(built, b).since(&before);
                p.read_counters = p.read_counters.plus(&delta);
                p.traced_reads.extend(reads);
            } else {
                p.reads.extend(reads);
            }
        }
        for (b, engine) in engines.into_iter().enumerate() {
            let missed = ends[b]..ends[1 - b];
            let positions = sample_positions(missed, REPLAYS_PER_ROUND);
            phases[b].replays.extend(read_at(engine, gen, positions));
        }
        start = ends[0].max(ends[1]);
        for (b, engine) in engines.into_iter().enumerate() {
            let before = leaf_counters(built, b);
            let id = (id_base(b) | 1 << 39) + (round * per_round) as u64;
            let writes = write_window(engine, round_batches, id, set_traced(tracer.is_some()));
            set_traced(false);
            let p = &mut phases[b];
            p.write_counters = p
                .write_counters
                .plus(&leaf_counters(built, b).since(&before));
            p.writes.extend(writes);
        }
    }
    for (p, engine) in phases.iter_mut().zip(engines) {
        p.check = read_fixed(engine, gen, CHECK_BASE, CHECK_REQUESTS);
    }
    phases
}

/// Rounds in a run of `seconds`: each backend reads for half of them.
fn rounds(workload: Workload, seconds: f64) -> usize {
    ((seconds / 2.0 / workload.slice_s()).round() as usize).max(2)
}

/// Write batches each backend commits in a run of `seconds`.
fn batches(workload: Workload, seconds: f64) -> usize {
    rounds(workload, seconds) * workload.batches_per_round()
}

/// Runs the benchmark once and returns its result line plus a provenance
/// line. Engine data lives under `work` and is removed at the end.
pub fn run(args: &Args, work: &Path) -> (report::Result, String) {
    let stream_seed = SplitMix64::new(args.seed).next_u64();
    let tracer = args.trace.then(|| Arc::new(Tracer::default()));
    let data_dir = work.join(format!("{}-{}", args.workload.name(), args.seed));
    let config = GenConfig::medium();

    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        if let Some(tr) = &tracer {
            tr.set_enabled(true);
        }
        let b = setup::build(args.workload, &config, &data_dir, tracer.as_ref());
        if let Some(tr) = &tracer {
            tr.set_enabled(false);
        }
        times.push(b.times);
        built = Some(b);
    }
    let built = built.expect("at least one set-up");

    let gen = RequestGen::new(
        stream_seed,
        &built.dataset,
        &built.config,
        args.workload.subjects(),
    );
    let batches = event_batches(
        &built.dataset,
        &built.config,
        EVENT_SEED,
        batches(args.workload, args.seconds),
        BATCH,
    );
    let phases = drive(args, &built, &gen, &batches, tracer.as_ref());

    let mut result = report::Result::default();
    check_answers(&phases, &mut result);
    let mut m = Metrics::default();
    if let Some(tr) = &tracer {
        layers::per_layer(&mut m, &built, &times, &phases, tr);
        let _ =
            tr.write_csv(&work.join(format!("spans-{}-{}.csv", args.workload.name(), args.seed)));
    } else {
        end_to_end(&mut m, &built, &times, &phases);
    }
    result.metrics = m;
    let provenance = report::provenance(args, &built);
    drop(built);
    let _ = std::fs::remove_dir_all(&data_dir);
    (result, provenance)
}

/// Counts failed operations: errored reads and writes, reads whose two
/// backends answered differently, and post-write check answers that differ.
fn check_answers(phases: &[Phases], result: &mut report::Result) {
    let (a, b) = (&phases[0], &phases[1]);
    for p in phases {
        for reads in [&p.reads.samples, &p.traced_reads.samples, &p.replays, &p.check] {
            result.attempted += reads.len() as u64;
            result.failed += errors(reads);
        }
        result.attempted += p.writes.commit_ms.len() as u64;
        result.failed += p.writes.errors;
    }
    result.failed += mismatches(&a.all_reads(), &b.all_reads());
    result.failed += mismatches(&a.check, &b.check);
}

/// Requests present in both sample lists (sorted by index) that both
/// answered, with different answers. Errors are counted by [`errors`].
fn mismatches(a: &[drive::Sample], b: &[drive::Sample]) -> u64 {
    let mut j = 0;
    let mut bad = 0;
    for s in a {
        while j < b.len() && b[j].index < s.index {
            j += 1;
        }
        if j < b.len() && b[j].index == s.index {
            bad += (s.hash.is_some() && b[j].hash.is_some() && s.hash != b[j].hash) as u64;
        }
    }
    bad
}

fn median(v: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = v.into_iter().collect();
    percentile(&v, 50.0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(m: &mut Metrics, built: &Built, times: &[setup::SetupTimes], phases: &[Phases]) {
    m.put("setup_s", median(times.iter().map(|t| t.total)), "s");
    m.put("rss_mb", peak_rss_mib(), "MiB");
    for (name, p) in BACKENDS.iter().zip(phases) {
        let ms: Vec<f64> = p.reads.samples.iter().map(|s| s.ms).collect();
        m.put(
            &format!("{name}.qps"),
            ms.len() as f64 / p.reads.wall_s,
            "req/s",
        );
        m.put(&format!("{name}.p50_ms"), percentile(&ms, 50.0), "ms");
        m.put(&format!("{name}.p99_ms"), percentile(&ms, 99.0), "ms");
        m.put(
            &format!("{name}.commit_p50_ms"),
            percentile(&p.writes.commit_ms, 50.0),
            "ms",
        );
        m.put(
            &format!("{name}.commit_p75_ms"),
            percentile(&p.writes.commit_ms, 75.0),
            "ms",
        );
    }
    m.put(
        "arbordb.space_amp",
        built.arbor.disk_bytes as f64 / built.csv_bytes as f64,
        "ratio",
    );
    m.put(
        "bitgraph.space_amp",
        built.bit.disk_bytes as f64 / built.csv_bytes as f64,
        "ratio",
    );
}
