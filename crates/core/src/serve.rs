//! The concurrent serving layer: N reader threads over one shared engine.
//!
//! The paper measures single-client latency; the axis it leaves open — and
//! the one LDBC-style benchmarks add next — is multi-client throughput
//! against a shared store. [`serve`] drives a deterministic mixed Q1–Q6
//! request stream from N threads over any [`MicroblogEngine`] (a
//! `&dyn`/`Arc<dyn>` trait object), recording per-query latency
//! percentiles and aggregate throughput.
//!
//! Determinism under concurrency: requests are dispensed from a shared
//! atomic cursor, so *which thread* runs a request is scheduling-dependent,
//! but each request's rendered result is stored at its stream index. The
//! merged output is therefore byte-identical across thread counts — the
//! property `tests/concurrent_serving.rs` pins down, and the concurrent
//! extension of the cross-engine equivalence invariant.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use micrograph_common::rng::SplitMix64;
use micrograph_common::stats::{percentile, Timer};

use crate::engine::MicroblogEngine;
use crate::fault::{self, FaultStats};
use crate::workload::{QueryClass, QueryId, QueryParams};
use crate::Result;

// Compile-time Send + Sync guarantees. The serving layer shares one engine
// across scoped threads; a regression anywhere in the stack (arbor-ql plan
// cache, arbordb page cache, bitgraph extents) must fail to compile here,
// not deadlock or data-race at runtime.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<crate::adapters::ArborEngine>();
    assert_send_sync::<crate::adapters::BitEngine>();
    assert_send_sync::<crate::shard::ShardedEngine>();
    assert_send_sync::<dyn MicroblogEngine>();
    assert_send_sync::<arbordb::db::GraphDb>();
    assert_send_sync::<arbor_ql::QueryEngine>();
    assert_send_sync::<bitgraph::graph::Graph>();
};

/// One request of the mixed read stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The catalog query to run.
    pub query: QueryId,
    /// Its parameters.
    pub params: QueryParams,
}

/// Builds a deterministic mixed request stream: `len` requests drawn
/// uniformly over the Table 2 catalog, parameters sampled over `1..=users`
/// and a `vocab`-sized tag head. Same seed → same stream, on any engine.
pub fn request_stream(seed: u64, len: usize, users: u64, vocab: u64) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| {
            let query = QueryId::ALL[rng.next_below(QueryId::ALL.len() as u64) as usize];
            let params = QueryParams::sample(&mut rng, users, vocab);
            Request { query, params }
        })
        .collect()
}

/// Runs one request and renders its full result set as a canonical string —
/// the serving layer's unit of work, and the oracle the equivalence tests
/// compare byte-for-byte across thread counts and engines.
pub fn execute_rendered(engine: &dyn MicroblogEngine, req: &Request) -> Result<String> {
    fn ranked<K: std::fmt::Debug>(rows: &[crate::engine::Ranked<K>]) -> String {
        rows.iter()
            .map(|r| format!("{:?}:{}", r.key, r.count))
            .collect::<Vec<_>>()
            .join(";")
    }
    let p = &req.params;
    Ok(match req.query {
        QueryId::Q1_1 => format!("{:?}", engine.users_with_followers_over(p.threshold)?),
        QueryId::Q2_1 => format!("{:?}", engine.followees(p.uid)?),
        QueryId::Q2_2 => format!("{:?}", engine.followee_tweets(p.uid)?),
        QueryId::Q2_3 => format!("{:?}", engine.followee_hashtags(p.uid)?),
        QueryId::Q3_1 => ranked(&engine.co_mentioned_users(p.uid, p.n)?),
        QueryId::Q3_2 => ranked(&engine.co_occurring_hashtags(&p.tag, p.n)?),
        QueryId::Q4_1 => ranked(&engine.recommend_followees(p.uid, p.n)?),
        QueryId::Q4_2 => ranked(&engine.recommend_followers(p.uid, p.n)?),
        QueryId::Q5_1 => ranked(&engine.current_influence(p.uid, p.n)?),
        QueryId::Q5_2 => ranked(&engine.potential_influence(p.uid, p.n)?),
        QueryId::Q6_1 => {
            format!("{:?}", engine.shortest_path_len(p.uid, p.uid_b, p.max_hops)?)
        }
    })
}

/// Optional per-query-class virtual deadline overrides in µs (DESIGN.md
/// §4f). A class left `None` falls back to the run's blanket
/// `deadline_us`, so the common configurations stay one-liners: all-`None`
/// reproduces the single-deadline behavior exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassDeadlines {
    /// Deadline for [`QueryClass::Point`] requests.
    pub point_us: Option<u64>,
    /// Deadline for [`QueryClass::Scatter`] requests.
    pub scatter_us: Option<u64>,
    /// Deadline for [`QueryClass::Traversal`] requests.
    pub traversal_us: Option<u64>,
}

impl ClassDeadlines {
    /// The override for `class`, if any.
    pub fn for_class(&self, class: QueryClass) -> Option<u64> {
        match class {
            QueryClass::Point => self.point_us,
            QueryClass::Scatter => self.scatter_us,
            QueryClass::Traversal => self.traversal_us,
        }
    }

    /// The deadline `class` actually runs under: its override, else the
    /// blanket `fallback`.
    pub fn effective(&self, class: QueryClass, fallback: Option<u64>) -> Option<u64> {
        self.for_class(class).or(fallback)
    }
}

/// Serving-harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Concurrent reader threads (≥ 1).
    pub threads: usize,
    /// Requests in the stream.
    pub requests: usize,
    /// Stream seed.
    pub seed: u64,
    /// Subject-user id range (`1..=users`; match the dataset).
    pub users: u64,
    /// Hashtag vocabulary size for tag subjects.
    pub vocab: u64,
    /// Per-request deadline budget in **virtual** microseconds (see
    /// `crate::fault`): `None` disables deadlines. Only engines that charge
    /// the budget (chaos wrappers, retry backoff) consume it.
    pub deadline_us: Option<u64>,
    /// Per-query-class deadline overrides; classes left `None` use
    /// `deadline_us`. Lets an overloaded server keep point lookups on a
    /// tight budget while giving traversals room (or vice versa), and —
    /// combined with `DegradationMode::Partial` — shed scatter stragglers
    /// instead of queueing behind them.
    pub class_deadlines: ClassDeadlines,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 4,
            requests: 256,
            seed: 42,
            users: 100,
            vocab: 16,
            deadline_us: None,
            class_deadlines: ClassDeadlines::default(),
        }
    }
}

/// Latency summary for one catalog query within a serving run.
#[derive(Debug, Clone, Copy)]
pub struct QuerySummary {
    /// The query.
    pub query: QueryId,
    /// Requests of this query in the stream.
    pub count: u64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 95th-percentile latency (ms).
    pub p95_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Slowest request (ms).
    pub max_ms: f64,
    /// Widest single scatter fan-out any request of this query issued
    /// (shards addressed by one scatter; 0 on unsharded engines).
    pub max_fanout: u32,
}

/// Latency summary for one [`QueryClass`] within a serving run — the
/// granularity per-class deadlines are tuned at (DESIGN.md §4f).
#[derive(Debug, Clone, Copy)]
pub struct ClassSummary {
    /// The class.
    pub class: QueryClass,
    /// Requests of this class in the stream.
    pub count: u64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 95th-percentile latency (ms).
    pub p95_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// The virtual deadline requests of this class ran under.
    pub deadline_us: Option<u64>,
}

/// The result of one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Engine name.
    pub engine: &'static str,
    /// Reader threads used.
    pub threads: usize,
    /// Requests served.
    pub requests: usize,
    /// Wall-clock time for the whole stream (ms).
    pub wall_ms: f64,
    /// Aggregate throughput (requests per second).
    pub qps: f64,
    /// Scatter execution mode of the engine (`None` for monoliths).
    pub scatter_mode: Option<crate::shard::ScatterMode>,
    /// Replicas behind each shard slot (`None` for monoliths, `Some(1)`
    /// for unreplicated sharded engines — DESIGN.md §4i).
    pub replicas: Option<usize>,
    /// Overall latency percentiles across every request (ms).
    pub p50_ms: f64,
    /// 95th percentile across every request (ms).
    pub p95_ms: f64,
    /// 99th percentile across every request (ms).
    pub p99_ms: f64,
    /// Per-query latency summaries, Table 2 order (only queries present in
    /// the stream).
    pub per_query: Vec<QuerySummary>,
    /// Per-class latency summaries (point/scatter/traversal; only classes
    /// present in the stream), each tagged with its effective deadline.
    pub per_class: Vec<ClassSummary>,
    /// Rendered result per request, in stream order — identical across
    /// thread counts by construction. Failed requests render as
    /// `<error:…>`, degraded ones carry a `<coverage:a/t>` suffix, so the
    /// digest covers fault outcomes too.
    pub rendered: Vec<String>,
    /// The per-request deadline budget the run used.
    pub deadline_us: Option<u64>,
    /// Requests that failed (rendered as `<error:…>`).
    pub errors: u64,
    /// Requests answered with partial scatter coverage.
    pub degraded: u64,
    /// Fault-layer counters attributed to this run (engine totals after
    /// minus before). For a fixed chaos seed and request stream these are
    /// identical at any thread count.
    pub faults: FaultStats,
}

impl ServeReport {
    /// FNV-1a hash over the rendered results: a cheap fingerprint for
    /// comparing runs without keeping both `rendered` vectors around.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for r in &self.rendered {
            for &b in r.as_bytes() {
                eat(b);
            }
            eat(0xff);
        }
        h
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut mode = self
            .scatter_mode
            .map(|m| format!(", scatter {}", m.label()))
            .unwrap_or_default();
        if let Some(r) = self.replicas {
            if r > 1 {
                mode.push_str(&format!(", R={r}"));
            }
        }
        let mut out = format!(
            "== serving: {} — {} requests / {} thread(s){}: {:.0} req/s (wall {:.1} ms) ==\n",
            self.engine, self.requests, self.threads, mode, self.qps, self.wall_ms
        );
        out.push_str(&format!(
            "{:<6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>7}\n",
            "query", "count", "p50 ms", "p95 ms", "p99 ms", "max ms", "maxfan"
        ));
        for q in &self.per_query {
            out.push_str(&format!(
                "{:<6} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>7}\n",
                q.query.label(),
                q.count,
                q.p50_ms,
                q.p95_ms,
                q.p99_ms,
                q.max_ms,
                q.max_fanout
            ));
        }
        out.push_str(&format!(
            "{:<9} {:>6} {:>10} {:>10} {:>10} {:>12}\n",
            "class", "count", "p50 ms", "p95 ms", "p99 ms", "deadline us"
        ));
        for c in &self.per_class {
            out.push_str(&format!(
                "{:<9} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>12}\n",
                c.class.label(),
                c.count,
                c.p50_ms,
                c.p95_ms,
                c.p99_ms,
                c.deadline_us.map_or_else(|| "-".into(), |d| d.to_string()),
            ));
        }
        if self.errors > 0 || self.degraded > 0 || !self.faults.is_zero() {
            out.push_str(&format!(
                "faults: {} — {} request(s) errored, {} degraded\n",
                self.faults, self.errors, self.degraded
            ));
        }
        out
    }
}

/// One executed request, tagged with its stream position.
struct Sample {
    index: usize,
    query: QueryId,
    ms: f64,
    rendered: String,
    errored: bool,
    degraded: bool,
    fanout: u32,
}

/// Drives a deterministic mixed Q1–Q6 stream from `config.threads` reader
/// threads against one shared engine, returning latency percentiles,
/// aggregate throughput and the per-request rendered results.
///
/// Threads pull work from a shared atomic cursor (no static partitioning,
/// so a slow query does not idle the other readers) and record results by
/// stream index, keeping the output independent of the interleaving.
///
/// Each request runs under its own deadline budget and coverage scope
/// (`crate::fault`); a failed request renders as `<error:…>` instead of
/// aborting the run, so one dead shard degrades answers, not the server.
///
/// # Panics
/// Panics when `config.threads` is zero or a reader thread panics.
pub fn serve(engine: &dyn MicroblogEngine, config: &ServeConfig) -> Result<ServeReport> {
    assert!(config.threads > 0, "serving needs at least one reader thread");
    let requests = request_stream(config.seed, config.requests, config.users, config.vocab);
    let cursor = AtomicUsize::new(0);
    let faults_before = engine.fault_stats();
    let wall = Timer::start();
    let per_thread: Vec<Vec<Sample>> = crossbeam::thread::scope(|s| {
        let mut handles = Vec::with_capacity(config.threads);
        for _ in 0..config.threads {
            let cursor = &cursor;
            let requests = &requests;
            handles.push(s.spawn(move |_| {
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = requests.get(i) else { break };
                    let t = Timer::start();
                    let deadline = config
                        .class_deadlines
                        .effective(req.query.class(), config.deadline_us);
                    let (result, stats) = fault::with_request_budget(deadline, || {
                        execute_rendered(engine, req)
                    });
                    let coverage = stats.coverage;
                    let (rendered, errored, degraded) = match result {
                        Ok(s) if coverage.is_partial() => {
                            (format!("{s} <coverage:{coverage}>"), false, true)
                        }
                        Ok(s) => (s, false, false),
                        Err(e) => (format!("<error:{e}>"), true, false),
                    };
                    local.push(Sample {
                        index: i,
                        query: req.query,
                        ms: t.elapsed_ms(),
                        rendered,
                        errored,
                        degraded,
                        fanout: stats.max_fanout,
                    });
                }
                local
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    })
    .expect("serving scope");
    let wall_ms = wall.elapsed_ms();

    let mut rendered: Vec<Option<String>> = (0..requests.len()).map(|_| None).collect();
    let mut latencies: HashMap<QueryId, Vec<f64>> = HashMap::new();
    let mut fanouts: HashMap<QueryId, u32> = HashMap::new();
    let mut all_ms: Vec<f64> = Vec::with_capacity(requests.len());
    let (mut errors, mut degraded) = (0u64, 0u64);
    for thread_samples in per_thread {
        for sample in thread_samples {
            latencies.entry(sample.query).or_default().push(sample.ms);
            let fan = fanouts.entry(sample.query).or_default();
            *fan = (*fan).max(sample.fanout);
            all_ms.push(sample.ms);
            errors += sample.errored as u64;
            degraded += sample.degraded as u64;
            rendered[sample.index] = Some(sample.rendered);
        }
    }
    let rendered: Vec<String> = rendered
        .into_iter()
        .map(|r| r.expect("every request executed exactly once"))
        .collect();
    let per_query = QueryId::ALL
        .iter()
        .filter_map(|&query| {
            let lat = latencies.get(&query)?;
            Some(QuerySummary {
                query,
                count: lat.len() as u64,
                p50_ms: percentile(lat, 50.0),
                p95_ms: percentile(lat, 95.0),
                p99_ms: percentile(lat, 99.0),
                max_ms: lat.iter().copied().fold(0.0, f64::max),
                max_fanout: fanouts.get(&query).copied().unwrap_or(0),
            })
        })
        .collect();
    let per_class = QueryClass::ALL
        .iter()
        .filter_map(|&class| {
            let lat: Vec<f64> = latencies
                .iter()
                .filter(|(q, _)| q.class() == class)
                .flat_map(|(_, l)| l.iter().copied())
                .collect();
            if lat.is_empty() {
                return None;
            }
            Some(ClassSummary {
                class,
                count: lat.len() as u64,
                p50_ms: percentile(&lat, 50.0),
                p95_ms: percentile(&lat, 95.0),
                p99_ms: percentile(&lat, 99.0),
                deadline_us: config.class_deadlines.effective(class, config.deadline_us),
            })
        })
        .collect();
    Ok(ServeReport {
        engine: engine.name(),
        threads: config.threads,
        requests: requests.len(),
        wall_ms,
        qps: requests.len() as f64 / (wall_ms / 1_000.0).max(1e-9),
        scatter_mode: engine.scatter_mode(),
        replicas: engine.replica_count(),
        p50_ms: percentile(&all_ms, 50.0),
        p95_ms: percentile(&all_ms, 95.0),
        p99_ms: percentile(&all_ms, 99.0),
        per_query,
        per_class,
        rendered,
        deadline_us: config.deadline_us,
        errors,
        degraded,
        faults: engine.fault_stats().since(&faults_before),
    })
}

/// Configuration for a mixed read/write serving run ([`serve_mixed`]).
#[derive(Debug, Clone, Copy)]
pub struct MixedConfig {
    /// Concurrent reader threads (≥ 1).
    pub threads: usize,
    /// Read requests in the stream.
    pub requests: usize,
    /// Stream seed.
    pub seed: u64,
    /// Subject-user id range (`1..=users`; match the dataset).
    pub users: u64,
    /// Hashtag vocabulary size for tag subjects.
    pub vocab: u64,
    /// Events per write batch (≥ 1).
    pub batch: usize,
    /// `true`: batches go through [`MicroblogEngine::apply_event_batch`]
    /// (group commit, DESIGN.md §4j); `false`: the per-event loop — the
    /// semantic oracle the batch-flip tests compare against.
    pub batched: bool,
}

impl Default for MixedConfig {
    fn default() -> Self {
        MixedConfig {
            threads: 4,
            requests: 256,
            seed: 42,
            users: 100,
            vocab: 16,
            batch: 64,
            batched: true,
        }
    }
}

/// Writer-side summary of a mixed run.
#[derive(Debug, Clone, Copy)]
pub struct WriteSummary {
    /// Events applied.
    pub events: usize,
    /// Events per batch.
    pub batch: usize,
    /// Whether batches used the group-commit path.
    pub batched: bool,
    /// Batches applied.
    pub batches: u64,
    /// Writer wall-clock time (ms).
    pub wall_ms: f64,
    /// Ingest throughput (events per second).
    pub events_per_s: f64,
    /// Median per-batch latency (ms).
    pub p50_ms: f64,
    /// 95th-percentile per-batch latency (ms).
    pub p95_ms: f64,
    /// 99th-percentile per-batch latency (ms).
    pub p99_ms: f64,
    /// Slowest batch (ms).
    pub max_ms: f64,
}

/// Reader-side summary of a mixed run. Individual rendered results during
/// the write burst are timing-dependent (each request sees whatever commit
/// prefix is published when it runs), so only latencies and error counts
/// are reported here — byte-level answers are checked post-quiesce.
#[derive(Debug, Clone, Copy)]
pub struct ReadSummary {
    /// Requests served.
    pub requests: usize,
    /// Reader wall-clock time (ms).
    pub wall_ms: f64,
    /// Aggregate read throughput (requests per second).
    pub qps: f64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 95th-percentile latency (ms).
    pub p95_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Requests that errored mid-burst (e.g. a subject user that had not
    /// been ingested yet) — expected to be timing-dependent.
    pub errors: u64,
}

/// The result of one mixed read/write run.
#[derive(Debug, Clone)]
pub struct MixedReport {
    /// Engine name.
    pub engine: &'static str,
    /// Reader threads used.
    pub threads: usize,
    /// Reader-side latencies during the write burst.
    pub reader: ReadSummary,
    /// Writer-side batch latencies and ingest throughput.
    pub writer: WriteSummary,
    /// A deterministic single-threaded serving run executed **after** the
    /// writer drained every event — the byte-comparable artifact. Its
    /// digest must be invariant under every performance toggle (threads,
    /// batch size, batched flag).
    pub quiesced: ServeReport,
}

impl MixedReport {
    /// Digest of the post-quiesce run — the toggle-invariance fingerprint.
    pub fn digest(&self) -> u64 {
        self.quiesced.digest()
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let w = &self.writer;
        let r = &self.reader;
        let mut out = format!(
            "== mixed serving: {} — {} reads / {} thread(s), {} events @ batch {} ({}) ==\n",
            self.engine,
            r.requests,
            self.threads,
            w.events,
            w.batch,
            if w.batched { "group commit" } else { "per event" },
        );
        out.push_str(&format!(
            "reads : {:>8.0} req/s   p50 {:>8.3} ms   p95 {:>8.3} ms   p99 {:>8.3} ms   errors {}\n",
            r.qps, r.p50_ms, r.p95_ms, r.p99_ms, r.errors
        ));
        out.push_str(&format!(
            "writes: {:>8.0} ev/s    p50 {:>8.3} ms   p95 {:>8.3} ms   p99 {:>8.3} ms   batches {}\n",
            w.events_per_s, w.p50_ms, w.p95_ms, w.p99_ms, w.batches
        ));
        out.push_str(&format!("quiesced digest: {:016x}\n", self.digest()));
        out
    }
}

/// Drives a mixed read/write workload: one writer thread drains `events`
/// in `config.batch`-sized chunks (via group commit or the per-event loop)
/// while `config.threads` readers serve the deterministic Q1–Q6 request
/// stream against the same engine. After the writer drains and the readers
/// finish, a single-threaded [`serve`] pass over the quiesced engine
/// produces the byte-comparable answers (`MixedReport::quiesced`) — the
/// artifact every performance toggle must leave untouched.
///
/// Mid-burst rendered results are inherently timing-dependent and are only
/// summarized as latencies/error counts; a writer-side event failure aborts
/// the run with that error.
///
/// # Panics
/// Panics when `config.threads` or `config.batch` is zero, or a thread
/// panics.
pub fn serve_mixed(
    engine: &dyn MicroblogEngine,
    events: &[micrograph_datagen::UpdateEvent],
    config: &MixedConfig,
) -> Result<MixedReport> {
    assert!(config.threads > 0, "mixed serving needs at least one reader thread");
    assert!(config.batch > 0, "write batches need at least one event");
    let requests = request_stream(config.seed, config.requests, config.users, config.vocab);
    let cursor = AtomicUsize::new(0);
    let (write_out, mut all_ms, errors, read_wall_ms) = crossbeam::thread::scope(|s| {
        let writer = s.spawn(|_| -> Result<(Vec<f64>, f64)> {
            let wall = Timer::start();
            let mut lat = Vec::with_capacity(events.len() / config.batch + 1);
            for chunk in events.chunks(config.batch) {
                let t = Timer::start();
                if config.batched {
                    engine.apply_event_batch(chunk)?;
                } else {
                    for event in chunk {
                        engine.apply_event(event)?;
                    }
                }
                lat.push(t.elapsed_ms());
            }
            Ok((lat, wall.elapsed_ms()))
        });
        let read_wall = Timer::start();
        let readers: Vec<_> = (0..config.threads)
            .map(|_| {
                let cursor = &cursor;
                let requests = &requests;
                s.spawn(move |_| {
                    let mut ms = Vec::new();
                    let mut errors = 0u64;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = requests.get(i) else { break };
                        let t = Timer::start();
                        errors += execute_rendered(engine, req).is_err() as u64;
                        ms.push(t.elapsed_ms());
                    }
                    (ms, errors)
                })
            })
            .collect();
        let mut all_ms = Vec::with_capacity(requests.len());
        let mut errors = 0u64;
        for h in readers {
            let (ms, e) = h.join().expect("reader thread panicked");
            all_ms.extend(ms);
            errors += e;
        }
        let read_wall_ms = read_wall.elapsed_ms();
        let write_out = writer.join().expect("writer thread panicked");
        (write_out, all_ms, errors, read_wall_ms)
    })
    .expect("mixed serving scope");
    let (batch_ms, write_wall_ms) = write_out?;
    all_ms.sort_by(f64::total_cmp);
    let writer = WriteSummary {
        events: events.len(),
        batch: config.batch,
        batched: config.batched,
        batches: batch_ms.len() as u64,
        wall_ms: write_wall_ms,
        events_per_s: events.len() as f64 / (write_wall_ms / 1_000.0).max(1e-9),
        p50_ms: percentile(&batch_ms, 50.0),
        p95_ms: percentile(&batch_ms, 95.0),
        p99_ms: percentile(&batch_ms, 99.0),
        max_ms: batch_ms.iter().copied().fold(0.0, f64::max),
    };
    let reader = ReadSummary {
        requests: requests.len(),
        wall_ms: read_wall_ms,
        qps: requests.len() as f64 / (read_wall_ms / 1_000.0).max(1e-9),
        p50_ms: percentile(&all_ms, 50.0),
        p95_ms: percentile(&all_ms, 95.0),
        p99_ms: percentile(&all_ms, 99.0),
        errors,
    };
    let quiesced = serve(
        engine,
        &ServeConfig {
            threads: 1,
            requests: config.requests,
            seed: config.seed,
            users: config.users,
            vocab: config.vocab,
            deadline_us: None,
            class_deadlines: ClassDeadlines::default(),
        },
    )?;
    Ok(MixedReport {
        engine: engine.name(),
        threads: config.threads,
        reader,
        writer,
        quiesced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_deterministic() {
        let a = request_stream(7, 64, 100, 16);
        let b = request_stream(7, 64, 100, 16);
        assert_eq!(a.len(), 64);
        assert_eq!(a, b);
        let c = request_stream(8, 64, 100, 16);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn class_deadlines_fall_back_to_blanket() {
        let d = ClassDeadlines { scatter_us: Some(40), ..Default::default() };
        assert_eq!(d.effective(QueryClass::Scatter, Some(100)), Some(40));
        assert_eq!(d.effective(QueryClass::Point, Some(100)), Some(100));
        assert_eq!(d.effective(QueryClass::Traversal, None), None);
        assert_eq!(ClassDeadlines::default().effective(QueryClass::Scatter, None), None);
    }

    #[test]
    fn stream_covers_the_catalog() {
        let s = request_stream(3, 512, 100, 16);
        for q in QueryId::ALL {
            assert!(s.iter().any(|r| r.query == q), "{} never sampled", q.label());
        }
    }
}
