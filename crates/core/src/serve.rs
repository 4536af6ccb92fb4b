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
