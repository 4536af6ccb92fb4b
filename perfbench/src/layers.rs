//! The per-layer breakdown of a traced run: self times from the spans,
//! work counts from deltas of the engines' public counters.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use micrograph_common::stats::percentile;
use micrograph_core::workload::QueryId;
use micrograph_core::{ArborEngine, BitEngine};

use crate::report::Metrics;
use crate::setup::{Built, SetupTimes};
use crate::trace::{Layer, Span, Tracer};
use crate::{median, Phases, BACKENDS, BATCH};

/// Public counters summed over a backend's leaf engines.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub page_accesses: u64,
    pub page_hits: u64,
    pub evictions: u64,
    pub writebacks: u64,
    pub index_seeks: u64,
    pub label_scans: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub wal_bytes: u64,
    pub nav_calls: u64,
    pub values_read: u64,
    pub select_scans: u64,
}

impl Counters {
    /// `ArborEngine::db().stats()`, `ql().cache_stats()` and the WAL sizes.
    pub fn arbor(leaves: &[Arc<ArborEngine>], wals: &[PathBuf]) -> Counters {
        let mut c = Counters::default();
        for e in leaves {
            let s = e.db().stats();
            let (hits, misses) = e.ql().cache_stats();
            c.page_accesses += s.pages.accesses;
            c.page_hits += s.pages.hits;
            c.evictions += s.pages.evictions;
            c.writebacks += s.pages.writebacks;
            c.index_seeks += s.index_seeks;
            c.label_scans += s.label_scans;
            c.plan_hits += hits;
            c.plan_misses += misses;
        }
        c.wal_bytes = wals
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();
        c
    }

    /// `BitEngine::graph().stats()`; navigation calls are `neighbors`,
    /// `explode` and `find_object`.
    pub fn bit(leaves: &[Arc<BitEngine>]) -> Counters {
        let mut c = Counters::default();
        for e in leaves {
            let s = e.graph().stats();
            c.nav_calls += s.neighbors_calls + s.explode_calls + s.find_object_calls;
            c.values_read += s.values_read;
            c.select_scans += s.select_scans;
        }
        c
    }

    /// Field-wise sum.
    pub fn plus(&self, other: &Counters) -> Counters {
        Counters {
            page_accesses: self.page_accesses + other.page_accesses,
            page_hits: self.page_hits + other.page_hits,
            evictions: self.evictions + other.evictions,
            writebacks: self.writebacks + other.writebacks,
            index_seeks: self.index_seeks + other.index_seeks,
            label_scans: self.label_scans + other.label_scans,
            plan_hits: self.plan_hits + other.plan_hits,
            plan_misses: self.plan_misses + other.plan_misses,
            wal_bytes: self.wal_bytes + other.wal_bytes,
            nav_calls: self.nav_calls + other.nav_calls,
            values_read: self.values_read + other.values_read,
            select_scans: self.select_scans + other.select_scans,
        }
    }

    /// Counts accumulated since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            page_accesses: self.page_accesses - before.page_accesses,
            page_hits: self.page_hits - before.page_hits,
            evictions: self.evictions - before.evictions,
            writebacks: self.writebacks - before.writebacks,
            index_seeks: self.index_seeks - before.index_seeks,
            label_scans: self.label_scans - before.label_scans,
            plan_hits: self.plan_hits - before.plan_hits,
            plan_misses: self.plan_misses - before.plan_misses,
            wal_bytes: self.wal_bytes.saturating_sub(before.wal_bytes),
            nav_calls: self.nav_calls - before.nav_calls,
            values_read: self.values_read - before.values_read,
            select_scans: self.select_scans - before.select_scans,
        }
    }
}

/// Length of the union of `[start, end)` intervals.
fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cur) = (0, None::<(u64, u64)>);
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Nanosecond sums over the traced reads of one backend.
#[derive(Debug, Default)]
struct SelfTimes {
    requests: u64,
    wall: u64,
    serve: u64,
    shard: u64,
    adapter: u64,
    kernel: u64,
    shard_calls: u64,
    probes: u64,
    shard_sum: u64,
    /// Largest |Σ self − wall| / wall over single requests.
    worst_gap: f64,
}

/// Splits every traced read into serve / shard / adapter self time: the
/// request span minus the engine span is rendering and dispatch, the
/// engine span minus the union of its shard spans is the shard layer, and
/// what the shard spans cover (the engine span on a monolith) is adapter.
fn self_times(spans: &[Span]) -> [SelfTimes; 2] {
    let mut by_request: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.request != 0 && s.layer != Layer::Setup)
    {
        by_request.entry(s.request).or_default().push(s);
    }
    let mut out = [SelfTimes::default(), SelfTimes::default()];
    for group in by_request.values() {
        let Some(req) = group.iter().find(|s| s.layer == Layer::Request) else {
            continue;
        };
        let backend = ((req.request >> 40) as usize).saturating_sub(1).min(1);
        let engine: u64 = group
            .iter()
            .filter(|s| s.layer == Layer::Engine)
            .map(|s| s.dur_ns())
            .sum();
        let shards: Vec<&&Span> = group
            .iter()
            .filter(|s| matches!(s.layer, Layer::Shard(_)))
            .collect();
        let covered = union_ns(shards.iter().map(|s| (s.start_ns, s.end_ns)).collect());
        let (adapter, shard) = if shards.is_empty() {
            (engine, 0)
        } else {
            (covered, engine.saturating_sub(covered))
        };
        let serve = req.dur_ns().saturating_sub(engine);
        let t = &mut out[backend];
        t.requests += 1;
        t.wall += req.dur_ns();
        t.serve += serve;
        t.shard += shard;
        t.adapter += adapter;
        t.kernel += union_ns(
            shards
                .iter()
                .filter(|s| s.name.ends_with("_kernel"))
                .map(|s| (s.start_ns, s.end_ns))
                .collect(),
        );
        t.shard_calls += shards.len() as u64;
        t.probes += shards
            .iter()
            .filter(|s| s.name.ends_with("_counts_for_kernel"))
            .count() as u64;
        t.shard_sum += shards.iter().map(|s| s.dur_ns()).sum::<u64>();
        let gap =
            (serve + shard + adapter).abs_diff(req.dur_ns()) as f64 / req.dur_ns().max(1) as f64;
        t.worst_gap = t.worst_gap.max(gap);
    }
    out
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Computes every per-layer metric of a traced run into `m`.
pub fn per_layer(
    m: &mut Metrics,
    built: &Built,
    times: &[SetupTimes],
    phases: &[Phases],
    tracer: &Tracer,
) {
    m.put(
        "datagen.generate_s",
        median(times.iter().map(|t| t.generate)),
        "s",
    );
    m.put("datagen.csv_s", median(times.iter().map(|t| t.csv)), "s");
    m.put(
        "ingest.arbordb_s",
        median(times.iter().map(|t| t.arbordb)),
        "s",
    );
    m.put(
        "ingest.bitgraph_s",
        median(times.iter().map(|t| t.bitgraph)),
        "s",
    );
    m.put(
        "ingest.partition_s",
        median(times.iter().map(|t| t.partition)),
        "s",
    );
    m.put(
        "bitgraph.load_flush_stalls",
        built.flush_stalls as f64,
        "count",
    );

    let st = self_times(&tracer.spans());
    let sum = |f: fn(&SelfTimes) -> u64| st.iter().map(f).sum::<u64>() as f64;
    let requests = sum(|t| t.requests);
    let per_req_us = |ns: f64| ratio(ns, requests) / 1e3;
    let traced_reads = || phases.iter().flat_map(|p| p.traced_reads.samples.iter());
    m.put("serve.self_us", per_req_us(sum(|t| t.serve)), "us");
    m.put(
        "serve.result_bytes",
        ratio(
            traced_reads().map(|s| s.bytes as f64).sum(),
            traced_reads().count() as f64,
        ),
        "bytes",
    );
    m.put("shard.self_us", per_req_us(sum(|t| t.shard)), "us");
    m.put("shard.kernel_us", per_req_us(sum(|t| t.kernel)), "us");
    m.put(
        "shard.calls_per_request",
        ratio(sum(|t| t.shard_calls), requests),
        "count",
    );
    m.put(
        "shard.probe_share",
        ratio(sum(|t| t.probes), sum(|t| t.shard_calls)),
        "ratio",
    );
    let covered = sum(|t| if t.shard_calls > 0 { t.adapter } else { 0 });
    m.put(
        "shard.overlap",
        ratio(sum(|t| t.shard_sum), covered),
        "ratio",
    );
    for (name, t) in BACKENDS.iter().zip(&st) {
        m.put(
            &format!("{name}.engine_us"),
            ratio(t.adapter as f64, t.requests as f64) / 1e3,
            "us",
        );
    }
    let worst = st.iter().map(|t| t.worst_gap).fold(0.0, f64::max);
    let total_gap = ratio(
        (sum(|t| t.serve + t.shard + t.adapter) - sum(|t| t.wall)).abs(),
        sum(|t| t.wall),
    );
    eprintln!(
        "trace: {} requests; self times sum to wall within {:.3}% overall, {:.3}% worst request",
        requests,
        total_gap * 100.0,
        worst * 100.0
    );

    for (name, p) in BACKENDS.iter().zip(phases) {
        let total: f64 = p.reads.samples.iter().map(|s| s.ms).sum();
        for q in QueryId::ALL {
            let ms: Vec<f64> = p
                .reads
                .samples
                .iter()
                .filter(|s| s.query == q)
                .map(|s| s.ms)
                .collect();
            let key = format!("{name}.{q:?}");
            m.put(
                &format!("{key}.share"),
                ratio(ms.iter().sum(), total),
                "ratio",
            );
            m.put(&format!("{key}.p50_ms"), percentile(&ms, 50.0), "ms");
        }
    }

    let (a, b) = (&phases[0], &phases[1]);
    let (ra, rb) = (a.read_counters, b.read_counters);
    let na = a.traced_reads.samples.len() as f64;
    let nb = b.traced_reads.samples.len() as f64;
    let rows: f64 = a.traced_reads.samples.iter().map(|s| s.rows as f64).sum();
    m.put(
        "arborql.plan_cache_hit_ratio",
        ratio(ra.plan_hits as f64, (ra.plan_hits + ra.plan_misses) as f64),
        "ratio",
    );
    m.put("arborql.plans_compiled", ra.plan_misses as f64, "count");
    m.put(
        "arbordb.db_hits_per_request",
        ratio(ra.page_accesses as f64, na),
        "count",
    );
    m.put(
        "arbordb.db_hits_per_row",
        ratio(ra.page_accesses as f64, rows),
        "count",
    );
    m.put(
        "arbordb.index_seeks_per_request",
        ratio(ra.index_seeks as f64, na),
        "count",
    );
    m.put(
        "arbordb.label_scans_per_request",
        ratio(ra.label_scans as f64, na),
        "count",
    );
    m.put(
        "pagestore.hit_ratio",
        ratio(ra.page_hits as f64, ra.page_accesses as f64),
        "ratio",
    );
    m.put(
        "pagestore.evictions_per_request",
        ratio(ra.evictions as f64, na),
        "count",
    );
    let events = (a.writes.commit_ms.len() * BATCH) as f64;
    m.put(
        "pagestore.writebacks_per_event",
        ratio(a.write_counters.writebacks as f64, events),
        "count",
    );
    m.put(
        "pagestore.wal_bytes_per_event",
        ratio(a.write_counters.wal_bytes as f64, events),
        "bytes",
    );
    m.put(
        "bitgraph.nav_calls_per_request",
        ratio(rb.nav_calls as f64, nb),
        "count",
    );
    m.put(
        "bitgraph.values_read_per_request",
        ratio(rb.values_read as f64, nb),
        "count",
    );
    m.put(
        "bitgraph.select_scans_per_request",
        ratio(rb.select_scans as f64, nb),
        "count",
    );

    for (name, p) in BACKENDS.iter().zip(phases) {
        m.put(
            &format!("write.{name}.batch_us"),
            percentile(&p.writes.commit_ms, 50.0) * 1e3,
            "us",
        );
    }

    let per_request = |r: &crate::drive::ReadOut| ratio(r.wall_s, r.samples.len() as f64);
    let overhead: Vec<f64> = phases
        .iter()
        .map(|p| ratio(per_request(&p.traced_reads), per_request(&p.reads)) - 1.0)
        .collect();
    m.put(
        "trace.overhead",
        overhead.iter().sum::<f64>() / overhead.len() as f64,
        "ratio",
    );
}
