//! Traffic: seeded request and event streams, closed-loop readers and the
//! closed-loop writer.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use micrograph_common::rng::SplitMix64;
use micrograph_core::serve::{execute_rendered, Request};
use micrograph_core::workload::{QueryId, QueryParams};
use micrograph_core::MicroblogEngine;
use micrograph_datagen::{Dataset, GenConfig, StreamGen, StreamMix, UpdateEvent};

use crate::trace::{Layer, Tracer};

/// How request subjects are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subjects {
    /// Uniformly over every user.
    Uniform,
    /// Zipf(1.0) over users ranked by follower count.
    Zipf,
}

/// Golden-ratio and silver-ratio steps of the two Weyl sequences.
const PHI: f64 = 0.618_033_988_749_894_9;
const SQRT2_FRAC: f64 = 0.414_213_562_373_095_1;

/// The request at stream position `i` is a pure function of the stream
/// seed and `i`, so any client, backend or run can regenerate it.
///
/// The stream is equidistributed rather than drawn independently: the
/// queries take turns (each 1/11 of any window), and the k-th request of a
/// query takes its subject at quantile `frac(offset + k·φ)` of the users
/// ranked by cost (out-degree for uniform subjects, follower count for
/// Zipf ones). Every user is as likely as under independent draws, but a
/// window of any length covers the expensive tail — a few Q4 subjects cost
/// seconds — in proportion, instead of by luck.
pub struct RequestGen {
    /// Query rotation offset and per-query sequence offsets.
    rotate: usize,
    offsets: [(f64, f64); 11],
    ranked: Vec<i64>,
    /// Cumulative subject weights by rank; `None` means uniform.
    cdf: Option<Vec<f64>>,
    vocab: u64,
}

impl RequestGen {
    pub fn new(seed: u64, dataset: &Dataset, config: &GenConfig, subjects: Subjects) -> Self {
        let mut rng = SplitMix64::new(seed);
        let rotate = rng.next_below(QueryId::ALL.len() as u64) as usize;
        let offsets = std::array::from_fn(|_| (rng.next_f64(), rng.next_f64()));
        let mut out_degree = vec![0u64; dataset.users.len() + 1];
        for &(src, _) in &dataset.follows {
            out_degree[src as usize] += 1;
        }
        let mut ranked: Vec<(u64, u64)> = dataset
            .users
            .iter()
            .map(|u| match subjects {
                Subjects::Uniform => (out_degree[u.uid as usize], u.uid),
                Subjects::Zipf => (u.followers as u64, u.uid),
            })
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let cdf = (subjects == Subjects::Zipf).then(|| {
            let mut acc = 0.0;
            let mut cdf: Vec<f64> = (1..=ranked.len())
                .map(|k| {
                    acc += 1.0 / k as f64;
                    acc
                })
                .collect();
            cdf.iter_mut().for_each(|c| *c /= acc);
            cdf
        });
        RequestGen {
            rotate,
            offsets,
            ranked: ranked.into_iter().map(|(_, uid)| uid as i64).collect(),
            cdf,
            vocab: config.effective_vocab().clamp(2, 16),
        }
    }

    /// The rank at quantile `u` of the subject distribution.
    fn rank(&self, u: f64) -> usize {
        let n = self.ranked.len();
        match &self.cdf {
            Some(cdf) => cdf.partition_point(|&c| c < u).min(n - 1),
            None => ((u * n as f64) as usize).min(n - 1),
        }
    }

    pub fn request(&self, i: usize) -> Request {
        let q = (i + self.rotate) % QueryId::ALL.len();
        let k = (i / QueryId::ALL.len()) as f64;
        let (off_a, off_b) = self.offsets[q];
        let u = (off_a + k * PHI).fract();
        let a = self.rank(u);
        let mut b = self.rank((off_b + k * SQRT2_FRAC).fract());
        if b == a {
            b = (a + 1) % self.ranked.len();
        }
        let params = QueryParams {
            uid: self.ranked[a],
            uid_b: self.ranked[b],
            tag: format!("tag{}", 1 + (u * self.vocab as f64) as u64),
            threshold: 1 + (u * 63.0) as i64,
            n: 10,
            max_hops: 4,
        };
        Request {
            query: QueryId::ALL[q],
            params,
        }
    }
}

/// The writer's input: the `StreamGen` continuation of the dataset, cut
/// into `batches` batches of `batch` events.
pub fn event_batches(
    dataset: &Dataset,
    config: &GenConfig,
    seed: u64,
    batches: usize,
    batch: usize,
) -> Vec<Vec<UpdateEvent>> {
    let mut gen = StreamGen::new(dataset, config, seed, StreamMix::default());
    (0..batches).map(|_| gen.events(batch)).collect()
}

/// FNV-1a over a rendering — what the answer checks compare.
pub fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Result rows in a rendering from `execute_rendered`: list and ranked
/// results count their entries, a found path counts one.
pub fn rows(rendered: &str) -> u64 {
    match rendered {
        "" | "[]" | "None" => 0,
        s if s.starts_with('[') => s.matches(", ").count() as u64 + 1,
        s if s.starts_with("Some") => 1,
        s => s.matches(';').count() as u64 + 1,
    }
}

/// One completed read.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub index: usize,
    pub query: QueryId,
    pub ms: f64,
    /// FNV of the rendering; `None` when the request errored.
    pub hash: Option<u64>,
    pub bytes: u64,
    pub rows: u64,
}

/// What one read window produced.
#[derive(Debug, Default)]
pub struct ReadOut {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
}

impl ReadOut {
    /// Appends another window's reads.
    pub fn extend(&mut self, other: ReadOut) {
        self.samples.extend(other.samples);
        self.wall_s += other.wall_s;
    }

    pub fn errors(&self) -> u64 {
        errors(&self.samples)
    }
}

/// Reads that returned an error.
pub fn errors(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| s.hash.is_none()).count() as u64
}

/// Runs one request, inside a request span when a tracer is given.
fn run_one(
    engine: &dyn MicroblogEngine,
    req: &Request,
    index: usize,
    id_base: u64,
    tracer: Option<&Tracer>,
) -> Sample {
    let t = Instant::now();
    let result = match tracer {
        Some(tr) => tr.span(
            Layer::Request,
            req.query.label(),
            id_base + index as u64 + 1,
            || execute_rendered(engine, req),
        ),
        None => execute_rendered(engine, req),
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let (hash, bytes, rows) = match result {
        Ok(s) => (Some(fnv(&s)), s.len() as u64, rows(&s)),
        Err(_) => (None, 0, 0),
    };
    Sample {
        index,
        query: req.query,
        ms,
        hash,
        bytes,
        rows,
    }
}

/// `clients` closed-loop clients pull stream positions from `first` on
/// and issue requests until `secs` have passed.
pub fn read_window(
    engine: &dyn MicroblogEngine,
    gen: &RequestGen,
    clients: usize,
    first: usize,
    secs: f64,
    id_base: u64,
    tracer: Option<&Tracer>,
) -> ReadOut {
    let cursor = AtomicUsize::new(first);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    while Instant::now() < deadline {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        local.push(run_one(engine, &gen.request(i), i, id_base, tracer));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    samples.sort_by_key(|s| s.index);
    ReadOut { samples, wall_s }
}

/// Runs `count` stream positions from `first` on one thread, untimed —
/// the answer-check pass.
pub fn read_fixed(
    engine: &dyn MicroblogEngine,
    gen: &RequestGen,
    first: usize,
    count: usize,
) -> Vec<Sample> {
    read_at(engine, gen, first..first + count)
}

/// Runs the given stream positions in order on one thread, untimed.
pub fn read_at(
    engine: &dyn MicroblogEngine,
    gen: &RequestGen,
    positions: impl IntoIterator<Item = usize>,
) -> Vec<Sample> {
    positions
        .into_iter()
        .map(|i| run_one(engine, &gen.request(i), i, 0, None))
        .collect()
}

/// At most `n` positions of `range`, spread over it by golden-ratio steps
/// (so they do not fall in step with the query rotation), in order.
pub fn sample_positions(range: Range<usize>, n: usize) -> Vec<usize> {
    let len = range.len();
    if len <= n {
        return range.collect();
    }
    let mut picked: Vec<usize> = (0..n)
        .map(|k| range.start + ((k as f64 * PHI).fract() * len as f64) as usize)
        .collect();
    picked.sort_unstable();
    picked.dedup();
    picked
}

/// What one write phase produced, per batch.
#[derive(Debug, Default)]
pub struct WriteOut {
    /// Time until `apply_event_batch` returned and the events are
    /// visible, ms.
    pub commit_ms: Vec<f64>,
    pub errors: u64,
}

impl WriteOut {
    /// Appends another phase's batches.
    pub fn extend(&mut self, other: WriteOut) {
        self.commit_ms.extend(other.commit_ms);
        self.errors += other.errors;
    }
}

/// Commits `batches` back to back (a closed loop: each batch is issued
/// when the previous one returns).
pub fn write_window(
    engine: &dyn MicroblogEngine,
    batches: &[Vec<UpdateEvent>],
    id_base: u64,
    tracer: Option<&Tracer>,
) -> WriteOut {
    let mut out = WriteOut::default();
    for (i, batch) in batches.iter().enumerate() {
        let t = Instant::now();
        let result = match tracer {
            Some(tr) => tr.span(
                Layer::Write,
                "apply_event_batch",
                id_base + i as u64 + 1,
                || engine.apply_event_batch(batch),
            ),
            None => engine.apply_event_batch(batch),
        };
        out.commit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.errors += result.is_err() as u64;
    }
    out
}
