//! Span recording from the benchmark's own side of every layer boundary.
//!
//! Nothing inside the program is instrumented. The benchmark wraps the top
//! engine and every inner shard engine in [`Traced`], a forwarding
//! `MicroblogEngine`, and wraps each request, write batch and set-up step
//! in a span of its own. Spans live in memory until [`Tracer::write_csv`]
//! writes them out when the run ends.

use std::cell::Cell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use micrograph_common::topn::TopKPartial;
use micrograph_core::fault::FaultStats;
use micrograph_core::{ExecMode, MicroblogEngine, Ranked, Result, ScatterMode, WriteMode};
use micrograph_datagen::UpdateEvent;

/// Which boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One read: the call to `serve::execute_rendered`.
    Request,
    /// One write batch: the call to `apply_event_batch` on the top engine.
    Write,
    /// A set-up step (generate, write_csv, ingest_*, partition_dataset).
    Setup,
    /// A trait call on the top engine.
    Engine,
    /// A trait call on one inner shard engine.
    Shard(u16),
}

impl Layer {
    fn label(self) -> String {
        match self {
            Layer::Request => "request".into(),
            Layer::Write => "write".into(),
            Layer::Setup => "setup".into(),
            Layer::Engine => "engine".into(),
            Layer::Shard(i) => format!("shard{i}"),
        }
    }
}

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique span id (1-based; 0 means "none").
    pub id: u64,
    /// The enclosing span, or 0.
    pub parent: u64,
    /// The request (or write batch) this span belongs to, or 0.
    pub request: u64,
    /// Small per-process thread number.
    pub thread: u64,
    /// Boundary the span was recorded at.
    pub layer: Layer,
    /// Query label, trait method or set-up step.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static THREAD_NO: Cell<u64> = const { Cell::new(0) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
    static PARENT: Cell<u64> = const { Cell::new(0) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_no() -> u64 {
    THREAD_NO.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// The in-memory span store. Disabled tracers record nothing, so one set
/// of wrapped engines serves both the untraced and the traced half of a
/// traced run.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    /// Request and engine span of the request in flight, for spans opened on
    /// scatter-pool threads (which carry no thread-local request). Exact
    /// when one client drives a sharded engine, as in `serve-sharded`.
    current_request: AtomicU64,
    current_engine: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            current_request: AtomicU64::new(0),
            current_engine: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Starts or stops recording.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span at `layer`. A `Request`/`Write` span also
    /// becomes the request id of every span opened beneath it.
    pub fn span<T>(
        &self,
        layer: Layer,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer_parent = PARENT.with(|p| p.replace(id));
        let outer_request = REQUEST.with(|r| r.get());
        let (parent, request) = match layer {
            Layer::Request | Layer::Write => {
                REQUEST.with(|r| r.set(request));
                self.current_request.store(request, Ordering::Relaxed);
                (outer_parent, request)
            }
            _ if outer_request == 0 => (
                if outer_parent == 0 {
                    self.current_engine.load(Ordering::Relaxed)
                } else {
                    outer_parent
                },
                self.current_request.load(Ordering::Relaxed),
            ),
            _ => (outer_parent, outer_request),
        };
        if layer == Layer::Engine {
            self.current_engine.store(id, Ordering::Relaxed);
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        PARENT.with(|p| p.set(outer_parent));
        REQUEST.with(|r| r.set(outer_request));
        let span = Span {
            id,
            parent,
            request,
            thread: thread_no(),
            layer,
            name,
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .push(span);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .clone()
    }

    /// Writes every span as one CSV row.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,request,thread,layer,name,start_ns,end_ns")?;
        for s in self.spans() {
            writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                s.id,
                s.parent,
                s.request,
                s.thread,
                s.layer.label(),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A forwarding engine that records one span per trait call. Every method
/// of `MicroblogEngine` is forwarded explicitly — a trait default left in
/// place would silently run the default (e.g. unbatched) path instead of
/// the inner engine's override.
pub struct Traced<E: ?Sized> {
    inner: Arc<E>,
    layer: Layer,
    tracer: Arc<Tracer>,
}

impl<E: MicroblogEngine + ?Sized> Traced<E> {
    /// Wraps `inner`, recording its calls at `layer`.
    pub fn new(inner: Arc<E>, layer: Layer, tracer: Arc<Tracer>) -> Self {
        Traced {
            inner,
            layer,
            tracer,
        }
    }

    fn call<T>(&self, name: &'static str, f: impl FnOnce(&E) -> T) -> T {
        self.tracer.span(self.layer, name, 0, || f(&self.inner))
    }
}

/// Forwards each listed method through a span named after it.
macro_rules! spanned {
    ($($name:ident($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {
        $(fn $name(&self, $($arg: $ty),*) -> $ret {
            self.call(stringify!($name), |e| e.$name($($arg),*))
        })*
    };
}

impl<E: MicroblogEngine + ?Sized> MicroblogEngine for Traced<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    spanned! {
        users_with_followers_over(threshold: i64) -> Result<Vec<i64>>;
        followees(uid: i64) -> Result<Vec<i64>>;
        followee_tweets(uid: i64) -> Result<Vec<i64>>;
        followee_hashtags(uid: i64) -> Result<Vec<String>>;
        co_mentioned_users(uid: i64, n: usize) -> Result<Vec<Ranked<i64>>>;
        co_occurring_hashtags(tag: &str, n: usize) -> Result<Vec<Ranked<String>>>;
        recommend_followees(uid: i64, n: usize) -> Result<Vec<Ranked<i64>>>;
        recommend_followers(uid: i64, n: usize) -> Result<Vec<Ranked<i64>>>;
        current_influence(uid: i64, n: usize) -> Result<Vec<Ranked<i64>>>;
        potential_influence(uid: i64, n: usize) -> Result<Vec<Ranked<i64>>>;
        shortest_path_len(a: i64, b: i64, max_hops: u32) -> Result<Option<u32>>;
        tweets_with_hashtag(tag: &str) -> Result<Vec<i64>>;
        retweet_count(tid: i64) -> Result<u64>;
        poster_of(tid: i64) -> Result<i64>;
        has_user(uid: i64) -> Result<bool>;
        posted_tweets_kernel(uids: &[i64]) -> Result<Vec<i64>>;
        hashtags_kernel(uids: &[i64]) -> Result<Vec<String>>;
        count_followees_kernel(uids: &[i64]) -> Result<Vec<(i64, u64)>>;
        count_followers_kernel(uids: &[i64]) -> Result<Vec<(i64, u64)>>;
        co_mention_counts_kernel(uid: i64) -> Result<Vec<(i64, u64)>>;
        co_tag_counts_kernel(tag: &str) -> Result<Vec<(String, u64)>>;
        follow_frontier_kernel(uids: &[i64]) -> Result<Vec<i64>>;
        co_mention_topn_kernel(uid: i64, k: usize) -> Result<TopKPartial<i64>>;
        co_mention_counts_for_kernel(uid: i64, keys: &[i64]) -> Result<Vec<(i64, u64)>>;
        co_tag_topn_kernel(tag: &str, k: usize) -> Result<TopKPartial<String>>;
        co_tag_counts_for_kernel(tag: &str, keys: &[String]) -> Result<Vec<(String, u64)>>;
        count_followees_topn_kernel(uids: &[i64], exclude: &[i64], k: usize) -> Result<TopKPartial<i64>>;
        count_followees_counts_for_kernel(uids: &[i64], keys: &[i64]) -> Result<Vec<(i64, u64)>>;
        count_followers_topn_kernel(uids: &[i64], exclude: &[i64], k: usize) -> Result<TopKPartial<i64>>;
        count_followers_counts_for_kernel(uids: &[i64], keys: &[i64]) -> Result<Vec<(i64, u64)>>;
        influence_topn_kernel(uid: i64, current: bool, k: usize) -> Result<TopKPartial<i64>>;
        ensure_user(uid: i64) -> Result<()>;
        bump_followers(uid: i64, delta: i64) -> Result<()>;
        apply_event(event: &UpdateEvent) -> Result<()>;
        apply_event_batch(events: &[UpdateEvent]) -> Result<()>;
        drop_caches() -> Result<()>;
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn ops_count(&self) -> u64 {
        self.inner.ops_count()
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn scatter_mode(&self) -> Option<ScatterMode> {
        self.inner.scatter_mode()
    }

    fn set_scatter_mode(&self, mode: ScatterMode) -> bool {
        self.inner.set_scatter_mode(mode)
    }

    fn exec_mode(&self) -> Option<ExecMode> {
        self.inner.exec_mode()
    }

    fn set_exec_mode(&self, mode: ExecMode) -> bool {
        self.inner.set_exec_mode(mode)
    }

    fn batched_kernels(&self) -> Option<bool> {
        self.inner.batched_kernels()
    }

    fn set_batched_kernels(&self, on: bool) -> bool {
        self.inner.set_batched_kernels(on)
    }

    fn write_mode(&self) -> Option<WriteMode> {
        self.inner.write_mode()
    }

    fn set_write_mode(&self, mode: WriteMode) -> bool {
        self.inner.set_write_mode(mode)
    }

    fn replica_count(&self) -> Option<usize> {
        self.inner.replica_count()
    }
}
