//! Deterministic fault injection + retry/deadline/degradation semantics.
//!
//! The serving story so far assumed every shard answers every call. This
//! module makes the failure half of that story testable — *without* wall
//! clocks, sleeps or randomness at run time, so every chaos run is exactly
//! reproducible:
//!
//! * [`FaultPlan`] — a seeded schedule of faults. Whether a given engine
//!   call faults is a pure hash of `(plan seed, wrapper salt, method name,
//!   argument key, retry attempt)`; nothing else feeds the decision.
//! * [`ChaosEngine`] — wraps any inner [`MicroblogEngine`] and consults the
//!   plan **before** delegating, so a faulted call never half-applies a
//!   write and an injected panic never unwinds while the inner engine holds
//!   a lock. Faults manifest as [`CoreError::Unavailable`] or (with
//!   [`FaultPlan::panic_bias`] > 0) as panics.
//! * [`RetryPolicy`] / [`DegradationMode`] — how the sharded merge layer
//!   (`crate::shard`) responds: bounded retries with deterministic
//!   exponential backoff charged against a **virtual** per-query deadline
//!   budget (microseconds of modelled time, not wall time), and an opt-in
//!   partial-results mode for scatter queries.
//! * Ambient request state — thread-locals carrying the current retry
//!   attempt, the remaining deadline budget and the scatter coverage of the
//!   in-flight request. They are per-thread and saved/restored on nesting,
//!   so concurrent serving threads never observe each other.
//!
//! The headline invariant (pinned by `tests/chaos_serving.rs`): under a
//! purely transient plan, with retries enabled, every query's answer is
//! **byte-identical** to the fault-free run — and the fault counters in the
//! serving report are identical at any reader thread count.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::engine::{MicroblogEngine, Ranked};
use crate::{CoreError, Result};

// ---- deterministic hashing ----------------------------------------------

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a string (method names, tags).
fn fnv(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Maps a hash to [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Argument keys: fold whatever identifies a call into one u64 so the
/// fault schedule distinguishes calls without caring about types. The
/// same keys route replicated reads ([`crate::shard::replica_of`]), so
/// they are public: tests predict a query's primary replica with them.
pub fn key_u64(x: u64) -> u64 {
    mix(x)
}

/// [`key_u64`] for signed ids (uids, tids, thresholds).
pub fn key_i64(x: i64) -> u64 {
    mix(x as u64)
}

/// Argument key for a string argument (tags, method names).
pub fn key_str(s: &str) -> u64 {
    fnv(s)
}

/// Argument key for an id-list argument (batched kernel uid lists).
pub fn key_slice(xs: &[i64]) -> u64 {
    xs.iter().fold(0x51AF_D0A3_BAAD_F00Du64, |acc, &x| mix(acc ^ x as u64))
}

/// Argument key for a string-list argument.
pub fn key_str_slice(xs: &[String]) -> u64 {
    xs.iter().fold(0x6B5F_23C1_0DDB_A11Cu64, |acc, x| mix(acc ^ fnv(x)))
}

/// Combines two argument keys into one (order-sensitive).
pub fn key2(a: u64, b: u64) -> u64 {
    mix(a ^ mix(b))
}

// ---- the fault schedule --------------------------------------------------

/// A seeded, wall-clock-free fault schedule.
///
/// Rates are probabilities per gated engine call; latencies are **virtual
/// microseconds** charged against the ambient deadline budget (when one is
/// installed) — chaos runs never sleep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Root seed; every decision hash mixes it in.
    pub seed: u64,
    /// Probability that a call is transiently faulted.
    pub transient_rate: f64,
    /// How many consecutive attempts a transient fault survives. A call
    /// picked by `transient_rate` fails on attempts `0..transient_burst`
    /// and succeeds from attempt `transient_burst` on — so any
    /// [`RetryPolicy`] with `max_attempts > transient_burst` fully masks
    /// transient faults.
    pub transient_burst: u32,
    /// Probability that a call is permanently faulted (fails every
    /// attempt; retries cannot mask it).
    pub permanent_rate: f64,
    /// Given a fault, probability it manifests as a panic instead of an
    /// `Unavailable` error. Injected panics carry a payload starting with
    /// [`INJECTED_PANIC_PREFIX`].
    pub panic_bias: f64,
    /// Virtual cost charged to the deadline budget per gated call.
    pub call_latency_us: u64,
    /// Extra virtual cost charged when a call faults (slow failure).
    pub fault_latency_us: u64,
}

impl FaultPlan {
    /// A no-fault plan (useful as a baseline: same wrapper, zero injection).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.0,
            transient_burst: 0,
            permanent_rate: 0.0,
            panic_bias: 0.0,
            call_latency_us: 0,
            fault_latency_us: 0,
        }
    }

    /// Transient-only chaos: ~8% of calls fail their first two attempts
    /// (some as panics), then recover. The default [`RetryPolicy`]
    /// (4 attempts) masks every fault this plan injects.
    pub fn transient(seed: u64) -> Self {
        FaultPlan {
            transient_rate: 0.08,
            transient_burst: 2,
            panic_bias: 0.2,
            call_latency_us: 10,
            fault_latency_us: 50,
            ..FaultPlan::new(seed)
        }
    }

    /// Hostile chaos: transient faults plus ~4% permanent shard failures
    /// and a higher panic share. Retries cannot mask the permanent part —
    /// this is the plan that exercises degradation and typed errors.
    pub fn hostile(seed: u64) -> Self {
        FaultPlan {
            permanent_rate: 0.04,
            panic_bias: 0.35,
            ..FaultPlan::transient(seed)
        }
    }

    /// Builder: override the panic share of injected faults.
    pub fn with_panic_bias(mut self, bias: f64) -> Self {
        self.panic_bias = bias;
        self
    }

    fn is_noop(&self) -> bool {
        self.transient_rate == 0.0
            && self.permanent_rate == 0.0
            && self.call_latency_us == 0
            && self.fault_latency_us == 0
    }

    /// The schedule itself: what happens to `(salt, method, args_key)` at
    /// `attempt`. Pure — this is the whole determinism argument.
    fn decide(&self, salt: u64, method: &str, args_key: u64, attempt: u32) -> Outcome {
        let h = mix(self.seed ^ mix(salt ^ 0xA076_1D64_78BD_642F) ^ fnv(method) ^ args_key);
        let r1 = unit(h);
        let r2 = unit(mix(h ^ 0xD6E8_FEB8_6659_FD93));
        let panics = r2 < self.panic_bias;
        if r1 < self.permanent_rate {
            Outcome::Permanent { panics }
        } else if r1 < self.permanent_rate + self.transient_rate && attempt < self.transient_burst {
            Outcome::Transient { panics }
        } else {
            Outcome::Healthy
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Healthy,
    Transient { panics: bool },
    Permanent { panics: bool },
}

// ---- fault accounting -----------------------------------------------------

/// A snapshot of fault-layer counters — injected on the chaos side, handled
/// on the retry side. Reported through
/// [`MicroblogEngine::fault_stats`] and folded into serving reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults injected as `Unavailable` errors.
    pub injected_errors: u64,
    /// Faults injected as panics.
    pub injected_panics: u64,
    /// Retry attempts the merge layer spent recovering.
    pub retries: u64,
    /// Shard-call panics the merge layer caught and converted to
    /// `Unavailable`.
    pub panics_caught: u64,
    /// Shard calls that exhausted their retry budget.
    pub exhausted: u64,
    /// Scatter shard calls shed at a deadline in `Partial` mode (counted
    /// as unanswered coverage instead of failing the whole query).
    pub shed: u64,
    /// Failover hops: shard calls re-routed to the next replica in the
    /// group after the previous replica stayed `Unavailable` (DESIGN.md
    /// §4i). Counted per hop, so a call that walks past two dead replicas
    /// counts twice.
    pub failovers: u64,
    /// Read shard calls whose deterministic primary was a non-zero
    /// replica — the share of read traffic the replica groups absorbed
    /// beyond what a single-replica deployment would serve.
    pub replica_reads: u64,
}

impl FaultStats {
    /// Field-wise sum (folding a wrapper's own counters into its inner's).
    pub fn plus(&self, other: &FaultStats) -> FaultStats {
        FaultStats {
            injected_errors: self.injected_errors + other.injected_errors,
            injected_panics: self.injected_panics + other.injected_panics,
            retries: self.retries + other.retries,
            panics_caught: self.panics_caught + other.panics_caught,
            exhausted: self.exhausted + other.exhausted,
            shed: self.shed + other.shed,
            failovers: self.failovers + other.failovers,
            replica_reads: self.replica_reads + other.replica_reads,
        }
    }

    /// Field-wise saturating delta (`self` after, `earlier` before) — how a
    /// serving run attributes faults to itself.
    pub fn since(&self, earlier: &FaultStats) -> FaultStats {
        FaultStats {
            injected_errors: self.injected_errors.saturating_sub(earlier.injected_errors),
            injected_panics: self.injected_panics.saturating_sub(earlier.injected_panics),
            retries: self.retries.saturating_sub(earlier.retries),
            panics_caught: self.panics_caught.saturating_sub(earlier.panics_caught),
            exhausted: self.exhausted.saturating_sub(earlier.exhausted),
            shed: self.shed.saturating_sub(earlier.shed),
            failovers: self.failovers.saturating_sub(earlier.failovers),
            replica_reads: self.replica_reads.saturating_sub(earlier.replica_reads),
        }
    }

    /// Total faults injected (errors + panics).
    pub fn total_injected(&self) -> u64 {
        self.injected_errors + self.injected_panics
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == FaultStats::default()
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} errors + {} panics, {} retries, {} panics caught, {} exhausted, \
             {} shed, {} failovers, {} replica reads",
            self.injected_errors,
            self.injected_panics,
            self.retries,
            self.panics_caught,
            self.exhausted,
            self.shed,
            self.failovers,
            self.replica_reads
        )
    }
}

/// Shared atomic fault counters (one set per chaos wrapper, one per sharded
/// merge layer). Relaxed ordering — counters are monotone tallies, not
/// synchronization.
#[derive(Debug, Default)]
pub struct FaultCounters {
    injected_errors: AtomicU64,
    injected_panics: AtomicU64,
    retries: AtomicU64,
    panics_caught: AtomicU64,
    exhausted: AtomicU64,
    shed: AtomicU64,
    failovers: AtomicU64,
    replica_reads: AtomicU64,
}

impl FaultCounters {
    /// Records an injected `Unavailable`.
    pub fn note_injected_error(&self) {
        self.injected_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an injected panic.
    pub fn note_injected_panic(&self) {
        self.injected_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retry attempt.
    pub fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a caught shard-call panic.
    pub fn note_panic_caught(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a shard call that ran out of retry attempts.
    pub fn note_exhausted(&self) {
        self.exhausted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a scatter shard call shed at a deadline in `Partial` mode.
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one failover hop to the next replica in a group.
    pub fn note_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a read shard call routed to a non-zero primary replica.
    pub fn note_replica_read(&self) {
        self.replica_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads all counters.
    pub fn snapshot(&self) -> FaultStats {
        FaultStats {
            injected_errors: self.injected_errors.load(Ordering::Relaxed),
            injected_panics: self.injected_panics.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            replica_reads: self.replica_reads.load(Ordering::Relaxed),
        }
    }
}

// ---- retry + degradation policy ------------------------------------------

/// Bounded-retry policy for shard calls, with deterministic exponential
/// backoff charged to the virtual deadline budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per shard call (1 = no retries).
    pub max_attempts: u32,
    /// Backoff charged after the first failed attempt, in virtual µs.
    pub backoff_base_us: u64,
    /// Cap on a single backoff charge.
    pub backoff_cap_us: u64,
    /// Default per-query deadline budget installed when no ambient budget
    /// is active (the serving layer installs its own per request).
    pub deadline_us: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, backoff_base_us: 100, backoff_cap_us: 5_000, deadline_us: None }
    }
}

impl RetryPolicy {
    /// No retries, no backoff, no deadline — fail on first error.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, backoff_base_us: 0, backoff_cap_us: 0, deadline_us: None }
    }

    /// Builder: per-query deadline budget in virtual µs.
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Backoff to charge after failed attempt `attempt` (0-based):
    /// `base * 2^attempt`, capped.
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        self.backoff_base_us
            .checked_shl(attempt.min(32))
            .unwrap_or(u64::MAX)
            .min(self.backoff_cap_us)
    }
}

/// What the sharded merge layer does when a scatter shard stays down after
/// all retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationMode {
    /// Propagate the typed error. The default — and the only mode allowed
    /// inside the cross-engine equivalence matrix, because it never changes
    /// an answer.
    #[default]
    Strict,
    /// Skip dead shards on scatter queries and answer from the rest,
    /// tagging the result's [`Coverage`]. Point lookups and writes never
    /// degrade — their single owner shard is not optional.
    Partial,
}

/// How much of a scatter fan-out actually answered, accumulated over one
/// request. `answered == total` means the answer is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Coverage {
    /// Shard calls that answered.
    pub answered: u32,
    /// Shard calls attempted.
    pub total: u32,
}

impl Coverage {
    /// True when at least one shard call went unanswered.
    pub fn is_partial(&self) -> bool {
        self.answered < self.total
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.answered, self.total)
    }
}

// ---- ambient request state (thread-local) ---------------------------------

thread_local! {
    /// Current retry attempt of the in-flight shard call (0 = first try).
    static ATTEMPT: Cell<u32> = const { Cell::new(0) };
    /// Remaining virtual-µs deadline budget of the in-flight request.
    static BUDGET: Cell<Option<i64>> = const { Cell::new(None) };
    /// (answered, attempted) scatter shard calls of the in-flight request.
    static COVERAGE: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
    /// Largest single scatter fan-out of the in-flight request.
    static MAX_FANOUT: Cell<u32> = const { Cell::new(0) };
}

/// The ambient retry attempt ([`FaultPlan::transient_burst`] reads it).
pub fn current_attempt() -> u32 {
    ATTEMPT.with(Cell::get)
}

/// Runs `f` with the ambient attempt set to `attempt`, restoring the
/// previous value even when `f` panics (injected panics unwind through
/// here before the merge layer catches them).
pub fn with_attempt<R>(attempt: u32, f: impl FnOnce() -> R) -> R {
    struct Restore(u32);
    impl Drop for Restore {
        fn drop(&mut self) {
            ATTEMPT.with(|a| a.set(self.0));
        }
    }
    let _g = Restore(ATTEMPT.with(|a| a.replace(attempt)));
    f()
}

/// Charges `us` virtual microseconds against the ambient deadline budget.
/// No-op without a budget; with one, exhaustion pins the budget at zero and
/// returns [`CoreError::Timeout`] (which is not retryable — retrying cannot
/// create more budget).
pub fn charge(us: u64) -> Result<()> {
    BUDGET.with(|b| match b.get() {
        None => Ok(()),
        Some(remaining) => {
            let next = remaining - us.min(i64::MAX as u64) as i64;
            if next < 0 {
                b.set(Some(0));
                Err(CoreError::Timeout(format!(
                    "deadline budget exhausted ({remaining}us left, {us}us needed)"
                )))
            } else {
                b.set(Some(next));
                Ok(())
            }
        }
    })
}

/// Remaining virtual-µs budget, when one is installed.
pub fn remaining_budget_us() -> Option<u64> {
    BUDGET.with(Cell::get).map(|b| b.max(0) as u64)
}

/// What one request accumulated in its ambient scope: scatter coverage plus
/// the widest single fan-out it issued (how many shards one scatter
/// addressed at once — the parallelism the scatter executor can exploit).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RequestStats {
    /// Scatter shard-call coverage over the whole request.
    pub coverage: Coverage,
    /// Largest single scatter fan-out of the request.
    pub max_fanout: u32,
}

/// Runs one request under a fresh deadline budget and coverage scope,
/// returning `f`'s result plus the [`RequestStats`] it accumulated.
/// Previous ambient state is saved and restored, so nested/concurrent
/// requests never interfere. This is the serving layer's per-request entry
/// point.
pub fn with_request_budget<R>(
    deadline_us: Option<u64>,
    f: impl FnOnce() -> R,
) -> (R, RequestStats) {
    struct Restore {
        budget: Option<i64>,
        cov: (u32, u32),
        fanout: u32,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.budget));
            COVERAGE.with(|c| c.set(self.cov));
            MAX_FANOUT.with(|m| m.set(self.fanout));
        }
    }
    let guard = Restore {
        budget: BUDGET.with(|b| b.replace(deadline_us.map(|d| d.min(i64::MAX as u64) as i64))),
        cov: COVERAGE.with(|c| c.replace((0, 0))),
        fanout: MAX_FANOUT.with(|m| m.replace(0)),
    };
    let out = f();
    let (answered, total) = COVERAGE.with(Cell::get);
    let max_fanout = MAX_FANOUT.with(Cell::get);
    drop(guard);
    (out, RequestStats { coverage: Coverage { answered, total }, max_fanout })
}

/// Installs `deadline_us` as the budget only when no ambient budget is
/// active — how a [`RetryPolicy::deadline_us`] applies to direct engine
/// calls without overriding a serving-layer request budget.
pub fn with_fallback_budget<R>(deadline_us: Option<u64>, f: impl FnOnce() -> R) -> R {
    let installed = BUDGET.with(|b| {
        if b.get().is_none() {
            if let Some(d) = deadline_us {
                b.set(Some(d.min(i64::MAX as u64) as i64));
                return true;
            }
        }
        false
    });
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            if self.0 {
                BUDGET.with(|b| b.set(None));
            }
        }
    }
    let _g = Restore(installed);
    f()
}

/// Records one scatter shard-call outcome into the ambient coverage.
pub fn note_shard(answered: bool) {
    COVERAGE.with(|c| {
        let (a, t) = c.get();
        c.set((a + answered as u32, t + 1));
    });
}

/// Records a scatter fan-out width into the ambient max-fanout tracker.
pub fn note_fanout(shards: u32) {
    MAX_FANOUT.with(|m| m.set(m.get().max(shards)));
}

// ---- worker-side ambient state (parallel scatter) -------------------------

/// What one parallel shard call consumed and observed on its worker thread,
/// shipped back to the gathering caller so ambient accounting stays
/// identical to the sequential path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSpend {
    /// Virtual µs consumed from the budget snapshot the worker was handed.
    pub spent_us: u64,
    /// Nested scatter shard calls that answered on the worker.
    pub answered: u32,
    /// Nested scatter shard calls attempted on the worker.
    pub total: u32,
    /// Largest nested scatter fan-out issued on the worker.
    pub max_fanout: u32,
}

/// Runs one shard call on a worker thread under a **snapshot** of the
/// caller's remaining deadline budget, returning `f`'s result plus the
/// [`WorkerSpend`] the call accumulated. Each concurrent worker gets the
/// same snapshot; the caller then charges the **max** spend across workers
/// to its own ambient budget — fan-out latency is the slowest shard, not
/// the sum. `snapshot == None` (no ambient budget) makes charging free on
/// the worker too, and `spent_us` reports 0.
///
/// Worker thread-locals are saved and restored, so persistent pool workers
/// never leak one call's state into the next.
pub fn with_worker_budget<R>(snapshot: Option<u64>, f: impl FnOnce() -> R) -> (R, WorkerSpend) {
    struct Restore {
        budget: Option<i64>,
        cov: (u32, u32),
        fanout: u32,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.budget));
            COVERAGE.with(|c| c.set(self.cov));
            MAX_FANOUT.with(|m| m.set(self.fanout));
        }
    }
    let installed = snapshot.map(|d| d.min(i64::MAX as u64) as i64);
    let guard = Restore {
        budget: BUDGET.with(|b| b.replace(installed)),
        cov: COVERAGE.with(|c| c.replace((0, 0))),
        fanout: MAX_FANOUT.with(|m| m.replace(0)),
    };
    let out = f();
    let remaining = BUDGET.with(Cell::get).unwrap_or(0).max(0) as u64;
    let spent_us = installed.map_or(0, |start| start as u64 - remaining);
    let (answered, total) = COVERAGE.with(Cell::get);
    let max_fanout = MAX_FANOUT.with(Cell::get);
    drop(guard);
    (out, WorkerSpend { spent_us, answered, total, max_fanout })
}

/// Folds a worker's nested coverage and fan-out observations into the
/// caller's ambient scope (the virtual-time spend is charged separately,
/// as a max across workers). Called during the in-shard-order gather, so
/// the fold order — like everything else about the merge — is independent
/// of worker interleaving.
pub fn absorb_worker_spend(spend: &WorkerSpend) {
    COVERAGE.with(|c| {
        let (a, t) = c.get();
        c.set((a + spend.answered, t + spend.total));
    });
    note_fanout(spend.max_fanout);
}

// ---- the chaos wrapper ----------------------------------------------------

/// Panic payloads injected by [`ChaosEngine`] start with this prefix, so a
/// panic hook can tell scheduled chaos from genuine bugs.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault:";

/// Installs a process-wide panic hook that swallows the default "thread
/// panicked" diagnostics for **injected** panics only (payloads starting
/// with [`INJECTED_PANIC_PREFIX`]); every other panic still reaches the
/// previous hook. Idempotent. Chaos tests and examples call this so
/// scheduled faults don't spray stderr.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with(INJECTED_PANIC_PREFIX));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// A fault-injecting wrapper around any inner engine.
///
/// Every workload method consults the [`FaultPlan`] **before** delegating:
/// a faulted call returns/panics without touching the inner engine, so
/// retried writes are never double-applied and injected panics never unwind
/// through engine internals. Instrumentation methods (`name`,
/// `reset_stats`, `ops_count`, `drop_caches`, `fault_stats`) are never
/// gated — operators can always observe a sick shard.
pub struct ChaosEngine {
    inner: Box<dyn MicroblogEngine>,
    plan: FaultPlan,
    salt: u64,
    name: &'static str,
    counters: FaultCounters,
}

impl ChaosEngine {
    /// Wraps `inner` under `plan`. `salt` distinguishes wrappers sharing a
    /// plan (the sharded builders use the shard index), so shards fault
    /// independently.
    pub fn new(inner: Box<dyn MicroblogEngine>, plan: FaultPlan, salt: u64) -> Self {
        let name: &'static str =
            Box::leak(format!("chaos[{}]", inner.name()).into_boxed_str());
        ChaosEngine { inner, plan, salt, name, counters: FaultCounters::default() }
    }

    /// The plan this wrapper runs under.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The fault schedule gate, run before every delegated call.
    fn gate(&self, method: &'static str, args_key: u64) -> Result<()> {
        if self.plan.is_noop() {
            return Ok(());
        }
        charge(self.plan.call_latency_us)?;
        let attempt = current_attempt();
        let outcome = self.plan.decide(self.salt, method, args_key, attempt);
        let (kind, panics) = match outcome {
            Outcome::Healthy => return Ok(()),
            Outcome::Transient { panics } => ("transient", panics),
            Outcome::Permanent { panics } => ("permanent", panics),
        };
        charge(self.plan.fault_latency_us)?;
        if panics {
            self.counters.note_injected_panic();
            panic!(
                "{INJECTED_PANIC_PREFIX} {kind} {method} on {} (salt {}, attempt {attempt})",
                self.inner.name(),
                self.salt
            );
        }
        self.counters.note_injected_error();
        Err(CoreError::Unavailable(format!(
            "injected {kind} fault: {method} on {} (salt {}, attempt {attempt})",
            self.inner.name(),
            self.salt
        )))
    }
}

impl MicroblogEngine for ChaosEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn users_with_followers_over(&self, threshold: i64) -> Result<Vec<i64>> {
        self.gate("users_with_followers_over", key_i64(threshold))?;
        self.inner.users_with_followers_over(threshold)
    }

    fn followees(&self, uid: i64) -> Result<Vec<i64>> {
        self.gate("followees", key_i64(uid))?;
        self.inner.followees(uid)
    }

    fn followee_tweets(&self, uid: i64) -> Result<Vec<i64>> {
        self.gate("followee_tweets", key_i64(uid))?;
        self.inner.followee_tweets(uid)
    }

    fn followee_hashtags(&self, uid: i64) -> Result<Vec<String>> {
        self.gate("followee_hashtags", key_i64(uid))?;
        self.inner.followee_hashtags(uid)
    }

    fn co_mentioned_users(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        self.gate("co_mentioned_users", key2(key_i64(uid), n as u64))?;
        self.inner.co_mentioned_users(uid, n)
    }

    fn co_occurring_hashtags(&self, tag: &str, n: usize) -> Result<Vec<Ranked<String>>> {
        self.gate("co_occurring_hashtags", key2(key_str(tag), n as u64))?;
        self.inner.co_occurring_hashtags(tag, n)
    }

    fn recommend_followees(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        self.gate("recommend_followees", key2(key_i64(uid), n as u64))?;
        self.inner.recommend_followees(uid, n)
    }

    fn recommend_followers(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        self.gate("recommend_followers", key2(key_i64(uid), n as u64))?;
        self.inner.recommend_followers(uid, n)
    }

    fn current_influence(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        self.gate("current_influence", key2(key_i64(uid), n as u64))?;
        self.inner.current_influence(uid, n)
    }

    fn potential_influence(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        self.gate("potential_influence", key2(key_i64(uid), n as u64))?;
        self.inner.potential_influence(uid, n)
    }

    fn shortest_path_len(&self, a: i64, b: i64, max_hops: u32) -> Result<Option<u32>> {
        self.gate("shortest_path_len", key2(key_i64(a), key_i64(b) ^ max_hops as u64))?;
        self.inner.shortest_path_len(a, b, max_hops)
    }

    fn tweets_with_hashtag(&self, tag: &str) -> Result<Vec<i64>> {
        self.gate("tweets_with_hashtag", key_str(tag))?;
        self.inner.tweets_with_hashtag(tag)
    }

    fn retweet_count(&self, tid: i64) -> Result<u64> {
        self.gate("retweet_count", key_i64(tid))?;
        self.inner.retweet_count(tid)
    }

    fn poster_of(&self, tid: i64) -> Result<i64> {
        self.gate("poster_of", key_i64(tid))?;
        self.inner.poster_of(tid)
    }

    fn has_user(&self, uid: i64) -> Result<bool> {
        self.gate("has_user", key_i64(uid))?;
        self.inner.has_user(uid)
    }

    fn posted_tweets_kernel(&self, uids: &[i64]) -> Result<Vec<i64>> {
        self.gate("posted_tweets_kernel", key_slice(uids))?;
        self.inner.posted_tweets_kernel(uids)
    }

    fn hashtags_kernel(&self, uids: &[i64]) -> Result<Vec<String>> {
        self.gate("hashtags_kernel", key_slice(uids))?;
        self.inner.hashtags_kernel(uids)
    }

    fn count_followees_kernel(&self, uids: &[i64]) -> Result<Vec<(i64, u64)>> {
        self.gate("count_followees_kernel", key_slice(uids))?;
        self.inner.count_followees_kernel(uids)
    }

    fn count_followers_kernel(&self, uids: &[i64]) -> Result<Vec<(i64, u64)>> {
        self.gate("count_followers_kernel", key_slice(uids))?;
        self.inner.count_followers_kernel(uids)
    }

    fn co_mention_counts_kernel(&self, uid: i64) -> Result<Vec<(i64, u64)>> {
        self.gate("co_mention_counts_kernel", key_i64(uid))?;
        self.inner.co_mention_counts_kernel(uid)
    }

    fn co_tag_counts_kernel(&self, tag: &str) -> Result<Vec<(String, u64)>> {
        self.gate("co_tag_counts_kernel", key_str(tag))?;
        self.inner.co_tag_counts_kernel(tag)
    }

    fn follow_frontier_kernel(&self, uids: &[i64]) -> Result<Vec<i64>> {
        self.gate("follow_frontier_kernel", key_slice(uids))?;
        self.inner.follow_frontier_kernel(uids)
    }

    fn co_mention_topn_kernel(
        &self,
        uid: i64,
        k: usize,
    ) -> Result<micrograph_common::topn::TopKPartial<i64>> {
        self.gate("co_mention_topn_kernel", key2(key_i64(uid), k as u64))?;
        self.inner.co_mention_topn_kernel(uid, k)
    }

    fn co_mention_counts_for_kernel(&self, uid: i64, keys: &[i64]) -> Result<Vec<(i64, u64)>> {
        self.gate("co_mention_counts_for_kernel", key2(key_i64(uid), key_slice(keys)))?;
        self.inner.co_mention_counts_for_kernel(uid, keys)
    }

    fn co_tag_topn_kernel(
        &self,
        tag: &str,
        k: usize,
    ) -> Result<micrograph_common::topn::TopKPartial<String>> {
        self.gate("co_tag_topn_kernel", key2(key_str(tag), k as u64))?;
        self.inner.co_tag_topn_kernel(tag, k)
    }

    fn co_tag_counts_for_kernel(&self, tag: &str, keys: &[String]) -> Result<Vec<(String, u64)>> {
        self.gate("co_tag_counts_for_kernel", key2(key_str(tag), key_str_slice(keys)))?;
        self.inner.co_tag_counts_for_kernel(tag, keys)
    }

    fn count_followees_topn_kernel(
        &self,
        uids: &[i64],
        exclude: &[i64],
        k: usize,
    ) -> Result<micrograph_common::topn::TopKPartial<i64>> {
        self.gate(
            "count_followees_topn_kernel",
            key2(key_slice(uids), key2(key_slice(exclude), k as u64)),
        )?;
        self.inner.count_followees_topn_kernel(uids, exclude, k)
    }

    fn count_followees_counts_for_kernel(
        &self,
        uids: &[i64],
        keys: &[i64],
    ) -> Result<Vec<(i64, u64)>> {
        self.gate("count_followees_counts_for_kernel", key2(key_slice(uids), key_slice(keys)))?;
        self.inner.count_followees_counts_for_kernel(uids, keys)
    }

    fn count_followers_topn_kernel(
        &self,
        uids: &[i64],
        exclude: &[i64],
        k: usize,
    ) -> Result<micrograph_common::topn::TopKPartial<i64>> {
        self.gate(
            "count_followers_topn_kernel",
            key2(key_slice(uids), key2(key_slice(exclude), k as u64)),
        )?;
        self.inner.count_followers_topn_kernel(uids, exclude, k)
    }

    fn count_followers_counts_for_kernel(
        &self,
        uids: &[i64],
        keys: &[i64],
    ) -> Result<Vec<(i64, u64)>> {
        self.gate("count_followers_counts_for_kernel", key2(key_slice(uids), key_slice(keys)))?;
        self.inner.count_followers_counts_for_kernel(uids, keys)
    }

    fn influence_topn_kernel(
        &self,
        uid: i64,
        current: bool,
        k: usize,
    ) -> Result<micrograph_common::topn::TopKPartial<i64>> {
        self.gate(
            "influence_topn_kernel",
            key2(key_i64(uid), key2(current as u64, k as u64)),
        )?;
        self.inner.influence_topn_kernel(uid, current, k)
    }

    fn ensure_user(&self, uid: i64) -> Result<()> {
        self.gate("ensure_user", key_i64(uid))?;
        self.inner.ensure_user(uid)
    }

    fn bump_followers(&self, uid: i64, delta: i64) -> Result<()> {
        self.gate("bump_followers", key2(key_i64(uid), delta as u64))?;
        self.inner.bump_followers(uid, delta)
    }

    fn apply_event(&self, event: &micrograph_datagen::UpdateEvent) -> Result<()> {
        use micrograph_datagen::UpdateEvent;
        let key = match event {
            UpdateEvent::NewUser { uid, .. } => key2(1, key_u64(*uid)),
            UpdateEvent::NewFollow { follower, followee } => {
                key2(2, key2(key_u64(*follower), *followee))
            }
            UpdateEvent::NewTweet { tid, .. } => key2(3, key_u64(*tid)),
        };
        self.gate("apply_event", key)?;
        self.inner.apply_event(event)
    }

    fn apply_event_batch(&self, events: &[micrograph_datagen::UpdateEvent]) -> Result<()> {
        use micrograph_datagen::UpdateEvent;
        // ONE gate per batch, keyed by a fold of the per-event keys, fired
        // BEFORE the inner engine mutates anything: a retried batch either
        // never started (the gate rejected it) or runs against the same
        // pre-batch state, so it is never double-applied (DESIGN.md §4j).
        let key = events.iter().fold(key2(4, events.len() as u64), |acc, event| {
            let k = match event {
                UpdateEvent::NewUser { uid, .. } => key2(1, key_u64(*uid)),
                UpdateEvent::NewFollow { follower, followee } => {
                    key2(2, key2(key_u64(*follower), *followee))
                }
                UpdateEvent::NewTweet { tid, .. } => key2(3, key_u64(*tid)),
            };
            key2(acc, k)
        });
        self.gate("apply_event_batch", key)?;
        self.inner.apply_event_batch(events)
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn ops_count(&self) -> u64 {
        self.inner.ops_count()
    }

    fn drop_caches(&self) -> Result<()> {
        self.inner.drop_caches()
    }

    fn fault_stats(&self) -> FaultStats {
        self.counters.snapshot().plus(&self.inner.fault_stats())
    }

    fn scatter_mode(&self) -> Option<crate::shard::ScatterMode> {
        self.inner.scatter_mode()
    }

    fn set_scatter_mode(&self, mode: crate::shard::ScatterMode) -> bool {
        // Ungated, like the other instrumentation passthroughs.
        self.inner.set_scatter_mode(mode)
    }

    fn exec_mode(&self) -> Option<arbor_ql::ExecMode> {
        self.inner.exec_mode()
    }

    fn set_exec_mode(&self, mode: arbor_ql::ExecMode) -> bool {
        // Ungated, like the other instrumentation passthroughs.
        self.inner.set_exec_mode(mode)
    }

    fn write_mode(&self) -> Option<crate::engine::WriteMode> {
        self.inner.write_mode()
    }

    fn set_write_mode(&self, mode: crate::engine::WriteMode) -> bool {
        // Ungated, like the other instrumentation passthroughs.
        self.inner.set_write_mode(mode)
    }

    fn replica_count(&self) -> Option<usize> {
        self.inner.replica_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_is_pure() {
        let plan = FaultPlan::hostile(42);
        for key in 0..200u64 {
            for attempt in 0..4 {
                let a = plan.decide(1, "followees", key, attempt);
                let b = plan.decide(1, "followees", key, attempt);
                assert_eq!(a, b, "decide must be a pure function");
            }
        }
    }

    #[test]
    fn transient_faults_recover_after_burst() {
        let plan = FaultPlan::transient(7);
        let mut faulted = 0u32;
        for key in 0..2000u64 {
            match plan.decide(0, "co_mention_counts_kernel", key, 0) {
                Outcome::Transient { .. } => {
                    faulted += 1;
                    // Still faulted below the burst, healthy at/after it.
                    for attempt in 1..plan.transient_burst {
                        assert!(matches!(
                            plan.decide(0, "co_mention_counts_kernel", key, attempt),
                            Outcome::Transient { .. }
                        ));
                    }
                    assert_eq!(
                        plan.decide(0, "co_mention_counts_kernel", key, plan.transient_burst),
                        Outcome::Healthy,
                        "transient fault must clear after the burst"
                    );
                }
                Outcome::Permanent { .. } => panic!("transient plan injected a permanent fault"),
                Outcome::Healthy => {}
            }
        }
        // ~8% of 2000 ≈ 160; accept a generous band.
        assert!((60..400).contains(&faulted), "transient rate off: {faulted}/2000");
    }

    #[test]
    fn permanent_faults_never_recover() {
        let plan = FaultPlan::hostile(9);
        let mut found = false;
        for key in 0..2000u64 {
            if let Outcome::Permanent { .. } = plan.decide(3, "poster_of", key, 0) {
                found = true;
                for attempt in 0..8 {
                    assert!(matches!(
                        plan.decide(3, "poster_of", key, attempt),
                        Outcome::Permanent { .. }
                    ));
                }
            }
        }
        assert!(found, "hostile plan should inject some permanent faults");
    }

    #[test]
    fn shards_fault_independently() {
        // Different salts must not fault the same keys in lockstep.
        let plan = FaultPlan::transient(11);
        let fault_set = |salt: u64| -> Vec<u64> {
            (0..2000u64)
                .filter(|&k| plan.decide(salt, "followees", k, 0) != Outcome::Healthy)
                .collect()
        };
        assert_ne!(fault_set(0), fault_set(1), "salts must decorrelate shards");
    }

    #[test]
    fn budget_charges_and_times_out() {
        let ((), stats) = with_request_budget(Some(100), || {
            assert_eq!(remaining_budget_us(), Some(100));
            charge(60).unwrap();
            assert_eq!(remaining_budget_us(), Some(40));
            let err = charge(50).unwrap_err();
            assert!(matches!(err, CoreError::Timeout(_)), "expected timeout, got {err}");
            assert!(!err.is_retryable(), "timeouts must not be retryable");
            // Budget pins at zero: further charges keep failing.
            assert_eq!(remaining_budget_us(), Some(0));
            assert!(charge(1).is_err());
            assert!(charge(0).is_ok(), "zero-cost charges still pass");
        });
        assert_eq!(stats, RequestStats::default());
        // Outside the scope the budget is gone and charging is free.
        assert_eq!(remaining_budget_us(), None);
        charge(u64::MAX).unwrap();
    }

    #[test]
    fn request_scope_saves_and_restores_ambient_state() {
        let (inner, outer) = with_request_budget(Some(1_000), || {
            note_shard(true);
            note_shard(false);
            note_fanout(4);
            // A nested request gets a fresh scope...
            let ((), stats) = with_request_budget(Some(5), || {
                note_shard(true);
                note_fanout(2);
                assert_eq!(remaining_budget_us(), Some(5));
            });
            // ...and the outer scope comes back untouched.
            assert_eq!(remaining_budget_us(), Some(1_000));
            stats
        });
        assert_eq!(inner.coverage, Coverage { answered: 1, total: 1 });
        assert_eq!(inner.max_fanout, 2);
        assert_eq!(outer.coverage, Coverage { answered: 1, total: 2 });
        assert_eq!(outer.max_fanout, 4, "nested scope must not clobber the outer max");
        assert!(outer.coverage.is_partial());
        assert_eq!(outer.coverage.to_string(), "1/2");
    }

    #[test]
    fn worker_budget_reports_spend_and_restores() {
        let ((), outer) = with_request_budget(Some(1_000), || {
            note_shard(true);
            // A worker scope starts from a snapshot and meters its own use.
            let ((), spend) = with_worker_budget(Some(200), || {
                charge(30).unwrap();
                note_shard(true);
                note_shard(false);
                note_fanout(3);
                charge(15).unwrap();
            });
            assert_eq!(spend.spent_us, 45);
            assert_eq!((spend.answered, spend.total), (1, 2));
            assert_eq!(spend.max_fanout, 3);
            // The caller's own budget is untouched until it absorbs/charges.
            assert_eq!(remaining_budget_us(), Some(1_000));
            absorb_worker_spend(&spend);
        });
        assert_eq!(outer.coverage, Coverage { answered: 2, total: 3 });
        assert_eq!(outer.max_fanout, 3);
    }

    #[test]
    fn worker_budget_exhaustion_spends_exactly_the_snapshot() {
        let (r, spend) = with_worker_budget(Some(40), || charge(100));
        assert!(matches!(r, Err(CoreError::Timeout(_))));
        assert_eq!(spend.spent_us, 40, "a timed-out worker consumed its whole snapshot");
        // Without a snapshot (no ambient budget), charging is free.
        let (r, spend) = with_worker_budget(None, || charge(u64::MAX));
        assert!(r.is_ok());
        assert_eq!(spend.spent_us, 0);
    }

    #[test]
    fn fallback_budget_defers_to_ambient() {
        // No ambient budget: the fallback installs.
        with_fallback_budget(Some(70), || {
            assert_eq!(remaining_budget_us(), Some(70));
        });
        assert_eq!(remaining_budget_us(), None);
        // Ambient budget present: the fallback must not override it.
        let ((), _) = with_request_budget(Some(500), || {
            with_fallback_budget(Some(70), || {
                assert_eq!(remaining_budget_us(), Some(500));
            });
        });
    }

    #[test]
    fn attempt_scope_restores_on_panic() {
        assert_eq!(current_attempt(), 0);
        with_attempt(3, || assert_eq!(current_attempt(), 3));
        assert_eq!(current_attempt(), 0);
        let unwound = std::panic::catch_unwind(|| {
            with_attempt(5, || panic!("boom"));
        });
        assert!(unwound.is_err());
        assert_eq!(current_attempt(), 0, "attempt must restore across unwinds");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_us(0), 100);
        assert_eq!(p.backoff_us(1), 200);
        assert_eq!(p.backoff_us(2), 400);
        assert_eq!(p.backoff_us(10), 5_000, "must cap");
        assert_eq!(RetryPolicy::none().backoff_us(0), 0);
    }

    #[test]
    fn stats_arithmetic() {
        let a = FaultStats {
            injected_errors: 3,
            injected_panics: 1,
            retries: 5,
            panics_caught: 1,
            exhausted: 0,
            shed: 1,
            failovers: 3,
            replica_reads: 6,
        };
        let b = FaultStats {
            injected_errors: 1,
            injected_panics: 0,
            retries: 2,
            panics_caught: 0,
            exhausted: 0,
            shed: 0,
            failovers: 1,
            replica_reads: 2,
        };
        assert_eq!(a.plus(&b).injected_errors, 4);
        assert_eq!(a.plus(&b).failovers, 4);
        assert_eq!(a.plus(&b).replica_reads, 8);
        assert_eq!(a.since(&b).retries, 3);
        assert_eq!(a.since(&b).shed, 1);
        assert_eq!(a.since(&b).failovers, 2);
        assert_eq!(a.since(&b).replica_reads, 4);
        assert_eq!(a.total_injected(), 4);
        assert!(!a.is_zero());
        assert!(FaultStats::default().is_zero());
        assert!(a.to_string().contains("3 errors"));
        assert!(a.to_string().contains("1 shed"));
        assert!(a.to_string().contains("3 failovers"));
        assert!(a.to_string().contains("6 replica reads"));
    }

    #[test]
    fn noop_plan_never_faults() {
        let plan = FaultPlan::new(99);
        assert!(plan.is_noop());
        for key in 0..500 {
            assert_eq!(plan.decide(0, "anything", key, 0), Outcome::Healthy);
        }
    }
}
