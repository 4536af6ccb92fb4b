//! Hash-partitioned composition: shard-local kernels + engine-agnostic merge.
//!
//! The paper introspects two *single-node* architectures; the ROADMAP north
//! star is serving the same workload at production scale, which requires
//! the engines to compose under partitioning. This module is that
//! composition, in three parts (DESIGN.md §4c):
//!
//! 1. **Partitioning** — [`shard_of`] hash-assigns every user to one of N
//!    shards; [`partition_dataset`] splits a generated [`Dataset`] into N
//!    per-shard datasets (tweets ride with their poster, edges with their
//!    routing endpoint, bare ghost replicas — a uid and nothing else — for
//!    cross-shard user endpoints, hashtag nodes replicated everywhere).
//!    Invariant: a `followers` value exists only on the owner shard, so a
//!    shard's Q1.1 selection never sees a user it does not own.
//! 2. **Kernels** — both adapters expose shard-local partial queries
//!    (`*_kernel` methods on [`MicroblogEngine`]) that report exactly what
//!    one shard stores.
//! 3. **Merge** — [`ShardedEngine`] routes or broadcasts each Q1–Q6 query
//!    to its inner engines and merges the partials (count-sum, frontier
//!    union, distributed-BFS rounds, mergeable top-n with the global
//!    tie-break). It implements [`MicroblogEngine`] itself, so the runner,
//!    the serving layer, benches and the equivalence tests drive it
//!    unchanged through `&dyn MicroblogEngine`.
//!
//! The load-bearing property, pinned by `tests/cross_engine_equivalence.rs`
//! and `tests/concurrent_serving.rs`: a `ShardedEngine` over either backend
//! at any shard count answers every workload query **byte-identically** to
//! the unsharded engine.
//!
//! Scatter fan-outs execute either sequentially or concurrently
//! ([`ScatterMode`], DESIGN.md §4e): a persistent work-stealing pool sized
//! to the spare cores, with the caller claiming and running any slot the
//! workers have not picked up yet. Both paths gather partials **in shard
//! order** and run every merge on the caller thread, so the answer bytes
//! never depend on thread interleaving; the parallel path charges the
//! **max** virtual latency across concurrent shard calls (plus merge
//! cost) instead of the sum.
//!
//! Tail latency (DESIGN.md §4f) is bounded by per-class virtual deadlines
//! with Partial-mode shedding, and Q3/Q4/Q5 fan-outs ship bounded
//! `*_topn_kernel` partials through **per-shard top-n pushdown**
//! ([`pushdown_top_n`] — a threshold-algorithm merge, the only merge for
//! those queries) whose answers are checked against the monolithic
//! engines.
//!
//! Replication (DESIGN.md §4i): every shard slot holds a [`ReplicaGroup`]
//! — R engines ingested from the **same** partition dataset
//! ([`ShardedEngine::new_replicated`]; plain [`ShardedEngine::new`] builds
//! single-replica groups, so R = 1 behavior is untouched). Reads route to
//! a deterministic primary replica ([`replica_of`] — a pure hash of the
//! query's routing key and the shard index), spreading traffic across the
//! group so read qps scales with R, and fail over along a deterministic
//! ladder ([`replica_call`], attempt band [`FAILOVER_ATTEMPT_BASE`]) when
//! a replica stays `Unavailable` after retries — so Strict mode survives
//! the permanent loss of any single replica of every shard with
//! byte-identical answers (pinned by `tests/chaos_serving.rs`). Writes fan
//! out to every replica of the owning shard; a replica that misses a write
//! the group accepted is marked **torn** and never serves again — failing
//! fast beats serving stale.

use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

use crossbeam::channel;
use micrograph_common::topn::{merge_top_n, Counted, TopKPartial};
use micrograph_datagen::{Dataset, Tweet};

use crate::engine::{MicroblogEngine, Ranked};
use crate::fault::{self, DegradationMode, FaultCounters, FaultStats, RetryPolicy};
use crate::{CoreError, Result};

/// The shard owning `uid`: a SplitMix64-finalized hash of the uid modulo
/// the shard count. The finalizer scrambles sequential uids so partitions
/// are balanced; the function is pure, so every layer (ingest routing,
/// query and kernel-input routing) agrees on placement.
pub fn shard_of(uid: i64, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    let mut z = (uid as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// Splits a dataset into `shards` per-shard datasets under [`shard_of`].
///
/// Placement rules:
/// * A user lives on its hash shard with real attributes.
/// * A tweet lives on its poster's shard, along with its `posts`,
///   `mentions` and `tags` edges (so every per-tweet pattern — Q3's
///   co-occurrence, Q5's mention counting — is complete on one shard).
/// * A `follows` edge lives on the **follower's** shard (out-edges local,
///   in-edges scattered — the merge layer compensates where it matters).
/// * A `retweets` edge lives on the retweeting poster's shard.
/// * Cross-shard user endpoints get **ghost replicas** in
///   [`Dataset::ghosts`]: a bare uid with no other property, so every
///   local edge resolves but no shard ever stores (or selects on) a
///   `followers`, `name` or `verified` value of a user it does not own.
///   A retweet target on another shard rides along as a copy of the real
///   tweet, with its poster as a ghost user. Ghost tweets never own data
///   — kernels that walk `posts` edges route their inputs by ownership.
/// * Hashtag nodes are replicated to every shard (they are few, and the
///   update path needs tag lookups to resolve locally).
///
/// The input must be internally consistent (every edge endpoint exists);
/// generated datasets are. Panics otherwise.
pub fn partition_dataset(d: &Dataset, shards: usize) -> Vec<Dataset> {
    assert!(shards > 0, "shard count must be positive");
    let owner = |uid: u64| shard_of(uid as i64, shards);
    let tweet_by_tid: HashMap<u64, &Tweet> = d.tweets.iter().map(|t| (t.tid, t)).collect();
    let poster_shard = |tid: u64| {
        owner(tweet_by_tid.get(&tid).expect("tweet of edge exists").uid)
    };

    let mut parts: Vec<Dataset> = (0..shards)
        .map(|_| Dataset { hashtags: d.hashtags.clone(), ..Dataset::default() })
        .collect();
    let mut ghost_users: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); shards];
    let mut ghost_tweets: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); shards];

    for u in &d.users {
        parts[owner(u.uid)].users.push(u.clone());
    }
    for t in &d.tweets {
        parts[owner(t.uid)].tweets.push(t.clone());
    }
    for &(a, b) in &d.follows {
        let s = owner(a);
        parts[s].follows.push((a, b));
        if owner(b) != s {
            ghost_users[s].insert(b);
        }
    }
    for &(tid, uid) in &d.mentions {
        let s = poster_shard(tid);
        parts[s].mentions.push((tid, uid));
        if owner(uid) != s {
            ghost_users[s].insert(uid);
        }
    }
    for &(tid, h) in &d.tags {
        parts[poster_shard(tid)].tags.push((tid, h));
    }
    for &(rt, orig) in &d.retweets {
        let s = poster_shard(rt);
        parts[s].retweets.push((rt, orig));
        let target = tweet_by_tid.get(&orig).expect("retweet target exists");
        if owner(target.uid) != s {
            // The target tweet rides along as a ghost, and its poster as a
            // ghost user so the derived `posts` edge resolves. Ghost tweets
            // carry no mention/tag edges here — those stay with the owner.
            ghost_tweets[s].insert(orig);
            ghost_users[s].insert(target.uid);
        }
    }

    for (s, ghosts) in ghost_users.into_iter().enumerate() {
        parts[s].ghosts = ghosts.into_iter().collect();
    }
    for (s, ghosts) in ghost_tweets.into_iter().enumerate() {
        for tid in ghosts {
            parts[s].tweets.push(tweet_by_tid[&tid].clone());
        }
    }
    parts
}

fn counted<K: Ord>(pairs: Vec<(K, u64)>) -> Vec<Counted<K>> {
    pairs.into_iter().map(|(key, count)| Counted { key, count }).collect()
}

fn to_ranked<K>(top: Vec<Counted<K>>) -> Vec<Ranked<K>> {
    top.into_iter().map(|c| Ranked::new(c.key, c.count)).collect()
}

/// Q4's kernel-side exclusion set: the subject plus everyone they already
/// follow, sorted ascending (the `*_topn_kernel` contract) and deduped.
fn exclusion_list(uid: i64, followed: &[i64]) -> Vec<i64> {
    let mut exclude: Vec<i64> = followed.iter().copied().chain([uid]).collect();
    exclude.sort_unstable();
    exclude.dedup();
    exclude
}

/// Threshold-algorithm (TA) top-n merge over bounded per-shard partials
/// (DESIGN.md §4f). Round-trips the shards with doubling `k` until the
/// summed truncation bounds prove no unseen key can alter the top-n:
///
/// * `bound_sum == 0` — every answering shard sent its complete (filtered)
///   count list, so the count-sum merge of the partials is exact.
/// * Otherwise fetch exact global counts for the candidate union and stop
///   once the n-th candidate **strictly** exceeds `bound_sum`: an unseen
///   key's global count is at most the sum of per-shard bounds, and the
///   strict inequality protects the ascending-key tie order (a tied
///   unseen key with a smaller key would rank ahead of a seen one).
///
/// Termination: `k` doubles each round, so the bounds reach 0 once `k`
/// covers the largest shard-local candidate list. Under Partial
/// degradation lost shards simply contribute no partial (and no bound) —
/// the loop still terminates, best effort over the shards that answered.
///
/// The opening `k = max(4n, 16)` is deliberately deep: a shard whose list
/// fits inside it answers exhaustively (bound 0), so the common small-map
/// case settles in ONE fan-out and only genuinely heavy candidate sets pay
/// the extra exact-count round.
fn pushdown_top_n<K: Ord + Clone>(
    n: usize,
    mut topn_fetch: impl FnMut(usize) -> Result<Vec<TopKPartial<K>>>,
    mut counts_fetch: impl FnMut(Arc<Vec<K>>) -> Result<Vec<Vec<(K, u64)>>>,
) -> Result<Vec<Counted<K>>> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut k = n.saturating_mul(4).max(16);
    loop {
        let partials = topn_fetch(k)?;
        let bound_sum = partials.iter().fold(0u64, |a, p| a.saturating_add(p.bound));
        let tops: Vec<Vec<Counted<K>>> = partials.into_iter().map(|p| p.top).collect();
        if bound_sum == 0 {
            return Ok(merge_top_n(tops, n));
        }
        // Phase 2: exact global counts for every candidate any shard
        // surfaced (the kernels expect the keys sorted ascending).
        let mut keys: Vec<K> =
            tops.iter().flat_map(|t| t.iter().map(|c| c.key.clone())).collect();
        keys.sort_unstable();
        keys.dedup();
        let counts = counts_fetch(Arc::new(keys))?;
        let merged = merge_top_n(counts.into_iter().map(counted).collect(), n);
        if merged.len() == n && merged[n - 1].count > bound_sum {
            return Ok(merged);
        }
        k = k.saturating_mul(2);
    }
}

/// Sums per-shard `(key, count)` partials into one ascending count list.
/// Pre-sizes from the partial lengths and merges adjacent runs of one flat
/// sort instead of paying a tree-map allocation per key.
fn sum_counts<K: Ord>(parts: Vec<Vec<(K, u64)>>) -> Vec<(K, u64)> {
    let mut all: Vec<(K, u64)> = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        all.extend(part);
    }
    all.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(K, u64)> = Vec::with_capacity(all.len());
    for (k, c) in all {
        match out.last_mut() {
            Some(last) if last.0 == k => last.1 += c,
            _ => out.push((k, c)),
        }
    }
    out
}

/// Concatenates disjoint per-shard partials into one pre-sized ascending
/// list — the merge for every scatter whose per-shard answers cannot
/// overlap (owner-only data or edge-disjoint).
fn concat_sorted<T: Ord>(parts: Vec<Vec<T>>) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out.sort_unstable();
    out
}

/// Unions per-shard sorted-distinct partials into one ascending distinct
/// list — flat sort + dedup over a pre-sized Vec instead of a tree-set
/// insert (and its node allocation) per element.
fn merge_sorted_distinct<T: Ord>(parts: Vec<Vec<T>>) -> Vec<T> {
    let mut out = concat_sorted(parts);
    out.dedup();
    out
}

/// Renders a caught panic payload for an `Unavailable` message.
fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// How [`ShardedEngine`] executes scatter fan-outs.
///
/// Both modes gather partials in shard order and merge on the caller
/// thread, so they produce byte-identical answers **while no deadline
/// binds**; `Sequential` is kept as the oracle the equivalence tests
/// compare against. They charge virtual time differently (the sum of leg
/// spends vs the max), so under a deadline between one leg's cost and the
/// sum, `Parallel` answers where `Sequential` returns `Timeout`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScatterMode {
    /// Visit selected shards one at a time on the caller thread. Virtual
    /// fan-out latency is the **sum** of per-shard costs.
    Sequential,
    /// Fan out to the persistent worker pool: every selected shard call
    /// (retries included) runs under a snapshot of the caller's deadline
    /// budget, workers and the caller *compete* to claim slots (the caller
    /// steals unclaimed work inline, in shard order, so a slow wakeup
    /// never costs more than running sequentially), and the caller charges
    /// the **max** spend across the concurrent calls. The default.
    #[default]
    Parallel,
}

impl ScatterMode {
    /// Short label for reports/benches ("seq" / "par").
    pub fn label(self) -> &'static str {
        match self {
            ScatterMode::Sequential => "seq",
            ScatterMode::Parallel => "par",
        }
    }

    fn from_u8(v: u8) -> Self {
        if v == 0 { ScatterMode::Sequential } else { ScatterMode::Parallel }
    }

    fn to_u8(self) -> u8 {
        match self {
            ScatterMode::Sequential => 0,
            ScatterMode::Parallel => 1,
        }
    }
}

/// One unit of work shipped to the pool: a claim-guarded shard call plus
/// result delivery, with all captures (engine `Arc` included) owned.
type Task = Box<dyn FnOnce() + Send>;

/// A small pool of persistent worker threads behind one shared MPMC
/// channel. Sized to the spare cores (`available_parallelism - 1`, capped
/// at the shard count) rather than one-per-shard: the scatter caller
/// participates in its own fan-out by stealing unclaimed slots, so the
/// pool only needs to cover the *other* cores — oversubscribing them just
/// adds wakeups and context switches.
struct WorkerPool {
    sender: Option<channel::Sender<Task>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn new(max_workers: usize) -> Self {
        let spare = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2) - 1;
        let workers = spare.max(1).min(max_workers.max(1));
        let (tx, rx) = channel::unbounded::<Task>();
        let handles = (0..workers)
            .map(|k| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("scatter-worker-{k}"))
                    .spawn(move || {
                        while let Ok(task) = rx.recv() {
                            // Tasks catch their own panics (the retry
                            // boundary); this guard only keeps a
                            // pathological escape from killing the worker
                            // and deadlocking later gathers.
                            let _ = catch_unwind(AssertUnwindSafe(task));
                        }
                    })
                    .expect("spawn scatter worker")
            })
            .collect();
        WorkerPool { sender: Some(tx), handles }
    }

    /// Enqueues a task; false when every worker is gone (the caller then
    /// runs the slot inline via the claim pass).
    fn submit(&self, task: Task) -> bool {
        match &self.sender {
            Some(tx) => tx.send(task).is_ok(),
            None => false,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect first (workers drain, then exit), then join.
        self.sender = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One shard call under `policy`. Panics are caught and converted to
/// [`CoreError::Unavailable`]; retryable errors retry up to `max_attempts`
/// with exponential backoff charged to the ambient budget; semantic errors
/// and timeouts propagate immediately. Free-standing so both the caller
/// thread (sequential scatter, point calls, writes) and pool workers
/// (parallel scatter) run the identical loop.
///
/// `base_attempt` offsets the ambient attempt index the fault schedule
/// sees; the local loop still counts `0..max_attempts` for backoff and
/// give-up purposes. Writes run on band 0; replica failover hops run on
/// band `hop * FAILOVER_ATTEMPT_BASE` ([`replica_call`]).
///
/// The fault-injection layer gates *before* touching the inner engine, so
/// retrying a write through here never double-applies it.
fn retry_call<T>(
    shard: usize,
    engine: &dyn MicroblogEngine,
    policy: &RetryPolicy,
    counters: &FaultCounters,
    base_attempt: u32,
    mut op: impl FnMut(&dyn MicroblogEngine) -> Result<T>,
) -> Result<T> {
    let mut attempt = 0u32;
    loop {
        // AssertUnwindSafe: on unwind the closure's captures are either
        // dropped (locals) or `&dyn` shared state whose engines guarantee
        // no torn writes (chaos faults fire before the inner call; inner
        // locks are not poisoned).
        let result = catch_unwind(AssertUnwindSafe(|| {
            fault::with_attempt(base_attempt + attempt, || op(engine))
        }))
        .unwrap_or_else(|payload| {
            counters.note_panic_caught();
            Err(CoreError::Unavailable(format!(
                "shard {shard} panicked: {}",
                panic_payload(payload.as_ref())
            )))
        });
        match result {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() && attempt + 1 < policy.max_attempts => {
                counters.note_retry();
                fault::charge(policy.backoff_us(attempt))?;
                attempt += 1;
            }
            Err(e) => {
                if e.is_retryable() {
                    counters.note_exhausted();
                }
                return Err(e);
            }
        }
    }
}

// ---- replication (DESIGN.md §4i) ------------------------------------------

/// Attempt-index offset between replica failover hops. Each hop `h` of the
/// failover ladder runs its retry ladder on band `h * FAILOVER_ATTEMPT_BASE`,
/// so the fault schedule treats every hop as a fresh request on a different
/// machine: a transient burst on one replica never implies a burst on the
/// next, while permanent faults (which ignore the attempt index) are never
/// masked by hopping. The band is far above any plausible retry count, so
/// retry and failover attempt indices can never collide.
const FAILOVER_ATTEMPT_BASE: u32 = 256;

/// The replicas of one shard slot: R engines ingested from the **same**
/// partition dataset, plus a per-replica *torn* flag. A replica is torn
/// when it missed a write the rest of the group accepted; torn replicas
/// are permanently excluded from reads and writes (they would serve stale
/// answers), surfacing as synthetic `Unavailable` legs the failover
/// ladder walks past.
struct ReplicaGroup {
    replicas: Vec<Arc<dyn MicroblogEngine>>,
    torn: Vec<AtomicBool>,
}

impl ReplicaGroup {
    fn new(replicas: Vec<Box<dyn MicroblogEngine>>) -> Self {
        assert!(!replicas.is_empty(), "a replica group needs at least one replica");
        let torn = replicas.iter().map(|_| AtomicBool::new(false)).collect();
        ReplicaGroup { replicas: replicas.into_iter().map(Arc::from).collect(), torn }
    }

    fn len(&self) -> usize {
        self.replicas.len()
    }

    fn engine(&self, replica: usize) -> &dyn MicroblogEngine {
        self.replicas[replica].as_ref()
    }

    fn is_torn(&self, replica: usize) -> bool {
        self.torn[replica].load(Ordering::Relaxed)
    }

    fn mark_torn(&self, replica: usize) {
        self.torn[replica].store(true, Ordering::Relaxed);
    }

    fn torn_count(&self) -> usize {
        (0..self.len()).filter(|&r| self.is_torn(r)).count()
    }
}

/// The deterministic primary replica serving a read routed by `route` at
/// `shard`: a pure hash of `(route, shard)` modulo the group size. The
/// same query always lands on the same replica (cache locality, and the
/// serving counters stay thread-count-invariant), while distinct queries
/// spread uniformly across the group — round-robin in expectation, which
/// is what scales read qps with R. No RNG, no rotating counter: every
/// routing decision is replayable.
pub fn replica_of(route: u64, shard: usize, replicas: usize) -> usize {
    debug_assert!(replicas > 0, "replica count must be positive");
    if replicas <= 1 {
        return 0;
    }
    (fault::key2(route, shard as u64) % replicas as u64) as usize
}

/// One read shard call with **deterministic replica failover**: try the
/// primary replica first (its retry ladder on attempt band 0),
/// then walk the group in ring order — hop `h` tries replica
/// `(primary + h) % R` on attempt band `h * FAILOVER_ATTEMPT_BASE` — until
/// a replica answers. Torn replicas are skipped as synthetic
/// `Unavailable` legs without being called. Only retryable errors
/// (`Unavailable`: dead or exhausted replicas) fail over; semantic errors
/// and `Timeout` (the budget is spent — another replica cannot mint more)
/// propagate immediately. When every replica fails, the **primary's**
/// error text is reported, so R never perturbs error digests. At R = 1
/// this is exactly [`retry_call`] on band 0.
fn replica_call<T>(
    shard: usize,
    group: &ReplicaGroup,
    primary: usize,
    policy: &RetryPolicy,
    counters: &FaultCounters,
    op: impl Fn(&dyn MicroblogEngine) -> Result<T>,
) -> Result<T> {
    let r = group.len();
    let mut primary_err: Option<CoreError> = None;
    for hop in 0..r as u32 {
        let replica = (primary + hop as usize) % r;
        if hop > 0 {
            counters.note_failover();
        }
        let result = if group.is_torn(replica) {
            Err(CoreError::Unavailable(format!(
                "shard {shard} replica {replica} torn (missed a group write)"
            )))
        } else {
            retry_call(
                shard,
                group.engine(replica),
                policy,
                counters,
                hop * FAILOVER_ATTEMPT_BASE,
                &op,
            )
        };
        match result {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() => {
                if primary_err.is_none() {
                    primary_err = Some(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(primary_err.expect("non-empty replica group recorded an error"))
}

/// N inner engines behind one [`MicroblogEngine`] facade.
///
/// Point lookups route to the owner shard; scatter/gather queries broadcast
/// and merge. Every merge sorts (or ranks with the global tie-break), so
/// answers are deterministic and byte-identical to an unsharded engine
/// regardless of shard count — see the per-method comments for why each
/// merge is exact.
///
/// Every shard call goes through a fault boundary (`crate::fault`):
/// panicking shards are caught and surfaced as typed
/// [`CoreError::Unavailable`] errors (never a process abort), retryable
/// errors are retried under the engine's [`RetryPolicy`] with deterministic
/// backoff charged to the ambient virtual-deadline budget, and — in
/// [`DegradationMode::Partial`] only — scatter queries skip shards that
/// stay down, tagging the request's [`fault::Coverage`]. The default
/// (`Strict` mode, no deadline) never changes an answer, which is why the
/// cross-engine equivalence matrix holds for default-configured sharded
/// engines.
pub struct ShardedEngine {
    shards: Vec<Arc<ReplicaGroup>>,
    /// Replicas per shard slot (uniform across the engine; 1 = unreplicated).
    replicas: usize,
    name: &'static str,
    policy: RetryPolicy,
    mode: DegradationMode,
    scatter_mode: AtomicU8,
    counters: Arc<FaultCounters>,
    pool: WorkerPool,
}

impl ShardedEngine {
    /// Wraps `shards` inner engines (typically all of the same backend,
    /// each ingested from one [`partition_dataset`] part), with the default
    /// [`RetryPolicy`], [`DegradationMode::Strict`] and
    /// [`ScatterMode::Parallel`]. Spawns the persistent scatter worker
    /// pool (spare cores, capped at the shard count; joined on drop).
    ///
    /// # Panics
    /// Panics when `shards` is empty.
    pub fn new(shards: Vec<Box<dyn MicroblogEngine>>) -> Self {
        Self::new_replicated(shards.into_iter().map(|e| vec![e]).collect())
    }

    /// Wraps `groups[shard]` = the R replicas of shard `shard` — each a
    /// full engine ingested from the **same** partition dataset
    /// (DESIGN.md §4i). Reads route to a deterministic primary replica and
    /// fail over along the group ring on `Unavailable`; writes apply to
    /// every live replica of the owning shard. With R = 1 this is exactly
    /// [`ShardedEngine::new`] — same name, same routing, same digests.
    ///
    /// # Panics
    /// Panics when `groups` is empty, any group is empty, or the groups
    /// are not all the same size (the replica count is engine-uniform).
    pub fn new_replicated(groups: Vec<Vec<Box<dyn MicroblogEngine>>>) -> Self {
        assert!(!groups.is_empty(), "ShardedEngine needs at least one shard");
        let replicas = groups[0].len();
        assert!(replicas > 0, "every shard needs at least one replica");
        assert!(
            groups.iter().all(|g| g.len() == replicas),
            "all shards must have the same replica count"
        );
        // The trait hands out `&'static str`; one leaked label per engine
        // construction is bounded by the number of engines built.
        let backend = groups[0][0].name();
        let name: &'static str = Box::leak(
            if replicas > 1 {
                format!("sharded[{}/{}x{}]", backend, groups.len(), replicas)
            } else {
                format!("sharded[{}/{}]", backend, groups.len())
            }
            .into_boxed_str(),
        );
        let shards: Vec<Arc<ReplicaGroup>> =
            groups.into_iter().map(|g| Arc::new(ReplicaGroup::new(g))).collect();
        let pool = WorkerPool::new(shards.len());
        ShardedEngine {
            shards,
            replicas,
            name,
            policy: RetryPolicy::default(),
            mode: DegradationMode::Strict,
            scatter_mode: AtomicU8::new(ScatterMode::default().to_u8()),
            counters: Arc::new(FaultCounters::default()),
            pool,
        }
    }

    /// Builder: replaces the retry policy (attempts, backoff, deadline).
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder: sets the degradation mode for scatter queries.
    pub fn with_degradation(mut self, mode: DegradationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder: sets the scatter execution mode.
    pub fn with_scatter_mode(self, mode: ScatterMode) -> Self {
        self.scatter_mode.store(mode.to_u8(), Ordering::Relaxed);
        self
    }

    /// The active retry policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// The active degradation mode.
    pub fn degradation(&self) -> DegradationMode {
        self.mode
    }

    /// Number of inner shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Permanently marks `replica` of `shard` as torn — the operational
    /// kill switch. A torn replica is skipped by reads (the failover
    /// ladder walks past it) and writes (the rest of the group keeps
    /// accepting), exactly as if it had missed a group write.
    ///
    /// # Panics
    /// Panics when `shard` or `replica` is out of range.
    pub fn kill_replica(&self, shard: usize, replica: usize) {
        assert!(replica < self.replicas, "replica index out of range");
        self.shards[shard].mark_torn(replica);
    }

    /// Total torn replicas across all shard groups.
    pub fn torn_replicas(&self) -> usize {
        self.shards.iter().map(|g| g.torn_count()).sum()
    }

    fn load_scatter_mode(&self) -> ScatterMode {
        ScatterMode::from_u8(self.scatter_mode.load(Ordering::Relaxed))
    }

    /// Buckets uids by owning shard (index = shard index).
    fn route(&self, uids: &[i64]) -> Vec<Vec<i64>> {
        let mut buckets = vec![Vec::new(); self.shards.len()];
        for &u in uids {
            buckets[shard_of(u, self.shards.len())].push(u);
        }
        buckets
    }

    /// Installs the policy's per-query deadline budget unless the serving
    /// layer already installed a per-request one — the entry point every
    /// public query method runs under.
    fn q<R>(&self, f: impl FnOnce() -> Result<R>) -> Result<R> {
        fault::with_fallback_budget(self.policy.deadline_us, f)
    }

    /// The primary replica serving a read routed by `route` at `shard` —
    /// [`replica_of`], plus the replica-read counter when the primary is a
    /// non-zero replica. Computed on the caller thread (never inside a
    /// scatter worker) so the counter tape is thread-count-invariant.
    fn read_primary(&self, shard: usize, route: u64) -> usize {
        let primary = replica_of(route, shard, self.replicas);
        if primary != 0 {
            self.counters.note_replica_read();
        }
        primary
    }

    /// One read shard call on the caller thread: deterministic primary,
    /// then failover along the replica ring.
    fn read_at<T>(
        &self,
        shard: usize,
        route: u64,
        op: impl Fn(&dyn MicroblogEngine) -> Result<T>,
    ) -> Result<T> {
        let primary = self.read_primary(shard, route);
        replica_call(shard, &self.shards[shard], primary, &self.policy, &self.counters, op)
    }

    /// Point lookup on the owner shard — never degrades: a single owner
    /// group is not optional, so exhausted failover propagates in both
    /// modes.
    fn point<T>(&self, uid: i64, op: impl Fn(&dyn MicroblogEngine) -> Result<T>) -> Result<T> {
        self.read_at(shard_of(uid, self.shards.len()), fault::key_i64(uid), op)
    }

    /// One write applied to **every live replica** of `shard` (DESIGN.md
    /// §4i). Writes never degrade and never fail over — each
    /// replica must apply the write itself. A replica that still fails
    /// after retries while a groupmate succeeded has *missed* the write:
    /// it is marked torn and excluded from all future reads and writes —
    /// failing fast beats serving stale. When every live replica fails,
    /// nothing mutated anywhere (the chaos gate fires before the inner
    /// engine mutates), so the group stays consistent and the first error
    /// propagates untorn. When every replica is already torn the shard is
    /// lost and the write fails.
    fn write_at(&self, shard: usize, op: impl Fn(&dyn MicroblogEngine) -> Result<()>) -> Result<()> {
        let group = &self.shards[shard];
        let mut live = 0usize;
        let mut applied = false;
        let mut first_err: Option<CoreError> = None;
        let mut missed: Vec<usize> = Vec::new();
        for r in 0..group.len() {
            if group.is_torn(r) {
                continue;
            }
            live += 1;
            match retry_call(shard, group.engine(r), &self.policy, &self.counters, 0, |e| op(e)) {
                Ok(()) => applied = true,
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                    missed.push(r);
                }
            }
        }
        if live == 0 {
            return Err(CoreError::Unavailable(format!(
                "shard {shard}: every replica is torn"
            )));
        }
        match (applied, first_err) {
            (_, None) => Ok(()),
            (true, Some(_)) => {
                // The write is in: the group answers it. Replicas that
                // missed it are torn from here on.
                for r in missed {
                    group.mark_torn(r);
                }
                Ok(())
            }
            (false, Some(e)) => Err(e),
        }
    }

    /// The single shard an event touches, when every entity it references
    /// routes there: its owner for `NewUser`, the shared shard for a
    /// same-shard `NewFollow`, the poster's home for a `NewTweet` whose
    /// mentions all live at home (hashtags are replicated everywhere).
    /// `None` marks a cross-shard event — a batching barrier, because it
    /// writes to (or validates against) more than one shard and may depend
    /// on pending events of any of them.
    fn local_shard(&self, event: &micrograph_datagen::UpdateEvent) -> Option<usize> {
        use micrograph_datagen::UpdateEvent;
        let n = self.shards.len();
        match event {
            UpdateEvent::NewUser { uid, .. } => Some(shard_of(*uid as i64, n)),
            UpdateEvent::NewFollow { follower, followee } => {
                let (a, b) = (shard_of(*follower as i64, n), shard_of(*followee as i64, n));
                (a == b).then_some(a)
            }
            UpdateEvent::NewTweet { uid, mentions, .. } => {
                let home = shard_of(*uid as i64, n);
                mentions.iter().all(|m| shard_of(*m as i64, n) == home).then_some(home)
            }
        }
    }

    /// Fans the accumulated per-shard event runs out, one batched write
    /// per shard per replica, in shard order. A shard-local batch carries
    /// its own validation (the inner adapters produce the same `NotFound`
    /// texts in the same order the looped path would), so no scatter of
    /// point reads precedes it.
    fn flush_event_runs(
        &self,
        pending: &mut [Vec<micrograph_datagen::UpdateEvent>],
    ) -> Result<()> {
        for (s, run) in pending.iter_mut().enumerate() {
            if run.is_empty() {
                continue;
            }
            let batch = std::mem::take(run);
            self.write_at(s, |e| e.apply_event_batch(&batch))?;
        }
        Ok(())
    }

    /// Shard indices of non-empty routing buckets — the selection for a
    /// routed (rather than broadcast) scatter.
    fn non_empty(buckets: &[Vec<i64>]) -> Vec<usize> {
        buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, _)| i)
            .collect()
    }

    /// Runs `op` on every shard, gathering partials in shard order.
    /// `route` picks each shard's primary replica (ignored at R = 1).
    fn broadcast<T: Send + 'static>(
        &self,
        route: u64,
        op: impl Fn(usize, &dyn MicroblogEngine) -> Result<T> + Send + Sync + 'static,
    ) -> Result<Vec<T>> {
        self.scatter(route, (0..self.shards.len()).collect(), op)
    }

    /// Scatter fan-out: runs `op` on every shard in `selected` (ascending
    /// shard indices), collecting the partials **in shard order**. Strict
    /// mode propagates the first failure in shard order; Partial mode skips
    /// shards that stay `Unavailable` after retries (recording lost
    /// coverage) and **sheds** shard calls that exhaust the virtual budget
    /// (a per-leg `Timeout` becomes lost coverage plus a shed count,
    /// DESIGN.md §4f) — under overload the request degrades instead of
    /// queueing. In Strict mode a `Timeout` still propagates.
    ///
    /// Execution follows the engine's [`ScatterMode`]; single-shard
    /// selections always run on the caller thread (nothing to overlap).
    /// Because per-shard fault decisions are pure functions of
    /// `(plan, shard, method, args, attempt)` and the gather order is
    /// fixed, both paths produce the same partials, the same coverage tape
    /// and the same first error as long as no deadline binds (they charge
    /// virtual time differently: the sum of leg spends vs the max).
    fn scatter<T: Send + 'static>(
        &self,
        route: u64,
        selected: Vec<usize>,
        op: impl Fn(usize, &dyn MicroblogEngine) -> Result<T> + Send + Sync + 'static,
    ) -> Result<Vec<T>> {
        fault::note_fanout(selected.len() as u32);
        // Primaries resolve on the caller thread, before any dispatch, so
        // the replica-read counter tape is identical across scatter modes
        // and thread counts. Each selected shard serves this request from
        // the primary `replica_of(route, shard, R)` picks — distinct
        // requests spread across the group, which is the read scale-out.
        let primaries: Vec<usize> =
            selected.iter().map(|&i| self.read_primary(i, route)).collect();
        match self.load_scatter_mode() {
            ScatterMode::Parallel if selected.len() > 1 => {
                self.scatter_parallel(selected, primaries, op)
            }
            _ => self.scatter_sequential(&selected, &primaries, op),
        }
    }

    /// Shard-order replay of one gathered leg: success collects the
    /// partial; Partial mode absorbs `Unavailable` shards and sheds
    /// `Timeout` legs (recording both as lost coverage); everything else
    /// propagates. Shared by both scatter paths so their answer semantics
    /// cannot drift.
    fn gather_leg<T>(&self, result: Result<T>, parts: &mut Vec<T>) -> Result<()> {
        match result {
            Ok(v) => {
                fault::note_shard(true);
                parts.push(v);
                Ok(())
            }
            Err(CoreError::Unavailable(_)) if self.mode == DegradationMode::Partial => {
                fault::note_shard(false);
                Ok(())
            }
            Err(CoreError::Timeout(_)) if self.mode == DegradationMode::Partial => {
                self.counters.note_shed();
                fault::note_shard(false);
                Ok(())
            }
            Err(e) => {
                fault::note_shard(false);
                Err(e)
            }
        }
    }

    fn scatter_sequential<T>(
        &self,
        selected: &[usize],
        primaries: &[usize],
        op: impl Fn(usize, &dyn MicroblogEngine) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut parts = Vec::with_capacity(selected.len());
        for (slot, &i) in selected.iter().enumerate() {
            let result =
                replica_call(i, &self.shards[i], primaries[slot], &self.policy, &self.counters, |e| {
                    op(i, e)
                });
            self.gather_leg(result, &mut parts)?;
        }
        Ok(parts)
    }

    /// The parallel path: publish one claim-guarded task per selected
    /// shard to the shared pool, each running the full retry loop under a
    /// **snapshot** of the caller's remaining budget, then *steal* — the
    /// caller claims every still-unclaimed slot in shard order and runs it
    /// inline, so when the pool is busy (or wakeups are slow) the fan-out
    /// degrades gracefully to sequential cost instead of stalling behind a
    /// handoff. Finally gather the worker-claimed slots, charge the max
    /// spend once, and replay outcomes in shard order. Which thread ran a
    /// slot is the only race — every decision that shapes the answer
    /// (fault schedule, retry counts, budget snapshot, merge order,
    /// first-error choice) is interleaving-independent.
    ///
    /// Fan-outs of two legs or fewer submit nothing, so the steal pass
    /// runs every leg on the caller thread under the same accounting: at
    /// that width the task boxing, channel handoff and worker wakeup cost
    /// more than the overlap buys.
    fn scatter_parallel<T: Send + 'static>(
        &self,
        selected: Vec<usize>,
        primaries: Vec<usize>,
        op: impl Fn(usize, &dyn MicroblogEngine) -> Result<T> + Send + Sync + 'static,
    ) -> Result<Vec<T>> {
        let snapshot = fault::remaining_budget_us();
        // The shard call itself — identical wherever it runs.
        let exec = {
            let op = Arc::new(op);
            let policy = self.policy;
            let counters = Arc::clone(&self.counters);
            Arc::new(move |i: usize, primary: usize, group: &ReplicaGroup| {
                fault::with_worker_budget(snapshot, || {
                    replica_call(i, group, primary, &policy, &counters, |e| op(i, e))
                })
            })
        };
        let claims: Arc<Vec<AtomicBool>> =
            Arc::new(selected.iter().map(|_| AtomicBool::new(false)).collect());
        let (tx, rx) = channel::unbounded::<(usize, Result<T>, fault::WorkerSpend)>();
        let pooled = if selected.len() > 2 { selected.len() } else { 0 };
        for (slot, &i) in selected.iter().enumerate().take(pooled) {
            let exec = Arc::clone(&exec);
            let claims = Arc::clone(&claims);
            let group = Arc::clone(&self.shards[i]);
            let primary = primaries[slot];
            let tx_task = tx.clone();
            let task: Task = Box::new(move || {
                if claims[slot].swap(true, Ordering::AcqRel) {
                    return; // the caller already stole this slot
                }
                let (result, spend) = exec(i, primary, group.as_ref());
                let _ = tx_task.send((slot, result, spend));
            });
            // A failed submit (pool gone) is fine: the slot stays
            // unclaimed and the steal pass below runs it inline.
            let _ = self.pool.submit(task);
        }
        drop(tx);
        let mut slots: Vec<Option<(Result<T>, fault::WorkerSpend)>> =
            (0..selected.len()).map(|_| None).collect();
        // Steal pass: run whatever no worker has picked up yet.
        for (slot, &i) in selected.iter().enumerate() {
            if !claims[slot].swap(true, Ordering::AcqRel) {
                slots[slot] = Some(exec(i, primaries[slot], self.shards[i].as_ref()));
            }
        }
        // Gather the worker-claimed slots. Every pending task holds a
        // sender clone, so recv() can only disconnect once all tasks have
        // run or been dropped — a lost worker surfaces as a `None` slot.
        while slots.iter().any(Option::is_none) {
            match rx.recv() {
                Ok((slot, result, spend)) => slots[slot] = Some((result, spend)),
                Err(_) => break,
            }
        }
        // Fan-out virtual latency = the slowest shard call, not the sum.
        // Cannot overdraw: each worker's spend is capped by the snapshot,
        // which is exactly what the caller still has.
        let max_spent = slots
            .iter()
            .flatten()
            .map(|(_, spend)| spend.spent_us)
            .max()
            .unwrap_or(0);
        fault::charge(max_spent)?;
        let mut parts = Vec::with_capacity(selected.len());
        for slot in &mut slots {
            let (result, spend) = slot.take().unwrap_or_else(|| {
                (Err(CoreError::Unavailable("shard worker lost".into())), Default::default())
            });
            fault::absorb_worker_spend(&spend);
            self.gather_leg(result, &mut parts)?;
        }
        Ok(parts)
    }

    // ---- Q6.1 distributed BFS (DESIGN.md §4h) ------------------------------

    /// One BFS round: broadcast the frontier as a single batched
    /// `follow_frontier_kernel` call per shard and union the sorted
    /// distinct partials (sort + dedup on a flat Vec; no tree set).
    fn bfs_round(&self, route: u64, frontier: &Arc<Vec<i64>>) -> Result<Vec<i64>> {
        let shared = Arc::clone(frontier);
        let parts = self.broadcast(route, move |_, s| s.follow_frontier_kernel(&shared))?;
        let mut next: Vec<i64> = parts.into_iter().flatten().collect();
        next.sort_unstable();
        next.dedup();
        Ok(next)
    }

    /// Bidirectional frontier exchange: grow a frontier from each endpoint
    /// and expand the SMALLER one each round (ties expand the a-side, so
    /// the schedule is deterministic), meeting in the middle after
    /// ~half the rounds over ~sqrt-sized frontiers.
    ///
    /// Exactness with plain visited *sets* (no per-node depth maps): at a
    /// round's start no detection has fired, so d = dist(a,b) > da + db.
    /// After expanding (say) the a-side to depth da+1, the fresh frontier
    /// is exactly the nodes at a-distance da+1, and the node sitting at
    /// position da+1 on a shortest path has b-distance d-(da+1) — inside
    /// b's visited set iff d ≤ da+1+db. So the first intersection fires
    /// exactly when the depth sum first reaches d, and `da + db` at that
    /// moment IS the answer; no shorter path can have been missed.
    fn bidirectional_path_len(
        &self,
        route: u64,
        a: i64,
        b: i64,
        max_hops: u32,
    ) -> Result<Option<u32>> {
        let mut visited_a: Vec<i64> = vec![a];
        let mut visited_b: Vec<i64> = vec![b];
        let mut frontier_a = Arc::new(vec![a]);
        let mut frontier_b = Arc::new(vec![b]);
        let mut depth_sum = 0u32;
        while depth_sum < max_hops {
            let expand_a = frontier_a.len() <= frontier_b.len();
            let (frontier, own_visited, other_visited) = if expand_a {
                (&mut frontier_a, &mut visited_a, &visited_b)
            } else {
                (&mut frontier_b, &mut visited_b, &visited_a)
            };
            let next = self.bfs_round(route, frontier)?;
            depth_sum += 1;
            let fresh: Vec<i64> = next
                .into_iter()
                .filter(|u| own_visited.binary_search(u).is_err())
                .collect();
            if fresh.iter().any(|u| other_visited.binary_search(u).is_ok()) {
                return Ok(Some(depth_sum));
            }
            if fresh.is_empty() {
                return Ok(None);
            }
            own_visited.extend_from_slice(&fresh);
            own_visited.sort_unstable();
            *frontier = Arc::new(fresh);
        }
        Ok(None)
    }
}

impl MicroblogEngine for ShardedEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn users_with_followers_over(&self, threshold: i64) -> Result<Vec<i64>> {
        // Broadcast. A `followers` value exists only on the owner shard
        // (ghosts are bare uids), so each shard selects exactly the users
        // it owns; owned sets are disjoint, so concat + sort is exact.
        self.q(|| {
            let parts = self.broadcast(fault::key_i64(threshold), move |_, s| {
                s.users_with_followers_over(threshold)
            })?;
            Ok(concat_sorted(parts))
        })
    }

    fn followees(&self, uid: i64) -> Result<Vec<i64>> {
        // All of A's out-edges live on A's shard; ghosts have none.
        self.q(|| self.point(uid, |s| s.followees(uid)))
    }

    fn followee_tweets(&self, uid: i64) -> Result<Vec<i64>> {
        // Round 1: frontier from the owner. Round 2: route the frontier by
        // ownership — a user's tweets are complete on their own shard.
        self.q(|| {
            let frontier = self.point(uid, |s| s.followees(uid))?;
            let buckets = self.route(&frontier);
            let selected = Self::non_empty(&buckets);
            let parts = self
                .scatter(fault::key_i64(uid), selected, move |i, s| {
                    s.posted_tweets_kernel(&buckets[i])
                })?;
            Ok(concat_sorted(parts))
        })
    }

    fn followee_hashtags(&self, uid: i64) -> Result<Vec<String>> {
        self.q(|| {
            let frontier = self.point(uid, |s| s.followees(uid))?;
            let buckets = self.route(&frontier);
            let selected = Self::non_empty(&buckets);
            let parts = self.scatter(fault::key_i64(uid), selected, move |i, s| {
                s.hashtags_kernel(&buckets[i])
            })?;
            Ok(merge_sorted_distinct(parts))
        })
    }

    fn co_mentioned_users(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        // A co-mention pair can recur on many shards (one per mentioning
        // tweet), so truncated per-shard lists cannot simply be summed: the
        // TA loop runs over bounded `co_mention_topn_kernel` partials and
        // fetches exact counts for the candidate union when a bound is
        // non-zero (DESIGN.md §4f). Each round ships O(k) rows per shard
        // rather than every co-mentioned user.
        self.q(|| {
            let route = fault::key_i64(uid);
            let top = pushdown_top_n(
                n,
                |k| self.broadcast(route, move |_, s| s.co_mention_topn_kernel(uid, k)),
                |keys| {
                    self.broadcast(route, move |_, s| s.co_mention_counts_for_kernel(uid, &keys))
                },
            )?;
            Ok(to_ranked(top))
        })
    }

    fn co_occurring_hashtags(&self, tag: &str, n: usize) -> Result<Vec<Ranked<String>>> {
        self.q(|| {
            let route = fault::key_str(tag);
            let tag = tag.to_owned();
            let top = pushdown_top_n(
                n,
                |k| {
                    let tag = tag.clone();
                    self.broadcast(route, move |_, s| s.co_tag_topn_kernel(&tag, k))
                },
                |keys| {
                    let tag = tag.clone();
                    self.broadcast(route, move |_, s| s.co_tag_counts_for_kernel(&tag, &keys))
                },
            )?;
            Ok(to_ranked(top))
        })
    }

    fn recommend_followees(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        // Frontier from the owner, counting kernels routed by ownership
        // (out-edges are local to their source's shard), then the TA
        // count-sum merge. The not-already-followed filter runs INSIDE the
        // kernels (as a sorted exclude list applied before truncation), so
        // the bounded partials rank exactly the global candidate set.
        self.q(|| {
            let route = fault::key_i64(uid);
            let followed = self.point(uid, |s| s.followees(uid))?;
            let exclude = Arc::new(exclusion_list(uid, &followed));
            let buckets = Arc::new(self.route(&followed));
            let selected = Self::non_empty(&buckets);
            let top = pushdown_top_n(
                n,
                |k| {
                    let buckets = Arc::clone(&buckets);
                    let exclude = Arc::clone(&exclude);
                    self.scatter(route, selected.clone(), move |i, s| {
                        s.count_followees_topn_kernel(&buckets[i], &exclude, k)
                    })
                },
                |keys| {
                    let buckets = Arc::clone(&buckets);
                    self.scatter(route, selected.clone(), move |i, s| {
                        s.count_followees_counts_for_kernel(&buckets[i], &keys)
                    })
                },
            )?;
            Ok(to_ranked(top))
        })
    }

    fn recommend_followers(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        // In-edges are scattered (each lives on its source's shard), so the
        // frontier is BROADCAST; every `follows` edge is stored exactly
        // once globally, so summing per-shard counts is exact. As in Q4.1
        // the exclude filter runs inside the kernels and the TA loop bounds
        // what each shard ships.
        self.q(|| {
            let route = fault::key_i64(uid);
            let followed = Arc::new(self.point(uid, |s| s.followees(uid))?);
            if followed.is_empty() {
                return Ok(Vec::new());
            }
            let exclude = Arc::new(exclusion_list(uid, &followed));
            let top = pushdown_top_n(
                n,
                |k| {
                    let followed = Arc::clone(&followed);
                    let exclude = Arc::clone(&exclude);
                    self.broadcast(route, move |_, s| {
                        s.count_followers_topn_kernel(&followed, &exclude, k)
                    })
                },
                |keys| {
                    let followed = Arc::clone(&followed);
                    self.broadcast(route, move |_, s| {
                        s.count_followers_counts_for_kernel(&followed, &keys)
                    })
                },
            )?;
            Ok(to_ranked(top))
        })
    }

    fn current_influence(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        // A mentioner p's tweets — and the p→A follows edge the filter
        // needs — are all on p's shard, so per-shard candidate sets are
        // DISJOINT and merging the truncated per-shard top-n is exact: ONE
        // round of bounded `influence_topn_kernel` partials suffices, no
        // TA loop or exact-count phase (the bound is ignored).
        self.q(|| {
            let parts = self.broadcast(fault::key_i64(uid), move |_, s| {
                Ok(s.influence_topn_kernel(uid, true, n)?.top)
            })?;
            Ok(to_ranked(merge_top_n(parts, n)))
        })
    }

    fn potential_influence(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        self.q(|| {
            let parts = self.broadcast(fault::key_i64(uid), move |_, s| {
                Ok(s.influence_topn_kernel(uid, false, n)?.top)
            })?;
            Ok(to_ranked(merge_top_n(parts, n)))
        })
    }

    fn shortest_path_len(&self, a: i64, b: i64, max_hops: u32) -> Result<Option<u32>> {
        // Distributed BFS: each round broadcasts a frontier to every shard
        // (a user's undirected adjacency is split between their own
        // shard's out-edges and other shards' in-edges) as ONE batched
        // kernel call per shard, and unions the results. Path LENGTH is
        // exploration-order independent, so the bidirectional frontier
        // exchange reproduces the single-engine answer. Under Partial
        // degradation a skipped shard can only lengthen or lose a path,
        // never invent one.
        self.q(|| {
            // One route per (a, b) request: every BFS round of this query
            // reads the same replica of each shard, so a mid-path replica
            // switch can never mix frontier snapshots.
            let route = fault::key2(fault::key_i64(a), fault::key_i64(b));
            if !self.point(a, |s| s.has_user(a))? || !self.point(b, |s| s.has_user(b))? {
                return Ok(None);
            }
            if a == b {
                return Ok(Some(0));
            }
            self.bidirectional_path_len(route, a, b, max_hops)
        })
    }

    fn tweets_with_hashtag(&self, tag: &str) -> Result<Vec<i64>> {
        // `tags` edges live only on the owning tweet's shard — disjoint.
        self.q(|| {
            let route = fault::key_str(tag);
            let tag = tag.to_owned();
            let parts = self.broadcast(route, move |_, s| s.tweets_with_hashtag(&tag))?;
            Ok(concat_sorted(parts))
        })
    }

    fn retweet_count(&self, tid: i64) -> Result<u64> {
        // Each retweet edge is stored once (at the retweeting poster's
        // shard); shards without the tweet report 0.
        self.q(|| {
            let parts = self.broadcast(fault::key_i64(tid), move |_, s| s.retweet_count(tid))?;
            Ok(parts.into_iter().sum())
        })
    }

    fn poster_of(&self, tid: i64) -> Result<i64> {
        // Ghost tweet replicas keep the real poster uid, so the first
        // shard that knows the tweet answers correctly. Shards are probed
        // in order; in Partial mode an unavailable shard is skipped (a
        // missed ghost can only turn the answer into NotFound, never a
        // wrong uid).
        self.q(|| {
            let route = fault::key_i64(tid);
            for i in 0..self.shards.len() {
                match self.read_at(i, route, |s| s.poster_of(tid)) {
                    Ok(uid) => {
                        fault::note_shard(true);
                        return Ok(uid);
                    }
                    Err(CoreError::NotFound(_)) => {
                        fault::note_shard(true);
                    }
                    Err(CoreError::Unavailable(_)) if self.mode == DegradationMode::Partial => {
                        fault::note_shard(false);
                    }
                    Err(e) => {
                        fault::note_shard(false);
                        return Err(e);
                    }
                }
            }
            Err(CoreError::NotFound(format!("poster of tweet {tid}")))
        })
    }

    // ---- kernels: delegate so sharded engines compose -----------------------

    fn has_user(&self, uid: i64) -> Result<bool> {
        self.q(|| self.point(uid, |s| s.has_user(uid)))
    }

    fn posted_tweets_kernel(&self, uids: &[i64]) -> Result<Vec<i64>> {
        self.q(|| {
            let route = fault::key_slice(uids);
            let buckets = self.route(uids);
            let selected = Self::non_empty(&buckets);
            let parts = self.scatter(route, selected, move |i, s| {
                s.posted_tweets_kernel(&buckets[i])
            })?;
            Ok(concat_sorted(parts))
        })
    }

    fn hashtags_kernel(&self, uids: &[i64]) -> Result<Vec<String>> {
        self.q(|| {
            let route = fault::key_slice(uids);
            let buckets = self.route(uids);
            let selected = Self::non_empty(&buckets);
            let parts =
                self.scatter(route, selected, move |i, s| s.hashtags_kernel(&buckets[i]))?;
            Ok(merge_sorted_distinct(parts))
        })
    }

    fn count_followees_kernel(&self, uids: &[i64]) -> Result<Vec<(i64, u64)>> {
        self.q(|| {
            let route = fault::key_slice(uids);
            let buckets = self.route(uids);
            let selected = Self::non_empty(&buckets);
            let parts = self.scatter(route, selected, move |i, s| {
                s.count_followees_kernel(&buckets[i])
            })?;
            Ok(sum_counts(parts))
        })
    }

    fn count_followers_kernel(&self, uids: &[i64]) -> Result<Vec<(i64, u64)>> {
        self.q(|| {
            let route = fault::key_slice(uids);
            let uids = uids.to_vec();
            let parts = self.broadcast(route, move |_, s| s.count_followers_kernel(&uids))?;
            Ok(sum_counts(parts))
        })
    }

    fn co_mention_counts_kernel(&self, uid: i64) -> Result<Vec<(i64, u64)>> {
        self.q(|| {
            let parts =
                self.broadcast(fault::key_i64(uid), move |_, s| s.co_mention_counts_kernel(uid))?;
            Ok(sum_counts(parts))
        })
    }

    fn co_tag_counts_kernel(&self, tag: &str) -> Result<Vec<(String, u64)>> {
        self.q(|| {
            let route = fault::key_str(tag);
            let tag = tag.to_owned();
            let parts = self.broadcast(route, move |_, s| s.co_tag_counts_kernel(&tag))?;
            Ok(sum_counts(parts))
        })
    }

    fn follow_frontier_kernel(&self, uids: &[i64]) -> Result<Vec<i64>> {
        self.q(|| {
            let route = fault::key_slice(uids);
            let uids = uids.to_vec();
            let parts = self.broadcast(route, move |_, s| s.follow_frontier_kernel(&uids))?;
            Ok(merge_sorted_distinct(parts))
        })
    }

    fn ensure_user(&self, uid: i64) -> Result<()> {
        // Writes never degrade — the owner shard is not optional.
        self.q(|| self.write_at(shard_of(uid, self.shards.len()), |s| s.ensure_user(uid)))
    }

    fn bump_followers(&self, uid: i64, delta: i64) -> Result<()> {
        self.q(|| {
            self.write_at(shard_of(uid, self.shards.len()), |s| s.bump_followers(uid, delta))
        })
    }

    fn apply_event(&self, event: &micrograph_datagen::UpdateEvent) -> Result<()> {
        use micrograph_datagen::UpdateEvent;
        // Every step — validation reads and the writes themselves — runs
        // under the retry policy, and none of them degrade: a half-applied
        // update is worse than a failed one, so errors propagate in both
        // modes. The chaos gate fires before the inner engine mutates, so
        // a retried write is never double-applied.
        let n = self.shards.len();
        self.q(|| match event {
            UpdateEvent::NewUser { uid, .. } => {
                self.write_at(shard_of(*uid as i64, n), |s| s.apply_event(event))
            }
            UpdateEvent::NewFollow { follower, followee } => {
                let (fa, fb) = (*follower as i64, *followee as i64);
                // Validate both endpoints against their OWNERS, in the same
                // order the unsharded adapters do. Validation is a read —
                // it routes like one (primary + failover).
                if !self.point(fa, |s| s.has_user(fa))? {
                    return Err(CoreError::NotFound(format!("user {follower}")));
                }
                if !self.point(fb, |s| s.has_user(fb))? {
                    return Err(CoreError::NotFound(format!("user {followee}")));
                }
                let (src, dst) = (shard_of(fa, n), shard_of(fb, n));
                if src == dst {
                    self.write_at(src, |s| s.apply_event(event))
                } else {
                    // Edge + bare ghost followee at the follower's shard.
                    // The inner engine leaves the ghost bare, so a
                    // `followers` value stays on the owner shard only
                    // (Q1.1's unfiltered merge relies on it).
                    self.write_at(src, |s| s.ensure_user(fb))?;
                    self.write_at(src, |s| s.apply_event(event))?;
                    // The real count lives at the owner.
                    self.write_at(dst, |s| s.bump_followers(fb, 1))
                }
            }
            UpdateEvent::NewTweet { uid, mentions, .. } => {
                let poster = *uid as i64;
                let home = shard_of(poster, n);
                if !self.read_at(home, fault::key_i64(poster), |s| s.has_user(poster))? {
                    return Err(CoreError::NotFound(format!("user {uid}")));
                }
                for m in mentions {
                    let mi = *m as i64;
                    if !self.point(mi, |s| s.has_user(mi))? {
                        return Err(CoreError::NotFound(format!("user {m}")));
                    }
                    if shard_of(mi, n) != home {
                        self.write_at(home, |s| s.ensure_user(mi))?;
                    }
                }
                // Hashtags are replicated, so tag lookups resolve locally.
                self.write_at(home, |s| s.apply_event(event))
            }
        })
    }

    /// Group commit across the partition (DESIGN.md §4j): consecutive
    /// shard-local events accumulate into per-shard runs, flushed as ONE
    /// batched write per shard per replica (writes still never degrade;
    /// torn-replica semantics unchanged — `write_at` is the same door every
    /// single-event write goes through). A cross-shard event is a barrier:
    /// all pending runs flush first (in shard order), then the event takes
    /// the validated multi-step path of [`MicroblogEngine::apply_event`].
    /// On a valid stream this is byte-identical to the looped oracle; on a
    /// mid-batch failure each *shard* keeps its own successful prefix (the
    /// global interleaving across shards is not replayed — the monolithic
    /// adapters, where the oracle-exact prefix contract lives, do that).
    fn apply_event_batch(&self, events: &[micrograph_datagen::UpdateEvent]) -> Result<()> {
        let n = self.shards.len();
        self.q(|| {
            let mut pending: Vec<Vec<micrograph_datagen::UpdateEvent>> = vec![Vec::new(); n];
            for event in events {
                match self.local_shard(event) {
                    Some(s) => pending[s].push(event.clone()),
                    None => {
                        self.flush_event_runs(&mut pending)?;
                        self.apply_event(event)?;
                    }
                }
            }
            self.flush_event_runs(&mut pending)
        })
    }

    fn reset_stats(&self) {
        for g in &self.shards {
            for s in &g.replicas {
                s.reset_stats();
            }
        }
    }

    fn ops_count(&self) -> u64 {
        self.shards.iter().flat_map(|g| g.replicas.iter()).map(|s| s.ops_count()).sum()
    }

    fn drop_caches(&self) -> Result<()> {
        for g in &self.shards {
            for s in &g.replicas {
                s.drop_caches()?;
            }
        }
        Ok(())
    }

    fn fault_stats(&self) -> FaultStats {
        // Own handling counters (retries, caught panics, exhaustion) plus
        // whatever the inner engines injected/handled themselves.
        self.shards
            .iter()
            .flat_map(|g| g.replicas.iter())
            .fold(self.counters.snapshot(), |acc, s| acc.plus(&s.fault_stats()))
    }

    fn scatter_mode(&self) -> Option<ScatterMode> {
        Some(self.load_scatter_mode())
    }

    fn set_scatter_mode(&self, mode: ScatterMode) -> bool {
        self.scatter_mode.store(mode.to_u8(), Ordering::Relaxed);
        true
    }

    fn exec_mode(&self) -> Option<arbor_ql::ExecMode> {
        // All replicas run the same backend; the first one speaks for all.
        self.shards.first().and_then(|g| g.replicas.first()).and_then(|s| s.exec_mode())
    }

    fn set_exec_mode(&self, mode: arbor_ql::ExecMode) -> bool {
        // Flip every replica of every shard (no short-circuit); succeeds
        // only when every one has the toggle (the engine is homogeneous,
        // so this is all-or-nothing in practice).
        let mut ok = true;
        for g in &self.shards {
            for s in &g.replicas {
                ok &= s.set_exec_mode(mode);
            }
        }
        ok
    }

    fn replica_count(&self) -> Option<usize> {
        Some(self.replicas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micrograph_datagen::User;

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 3, 4, 7] {
            for uid in 0..500i64 {
                let s = shard_of(uid, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(uid, shards), "must be pure");
            }
        }
    }

    #[test]
    fn replica_of_is_deterministic_in_range_and_spreads() {
        for replicas in [1usize, 2, 3, 5] {
            let mut hist = vec![0u32; replicas];
            for route in 0..400u64 {
                for shard in 0..4usize {
                    let r = replica_of(route, shard, replicas);
                    assert!(r < replicas);
                    assert_eq!(r, replica_of(route, shard, replicas), "must be pure");
                    hist[r] += 1;
                }
            }
            // Every replica serves a healthy share of distinct routes —
            // that spread IS the read scale-out.
            if replicas > 1 {
                assert!(
                    hist.iter().all(|&c| c > 0),
                    "every replica must serve some routes: {hist:?}"
                );
                let (min, max) = (hist.iter().min().unwrap(), hist.iter().max().unwrap());
                assert!(max / min.max(&1) < 3, "spread too skewed: {hist:?}");
            }
        }
    }

    #[test]
    fn replica_of_single_replica_is_zero() {
        for route in 0..50u64 {
            for shard in 0..8usize {
                assert_eq!(replica_of(route, shard, 1), 0);
            }
        }
    }

    #[test]
    fn shard_of_single_shard_is_zero() {
        for uid in [0i64, 1, 42, 1_000_000] {
            assert_eq!(shard_of(uid, 1), 0);
        }
    }

    #[test]
    fn shard_of_spreads_users() {
        // The finalizer must not collapse sequential uids onto one shard.
        let mut seen = BTreeSet::new();
        for uid in 1..=64i64 {
            seen.insert(shard_of(uid, 4));
        }
        assert_eq!(seen.len(), 4, "64 sequential uids should hit all 4 shards");
    }

    fn tiny() -> Dataset {
        let users = (1..=8u64)
            .map(|uid| User {
                uid,
                name: format!("u{uid}"),
                followers: uid as u32,
                verified: uid == 1,
            })
            .collect();
        let tweets = (1..=8u64)
            .map(|tid| Tweet { tid, uid: (tid % 8) + 1, text: format!("t{tid}") })
            .collect();
        let mut follows = Vec::new();
        for a in 1..=8u64 {
            for b in 1..=8u64 {
                if a != b && (a + b) % 3 != 0 {
                    follows.push((a, b));
                }
            }
        }
        Dataset {
            users,
            tweets,
            hashtags: vec!["alpha".into(), "beta".into()],
            follows,
            mentions: vec![(1, 3), (1, 3), (2, 5), (3, 7), (4, 1), (5, 2)],
            tags: vec![(1, 0), (1, 1), (2, 0), (3, 1), (5, 0)],
            retweets: vec![(2, 1), (3, 1), (4, 2), (6, 5)],
            ghosts: vec![],
        }
    }

    #[test]
    fn partition_preserves_every_edge_exactly_once() {
        let d = tiny();
        for shards in [1usize, 2, 4] {
            let parts = partition_dataset(&d, shards);
            assert_eq!(parts.len(), shards);
            let sum = |f: fn(&Dataset) -> usize| parts.iter().map(f).sum::<usize>();
            assert_eq!(sum(|p| p.follows.len()), d.follows.len());
            assert_eq!(sum(|p| p.mentions.len()), d.mentions.len());
            assert_eq!(sum(|p| p.tags.len()), d.tags.len());
            assert_eq!(sum(|p| p.retweets.len()), d.retweets.len());
        }
    }

    #[test]
    fn partition_owned_nodes_partition_exactly() {
        let d = tiny();
        for shards in [1usize, 2, 4] {
            let parts = partition_dataset(&d, shards);
            let owned_users: usize = parts
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    p.users.iter().filter(|u| shard_of(u.uid as i64, shards) == i).count()
                })
                .sum();
            let owned_tweets: usize = parts
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    p.tweets.iter().filter(|t| shard_of(t.uid as i64, shards) == i).count()
                })
                .sum();
            assert_eq!(owned_users, d.users.len());
            assert_eq!(owned_tweets, d.tweets.len());
        }
    }

    #[test]
    fn partition_every_local_edge_endpoint_resolves() {
        let d = tiny();
        for shards in [2usize, 4] {
            for (i, p) in partition_dataset(&d, shards).into_iter().enumerate() {
                let users: BTreeSet<u64> =
                    p.users.iter().map(|u| u.uid).chain(p.ghosts.iter().copied()).collect();
                let tweets: BTreeSet<u64> = p.tweets.iter().map(|t| t.tid).collect();
                assert_eq!(p.hashtags, d.hashtags, "hashtags replicate everywhere");
                for &(a, b) in &p.follows {
                    assert_eq!(shard_of(a as i64, shards), i, "follows routed by source");
                    assert!(users.contains(&a) && users.contains(&b), "shard {i}: {a}->{b}");
                }
                for &(t, u) in &p.mentions {
                    assert!(tweets.contains(&t) && users.contains(&u));
                }
                for &(t, _) in &p.tags {
                    assert!(tweets.contains(&t));
                }
                for &(rt, orig) in &p.retweets {
                    assert!(tweets.contains(&rt) && tweets.contains(&orig));
                }
            }
        }
    }

    #[test]
    fn partition_ghosts_are_bare() {
        let d = tiny();
        for shards in [2usize, 4] {
            let mut ghosted = 0;
            for (i, p) in partition_dataset(&d, shards).into_iter().enumerate() {
                let own: BTreeSet<u64> = p.users.iter().map(|u| u.uid).collect();
                for u in &p.users {
                    assert_eq!(shard_of(u.uid as i64, shards), i, "users holds owned users only");
                    assert!(d.users.contains(u), "an owned user keeps its real record");
                }
                let ghosts: BTreeSet<u64> = p.ghosts.iter().copied().collect();
                assert_eq!(ghosts.len(), p.ghosts.len(), "shard {i}: ghosts are distinct");
                assert!(own.is_disjoint(&ghosts), "shard {i}: a ghost is never owned here");
                ghosted += ghosts.len();
            }
            assert!(ghosted > 0, "{shards} shards: the fixture must exercise ghosts");
        }
    }

    #[test]
    fn sum_counts_merges_ascending() {
        let parts = vec![vec![(3i64, 1u64), (5, 2)], vec![(1, 4), (3, 2)]];
        assert_eq!(sum_counts(parts), vec![(1, 4), (3, 3), (5, 2)]);
    }

    #[test]
    fn exclusion_list_is_sorted_and_deduped() {
        assert_eq!(exclusion_list(4, &[9, 1, 4, 9]), vec![1, 4, 9]);
        assert_eq!(exclusion_list(7, &[]), vec![7]);
    }

    // ---- the TA pushdown driver, against in-memory "shards" ---------------

    use micrograph_common::topn::topk_partial;

    fn ta_counts(shards: &[Vec<(i64, u64)>], keys: &[i64]) -> Vec<Vec<(i64, u64)>> {
        shards
            .iter()
            .map(|s| {
                s.iter().copied().filter(|(k, _)| keys.binary_search(k).is_ok()).collect()
            })
            .collect()
    }

    #[test]
    fn pushdown_driver_handles_split_key_adversary() {
        // Classic TA adversary: key 5 is mediocre on every shard (count 5)
        // but the global best (10); the per-shard leaders are disjoint
        // count-6 keys that never sum. A naive truncated merge would crown
        // one of them — the bounds force a deeper round instead.
        let shard0: Vec<(i64, u64)> = (10..30).map(|k| (k, 6)).chain([(5, 5)]).collect();
        let shard1: Vec<(i64, u64)> = (40..60).map(|k| (k, 6)).chain([(5, 5)]).collect();
        let shards = vec![shard0, shard1];
        let mut rounds = 0;
        let out = pushdown_top_n(
            1,
            |k| {
                rounds += 1;
                Ok(shards.iter().map(|s| topk_partial(counted(s.clone()), k)).collect())
            },
            |keys| Ok(ta_counts(&shards, &keys)),
        )
        .unwrap();
        assert_eq!(out, vec![Counted { key: 5, count: 10 }]);
        assert!(rounds > 1, "bounds must force a deeper round to surface the split key");
        // The driver agrees with the full-map merge at every n.
        for n in 1..6 {
            let full = merge_top_n(shards.iter().map(|s| counted(s.clone())).collect(), n);
            let ta = pushdown_top_n(
                n,
                |k| Ok(shards.iter().map(|s| topk_partial(counted(s.clone()), k)).collect()),
                |keys| Ok(ta_counts(&shards, &keys)),
            )
            .unwrap();
            assert_eq!(ta, full, "n={n}");
        }
    }

    #[test]
    fn pushdown_driver_stops_once_bounds_cannot_flip_the_order() {
        // A dominant split key: the first exact-count phase proves no
        // unseen key can reach it, so ONE bounded round settles the query
        // even though both shards truncated their long tails.
        let shard0: Vec<(i64, u64)> =
            [(1i64, 100u64)].into_iter().chain((2..21).map(|k| (k, 1))).collect();
        let shard1: Vec<(i64, u64)> =
            [(1i64, 90u64)].into_iter().chain((30..49).map(|k| (k, 1))).collect();
        let shards = vec![shard0, shard1];
        let (mut topn_rounds, mut count_rounds) = (0, 0);
        let out = pushdown_top_n(
            1,
            |k| {
                topn_rounds += 1;
                Ok(shards.iter().map(|s| topk_partial(counted(s.clone()), k)).collect())
            },
            |keys| {
                count_rounds += 1;
                Ok(ta_counts(&shards, &keys))
            },
        )
        .unwrap();
        assert_eq!(out, vec![Counted { key: 1, count: 190 }]);
        assert_eq!(topn_rounds, 1, "one bounded round suffices");
        assert_eq!(count_rounds, 1, "one exact-count phase settles it");
    }

    #[test]
    fn pushdown_driver_zero_n_never_fetches() {
        let fetches = std::cell::Cell::new(0u32);
        let out: Vec<Counted<i64>> = pushdown_top_n(
            0,
            |_| {
                fetches.set(fetches.get() + 1);
                Ok(Vec::new())
            },
            |_| {
                fetches.set(fetches.get() + 1);
                Ok(Vec::new())
            },
        )
        .unwrap();
        assert!(out.is_empty());
        assert_eq!(fetches.get(), 0, "n == 0 answers without touching a shard");
    }
}
