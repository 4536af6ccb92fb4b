//! The engine-agnostic query interface: every query of Table 2.
//!
//! Semantics are pinned down here once so both adapters implement the same
//! contract (the cross-engine equivalence property tests depend on it):
//!
//! * Identifiers are *external* ids (`uid`, `tid`, tag strings) — never
//!   engine-internal node ids.
//! * Plain lists come back sorted ascending; top-n lists come back sorted
//!   by count descending with ties broken by ascending key, truncated to n.
//! * Co-occurrence/influence counts follow **edge multiplicity** (a tweet
//!   mentioning the same user twice counts twice) — the multigraph
//!   semantics a declarative pattern match produces naturally.
//! * Q5 "influence": following the paper's §3.3 prose, *current* influence
//!   counts mentioners who already follow A; *potential* counts mentioners
//!   who do not. (Table 2's wording says "followees"; we follow the prose
//!   and document the choice — see DESIGN.md.)
//! * Q6 shortest paths treat `follows` as undirected (the paper bounds the
//!   search at 3 hops on Sparksee; the bound is a parameter here).

use std::fmt;

/// A ranked result entry: an external key with its count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ranked<K> {
    /// External key (uid, tid or tag).
    pub key: K,
    /// Occurrence count.
    pub count: u64,
}

impl<K> Ranked<K> {
    /// Convenience constructor.
    pub fn new(key: K, count: u64) -> Self {
        Ranked { key, count }
    }
}

/// Errors from the workload layer.
#[derive(Debug)]
pub enum CoreError {
    /// The referenced user/tweet/hashtag does not exist.
    NotFound(String),
    /// Error from the arbordb engine or its query layer.
    Arbor(String),
    /// Error from the bitgraph engine.
    Bit(String),
    /// Ingest/dataset error.
    Ingest(String),
    /// A shard (or an injected fault standing in for one) could not answer.
    /// Retryable: the serving stack's [`crate::fault::RetryPolicy`] treats
    /// this as transient until attempts are exhausted.
    Unavailable(String),
    /// The per-query deadline budget ran out. Not retryable — retrying
    /// cannot create more budget.
    Timeout(String),
}

impl CoreError {
    /// True when retrying the same call may succeed (operational faults),
    /// false for semantic errors (`NotFound`, engine errors) and for
    /// [`CoreError::Timeout`], where the budget is already spent.
    pub fn is_retryable(&self) -> bool {
        matches!(self, CoreError::Unavailable(_))
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NotFound(m) => write!(f, "not found: {m}"),
            CoreError::Arbor(m) => write!(f, "arbordb: {m}"),
            CoreError::Bit(m) => write!(f, "bitgraph: {m}"),
            CoreError::Ingest(m) => write!(f, "ingest: {m}"),
            CoreError::Unavailable(m) => write!(f, "unavailable: {m}"),
            CoreError::Timeout(m) => write!(f, "timeout: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// A former write/publish toggle for the bitgraph backend, no longer
/// settable: bitgraph always reads epoch-published `Arc<Graph>` generations
/// (DESIGN.md §4j), whose publish costs O(delta), so the `Locked` read
/// discipline won on no metric and was deleted. No engine reports or
/// accepts a mode ([`MicroblogEngine::write_mode`] is `None`,
/// [`MicroblogEngine::set_write_mode`] is `false`). The type and both hooks
/// stay only because the benchmark's tracing wrapper
/// (`perfbench/src/trace.rs`) forwards them by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteMode {
    /// Readers share the writer's `RwLock` (deleted discipline).
    Locked,
    /// Readers clone a published `Arc<Graph>` generation; writers swap a
    /// fresh generation in at commit.
    #[default]
    Snapshot,
}

/// A former executor toggle for the arbordb backend, no longer settable:
/// ArborQL always runs the vectorized executor (DESIGN.md §4g); the
/// row-at-a-time interpreter is only the reference tests compare it
/// against. No engine reports or accepts a mode. The type and the
/// [`MicroblogEngine::exec_mode`]/[`MicroblogEngine::set_exec_mode`] hooks
/// stay only because the benchmark's tracing wrapper
/// (`perfbench/src/trace.rs`) forwards them by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Batched operators over ID chunks (the only executor).
    #[default]
    Vectorized,
}

impl From<arbor_ql::QlError> for CoreError {
    fn from(e: arbor_ql::QlError) -> Self {
        CoreError::Arbor(e.to_string())
    }
}

impl From<arbordb::ArborError> for CoreError {
    fn from(e: arbordb::ArborError) -> Self {
        CoreError::Arbor(e.to_string())
    }
}

impl From<bitgraph::BitError> for CoreError {
    fn from(e: bitgraph::BitError) -> Self {
        CoreError::Bit(e.to_string())
    }
}

use crate::Result;
use micrograph_common::topn::{topk_partial, Counted, TopKPartial};

/// The microblogging query workload (Table 2) over any graph engine.
///
/// The trait is object safe — callers hold `&dyn MicroblogEngine` (or
/// `Arc<dyn MicroblogEngine>` in the serving layer) — and requires
/// `Send + Sync` so one engine can serve concurrent readers. Every method,
/// including [`MicroblogEngine::apply_event`], takes `&self`; engines that
/// need mutation use interior mutability behind their own locks.
pub trait MicroblogEngine: Send + Sync {
    /// Engine name for reports ("arbordb" / "bitgraph").
    fn name(&self) -> &'static str;

    // ---- Q1: selection ------------------------------------------------------

    /// Q1.1 — uids of users whose follower count exceeds `threshold`
    /// (ascending).
    fn users_with_followers_over(&self, threshold: i64) -> Result<Vec<i64>>;

    // ---- Q2: adjacency ------------------------------------------------------

    /// Q2.1 — uids of A's followees (1-step, ascending).
    fn followees(&self, uid: i64) -> Result<Vec<i64>>;

    /// Q2.2 — tids of tweets posted by A's followees (2-step, ascending).
    fn followee_tweets(&self, uid: i64) -> Result<Vec<i64>>;

    /// Q2.3 — distinct hashtags used by A's followees (3-step, ascending).
    fn followee_hashtags(&self, uid: i64) -> Result<Vec<String>>;

    // ---- Q3: co-occurrence --------------------------------------------------

    /// Q3.1 — top-n users most mentioned together with A.
    fn co_mentioned_users(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>>;

    /// Q3.2 — top-n hashtags most co-occurring with `tag`.
    fn co_occurring_hashtags(&self, tag: &str, n: usize) -> Result<Vec<Ranked<String>>>;

    // ---- Q4: recommendation -------------------------------------------------

    /// Q4.1 — top-n 2-step followees of A that A does not follow, ranked by
    /// how many of A's followees follow them.
    fn recommend_followees(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>>;

    /// Q4.2 — top-n followers of A's followees that A does not follow.
    fn recommend_followers(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>>;

    // ---- Q5: influence ------------------------------------------------------

    /// Q5.1 — top-n users who mention A and already follow A (current
    /// influence).
    fn current_influence(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>>;

    /// Q5.2 — top-n users who mention A but do not follow A (potential
    /// influence).
    fn potential_influence(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>>;

    // ---- Q6: shortest path --------------------------------------------------

    /// Q6.1 — length (hops) of the shortest undirected `follows` path from
    /// A to B within `max_hops`, or `None`.
    fn shortest_path_len(&self, a: i64, b: i64, max_hops: u32) -> Result<Option<u32>>;

    // ---- composite-query building blocks (§3.3) -----------------------------

    /// Tids of tweets tagged with `tag` (ascending).
    fn tweets_with_hashtag(&self, tag: &str) -> Result<Vec<i64>>;

    /// Number of retweets a tweet received (0 when retweets are absent).
    fn retweet_count(&self, tid: i64) -> Result<u64>;

    /// Uid of the user who posted `tid`.
    fn poster_of(&self, tid: i64) -> Result<i64>;

    // ---- shard-local kernels (scale-out; DESIGN.md §4c) ---------------------
    //
    // [`crate::shard::ShardedEngine`] executes Q1–Q6 as per-shard partial
    // kernels plus engine-agnostic merges. The kernels in this section are
    // deliberately *raw*: each reports exactly what this engine stores
    // locally — no global filtering, no top-n truncation — so the merge
    // layer in `shard.rs` owns all cross-shard semantics. On an unsharded
    // engine they simply describe the whole graph. (The *bounded* pushdown
    // variants live in the next section.)

    /// True when a user node with this uid exists in this engine.
    fn has_user(&self, uid: i64) -> Result<bool>;

    /// Q2.2 kernel — tids of tweets posted by any of the given users,
    /// ascending. Users without a local node contribute nothing.
    fn posted_tweets_kernel(&self, uids: &[i64]) -> Result<Vec<i64>>;

    /// Q2.3 kernel — distinct hashtags on tweets posted by any of the given
    /// users, ascending.
    fn hashtags_kernel(&self, uids: &[i64]) -> Result<Vec<String>>;

    /// Q4.1 kernel — per-target counts of `follows` edges leaving the given
    /// users (target uid → number of the given users following it),
    /// ascending by uid.
    fn count_followees_kernel(&self, uids: &[i64]) -> Result<Vec<(i64, u64)>>;

    /// Q4.2 kernel — per-source counts of locally stored `follows` edges
    /// into the given users (source uid → number of the given users it
    /// follows), ascending by uid.
    fn count_followers_kernel(&self, uids: &[i64]) -> Result<Vec<(i64, u64)>>;

    /// Q3.1 kernel — full co-mention counts for `uid` over locally stored
    /// tweets (edge multiplicity, untruncated), ascending by uid.
    fn co_mention_counts_kernel(&self, uid: i64) -> Result<Vec<(i64, u64)>>;

    /// Q3.2 kernel — full co-occurrence counts for `tag` over locally
    /// stored tweets (edge multiplicity, untruncated), ascending by tag.
    fn co_tag_counts_kernel(&self, tag: &str) -> Result<Vec<(String, u64)>>;

    /// Q6 kernel — one distributed-BFS round: distinct users adjacent to
    /// any of the given users through locally stored `follows` edges
    /// (either direction), ascending. May include the inputs themselves
    /// when cycles exist; the BFS driver filters visited nodes.
    fn follow_frontier_kernel(&self, uids: &[i64]) -> Result<Vec<i64>>;

    // ---- top-n pushdown kernels (tail latency; DESIGN.md §4f) ---------------
    //
    // Q5's `influence_topn_kernel` returns a shard's `k` heaviest
    // mentioners plus a threshold bound ([`TopKPartial`]); mentioner keys
    // are disjoint by owner, so one round of these partials merges
    // exactly. The Q3/Q4 `*_topn_kernel`/`*_counts_for_kernel` pairs are
    // default-only hooks: the sharded merge sums the full count kernels
    // above, so nothing in the engine calls them.

    /// Default-only hook, derived from [`MicroblogEngine::co_mention_counts_kernel`]:
    /// the `k` heaviest co-mention partners of `uid` plus the threshold
    /// bound for cut keys. No engine overrides or calls it; kept on the
    /// trait only because the benchmark's tracing wrapper
    /// (`perfbench/src/trace.rs`) forwards it by name.
    fn co_mention_topn_kernel(&self, uid: i64, k: usize) -> Result<TopKPartial<i64>> {
        Ok(pushdown_partial(self.co_mention_counts_kernel(uid)?, &[], k))
    }

    /// Default-only hook: the co-mention counts of the given
    /// (ascending-sorted) keys, absent keys omitted. Kept for the same
    /// reason as [`MicroblogEngine::co_mention_topn_kernel`].
    fn co_mention_counts_for_kernel(&self, uid: i64, keys: &[i64]) -> Result<Vec<(i64, u64)>> {
        Ok(counts_for(self.co_mention_counts_kernel(uid)?, keys))
    }

    /// Default-only hook: the `k` heaviest co-occurring hashtags of `tag`
    /// plus the threshold bound. Kept for the same reason as
    /// [`MicroblogEngine::co_mention_topn_kernel`].
    fn co_tag_topn_kernel(&self, tag: &str, k: usize) -> Result<TopKPartial<String>> {
        Ok(pushdown_partial(self.co_tag_counts_kernel(tag)?, &[], k))
    }

    /// Default-only hook: the co-occurrence counts of the given
    /// (ascending-sorted) tags, absent keys omitted. Kept for the same
    /// reason as [`MicroblogEngine::co_mention_topn_kernel`].
    fn co_tag_counts_for_kernel(&self, tag: &str, keys: &[String]) -> Result<Vec<(String, u64)>> {
        Ok(counts_for(self.co_tag_counts_kernel(tag)?, keys))
    }

    /// Default-only hook: the `k` heaviest followee-count targets of
    /// `uids`, with the ascending-sorted `exclude` uids dropped before the
    /// cut, plus the threshold bound. Kept for the same reason as
    /// [`MicroblogEngine::co_mention_topn_kernel`].
    fn count_followees_topn_kernel(
        &self,
        uids: &[i64],
        exclude: &[i64],
        k: usize,
    ) -> Result<TopKPartial<i64>> {
        Ok(pushdown_partial(self.count_followees_kernel(uids)?, exclude, k))
    }

    /// Default-only hook: the followee counts of the given
    /// (ascending-sorted) keys, absent keys omitted. Kept for the same
    /// reason as [`MicroblogEngine::co_mention_topn_kernel`].
    fn count_followees_counts_for_kernel(
        &self,
        uids: &[i64],
        keys: &[i64],
    ) -> Result<Vec<(i64, u64)>> {
        Ok(counts_for(self.count_followees_kernel(uids)?, keys))
    }

    /// Default-only hook: the `k` heaviest follower-count sources of
    /// `uids`, `exclude` dropped before the cut, plus the threshold bound.
    /// Kept for the same reason as [`MicroblogEngine::co_mention_topn_kernel`].
    fn count_followers_topn_kernel(
        &self,
        uids: &[i64],
        exclude: &[i64],
        k: usize,
    ) -> Result<TopKPartial<i64>> {
        Ok(pushdown_partial(self.count_followers_kernel(uids)?, exclude, k))
    }

    /// Default-only hook: the follower counts of the given
    /// (ascending-sorted) keys, absent keys omitted. Kept for the same
    /// reason as [`MicroblogEngine::co_mention_topn_kernel`].
    fn count_followers_counts_for_kernel(
        &self,
        uids: &[i64],
        keys: &[i64],
    ) -> Result<Vec<(i64, u64)>> {
        Ok(counts_for(self.count_followers_kernel(uids)?, keys))
    }

    /// Q5 pushdown kernel — the `k` heaviest local mentioners of `uid`
    /// (current influence when `current`, potential otherwise) plus the
    /// threshold bound. A mentioner's tweets all live on its poster's
    /// shard, so per-shard keys are disjoint and a single merge round of
    /// these partials is already exact.
    fn influence_topn_kernel(&self, uid: i64, current: bool, k: usize) -> Result<TopKPartial<i64>> {
        let ranked = if current {
            self.current_influence(uid, k.saturating_add(1))?
        } else {
            self.potential_influence(uid, k.saturating_add(1))?
        };
        let mut items: Vec<Counted<i64>> =
            ranked.into_iter().map(|r| Counted { key: r.key, count: r.count }).collect();
        let bound = if items.len() > k { items[k].count } else { 0 };
        items.truncate(k);
        Ok(TopKPartial { top: items, bound })
    }

    /// Creates a bare user node for `uid` when absent — a ghost replica
    /// used as the local endpoint of a cross-shard edge. The node carries
    /// the uid and nothing else: no `followers`, `name` or `verified`
    /// value, so a `followers` value exists only on the owner shard and no
    /// shard's Q1.1 selects a user it does not own. A follow onto a ghost
    /// leaves it bare; a `NewUser` onto it fills every attribute in.
    /// Idempotent. The sharded write path reaches it as
    /// [`crate::shard::ShardOp::Ghost`] inside one `apply_shard_ops` list;
    /// it stays a trait method because the benchmark's tracing wrapper
    /// (`perfbench/src/trace.rs`) forwards it by name.
    fn ensure_user(&self, uid: i64) -> Result<()>;

    /// Adjusts the stored `followers` property of `uid` by `delta` — the
    /// owner-shard half of a cross-shard follow. **Upserts**: when the user
    /// does not exist locally yet (a cross-shard follow replayed ahead of
    /// the owner's `new user` event), a placeholder (empty name, count 0,
    /// unverified) is created first and the delta applied to it; a later `NewUser` event fills in the
    /// attributes without resetting the accumulated count. Like a follow,
    /// a bump leaves a bare node (one without a `followers` value) bare,
    /// so a sharded engine counts exactly where its monolith does. Reached
    /// as [`crate::shard::ShardOp::CountFollowers`] on the sharded write
    /// path; kept on the trait for the same reason as `ensure_user`.
    fn bump_followers(&self, uid: i64, delta: i64) -> Result<()>;

    // ---- update workload (§5 future work) -----------------------------------

    /// Applies one streaming update event (new user / follow / tweet),
    /// keeping the `followers` property consistent with incoming `follows`
    /// edges (a follow bumps the followee's count only when it has one: a
    /// bare ghost's count lives at its owner). Semantics are identical
    /// across adapters — the cross-engine equivalence invariant covers
    /// post-update state too.
    fn apply_event(&self, event: &micrograph_datagen::UpdateEvent) -> Result<()>;

    /// Applies a batch of streaming events as one group commit (DESIGN.md
    /// §4j). The default — a per-event loop — is the semantic oracle:
    /// every override must leave byte-identical state on success, and on a
    /// mid-batch error must fail with the same error text and leave
    /// exactly the state the looped oracle leaves (the successful prefix
    /// applied, the failing event absent). Batching is a pure performance
    /// lever: one WAL lock acquisition / one snapshot publish per batch
    /// instead of per event.
    fn apply_event_batch(&self, events: &[micrograph_datagen::UpdateEvent]) -> Result<()> {
        for event in events {
            self.apply_event(event)?;
        }
        Ok(())
    }

    /// Applies one shard's list of a compiled sharded batch (DESIGN.md
    /// §4j) as one write. Same failure contract as
    /// [`MicroblogEngine::apply_event_batch`]: stops at the first failing
    /// op, keeping exactly the ops before it applied. Both adapters apply
    /// the list in one commit / snapshot publish, through the same per-op
    /// bodies their single-op methods use, so the counted work is equal.
    ///
    /// The default replays the list through the single-op methods — runs
    /// of consecutive `Event`s through `apply_event_batch`, `Ghost` through
    /// `ensure_user`, `CountFollowers` through `bump_followers` — so it
    /// costs one write per run or op. A wrapper that can fail **between**
    /// ops (fault injection) must override it with a single check before
    /// it forwards, or a retried list would re-apply its prefix.
    fn apply_shard_ops(&self, ops: &[crate::shard::ShardOp<'_>]) -> Result<()> {
        use crate::shard::ShardOp;
        let mut i = 0;
        while i < ops.len() {
            match ops[i] {
                ShardOp::Ghost(uid) => self.ensure_user(uid)?,
                ShardOp::CountFollowers { uid, delta } => self.bump_followers(uid, delta)?,
                ShardOp::Event(_) => {
                    let run: Vec<micrograph_datagen::UpdateEvent> = ops[i..]
                        .iter()
                        .map_while(|op| match op {
                            ShardOp::Event(e) => Some((*e).clone()),
                            _ => None,
                        })
                        .collect();
                    i += run.len();
                    self.apply_event_batch(&run)?;
                    continue;
                }
            }
            i += 1;
        }
        Ok(())
    }

    // ---- instrumentation ----------------------------------------------------

    /// Resets the engine's operation counters.
    fn reset_stats(&self);

    /// Engine operations since the last reset (db hits / navigation calls).
    fn ops_count(&self) -> u64;

    /// Drops caches so the next query runs cold (no-op for engines that
    /// serve entirely from memory).
    fn drop_caches(&self) -> Result<()>;

    /// Fault-layer accounting (injected faults, retries, caught panics)
    /// accumulated since construction. Plain engines report zeros; the
    /// chaos wrapper and the sharded merge layer override this and fold in
    /// their inner engines' counters (see `crate::fault`).
    fn fault_stats(&self) -> crate::fault::FaultStats {
        crate::fault::FaultStats::default()
    }

    /// The scatter execution mode, when this engine is (or wraps) a sharded
    /// composition — `None` for monolithic engines, which have no scatter
    /// path. Wrappers delegate to their inner engine.
    fn scatter_mode(&self) -> Option<crate::shard::ScatterMode> {
        None
    }

    /// Switches the scatter execution mode, returning `false` when the
    /// engine has no scatter path (monoliths). `&self` like every other
    /// method — benches flip one built engine between modes mid-run.
    fn set_scatter_mode(&self, _mode: crate::shard::ScatterMode) -> bool {
        false
    }

    /// Default-only hook: no engine overrides it, so it is always `None`
    /// (ArborQL has one executor, see [`ExecMode`]). Kept for the same
    /// reason as [`MicroblogEngine::batched_kernels`].
    fn exec_mode(&self) -> Option<ExecMode> {
        None
    }

    /// Default-only hook: always `false` (nothing to switch). Kept for the
    /// same reason as [`MicroblogEngine::batched_kernels`].
    fn set_exec_mode(&self, _mode: ExecMode) -> bool {
        false
    }

    /// Default-only hook: no engine overrides it, so it is always `None`.
    /// Shard-local kernels always run their whole uid batch as ONE
    /// set-oriented query (DESIGN.md §4h); there is no per-uid path left
    /// to select. Kept on the trait only because the benchmark's tracing
    /// wrapper (`perfbench/src/trace.rs`) forwards it by name.
    fn batched_kernels(&self) -> Option<bool> {
        None
    }

    /// Default-only hook: no engine overrides it, so it always returns
    /// `false` (nothing to switch). Kept for the same reason as
    /// [`MicroblogEngine::batched_kernels`].
    fn set_batched_kernels(&self, _on: bool) -> bool {
        false
    }

    /// Default-only hook: no engine overrides it, so it always returns
    /// `None` (bitgraph has one read discipline, see [`WriteMode`]). Kept
    /// for the same reason as [`MicroblogEngine::batched_kernels`].
    fn write_mode(&self) -> Option<WriteMode> {
        None
    }

    /// Default-only hook: always `false` (nothing to switch). Kept for the
    /// same reason as [`MicroblogEngine::batched_kernels`].
    fn set_write_mode(&self, _mode: WriteMode) -> bool {
        false
    }

    /// Replicas behind each shard slot when this engine is (or wraps) a
    /// replicated sharded composition (DESIGN.md §4i) — `None` for
    /// monoliths. `Some(1)` means sharded but unreplicated; `Some(R)` with
    /// R > 1 means every shard is served by an R-way replica group with
    /// deterministic primary routing and failover.
    fn replica_count(&self) -> Option<usize> {
        None
    }
}

// ---- shapes of the default-only Q3/Q4 pushdown hooks -----------------------

/// Filters `exclude` out of a full `(key, count)` list (ascending by key)
/// and truncates to the `k` heaviest entries plus the threshold bound for
/// everything cut.
fn pushdown_partial<K: Ord>(full: Vec<(K, u64)>, exclude: &[K], k: usize) -> TopKPartial<K> {
    topk_partial(
        full.into_iter()
            .filter(|(key, _)| exclude.binary_search(key).is_err())
            .map(|(key, count)| Counted { key, count })
            .collect(),
        k,
    )
}

/// Restricts a full `(key, count)` list to the given ascending-sorted
/// candidate keys, omitting absent ones.
fn counts_for<K: Ord>(full: Vec<(K, u64)>, keys: &[K]) -> Vec<(K, u64)> {
    full.into_iter().filter(|(key, _)| keys.binary_search(key).is_ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(CoreError::NotFound("user 5".into()).to_string().contains("user 5"));
        assert!(CoreError::Arbor("x".into()).to_string().contains("arbordb"));
    }

    #[test]
    fn ranked_constructor() {
        let r = Ranked::new(5i64, 10);
        assert_eq!(r.key, 5);
        assert_eq!(r.count, 10);
    }

    #[test]
    fn trait_is_object_safe_and_thread_safe() {
        // Compile-time properties the serving layer depends on: the trait
        // stays object safe and its trait objects are shareable.
        fn takes_dyn(_: Option<&dyn MicroblogEngine>) {}
        fn send_sync<T: Send + Sync + ?Sized>() {}
        takes_dyn(None);
        send_sync::<dyn MicroblogEngine>();
    }
}
