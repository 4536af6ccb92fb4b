//! The bitgraph adapter: Table 2 through `neighbors`/`explode` navigation.
//!
//! Everything the language did for the other engine happens client-side
//! here, exactly as §3.3 describes for Sparksee: "a map structure is used
//! for maintaining the required counts. These counts are then sorted to
//! obtain the final result. Its API does not provide the functionality to
//! limit the returned results." Multi-predicate selection is likewise
//! client-side set algebra over `Objects`.
//!
//! The engine's write API is `&mut Graph`, while [`MicroblogEngine`] keeps
//! every method on `&self` so one engine instance can serve many reader
//! threads. The adapter bridges the two with epoch publication (DESIGN.md
//! §4j): writers mutate a canonical graph under a `parking_lot::RwLock`
//! and, at commit, publish a [`Graph::snapshot_clone`] of it; queries
//! clone the published `Arc` once per call and run lock-free on that
//! immutable generation, handing the borrowed `&Graph` to helpers.

use std::collections::HashMap;
use std::sync::Arc;

use bitgraph::graph::{Condition, EdgesDirection, Graph, Oid};
use bitgraph::traversal::single_pair_shortest_path_bfs;
use micrograph_common::topn::{merge_top_n, Counted, TopKPartial, TopN};
use micrograph_common::Value;
use parking_lot::{RwLock, RwLockReadGuard};

use crate::engine::{MicroblogEngine, Ranked};
use crate::schema;
use crate::shard::ShardOp;
use crate::{CoreError, Result};

/// Resolved schema handles.
#[derive(Debug, Clone, Copy)]
struct Handles {
    follows: u32,
    posts: u32,
    mentions: u32,
    tags: u32,
    retweets: Option<u32>,
    uid: u32,
    tid: u32,
    tag: u32,
    followers: u32,
}

/// The navigation adapter over a loaded [`Graph`].
///
/// Every query clones one `Arc` of the published immutable generation and
/// runs lock-free, so a write burst never blocks a reader (DESIGN.md §4j).
/// Writers mutate the canonical copy under the write lock and publish a
/// fresh generation at commit. The generations share all unchanged data
/// with the canonical copy, so a publish costs what the commit touched.
pub struct BitEngine {
    /// Canonical graph: owns the extent log, takes every write.
    g: RwLock<Graph>,
    /// The published read generation. Swapped wholesale at every commit;
    /// the lock is held only long enough to clone or swap the `Arc`.
    snap: RwLock<Arc<Graph>>,
    h: Handles,
}

/// Bounded top-k with a threshold bound — the adapter's client-side answer
/// to the `LIMIT` the navigation API lacks (§3.3): the full count stream
/// still flows through, but only a `k`-entry heap is retained, and the k-th
/// retained count bounds whatever was cut.
fn topk_bounded<K: Ord>(entries: Vec<Counted<K>>, k: usize) -> TopKPartial<K> {
    let offered = entries.len();
    if k == 0 {
        let bound = entries.iter().map(|c| c.count).max().unwrap_or(0);
        return TopKPartial { top: Vec::new(), bound };
    }
    let mut top = TopN::new(k);
    for c in entries {
        top.offer(c.key, c.count);
    }
    let top = top.into_sorted_vec();
    let bound = if offered > k { top.last().map(|c| c.count).unwrap_or(0) } else { 0 };
    TopKPartial { top, bound }
}

impl BitEngine {
    /// Wraps a graph loaded with the standard schema (see
    /// [`crate::ingest`]), compacting it once ([`Graph::compact`]) so reads
    /// run on a contiguous layout. Fails when a required type or attribute
    /// is missing.
    pub fn new(mut g: Graph) -> Result<BitEngine> {
        let ty = |name: &str| {
            g.find_type(name)
                .ok_or_else(|| CoreError::Bit(format!("schema type {name:?} missing")))
        };
        let attr = |owner: u32, name: &str| {
            g.find_attribute(owner, name)
                .ok_or_else(|| CoreError::Bit(format!("attribute {name:?} missing")))
        };
        let user = ty(schema::USER)?;
        let tweet = ty(schema::TWEET)?;
        let hashtag = ty(schema::HASHTAG)?;
        let h = Handles {
            follows: ty(schema::FOLLOWS)?,
            posts: ty(schema::POSTS)?,
            mentions: ty(schema::MENTIONS)?,
            tags: ty(schema::TAGS)?,
            retweets: g.find_type(schema::RETWEETS),
            uid: attr(user, schema::UID)?,
            tid: attr(tweet, schema::TID)?,
            tag: attr(hashtag, schema::TAG)?,
            followers: attr(user, schema::FOLLOWERS)?,
        };
        g.compact();
        let snap = RwLock::new(Arc::new(g.snapshot_clone()));
        Ok(BitEngine { g: RwLock::new(g), snap, h })
    }

    /// Read access to the underlying canonical graph (for examples and
    /// benches).
    ///
    /// The guard holds the engine's read lock: drop it before applying
    /// events.
    pub fn graph(&self) -> RwLockReadGuard<'_, Graph> {
        self.g.read()
    }

    /// The read view of one public query method: an `Arc` clone of the
    /// published generation (no reader ever touches the write lock).
    fn read(&self) -> Arc<Graph> {
        Arc::clone(&self.snap.read())
    }

    /// Republishes the read generation from the canonical graph. The old
    /// generation is dropped after the publish lock is released, so readers
    /// never wait out its teardown.
    fn publish(&self, g: &Graph) {
        let fresh = Arc::new(g.snapshot_clone());
        let old = {
            let mut snap = self.snap.write();
            std::mem::replace(&mut *snap, fresh)
        };
        drop(old);
    }

    /// The single write commit path: mutates the canonical graph under the
    /// write lock, then republishes a fresh generation — even when `f`
    /// failed, because a batch may have applied a valid prefix before the
    /// failing event, and that prefix is committed state the looped oracle
    /// exposes too.
    fn with_write<T>(&self, f: impl FnOnce(&mut Graph) -> Result<T>) -> Result<T> {
        let mut g = self.g.write();
        let out = f(&mut g);
        self.publish(&g);
        out
    }

    /// Creates a placeholder user node (empty name, 0 followers,
    /// unverified) — the shape `bump_followers` upserts on the owner shard
    /// and a later `NewUser` event fills in.
    fn create_placeholder(&self, g: &mut Graph, uid: i64) -> Result<Oid> {
        let user_ty = g.find_type(schema::USER).expect("schema loaded");
        let name_attr = g
            .find_attribute(user_ty, schema::NAME)
            .ok_or_else(|| CoreError::Bit("name attribute missing".into()))?;
        let verified_attr = g
            .find_attribute(user_ty, schema::VERIFIED)
            .ok_or_else(|| CoreError::Bit("verified attribute missing".into()))?;
        let o = g.add_node(user_ty)?;
        g.set_attr(o, self.h.uid, Value::Int(uid))?;
        g.set_attr(o, name_attr, Value::Str(String::new()))?;
        g.set_attr(o, self.h.followers, Value::Int(0))?;
        g.set_attr(o, verified_attr, Value::Int(0))?;
        Ok(o)
    }

    /// Applies one shard op to the canonical graph — the per-op body every
    /// write method stages through, so a list written in one commit and
    /// the same ops written one by one do the same counted work.
    fn stage_op(&self, g: &mut Graph, op: &ShardOp<'_>) -> Result<()> {
        match *op {
            ShardOp::Event(event) => self.stage_event(g, event),
            ShardOp::Ghost(uid) => {
                if g.find_object(self.h.uid, &Value::Int(uid))?.is_none() {
                    // A bare ghost: the uid and nothing else (no
                    // `followers` value).
                    let user_ty = g.find_type(schema::USER).expect("schema loaded");
                    let o = g.add_node(user_ty)?;
                    g.set_attr(o, self.h.uid, Value::Int(uid))?;
                }
                Ok(())
            }
            ShardOp::CountFollowers { uid, delta } => {
                // Upsert: a cross-shard follow can replay before the owner
                // saw the `new user` event. Create the placeholder and
                // count onto it; the later `NewUser` fills in attributes
                // without resetting the count.
                let o = match g.find_object(self.h.uid, &Value::Int(uid))? {
                    Some(o) => o,
                    None => self.create_placeholder(g, uid)?,
                };
                // Like a follow, a bump leaves a bare node bare.
                if let Some(count) = g.get_attr(o, self.h.followers)?.and_then(|v| v.as_int()) {
                    g.set_attr(o, self.h.followers, Value::Int(count + delta))?;
                }
                Ok(())
            }
        }
    }

    /// Applies one event to the canonical graph — the shared body of
    /// [`MicroblogEngine::apply_event`] (one event per lock hold),
    /// [`MicroblogEngine::apply_event_batch`] and the `Event` ops of
    /// [`MicroblogEngine::apply_shard_ops`] (a whole batch or list under
    /// one lock hold, one snapshot publish at the end).
    fn stage_event(&self, g: &mut Graph, event: &micrograph_datagen::UpdateEvent) -> Result<()> {
        use micrograph_datagen::UpdateEvent;
        let user_ty = g.find_type(schema::USER).expect("schema loaded");
        let tweet_ty = g.find_type(schema::TWEET).expect("schema loaded");
        let name_attr = g
            .find_attribute(user_ty, schema::NAME)
            .ok_or_else(|| CoreError::Bit("name attribute missing".into()))?;
        let verified_attr = g
            .find_attribute(user_ty, schema::VERIFIED)
            .ok_or_else(|| CoreError::Bit("verified attribute missing".into()))?;
        let text_attr = g
            .find_attribute(tweet_ty, schema::TEXT)
            .ok_or_else(|| CoreError::Bit("text attribute missing".into()))?;
        match event {
            UpdateEvent::NewUser { uid, name } => {
                // Upsert: when a placeholder exists (a bare ensure_user
                // ghost, or bump_followers racing ahead of this event),
                // fill in the attributes and keep the accumulated follower
                // count; a bare node starts counting from 0.
                match g.find_object(self.h.uid, &Value::Int(*uid as i64))? {
                    Some(o) => {
                        g.set_attr(o, name_attr, Value::Str(name.clone()))?;
                        for attr in [self.h.followers, verified_attr] {
                            if g.get_attr(o, attr)?.is_none() {
                                g.set_attr(o, attr, Value::Int(0))?;
                            }
                        }
                    }
                    None => {
                        let o = g.add_node(user_ty)?;
                        g.set_attr(o, self.h.uid, Value::Int(*uid as i64))?;
                        g.set_attr(o, name_attr, Value::Str(name.clone()))?;
                        g.set_attr(o, self.h.followers, Value::Int(0))?;
                        g.set_attr(o, verified_attr, Value::Int(0))?;
                    }
                }
            }
            UpdateEvent::NewFollow { follower, followee } => {
                let a = g
                    .find_object(self.h.uid, &Value::Int(*follower as i64))?
                    .ok_or_else(|| CoreError::NotFound(format!("user {follower}")))?;
                let b = g
                    .find_object(self.h.uid, &Value::Int(*followee as i64))?
                    .ok_or_else(|| CoreError::NotFound(format!("user {followee}")))?;
                g.add_edge(self.h.follows, a, b)?;
                // A bare ghost followee has no count to keep: its owner
                // shard counts the follow (`bump_followers`).
                if let Some(count) = g.get_attr(b, self.h.followers)?.and_then(|v| v.as_int()) {
                    g.set_attr(b, self.h.followers, Value::Int(count + 1))?;
                }
            }
            UpdateEvent::NewTweet { tid, uid, text, mentions, tags } => {
                // Resolve EVERY referenced entity before the first write:
                // the navigation engine has no transactions, so validating
                // mentions/tags after creating the tweet node would leave a
                // half-applied tweet behind on error (a state divergence
                // the error-path parity tests would catch).
                let poster = g
                    .find_object(self.h.uid, &Value::Int(*uid as i64))?
                    .ok_or_else(|| CoreError::NotFound(format!("user {uid}")))?;
                let mut mention_oids = Vec::with_capacity(mentions.len());
                for m in mentions {
                    mention_oids.push(
                        g.find_object(self.h.uid, &Value::Int(*m as i64))?
                            .ok_or_else(|| CoreError::NotFound(format!("user {m}")))?,
                    );
                }
                let mut tag_oids = Vec::with_capacity(tags.len());
                for tag in tags {
                    tag_oids.push(
                        g.find_object(self.h.tag, &Value::Str(tag.clone()))?
                            .ok_or_else(|| CoreError::NotFound(format!("hashtag {tag}")))?,
                    );
                }
                let t = g.add_node(tweet_ty)?;
                g.set_attr(t, self.h.tid, Value::Int(*tid as i64))?;
                g.set_attr(t, text_attr, Value::Str(text.clone()))?;
                g.add_edge(self.h.posts, poster, t)?;
                for target in mention_oids {
                    g.add_edge(self.h.mentions, t, target)?;
                }
                for h in tag_oids {
                    g.add_edge(self.h.tags, t, h)?;
                }
            }
        }
        Ok(())
    }

    fn user_oid(&self, g: &Graph, uid: i64) -> Result<Option<Oid>> {
        Ok(g.find_object(self.h.uid, &Value::Int(uid))?)
    }

    fn tweet_oid(&self, g: &Graph, tid: i64) -> Result<Option<Oid>> {
        Ok(g.find_object(self.h.tid, &Value::Int(tid))?)
    }

    fn tag_oid(&self, g: &Graph, tag: &str) -> Result<Option<Oid>> {
        Ok(g.find_object(self.h.tag, &Value::Str(tag.to_owned()))?)
    }

    fn uid_of(&self, g: &Graph, oid: Oid) -> Result<i64> {
        g.get_attr(oid, self.h.uid)?
            .and_then(|v| v.as_int())
            .ok_or_else(|| CoreError::Bit(format!("object {oid} has no uid")))
    }

    fn tid_of(&self, g: &Graph, oid: Oid) -> Result<i64> {
        g.get_attr(oid, self.h.tid)?
            .and_then(|v| v.as_int())
            .ok_or_else(|| CoreError::Bit(format!("object {oid} has no tid")))
    }

    fn tag_of(&self, g: &Graph, oid: Oid) -> Result<String> {
        g.get_attr(oid, self.h.tag)?
            .and_then(|v| v.as_str().map(str::to_owned))
            .ok_or_else(|| CoreError::Bit(format!("object {oid} has no tag")))
    }

    fn top_uids(&self, g: &Graph, counts: HashMap<Oid, u64>, n: usize) -> Result<Vec<Ranked<i64>>> {
        // "These counts are then sorted to obtain the final result" — the
        // whole map is ranked client-side, through the same mergeable
        // top-n the sharded layer uses (a single partial here).
        let mut part = Vec::with_capacity(counts.len());
        for (oid, count) in counts {
            part.push(Counted { key: self.uid_of(g, oid)?, count });
        }
        Ok(merge_top_n(vec![part], n).into_iter().map(|c| Ranked::new(c.key, c.count)).collect())
    }

    /// Maps an oid-keyed count map to `(uid, count)` pairs, ascending by
    /// uid — the raw shape the shard-local kernels return.
    fn counts_by_uid(&self, g: &Graph, counts: HashMap<Oid, u64>) -> Result<Vec<(i64, u64)>> {
        let mut out = Vec::with_capacity(counts.len());
        for (oid, count) in counts {
            out.push((self.uid_of(g, oid)?, count));
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Maps an oid-keyed count map to [`Counted`] uid entries.
    fn counted_uids(&self, g: &Graph, counts: HashMap<Oid, u64>) -> Result<Vec<Counted<i64>>> {
        let mut out = Vec::with_capacity(counts.len());
        for (oid, count) in counts {
            out.push(Counted { key: self.uid_of(g, oid)?, count });
        }
        Ok(out)
    }

    /// Per-edge co-mention counts around user `a` (Q3.1's inner loop),
    /// shared by the monolithic query and the shard-local kernel.
    fn co_mention_counts(&self, g: &Graph, a: Oid) -> Result<HashMap<Oid, u64>> {
        // Step 1: the tweets T mentioning A — per *edge*, so a tweet that
        // mentions A twice contributes twice (multigraph semantics).
        // Step 2: other users mentioned in T, counted per edge.
        let mut counts: HashMap<Oid, u64> = HashMap::new();
        for e1 in g.explode(a, self.h.mentions, EdgesDirection::Ingoing)?.iter() {
            let t = g.peer(e1, a)?;
            for e2 in g.explode(t, self.h.mentions, EdgesDirection::Outgoing)?.iter() {
                let b = g.peer(e2, t)?;
                if b != a {
                    *counts.entry(b).or_insert(0) += 1;
                }
            }
        }
        Ok(counts)
    }

    /// Per-edge hashtag co-occurrence counts around hashtag `g0` (Q3.2's
    /// inner loop), shared by the monolithic query and the kernel.
    fn co_tag_counts(&self, g: &Graph, g0: Oid) -> Result<HashMap<Oid, u64>> {
        let mut counts: HashMap<Oid, u64> = HashMap::new();
        for e1 in g.explode(g0, self.h.tags, EdgesDirection::Ingoing)?.iter() {
            let t = g.peer(e1, g0)?;
            for e2 in g.explode(t, self.h.tags, EdgesDirection::Outgoing)?.iter() {
                let h2 = g.peer(e2, t)?;
                if h2 != g0 {
                    *counts.entry(h2).or_insert(0) += 1;
                }
            }
        }
        Ok(counts)
    }
}

impl MicroblogEngine for BitEngine {
    fn name(&self) -> &'static str {
        "bitgraph"
    }

    fn users_with_followers_over(&self, threshold: i64) -> Result<Vec<i64>> {
        let g = self.read();
        // Single-predicate select; the result set is mapped and sorted here.
        let sel = g.select(self.h.followers, Condition::GreaterThan, &Value::Int(threshold))?;
        let mut out = Vec::with_capacity(sel.count() as usize);
        for oid in sel.iter() {
            out.push(self.uid_of(&g, oid)?);
        }
        out.sort_unstable();
        Ok(out)
    }

    fn followees(&self, uid: i64) -> Result<Vec<i64>> {
        let g = self.read();
        let Some(a) = self.user_oid(&g, uid)? else { return Ok(Vec::new()) };
        let nb = g.neighbors(a, self.h.follows, EdgesDirection::Outgoing)?;
        let mut out = Vec::with_capacity(nb.count() as usize);
        for oid in nb.iter() {
            out.push(self.uid_of(&g, oid)?);
        }
        out.sort_unstable();
        Ok(out)
    }

    fn followee_tweets(&self, uid: i64) -> Result<Vec<i64>> {
        let g = self.read();
        let Some(a) = self.user_oid(&g, uid)? else { return Ok(Vec::new()) };
        let mut out = Vec::new();
        for f in g.neighbors(a, self.h.follows, EdgesDirection::Outgoing)?.iter() {
            for t in g.neighbors(f, self.h.posts, EdgesDirection::Outgoing)?.iter() {
                out.push(self.tid_of(&g, t)?);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn followee_hashtags(&self, uid: i64) -> Result<Vec<String>> {
        let g = self.read();
        let Some(a) = self.user_oid(&g, uid)? else { return Ok(Vec::new()) };
        // One reused Vec + final sort/dedup instead of a tree-set node
        // allocation per insert (the distinct set is built exactly once).
        let mut tags: Vec<String> = Vec::new();
        for f in g.neighbors(a, self.h.follows, EdgesDirection::Outgoing)?.iter() {
            for t in g.neighbors(f, self.h.posts, EdgesDirection::Outgoing)?.iter() {
                for h in g.neighbors(t, self.h.tags, EdgesDirection::Outgoing)?.iter() {
                    tags.push(self.tag_of(&g, h)?);
                }
            }
        }
        tags.sort_unstable();
        tags.dedup();
        Ok(tags)
    }

    fn co_mentioned_users(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        let g = self.read();
        let Some(a) = self.user_oid(&g, uid)? else { return Ok(Vec::new()) };
        let counts = self.co_mention_counts(&g, a)?;
        self.top_uids(&g, counts, n)
    }

    fn co_occurring_hashtags(&self, tag: &str, n: usize) -> Result<Vec<Ranked<String>>> {
        let g = self.read();
        let Some(g0) = self.tag_oid(&g, tag)? else { return Ok(Vec::new()) };
        let counts = self.co_tag_counts(&g, g0)?;
        let mut part = Vec::with_capacity(counts.len());
        for (oid, count) in counts {
            part.push(Counted { key: self.tag_of(&g, oid)?, count });
        }
        Ok(merge_top_n(vec![part], n).into_iter().map(|c| Ranked::new(c.key, c.count)).collect())
    }

    fn recommend_followees(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        let g = self.read();
        let Some(a) = self.user_oid(&g, uid)? else { return Ok(Vec::new()) };
        // "A separate neighbours call has to be executed for each 1-step
        // followee of A, which makes the execution of this query expensive."
        let followed = g.neighbors(a, self.h.follows, EdgesDirection::Outgoing)?;
        let mut counts: HashMap<Oid, u64> = HashMap::new();
        for f in followed.iter() {
            for r in g.neighbors(f, self.h.follows, EdgesDirection::Outgoing)?.iter() {
                if r != a && !followed.contains(r) {
                    *counts.entry(r).or_insert(0) += 1;
                }
            }
        }
        self.top_uids(&g, counts, n)
    }

    fn recommend_followers(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        let g = self.read();
        let Some(a) = self.user_oid(&g, uid)? else { return Ok(Vec::new()) };
        let followed = g.neighbors(a, self.h.follows, EdgesDirection::Outgoing)?;
        let mut counts: HashMap<Oid, u64> = HashMap::new();
        for f in followed.iter() {
            for r in g.neighbors(f, self.h.follows, EdgesDirection::Ingoing)?.iter() {
                if r != a && !followed.contains(r) {
                    *counts.entry(r).or_insert(0) += 1;
                }
            }
        }
        self.top_uids(&g, counts, n)
    }

    fn current_influence(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        let g = self.read();
        self.influence(&g, uid, n, true)
    }

    fn potential_influence(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        let g = self.read();
        self.influence(&g, uid, n, false)
    }

    fn shortest_path_len(&self, a: i64, b: i64, max_hops: u32) -> Result<Option<u32>> {
        let g = self.read();
        let (Some(oa), Some(ob)) = (self.user_oid(&g, a)?, self.user_oid(&g, b)?) else {
            return Ok(None);
        };
        Ok(single_pair_shortest_path_bfs(
            &g,
            oa,
            ob,
            self.h.follows,
            EdgesDirection::Any,
            max_hops,
        )?
        .map(|p| p.len() as u32 - 1))
    }

    fn tweets_with_hashtag(&self, tag: &str) -> Result<Vec<i64>> {
        let g = self.read();
        let Some(h) = self.tag_oid(&g, tag)? else { return Ok(Vec::new()) };
        let mut out = Vec::new();
        for t in g.neighbors(h, self.h.tags, EdgesDirection::Ingoing)?.iter() {
            out.push(self.tid_of(&g, t)?);
        }
        out.sort_unstable();
        Ok(out)
    }

    fn retweet_count(&self, tid: i64) -> Result<u64> {
        let g = self.read();
        let Some(retweets) = self.h.retweets else { return Ok(0) };
        let Some(t) = self.tweet_oid(&g, tid)? else { return Ok(0) };
        Ok(g.degree(t, retweets, EdgesDirection::Ingoing)?)
    }

    fn poster_of(&self, tid: i64) -> Result<i64> {
        let g = self.read();
        let t = self
            .tweet_oid(&g, tid)?
            .ok_or_else(|| CoreError::NotFound(format!("tweet {tid}")))?;
        let posters = g.neighbors(t, self.h.posts, EdgesDirection::Ingoing)?;
        let p = posters
            .iter()
            .next()
            .ok_or_else(|| CoreError::NotFound(format!("poster of tweet {tid}")))?;
        self.uid_of(&g, p)
    }

    // ---- shard-local kernels ------------------------------------------------
    // Each kernel takes the read lock once and reports exactly what this
    // graph stores; the merge layer (shard.rs) owns cross-shard semantics.

    fn has_user(&self, uid: i64) -> Result<bool> {
        let g = self.read();
        Ok(self.user_oid(&g, uid)?.is_some())
    }

    fn posted_tweets_kernel(&self, uids: &[i64]) -> Result<Vec<i64>> {
        let g = self.read();
        let mut out = Vec::new();
        for &uid in uids {
            let Some(u) = self.user_oid(&g, uid)? else { continue };
            for t in g.neighbors(u, self.h.posts, EdgesDirection::Outgoing)?.iter() {
                out.push(self.tid_of(&g, t)?);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn hashtags_kernel(&self, uids: &[i64]) -> Result<Vec<String>> {
        let g = self.read();
        // Accumulate into one Vec reused across the whole uid batch and
        // sort+dedup once at the end — no per-insert tree rebalancing.
        let mut tags: Vec<String> = Vec::new();
        for &uid in uids {
            let Some(u) = self.user_oid(&g, uid)? else { continue };
            for t in g.neighbors(u, self.h.posts, EdgesDirection::Outgoing)?.iter() {
                for h in g.neighbors(t, self.h.tags, EdgesDirection::Outgoing)?.iter() {
                    tags.push(self.tag_of(&g, h)?);
                }
            }
        }
        tags.sort_unstable();
        tags.dedup();
        Ok(tags)
    }

    fn count_followees_kernel(&self, uids: &[i64]) -> Result<Vec<(i64, u64)>> {
        let g = self.read();
        let mut counts: HashMap<Oid, u64> = HashMap::new();
        for &uid in uids {
            let Some(u) = self.user_oid(&g, uid)? else { continue };
            for r in g.neighbors(u, self.h.follows, EdgesDirection::Outgoing)?.iter() {
                *counts.entry(r).or_insert(0) += 1;
            }
        }
        self.counts_by_uid(&g, counts)
    }

    fn count_followers_kernel(&self, uids: &[i64]) -> Result<Vec<(i64, u64)>> {
        let g = self.read();
        let mut counts: HashMap<Oid, u64> = HashMap::new();
        for &uid in uids {
            let Some(u) = self.user_oid(&g, uid)? else { continue };
            for r in g.neighbors(u, self.h.follows, EdgesDirection::Ingoing)?.iter() {
                *counts.entry(r).or_insert(0) += 1;
            }
        }
        self.counts_by_uid(&g, counts)
    }

    fn co_mention_counts_kernel(&self, uid: i64) -> Result<Vec<(i64, u64)>> {
        let g = self.read();
        let Some(a) = self.user_oid(&g, uid)? else { return Ok(Vec::new()) };
        let counts = self.co_mention_counts(&g, a)?;
        self.counts_by_uid(&g, counts)
    }

    fn co_tag_counts_kernel(&self, tag: &str) -> Result<Vec<(String, u64)>> {
        let g = self.read();
        let Some(g0) = self.tag_oid(&g, tag)? else { return Ok(Vec::new()) };
        let mut out = Vec::new();
        for (oid, count) in self.co_tag_counts(&g, g0)? {
            out.push((self.tag_of(&g, oid)?, count));
        }
        out.sort_unstable();
        Ok(out)
    }

    fn follow_frontier_kernel(&self, uids: &[i64]) -> Result<Vec<i64>> {
        let g = self.read();
        // Same flat-Vec discipline as `hashtags_kernel`: push every
        // adjacency, sort+dedup once per batch.
        let mut next: Vec<i64> = Vec::new();
        for &uid in uids {
            let Some(u) = self.user_oid(&g, uid)? else { continue };
            for v in g.neighbors(u, self.h.follows, EdgesDirection::Any)?.iter() {
                next.push(self.uid_of(&g, v)?);
            }
        }
        next.sort_unstable();
        next.dedup();
        Ok(next)
    }

    // ---- Q5 pushdown kernel: full count stream, bounded retention ----------

    fn influence_topn_kernel(&self, uid: i64, current: bool, k: usize) -> Result<TopKPartial<i64>> {
        let g = self.read();
        let Some(a) = self.user_oid(&g, uid)? else {
            return Ok(TopKPartial { top: Vec::new(), bound: 0 });
        };
        let counts = self.influence_counts(&g, a, current)?;
        Ok(topk_bounded(self.counted_uids(&g, counts)?, k))
    }

    fn ensure_user(&self, uid: i64) -> Result<()> {
        self.apply_shard_ops(&[ShardOp::Ghost(uid)])
    }

    fn bump_followers(&self, uid: i64, delta: i64) -> Result<()> {
        self.apply_shard_ops(&[ShardOp::CountFollowers { uid, delta }])
    }

    /// Applies one streaming update (the paper's future-work update
    /// workload) through the navigation engine's write API, behind the
    /// adapter's write lock; the commit republishes the read generation.
    fn apply_event(&self, event: &micrograph_datagen::UpdateEvent) -> Result<()> {
        self.with_write(|g| self.stage_event(g, event))
    }

    /// Group commit (DESIGN.md §4j): the whole batch under ONE write-lock
    /// acquisition and ONE snapshot publish. Stops at the first failing
    /// event — the committed prefix is exactly what the looped oracle
    /// leaves, because each `stage_event` validates every referenced
    /// entity before its first mutation.
    fn apply_event_batch(&self, events: &[micrograph_datagen::UpdateEvent]) -> Result<()> {
        self.with_write(|g| events.iter().try_for_each(|event| self.stage_event(g, event)))
    }

    /// One shard list under ONE write-lock acquisition and ONE snapshot
    /// publish, with the same prefix semantics as `apply_event_batch`.
    fn apply_shard_ops(&self, ops: &[ShardOp<'_>]) -> Result<()> {
        self.with_write(|g| ops.iter().try_for_each(|op| self.stage_op(g, op)))
    }

    fn reset_stats(&self) {
        self.g.read().reset_stats();
    }

    fn ops_count(&self) -> u64 {
        let g = self.read();
        let s = g.stats();
        s.neighbors_calls
            + s.explode_calls
            + s.find_object_calls
            + s.select_indexed
            + s.select_scans
            + s.values_read
    }

    fn drop_caches(&self) -> Result<()> {
        // The engine serves queries from its in-memory structures; there is
        // no page cache to drop.
        Ok(())
    }
}

impl BitEngine {
    /// Q2.1 expressed through the engine's traversal context instead of
    /// raw navigation — the paper's §4 comparison: "using the raw
    /// navigation operations (neighbors and explode) are slightly more
    /// efficient than expressing the query as a series of traversal
    /// operations ... perhaps due to the overhead involved with the
    /// traversals."
    pub fn followees_via_traversal(&self, uid: i64) -> Result<Vec<i64>> {
        let g = self.read();
        let Some(a) = self.user_oid(&g, uid)? else { return Ok(Vec::new()) };
        let mut out = Vec::new();
        for v in bitgraph::traversal::TraversalBfs::new(
            &g,
            a,
            self.h.follows,
            EdgesDirection::Outgoing,
            1,
        ) {
            let (node, depth) = v?;
            if depth == 1 {
                out.push(self.uid_of(&g, node)?);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Count of the *distinct* 2-step follows neighborhood via raw
    /// navigation (nested `neighbors` calls + set union).
    pub fn two_step_reach_nav(&self, uid: i64) -> Result<u64> {
        let g = self.read();
        let Some(a) = self.user_oid(&g, uid)? else { return Ok(0) };
        let first = g.neighbors(a, self.h.follows, EdgesDirection::Outgoing)?;
        let mut reach = first.clone();
        for f in first.iter() {
            reach = reach.union(&g.neighbors(f, self.h.follows, EdgesDirection::Outgoing)?);
        }
        reach.remove(a);
        Ok(reach.count())
    }

    /// The same 2-step reach through the traversal context.
    pub fn two_step_reach_traversal(&self, uid: i64) -> Result<u64> {
        let g = self.read();
        let Some(a) = self.user_oid(&g, uid)? else { return Ok(0) };
        let mut n = 0u64;
        for v in bitgraph::traversal::TraversalBfs::new(
            &g,
            a,
            self.h.follows,
            EdgesDirection::Outgoing,
            2,
        ) {
            let (_, depth) = v?;
            if depth >= 1 {
                n += 1;
            }
        }
        Ok(n)
    }

    fn influence_counts(
        &self,
        g: &Graph,
        a: Oid,
        follows_a: bool,
    ) -> Result<HashMap<Oid, u64>> {
        // "Finding the users who mentioned A, and removing (or retaining)
        // the users who are already following A."
        let mut counts: HashMap<Oid, u64> = HashMap::new();
        for e in g.explode(a, self.h.mentions, EdgesDirection::Ingoing)?.iter() {
            let t = g.peer(e, a)?;
            for p in g.neighbors(t, self.h.posts, EdgesDirection::Ingoing)?.iter() {
                if p == a {
                    continue;
                }
                let is_follower = g.are_adjacent(p, a, self.h.follows, EdgesDirection::Outgoing)?;
                if is_follower == follows_a {
                    *counts.entry(p).or_insert(0) += 1;
                }
            }
        }
        Ok(counts)
    }

    fn influence(&self, g: &Graph, uid: i64, n: usize, follows_a: bool) -> Result<Vec<Ranked<i64>>> {
        let Some(a) = self.user_oid(g, uid)? else { return Ok(Vec::new()) };
        let counts = self.influence_counts(g, a, follows_a)?;
        self.top_uids(g, counts, n)
    }
}
