//! The arbordb adapter: Table 2 through the declarative language.
//!
//! Query texts are fixed strings with `$parameters`, so the plan cache hits
//! on every execution after the first — the configuration the paper
//! recommends. The adapter also exposes:
//!
//! * traversal-framework variants ([`ArborEngine::followees_via_api`],
//!   [`ArborEngine::recommend_followees_via_api`]) — the paper's "alternate
//!   solutions", which trade expressiveness for "a slight improvement in
//!   performance";
//! * the three §4 phrasings of the recommendation query
//!   ([`RecommendationPhrasing`]), where (b) performs best and (c) is the
//!   pathological one.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use arbor_ql::{EngineOptions, Prepared, QueryEngine};
use arbordb::db::GraphDb;
use arbordb::traversal::{shortest_path, Traversal};
use arbordb::{Direction, NodeId, Value};
use micrograph_common::topn::{merge_top_n, Counted, TopKPartial};

use crate::engine::{MicroblogEngine, Ranked};
use crate::shard::ShardOp;
use crate::{CoreError, Result};

/// The three ways §4 phrases the Q4.1 recommendation query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecommendationPhrasing {
    /// (a) variable-length `[:follows*2..2]` path counting.
    VarLength,
    /// (b) explicit 2-step expansion with an anti-pattern filter — the
    /// phrasing that "was performing the best".
    Canonical,
    /// (c) undirected 2-step expansion filtered afterwards — blows the
    /// intermediate result up and "failed to return a result in a
    /// reasonable time" at the paper's scale.
    Undirected,
}

const Q1_1: &str = "MATCH (u:user) WHERE u.followers > $th RETURN u.uid ORDER BY u.uid";

const Q2_1: &str =
    "MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid ORDER BY f.uid";

const Q2_2: &str = "MATCH (a:user {uid: $uid})-[:follows]->(f)-[:posts]->(t:tweet) \
                    RETURN t.tid ORDER BY t.tid";

const Q2_3: &str =
    "MATCH (a:user {uid: $uid})-[:follows]->(f)-[:posts]->(t)-[:tags]->(h:hashtag) \
     RETURN DISTINCT h.tag ORDER BY h.tag";

const Q3_1: &str =
    "MATCH (a:user {uid: $uid})<-[:mentions]-(t:tweet)-[:mentions]->(b:user) \
     WHERE b.uid <> $uid \
     RETURN b.uid, count(*) AS c ORDER BY c DESC, b.uid ASC LIMIT $n";

const Q3_2: &str =
    "MATCH (g:hashtag {tag: $tag})<-[:tags]-(t:tweet)-[:tags]->(h:hashtag) \
     WHERE h.tag <> $tag \
     RETURN h.tag, count(*) AS c ORDER BY c DESC, h.tag ASC LIMIT $n";

const Q4_1_B: &str = "MATCH (a:user {uid: $uid})-[:follows]->(f)-[:follows]->(r) \
                      WHERE NOT (a)-[:follows]->(r) AND r.uid <> $uid \
                      RETURN r.uid, count(*) AS c ORDER BY c DESC, r.uid ASC LIMIT $n";

const Q4_1_A: &str = "MATCH (a:user {uid: $uid})-[:follows*2..2]->(r) \
                      WHERE NOT (a)-[:follows]->(r) AND r.uid <> $uid \
                      RETURN r.uid, count(*) AS c ORDER BY c DESC, r.uid ASC LIMIT $n";

const Q4_1_C: &str = "MATCH (a:user {uid: $uid})-[:follows*2..2]-(r) \
                      WHERE NOT (a)-[:follows]->(r) AND r.uid <> $uid \
                      RETURN r.uid, count(*) AS c ORDER BY c DESC, r.uid ASC LIMIT $n";

const Q4_2: &str = "MATCH (a:user {uid: $uid})-[:follows]->(f)<-[:follows]-(r) \
                    WHERE NOT (a)-[:follows]->(r) AND r.uid <> $uid \
                    RETURN r.uid, count(*) AS c ORDER BY c DESC, r.uid ASC LIMIT $n";

const Q5_1: &str = "MATCH (p:user)-[:posts]->(t:tweet)-[:mentions]->(a:user {uid: $uid}) \
                    WHERE (p)-[:follows]->(a) AND p.uid <> $uid \
                    RETURN p.uid, count(*) AS c ORDER BY c DESC, p.uid ASC LIMIT $n";

const Q5_2: &str = "MATCH (p:user)-[:posts]->(t:tweet)-[:mentions]->(a:user {uid: $uid}) \
                    WHERE NOT (p)-[:follows]->(a) AND p.uid <> $uid \
                    RETURN p.uid, count(*) AS c ORDER BY c DESC, p.uid ASC LIMIT $n";

const TWEETS_WITH_TAG: &str =
    "MATCH (h:hashtag {tag: $tag})<-[:tags]-(t:tweet) RETURN t.tid ORDER BY t.tid";

const RETWEET_COUNT: &str =
    "MATCH (o:tweet {tid: $tid})<-[:retweets]-(r:tweet) RETURN count(*)";

const POSTER_OF: &str = "MATCH (u:user)-[:posts]->(t:tweet {tid: $tid}) RETURN u.uid";

// ---- shard-local kernel queries (DESIGN.md §4c/§4h) ------------------------
// Set-oriented fragments of Q2/Q3/Q4/Q6: each takes the whole shard-local
// uid batch as ONE list parameter (`IN $uids`, compiled to a multi-anchor
// index seek), so a scatter leg costs one kernel execution instead of one
// per uid. Like the monolithic texts they are fixed strings, covered by
// the prepared-plan cache. Batched texts return the originating anchor as
// a carried column where per-anchor multiplicity matters (the kernel
// contract counts per *occurrence* of an input uid, while `IN` dedups).

const K_POSTED_BATCH: &str = "MATCH (a:user)-[:posts]->(t:tweet) WHERE a.uid IN $uids \
                              RETURN a.uid, t.tid ORDER BY a.uid, t.tid";

const K_TAGS_BATCH: &str =
    "MATCH (a:user)-[:posts]->(t)-[:tags]->(h:hashtag) WHERE a.uid IN $uids \
     RETURN DISTINCT h.tag ORDER BY h.tag";

const K_OUT_COUNTS_BATCH: &str =
    "MATCH (a:user)-[:follows]->(f:user) WHERE a.uid IN $uids \
     RETURN a.uid, f.uid, count(*) AS c ORDER BY a.uid, f.uid";

const K_IN_COUNTS_BATCH: &str =
    "MATCH (x:user)-[:follows]->(a:user) WHERE a.uid IN $uids \
     RETURN a.uid, x.uid, count(*) AS c ORDER BY a.uid, x.uid";

const K_FRONTIER_BATCH: &str = "MATCH (a:user)-[:follows]-(x:user) WHERE a.uid IN $uids \
                                RETURN DISTINCT x.uid ORDER BY x.uid";

const K_CO_MENTION: &str =
    "MATCH (a:user {uid: $uid})<-[:mentions]-(t:tweet)-[:mentions]->(b:user) \
     WHERE b.uid <> $uid \
     RETURN b.uid, count(*) AS c ORDER BY b.uid ASC";

const K_CO_TAG: &str =
    "MATCH (g:hashtag {tag: $tag})<-[:tags]-(t:tweet)-[:tags]->(h:hashtag) \
     WHERE h.tag <> $tag \
     RETURN h.tag, count(*) AS c ORDER BY h.tag ASC";

// Q3/Q4 shard fan-outs sum the full count kernels above (DESIGN.md §4f).
// Q5's pushdown kernel reuses the monolithic Q5_1/Q5_2 texts, which
// already carry a LIMIT (per-shard candidate sets are disjoint, so its
// merge is single-round regardless of the bound).

/// Lazily prepared plans for the kernel texts a shard fan-out runs hottest:
/// each shard executes the same fixed text per scatter leg, so the adapter
/// parses+plans once and replays the [`Prepared`] handle — no plan-cache
/// lock or text hash per leg (ISSUE 7 satellite).
#[derive(Default)]
struct PreparedKernels {
    influence_current: OnceLock<Prepared>,
    influence_potential: OnceLock<Prepared>,
    posted_batch: OnceLock<Prepared>,
    tags_batch: OnceLock<Prepared>,
    out_counts_batch: OnceLock<Prepared>,
    in_counts_batch: OnceLock<Prepared>,
    frontier_batch: OnceLock<Prepared>,
}

/// How often each uid occurs in a kernel's input list. `IN` dedups its
/// operand, so batched results are scaled back up by this map client-side
/// to keep the per-occurrence kernel contract (a uid listed twice — legal
/// when duplicate follows edges exist upstream — contributes twice).
fn multiplicity(uids: &[i64]) -> HashMap<i64, u64> {
    let mut mult: HashMap<i64, u64> = HashMap::with_capacity(uids.len());
    for &uid in uids {
        *mult.entry(uid).or_insert(0) += 1;
    }
    mult
}

/// Collapses `(key, weighted count)` pairs — sorted by key with possible
/// adjacent duplicates from distinct anchors — into one count per key.
fn merge_count_runs(mut pairs: Vec<(i64, u64)>) -> Vec<(i64, u64)> {
    pairs.sort_unstable();
    let mut merged: Vec<(i64, u64)> = Vec::with_capacity(pairs.len());
    for (key, count) in pairs {
        match merged.last_mut() {
            Some(last) if last.0 == key => last.1 += count,
            _ => merged.push((key, count)),
        }
    }
    merged
}

/// The declarative adapter over [`GraphDb`].
pub struct ArborEngine {
    db: Arc<GraphDb>,
    ql: QueryEngine,
    prep: PreparedKernels,
}

impl ArborEngine {
    /// Wraps a database with the standard engine options (plan cache on).
    pub fn new(db: Arc<GraphDb>) -> Self {
        ArborEngine {
            ql: QueryEngine::new(db.clone()),
            db,
            prep: PreparedKernels::default(),
        }
    }

    /// Wraps with explicit options (ablation switches).
    pub fn with_options(db: Arc<GraphDb>, options: EngineOptions) -> Self {
        ArborEngine {
            ql: QueryEngine::with_options(db.clone(), options),
            db,
            prep: PreparedKernels::default(),
        }
    }

    /// Prepares `text` once per engine; a racing second caller just drops
    /// its duplicate plan (both prepared the same fixed text).
    fn prepared<'a>(&self, cell: &'a OnceLock<Prepared>, text: &str) -> Result<&'a Prepared> {
        if let Some(p) = cell.get() {
            return Ok(p);
        }
        let p = self.ql.prepare(text)?;
        Ok(cell.get_or_init(|| p))
    }

    /// The underlying database.
    pub fn db(&self) -> &GraphDb {
        &self.db
    }

    /// A shared handle to the database (for building alternate-option
    /// engines over the same store in ablation benches).
    pub fn db_arc(&self) -> Arc<GraphDb> {
        self.db.clone()
    }

    /// The query session (plan-cache stats, EXPLAIN).
    pub fn ql(&self) -> &QueryEngine {
        &self.ql
    }

    fn int_column(&self, text: &str, params: &[(&str, Value)]) -> Result<Vec<i64>> {
        let r = self.ql.query(text, params)?;
        Ok(r.rows
            .iter()
            .map(|row| row[0].as_int().expect("integer column"))
            .collect())
    }

    fn ranked_ints(&self, text: &str, params: &[(&str, Value)]) -> Result<Vec<Ranked<i64>>> {
        let r = self.ql.query(text, params)?;
        Ok(r.rows
            .iter()
            .map(|row| Ranked::new(row[0].as_int().expect("key"), row[1].as_int().expect("count") as u64))
            .collect())
    }

    /// Runs a batched `(anchor, target, count)` kernel text and folds the
    /// grouped rows into one sorted `(target, count)` map, weighting each
    /// anchor's contribution by its multiplicity in `uids`.
    fn grouped_counts(
        &self,
        cell: &OnceLock<Prepared>,
        text: &str,
        uids: &[i64],
        params: &[(&str, Value)],
    ) -> Result<Vec<(i64, u64)>> {
        if uids.is_empty() {
            return Ok(Vec::new());
        }
        let p = self.prepared(cell, text)?;
        let r = self.ql.query_prepared(p, params)?;
        let mult = multiplicity(uids);
        let mut pairs: Vec<(i64, u64)> = Vec::with_capacity(r.rows.len());
        for row in &r.rows {
            let anchor = row[0].as_int().expect("anchor uid");
            let target = row[1].as_int().expect("target uid");
            let count = row[2].as_int().expect("count") as u64;
            pairs.push((target, count * mult[&anchor]));
        }
        Ok(merge_count_runs(pairs))
    }

    fn node_of_uid(&self, uid: i64) -> Result<Option<NodeId>> {
        Ok(self
            .db
            .index_seek(crate::schema::USER, crate::schema::UID, &Value::Int(uid))
            .and_then(|v| v.into_iter().next()))
    }

    /// User lookup that sees through the group-commit window: property
    /// index updates apply only at commit, so a user node created earlier
    /// in the same batched transaction is invisible to `node_of_uid` —
    /// the batch-local `created` overlay carries exactly those nodes.
    fn find_user(&self, created: &HashMap<i64, NodeId>, uid: i64) -> Result<Option<NodeId>> {
        if let Some(&n) = created.get(&uid) {
            return Ok(Some(n));
        }
        self.node_of_uid(uid)
    }

    /// Stages `ops` in ONE buffered transaction, each under a savepoint: a
    /// failing op rolls back to its savepoint and the ops before it commit.
    /// Every node the ops create joins the `created` overlay, so later ops
    /// see it before the index does (index ops land at commit).
    fn group_commit<'a>(&self, ops: impl ExactSizeIterator<Item = ShardOp<'a>>) -> Result<()> {
        if ops.len() == 0 {
            return Ok(());
        }
        let mut tx = self.db.begin_write_batched()?;
        let mut created = HashMap::new();
        for op in ops {
            let sp = tx.savepoint();
            if let Err(e) = self.stage_op(&mut tx, &mut created, &op) {
                tx.rollback_to(&sp)?;
                tx.commit()?;
                return Err(e);
            }
        }
        tx.commit()?;
        Ok(())
    }

    /// One op in its own transaction — the looped oracle's unit: an error
    /// drops (aborts) the transaction, so nothing of the op commits.
    fn commit_op(&self, op: &ShardOp<'_>) -> Result<()> {
        let mut tx = self.db.begin_write()?;
        // One op per transaction: the overlay starts (and stays) empty —
        // everything the op references committed before it began.
        self.stage_op(&mut tx, &mut HashMap::new(), op)?;
        tx.commit()?;
        Ok(())
    }

    /// Stages one shard op into a live transaction — the per-op body of
    /// every write method: one transaction per op (`commit_op`, the
    /// looped oracle) or one group-commit transaction per batch or shard
    /// list (`apply_shard_ops`). Page-level writes are visible to later
    /// ops immediately (read-uncommitted within the writer); user-index
    /// visibility goes through the `created` overlay, which every node
    /// an op creates joins.
    fn stage_op(
        &self,
        tx: &mut arbordb::db::WriteTxn<'_>,
        created: &mut HashMap<i64, NodeId>,
        op: &ShardOp<'_>,
    ) -> Result<()> {
        use micrograph_datagen::UpdateEvent;
        let event = match *op {
            ShardOp::Event(event) => event,
            ShardOp::Ghost(uid) => {
                if self.find_user(created, uid)?.is_none() {
                    let props = [(crate::schema::UID, Value::Int(uid))];
                    let node = tx.create_node(crate::schema::USER, &props)?;
                    created.insert(uid, node);
                }
                return Ok(());
            }
            ShardOp::CountFollowers { uid, delta } => {
                // Upsert: a cross-shard follow can replay before the owner
                // saw the `new user` event. Create the placeholder and
                // count onto it; the later `NewUser` fills in attributes
                // without resetting the count.
                match self.find_user(created, uid)? {
                    Some(node) => {
                        // Like a follow, a bump leaves a bare node bare.
                        let count = self
                            .db
                            .node_prop(node, crate::schema::FOLLOWERS)?
                            .and_then(|v| v.as_int());
                        if let Some(count) = count {
                            tx.set_node_prop(
                                node,
                                crate::schema::FOLLOWERS,
                                Value::Int(count + delta),
                            )?;
                        }
                    }
                    None => {
                        let node = tx.create_node(
                            crate::schema::USER,
                            &[
                                (crate::schema::UID, Value::Int(uid)),
                                (crate::schema::NAME, Value::Str(String::new())),
                                (crate::schema::FOLLOWERS, Value::Int(delta)),
                                (crate::schema::VERIFIED, Value::Int(0)),
                            ],
                        )?;
                        created.insert(uid, node);
                    }
                }
                return Ok(());
            }
        };
        match event {
            UpdateEvent::NewUser { uid, name } => {
                // Upsert: when a placeholder exists (a bare ensure_user
                // ghost, or bump_followers racing ahead of this event),
                // fill in the attributes and keep the accumulated follower
                // count; a bare node starts counting from 0.
                match self.find_user(created, *uid as i64)? {
                    Some(node) => {
                        tx.set_node_prop(node, crate::schema::NAME, Value::Str(name.clone()))?;
                        for key in [crate::schema::FOLLOWERS, crate::schema::VERIFIED] {
                            if self.db.node_prop(node, key)?.is_none() {
                                tx.set_node_prop(node, key, Value::Int(0))?;
                            }
                        }
                    }
                    None => {
                        let node = tx.create_node(
                            crate::schema::USER,
                            &[
                                (crate::schema::UID, Value::Int(*uid as i64)),
                                (crate::schema::NAME, Value::Str(name.clone())),
                                (crate::schema::FOLLOWERS, Value::Int(0)),
                                (crate::schema::VERIFIED, Value::Int(0)),
                            ],
                        )?;
                        created.insert(*uid as i64, node);
                    }
                }
            }
            UpdateEvent::NewFollow { follower, followee } => {
                let a = self
                    .find_user(created, *follower as i64)?
                    .ok_or_else(|| CoreError::NotFound(format!("user {follower}")))?;
                let b = self
                    .find_user(created, *followee as i64)?
                    .ok_or_else(|| CoreError::NotFound(format!("user {followee}")))?;
                tx.create_rel(a, b, crate::schema::FOLLOWS, &[])?;
                // A bare ghost followee has no count to keep: its owner
                // shard counts the follow (`bump_followers`).
                if let Some(count) =
                    self.db.node_prop(b, crate::schema::FOLLOWERS)?.and_then(|v| v.as_int())
                {
                    tx.set_node_prop(b, crate::schema::FOLLOWERS, Value::Int(count + 1))?;
                }
            }
            UpdateEvent::NewTweet { tid, uid, text, mentions, tags } => {
                let poster = self
                    .find_user(created, *uid as i64)?
                    .ok_or_else(|| CoreError::NotFound(format!("user {uid}")))?;
                let tweet = tx.create_node(
                    crate::schema::TWEET,
                    &[
                        (crate::schema::TID, Value::Int(*tid as i64)),
                        (crate::schema::TEXT, Value::Str(text.clone())),
                    ],
                )?;
                tx.create_rel(poster, tweet, crate::schema::POSTS, &[])?;
                for m in mentions {
                    let target = self
                        .find_user(created, *m as i64)?
                        .ok_or_else(|| CoreError::NotFound(format!("user {m}")))?;
                    tx.create_rel(tweet, target, crate::schema::MENTIONS, &[])?;
                }
                for t in tags {
                    // Hashtags are never created by the stream, so the
                    // committed index is authoritative (no overlay needed).
                    let tag = self
                        .db
                        .index_seek(crate::schema::HASHTAG, crate::schema::TAG, &Value::from(t.as_str()))
                        .and_then(|v| v.into_iter().next())
                        .ok_or_else(|| CoreError::NotFound(format!("hashtag {t}")))?;
                    tx.create_rel(tweet, tag, crate::schema::TAGS, &[])?;
                }
            }
        }
        Ok(())
    }

    /// Runs the Q4.1 recommendation in the given phrasing (ablation D2).
    pub fn recommend_phrasing(
        &self,
        phrasing: RecommendationPhrasing,
        uid: i64,
        n: usize,
    ) -> Result<Vec<Ranked<i64>>> {
        let text = match phrasing {
            RecommendationPhrasing::VarLength => Q4_1_A,
            RecommendationPhrasing::Canonical => Q4_1_B,
            RecommendationPhrasing::Undirected => Q4_1_C,
        };
        self.ranked_ints(text, &[("uid", Value::Int(uid)), ("n", Value::Int(n as i64))])
    }

    // ---- "core API" (traversal framework) variants -------------------------

    /// Q2.1 through the traversal framework instead of the language.
    pub fn followees_via_api(&self, uid: i64) -> Result<Vec<i64>> {
        let _latch = self.db.read_latch();
        let Some(node) = self.node_of_uid(uid)? else { return Ok(Vec::new()) };
        let follows = self.db.rel_type_id(crate::schema::FOLLOWS);
        let visits = Traversal::new(&self.db)
            .expand(follows, Direction::Outgoing)
            .depths(1, 1)
            .traverse(node)?;
        let mut out = Vec::with_capacity(visits.len());
        for v in visits {
            if let Some(u) = self.db.node_prop(v.node, crate::schema::UID)? {
                out.push(u.as_int().expect("uid is an integer"));
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Q4.1 through the traversal framework: expand two steps manually,
    /// count, filter, top-n.
    pub fn recommend_followees_via_api(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        let _latch = self.db.read_latch();
        let Some(node) = self.node_of_uid(uid)? else { return Ok(Vec::new()) };
        let follows = self.db.rel_type_id(crate::schema::FOLLOWS);
        let mut followed: Vec<NodeId> = Vec::new();
        for nb in self.db.neighbors(node, follows, Direction::Outgoing) {
            followed.push(nb?);
        }
        let mut counts: HashMap<NodeId, u64> = HashMap::new();
        for &f in &followed {
            for r in self.db.neighbors(f, follows, Direction::Outgoing) {
                let r = r?;
                if r != node && !followed.contains(&r) {
                    *counts.entry(r).or_insert(0) += 1;
                }
            }
        }
        let mut part = Vec::with_capacity(counts.len());
        for (node, count) in counts {
            let u = self
                .db
                .node_prop(node, crate::schema::UID)?
                .and_then(|v| v.as_int())
                .ok_or_else(|| CoreError::NotFound(format!("uid of node {node}")))?;
            part.push(Counted { key: u, count });
        }
        Ok(merge_top_n(vec![part], n).into_iter().map(|c| Ranked::new(c.key, c.count)).collect())
    }
}

impl MicroblogEngine for ArborEngine {
    fn name(&self) -> &'static str {
        "arbordb"
    }

    fn users_with_followers_over(&self, threshold: i64) -> Result<Vec<i64>> {
        self.int_column(Q1_1, &[("th", Value::Int(threshold))])
    }

    fn followees(&self, uid: i64) -> Result<Vec<i64>> {
        self.int_column(Q2_1, &[("uid", Value::Int(uid))])
    }

    fn followee_tweets(&self, uid: i64) -> Result<Vec<i64>> {
        self.int_column(Q2_2, &[("uid", Value::Int(uid))])
    }

    fn followee_hashtags(&self, uid: i64) -> Result<Vec<String>> {
        let r = self.ql.query(Q2_3, &[("uid", Value::Int(uid))])?;
        Ok(r.rows
            .iter()
            .map(|row| row[0].as_str().expect("tag column").to_owned())
            .collect())
    }

    fn co_mentioned_users(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        self.ranked_ints(Q3_1, &[("uid", Value::Int(uid)), ("n", Value::Int(n as i64))])
    }

    fn co_occurring_hashtags(&self, tag: &str, n: usize) -> Result<Vec<Ranked<String>>> {
        let r = self
            .ql
            .query(Q3_2, &[("tag", Value::from(tag)), ("n", Value::Int(n as i64))])?;
        Ok(r.rows
            .iter()
            .map(|row| {
                Ranked::new(
                    row[0].as_str().expect("tag").to_owned(),
                    row[1].as_int().expect("count") as u64,
                )
            })
            .collect())
    }

    fn recommend_followees(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        self.recommend_phrasing(RecommendationPhrasing::Canonical, uid, n)
    }

    fn recommend_followers(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        self.ranked_ints(Q4_2, &[("uid", Value::Int(uid)), ("n", Value::Int(n as i64))])
    }

    fn current_influence(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        self.ranked_ints(Q5_1, &[("uid", Value::Int(uid)), ("n", Value::Int(n as i64))])
    }

    fn potential_influence(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        self.ranked_ints(Q5_2, &[("uid", Value::Int(uid)), ("n", Value::Int(n as i64))])
    }

    fn shortest_path_len(&self, a: i64, b: i64, max_hops: u32) -> Result<Option<u32>> {
        // Use the engine's native bidirectional BFS (what the shortestPath
        // plan operator executes) — endpoints via index seeks. This path
        // bypasses the query engine, so it takes the serving read latch
        // itself (the inner db calls are latch-free).
        let _latch = self.db.read_latch();
        let (Some(na), Some(nb)) = (self.node_of_uid(a)?, self.node_of_uid(b)?) else {
            return Ok(None);
        };
        let follows = self.db.rel_type_id(crate::schema::FOLLOWS);
        Ok(shortest_path(&self.db, na, nb, follows, Direction::Both, max_hops)?
            .map(|p| p.len() as u32 - 1))
    }

    fn tweets_with_hashtag(&self, tag: &str) -> Result<Vec<i64>> {
        self.int_column(TWEETS_WITH_TAG, &[("tag", Value::from(tag))])
    }

    fn retweet_count(&self, tid: i64) -> Result<u64> {
        let r = self.ql.query(RETWEET_COUNT, &[("tid", Value::Int(tid))])?;
        Ok(r.rows[0][0].as_int().expect("count") as u64)
    }

    fn poster_of(&self, tid: i64) -> Result<i64> {
        let r = self.ql.query(POSTER_OF, &[("tid", Value::Int(tid))])?;
        r.rows
            .first()
            .map(|row| row[0].as_int().expect("uid"))
            .ok_or_else(|| CoreError::NotFound(format!("poster of tweet {tid}")))
    }

    // ---- shard-local kernels ------------------------------------------------
    // Set-oriented: the whole uid batch goes down as ONE list parameter per
    // kernel call (DESIGN.md §4h); the plan cache covers the fixed texts.

    fn has_user(&self, uid: i64) -> Result<bool> {
        Ok(self.node_of_uid(uid)?.is_some())
    }

    fn posted_tweets_kernel(&self, uids: &[i64]) -> Result<Vec<i64>> {
        if uids.is_empty() {
            return Ok(Vec::new());
        }
        let p = self.prepared(&self.prep.posted_batch, K_POSTED_BATCH)?;
        let r = self.ql.query_prepared(p, &[("uids", Value::from(uids))])?;
        let mult = multiplicity(uids);
        let mut out = Vec::with_capacity(r.rows.len());
        for row in &r.rows {
            let anchor = row[0].as_int().expect("anchor uid");
            let tid = row[1].as_int().expect("tid");
            for _ in 0..mult[&anchor] {
                out.push(tid);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn hashtags_kernel(&self, uids: &[i64]) -> Result<Vec<String>> {
        if uids.is_empty() {
            return Ok(Vec::new());
        }
        let p = self.prepared(&self.prep.tags_batch, K_TAGS_BATCH)?;
        let r = self.ql.query_prepared(p, &[("uids", Value::from(uids))])?;
        Ok(r.rows
            .iter()
            .map(|row| row[0].as_str().expect("tag column").to_owned())
            .collect())
    }

    fn count_followees_kernel(&self, uids: &[i64]) -> Result<Vec<(i64, u64)>> {
        self.grouped_counts(
            &self.prep.out_counts_batch,
            K_OUT_COUNTS_BATCH,
            uids,
            &[("uids", Value::from(uids))],
        )
    }

    fn count_followers_kernel(&self, uids: &[i64]) -> Result<Vec<(i64, u64)>> {
        self.grouped_counts(
            &self.prep.in_counts_batch,
            K_IN_COUNTS_BATCH,
            uids,
            &[("uids", Value::from(uids))],
        )
    }

    fn co_mention_counts_kernel(&self, uid: i64) -> Result<Vec<(i64, u64)>> {
        let r = self.ql.query(K_CO_MENTION, &[("uid", Value::Int(uid))])?;
        Ok(r.rows
            .iter()
            .map(|row| (row[0].as_int().expect("uid"), row[1].as_int().expect("count") as u64))
            .collect())
    }

    fn co_tag_counts_kernel(&self, tag: &str) -> Result<Vec<(String, u64)>> {
        let r = self.ql.query(K_CO_TAG, &[("tag", Value::from(tag))])?;
        Ok(r.rows
            .iter()
            .map(|row| {
                (
                    row[0].as_str().expect("tag").to_owned(),
                    row[1].as_int().expect("count") as u64,
                )
            })
            .collect())
    }

    fn follow_frontier_kernel(&self, uids: &[i64]) -> Result<Vec<i64>> {
        // One undirected BFS round over locally stored follows edges, as a
        // single batched query (DISTINCT + ORDER BY give the sorted set).
        if uids.is_empty() {
            return Ok(Vec::new());
        }
        let p = self.prepared(&self.prep.frontier_batch, K_FRONTIER_BATCH)?;
        let r = self.ql.query_prepared(p, &[("uids", Value::from(uids))])?;
        Ok(r.rows
            .iter()
            .map(|row| row[0].as_int().expect("uid column"))
            .collect())
    }

    // ---- Q5 pushdown kernel: LIMIT pushed into the sort operator ----------

    fn influence_topn_kernel(&self, uid: i64, current: bool, k: usize) -> Result<TopKPartial<i64>> {
        // Q5's monolithic texts already carry the LIMIT; ask for k+1 rows
        // and read the bound off the extra one.
        let p = if current {
            self.prepared(&self.prep.influence_current, Q5_1)?
        } else {
            self.prepared(&self.prep.influence_potential, Q5_2)?
        };
        let r = self.ql.query_prepared(
            p,
            &[("uid", Value::Int(uid)), ("n", Value::Int(k as i64 + 1))],
        )?;
        let ranked: Vec<Ranked<i64>> = r
            .rows
            .iter()
            .map(|row| {
                Ranked::new(row[0].as_int().expect("key"), row[1].as_int().expect("count") as u64)
            })
            .collect();
        let mut top: Vec<Counted<i64>> =
            ranked.into_iter().map(|r| Counted { key: r.key, count: r.count }).collect();
        let bound = if top.len() > k { top[k].count } else { 0 };
        top.truncate(k);
        Ok(TopKPartial { top, bound })
    }

    fn ensure_user(&self, uid: i64) -> Result<()> {
        self.commit_op(&ShardOp::Ghost(uid))
    }

    fn bump_followers(&self, uid: i64, delta: i64) -> Result<()> {
        self.commit_op(&ShardOp::CountFollowers { uid, delta })
    }

    /// Applies one streaming update transactionally (the paper's future-work
    /// update workload). Keeps the `followers` property consistent with the
    /// incoming `follows` edges, like the generated base data. The write
    /// path serializes on the database's single-writer mutex, so concurrent
    /// readers keep working while an event commits.
    fn apply_event(&self, event: &micrograph_datagen::UpdateEvent) -> Result<()> {
        self.commit_op(&ShardOp::Event(event))
    }

    /// Group commit (DESIGN.md §4j): the whole batch in ONE buffered
    /// transaction — every WAL record appended and synced under one log
    /// lock acquisition, index and statistics ops published once at
    /// commit. A mid-batch failure rolls back just the failing event (to
    /// its savepoint) and commits the successful prefix, leaving exactly
    /// the state — and returning exactly the error — of the looped oracle.
    fn apply_event_batch(&self, events: &[micrograph_datagen::UpdateEvent]) -> Result<()> {
        self.group_commit(events.iter().map(ShardOp::Event))
    }

    /// One shard list as ONE group-commit transaction, with the savepoint
    /// prefix semantics of `apply_event_batch`.
    fn apply_shard_ops(&self, ops: &[ShardOp<'_>]) -> Result<()> {
        self.group_commit(ops.iter().copied())
    }

    fn reset_stats(&self) {
        self.db.reset_stats();
    }

    fn ops_count(&self) -> u64 {
        self.db.stats().db_hits()
    }

    fn drop_caches(&self) -> Result<()> {
        self.db.evict_caches()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbor_ql::exec::{execute, ExecContext};
    use arbor_ql::vexec::execute_vec;
    use micrograph_common::rng::SplitMix64;
    use micrograph_datagen::{generate, GenConfig};

    #[test]
    fn every_adapter_text_runs_alike_through_both_executors() {
        // The tuple interpreter is the reference for the vectorized
        // executor the engine serves through: on every text the adapter
        // prepares, one plan must give byte-identical rows (or the same
        // error) in both, for sampled parameters (half the uids are
        // mentioned users, so Q3/Q5 have rows) and for empty, duplicate
        // and null `$uids` lists.
        let texts = [
            Q1_1, Q2_1, Q2_2, Q2_3, Q3_1, Q3_2, Q4_1_A, Q4_1_B, Q4_1_C, Q4_2, Q5_1, Q5_2,
            TWEETS_WITH_TAG, RETWEET_COUNT, POSTER_OF, K_POSTED_BATCH, K_TAGS_BATCH,
            K_OUT_COUNTS_BATCH, K_IN_COUNTS_BATCH, K_FRONTIER_BATCH, K_CO_MENTION, K_CO_TAG,
        ];
        let cfg = GenConfig {
            users: 120,
            poster_fraction: 0.3,
            tweets_per_poster: 6,
            with_retweets: true,
            ..GenConfig::unit()
        };
        let ds = generate(&cfg);
        let dir = micrograph_common::unique_temp_dir("core-adapter-texts");
        let (arbor, _bit, _) = crate::ingest::build_engines(&ds.write_csv(&dir).unwrap()).unwrap();
        let mut rng = SplitMix64::new(23);
        let uid = |rng: &mut SplitMix64| {
            if rng.chance(0.5) {
                ds.mentions[rng.next_below(ds.mentions.len() as u64) as usize].1 as i64
            } else {
                rng.next_range(1, cfg.users + 3) as i64
            }
        };
        let odd_lists = [vec![], vec![Value::Int(3); 3], vec![Value::Null, Value::Int(4)]];
        for text in texts {
            let plan = arbor.ql().prepare(text).unwrap();
            let mut answered = 0;
            for i in 0..16 {
                let uids: Vec<Value> = match odd_lists.get(i) {
                    Some(list) => list.clone(),
                    None => (0..rng.next_range(1, 9)).map(|_| Value::Int(uid(&mut rng))).collect(),
                };
                let tid = rng.next_range(1, ds.tweets.len() as u64 + 3) as i64;
                let params = HashMap::from([
                    ("uid".to_owned(), Value::Int(uid(&mut rng))),
                    ("n".to_owned(), Value::Int(rng.next_below(11) as i64)),
                    ("tag".to_owned(), Value::from(format!("tag{}", rng.next_range(1, 17)))),
                    ("th".to_owned(), Value::Int(rng.next_below(64) as i64)),
                    ("tid".to_owned(), Value::Int(tid)),
                    ("uids".to_owned(), if i == 3 { Value::Null } else { Value::List(uids) }),
                ]);
                let tuple = execute(plan.plan(), &ExecContext::new(&arbor.db, &params, 0));
                let vec = execute_vec(plan.plan(), &ExecContext::new(&arbor.db, &params, 0));
                let tuple = tuple.map_err(|e| e.to_string());
                assert_eq!(tuple, vec.map_err(|e| e.to_string()), "{text} with {params:?}");
                answered += usize::from(tuple.is_ok_and(|rows| !rows.is_empty()));
            }
            assert!(answered > 0, "vacuous: no binding of {text} returned a row");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
