//! Replication (DESIGN.md §4i): N-way replica groups behind each shard
//! slot, deterministic primary routing, failover ladders and write
//! fan-out. This suite pins:
//!
//! * **counter exactness** — `note_retry` / `note_panic_caught` /
//!   `note_exhausted` / `note_failover` / `note_replica_read` increment
//!   exactly once per event on the point, scatter and failover paths
//!   (audited against a scripted stub engine with a known fault shape);
//! * **write-tear semantics** — a replica that misses a write its
//!   groupmates accepted is marked torn, excluded from reads and writes,
//!   and the group keeps serving; when NO replica applies, nothing tears
//!   and the error propagates;
//! * **coverage hygiene** — `<coverage:a/t>` always has `a ≤ t` with
//!   `t` = the shard count regardless of R, and a replica-healed shard
//!   counts as answered (no spurious partial tags once failover succeeds);
//! * **R = 1 transparency** — the replicated constructor at R = 1 is the
//!   plain sharded engine: same label, same answers, same counters;
//! * **replica loss on real engines** — with replica 0 of every shard
//!   killed, R = 2 serves the healthy digest through failover while R = 1
//!   fails every request.

use std::sync::atomic::{AtomicU64, Ordering};

use micrograph_core::engine::MicroblogEngine;
use micrograph_core::fault::{
    self, silence_injected_panics, INJECTED_PANIC_PREFIX,
};
use micrograph_core::ingest::{build_chaos_replicated_engines, build_replicated_engines};
use micrograph_core::serve::{serve, ServeConfig};
use micrograph_core::shard::replica_of;
use micrograph_core::{
    CoreError, DegradationMode, FaultPlan, Ranked, RetryPolicy, ShardedEngine,
};
use micrograph_datagen::{generate, Dataset, GenConfig};
use proptest::prelude::*;

type Result<T> = std::result::Result<T, CoreError>;

/// Removes the temp dir on drop.
struct Guard(std::path::PathBuf);
impl Drop for Guard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---- scripted stub engine (counter-exactness audit) -----------------------

/// What a stub replica does when a gated method is called.
#[derive(Clone, Copy, PartialEq)]
enum Behavior {
    /// Always answers.
    Healthy,
    /// Panics with the injected-fault payload while the attempt index
    /// *within the current failover band* is below `n`, then answers —
    /// the transient-panic shape that retries must heal.
    PanicBurst(u32),
    /// Every call fails `Unavailable`, at any attempt on any band.
    Dead,
}

/// A replica stub with a scripted fault shape. Gated methods consult the
/// ambient attempt index (mod the failover band, so each hop restarts the
/// script) — exactly how `ChaosEngine` schedules transient faults, minus
/// the hashing, so expected counter values are computable by hand.
struct Stub {
    behavior: Behavior,
    calls: AtomicU64,
}

impl Stub {
    fn boxed(behavior: Behavior) -> Box<dyn MicroblogEngine> {
        Box::new(Stub { behavior, calls: AtomicU64::new(0) })
    }

    fn gate(&self) -> Result<()> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        match self.behavior {
            Behavior::Healthy => Ok(()),
            Behavior::PanicBurst(n) => {
                // 256 = FAILOVER_ATTEMPT_BASE: each failover hop runs on
                // its own band, and the burst restarts per hop.
                if fault::current_attempt() % 256 < n {
                    panic!("{INJECTED_PANIC_PREFIX} scripted stub panic");
                }
                Ok(())
            }
            Behavior::Dead => Err(CoreError::Unavailable("scripted stub down".into())),
        }
    }
}

impl MicroblogEngine for Stub {
    fn name(&self) -> &'static str {
        "stub"
    }
    fn users_with_followers_over(&self, _threshold: i64) -> Result<Vec<i64>> {
        self.gate()?;
        Ok(Vec::new())
    }
    fn followees(&self, _uid: i64) -> Result<Vec<i64>> {
        self.gate()?;
        Ok(vec![1, 2, 3])
    }
    fn followee_tweets(&self, _uid: i64) -> Result<Vec<i64>> {
        Ok(Vec::new())
    }
    fn followee_hashtags(&self, _uid: i64) -> Result<Vec<String>> {
        Ok(Vec::new())
    }
    fn co_mentioned_users(&self, _uid: i64, _n: usize) -> Result<Vec<Ranked<i64>>> {
        Ok(Vec::new())
    }
    fn co_occurring_hashtags(&self, _tag: &str, _n: usize) -> Result<Vec<Ranked<String>>> {
        Ok(Vec::new())
    }
    fn recommend_followees(&self, _uid: i64, _n: usize) -> Result<Vec<Ranked<i64>>> {
        Ok(Vec::new())
    }
    fn recommend_followers(&self, _uid: i64, _n: usize) -> Result<Vec<Ranked<i64>>> {
        Ok(Vec::new())
    }
    fn current_influence(&self, _uid: i64, _n: usize) -> Result<Vec<Ranked<i64>>> {
        Ok(Vec::new())
    }
    fn potential_influence(&self, _uid: i64, _n: usize) -> Result<Vec<Ranked<i64>>> {
        Ok(Vec::new())
    }
    fn shortest_path_len(&self, _a: i64, _b: i64, _max_hops: u32) -> Result<Option<u32>> {
        Ok(None)
    }
    fn tweets_with_hashtag(&self, _tag: &str) -> Result<Vec<i64>> {
        Ok(Vec::new())
    }
    fn retweet_count(&self, _tid: i64) -> Result<u64> {
        Ok(0)
    }
    fn poster_of(&self, tid: i64) -> Result<i64> {
        Err(CoreError::NotFound(format!("poster of tweet {tid}")))
    }
    fn has_user(&self, _uid: i64) -> Result<bool> {
        Ok(true)
    }
    fn posted_tweets_kernel(&self, _uids: &[i64]) -> Result<Vec<i64>> {
        Ok(Vec::new())
    }
    fn hashtags_kernel(&self, _uids: &[i64]) -> Result<Vec<String>> {
        Ok(Vec::new())
    }
    fn count_followees_kernel(&self, _uids: &[i64]) -> Result<Vec<(i64, u64)>> {
        Ok(Vec::new())
    }
    fn count_followers_kernel(&self, _uids: &[i64]) -> Result<Vec<(i64, u64)>> {
        Ok(Vec::new())
    }
    fn co_mention_counts_kernel(&self, _uid: i64) -> Result<Vec<(i64, u64)>> {
        Ok(Vec::new())
    }
    fn co_tag_counts_kernel(&self, _tag: &str) -> Result<Vec<(String, u64)>> {
        Ok(Vec::new())
    }
    fn follow_frontier_kernel(&self, _uids: &[i64]) -> Result<Vec<i64>> {
        Ok(Vec::new())
    }
    fn ensure_user(&self, _uid: i64) -> Result<()> {
        self.gate()
    }
    fn bump_followers(&self, _uid: i64, _delta: i64) -> Result<()> {
        self.gate()
    }
    fn apply_event(&self, _event: &micrograph_datagen::UpdateEvent) -> Result<()> {
        self.gate()
    }
    fn reset_stats(&self) {}
    fn ops_count(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
    fn drop_caches(&self) -> Result<()> {
        Ok(())
    }
}

/// The uid routing to shard 0 whose read primary (at R = 2) is `want` —
/// found by scanning, which is legitimate because `replica_of` is pure
/// and public.
fn uid_with_primary(replicas: usize, want: usize) -> i64 {
    (0..1000i64)
        .find(|&uid| replica_of(fault::key_i64(uid), 0, replicas) == want)
        .expect("some uid routes to the wanted primary")
}

#[test]
fn healthy_point_read_counts_nothing() {
    let e = ShardedEngine::new_replicated(vec![vec![Stub::boxed(Behavior::Healthy)]]);
    assert_eq!(e.followees(7).unwrap(), vec![1, 2, 3]);
    let s = e.fault_stats();
    assert_eq!(
        (s.retries, s.panics_caught, s.exhausted, s.failovers, s.replica_reads),
        (0, 0, 0, 0, 0),
        "a healthy call must touch no fault counter: {s}"
    );
}

#[test]
fn panic_burst_counts_one_retry_and_one_catch_per_panic() {
    // Burst 2 < max_attempts 4: attempts 0 and 1 panic, attempt 2 answers.
    // EXACTLY 2 panics caught, 2 retries, nothing else.
    silence_injected_panics();
    let e = ShardedEngine::new_replicated(vec![vec![Stub::boxed(Behavior::PanicBurst(2))]]);
    assert_eq!(e.followees(7).unwrap(), vec![1, 2, 3]);
    let s = e.fault_stats();
    assert_eq!(s.panics_caught, 2, "one catch per injected panic: {s}");
    assert_eq!(s.retries, 2, "one retry per healed failure: {s}");
    assert_eq!((s.exhausted, s.failovers), (0, 0), "{s}");
}

#[test]
fn dead_single_replica_exhausts_exactly_once() {
    // R = 1, max_attempts 4: 3 retries then ONE exhaustion, no failover
    // possible, and the error carries the stub's text.
    let e = ShardedEngine::new_replicated(vec![vec![Stub::boxed(Behavior::Dead)]]);
    let err = e.followees(7).unwrap_err();
    assert!(matches!(err, CoreError::Unavailable(_)), "got {err}");
    let s = e.fault_stats();
    assert_eq!((s.retries, s.exhausted, s.failovers), (3, 1, 0), "{s}");
}

#[test]
fn failover_counts_one_hop_and_exhausts_the_dead_primary() {
    // R = 2 with the DEAD replica placed at the read primary: the primary
    // ladder burns 3 retries + 1 exhaustion, then exactly ONE failover hop
    // lands on the healthy groupmate, which answers on its first attempt.
    for want in [0usize, 1] {
        let uid = uid_with_primary(2, want);
        let mut group = vec![Stub::boxed(Behavior::Healthy), Stub::boxed(Behavior::Healthy)];
        group[want] = Stub::boxed(Behavior::Dead);
        let e = ShardedEngine::new_replicated(vec![group]);
        assert_eq!(e.followees(uid).unwrap(), vec![1, 2, 3], "failover must rescue the read");
        let s = e.fault_stats();
        assert_eq!(s.failovers, 1, "exactly one hop past the dead primary: {s}");
        assert_eq!((s.retries, s.exhausted), (3, 1), "primary ladder must run in full: {s}");
        assert_eq!(
            s.replica_reads,
            u64::from(want != 0),
            "replica_reads counts non-zero primaries only: {s}"
        );
        assert_eq!(s.panics_caught, 0, "{s}");
    }
}

#[test]
fn failover_restarts_the_panic_script_on_its_own_band() {
    // A panic burst heals WITHIN a hop (band-relative attempt restarts per
    // hop), so a burst-2 primary never fails over at max_attempts 4 —
    // while a dead primary with a burst-2 secondary pays both ladders:
    // 3 retries + exhaustion on the primary, then 2 panics + 2 retries on
    // the secondary's fresh band before answering.
    silence_injected_panics();
    let uid = uid_with_primary(2, 0);
    let e = ShardedEngine::new_replicated(vec![vec![
        Stub::boxed(Behavior::Dead),
        Stub::boxed(Behavior::PanicBurst(2)),
    ]]);
    assert_eq!(e.followees(uid).unwrap(), vec![1, 2, 3]);
    let s = e.fault_stats();
    assert_eq!(s.failovers, 1, "{s}");
    assert_eq!(s.panics_caught, 2, "secondary's burst restarts on its own band: {s}");
    assert_eq!(s.retries, 3 + 2, "3 primary retries + 2 secondary retries: {s}");
    assert_eq!(s.exhausted, 1, "only the primary ladder exhausts: {s}");
}

#[test]
fn scatter_legs_count_failovers_per_shard() {
    // 2 shards × R = 2, the read primary of EVERY shard dead for this
    // route: a broadcast query hops once per shard — 2 failovers, 2
    // exhaustions, 6 retries, zero errors.
    let route_probe = fault::key_i64(0); // threshold 0 routes Q1 broadcasts
    let groups: Vec<Vec<Box<dyn MicroblogEngine>>> = (0..2usize)
        .map(|shard| {
            let primary = replica_of(route_probe, shard, 2);
            let mut g = vec![Stub::boxed(Behavior::Healthy), Stub::boxed(Behavior::Healthy)];
            g[primary] = Stub::boxed(Behavior::Dead);
            g
        })
        .collect();
    let e = ShardedEngine::new_replicated(groups);
    assert_eq!(e.users_with_followers_over(0).unwrap(), Vec::<i64>::new());
    let s = e.fault_stats();
    assert_eq!(s.failovers, 2, "one hop per shard: {s}");
    assert_eq!((s.retries, s.exhausted), (6, 2), "{s}");
}

// ---- write-tear semantics -------------------------------------------------

#[test]
fn write_missed_by_one_replica_tears_it_and_keeps_serving() {
    let e = ShardedEngine::new_replicated(vec![vec![
        Stub::boxed(Behavior::Healthy),
        Stub::boxed(Behavior::Dead),
    ]]);
    assert_eq!(e.torn_replicas(), 0);
    e.ensure_user(5).expect("the group applied the write — it must succeed");
    assert_eq!(e.torn_replicas(), 1, "the replica that missed the write must be torn");
    // Reads keep working at ANY route: the torn replica is skipped (as a
    // synthetic failover hop when it was the primary), never consulted.
    for uid in 0..20 {
        assert_eq!(e.followees(uid).unwrap(), vec![1, 2, 3]);
    }
    // Further writes no longer pay the dead replica's retry ladder.
    let before = e.fault_stats();
    e.ensure_user(6).unwrap();
    let spent = e.fault_stats().since(&before);
    assert_eq!(spent.retries, 0, "torn replicas must be excluded from writes: {spent}");
}

#[test]
fn write_failed_by_every_replica_propagates_without_tearing() {
    // Nothing applied anywhere ⇒ the group is still consistent: no tear,
    // and the caller sees the failure.
    let e = ShardedEngine::new_replicated(vec![vec![
        Stub::boxed(Behavior::Dead),
        Stub::boxed(Behavior::Dead),
    ]]);
    let err = e.ensure_user(5).unwrap_err();
    assert!(matches!(err, CoreError::Unavailable(_)), "got {err}");
    assert_eq!(e.torn_replicas(), 0, "an all-fail write must not tear anyone");
}

#[test]
fn fully_torn_group_fails_writes_and_reads_fast() {
    let e = ShardedEngine::new_replicated(vec![vec![
        Stub::boxed(Behavior::Healthy),
        Stub::boxed(Behavior::Healthy),
    ]]);
    e.kill_replica(0, 0);
    e.kill_replica(0, 1);
    assert_eq!(e.torn_replicas(), 2);
    let werr = e.ensure_user(5).unwrap_err();
    assert!(werr.to_string().contains("every replica is torn"), "got {werr}");
    let rerr = e.followees(5).unwrap_err();
    assert!(rerr.to_string().contains("torn"), "got {rerr}");
}

// ---- replicated serving over real engines ---------------------------------

const USERS: u64 = 80;

fn dataset(seed: u64, tag: &str) -> (Dataset, Guard) {
    let mut cfg = GenConfig::unit();
    cfg.seed = seed;
    cfg.users = USERS;
    cfg.poster_fraction = 0.3;
    cfg.tweets_per_poster = 5;
    cfg.mentions_per_tweet = 1.2;
    cfg.tags_per_tweet = 0.8;
    let dir = micrograph_common::unique_temp_dir(&format!("replication-{tag}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    (generate(&cfg), Guard(dir))
}

fn serve_config(threads: usize) -> ServeConfig {
    ServeConfig { threads, requests: 96, seed: 7, users: USERS, vocab: 16, ..Default::default() }
}

#[test]
fn r1_replicated_engine_is_the_plain_sharded_engine() {
    let (ds, g) = dataset(71, "r1");
    let (r1_arbor, r1_bit) = build_replicated_engines(&ds, &g.0.join("r1"), 2, 1).unwrap();
    assert_eq!(r1_arbor.name(), "sharded[arbordb/2]", "R=1 must keep the unreplicated label");
    assert_eq!(r1_bit.name(), "sharded[bitgraph/2]");
    assert_eq!(r1_arbor.replica_count(), Some(1));
    let (r2_arbor, _r2_bit) = build_replicated_engines(&ds, &g.0.join("r2"), 2, 2).unwrap();
    assert_eq!(r2_arbor.name(), "sharded[arbordb/2x2]", "R>1 must be visible in the label");
    assert_eq!(r2_arbor.replica_count(), Some(2));
    let base = serve(&r1_arbor, &serve_config(1)).unwrap();
    let repl = serve(&r2_arbor, &serve_config(1)).unwrap();
    assert_eq!(base.rendered, repl.rendered, "replication must never move answer bytes");
    assert!(base.faults.is_zero());
    assert!(
        repl.faults.replica_reads > 0,
        "R=2 must actually spread reads onto replica 1: {}",
        repl.faults
    );
    assert_eq!(repl.replicas, Some(2), "the serve report must carry the replica axis");
    assert!(repl.render().contains("R=2"), "render must surface R: {}", repl.render());
}

#[test]
fn losing_a_replica_of_every_shard_fails_over_at_r2_and_fails_fast_at_r1() {
    // Real engines, Strict mode: kill replica 0 of every shard and replay
    // the healthy stream. A spare replica must absorb the loss
    // byte-identically through failover hops; a dead sole replica must
    // fail every request rather than serve a stale or partial answer.
    let (ds, g) = dataset(74, "loss");
    let shards = 2usize;
    let config = serve_config(2);
    for replicas in [1usize, 2] {
        let (arbor, bit) =
            build_replicated_engines(&ds, &g.0.join(format!("r{replicas}")), shards, replicas)
                .unwrap();
        for engine in [&arbor, &bit] {
            let healthy = serve(engine, &config).unwrap();
            assert_eq!(healthy.errors, 0, "{}: healthy run errored", engine.name());
            for shard in 0..shards {
                engine.kill_replica(shard, 0);
            }
            let lost = serve(engine, &config).unwrap();
            if replicas == 1 {
                assert_eq!(
                    lost.errors, config.requests as u64,
                    "{}: a dead sole replica must fail every request",
                    engine.name()
                );
            } else {
                assert_eq!(lost.errors, 0, "{}: failover must heal every request", engine.name());
                assert_eq!(
                    lost.digest(),
                    healthy.digest(),
                    "{}: answers changed after losing a replica of every shard",
                    engine.name()
                );
                assert!(lost.faults.failovers > 0, "{}: loss must have hopped", engine.name());
            }
        }
    }
}

#[test]
fn partial_mode_does_not_tag_replica_healed_shards() {
    // One replica of every shard dead, Partial mode: failover heals every
    // scatter leg, so NOTHING may be tagged partial — a healed shard is an
    // answered shard.
    silence_injected_panics();
    let (ds, g) = dataset(72, "healed");
    let (chaos_arbor, chaos_bit) = build_chaos_replicated_engines(
        &ds,
        &g.0.join("chaos"),
        2,
        2,
        |_, r| {
            if r == 0 {
                FaultPlan { permanent_rate: 1.0, ..FaultPlan::new(0) }
            } else {
                FaultPlan::new(0)
            }
        },
        RetryPolicy::default(),
        DegradationMode::Partial,
    )
    .unwrap();
    for engine in [&chaos_arbor, &chaos_bit] {
        let report = serve(engine, &serve_config(1)).unwrap();
        assert_eq!(report.errors, 0, "{}: failover must heal every request", engine.name());
        assert_eq!(report.degraded, 0, "{}: healed shards must not be tagged", engine.name());
        assert!(
            report.rendered.iter().all(|r| !r.contains("<coverage:")),
            "{}: no spurious partial tags",
            engine.name()
        );
        assert!(report.faults.failovers > 0, "healing must have hopped: {}", report.faults);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Coverage-tag hygiene under hostile chaos at R = 2, Partial mode:
    /// every scatter query's coverage has `answered ≤ total` and
    /// `total` = the SHARD count — replicas never inflate the denominator.
    #[test]
    fn coverage_totals_count_shards_not_replicas(seed in 0u64..4, threshold in 0i64..8) {
        silence_injected_panics();
        let (ds, g) = dataset(73 + seed, "coverage");
        let shards = 2usize;
        let (chaos_arbor, _chaos_bit) = build_chaos_replicated_engines(
            &ds,
            &g.0.join("chaos"),
            shards,
            2,
            |_, _| FaultPlan::hostile(seed),
            RetryPolicy::default(),
            DegradationMode::Partial,
        )
        .unwrap();
        let (result, stats) = fault::with_request_budget(None, || {
            chaos_arbor.users_with_followers_over(threshold)
        });
        prop_assert!(result.is_ok(), "Partial mode must answer: {result:?}");
        let cov = stats.coverage;
        prop_assert!(cov.answered <= cov.total, "a ≤ t violated: {cov:?}");
        prop_assert_eq!(
            cov.total as usize, shards,
            "coverage denominator must be the shard count, not shards × R"
        );
    }
}
