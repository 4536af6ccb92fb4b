//! Mixed read/write serving (DESIGN.md §4j): group-commit write batching
//! is a pure performance toggle, and snapshot reads stay batch-atomic.
//!
//! * Feeding the same event stream through `apply_event_batch` (group
//!   commit) vs the per-event loop leaves every engine in byte-identical
//!   state, across the engine matrix and for adversarial batch sizes.
//! * A mid-batch failure commits exactly the batch's successful prefix —
//!   the same state and the same error text as the looped oracle, in BOTH
//!   adapters.
//! * Readers racing a write burst only ever observe batch-atomic states
//!   (commits publish whole batches, never partial).
//! * Under transient chaos with retries, batches are never double-applied:
//!   the chaos gate fires before mutation, so a retried batch reruns
//!   against pre-batch state.
//! * Compiled sharded batches (one op list per shard) keep the same
//!   contract: the looped feed's error text and exactly its prefix state,
//!   at 2 and 4 shards, R = 1 and 2, for every kind of invalid event.

use std::hash::{Hash, Hasher};

use arbordb::db::DbConfig;
use arbordb::import::ImportOptions;
use micrograph_core::engine::MicroblogEngine;
use micrograph_core::ingest::{
    build_chaos_sharded_engines, build_engines, build_replicated_engines, build_sharded_engines,
    ingest_arbor,
};
use micrograph_core::serve::{serve, ServeConfig};
use micrograph_core::shard::shard_of;
use micrograph_core::{ArborEngine, DegradationMode, FaultPlan, RetryPolicy};
use micrograph_datagen::{generate, Dataset, GenConfig, StreamGen, StreamMix, UpdateEvent};
use proptest::prelude::*;

struct Guard(std::path::PathBuf);
impl Drop for Guard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const USERS: u64 = 100;

fn base_config(seed: u64) -> GenConfig {
    let mut cfg = GenConfig::unit();
    cfg.seed = seed;
    cfg.users = USERS;
    cfg.poster_fraction = 0.3;
    cfg.tweets_per_poster = 4;
    cfg.mentions_per_tweet = 1.2;
    cfg.tags_per_tweet = 0.8;
    cfg
}

fn dataset(seed: u64, tag: &str) -> (Dataset, Guard) {
    let dir = micrograph_common::unique_temp_dir(&format!("mixed-serving-{tag}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    (generate(&base_config(seed)), Guard(dir))
}

fn stream(dataset: &Dataset, seed: u64, n: usize) -> Vec<UpdateEvent> {
    StreamGen::new(dataset, &base_config(seed), seed, StreamMix::default()).events(n)
}

fn serve_config() -> ServeConfig {
    ServeConfig { threads: 2, requests: 96, seed: 11, users: USERS, vocab: 16, ..Default::default() }
}

fn feed_batched(e: &dyn MicroblogEngine, events: &[UpdateEvent], batch: usize) {
    for chunk in events.chunks(batch) {
        e.apply_event_batch(chunk).unwrap();
    }
}

fn feed_looped(e: &dyn MicroblogEngine, events: &[UpdateEvent]) {
    for event in events {
        e.apply_event(event).unwrap();
    }
}

#[test]
fn batch_flip_is_pure_performance_across_the_matrix() {
    // One looped copy and two batched copies (batch 48, and batch 256,
    // which spans most of the stream in one group commit) of every engine
    // shape; all fifteen digests (3 feeds x [2 monoliths + an on-disk
    // arbordb monolith, whose group commit really writes its buffered WAL
    // + 2-shard x 2 backends]) must collapse to one.
    let (ds, g) = dataset(502, "batch");
    let files = ds.write_csv(&g.0.join("csv")).unwrap();
    let events = stream(&ds, 502, 300);
    let mut digest = None;
    for (tag, batch) in [("looped", 0usize), ("batched-48", 48), ("batched-256", 256)] {
        let (arbor, bit, _) = build_engines(&files).unwrap();
        let (db, _) = ingest_arbor(
            &files,
            Some(&g.0.join(format!("arbordb-{tag}"))),
            DbConfig::default(),
            &ImportOptions::default(),
        )
        .unwrap();
        let on_disk = ArborEngine::new(db);
        let (sharded_arbor, sharded_bit) =
            build_sharded_engines(&ds, &g.0.join(format!("shards-{tag}")), 2).unwrap();
        for engine in
            [&arbor as &dyn MicroblogEngine, &bit, &on_disk, &sharded_arbor, &sharded_bit]
        {
            if batch == 0 {
                feed_looped(engine, &events);
            } else {
                feed_batched(engine, &events, batch);
            }
            let d = serve(engine, &serve_config()).unwrap().digest();
            assert_eq!(
                *digest.get_or_insert(d),
                d,
                "{} ({tag}) diverged from the matrix",
                engine.name()
            );
        }
    }
}

#[test]
fn mid_batch_failure_commits_exactly_the_looped_prefix() {
    // A batch whose k-th event is invalid must fail with the looped
    // oracle's error text and leave exactly the looped prefix's state —
    // in BOTH adapters (savepoint rollback on arbordb, staged-mutation
    // rollforward-free prefix on bitgraph).
    let (ds, g) = dataset(503, "midfail");
    let files = ds.write_csv(&g.0.join("csv")).unwrap();
    let good = stream(&ds, 503, 40);
    let poison = UpdateEvent::NewFollow { follower: 9_999_999, followee: 1 };
    for split in [0usize, 17, 39] {
        let mut batch = good.clone();
        batch.insert(split, poison.clone());
        let (arbor_b, bit_b, _) = build_engines(&files).unwrap();
        let (arbor_l, bit_l, _) = build_engines(&files).unwrap();
        let mut errors = Vec::new();
        for (batched, looped) in [
            (&arbor_b as &dyn MicroblogEngine, &arbor_l as &dyn MicroblogEngine),
            (&bit_b, &bit_l),
        ] {
            let batch_err = batched.apply_event_batch(&batch).unwrap_err().to_string();
            let mut loop_err = None;
            for event in &batch {
                if let Err(e) = looped.apply_event(event) {
                    loop_err = Some(e.to_string());
                    break;
                }
            }
            assert_eq!(
                batch_err,
                loop_err.expect("looped feed must hit the poison event"),
                "{}: batched and looped error texts differ at split {split}",
                batched.name()
            );
            errors.push(batch_err);
            let d_batched = serve(batched, &serve_config()).unwrap().digest();
            let d_looped = serve(looped, &serve_config()).unwrap().digest();
            assert_eq!(
                d_batched, d_looped,
                "{}: failed batch did not leave the looped prefix state at split {split}",
                batched.name()
            );
        }
        // The two adapters must agree on the error itself.
        assert_eq!(errors[0], errors[1], "adapters disagree on the poison error");
    }
}

/// A state fingerprint finer than the sampled serve digest: the serve
/// digest, plus every user's followees, posted tweets and follower count —
/// over the dataset's users and every uid `events` name.
fn state_fingerprint(e: &dyn MicroblogEngine, ds: &Dataset, events: &[UpdateEvent]) -> u64 {
    let mut uids: Vec<i64> = ds.users.iter().map(|u| u.uid as i64).collect();
    for event in events {
        match event {
            UpdateEvent::NewUser { uid, .. } => uids.push(*uid as i64),
            UpdateEvent::NewFollow { follower, followee } => {
                uids.extend([*follower as i64, *followee as i64])
            }
            UpdateEvent::NewTweet { uid, mentions, .. } => {
                uids.push(*uid as i64);
                uids.extend(mentions.iter().map(|&m| m as i64));
            }
        }
    }
    uids.sort_unstable();
    uids.dedup();
    let followees: Vec<_> = uids.iter().map(|&u| e.followees(u).unwrap()).collect();
    // Q1.1 at every threshold up to the largest count pins every count.
    let over: Vec<_> = (-1..)
        .map(|t| e.users_with_followers_over(t).unwrap())
        .take_while(|above| !above.is_empty())
        .collect();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    serve(e, &serve_config()).unwrap().digest().hash(&mut h);
    (followees, e.posted_tweets_kernel(&uids).unwrap(), over).hash(&mut h);
    h.finish()
}

/// The looped oracle for one batch: `apply_event` per event, stopping at
/// the first failure, whose error text it returns.
fn looped_until_error(e: &dyn MicroblogEngine, batch: &[UpdateEvent]) -> Option<String> {
    batch.iter().find_map(|event| e.apply_event(event).err().map(|err| err.to_string()))
}

/// The first uid at or past `from` that `pick` accepts under `shards`.
fn uid_where(from: u64, shards: usize, pick: impl Fn(usize) -> bool) -> u64 {
    (from..).find(|&u| pick(shard_of(u as i64, shards))).expect("some uid qualifies")
}

#[test]
fn sharded_mid_batch_failure_commits_exactly_the_looped_prefix() {
    // The compiled sharded batch (validate users, one op list per shard,
    // tag checks on the home shard) must fail with the looped oracle's
    // error text and leave exactly the looped prefix's state — the same
    // serve digest and per-user state as the looped feed of the same
    // composition and of the monolith — for every kind of poison,
    // wherever it sits in the batch.
    let (ds, g) = dataset(506, "sharded-midfail");
    let files = ds.write_csv(&g.0.join("csv")).unwrap();
    let good = stream(&ds, 506, 40);
    let (home, tag) = (ds.users[0].uid, ds.hashtags[0].clone());
    for shards in [2usize, 4] {
        let home_shard = shard_of(home as i64, shards);
        let foreign = ds
            .users
            .iter()
            .map(|u| u.uid)
            .find(|&u| shard_of(u as i64, shards) != home_shard)
            .expect("a user on another shard");
        let poisons: [(&str, Vec<UpdateEvent>); 4] = [
            (
                "unknown follower on the followee's shard",
                vec![UpdateEvent::NewFollow {
                    follower: uid_where(9_000_000, shards, |s| s == home_shard),
                    followee: home,
                }],
            ),
            (
                "unknown follower on another shard",
                vec![UpdateEvent::NewFollow {
                    follower: uid_where(9_000_000, shards, |s| s != home_shard),
                    followee: home,
                }],
            ),
            (
                "unknown mention on a cross-shard tweet",
                vec![UpdateEvent::NewTweet {
                    tid: 8_000_001,
                    uid: home,
                    text: "poison".into(),
                    mentions: vec![foreign, 9_999_999],
                    tags: vec![tag.clone()],
                }],
            ),
            (
                "unknown hashtag, then a cross-shard follow",
                vec![
                    UpdateEvent::NewTweet {
                        tid: 8_000_002,
                        uid: home,
                        text: "poison".into(),
                        mentions: vec![],
                        tags: vec![tag.clone(), "no-such-tag".into()],
                    },
                    UpdateEvent::NewFollow { follower: home, followee: foreign },
                ],
            ),
        ];
        for (case, poison) in &poisons {
            for split in [0usize, 17, 39] {
                let mut batch = good.clone();
                batch.splice(split..split, poison.iter().cloned());
                let (arbor, bit, _) = build_engines(&files).unwrap();
                let dir = |tag: &str| g.0.join(format!("{shards}-{split}-{tag}"));
                let (arbor_b, bit_b) = build_sharded_engines(&ds, &dir("batched"), shards).unwrap();
                let (arbor_l, bit_l) = build_sharded_engines(&ds, &dir("looped"), shards).unwrap();
                for (mono, batched, looped) in [
                    (&arbor as &dyn MicroblogEngine, &arbor_b, &arbor_l),
                    (&bit, &bit_b, &bit_l),
                ] {
                    let at = format!("{} at {shards} shards, split {split}: {case}", batched.name());
                    let batch_err = batched.apply_event_batch(&batch).unwrap_err().to_string();
                    let loop_err = looped_until_error(looped, &batch);
                    assert_eq!(Some(&batch_err), loop_err.as_ref(), "{at}: error texts differ");
                    assert_eq!(looped_until_error(mono, &batch), loop_err, "{at}: monolith error");
                    let state = |e: &dyn MicroblogEngine| state_fingerprint(e, &ds, &batch);
                    let d = state(batched);
                    assert_eq!(d, state(looped), "{at}: not the looped prefix state");
                    assert_eq!(d, state(mono), "{at}: not the monolith's looped prefix state");
                }
            }
        }
    }
}

#[test]
fn readers_only_observe_batch_atomic_states_during_burst() {
    // A writer lands batches of exactly K follows for one fresh user while
    // readers poll that user's followee list through the snapshot path.
    // Group commit publishes whole batches, so every observed length must
    // be a multiple of K — no reader ever sees a half-applied batch.
    const K: usize = 10;
    const BATCHES: usize = 8;
    let (ds, g) = dataset(504, "atomic");
    let files = ds.write_csv(&g.0.join("csv")).unwrap();
    let (_arbor, bit, _) = build_engines(&files).unwrap();
    let fresh = 50_000u64;
    bit.apply_event(&UpdateEvent::NewUser { uid: fresh, name: "burst".into() }).unwrap();
    let batches: Vec<Vec<UpdateEvent>> = (0..BATCHES)
        .map(|b| {
            (0..K)
                .map(|i| UpdateEvent::NewFollow {
                    follower: fresh,
                    followee: (b * K + i) as u64 % USERS + 1,
                })
                .collect()
        })
        .collect();
    let engine = &bit as &dyn MicroblogEngine;
    let done = std::sync::atomic::AtomicBool::new(false);
    let done = &done;
    let observed = std::thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(move || {
                    let mut seen = Vec::new();
                    while !done.load(std::sync::atomic::Ordering::Acquire) {
                        seen.push(engine.followees(fresh as i64).unwrap().len());
                    }
                    seen.push(engine.followees(fresh as i64).unwrap().len());
                    seen
                })
            })
            .collect();
        for batch in &batches {
            engine.apply_event_batch(batch).unwrap();
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        readers.into_iter().flat_map(|h| h.join().unwrap()).collect::<Vec<_>>()
    });
    for len in &observed {
        assert_eq!(len % K, 0, "reader saw a half-applied batch: {len} follows");
    }
    assert_eq!(engine.followees(fresh as i64).unwrap().len(), BATCHES * K);
}

#[test]
fn chaos_retries_never_double_apply_batches() {
    // Transient faults fire on the per-batch gate BEFORE any mutation, so
    // a retried batch reruns against pre-batch state. If the gate fired
    // after mutation, retried NewFollow events would double-bump follower
    // counts and the digests would split.
    micrograph_core::fault::silence_injected_panics();
    let (ds, g) = dataset(505, "chaos");
    let (clean_arbor, clean_bit) = build_sharded_engines(&ds, &g.0.join("clean"), 2).unwrap();
    let (chaos_arbor, chaos_bit) = build_chaos_sharded_engines(
        &ds,
        &g.0.join("chaos"),
        2,
        FaultPlan::transient(9),
        RetryPolicy::default(),
        DegradationMode::Strict,
    )
    .unwrap();
    let events = stream(&ds, 505, 240);
    for engine in [&clean_arbor, &clean_bit, &chaos_arbor, &chaos_bit] {
        feed_batched(engine, &events, 24);
    }
    let clean = serve(&clean_arbor, &serve_config()).unwrap().digest();
    for (chaos, clean_ref) in [(&chaos_arbor, &clean_arbor), (&chaos_bit, &clean_bit)] {
        let d = serve(chaos, &serve_config()).unwrap();
        assert_eq!(d.digest(), clean, "{} diverged under chaos batching", chaos.name());
        assert_eq!(
            serve(clean_ref, &serve_config()).unwrap().digest(),
            clean,
            "{} clean twin diverged",
            clean_ref.name()
        );
        assert!(
            chaos.fault_stats().total_injected() > 0,
            "{}: the chaos plan never fired — the test is vacuous",
            chaos.name()
        );
    }
}

/// An invalid event of kind `kind` (unknown follower, unknown followee,
/// unknown poster, unknown mention, unknown hashtag), built around the
/// dataset's users so its valid references spread across shards.
fn poison(ds: &Dataset, kind: usize, pos: usize) -> UpdateEvent {
    let valid = ds.users[pos % ds.users.len()].uid;
    let other = ds.users[(pos * 7 + 3) % ds.users.len()].uid;
    let unknown = 9_000_000 + pos as u64;
    let tweet = |uid, mentions: Vec<u64>, tags: Vec<String>| UpdateEvent::NewTweet {
        tid: 8_000_000 + pos as u64,
        uid,
        text: "poison".into(),
        mentions,
        tags,
    };
    match kind {
        0 => UpdateEvent::NewFollow { follower: unknown, followee: valid },
        1 => UpdateEvent::NewFollow { follower: valid, followee: unknown },
        2 => tweet(unknown, vec![other], vec![]),
        3 => tweet(valid, vec![other, unknown], vec![]),
        _ => tweet(valid, vec![other], vec![ds.hashtags[0].clone(), "no-such-tag".into()]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batched ≡ looped for random streams and adversarial batch sizes,
    /// in both adapters — the group-commit contract under fuzzing.
    #[test]
    fn prop_batched_equals_looped(seed in 600u64..640, batch in 1usize..96) {
        let (ds, g) = dataset(seed, "prop");
        let files = ds.write_csv(&g.0.join("csv")).unwrap();
        let events = stream(&ds, seed, 160);
        let (arbor_b, bit_b, _) = build_engines(&files).unwrap();
        let (arbor_l, bit_l, _) = build_engines(&files).unwrap();
        for (batched, looped) in [
            (&arbor_b as &dyn MicroblogEngine, &arbor_l as &dyn MicroblogEngine),
            (&bit_b, &bit_l),
        ] {
            feed_batched(batched, &events, batch);
            feed_looped(looped, &events);
            let d_batched = serve(batched, &serve_config()).unwrap().digest();
            let d_looped = serve(looped, &serve_config()).unwrap().digest();
            prop_assert_eq!(
                d_batched, d_looped,
                "{}: batch size {} changed the served answers", batched.name(), batch
            );
        }
    }

    /// Compiled sharded batches ≡ the looped `apply_event` feed of the same
    /// composition, for random streams salted with invalid events of every
    /// kind, across both backends, 2 and 4 shards and R ∈ {1, 2}: the same
    /// error text per batch and the same state after the stream (serve digest
    /// plus a per-user fingerprint).
    #[test]
    fn prop_compiled_equals_looped(
        seed in 700u64..740,
        wide in any::<bool>(),
        replicas in 1usize..3,
        batch in 1usize..48,
        poisons in prop::collection::vec((0usize..120, 0usize..5), 1..6),
    ) {
        let shards = if wide { 4 } else { 2 };
        let (ds, g) = dataset(seed, "prop-compiled");
        let mut events = stream(&ds, seed, 120);
        for &(pos, kind) in &poisons {
            events.insert(pos.min(events.len()), poison(&ds, kind, pos));
        }
        let (arbor_b, bit_b) =
            build_replicated_engines(&ds, &g.0.join("batched"), shards, replicas).unwrap();
        let (arbor_l, bit_l) =
            build_replicated_engines(&ds, &g.0.join("looped"), shards, replicas).unwrap();
        for (batched, looped) in [(&arbor_b, &arbor_l), (&bit_b, &bit_l)] {
            for (i, chunk) in events.chunks(batch).enumerate() {
                let err = batched.apply_event_batch(chunk).err().map(|e| e.to_string());
                prop_assert_eq!(
                    err, looped_until_error(looped, chunk),
                    "{}: batch {} (size {}) failed differently", batched.name(), i, batch
                );
            }
            prop_assert_eq!(
                state_fingerprint(batched, &ds, &events),
                state_fingerprint(looped, &ds, &events),
                "{}: compiled batches of {} left another state", batched.name(), batch
            );
        }
    }
}
