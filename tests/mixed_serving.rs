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

use micrograph_core::engine::MicroblogEngine;
use micrograph_core::ingest::{
    build_chaos_sharded_engines, build_engines, build_sharded_engines,
};
use micrograph_core::serve::{serve, ServeConfig};
use micrograph_core::{DegradationMode, FaultPlan, RetryPolicy};
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
    // One looped copy and one batched copy of every engine shape; all
    // eight digests (2 feeds x [2 monoliths + 2-shard x 2 backends]) must
    // collapse to one.
    let (ds, g) = dataset(502, "batch");
    let files = ds.write_csv(&g.0.join("csv")).unwrap();
    let events = stream(&ds, 502, 300);
    let mut digest = None;
    for (tag, batch) in [("looped", 0usize), ("batched", 48)] {
        let (arbor, bit, _) = build_engines(&files).unwrap();
        let (sharded_arbor, sharded_bit) =
            build_sharded_engines(&ds, &g.0.join(format!("shards-{tag}")), 2).unwrap();
        for engine in
            [&arbor as &dyn MicroblogEngine, &bit, &sharded_arbor, &sharded_bit]
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
}
