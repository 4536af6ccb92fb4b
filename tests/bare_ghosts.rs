//! Bare ghost replicas (DESIGN.md §4c): a `followers` value exists only on
//! the owner shard.
//!
//! A cross-shard edge endpoint is a ghost — a uid and nothing else — so a
//! shard's Q1.1 selection (`followers > t`) only ever returns users it
//! owns, and `ShardedEngine` concatenates the shard answers unfiltered. If
//! any write path gave a ghost a `followers` value (`ensure_user`, or the
//! follower shard's `NewFollow` bump), that ghost would be returned by two
//! shards and the sharded answer would no longer equal the monolith's.
//! This pins the invariant at every threshold edge, before and after an
//! update stream heavy in cross-shard follows and mentions, fed looped and
//! batched, over both backends, 2 and 4 shards, R = 1 and R = 2.

use micrograph_core::engine::MicroblogEngine;
use micrograph_core::ingest::{build_engines, build_replicated_engines};
use micrograph_core::shard::shard_of;
use micrograph_datagen::{generate, GenConfig, StreamGen, StreamMix, UpdateEvent};

struct Guard(std::path::PathBuf);
impl Drop for Guard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const THRESHOLDS: [i64; 6] = [i64::MIN, -1, 0, 1, 2, 64];

fn config() -> GenConfig {
    let mut cfg = GenConfig::unit();
    cfg.seed = 1707;
    cfg.users = 120;
    cfg.poster_fraction = 0.3;
    cfg.tweets_per_poster = 4;
    cfg.mentions_per_tweet = 2.0;
    cfg.tags_per_tweet = 0.8;
    cfg
}

fn q1(e: &dyn MicroblogEngine) -> Vec<Vec<i64>> {
    THRESHOLDS.iter().map(|&t| e.users_with_followers_over(t).unwrap()).collect()
}

#[test]
fn sharded_q1_equals_the_monolith_before_and_after_cross_shard_updates() {
    let cfg = config();
    let ds = generate(&cfg);
    let dir = micrograph_common::unique_temp_dir("bare-ghosts");
    let _guard = Guard(dir.clone());
    let files = ds.write_csv(&dir.join("csv")).unwrap();
    // Mostly follows and mention-carrying tweets: with 2+ shards most of
    // them cross shards, and new users get followed before and after they
    // exist on their owner.
    let mix = StreamMix { users: 5, follows: 65, tweets: 30 };
    let events: Vec<UpdateEvent> = StreamGen::new(&ds, &cfg, 17, mix).events(400);
    let apart = |a: u64, b: u64| shard_of(a as i64, 2) != shard_of(b as i64, 2);
    let crossing = events
        .iter()
        .filter(|e| match e {
            UpdateEvent::NewFollow { follower, followee } => apart(*follower, *followee),
            UpdateEvent::NewTweet { uid, mentions, .. } => mentions.iter().any(|&m| apart(*uid, m)),
            UpdateEvent::NewUser { .. } => false,
        })
        .count();
    assert!(crossing > 150, "the stream must be heavy in cross-shard writes: {crossing}");

    // A bare node made through the top-level `ensure_user`, then followed
    // from a user on another shard (at 2 and at 4 shards): the owner's
    // `bump_followers` must leave it bare, as the monolith's follow does.
    let bare = 10_000i64;
    let follower = (1..=cfg.users as i64)
        .find(|&u| shard_of(u, 2) != shard_of(bare, 2) && shard_of(u, 4) != shard_of(bare, 4))
        .expect("a user on another shard");
    let bare_follow = UpdateEvent::NewFollow { follower: follower as u64, followee: bare as u64 };

    for batch in [0usize, 32] {
        let feed = |e: &dyn MicroblogEngine| {
            e.ensure_user(bare).unwrap();
            if batch == 0 {
                e.apply_event(&bare_follow).unwrap();
                events.iter().for_each(|ev| e.apply_event(ev).unwrap());
            } else {
                e.apply_event_batch(std::slice::from_ref(&bare_follow)).unwrap();
                events.chunks(batch).for_each(|c| e.apply_event_batch(c).unwrap());
            }
        };
        let (arbor, bit, _) = build_engines(&files).unwrap();
        let before = q1(&arbor);
        assert!(before[0].len() == cfg.users as usize, "i64::MIN selects every user");
        assert_eq!(q1(&bit), before, "monolithic backends agree before updates");
        feed(&arbor);
        feed(&bit);
        let after = q1(&arbor);
        assert!(after[0].len() > before[0].len(), "the stream adds users");
        assert_ne!(after, before, "the stream moves follower counts");
        assert_eq!(q1(&bit), after, "monolithic backends agree after updates");

        for shards in [2usize, 4] {
            for replicas in [1usize, 2] {
                let tag = format!("b{batch}-s{shards}-r{replicas}");
                let (sa, sb) =
                    build_replicated_engines(&ds, &dir.join(&tag), shards, replicas).unwrap();
                for e in [&sa as &dyn MicroblogEngine, &sb] {
                    assert_eq!(q1(e), before, "{} ({tag}) before updates", e.name());
                    feed(e);
                    assert_eq!(q1(e), after, "{} ({tag}) after updates", e.name());
                }
            }
        }
    }
}
