//! Set-oriented kernel execution (DESIGN.md §4h): batching a kernel's uid
//! list into ONE engine call — and exchanging BFS frontiers from both
//! endpoints — are pure performance moves. This suite pins the semantic
//! half of the bargain:
//!
//! * every batched `*_kernel(uids)` answers byte-identically to the
//!   per-uid loop it replaced (`kernel(&[uid])` per uid + the documented
//!   client-side merge), across the 8-engine matrix, for adversarial uid
//!   lists (duplicates, missing users, unsorted order);
//! * the `*_counts_for_kernel` candidate probes equal the full kernel
//!   filtered to the candidate keys (the trait-default shape);
//! * an empty uid list is a valid query: empty results, never an error;
//! * Q6.1's bidirectional frontier exchange on every sharded engine
//!   returns exactly what the monolith of the same backend returns, at
//!   every max-hops cap.

use micrograph_core::engine::MicroblogEngine;
use micrograph_core::ingest::{build_engines, build_sharded_engines};
use micrograph_core::ShardedEngine;
use micrograph_datagen::{generate, GenConfig};
use proptest::prelude::*;

/// Removes the temp dir on drop.
struct Guard(std::path::PathBuf);
impl Drop for Guard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const USERS: u64 = 60;

fn base_config(seed: u64) -> GenConfig {
    let mut cfg = GenConfig::unit();
    cfg.seed = seed;
    cfg.users = USERS;
    cfg.poster_fraction = 0.4;
    cfg.tweets_per_poster = 5;
    cfg.mentions_per_tweet = 1.5;
    cfg.tags_per_tweet = 1.0;
    cfg
}

/// The 8-engine matrix (2 monoliths + 2 backends × shards ∈ {1, 2, 4}).
/// Both lists alternate arbordb, bitgraph, so `sharded[i]` runs the
/// backend of `monoliths[i % 2]`.
struct Matrix {
    monoliths: Vec<Box<dyn MicroblogEngine>>,
    sharded: Vec<ShardedEngine>,
    _guard: Guard,
}

impl Matrix {
    fn refs(&self) -> Vec<&dyn MicroblogEngine> {
        self.monoliths
            .iter()
            .map(|e| e.as_ref() as &dyn MicroblogEngine)
            .chain(self.sharded.iter().map(|e| e as &dyn MicroblogEngine))
            .collect()
    }
}

fn matrix(seed: u64) -> Matrix {
    let cfg = base_config(seed);
    let dir = micrograph_common::unique_temp_dir(&format!("setkern-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let dataset = generate(&cfg);
    let files = dataset.write_csv(&dir).unwrap();
    let (a, b, _) = build_engines(&files).unwrap();
    let monoliths: Vec<Box<dyn MicroblogEngine>> = vec![Box::new(a), Box::new(b)];
    let mut sharded = Vec::new();
    for shards in [1usize, 2, 4] {
        let (sa, sb) =
            build_sharded_engines(&dataset, &dir.join(format!("shards-{shards}")), shards)
                .unwrap();
        sharded.push(sa);
        sharded.push(sb);
    }
    Matrix { monoliths, sharded, _guard: Guard(dir) }
}

// ---- per-uid-loop baselines ------------------------------------------------
// Each reconstructs a batched kernel's contract from single-uid calls plus
// the documented client-side merge — the exact shape the adapters ran
// before batching.

fn looped_posted(e: &dyn MicroblogEngine, uids: &[i64]) -> Vec<i64> {
    let mut out = Vec::new();
    for &u in uids {
        out.extend(e.posted_tweets_kernel(&[u]).unwrap());
    }
    out.sort_unstable();
    out
}

fn looped_hashtags(e: &dyn MicroblogEngine, uids: &[i64]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for &u in uids {
        out.extend(e.hashtags_kernel(&[u]).unwrap());
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn looped_frontier(e: &dyn MicroblogEngine, uids: &[i64]) -> Vec<i64> {
    let mut out: Vec<i64> = Vec::new();
    for &u in uids {
        out.extend(e.follow_frontier_kernel(&[u]).unwrap());
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn looped_counts(
    per_uid: impl Fn(i64) -> Vec<(i64, u64)>,
    uids: &[i64],
) -> Vec<(i64, u64)> {
    let mut all: Vec<(i64, u64)> = Vec::new();
    for &u in uids {
        all.extend(per_uid(u));
    }
    all.sort_unstable();
    let mut out: Vec<(i64, u64)> = Vec::new();
    for (k, c) in all {
        match out.last_mut() {
            Some(last) if last.0 == k => last.1 += c,
            _ => out.push((k, c)),
        }
    }
    out
}

/// The trait-default candidate-probe shape: the full list filtered to the
/// ascending-sorted candidate keys.
fn filtered<K: Ord + Clone>(full: &[(K, u64)], keys: &[K]) -> Vec<(K, u64)> {
    full.iter()
        .filter(|(k, _)| keys.binary_search(k).is_ok())
        .cloned()
        .collect()
}

/// Distinct sorted keys drawn from a count list, plus some absent probes.
fn candidate_keys(full: &[(i64, u64)]) -> Vec<i64> {
    let mut keys: Vec<i64> = full.iter().step_by(2).map(|(k, _)| *k).collect();
    keys.push(-7); // never a uid
    keys.push(i64::MAX);
    keys.sort_unstable();
    keys.dedup();
    keys
}

#[test]
fn empty_uid_list_yields_empty_results_not_errors() {
    let m = matrix(301);
    for e in m.refs() {
        let none: &[i64] = &[];
        assert_eq!(e.posted_tweets_kernel(none).unwrap(), Vec::<i64>::new(), "{}", e.name());
        assert_eq!(e.hashtags_kernel(none).unwrap(), Vec::<String>::new(), "{}", e.name());
        assert_eq!(e.count_followees_kernel(none).unwrap(), vec![], "{}", e.name());
        assert_eq!(e.count_followers_kernel(none).unwrap(), vec![], "{}", e.name());
        assert_eq!(e.follow_frontier_kernel(none).unwrap(), Vec::<i64>::new(), "{}", e.name());
        // Candidate probes with an empty key list are empty too.
        assert_eq!(e.co_mention_counts_for_kernel(1, &[]).unwrap(), vec![], "{}", e.name());
        assert_eq!(e.count_followees_counts_for_kernel(&[1], &[]).unwrap(), vec![], "{}", e.name());
        assert_eq!(e.count_followers_counts_for_kernel(&[1], &[]).unwrap(), vec![], "{}", e.name());
        assert_eq!(
            e.co_tag_counts_for_kernel("tag1", &[]).unwrap(),
            vec![],
            "{}",
            e.name()
        );
    }
}

#[test]
fn duplicate_uids_count_per_occurrence() {
    // The kernel contract is per-OCCURRENCE: a uid listed twice
    // contributes twice to count kernels and posted-tweet concatenation
    // (the `IN` dedup inside the batched query must be compensated
    // client-side). Checked against the looped baseline on a list that is
    // nothing but duplicates.
    let m = matrix(302);
    let uids = [3i64, 3, 3, 7, 7];
    for e in m.refs() {
        assert_eq!(
            e.posted_tweets_kernel(&uids).unwrap(),
            looped_posted(e, &uids),
            "{}: posted",
            e.name()
        );
        assert_eq!(
            e.count_followees_kernel(&uids).unwrap(),
            looped_counts(|u| e.count_followees_kernel(&[u]).unwrap(), &uids),
            "{}: followee counts",
            e.name()
        );
        assert_eq!(
            e.count_followers_kernel(&uids).unwrap(),
            looped_counts(|u| e.count_followers_kernel(&[u]).unwrap(), &uids),
            "{}: follower counts",
            e.name()
        );
    }
}

#[test]
fn bidirectional_bfs_matches_the_monolith() {
    let m = matrix(303);
    let pairs =
        [(1i64, 2i64), (3, 50), (10, 55), (5, 5), (7, 59), (40, 2), (1, 99999), (99999, 1)];
    for (i, s) in m.sharded.iter().enumerate() {
        let mono = m.monoliths[i % 2].as_ref();
        assert!(s.name().contains(mono.name()), "{} vs {}", s.name(), mono.name());
        for (a, b) in pairs {
            for max in [0u32, 1, 2, 3, 4, 6, 10] {
                assert_eq!(
                    mono.shortest_path_len(a, b, max).unwrap(),
                    s.shortest_path_len(a, b, max).unwrap(),
                    "{}: {a}->{b} max {max}: frontier exchange diverged from {}",
                    s.name(),
                    mono.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random uid lists — unsorted, with duplicates and missing users
    /// — every batched kernel equals its per-uid loop, and every
    /// candidate probe equals the filtered full kernel, on all 8 engines.
    #[test]
    fn batched_kernels_match_per_uid_loops(
        seed in 310u64..340,
        uids in prop::collection::vec(0i64..(USERS as i64 + 10), 1..10),
    ) {
        let m = matrix(seed);
        for e in m.refs() {
            let at = format!("seed {seed}: {}", e.name());
            let posted = e.posted_tweets_kernel(&uids).unwrap();
            prop_assert!(posted == looped_posted(e, &uids), "{at}: posted");
            let tags = e.hashtags_kernel(&uids).unwrap();
            prop_assert!(tags == looped_hashtags(e, &uids), "{at}: hashtags");
            let full_out = e.count_followees_kernel(&uids).unwrap();
            let looped = looped_counts(|u| e.count_followees_kernel(&[u]).unwrap(), &uids);
            prop_assert!(full_out == looped, "{at}: followee counts");
            let full_in = e.count_followers_kernel(&uids).unwrap();
            let looped = looped_counts(|u| e.count_followers_kernel(&[u]).unwrap(), &uids);
            prop_assert!(full_in == looped, "{at}: follower counts");
            let frontier = e.follow_frontier_kernel(&uids).unwrap();
            prop_assert!(frontier == looped_frontier(e, &uids), "{at}: frontier");
            // Candidate probes against the filtered full kernels.
            let keys = candidate_keys(&full_out);
            let probe = e.count_followees_counts_for_kernel(&uids, &keys).unwrap();
            prop_assert!(probe == filtered(&full_out, &keys), "{at}: followee counts_for probe");
            let keys = candidate_keys(&full_in);
            let probe = e.count_followers_counts_for_kernel(&uids, &keys).unwrap();
            prop_assert!(probe == filtered(&full_in, &keys), "{at}: follower counts_for probe");
            let full_cm = e.co_mention_counts_kernel(uids[0]).unwrap();
            let keys = candidate_keys(&full_cm);
            let probe = e.co_mention_counts_for_kernel(uids[0], &keys).unwrap();
            prop_assert!(probe == filtered(&full_cm, &keys), "{at}: co-mention counts_for probe");
            let full_ct = e.co_tag_counts_kernel("tag1").unwrap();
            let mut tag_keys: Vec<String> =
                full_ct.iter().step_by(2).map(|(k, _)| k.clone()).collect();
            tag_keys.push("zz-no-such-tag".to_owned());
            tag_keys.sort();
            tag_keys.dedup();
            let probe = e.co_tag_counts_for_kernel("tag1", &tag_keys).unwrap();
            prop_assert!(probe == filtered(&full_ct, &tag_keys), "{at}: co-tag counts_for probe");
        }
    }
}
