//! The generator proper.

use std::collections::HashSet;

use micrograph_common::rng::{PowerLaw, SplitMix64, Zipf};

use crate::dataset::{Dataset, Tweet, User};
use crate::text::TextGen;
use crate::GenConfig;

/// Generates a dataset from `config` (deterministic in the seed).
pub fn generate(config: &GenConfig) -> Dataset {
    let mut rng = SplitMix64::new(config.seed);
    let n = config.users as usize;
    assert!(n >= 2, "need at least two users");

    // ---- Follower graph: power-law out-degrees, preferential targets -----
    //
    // Each user draws an out-degree from a bounded power law whose mean is
    // rescaled to `avg_followees`; targets are sampled with preferential
    // attachment (probability ∝ in-degree so far), which yields the
    // heavy-tailed *in*-degree (follower counts) the workload depends on.
    let max_deg = (n as u64 - 1).min(((n as f64).sqrt() as u64 * 40).max(64));
    let law = PowerLaw::new(1, max_deg, config.degree_exponent);
    let mut out_deg: Vec<u64> = (0..n).map(|_| law.sample(&mut rng)).collect();
    let raw_mean = out_deg.iter().sum::<u64>() as f64 / n as f64;
    let scale = config.avg_followees / raw_mean;
    for d in out_deg.iter_mut() {
        let scaled = (*d as f64 * scale).round() as u64;
        *d = scaled.clamp(1, n as u64 - 1);
    }

    // Preferential-attachment urn: seeded with every user once (so isolated
    // users can still be followed), grown with each edge's target.
    let mut urn: Vec<u32> = (0..n as u32).collect();
    let mut follows: Vec<(u64, u64)> = Vec::with_capacity(out_deg.iter().sum::<u64>() as usize);
    let mut followees: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut followers_count: Vec<u32> = vec![0; n];
    let mut chosen: HashSet<u32> = HashSet::new();
    for u in 0..n {
        chosen.clear();
        chosen.insert(u as u32);
        let want = out_deg[u] as usize;
        let mut attempts = 0usize;
        while chosen.len() - 1 < want && attempts < want * 20 {
            attempts += 1;
            let v = if rng.chance(0.95) {
                urn[rng.next_below(urn.len() as u64) as usize]
            } else {
                rng.next_below(n as u64) as u32
            };
            if !chosen.insert(v) {
                continue;
            }
            follows.push((u as u64 + 1, v as u64 + 1));
            followees[u].push(v);
            followers_count[v as usize] += 1;
            // Double insertion strengthens the rich-get-richer effect,
            // pushing the in-degree tail toward real follower-count skew.
            urn.push(v);
            urn.push(v);
        }
    }

    // ---- Users ------------------------------------------------------------
    // Verified ≈ top 1% by follower count.
    let mut by_followers: Vec<usize> = (0..n).collect();
    by_followers.sort_by_key(|&i| std::cmp::Reverse(followers_count[i]));
    let verified_cut = (n / 100).max(1);
    let mut verified = vec![false; n];
    for &i in by_followers.iter().take(verified_cut) {
        verified[i] = true;
    }
    let users: Vec<User> = (0..n)
        .map(|i| User {
            uid: i as u64 + 1,
            name: format!("user{}", i + 1),
            followers: followers_count[i],
            verified: verified[i],
        })
        .collect();

    // ---- Posters: the highest-out-degree users (paper: "users who have at
    // least 100 followees"). -------------------------------------------------
    let mut by_out: Vec<usize> = (0..n).collect();
    by_out.sort_by_key(|&i| std::cmp::Reverse(followees[i].len()));
    let posters: Vec<usize> = by_out.into_iter().take(config.poster_count() as usize).collect();

    // ---- Tweets, mentions, tags, retweets ----------------------------------
    let vocab = config.effective_vocab() as usize;
    let hashtags: Vec<String> = (0..vocab).map(|i| format!("tag{}", i + 1)).collect();
    let tag_zipf = Zipf::new(vocab, config.hashtag_zipf);
    // Globally popular mention targets: Zipf over the follower ranking.
    let global_zipf = Zipf::new(n.min(10_000), 1.0);
    let textgen = TextGen::new();

    let mut tweets: Vec<Tweet> = Vec::new();
    let mut mentions: Vec<(u64, u64)> = Vec::new();
    let mut tags: Vec<(u64, usize)> = Vec::new();
    let mut retweets: Vec<(u64, u64)> = Vec::new();
    let mut tweets_by_user: Vec<Vec<u64>> = vec![Vec::new(); n];

    let mut tid = 0u64;
    for &poster in &posters {
        for _ in 0..config.tweets_per_poster {
            tid += 1;
            // Mentions: geometric-ish count with the configured mean.
            let mut tweet_mentions: Vec<usize> = Vec::new();
            while rng.next_f64() < config.mentions_per_tweet / (1.0 + config.mentions_per_tweet) {
                let target = if !followees[poster].is_empty() && rng.chance(config.mention_locality)
                {
                    followees[poster][rng.next_below(followees[poster].len() as u64) as usize]
                        as usize
                } else {
                    by_followers[global_zipf.sample(&mut rng) % n]
                };
                if target != poster {
                    tweet_mentions.push(target);
                }
                if tweet_mentions.len() >= 5 {
                    break;
                }
            }
            let mut tweet_tags: Vec<usize> = Vec::new();
            while rng.next_f64() < config.tags_per_tweet / (1.0 + config.tags_per_tweet) {
                tweet_tags.push(tag_zipf.sample(&mut rng));
                if tweet_tags.len() >= 3 {
                    break;
                }
            }
            tweet_tags.sort_unstable();
            tweet_tags.dedup();

            // Retweet?
            let is_retweet = config.with_retweets
                && rng.chance(config.retweet_fraction)
                && followees[poster]
                    .iter()
                    .any(|&f| !tweets_by_user[f as usize].is_empty());
            if is_retweet {
                // Retweet a random earlier tweet of a followee.
                let candidates: Vec<u64> = followees[poster]
                    .iter()
                    .flat_map(|&f| tweets_by_user[f as usize].iter().copied())
                    .collect();
                let orig = candidates[rng.next_below(candidates.len() as u64) as usize];
                retweets.push((tid, orig));
            }

            let mention_names: Vec<String> =
                tweet_mentions.iter().map(|&u| format!("user{}", u + 1)).collect();
            let tag_names: Vec<String> =
                tweet_tags.iter().map(|&h| hashtags[h].clone()).collect();
            let text = textgen.tweet(&mut rng, &mention_names, &tag_names);

            for &m in &tweet_mentions {
                mentions.push((tid, m as u64 + 1));
            }
            for &h in &tweet_tags {
                tags.push((tid, h));
            }
            tweets.push(Tweet { tid, uid: poster as u64 + 1, text });
            tweets_by_user[poster].push(tid);
        }
    }

    Dataset { users, tweets, hashtags, follows, mentions, tags, retweets, ghosts: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let c = GenConfig::unit();
        let a = generate(&c);
        let b = generate(&c);
        assert_eq!(a.follows, b.follows);
        assert_eq!(a.tweets.len(), b.tweets.len());
        assert_eq!(a.tweets.first().map(|t| t.text.clone()), b.tweets.first().map(|t| t.text.clone()));
        let mut c2 = GenConfig::unit();
        c2.seed += 1;
        let c_ds = generate(&c2);
        assert_ne!(a.follows, c_ds.follows, "different seed, different graph");
    }

    #[test]
    fn referential_integrity() {
        let d = generate(&GenConfig::small());
        let nu = d.users.len() as u64;
        let nt = d.tweets.len() as u64;
        for &(a, b) in &d.follows {
            assert!(a >= 1 && a <= nu && b >= 1 && b <= nu);
            assert_ne!(a, b, "no self-follows");
        }
        for &(t, u) in &d.mentions {
            assert!(t >= 1 && t <= nt && u >= 1 && u <= nu);
        }
        for &(t, h) in &d.tags {
            assert!(t >= 1 && t <= nt);
            assert!(h < d.hashtags.len());
        }
        for tw in &d.tweets {
            assert!(tw.uid >= 1 && tw.uid <= nu);
        }
    }

    #[test]
    fn no_duplicate_follows() {
        let d = generate(&GenConfig::small());
        let mut seen = std::collections::HashSet::new();
        for &e in &d.follows {
            assert!(seen.insert(e), "duplicate follow edge {e:?}");
        }
    }

    #[test]
    fn follower_counts_consistent_with_edges() {
        let d = generate(&GenConfig::small());
        let mut counts = vec![0u32; d.users.len() + 1];
        for &(_, b) in &d.follows {
            counts[b as usize] += 1;
        }
        for u in &d.users {
            assert_eq!(u.followers, counts[u.uid as usize], "uid {}", u.uid);
        }
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let d = generate(&GenConfig::small());
        let max_followers = d.users.iter().map(|u| u.followers).max().unwrap();
        let mean = d.follows.len() as f64 / d.users.len() as f64;
        assert!(
            (max_followers as f64) > mean * 6.0,
            "max in-degree {max_followers} should dwarf mean {mean}"
        );
        // Mean out-degree lands near the configured target.
        assert!((mean - 11.5).abs() < 5.0, "mean degree {mean}");
    }

    #[test]
    fn follows_dominate_edge_mix() {
        let d = generate(&GenConfig::small());
        let frac = d.stats().follows_fraction();
        assert!(frac > 0.6, "follows fraction {frac} (paper: ~0.87)");
    }

    #[test]
    fn mentions_and_tags_ratios() {
        let d = generate(&GenConfig::medium());
        let s = d.stats();
        let mpt = s.mentions as f64 / s.tweets as f64;
        let tpt = s.tags as f64 / s.tweets as f64;
        assert!(mpt > 0.2 && mpt < 0.9, "mentions/tweet {mpt} (target 0.46)");
        assert!(tpt > 0.15 && tpt < 0.6, "tags/tweet {tpt} (target 0.30)");
    }

    #[test]
    fn retweets_generated_when_enabled() {
        let mut c = GenConfig::small();
        c.with_retweets = true;
        c.retweet_fraction = 0.5;
        let d = generate(&c);
        assert!(!d.retweets.is_empty());
        let nt = d.tweets.len() as u64;
        for &(rt, orig) in &d.retweets {
            assert!(rt >= 1 && rt <= nt && orig >= 1 && orig <= nt);
            assert!(orig < rt, "retweets reference earlier tweets");
        }
        // Default config has none.
        assert!(generate(&GenConfig::small()).retweets.is_empty());
    }

    #[test]
    fn verified_is_top_percent() {
        let d = generate(&GenConfig::small());
        let nv = d.users.iter().filter(|u| u.verified).count();
        assert!(nv >= 1 && nv <= d.users.len() / 50, "verified count {nv}");
        let min_verified =
            d.users.iter().filter(|u| u.verified).map(|u| u.followers).min().unwrap();
        let max_unverified =
            d.users.iter().filter(|u| !u.verified).map(|u| u.followers).max().unwrap();
        assert!(min_verified >= max_unverified.saturating_sub(1));
    }

    #[test]
    fn posters_are_high_outdegree_users() {
        let d = generate(&GenConfig::small());
        let mut outdeg = std::collections::HashMap::new();
        for &(a, _) in &d.follows {
            *outdeg.entry(a).or_insert(0u32) += 1;
        }
        let poster_uids: std::collections::HashSet<u64> =
            d.tweets.iter().map(|t| t.uid).collect();
        let poster_mean: f64 = poster_uids.iter().map(|u| outdeg[u] as f64).sum::<f64>()
            / poster_uids.len() as f64;
        let global_mean = d.follows.len() as f64 / d.users.len() as f64;
        assert!(
            poster_mean > global_mean,
            "posters should skew to high out-degree: {poster_mean} vs {global_mean}"
        );
    }
}

#[cfg(test)]
mod paper_shape_tests {
    use super::*;

    #[test]
    fn paper_shape_preserves_table1_ratios() {
        // 1/2000 of the crawl: ~12.4k users. Ratios must track Table 1.
        let d = generate(&GenConfig::paper_shape(2000));
        let s = d.stats();
        assert_eq!(s.users, 24_789_792 / 2000);
        let follows_per_user = s.follows as f64 / s.users as f64;
        assert!(
            (follows_per_user - 11.5).abs() < 2.0,
            "follows/user {follows_per_user} (paper 11.46)"
        );
        assert!(s.follows_fraction() > 0.8, "follows dominate: {}", s.follows_fraction());
        let mentions_pt = s.mentions as f64 / s.tweets as f64;
        assert!((mentions_pt - 0.46).abs() < 0.2, "mentions/tweet {mentions_pt}");
        let hashtag_frac = s.hashtags as f64 / s.users as f64;
        assert!((hashtag_frac - 0.025).abs() < 0.01, "hashtags/users {hashtag_frac}");
    }
}
