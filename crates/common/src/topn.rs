//! Bounded top-n accumulation.
//!
//! Every "Top-n" query in the paper's workload (Q3, Q4, Q5) groups, counts
//! and keeps the n heaviest groups. The declarative engine pushes `LIMIT`
//! into its sort operator using this structure; the bitgraph adapter uses it
//! client-side after retrieving the full result set (the paper's point about
//! Sparksee lacking a LIMIT).

use std::collections::BinaryHeap;

/// An entry in a [`TopN`] accumulator: a count paired with a key.
///
/// Ordering is by `count` descending, then by `key` ascending, which makes
/// top-n results deterministic across engines (ties broken by smallest key).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counted<K> {
    /// Number of occurrences (the sort weight).
    pub count: u64,
    /// Group key (e.g. a user id).
    pub key: K,
}

impl<K: Ord> PartialOrd for Counted<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> Ord for Counted<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Higher count wins; on ties the *smaller* key wins.
        self.count
            .cmp(&other.count)
            .then_with(|| other.key.cmp(&self.key))
    }
}

/// A bounded accumulator that retains the `n` largest [`Counted`] entries.
///
/// Insertion is `O(log n)`; memory is `O(n)` regardless of how many entries
/// are offered. `into_sorted_vec` returns entries best-first.
#[derive(Debug)]
pub struct TopN<K: Ord> {
    limit: usize,
    // Min-heap of the current best `limit` entries (Reverse on Counted).
    heap: BinaryHeap<std::cmp::Reverse<Counted<K>>>,
}

impl<K: Ord> TopN<K> {
    /// Creates an accumulator keeping at most `limit` entries.
    pub fn new(limit: usize) -> Self {
        TopN {
            limit,
            heap: BinaryHeap::with_capacity(limit.saturating_add(1).min(1024)),
        }
    }

    /// Offers one `(key, count)` pair.
    pub fn offer(&mut self, key: K, count: u64) {
        if self.limit == 0 {
            return;
        }
        let entry = Counted { count, key };
        if self.heap.len() < self.limit {
            self.heap.push(std::cmp::Reverse(entry));
        } else if let Some(worst) = self.heap.peek() {
            if entry > worst.0 {
                self.heap.pop();
                self.heap.push(std::cmp::Reverse(entry));
            }
        }
    }

    /// Number of retained entries (≤ limit).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consumes the accumulator, returning entries ordered best-first
    /// (highest count, ties by ascending key).
    pub fn into_sorted_vec(self) -> Vec<Counted<K>> {
        let mut v: Vec<Counted<K>> = self.heap.into_iter().map(|r| r.0).collect();
        v.sort_by(|a, b| b.cmp(a));
        v
    }
}

/// Sorts a full `(key, count)` list the way [`TopN`] would and truncates to
/// `limit`. This is the reference implementation used by property tests and
/// by the bitgraph adapter's "retrieve everything then filter" path.
pub fn full_sort_top_n<K: Ord>(mut items: Vec<Counted<K>>, limit: usize) -> Vec<Counted<K>> {
    items.sort_by(|a, b| b.cmp(a));
    items.truncate(limit);
    items
}

/// Merges partial top-n (or full partial-count) lists into one global top-n.
///
/// Counts for a key appearing in several partials are summed — the
/// count-sum merge a sharded execution needs when a group's occurrences are
/// split across partitions. The result follows the global ordering
/// invariant everywhere in the workload: count descending, ties broken by
/// ascending key, truncated to `limit`.
///
/// Exactness caveat, documented for the sharded query layer: merging
/// *truncated* partials is exact only when every key's full count lives in
/// a single partial (disjoint key sets, e.g. Q5's mentioners, whose tweets
/// are all on the poster's shard). When counts for one key are split across
/// partials (Q3/Q4), the sharded layer sums the *untruncated* per-shard
/// count lists before it cuts to the top n.
pub fn merge_top_n<K: Ord>(parts: Vec<Vec<Counted<K>>>, limit: usize) -> Vec<Counted<K>> {
    let mut totals: std::collections::BTreeMap<K, u64> = std::collections::BTreeMap::new();
    for part in parts {
        for c in part {
            *totals.entry(c.key).or_insert(0) += c.count;
        }
    }
    let mut top = TopN::new(limit);
    for (key, count) in totals {
        top.offer(key, count);
    }
    top.into_sorted_vec()
}

/// A shard-local top-k partial: the `k` best local entries plus an upper
/// `bound` on the local count of any key *not* in `top`.
///
/// `bound == 0` means the partial is exhaustive — `top` holds every key
/// this shard counted, so an unseen key has local count 0. Otherwise
/// `bound` is the k-th retained count: the local list is count-desc /
/// ascending-key ordered, so every truncated-away entry counts at most
/// that much. The sharded query layer merges these partials only where
/// keys are disjoint across shards (Q5), so one round is exact and it
/// never reads the bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopKPartial<K> {
    /// The best `k` local entries, count descending, ties ascending key.
    pub top: Vec<Counted<K>>,
    /// Upper bound on the local count of any key absent from `top`
    /// (0 when `top` is the complete local count list).
    pub bound: u64,
}

/// Builds a [`TopKPartial`] from a full local count list: sorts by the
/// global ordering (count desc, ties ascending key), keeps the best `k`,
/// and records the threshold bound for what was cut.
///
/// When nothing is cut the bound is 0 (exhaustive partial). The degenerate
/// `k == 0` keeps nothing and bounds by the best local count.
pub fn topk_partial<K: Ord>(mut items: Vec<Counted<K>>, k: usize) -> TopKPartial<K> {
    items.sort_by(|a, b| b.cmp(a));
    let truncated = items.len() > k;
    let bound = if !truncated {
        0
    } else if k == 0 {
        items.first().map(|c| c.count).unwrap_or(0)
    } else {
        items[k - 1].count
    };
    items.truncate(k);
    TopKPartial { top: items, bound }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counted(pairs: &[(u64, u64)]) -> Vec<Counted<u64>> {
        pairs.iter().map(|&(k, c)| Counted { key: k, count: c }).collect()
    }

    #[test]
    fn keeps_heaviest() {
        let mut t = TopN::new(2);
        t.offer(1u64, 5);
        t.offer(2, 9);
        t.offer(3, 1);
        t.offer(4, 7);
        let out = t.into_sorted_vec();
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].key, out[0].count), (2, 9));
        assert_eq!((out[1].key, out[1].count), (4, 7));
    }

    #[test]
    fn ties_break_by_smaller_key() {
        let mut t = TopN::new(2);
        t.offer(9u64, 4);
        t.offer(3, 4);
        t.offer(5, 4);
        let out = t.into_sorted_vec();
        assert_eq!(out[0].key, 3);
        assert_eq!(out[1].key, 5);
    }

    #[test]
    fn zero_limit_is_empty() {
        let mut t = TopN::new(0);
        t.offer(1u64, 100);
        assert!(t.is_empty());
        assert_eq!(t.into_sorted_vec(), vec![]);
    }

    #[test]
    fn fewer_offers_than_limit() {
        let mut t = TopN::new(10);
        t.offer(1u64, 1);
        t.offer(2, 2);
        assert_eq!(t.len(), 2);
        let out = t.into_sorted_vec();
        assert_eq!(out[0].key, 2);
    }

    #[test]
    fn merge_sums_counts_across_partials() {
        // Key 7 is split across two partials (3 + 4 = 7) and must outrank
        // key 1 (count 5) after the merge, even though no single partial
        // ranks it first.
        let parts = vec![counted(&[(7, 3), (1, 5)]), counted(&[(7, 4), (2, 2)])];
        let out = merge_top_n(parts, 10);
        assert_eq!(
            out,
            counted(&[(7, 7), (1, 5), (2, 2)]),
            "count-sum merge must re-rank globally"
        );
    }

    #[test]
    fn merge_breaks_ties_by_ascending_key_globally() {
        // All three keys end at count 4; global order must be ascending key
        // regardless of which partial contributed what.
        let parts = vec![counted(&[(9, 4), (3, 1)]), counted(&[(3, 3), (5, 4)])];
        let out = merge_top_n(parts, 3);
        assert_eq!(out, counted(&[(3, 4), (5, 4), (9, 4)]));
    }

    #[test]
    fn merge_truncates_to_limit_after_summing() {
        let parts = vec![counted(&[(1, 1), (2, 2)]), counted(&[(1, 10), (3, 3)])];
        let out = merge_top_n(parts, 2);
        assert_eq!(out, counted(&[(1, 11), (3, 3)]));
    }

    #[test]
    fn merge_of_single_partial_matches_full_sort() {
        let pairs: Vec<(u64, u64)> = (0..50).map(|i| (i, (i * 31) % 11)).collect();
        let merged = merge_top_n(vec![counted(&pairs)], 5);
        assert_eq!(merged, full_sort_top_n(counted(&pairs), 5));
    }

    #[test]
    fn merge_handles_empty_and_zero_limit() {
        assert_eq!(merge_top_n::<u64>(vec![], 5), vec![]);
        assert_eq!(merge_top_n(vec![counted(&[(1, 1)])], 0), vec![]);
    }

    #[test]
    fn topk_partial_with_k_larger_than_candidates_is_exhaustive() {
        // k exceeding the candidate set must yield bound 0 (nothing was
        // cut): the partial is exhaustive.
        let p = topk_partial(counted(&[(3, 5), (1, 2)]), 10);
        assert_eq!(p.top, counted(&[(3, 5), (1, 2)]));
        assert_eq!(p.bound, 0, "nothing truncated => exhaustive partial");
        let empty = topk_partial(Vec::<Counted<u64>>::new(), 4);
        assert_eq!(empty.top, vec![]);
        assert_eq!(empty.bound, 0);
    }

    #[test]
    fn topk_partial_bound_is_kth_count_under_equal_count_boundary() {
        // Equal-count candidates straddle the cut. The bound must equal
        // the k-th retained count (not the first cut count minus one), so
        // it still covers a tied cut key.
        let p = topk_partial(counted(&[(9, 4), (3, 4), (5, 4), (7, 4)]), 2);
        // Ties order ascending by key: 3, 5 retained; 7, 9 cut.
        assert_eq!(p.top, counted(&[(3, 4), (5, 4)]));
        assert_eq!(p.bound, 4, "cut entries tie the boundary — bound must cover them");
    }

    #[test]
    fn topk_partial_zero_k_bounds_by_best_count() {
        let p = topk_partial(counted(&[(1, 7), (2, 3)]), 0);
        assert_eq!(p.top, vec![]);
        assert_eq!(p.bound, 7, "k=0 keeps nothing; the bound is the best local count");
    }

    #[test]
    fn topk_partial_orders_by_global_invariant() {
        let p = topk_partial(counted(&[(5, 1), (2, 9), (8, 9), (1, 3)]), 3);
        assert_eq!(p.top, counted(&[(2, 9), (8, 9), (1, 3)]));
        assert_eq!(p.bound, 3);
    }

    #[test]
    fn matches_full_sort_reference() {
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i, (i * 37) % 23)).collect();
        let mut t = TopN::new(7);
        for &(k, c) in &pairs {
            t.offer(k, c);
        }
        let expect = full_sort_top_n(counted(&pairs.iter().map(|&(k, c)| (k, c)).collect::<Vec<_>>()), 7);
        assert_eq!(t.into_sorted_vec(), expect);
    }
}
