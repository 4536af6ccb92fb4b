//! Compressed bitmaps over `u64` object identifiers.
//!
//! The universe is chunked by the high 48 bits; each chunk holds a
//! container over the low 16 bits that adapts between a sorted array (sparse)
//! and a 64-Kbit bitset (dense) — the classic two-level compressed bitmap
//! design Sparksee's storage paper describes (bitmaps of object ids with
//! value-based compression).
//!
//! Set operations and bulk construction work a container at a time:
//! [`Bitmap::from_sorted`] builds each chunk in one pass, and `or`, `and`
//! and `and_not` clone or skip a chunk that only one side holds and merge
//! the others word by word (bitsets) or by a sorted merge (arrays).
//! Iteration walks the containers in place and allocates nothing.

use std::collections::BTreeMap;

/// Array container converts to a bitset beyond this cardinality (the point
/// where 2 B/entry exceeds the 8 KiB bitset).
const ARRAY_MAX: usize = 4096;
const BITSET_WORDS: usize = 1024;

type Words = Box<[u64; BITSET_WORDS]>;

#[derive(Debug, Clone)]
enum Container {
    /// Sorted, deduplicated low-16 values.
    Array(Vec<u16>),
    /// 65536-bit set.
    Bits(Words, u32),
    /// Run-length encoding: sorted, non-overlapping, non-adjacent
    /// `(start, length - 1)` runs. Produced by [`Container::optimize`];
    /// mutation inflates back to Array/Bits first.
    Run(Vec<(u16, u16)>, u32),
}

/// Containers compare as sets: one set in two encodings is equal.
impl PartialEq for Container {
    fn eq(&self, other: &Container) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Container {
    fn new() -> Container {
        Container::Array(Vec::new())
    }

    /// The container a run of inserts would build from sorted, distinct
    /// values: an array up to `ARRAY_MAX`, a bitset beyond.
    fn from_sorted(lows: Vec<u16>) -> Container {
        if lows.len() > ARRAY_MAX {
            let mut words = Box::new([0u64; BITSET_WORDS]);
            for &low in &lows {
                words[(low >> 6) as usize] |= 1 << (low & 63);
            }
            Container::Bits(words, lows.len() as u32)
        } else {
            Container::Array(lows)
        }
    }

    /// A bitset result, back to an array when it holds `ARRAY_MAX` values
    /// or fewer.
    fn from_words(words: Words) -> Container {
        let n = words.iter().map(|w| w.count_ones()).sum::<u32>();
        let bits = Container::Bits(words, n);
        if n as usize > ARRAY_MAX {
            bits
        } else {
            Container::Array(bits.iter().collect())
        }
    }

    fn len(&self) -> u64 {
        match self {
            Container::Array(v) => v.len() as u64,
            Container::Bits(_, n) => *n as u64,
            Container::Run(_, n) => *n as u64,
        }
    }

    fn contains(&self, low: u16) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&low).is_ok(),
            Container::Bits(w, _) => w[(low >> 6) as usize] & (1 << (low & 63)) != 0,
            Container::Run(runs, _) => match runs.binary_search_by(|&(s, _)| s.cmp(&low)) {
                Ok(_) => true,
                Err(0) => false,
                Err(i) => {
                    let (start, len1) = runs[i - 1];
                    low - start <= len1
                }
            },
        }
    }

    /// Inflates a Run container back to Array or Bits before mutation.
    fn deflate_runs(&mut self) {
        if let Container::Run(..) = self {
            *self = Container::from_sorted(self.iter().collect());
        }
    }

    fn insert(&mut self, low: u16) -> bool {
        if matches!(self, Container::Run(..)) && !self.contains(low) {
            self.deflate_runs();
        }
        match self {
            Container::Array(v) => match v.binary_search(&low) {
                Ok(_) => false,
                Err(pos) => {
                    v.insert(pos, low);
                    if v.len() > ARRAY_MAX {
                        *self = Container::from_sorted(std::mem::take(v));
                    }
                    true
                }
            },
            Container::Bits(w, n) => {
                let word = &mut w[(low >> 6) as usize];
                let mask = 1u64 << (low & 63);
                if *word & mask != 0 {
                    false
                } else {
                    *word |= mask;
                    *n += 1;
                    true
                }
            }
            Container::Run(..) => false, // already present (checked above)
        }
    }

    fn remove(&mut self, low: u16) -> bool {
        if matches!(self, Container::Run(..)) {
            if !self.contains(low) {
                return false;
            }
            self.deflate_runs();
        }
        match self {
            Container::Array(v) => match v.binary_search(&low) {
                Ok(pos) => {
                    v.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Container::Bits(w, n) => {
                let word = &mut w[(low >> 6) as usize];
                let mask = 1u64 << (low & 63);
                if *word & mask == 0 {
                    false
                } else {
                    *word &= !mask;
                    *n -= 1;
                    if (*n as usize) < ARRAY_MAX / 2 {
                        *self = Container::Array(self.iter().collect());
                    }
                    true
                }
            }
            Container::Run(..) => unreachable!("deflated above"),
        }
    }

    /// Re-encodes as runs when that is the smallest representation.
    fn optimize(&mut self) {
        let runs = self.collect_runs();
        let n = self.len() as usize;
        let run_bytes = 4 * runs.len() + 8;
        let current_bytes = match self {
            Container::Array(v) => 2 * v.len() + 24,
            Container::Bits(..) => 8 * BITSET_WORDS + 8,
            Container::Run(..) => return,
        };
        if run_bytes < current_bytes {
            *self = Container::Run(runs, n as u32);
        }
    }

    fn collect_runs(&self) -> Vec<(u16, u16)> {
        let mut runs: Vec<(u16, u16)> = Vec::new();
        for low in self.iter() {
            match runs.last_mut() {
                Some((start, len1)) if (*start as u32 + *len1 as u32 + 1) == low as u32 => {
                    *len1 += 1;
                }
                _ => runs.push((low, 0)),
            }
        }
        runs
    }

    fn iter(&self) -> ContainerIter<'_> {
        match self {
            Container::Array(v) => ContainerIter::Array(v.iter()),
            Container::Bits(w, _) => ContainerIter::Bits {
                words: w,
                at: 0,
                word: w[0],
            },
            Container::Run(runs, _) => ContainerIter::Run {
                runs: runs.iter(),
                next: 1,
                last: 0,
            },
        }
    }

    /// Sets (`set`) or clears (`!set`) this container's values in `words`.
    fn mark(&self, words: &mut [u64; BITSET_WORDS], set: bool) {
        match self {
            Container::Bits(w, _) => {
                for (d, &s) in words.iter_mut().zip(w.iter()) {
                    *d = if set { *d | s } else { *d & !s };
                }
            }
            _ => {
                for low in self.iter() {
                    let (d, mask) = (&mut words[(low >> 6) as usize], 1u64 << (low & 63));
                    *d = if set { *d | mask } else { *d & !mask };
                }
            }
        }
    }

    fn or(&self, other: &Container) -> Container {
        match (self, other) {
            (Container::Bits(w, _), c) | (c, Container::Bits(w, _)) => {
                let mut words = w.clone();
                c.mark(&mut words, true);
                Container::from_words(words)
            }
            _ => Container::from_sorted(merge(self.iter(), other.iter())),
        }
    }

    fn and(&self, other: &Container) -> Container {
        match (self, other) {
            (Container::Bits(a, _), Container::Bits(b, _)) => {
                Container::from_words(Box::new(std::array::from_fn(|i| a[i] & b[i])))
            }
            _ => {
                let (small, big) = if self.len() <= other.len() {
                    (self, other)
                } else {
                    (other, self)
                };
                Container::from_sorted(small.iter().filter(|&low| big.contains(low)).collect())
            }
        }
    }

    fn and_not(&self, other: &Container) -> Container {
        match self {
            Container::Bits(w, _) => {
                let mut words = w.clone();
                other.mark(&mut words, false);
                Container::from_words(words)
            }
            _ => Container::from_sorted(self.iter().filter(|&low| !other.contains(low)).collect()),
        }
    }
}

/// The sorted union of two ascending, distinct sequences.
fn merge(mut a: ContainerIter<'_>, mut b: ContainerIter<'_>) -> Vec<u16> {
    let mut out = Vec::new();
    let (mut x, mut y) = (a.next(), b.next());
    loop {
        match (x, y) {
            (Some(p), Some(q)) if p < q => {
                out.push(p);
                x = a.next();
            }
            (Some(p), Some(q)) => {
                out.push(q);
                y = b.next();
                if p == q {
                    x = a.next();
                }
            }
            (Some(p), None) => {
                out.push(p);
                out.extend(a);
                return out;
            }
            (None, Some(q)) => {
                out.push(q);
                out.extend(b);
                return out;
            }
            (None, None) => return out,
        }
    }
}

/// Ascending walk over one container, in place.
enum ContainerIter<'a> {
    Array(std::slice::Iter<'a, u16>),
    /// `word` holds the not yet yielded bits of `words[at]`.
    Bits {
        words: &'a [u64; BITSET_WORDS],
        at: usize,
        word: u64,
    },
    /// Yields `next..=last` (empty once `next > last`), then the next run.
    Run {
        runs: std::slice::Iter<'a, (u16, u16)>,
        next: u32,
        last: u32,
    },
}

impl Iterator for ContainerIter<'_> {
    type Item = u16;

    #[inline]
    fn next(&mut self) -> Option<u16> {
        match self {
            ContainerIter::Array(it) => it.next().copied(),
            ContainerIter::Bits { words, at, word } => {
                while *word == 0 {
                    *at += 1;
                    *word = *words.get(*at)?;
                }
                let bit = word.trailing_zeros();
                *word &= *word - 1;
                Some(((*at as u32) << 6 | bit) as u16)
            }
            ContainerIter::Run { runs, next, last } => {
                if *next > *last {
                    let &(start, len1) = runs.next()?;
                    *next = start as u32;
                    *last = start as u32 + len1 as u32;
                }
                *next += 1;
                Some((*next - 1) as u16)
            }
        }
    }
}

/// A compressed set of `u64` identifiers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bitmap {
    /// Never holds an empty container.
    chunks: BTreeMap<u64, Container>,
    len: u64,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// Builds from an iterator.
    #[allow(clippy::should_implement_trait)] // also provided via FromIterator
    pub fn from_iter<I: IntoIterator<Item = u64>>(items: I) -> Bitmap {
        let mut b = Bitmap::new();
        for x in items {
            b.insert(x);
        }
        b
    }

    /// Builds from strictly ascending values, one container per chunk in
    /// one pass. Equal to [`Bitmap::from_iter`] over the same values.
    pub fn from_sorted(values: &[u64]) -> Bitmap {
        debug_assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "from_sorted needs strictly ascending values"
        );
        let mut chunks = BTreeMap::new();
        let mut rest = values;
        while let Some(&first) = rest.first() {
            let hi = first >> 16;
            let (chunk, tail) = rest.split_at(rest.partition_point(|&x| x >> 16 == hi));
            chunks.insert(
                hi,
                Container::from_sorted(chunk.iter().map(|&x| x as u16).collect()),
            );
            rest = tail;
        }
        Bitmap {
            chunks,
            len: values.len() as u64,
        }
    }

    /// Wraps containers, dropping empty ones.
    fn from_chunks(chunks: impl Iterator<Item = (u64, Container)>) -> Bitmap {
        let chunks: BTreeMap<u64, Container> = chunks.filter(|(_, c)| c.len() > 0).collect();
        let len = chunks.values().map(Container::len).sum();
        Bitmap { chunks, len }
    }

    #[inline]
    fn split(x: u64) -> (u64, u16) {
        (x >> 16, (x & 0xFFFF) as u16)
    }

    /// Inserts `x`; returns true when it was new.
    pub fn insert(&mut self, x: u64) -> bool {
        let (hi, lo) = Self::split(x);
        let fresh = self
            .chunks
            .entry(hi)
            .or_insert_with(Container::new)
            .insert(lo);
        if fresh {
            self.len += 1;
        }
        fresh
    }

    /// Removes `x`; returns true when it was present.
    pub fn remove(&mut self, x: u64) -> bool {
        let (hi, lo) = Self::split(x);
        let Some(c) = self.chunks.get_mut(&hi) else {
            return false;
        };
        let removed = c.remove(lo);
        if removed {
            self.len -= 1;
            if c.len() == 0 {
                self.chunks.remove(&hi);
            }
        }
        removed
    }

    /// Membership test.
    pub fn contains(&self, x: u64) -> bool {
        let (hi, lo) = Self::split(x);
        self.chunks.get(&hi).is_some_and(|c| c.contains(lo))
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.chunks
            .iter()
            .flat_map(|(&hi, c)| c.iter().map(move |lo| hi << 16 | lo as u64))
    }

    /// Set union.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        let mine = self
            .chunks
            .iter()
            .map(|(&hi, c)| match other.chunks.get(&hi) {
                Some(o) => (hi, c.or(o)),
                None => (hi, c.clone()),
            });
        let theirs = other
            .chunks
            .iter()
            .filter(|(hi, _)| !self.chunks.contains_key(hi))
            .map(|(&hi, c)| (hi, c.clone()));
        Bitmap::from_chunks(mine.chain(theirs))
    }

    /// Set intersection.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        Bitmap::from_chunks(
            self.chunks
                .iter()
                .filter_map(|(&hi, c)| Some((hi, c.and(other.chunks.get(&hi)?)))),
        )
    }

    /// Set difference `self \ other`.
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        Bitmap::from_chunks(
            self.chunks
                .iter()
                .map(|(&hi, c)| match other.chunks.get(&hi) {
                    Some(o) => (hi, c.and_not(o)),
                    None => (hi, c.clone()),
                }),
        )
    }

    /// Re-encodes every chunk in its smallest representation (array,
    /// bitset or run). Call after bulk construction; mutation after
    /// optimization transparently inflates run chunks back.
    pub fn optimize(&mut self) {
        for c in self.chunks.values_mut() {
            c.optimize();
        }
    }

    /// Approximate heap bytes (for cache accounting).
    pub fn size_bytes(&self) -> u64 {
        let mut total = 48u64;
        for c in self.chunks.values() {
            total += 16
                + match c {
                    Container::Array(v) => 24 + 2 * v.capacity() as u64,
                    Container::Bits(_, _) => 8 * BITSET_WORDS as u64 + 8,
                    Container::Run(r, _) => 24 + 4 * r.capacity() as u64,
                };
        }
        total
    }
}

impl FromIterator<u64> for Bitmap {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Bitmap::from_iter(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut b = Bitmap::new();
        assert!(b.insert(5));
        assert!(!b.insert(5));
        assert!(b.insert(1_000_000));
        assert!(b.contains(5));
        assert!(b.contains(1_000_000));
        assert!(!b.contains(6));
        assert_eq!(b.len(), 2);
        assert!(b.remove(5));
        assert!(!b.remove(5));
        assert_eq!(b.len(), 1);
        assert!(!b.contains(5));
    }

    #[test]
    fn iteration_is_sorted() {
        let b = Bitmap::from_iter([9, 1, 70_000, 3, 65_536]);
        let v: Vec<u64> = b.iter().collect();
        assert_eq!(v, vec![1, 3, 9, 65_536, 70_000]);
    }

    #[test]
    fn array_to_bits_conversion_roundtrip() {
        let mut b = Bitmap::new();
        // Exceed ARRAY_MAX within one chunk to force a bitset.
        for i in 0..5000u64 {
            b.insert(i);
        }
        assert_eq!(b.len(), 5000);
        for i in (0..5000u64).step_by(97) {
            assert!(b.contains(i));
        }
        assert!(!b.contains(5001));
        // Shrink back below the hysteresis bound to force array again.
        for i in 0..4000u64 {
            b.remove(i);
        }
        assert_eq!(b.len(), 1000);
        let v: Vec<u64> = b.iter().collect();
        assert_eq!(v, (4000..5000u64).collect::<Vec<_>>());
    }

    #[test]
    fn set_operations() {
        let a = Bitmap::from_iter([1, 2, 3, 100_000]);
        let b = Bitmap::from_iter([2, 3, 4]);
        assert_eq!(a.and(&b).iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(
            a.or(&b).iter().collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 100_000]
        );
        assert_eq!(a.and_not(&b).iter().collect::<Vec<_>>(), vec![1, 100_000]);
        assert_eq!(b.and_not(&a).iter().collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn empty_behaviour() {
        let e = Bitmap::new();
        assert!(e.is_empty());
        assert_eq!(e.iter().count(), 0);
        let a = Bitmap::from_iter([1]);
        assert!(e.and(&a).is_empty());
        assert_eq!(e.or(&a), a);
        assert!(e.and_not(&a).is_empty());
        assert_eq!(a.and_not(&e), a);
    }

    #[test]
    fn large_sparse_values() {
        let mut b = Bitmap::new();
        b.insert(u64::MAX - 1);
        b.insert(1 << 40);
        assert!(b.contains(u64::MAX - 1));
        assert!(b.contains(1 << 40));
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![1 << 40, u64::MAX - 1]);
    }

    #[test]
    fn run_optimization_roundtrip() {
        // A dense sequential range compresses to runs and stays readable.
        let mut b = Bitmap::from_iter(1000..30_000u64);
        let before = b.size_bytes();
        b.optimize();
        let after = b.size_bytes();
        assert!(
            after * 10 < before,
            "run encoding should shrink: {before} -> {after}"
        );
        assert_eq!(b.len(), 29_000);
        assert!(b.contains(1000) && b.contains(29_999) && !b.contains(30_000));
        assert_eq!(b.iter().count(), 29_000);
        assert_eq!(b.iter().next(), Some(1000));
        assert_eq!(b.iter().last(), Some(29_999));
    }

    #[test]
    fn run_container_mutation_inflates() {
        let mut b = Bitmap::from_iter(0..10_000u64);
        b.optimize();
        assert!(!b.insert(5), "already present");
        assert!(b.insert(20_000), "fresh value after optimize");
        assert!(b.remove(17));
        assert!(!b.remove(17));
        assert_eq!(b.len(), 10_000); // -1 +1
        assert!(!b.contains(17));
        assert!(b.contains(20_000));
    }

    #[test]
    fn optimize_keeps_sparse_as_array() {
        let mut b = Bitmap::from_iter([1u64, 5000, 9000, 30_000]);
        let before = b.clone();
        b.optimize(); // 4 scattered values: runs are not smaller
        assert_eq!(
            b.iter().collect::<Vec<_>>(),
            before.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn size_bytes_grows_with_density() {
        let sparse = Bitmap::from_iter([1, 1 << 20, 1 << 40]);
        let mut dense = Bitmap::new();
        for i in 0..60_000u64 {
            dense.insert(i);
        }
        assert!(dense.size_bytes() > sparse.size_bytes());
        // A dense chunk costs ~8 KiB regardless of cardinality: compression.
        assert!(dense.size_bytes() < 60_000 * 2);
    }

    #[test]
    fn every_container_kind_iterates_in_order() {
        // Chunk 0 an array, chunk 1 a bitset, chunk 2 a run up to the
        // chunk's last value once optimized.
        let values: Vec<u64> = [1u64, 7, 65_535]
            .into_iter()
            .chain((65_536..65_536 + 9_000).step_by(2))
            .chain(131_072 + 100..131_072 + 65_536)
            .collect();
        let mut b = Bitmap::from_sorted(&values);
        assert!(matches!(b.chunks[&0], Container::Array(..)));
        assert!(matches!(b.chunks[&1], Container::Bits(..)));
        assert_eq!(b, Bitmap::from_iter(values.iter().copied()));
        assert_eq!(b.iter().collect::<Vec<_>>(), values);
        b.optimize();
        assert!(matches!(b.chunks[&2], Container::Run(..)));
        assert_eq!(b.iter().collect::<Vec<_>>(), values);
        assert_eq!(b.len(), values.len() as u64);
    }

    #[test]
    fn equality_ignores_the_encoding() {
        let plain = Bitmap::from_iter(0..10_000u64);
        let mut runs = plain.clone();
        runs.optimize();
        assert_eq!(plain, runs);
        assert_ne!(plain, Bitmap::from_iter(1..10_001u64));
    }
}
