//! `Objects` — the unordered object-id sets every navigation returns.
//!
//! The Sparksee API returns `Objects` collections from `neighbors`,
//! `explode` and `select`; clients combine them with set operations. The
//! crucial *absence* the paper leans on: there is no ordering and no
//! LIMIT — "in order to limit the returned results, the entire result set
//! must be retrieved and filtered programmatically".

use crate::bitmap::Bitmap;
use crate::graph::Oid;

/// An unordered set of object identifiers (bitmap-backed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Objects {
    bits: Bitmap,
}

impl Objects {
    /// An empty set.
    pub fn new() -> Objects {
        Objects::default()
    }

    /// Wraps a bitmap.
    pub fn from_bitmap(bits: Bitmap) -> Objects {
        Objects { bits }
    }

    /// Builds from an iterator of oids.
    #[allow(clippy::should_implement_trait)] // also provided via FromIterator
    pub fn from_iter<I: IntoIterator<Item = Oid>>(items: I) -> Objects {
        Objects {
            bits: Bitmap::from_iter(items),
        }
    }

    /// Adds an oid.
    pub fn add(&mut self, oid: Oid) -> bool {
        self.bits.insert(oid)
    }

    /// Removes an oid.
    pub fn remove(&mut self, oid: Oid) -> bool {
        self.bits.remove(oid)
    }

    /// Membership test.
    pub fn contains(&self, oid: Oid) -> bool {
        self.bits.contains(oid)
    }

    /// Cardinality.
    pub fn count(&self) -> u64 {
        self.bits.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Objects) -> Objects {
        Objects {
            bits: self.bits.and(&other.bits),
        }
    }

    /// Set union.
    pub fn union(&self, other: &Objects) -> Objects {
        Objects {
            bits: self.bits.or(&other.bits),
        }
    }

    /// Set difference.
    pub fn difference(&self, other: &Objects) -> Objects {
        Objects {
            bits: self.bits.and_not(&other.bits),
        }
    }

    /// Iterates the oids (ascending id order — *not* a semantic ordering).
    pub fn iter(&self) -> impl Iterator<Item = Oid> + '_ {
        self.bits.iter()
    }

    /// The underlying bitmap.
    pub fn bitmap(&self) -> &Bitmap {
        &self.bits
    }
}

impl FromIterator<Oid> for Objects {
    fn from_iter<I: IntoIterator<Item = Oid>>(iter: I) -> Self {
        Objects::from_iter(iter)
    }
}

impl<'a> IntoIterator for &'a Objects {
    type Item = Oid;
    type IntoIter = Box<dyn Iterator<Item = Oid> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.bits.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_algebra() {
        let a = Objects::from_iter([1u64, 2, 3]);
        let b = Objects::from_iter([3u64, 4]);
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![3]);
        assert_eq!(a.union(&b).count(), 4);
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn uniqueness() {
        let mut o = Objects::new();
        assert!(o.add(7));
        assert!(!o.add(7), "Objects is a set: duplicates collapse");
        assert_eq!(o.count(), 1);
    }

    #[test]
    fn for_loop_support() {
        let o = Objects::from_iter([5u64, 1]);
        let mut seen = Vec::new();
        for oid in &o {
            seen.push(oid);
        }
        assert_eq!(seen, vec![1, 5]);
    }
}
