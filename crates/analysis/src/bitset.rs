//! A dense bit set over `0..len`, the fact representation for gen/kill
//! dataflow problems (registers, definition sites, block ids).

/// A fixed-universe bit set backed by `u64` words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// The empty set over universe `0..len`.
    pub fn new_empty(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The full set over universe `0..len`.
    pub fn new_full(len: usize) -> Self {
        let mut s = BitSet {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        s.mask_tail();
        s
    }

    /// Clears bits beyond `len` in the last word so that word-wise
    /// operations and equality stay canonical.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Inserts `i`; returns true when it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the universe.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} outside universe {}", self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes `i`; returns true when it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Membership test (out-of-universe indices are absent).
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of elements in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no element is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self |= other`; returns true when `self` changed.
    ///
    /// # Panics
    ///
    /// Panics on mismatched universes.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "universe mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self &= other`; returns true when `self` changed.
    ///
    /// # Panics
    ///
    /// Panics on mismatched universes.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "universe mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a & b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self -= other` (set difference).
    ///
    /// # Panics
    ///
    /// Panics on mismatched universes.
    pub fn subtract(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Iterates over the set elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new_empty(100);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(99));
        assert!(!s.insert(99));
        assert_eq!(s.count(), 4);
        assert!(s.contains(63) && s.contains(64));
        assert!(!s.contains(1));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 99]);
    }

    #[test]
    fn full_masks_tail() {
        let s = BitSet::new_full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
        // Canonical representation: full == empty ∪ all.
        let mut t = BitSet::new_empty(70);
        for i in 0..70 {
            t.insert(i);
        }
        assert_eq!(s, t);
    }

    #[test]
    fn set_algebra() {
        let mut a = BitSet::new_empty(10);
        a.insert(1);
        a.insert(2);
        let mut b = BitSet::new_empty(10);
        b.insert(2);
        b.insert(3);

        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert!(!u.union_with(&b));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3]);

        let mut i = a.clone();
        assert!(i.intersect_with(&b));
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2]);

        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1]);

        assert!(BitSet::new_empty(10).is_empty());
    }

    #[test]
    fn zero_universe() {
        let s = BitSet::new_full(0);
        assert!(s.is_empty());
        assert!(!s.contains(0));
    }
}
