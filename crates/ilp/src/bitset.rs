//! Ordering of sparse index patterns.
//!
//! The LP kernels discover index sets in an arbitrary order — a reach in
//! traversal order, a priced column pattern in row-walk order — but must
//! consume them in ascending order, so that floating-point operations and
//! tie-breaks never depend on the discovery order. [`BitSet`] does that
//! without a comparison sort or a sweep over every index: an insertion
//! sets one bit, and a drain visits the members in ascending order in
//! `O(r + n/64)` for `r` members out of `n`.

/// A set of indices below a fixed capacity, one bit per index, kept empty
/// between uses: every user inserts a pattern and drains it again.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    /// Number of members, so drains stop at the last one.
    len: usize,
}

impl BitSet {
    /// Empties the set and sizes it for indices below `n`, keeping its
    /// allocation.
    pub(crate) fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
        self.len = 0;
    }

    /// Extends the capacity to indices below `n`, keeping the members.
    pub(crate) fn grow(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
    }

    /// Whether the set has no members.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `i` (a no-op when it is a member already).
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        self.len += usize::from(*word & bit == 0);
        *word |= bit;
    }

    /// Removes and returns the smallest member in word `*word` or later,
    /// advancing `*word` past the empty words. Starting from `*word = 0`,
    /// repeated calls visit the members in ascending order, and members
    /// inserted meanwhile are visited too as long as each is larger than
    /// the last one returned.
    #[inline]
    pub(crate) fn pop_from(&mut self, word: &mut usize) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        loop {
            let bits = self.words[*word];
            if bits != 0 {
                self.words[*word] = bits & (bits - 1);
                self.len -= 1;
                return Some(*word * 64 + bits.trailing_zeros() as usize);
            }
            *word += 1;
        }
    }

    /// Appends the members to `out` in ascending order and empties the
    /// set.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<usize>) {
        let mut left = self.len;
        for (w, word) in self.words.iter_mut().enumerate() {
            if left == 0 {
                break;
            }
            let mut bits = std::mem::take(word);
            left -= bits.count_ones() as usize;
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::BitSet;

    /// A deterministic, unordered sample of the indices below `n`, with
    /// repeats, covering both ends and every word boundary.
    fn scrambled(n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).map(|i| (i * 37 + 11) % n).collect();
        v.extend([0, n - 1, n / 2, 0]);
        v.extend((64..n).step_by(64).flat_map(|b| [b - 1, b]));
        v
    }

    #[test]
    fn drain_is_ascending_and_empties_the_set() {
        for n in [1, 63, 64, 65, 129] {
            let mut set = BitSet::default();
            set.reset(n);
            for round in 0..3 {
                let members: Vec<usize> = scrambled(n)
                    .into_iter()
                    .filter(|i| (i + round) % 3 != 0 || n == 1)
                    .collect();
                let mut want = members.clone();
                want.sort_unstable();
                want.dedup();
                for &i in &members {
                    set.insert(i);
                }
                assert!(!set.is_empty());
                let mut out = vec![usize::MAX];
                set.drain_into(&mut out);
                assert_eq!(out[1..], want[..], "n = {n}, round {round}");
                assert!(set.is_empty());
                assert!(set.words.iter().all(|&w| w == 0), "n = {n}: bits left");
                let mut again = Vec::new();
                set.drain_into(&mut again);
                assert!(again.is_empty());
            }
        }
    }

    #[test]
    fn pop_from_visits_later_insertions_in_order() {
        for n in [1, 63, 64, 65, 129] {
            let mut set = BitSet::default();
            set.reset(n);
            set.insert(0);
            let mut word = 0;
            let mut seen = Vec::new();
            while let Some(i) = set.pop_from(&mut word) {
                seen.push(i);
                // Each member spawns two larger ones, as a triangular
                // solve's scatter spawns later pivots.
                for next in [i + 1, 2 * i + 3] {
                    if next < n {
                        set.insert(next);
                    }
                }
            }
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n = {n}");
            assert!(set.is_empty());
            assert!(set.words.iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn grow_keeps_members_and_reset_clears_them() {
        let mut set = BitSet::default();
        set.reset(62);
        set.insert(61);
        set.grow(66);
        set.insert(65);
        let mut out = Vec::new();
        set.drain_into(&mut out);
        assert_eq!(out, [61, 65]);
        set.insert(3);
        set.reset(200);
        assert!(set.is_empty());
        set.insert(199);
        out.clear();
        set.drain_into(&mut out);
        assert_eq!(out, [199]);
    }
}
