//! Bounded top-*k* selection.
//!
//! The NMAs in DReX maintain a partial top-*k* list (hardware maximum
//! `k = 1,024`) while streaming scored keys out of DRAM; the DCC hardware
//! keeps it as a bounded min-heap. [`TopK`] models that structure on the
//! host by selection instead: entries are appended to a buffer, and when
//! the buffer holds `2k` of them one `select_nth_unstable` pass keeps the
//! best `k` and raises an admission floor below which later entries are
//! dropped on arrival. Both retain the same set — the `k` largest pushed
//! `(score, index)` pairs under one total order (score by `total_cmp`, then
//! the lower index) — so every caller sees the bits a heap would give, with
//! deterministic tie-breaking so simulation runs are reproducible.

use std::cmp::Ordering;

/// A `(score, index)` pair ordered by score, then by index (lower index wins
/// ties, matching "earlier token wins" determinism).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredIndex {
    /// Similarity / attention score.
    pub score: f32,
    /// Identifier of the scored item (e.g. token position).
    pub index: usize,
}

impl ScoredIndex {
    /// Creates a new scored index.
    pub fn new(score: f32, index: usize) -> Self {
        Self { score, index }
    }
}

impl Eq for ScoredIndex {}

impl PartialOrd for ScoredIndex {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScoredIndex {
    fn cmp(&self, other: &Self) -> Ordering {
        // total_cmp gives a total order over floats (NaN sorts consistently);
        // reverse the index comparison so that for equal scores the *lower*
        // index is considered larger (kept preferentially).
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.index.cmp(&self.index))
    }
}

/// A bounded selector retaining the `k` highest-scoring entries seen so
/// far.
///
/// The retained set is a pure function of the pushed `(score, index)`
/// multiset under the [`ScoredIndex`] order, independent of push order:
/// selectors filled from disjoint parts of a stream and then
/// [merged](TopK::merge) keep what one selector over the whole stream keeps.
///
/// # Example
///
/// ```
/// use longsight_tensor::TopK;
///
/// let mut top = TopK::new(2);
/// for (i, s) in [0.1, 0.9, 0.5, 0.7].iter().enumerate() {
///     top.push(*s, i);
/// }
/// let best = top.into_sorted_vec();
/// assert_eq!(best[0].index, 1); // 0.9
/// assert_eq!(best[1].index, 3); // 0.7
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    /// Candidates in push order; holds fewer than `2k` entries between
    /// calls, and every retained entry is among them.
    buf: Vec<ScoredIndex>,
    /// The `k`-th best entry as of the last compaction: an entry at or
    /// below it cannot enter the top `k` any more.
    floor: Option<ScoredIndex>,
}

impl TopK {
    /// Creates an empty selector keeping at most `k` entries.
    ///
    /// `k = 0` is allowed and keeps nothing. Nothing is allocated up front:
    /// the buffer grows with what is pushed, so a `k` far above the stream
    /// length (up to `usize::MAX`) costs only the entries it is given.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            buf: Vec::new(),
            floor: None,
        }
    }

    /// The bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.buf.len().min(self.k)
    }

    /// Whether no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offers a `(score, index)` pair; it is kept while it is among the `k`
    /// best seen so far.
    #[inline]
    pub fn push(&mut self, score: f32, index: usize) {
        if self.k == 0 {
            return;
        }
        let entry = ScoredIndex::new(score, index);
        if self.floor.is_some_and(|floor| entry <= floor) {
            return;
        }
        self.buf.push(entry);
        if self.buf.len() >= self.k.saturating_mul(2) {
            self.compact();
        }
    }

    /// Keeps the best `k` buffered entries (in no particular order) and
    /// raises the admission floor to the `k`-th.
    fn compact(&mut self) {
        if self.buf.len() <= self.k {
            return;
        }
        self.buf.select_nth_unstable_by(self.k - 1, |a, b| b.cmp(a));
        self.buf.truncate(self.k);
        self.floor = Some(self.buf[self.k - 1]);
    }

    /// Merges another selector's contents into this one (used when the DCC
    /// aggregates partial top-k lists from multiple NMAs).
    pub fn merge(&mut self, other: TopK) {
        for e in other.into_vec() {
            self.push(e.score, e.index);
        }
    }

    /// Consumes the selector and returns the retained entries in no
    /// particular order, for callers that only need the set.
    pub fn into_vec(mut self) -> Vec<ScoredIndex> {
        self.compact();
        self.buf
    }

    /// Consumes the selector and returns the retained entries sorted by
    /// descending score (ties broken by ascending index).
    pub fn into_sorted_vec(self) -> Vec<ScoredIndex> {
        let mut v = self.into_vec();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }
}

impl Extend<ScoredIndex> for TopK {
    fn extend<T: IntoIterator<Item = ScoredIndex>>(&mut self, iter: T) {
        for s in iter {
            self.push(s.score, s.index);
        }
    }
}

/// Selects the indices of the `k` largest values of `scores`, descending.
///
/// Convenience wrapper over [`TopK`] for one-shot use.
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    let mut top = TopK::new(k);
    for (i, &s) in scores.iter().enumerate() {
        top.push(s, i);
    }
    top.into_sorted_vec().into_iter().map(|s| s.index).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_full_sort() {
        let scores: Vec<f32> = (0..100).map(|i| ((i * 31 % 97) as f32).sin()).collect();
        let got = top_k_indices(&scores, 10);
        let mut pairs: Vec<(f32, usize)> = scores.iter().copied().zip(0..).collect();
        pairs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let want: Vec<usize> = pairs.into_iter().take(10).map(|(_, i)| i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn k_larger_than_input_returns_all() {
        let got = top_k_indices(&[3.0, 1.0, 2.0], 10);
        assert_eq!(got, vec![0, 2, 1]);
    }

    #[test]
    fn k_zero_returns_nothing() {
        assert!(top_k_indices(&[1.0, 2.0], 0).is_empty());
        let mut t = TopK::new(0);
        t.push(5.0, 0);
        assert!(t.is_empty());
    }

    #[test]
    fn ties_prefer_lower_index() {
        let got = top_k_indices(&[1.0, 1.0, 1.0, 1.0], 2);
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn merge_equals_single_pass() {
        let scores: Vec<f32> = (0..64).map(|i| ((i * 7 % 23) as f32).cos()).collect();
        let mut a = TopK::new(8);
        let mut b = TopK::new(8);
        for (i, &s) in scores.iter().enumerate() {
            if i % 2 == 0 {
                a.push(s, i);
            } else {
                b.push(s, i);
            }
        }
        a.merge(b);
        let merged: Vec<usize> = a.into_sorted_vec().into_iter().map(|s| s.index).collect();
        assert_eq!(merged, top_k_indices(&scores, 8));
    }

    #[test]
    fn merge_takes_only_what_a_smaller_selector_retains() {
        // `small` keeps its best 2 of 3 pushes (buffered, not yet compacted);
        // its third entry must not reach the wider selector through merge.
        let mut wide = TopK::new(4);
        wide.push(1.0, 0);
        let mut small = TopK::new(2);
        small.push(5.0, 1);
        small.push(4.0, 2);
        small.push(3.0, 3);
        wide.merge(small);
        let got: Vec<usize> = wide.into_sorted_vec().iter().map(|s| s.index).collect();
        assert_eq!(got, vec![1, 2, 0]);
    }

    #[test]
    fn unbounded_k_keeps_everything_without_preallocating() {
        let mut t = TopK::new(usize::MAX);
        assert_eq!(t.buf.capacity(), 0);
        let scores = [0.5, -1.0, f32::NAN, 2.0, 0.5, f32::NEG_INFINITY];
        for (i, &s) in scores.iter().enumerate() {
            t.push(s, i);
        }
        assert_eq!(t.len(), scores.len());
        let got: Vec<usize> = t.into_sorted_vec().iter().map(|s| s.index).collect();
        assert_eq!(got, vec![2, 3, 0, 4, 1, 5]);
        assert_eq!(top_k_indices(&scores, usize::MAX).len(), scores.len());
    }

    #[test]
    fn compaction_keeps_the_best_k_and_drops_at_the_floor() {
        // 2k ascending pushes compact to the best k; the floor (the k-th
        // best, score 4.0 at index 4) then rejects every entry not above it.
        let mut t = TopK::new(4);
        for i in 0..8 {
            t.push(i as f32, i);
        }
        assert_eq!(t.buf.len(), 4);
        t.push(3.0, 100); // a lower score: below the floor
        t.push(4.0, 100); // the floor's score at a higher index: below it
        assert_eq!(t.buf.len(), 4);
        t.push(4.0, 1); // same score, lower index: above the floor
        assert_eq!(t.len(), 4);
        let got: Vec<usize> = t.into_sorted_vec().iter().map(|s| s.index).collect();
        assert_eq!(got, vec![7, 6, 5, 1]);
    }
}
