//! Exact latency multisets stored as value → multiplicity.
//!
//! Every token a synchronized decode step emits shares that step's
//! duration, so a run's per-token latencies take few distinct values (one
//! per distinct step duration) however many tokens are served.
//! [`LatencyCounts`] keeps each distinct value once with its multiplicity:
//! memory is O(distinct values), not O(tokens), and both percentile
//! estimators the reports use read their rank straight off the counts.

use std::collections::BTreeMap;

/// Sign bit of an `f64` image.
const SIGN: u64 = 1 << 63;

/// The `u64` image of `v` whose unsigned order is `f64::total_cmp`'s
/// order: negative values have every bit flipped, non-negative values
/// only the sign bit. The map is a bijection on bit patterns, so two
/// values share a key exactly when their bits are equal.
fn key(v: f64) -> u64 {
    let b = v.to_bits();
    if b & SIGN != 0 {
        !b
    } else {
        b | SIGN
    }
}

/// Inverse of [`key`].
fn value(k: u64) -> f64 {
    f64::from_bits(if k & SIGN != 0 { k & !SIGN } else { !k })
}

/// An exact multiset of latencies: each distinct value (by bits) with its
/// multiplicity, iterated in ascending `f64::total_cmp` order with no sort.
///
/// The two quantile methods reproduce the repository's two nearest-rank
/// estimators over the expanded multiset bit for bit:
/// [`LatencyCounts::quantile_ceil`] is the ceil nearest-rank of
/// `SchedReport` and `FleetReport`, [`LatencyCounts::quantile_round`] the
/// `round((n − 1) × p)` index of `ServeMetrics` and `TokenAttribution`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyCounts {
    counts: BTreeMap<u64, usize>,
    len: usize,
}

impl LatencyCounts {
    /// An empty multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `w` copies of `v` (nothing when `w` is 0).
    pub fn add(&mut self, v: f64, w: usize) {
        if w > 0 {
            *self.counts.entry(key(v)).or_insert(0) += w;
            self.len += w;
        }
    }

    /// Adds every element of `other`: the union of the two multisets, the
    /// same whatever order merges run in.
    pub fn merge(&mut self, other: &LatencyCounts) {
        for (&k, &w) in &other.counts {
            *self.counts.entry(k).or_insert(0) += w;
        }
        self.len += other.len;
    }

    /// Number of elements, multiplicities included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the multiset holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(value, multiplicity)` pairs in ascending `f64::total_cmp` order,
    /// each distinct value once.
    pub fn iter(&self) -> impl Iterator<Item = (f64, usize)> + '_ {
        self.counts.iter().map(|(&k, &w)| (value(k), w))
    }

    /// Ceil nearest-rank percentile: the element at 1-based rank
    /// `ceil(len × p)` (clamped to `1..=len`) of the ascending expansion,
    /// 0 when empty.
    pub fn quantile_ceil(&self, p: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let rank = (self.len as f64 * p).ceil() as usize;
        self.nth(rank.clamp(1, self.len) - 1)
    }

    /// Round-index percentile: the element at 0-based index
    /// `round((len − 1) × p)` of the ascending expansion, 0 when empty.
    pub fn quantile_round(&self, p: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.nth(((self.len - 1) as f64 * p).round() as usize)
    }

    /// The element at 0-based index `idx` of the ascending expansion (the
    /// largest element past the end). `len` must be non-zero.
    fn nth(&self, idx: usize) -> f64 {
        let mut below = 0usize;
        for (v, w) in self.iter() {
            below += w;
            if idx < below {
                return v;
            }
        }
        self.counts.last_key_value().map_or(0.0, |(&k, _)| value(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::percentile;

    /// Seeded `(value, weight)` populations: plain values, heavy ties,
    /// signed zeros beside IEEE specials, raw bit patterns, and weights
    /// that include zero. Sizes cover the empty and single-element cases.
    fn populations() -> Vec<Vec<(f64, usize)>> {
        let mut state = 0x1a7e_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
        ];
        let mut out = vec![vec![(7.5, 1)], vec![(-0.0, 3), (0.0, 2)], vec![(2.0, 0)]];
        for len in [0, 1, 2, 99, 100, 2_000] {
            let mut pops: [Vec<(f64, usize)>; 4] = Default::default();
            for _ in 0..len {
                let w = (next() % 70) as usize;
                pops[0].push(((next() >> 11) as f64 / (1u64 << 53) as f64 * 1e3, w));
                pops[1].push(((next() % 3) as f64, w));
                pops[2].push((specials[(next() % specials.len() as u64) as usize], w));
                pops[3].push((f64::from_bits(next()), w));
            }
            out.extend(pops);
        }
        out
    }

    fn counts_of(pop: &[(f64, usize)]) -> LatencyCounts {
        let mut c = LatencyCounts::new();
        for &(v, w) in pop {
            c.add(v, w);
        }
        c
    }

    fn expand(pop: &[(f64, usize)]) -> Vec<f64> {
        pop.iter()
            .flat_map(|&(v, w)| std::iter::repeat_n(v, w))
            .collect()
    }

    #[test]
    fn quantile_ceil_matches_the_expanded_ceil_rank_percentile() {
        for pop in populations() {
            let c = counts_of(&pop);
            let mut v = expand(&pop);
            assert_eq!(c.len(), v.len());
            for p in [0.0, 0.5, 0.99, 1.0] {
                let want = percentile(&mut v, p);
                let got = c.quantile_ceil(p);
                assert_eq!(got.to_bits(), want.to_bits(), "n {} p {p}", v.len());
            }
        }
    }

    #[test]
    fn quantile_round_matches_the_sorted_round_index() {
        for pop in populations() {
            let c = counts_of(&pop);
            let mut sorted = expand(&pop);
            sorted.sort_by(f64::total_cmp);
            for p in [0.0, 0.5, 0.99, 1.0] {
                let want = if sorted.is_empty() {
                    0.0
                } else {
                    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
                };
                let got = c.quantile_round(p);
                assert_eq!(got.to_bits(), want.to_bits(), "n {} p {p}", sorted.len());
            }
        }
    }

    #[test]
    fn ascending_iter_is_the_sorted_expansion() {
        for pop in populations() {
            let c = counts_of(&pop);
            let mut sorted = expand(&pop);
            sorted.sort_by(f64::total_cmp);
            let got: Vec<u64> = c
                .iter()
                .inspect(|&(_, w)| assert!(w > 0, "no zero-weight entries"))
                .flat_map(|(v, w)| std::iter::repeat_n(v.to_bits(), w))
                .collect();
            let want: Vec<u64> = sorted.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want);
            assert_eq!(c.is_empty(), want.is_empty());
        }
    }

    #[test]
    fn signed_zeros_are_distinct_values_in_total_order() {
        let c = counts_of(&[(0.0, 2), (-0.0, 3)]);
        let got: Vec<(u64, usize)> = c.iter().map(|(v, w)| (v.to_bits(), w)).collect();
        assert_eq!(got, [((-0.0f64).to_bits(), 3), (0.0f64.to_bits(), 2)]);
        assert!(c.quantile_ceil(0.5).is_sign_negative());
        assert!(c.quantile_round(1.0).is_sign_positive());
    }

    #[test]
    fn merge_is_independent_of_order() {
        let pops = populations();
        let parts: Vec<LatencyCounts> = pops.iter().map(|p| counts_of(p)).collect();
        let mut forward = LatencyCounts::new();
        for c in &parts {
            forward.merge(c);
        }
        let mut backward = LatencyCounts::new();
        for c in parts.iter().rev() {
            backward.merge(c);
        }
        // Interleaved: even-indexed parts into one, odd into another, then
        // the two halves joined the other way round.
        let (mut even, mut odd) = (LatencyCounts::new(), LatencyCounts::new());
        for (i, c) in parts.iter().enumerate() {
            if i % 2 == 0 { &mut even } else { &mut odd }.merge(c);
        }
        odd.merge(&even);
        assert_eq!(forward, backward);
        assert_eq!(forward, odd);
        let all: Vec<(f64, usize)> = pops.concat();
        assert_eq!(forward, counts_of(&all), "merge equals adding everything");
    }

    #[test]
    fn empty_counts_report_zero() {
        let c = LatencyCounts::new();
        assert_eq!(c.quantile_ceil(0.99), 0.0);
        assert_eq!(c.quantile_round(0.5), 0.0);
        assert_eq!(c.iter().count(), 0);
    }
}
