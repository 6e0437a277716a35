//! Trace-based quality evaluation for long contexts.
//!
//! Full-model perplexity runs are quadratic in context length; beyond ~16K
//! tokens the quality experiments instead run the *identical* retrieval
//! pipeline over generated Q/K/V traces ([`longsight_model::tracegen`]) and
//! measure how faithfully hybrid attention approximates dense attention:
//!
//! * **top-k recall** — fraction of the exact highest-scoring non-window keys
//!   that the SCF→score→rank pipeline retrieves,
//! * **ground-truth recall** — fraction of the trace's engineered relevant
//!   positions present in the final candidate set,
//! * **output error** — relative L2 distance between the hybrid and dense
//!   attention outputs.
//!
//! `DESIGN.md` documents this as the substitution for perplexity at contexts
//! the forward pass cannot reach.

use crate::hybrid::HybridConfig;
use crate::itq::ItqRotation;
use crate::scf::{filter_block_packed, PFU_BLOCK_KEYS};
use crate::stats::FilterStats;
use longsight_model::attend_with_scores;
use longsight_model::tracegen::HeadTrace;
use longsight_tensor::{vecops, SignArena, SignBits, TopK};

/// Quality of the hybrid pipeline on one head trace.
#[derive(Debug, Clone)]
pub struct TraceQuality {
    /// Recall of the exact top-k (by true score) within the sparse region.
    pub topk_recall: f64,
    /// Recall of the trace's ground-truth relevant positions in the full
    /// candidate set (window + sinks + retrieved).
    pub ground_truth_recall: f64,
    /// Mean relative L2 error of hybrid vs. dense attention output.
    pub output_rel_err: f64,
    /// Access statistics (single head).
    pub stats: FilterStats,
}

/// The threshold-independent state of one `(trace, rotation, config)`
/// evaluation, built once so a threshold sweep only pays for the work that
/// changes with the threshold.
///
/// Preparation packs the rotated key signs (the Key Sign Object region the
/// PFUs scan) and, per query probe, the rotated query signs, every score
/// `q·k`, the exact top-k of the sparse region and the dense attention
/// output. [`PreparedTrace::evaluate`] then runs only the packed SCF scan,
/// the survivor top-k over the stored scores and hybrid attention over the
/// candidates. Keys and values are read straight from the trace.
///
/// Every metric is bit-identical to a fresh evaluation at any thread count:
/// the stored scores carry the bits of `vecops::dot(q, k)` in key order, so
/// top-k tie-breaks and attention weights do not move.
#[derive(Debug, Clone)]
pub struct PreparedTrace<'a> {
    trace: &'a HeadTrace,
    top_k: usize,
    sinks_end: usize,
    window_start: usize,
    scale: f32,
    key_signs: SignArena,
    probes: Vec<PreparedProbe>,
}

/// Threshold-independent state of one query probe.
#[derive(Debug, Clone)]
struct PreparedProbe {
    signs: SignBits,
    /// `q·k` for every key of the trace, unscaled.
    scores: Vec<f32>,
    /// The exact top-k of the sparse region, sorted by key index.
    exact: Vec<usize>,
    dense_out: Vec<f32>,
}

impl<'a> PreparedTrace<'a> {
    /// Builds the threshold-independent state of `trace` under `rotation`
    /// (pass [`ItqRotation::identity`] for raw SCF) and `config`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or the rotation dimension mismatches.
    pub fn new(trace: &'a HeadTrace, rotation: &ItqRotation, config: &HybridConfig) -> Self {
        assert!(!trace.is_empty(), "empty trace");
        let n = trace.len();
        let d = trace.keys.dim();
        assert_eq!(rotation.dim(), d, "rotation dimension mismatch");

        let window_start = n.saturating_sub(config.window);
        let sinks_end = config.sinks.min(window_start);
        let scale = 1.0 / (d as f32).sqrt();
        let all: Vec<usize> = (0..n).collect();
        let probes = longsight_exec::deterministic_map(&trace.queries, |_, probe| {
            let q = &probe.q;
            let scores: Vec<f32> = trace.keys.iter().map(|k| vecops::dot(q, k)).collect();
            let mut top = TopK::new(config.top_k);
            for (i, &s) in scores.iter().enumerate().take(window_start).skip(sinks_end) {
                top.push(s, i);
            }
            let mut exact: Vec<usize> = top.into_vec().iter().map(|s| s.index).collect();
            exact.sort_unstable();
            let scaled: Vec<f32> = scores.iter().map(|&s| s * scale).collect();
            PreparedProbe {
                signs: rotation.signs(q),
                dense_out: attend_with_scores(&trace.values, &all, &scaled),
                scores,
                exact,
            }
        });
        Self {
            trace,
            top_k: config.top_k,
            sinks_end,
            window_start,
            scale,
            key_signs: rotation.sign_arena(&trace.keys),
            probes,
        }
    }

    /// The rotated key signs, one per trace key.
    pub fn key_signs(&self) -> &SignArena {
        &self.key_signs
    }

    /// The rotated sign bits of query probe `probe`.
    ///
    /// # Panics
    ///
    /// Panics if `probe` is out of range.
    pub fn query_signs(&self, probe: usize) -> &SignBits {
        &self.probes[probe].signs
    }

    /// The exact top-k keys of the sparse region for query probe `probe`,
    /// sorted by key index.
    ///
    /// # Panics
    ///
    /// Panics if `probe` is out of range.
    pub fn exact_top_k(&self, probe: usize) -> &[usize] {
        &self.probes[probe].exact
    }

    /// Runs the hybrid pipeline over every query probe at SCF `threshold`.
    pub fn evaluate(&self, threshold: u32) -> TraceQuality {
        let n = self.trace.len();
        let (sinks_end, window_start) = (self.sinks_end, self.window_start);
        let region = window_start - sinks_end;

        // Each probe is an independent evaluation of the same read-only
        // prepared state, so the probe loop runs on the deterministic
        // parallel map; the accumulators are folded serially in probe order
        // below, which keeps the floating-point `err_sum` reduction order —
        // and therefore every metric — bit-identical to the serial loop at
        // any thread count.
        let per_probe = longsight_exec::deterministic_map(&self.probes, |pi, p| {
            // Sparse pipeline over the region: one PFU epoch per 128-key
            // block off the packed arena; survivors feed the top-k in key
            // order.
            let mut top = TopK::new(self.top_k);
            let mut scored = 0u64;
            let mut block = sinks_end;
            while block < window_start {
                let block_end = (block + PFU_BLOCK_KEYS).min(window_start);
                let mut bitmap =
                    filter_block_packed(&p.signs, &self.key_signs, block..block_end, threshold);
                while bitmap != 0 {
                    let i = block + bitmap.trailing_zeros() as usize;
                    bitmap &= bitmap - 1;
                    scored += 1;
                    top.push(p.scores[i], i);
                }
                block = block_end;
            }
            let mut retrieved: Vec<usize> = top.into_vec().iter().map(|s| s.index).collect();
            retrieved.sort_unstable();
            let topk_hits = retrieved
                .iter()
                .filter(|i| p.exact.binary_search(i).is_ok())
                .count();

            // Sinks, the retrieved keys and the window are disjoint ranges
            // in that order, so the candidate list is already sorted.
            let mut candidates: Vec<usize> = (0..sinks_end).collect();
            candidates.extend(retrieved.iter().copied());
            candidates.extend(window_start..n);

            let relevant = &self.trace.queries[pi].relevant;
            let gt_hits = relevant
                .iter()
                .filter(|i| candidates.binary_search(i).is_ok())
                .count();

            let scaled: Vec<f32> = candidates
                .iter()
                .map(|&i| p.scores[i] * self.scale)
                .collect();
            let hybrid_out = attend_with_scores(&self.trace.values, &candidates, &scaled);
            let diff: f32 = hybrid_out
                .iter()
                .zip(&p.dense_out)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt();
            let denom = vecops::l2_norm(&p.dense_out).max(1e-12);
            let rel_err = (diff / denom) as f64;

            (
                topk_hits,
                p.exact.len(),
                gt_hits,
                relevant.len(),
                rel_err,
                scored,
                retrieved.len() as u64,
            )
        });

        let mut stats = FilterStats::new(1, 1);
        let mut topk_hits = 0usize;
        let mut topk_total = 0usize;
        let mut gt_hits = 0usize;
        let mut gt_total = 0usize;
        let mut err_sum = 0.0f64;
        for (p_topk_hits, p_topk_total, p_gt_hits, p_gt_total, rel_err, scored, retrieved) in
            per_probe
        {
            topk_hits += p_topk_hits;
            topk_total += p_topk_total;
            gt_hits += p_gt_hits;
            gt_total += p_gt_total;
            err_sum += rel_err;

            stats.queries += 1;
            stats.dense_kv += n as u64;
            stats.window_accessed += (n - window_start) as u64 + sinks_end as u64;
            stats.sparse_region += region as u64;
            stats.scored += scored;
            stats.retrieved += retrieved;
            let ph = &mut stats.per_head[0];
            ph.region += region as u64;
            ph.scored += scored;
            ph.retrieved += retrieved;
        }

        let probes = self.probes.len().max(1) as f64;
        TraceQuality {
            topk_recall: if topk_total == 0 {
                1.0
            } else {
                topk_hits as f64 / topk_total as f64
            },
            ground_truth_recall: if gt_total == 0 {
                1.0
            } else {
                gt_hits as f64 / gt_total as f64
            },
            output_rel_err: err_sum / probes,
            stats,
        }
    }
}

/// Runs the hybrid pipeline over every query probe of `trace` at one SCF
/// threshold: [`PreparedTrace::new`] then [`PreparedTrace::evaluate`].
/// Sweeps over thresholds should prepare once and evaluate per threshold.
///
/// # Panics
///
/// Panics if the trace is empty or the rotation dimension mismatches.
pub fn evaluate_trace(
    trace: &HeadTrace,
    rotation: &ItqRotation,
    config: &HybridConfig,
    threshold: u32,
) -> TraceQuality {
    PreparedTrace::new(trace, rotation, config).evaluate(threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsight_model::tracegen::{generate_head_trace, TraceConfig};
    use longsight_tensor::SimRng;

    fn trace() -> HeadTrace {
        let mut rng = SimRng::seed_from(42);
        generate_head_trace(&TraceConfig::llama_like(64, 4096), &mut rng)
    }

    #[test]
    fn zero_threshold_full_k_gives_perfect_topk_recall() {
        let t = trace();
        let q = evaluate_trace(
            &t,
            &ItqRotation::identity(64),
            &HybridConfig {
                window: 1024,
                sinks: 16,
                top_k: 1024,
            },
            0,
        );
        assert!(
            (q.topk_recall - 1.0).abs() < 1e-12,
            "recall {}",
            q.topk_recall
        );
        assert!(q.output_rel_err < 0.2, "output error {}", q.output_rel_err);
    }

    #[test]
    fn impossible_threshold_kills_recall() {
        let t = trace();
        let q = evaluate_trace(
            &t,
            &ItqRotation::identity(64),
            &HybridConfig {
                window: 256,
                sinks: 16,
                top_k: 512,
            },
            65, // > head_dim: nothing passes
        );
        assert_eq!(q.stats.scored, 0);
        assert!(q.topk_recall < 1e-9);
    }

    #[test]
    fn higher_threshold_means_higher_filter_ratio() {
        let t = trace();
        let cfg = HybridConfig {
            window: 512,
            sinks: 16,
            top_k: 256,
        };
        let rot = ItqRotation::identity(64);
        let low = evaluate_trace(&t, &rot, &cfg, 20);
        let high = evaluate_trace(&t, &rot, &cfg, 40);
        assert!(
            high.stats.filter_ratio_nonwindow() >= low.stats.filter_ratio_nonwindow(),
            "raising the threshold must not lower the filter ratio"
        );
    }

    #[test]
    fn window_contributes_to_ground_truth_recall() {
        let t = trace();
        // Even with the sparse path disabled (impossible threshold), the
        // window catches the recent share of relevant positions.
        let q = evaluate_trace(
            &t,
            &ItqRotation::identity(64),
            &HybridConfig {
                window: 1024,
                sinks: 16,
                top_k: 64,
            },
            65,
        );
        assert!(q.ground_truth_recall > 0.0);
        assert!(q.ground_truth_recall < 1.0);
    }
}
