//! LongSight's hybrid dense–sparse attention backend (paper §5, §6).
//!
//! The GPU keeps a sliding window of the `W` most recent KV pairs (plus a few
//! attention-sink tokens) and attends to them densely; everything older lives
//! in the device-side store and is reached through the three-stage sparse
//! pipeline — SCF **filtering**, full-precision **scoring**, and top-*k*
//! **ranking**. A single softmax is applied over the combined dense + sparse
//! candidate set.
//!
//! [`LongSightBackend`] is the functional reference implementation (the
//! paper's `LongSightAttn` PyTorch module). The `longsight-drex` crate
//! implements the same retrieval through the simulated device; an integration
//! test pins them to identical results.

use crate::itq::RotationTable;
use crate::scf::{filter_block_packed, ThresholdTable, PFU_BLOCK_KEYS};
use crate::stats::FilterStats;
use longsight_model::{attend_over_indices, AttentionBackend, AttentionRequest};
use longsight_tensor::{vecops, SignArena, TopK};

/// Structural parameters of hybrid attention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridConfig {
    /// Dense sliding-window size `W` (the paper uses 1,024 by default).
    pub window: usize,
    /// Number of attention-sink tokens kept dense (16 in the paper, §8.1.3).
    pub sinks: usize,
    /// Top-k retrieval budget `k` (hardware maximum 1,024, §7.2).
    pub top_k: usize,
}

impl HybridConfig {
    /// The paper's default configuration: `W = 1024`, 16 sinks, `k = 1024`.
    pub fn paper_default() -> Self {
        Self {
            window: 1024,
            sinks: 16,
            top_k: 1024,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message for the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("window must be positive (a query must see itself)".into());
        }
        if self.top_k > 1024 {
            return Err(format!(
                "top_k {} exceeds the hardware maximum of 1024",
                self.top_k
            ));
        }
        Ok(())
    }
}

/// The hybrid dense–sparse attention backend.
///
/// # Example
///
/// ```
/// use longsight_core::{HybridConfig, LongSightBackend, RotationTable, ThresholdTable};
/// use longsight_model::{Model, ModelConfig, ModelWeights, DenseBackend};
/// use longsight_tensor::SimRng;
///
/// let cfg = ModelConfig::tiny();
/// let mut rng = SimRng::seed_from(0);
/// let model = Model::new(ModelWeights::random(&cfg, &mut rng));
/// let mut backend = LongSightBackend::new(
///     HybridConfig { window: 8, sinks: 2, top_k: 16 },
///     ThresholdTable::zeros(cfg.layers, cfg.kv_heads),
///     RotationTable::identity(cfg.layers, cfg.kv_heads, cfg.head_dim),
/// );
/// let mut cache = model.new_cache();
/// let logits = model.forward(1, 0, &mut cache, &mut backend);
/// assert_eq!(logits.len(), cfg.vocab);
/// ```
#[derive(Debug, Clone)]
pub struct LongSightBackend {
    config: HybridConfig,
    thresholds: ThresholdTable,
    rotations: RotationTable,
    /// One packed sign arena per `(layer, kv_head)` — the functional mirror
    /// of the Key Sign Object regions stored in DReX, maintained
    /// incrementally as keys leave the dense window.
    arenas: Vec<SignArena>,
    kv_heads: usize,
    stats: FilterStats,
}

impl LongSightBackend {
    /// Creates a backend.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the threshold/rotation
    /// tables disagree on the head grid.
    pub fn new(config: HybridConfig, thresholds: ThresholdTable, rotations: RotationTable) -> Self {
        config.validate().expect("invalid hybrid config");
        let layers = thresholds.layers();
        let kv_heads = thresholds.kv_heads();
        let arenas = (0..layers * kv_heads)
            .map(|i| SignArena::new(rotations.get(i / kv_heads, i % kv_heads).dim()))
            .collect();
        Self {
            config,
            thresholds,
            rotations,
            arenas,
            kv_heads,
            stats: FilterStats::new(layers, kv_heads),
        }
    }

    /// The hybrid configuration.
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    /// Cumulative filter statistics (not cleared by [`AttentionBackend::reset`]).
    pub fn stats(&self) -> &FilterStats {
        &self.stats
    }

    /// Takes and resets the cumulative statistics.
    pub fn take_stats(&mut self) -> FilterStats {
        let layers = self.thresholds.layers();
        std::mem::replace(&mut self.stats, FilterStats::new(layers, self.kv_heads))
    }

    /// Splits the history `0..=position` into (sinks_end, window_start):
    /// `[0, sinks_end)` are dense sink tokens, `[window_start, position]` is
    /// the dense window, `[sinks_end, window_start)` is the sparse region.
    fn partition(&self, position: usize) -> (usize, usize) {
        let n = position + 1;
        let window_start = n.saturating_sub(self.config.window);
        let sinks_end = self.config.sinks.min(window_start);
        (sinks_end, window_start)
    }
}

impl AttentionBackend for LongSightBackend {
    fn attend(&mut self, req: &AttentionRequest<'_>) -> Vec<Vec<f32>> {
        let (sinks_end, window_start) = self.partition(req.position);
        let head_idx = req.layer * self.kv_heads + req.kv_head;
        let rotation = self.rotations.get(req.layer, req.kv_head);
        let threshold = self.thresholds.get(req.layer, req.kv_head);

        // Sync rotated sign bits for keys that have left the window — the
        // functional equivalent of flushing Key Sign Objects to DReX. The
        // arena append packs lanes in place; no per-key SignBits exists.
        let arena = &mut self.arenas[head_idx];
        let keys = req.history.keys();
        while arena.len() < window_start {
            let i = arena.len();
            rotation.signs_into(keys.get(i), arena);
        }

        let n = req.position + 1;
        let region = window_start - sinks_end;
        let top_k = self.config.top_k;
        let mut outputs = Vec::with_capacity(req.queries.len());
        for q in req.queries {
            // --- Sparse pipeline over [sinks_end, window_start) ---
            let mut candidates: Vec<usize> = (0..sinks_end).collect();
            let mut scored = 0u64;
            let mut retrieved = 0u64;
            if region > 0 && top_k > 0 {
                let q_signs = rotation.signs(q);
                let arena = &*arena;
                // The filter→score→rank scan is embarrassingly parallel over
                // fixed-size chunks of the sparse region (this mirrors the
                // per-partition PFU parallelism of the real device). Each
                // chunk keeps a bounded local top-k; merging the per-chunk
                // selectors into one final selector is *bit-identical* to
                // the serial scan, because a TopK's retained set is a pure
                // function of the pushed (score, index) multiset — any
                // global top-k element is necessarily in its own chunk's
                // local top-k, and scores are computed per element from the
                // same inputs either way.
                const SCAN_CHUNK: usize = 4096;
                let chunks = region.div_ceil(SCAN_CHUNK);
                let partials = longsight_exec::map_range(chunks, |c| {
                    let start = sinks_end + c * SCAN_CHUNK;
                    let end = (start + SCAN_CHUNK).min(window_start);
                    let mut top = TopK::new(top_k);
                    let mut chunk_scored = 0u64;
                    // Stage 1 runs one PFU epoch per 128-key block off the
                    // packed lanes; survivors are then scored in ascending
                    // index order, so stages 2–3 see the exact (score, index)
                    // sequence the per-key scan produced.
                    let mut block = start;
                    while block < end {
                        let block_end = (block + PFU_BLOCK_KEYS).min(end);
                        // Stage 1: in-memory filtering (PFU epoch).
                        let mut bitmap =
                            filter_block_packed(&q_signs, arena, block..block_end, threshold);
                        while bitmap != 0 {
                            let i = block + bitmap.trailing_zeros() as usize;
                            bitmap &= bitmap - 1;
                            // Stage 2: full-precision scoring (NMA).
                            chunk_scored += 1;
                            let s = vecops::dot(q, keys.get(i));
                            // Stage 3: ranking.
                            top.push(s, i);
                        }
                        block = block_end;
                    }
                    (top, chunk_scored)
                });
                let mut top = TopK::new(top_k);
                for (part, chunk_scored) in partials {
                    scored += chunk_scored;
                    top.merge(part);
                }
                let selected = top.into_vec();
                retrieved = selected.len() as u64;
                candidates.extend(selected.iter().map(|s| s.index));
            } else if region > 0 {
                // k = 0: sparse phase disabled entirely.
            }
            // --- Dense window ---
            candidates.extend(window_start..n);
            candidates.sort_unstable();

            // Single softmax over the combined dense + sparse candidate set.
            outputs.push(attend_over_indices(q, req.history, &candidates, req.scale));

            // --- Accounting ---
            self.stats.queries += 1;
            self.stats.dense_kv += n as u64;
            self.stats.window_accessed += (n - window_start) as u64 + sinks_end as u64;
            self.stats.sparse_region += region as u64;
            self.stats.scored += scored;
            self.stats.retrieved += retrieved;
            let ph = &mut self.stats.per_head[head_idx];
            ph.region += region as u64;
            ph.scored += scored;
            ph.retrieved += retrieved;
        }
        outputs
    }

    fn label(&self) -> String {
        format!(
            "longsight(W={},sinks={},k={})",
            self.config.window, self.config.sinks, self.config.top_k
        )
    }

    fn reset(&mut self) {
        for a in &mut self.arenas {
            a.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itq::RotationTable;
    use longsight_model::{DenseBackend, HeadKv};
    use longsight_tensor::SimRng;

    fn mk_history(n: usize, dim: usize, rng: &mut SimRng) -> HeadKv {
        let mut h = HeadKv::new(dim);
        for _ in 0..n {
            let k = rng.normal_vec(dim);
            let v = rng.normal_vec(dim);
            h.push(&k, &v);
        }
        h
    }

    fn run_both(
        backend: &mut LongSightBackend,
        history: &HeadKv,
        q: &[f32],
        position: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let queries = vec![q.to_vec()];
        let req = AttentionRequest {
            layer: 0,
            kv_head: 0,
            position,
            queries: &queries,
            history,
            scale: 0.25,
        };
        let got = backend.attend(&req)[0].clone();
        let want = DenseBackend::new().attend(&req)[0].clone();
        (got, want)
    }

    #[test]
    fn equals_dense_when_unfiltered_and_k_covers_region() {
        let mut rng = SimRng::seed_from(1);
        let history = mk_history(64, 8, &mut rng);
        let mut backend = LongSightBackend::new(
            HybridConfig {
                window: 4,
                sinks: 2,
                top_k: 64,
            },
            ThresholdTable::zeros(1, 1),
            RotationTable::identity(1, 1, 8),
        );
        let q = rng.normal_vec(8);
        let (got, want) = run_both(&mut backend, &history, &q, 63);
        for (a, b) in got.iter().zip(&want) {
            assert!(
                (a - b).abs() < 1e-5,
                "hybrid must equal dense when nothing is pruned"
            );
        }
    }

    #[test]
    fn equals_dense_when_window_covers_history() {
        let mut rng = SimRng::seed_from(2);
        let history = mk_history(16, 8, &mut rng);
        let mut backend = LongSightBackend::new(
            HybridConfig {
                window: 100,
                sinks: 0,
                top_k: 1,
            },
            ThresholdTable::uniform(1, 1, 8), // harsh threshold, but no region
            RotationTable::identity(1, 1, 8),
        );
        let q = rng.normal_vec(8);
        let (got, want) = run_both(&mut backend, &history, &q, 15);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-5);
        }
        // Nothing entered the sparse pipeline.
        assert_eq!(backend.stats().sparse_region, 0);
        assert_eq!(backend.stats().filter_ratio_nonwindow(), 1.0);
    }

    #[test]
    fn top_k_limits_retrieved_values() {
        let mut rng = SimRng::seed_from(3);
        let history = mk_history(128, 8, &mut rng);
        let mut backend = LongSightBackend::new(
            HybridConfig {
                window: 8,
                sinks: 2,
                top_k: 5,
            },
            ThresholdTable::zeros(1, 1),
            RotationTable::identity(1, 1, 8),
        );
        let q = rng.normal_vec(8);
        let _ = run_both(&mut backend, &history, &q, 127);
        let s = backend.stats();
        // All 118 region keys scored (threshold 0), 5 values retrieved.
        assert_eq!(s.sparse_region, 118);
        assert_eq!(s.scored, 118);
        assert_eq!(s.retrieved, 5);
        assert!(s.filter_ratio_nonwindow() > 118.0 / 124.0);
    }

    #[test]
    fn max_threshold_filters_everything_leaving_window_only() {
        let mut rng = SimRng::seed_from(4);
        let history = mk_history(64, 8, &mut rng);
        let mut backend = LongSightBackend::new(
            HybridConfig {
                window: 4,
                sinks: 0,
                top_k: 16,
            },
            ThresholdTable::uniform(1, 1, 9), // > dim: impossible to pass
            RotationTable::identity(1, 1, 8),
        );
        let q = rng.normal_vec(8);
        let (got, _) = run_both(&mut backend, &history, &q, 63);
        assert!(got.iter().all(|x| x.is_finite()));
        assert_eq!(backend.stats().scored, 0);
        assert_eq!(backend.stats().retrieved, 0);
    }

    #[test]
    fn reset_clears_sign_caches_but_not_stats() {
        let mut rng = SimRng::seed_from(5);
        let history = mk_history(32, 8, &mut rng);
        let mut backend = LongSightBackend::new(
            HybridConfig {
                window: 4,
                sinks: 0,
                top_k: 8,
            },
            ThresholdTable::zeros(1, 1),
            RotationTable::identity(1, 1, 8),
        );
        let q = rng.normal_vec(8);
        let _ = run_both(&mut backend, &history, &q, 31);
        let before = backend.stats().queries;
        backend.reset();
        assert_eq!(backend.stats().queries, before);
        // After reset a fresh (shorter) history must work.
        let short = mk_history(8, 8, &mut rng);
        let _ = run_both(&mut backend, &short, &q, 7);
    }

    #[test]
    #[should_panic(expected = "exceeds the hardware maximum")]
    fn k_beyond_hardware_limit_is_rejected() {
        let _ = LongSightBackend::new(
            HybridConfig {
                window: 4,
                sinks: 0,
                top_k: 2048,
            },
            ThresholdTable::zeros(1, 1),
            RotationTable::identity(1, 1, 8),
        );
    }
}
