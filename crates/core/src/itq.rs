//! Iterative Quantization (ITQ) — paper §5.4, following Gong & Lazebnik.
//!
//! SCF assumes sign bits are informative, i.e. vectors spread around the
//! origin. Real K/Q representations are strongly clustered with a large DC
//! component, so raw sign bits waste dimensions. ITQ learns an orthogonal
//! rotation `R` minimizing the binary quantization error `‖sign(X·R) − X·R‖²`
//! by alternating:
//!
//! 1. `B = sign(X·R)` (binary codes for fixed rotation),
//! 2. `R = U·Vᵀ` from the SVD of `Xᵀ·B` (orthogonal Procrustes).
//!
//! One rotation is trained per KV head on a short (≈1K token) trace of
//! post-RoPE keys and queries; at inference it is applied to queries and keys
//! *after* positional embedding, because RoPE breaks the invariance that
//! would allow fusing it into the projection weights. Crucially, applying
//! the same rotation to both Q and K leaves dot products unchanged — only
//! the sign bits (and therefore SCF) are affected.

use longsight_tensor::{linalg, FlatVecs, Matrix, SignArena, SignBits, SimRng};

/// A learned orthogonal rotation for one KV head.
#[derive(Debug, Clone)]
pub struct ItqRotation {
    r: Matrix,
    /// `r` is exactly the identity matrix.
    identity: bool,
}

/// Keys per chunk when [`ItqRotation::sign_arena`] packs on the worker pool.
const SIGN_CHUNK_KEYS: usize = 1024;

/// Training hyperparameters for [`ItqRotation::train`].
#[derive(Debug, Clone)]
pub struct ItqConfig {
    /// Number of alternating iterations (50 in the original paper's setup).
    pub iterations: usize,
    /// RNG seed for the initial random rotation.
    pub seed: u64,
}

impl Default for ItqConfig {
    fn default() -> Self {
        Self {
            iterations: 40,
            seed: 0x17_0517,
        }
    }
}

impl ItqRotation {
    /// The identity rotation (ITQ disabled).
    pub fn identity(dim: usize) -> Self {
        Self::from_matrix(Matrix::identity(dim))
    }

    fn from_matrix(r: Matrix) -> Self {
        let identity = r == Matrix::identity(r.rows());
        Self { r, identity }
    }

    /// Trains a rotation on `data` (rows are training vectors).
    ///
    /// Following Gong & Lazebnik, the training data is **mean-centered**
    /// before the alternating minimization: on raw (uncentered) data the
    /// objective is minimized by aligning the data mean with a binary corner,
    /// which *concentrates* sign bits instead of balancing them. The learned
    /// rotation is then applied *without* centering at inference (a pure
    /// matrix multiply, preserving Q·K dot products) — the centered-trained
    /// rotation spreads the variance (and the DC lands incoherently across
    /// dimensions), which is exactly the sign-balance repair the paper
    /// describes (§5.4).
    ///
    /// # Panics
    ///
    /// Panics if `data` has no rows.
    pub fn train(data: &Matrix, cfg: &ItqConfig) -> Self {
        assert!(data.rows() > 0, "ITQ needs at least one training vector");
        let d = data.cols();
        let means = data.col_means();
        let centered = Matrix::from_fn(data.rows(), d, |r, c| data.get(r, c) - means[c]);
        let data = &centered;
        let mut rng = SimRng::seed_from(cfg.seed);
        let mut r = linalg::random_orthogonal(d, &mut rng);
        for _ in 0..cfg.iterations {
            // B = sign(X R), entries in {-1, +1}.
            let xr = data.matmul(&r);
            let b = Matrix::from_fn(
                xr.rows(),
                d,
                |i, j| {
                    if xr.get(i, j) < 0.0 {
                        -1.0
                    } else {
                        1.0
                    }
                },
            );
            // Procrustes: R = U Vᵀ of M = Xᵀ B.
            let m = data.transpose().matmul(&b);
            r = linalg::procrustes_rotation(&m);
        }
        Self::from_matrix(r)
    }

    /// Dimensionality the rotation operates on.
    pub fn dim(&self) -> usize {
        self.r.rows()
    }

    /// The rotation matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.r
    }

    /// Applies the rotation to a vector (`v · R`).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`.
    pub fn apply(&self, v: &[f32]) -> Vec<f32> {
        self.r.vecmat(v)
    }

    /// Whether `v · R` has the sign bits of `v` itself, so the multiply can
    /// be skipped: true for the identity rotation and a finite `v`. (The
    /// identity `vecmat` of a finite vector returns each nonzero entry
    /// exactly and `+0.0` for `±0.0`, which packs like the input; an
    /// infinite or NaN entry would poison every output through `x · 0`.)
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`.
    fn signs_pass_through(&self, v: &[f32]) -> bool {
        assert_eq!(v.len(), self.dim(), "rotation dimension mismatch");
        self.identity && v.iter().all(|x| x.is_finite())
    }

    /// Rotates and extracts sign bits in one step.
    pub fn signs(&self, v: &[f32]) -> SignBits {
        if self.signs_pass_through(v) {
            SignBits::from_slice(v)
        } else {
            SignBits::from_slice(&self.apply(v))
        }
    }

    /// Rotates `v` and packs its sign bits straight onto the tail of a
    /// [`SignArena`] — the append path of the packed sign store, with no
    /// per-key [`SignBits`] allocation.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim` or the arena's dimension differs.
    pub fn signs_into(&self, v: &[f32], arena: &mut SignArena) {
        if self.signs_pass_through(v) {
            arena.push_signs_of(v);
        } else {
            arena.push_signs_of(&self.apply(v));
        }
    }

    /// Rotates every vector of `keys` and packs the sign bits into a new
    /// arena — the Key Sign Object region of one head.
    ///
    /// Chunks of keys are packed on the deterministic parallel map and
    /// appended in chunk order, so the arena equals the one serial
    /// [`Self::signs_into`] calls would build, at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `keys.dim() != dim`.
    pub fn sign_arena(&self, keys: &FlatVecs) -> SignArena {
        assert_eq!(keys.dim(), self.dim(), "rotation dimension mismatch");
        let n = keys.len();
        let chunks = longsight_exec::map_range(n.div_ceil(SIGN_CHUNK_KEYS), |c| {
            let mut part = SignArena::new(keys.dim());
            for i in c * SIGN_CHUNK_KEYS..((c + 1) * SIGN_CHUNK_KEYS).min(n) {
                self.signs_into(keys.get(i), &mut part);
            }
            part
        });
        let mut arena = SignArena::new(keys.dim());
        for part in &chunks {
            arena.append(part);
        }
        arena
    }

    /// Mean binary quantization error `‖sign(XR) − XR‖² / n` over `data` —
    /// the objective ITQ minimizes. Exposed for diagnostics and tests.
    pub fn quantization_error(&self, data: &Matrix) -> f64 {
        let xr = data.matmul(&self.r);
        let mut err = 0.0f64;
        for i in 0..xr.rows() {
            for j in 0..xr.cols() {
                let v = xr.get(i, j);
                let b = if v < 0.0 { -1.0 } else { 1.0 };
                err += ((v - b) as f64).powi(2);
            }
        }
        err / xr.rows() as f64
    }
}

/// Per-`(layer, kv_head)` rotations.
#[derive(Debug, Clone)]
pub struct RotationTable {
    kv_heads: usize,
    rotations: Vec<ItqRotation>,
}

impl RotationTable {
    /// Builds a table of identity rotations (ITQ off).
    pub fn identity(layers: usize, kv_heads: usize, dim: usize) -> Self {
        Self {
            kv_heads,
            rotations: vec![ItqRotation::identity(dim); layers * kv_heads],
        }
    }

    /// Builds a table from a function producing each head's rotation.
    pub fn from_fn(
        layers: usize,
        kv_heads: usize,
        mut f: impl FnMut(usize, usize) -> ItqRotation,
    ) -> Self {
        let mut rotations = Vec::with_capacity(layers * kv_heads);
        for l in 0..layers {
            for h in 0..kv_heads {
                rotations.push(f(l, h));
            }
        }
        Self {
            kv_heads,
            rotations,
        }
    }

    /// The rotation for `(layer, kv_head)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, layer: usize, kv_head: usize) -> &ItqRotation {
        &self.rotations[layer * self.kv_heads + kv_head]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsight_tensor::vecops;

    /// Clustered anisotropic data: a DC offset plus a Gaussian mixture.
    fn clustered_data(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = SimRng::seed_from(seed);
        let dc: Vec<f32> = (0..d).map(|i| if i < d / 4 { 2.0 } else { 0.0 }).collect();
        let centers: Vec<Vec<f32>> = (0..8).map(|_| rng.normal_vec(d)).collect();
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let c = &centers[rng.below(centers.len())];
            let row: Vec<f32> = (0..d)
                .map(|j| dc[j] + c[j] + 0.5 * rng.normal() as f32)
                .collect();
            rows.push(row);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn rotation_is_orthogonal() {
        let data = clustered_data(256, 16, 1);
        let rot = ItqRotation::train(&data, &ItqConfig::default());
        assert!(linalg::orthogonality_error(rot.matrix()) < 1e-3);
    }

    #[test]
    fn rotation_preserves_dot_products() {
        let data = clustered_data(128, 16, 2);
        let rot = ItqRotation::train(&data, &ItqConfig::default());
        let mut rng = SimRng::seed_from(3);
        let q = rng.normal_vec(16);
        let k = rng.normal_vec(16);
        let before = vecops::dot(&q, &k);
        let after = vecops::dot(&rot.apply(&q), &rot.apply(&k));
        assert!((before - after).abs() < 1e-3);
    }

    #[test]
    fn training_reduces_quantization_error() {
        let data = clustered_data(512, 16, 4);
        let identity = ItqRotation::identity(16);
        let trained = ItqRotation::train(&data, &ItqConfig::default());
        let before = identity.quantization_error(&data);
        let after = trained.quantization_error(&data);
        assert!(
            after < before,
            "ITQ should reduce quantization error: {before} -> {after}"
        );
    }

    #[test]
    fn itq_balances_sign_bits_on_dc_shifted_data() {
        // All vectors share a large positive offset in the first quarter of
        // dims: raw sign bits there are constant (useless). ITQ trains on
        // centered data, so the balance it promises is of the centered,
        // rotated codes — measure exactly that pipeline. (Rotating the
        // uncentered data keeps the DC component and guarantees nothing.)
        let data = clustered_data(512, 16, 5);
        let imbalance = |m: &Matrix| -> f64 {
            let mut worst: f64 = 0.0;
            for j in 0..m.cols() {
                let neg = (0..m.rows()).filter(|&i| m.get(i, j) < 0.0).count();
                let frac = neg as f64 / m.rows() as f64;
                worst = worst.max((frac - 0.5).abs());
            }
            worst
        };
        let raw = imbalance(&data);
        assert!(
            raw > 0.49,
            "test premise: raw data has a dead sign dimension"
        );
        let rot = ItqRotation::train(&data, &ItqConfig::default());
        let means = data.col_means();
        let centered = Matrix::from_fn(data.rows(), data.cols(), |r, c| data.get(r, c) - means[c]);
        let fixed = imbalance(&centered.matmul(rot.matrix()));
        assert!(
            fixed < 0.2,
            "centered+rotated codes must have balanced signs ({raw} -> {fixed})"
        );
    }

    #[test]
    fn identity_sign_shortcut_matches_the_multiply() {
        let rot = ItqRotation::identity(6);
        let trained = ItqRotation::train(&clustered_data(64, 6, 6), &ItqConfig::default());
        assert!(rot.identity && !trained.identity);
        for v in [
            vec![1.5, -0.0, 0.0, -2.0, 3.0e-40, -1.0e30],
            vec![1.0, -1.0, f32::INFINITY, -2.0, 0.5, -0.5],
            vec![-1.0, f32::NAN, 2.0, -3.0, 0.0, -0.0],
        ] {
            let multiplied = SignBits::from_slice(&rot.apply(&v));
            assert_eq!(rot.signs(&v), multiplied, "{v:?}");
            let mut arena = SignArena::new(6);
            rot.signs_into(&v, &mut arena);
            assert_eq!(arena.get(0), multiplied, "{v:?}");
        }
    }

    #[test]
    fn sign_arena_equals_serial_packing() {
        let data = clustered_data(2 * SIGN_CHUNK_KEYS + 37, 16, 7);
        let mut keys = FlatVecs::new(16);
        for r in 0..data.rows() {
            keys.push(data.row(r));
        }
        for rot in [
            ItqRotation::identity(16),
            ItqRotation::train(&data, &ItqConfig::default()),
        ] {
            let mut serial = SignArena::new(16);
            for k in keys.iter() {
                rot.signs_into(k, &mut serial);
            }
            assert_eq!(rot.sign_arena(&keys), serial);
        }
    }

    #[test]
    fn identity_rotation_is_noop() {
        let rot = ItqRotation::identity(8);
        let v = vec![1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0];
        assert_eq!(rot.apply(&v), v);
    }

    #[test]
    fn rotation_table_indexing() {
        let t = RotationTable::from_fn(2, 3, |l, h| {
            if (l, h) == (1, 2) {
                ItqRotation::identity(4)
            } else {
                ItqRotation::identity(8)
            }
        });
        assert_eq!(t.get(1, 2).dim(), 4);
        assert_eq!(t.get(0, 0).dim(), 8);
    }
}
