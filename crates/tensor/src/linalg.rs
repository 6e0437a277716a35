//! Small dense linear algebra: Jacobi eigendecomposition and one-sided Jacobi
//! SVD.
//!
//! The ITQ rotation trainer (paper §5.4) solves an orthogonal Procrustes
//! problem each iteration: given `M = Xᵀ·B`, find the orthogonal `R`
//! minimizing `‖X·R − B‖`, which is `R = U·Vᵀ` from the SVD `M = U·Σ·Vᵀ`.
//! Head dimensions are at most 128 (Table 1), so an `O(d³)` Jacobi method is
//! more than fast enough and numerically robust.

use crate::{Matrix, SimRng};

/// Result of a symmetric eigendecomposition `A = V·diag(λ)·Vᵀ`.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues in descending order.
    pub values: Vec<f32>,
    /// Eigenvectors as columns, in the same order as `values`.
    pub vectors: Matrix,
}

/// Result of a singular value decomposition `A = U·diag(σ)·Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors as columns.
    pub u: Matrix,
    /// Singular values in descending order.
    pub sigma: Vec<f32>,
    /// Right singular vectors as columns (i.e. `V`, not `Vᵀ`).
    pub v: Matrix,
}

const JACOBI_SWEEPS: usize = 60;
const JACOBI_TOL: f64 = 1e-12;

/// Symmetric eigendecomposition by the cyclic Jacobi method.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn eigen_sym(a: &Matrix) -> SymEigen {
    assert_eq!(a.rows(), a.cols(), "eigen_sym requires a square matrix");
    let n = a.rows();
    // Work in f64 for robustness.
    let mut m: Vec<f64> = a.data().iter().map(|&x| x as f64).collect();
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    let at = |m: &[f64], r: usize, c: usize| m[r * n + c];

    for _ in 0..JACOBI_SWEEPS {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                off += at(&m, p, q) * at(&m, p, q);
            }
        }
        if off.sqrt() < JACOBI_TOL {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = at(&m, p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = at(&m, p, p);
                let aqq = at(&m, q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate rows/cols p and q of m.
                for k in 0..n {
                    let mkp = at(&m, k, p);
                    let mkq = at(&m, k, q);
                    m[k * n + p] = c * mkp - s * mkq;
                    m[k * n + q] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = at(&m, p, k);
                    let mqk = at(&m, q, k);
                    m[p * n + k] = c * mpk - s * mqk;
                    m[q * n + k] = s * mpk + c * mqk;
                }
                // Accumulate eigenvectors.
                for k in 0..n {
                    let vkp = at(&v, k, p);
                    let vkq = at(&v, k, q);
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| at(&m, j, j).total_cmp(&at(&m, i, i)));
    let values: Vec<f32> = order.iter().map(|&i| at(&m, i, i) as f32).collect();
    let vectors = Matrix::from_fn(n, n, |r, c| at(&v, r, order[c]) as f32);
    SymEigen { values, vectors }
}

/// One-sided Jacobi SVD of a square matrix.
///
/// Orthogonalizes the columns of `A` by plane rotations accumulated into `V`;
/// the column norms become the singular values and the normalized columns
/// become `U`. Columns with (numerically) zero singular values have their `U`
/// columns completed to an orthonormal basis so that `U` is always orthogonal
/// — this is what the Procrustes solve requires.
///
/// The working `U` and `V` are held column-major, so every column dot
/// product and plane rotation streams contiguous memory, and the squared
/// column norms are kept between pairs instead of recomputed; every value
/// and rounding step is the same as recomputing them (the bits are pinned
/// by `crates/bench/tests/bit_pins.rs`).
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn svd_square(a: &Matrix) -> Svd {
    assert_eq!(a.rows(), a.cols(), "svd_square requires a square matrix");
    let n = a.rows();
    // Column-major working copies: column `c` is `u[c * n..(c + 1) * n]`.
    let mut u: Vec<f64> = (0..n * n).map(|i| a.get(i % n, i / n) as f64).collect();
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }

    let col = |i: usize| i * n..(i + 1) * n;
    let col_dot = |x: &[f64], y: &[f64]| -> f64 {
        let mut s = 0.0;
        for (a, b) in x.iter().zip(y) {
            s += a * b;
        }
        s
    };
    // Rotates columns `p < q` of `m` in place by `(c, s)`.
    let rotate = |m: &mut [f64], p: usize, q: usize, c: f64, s: f64| {
        let (head, tail) = m.split_at_mut(q * n);
        let cp = &mut head[col(p)];
        let cq = &mut tail[..n];
        for (xp, xq) in cp.iter_mut().zip(cq.iter_mut()) {
            let (up, uq) = (*xp, *xq);
            *xp = c * up - s * uq;
            *xq = s * up + c * uq;
        }
    };

    // Squared column norms of `U`, refreshed whenever a rotation changes a
    // column: the same `col_dot` values a per-pair recomputation would give.
    let mut norms: Vec<f64> = (0..n).map(|i| col_dot(&u[col(i)], &u[col(i)])).collect();
    for _ in 0..JACOBI_SWEEPS {
        let mut converged = true;
        for p in 0..n {
            for q in (p + 1)..n {
                let (alpha, beta) = (norms[p], norms[q]);
                let gamma = col_dot(&u[col(p)], &u[col(q)]);
                if gamma.abs() <= JACOBI_TOL * (alpha * beta).sqrt() || gamma == 0.0 {
                    continue;
                }
                converged = false;
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate(&mut u, p, q, c, s);
                rotate(&mut v, p, q, c, s);
                norms[p] = col_dot(&u[col(p)], &u[col(p)]);
                norms[q] = col_dot(&u[col(q)], &u[col(q)]);
            }
        }
        if converged {
            break;
        }
    }

    // Extract singular values and normalize U's columns.
    let mut sigma: Vec<f64> = norms.iter().map(|x| x.sqrt()).collect();
    let scale = sigma.iter().cloned().fold(0.0f64, f64::max).max(1e-300);
    for i in 0..n {
        if sigma[i] > scale * 1e-9 {
            for x in &mut u[col(i)] {
                *x /= sigma[i];
            }
        } else {
            sigma[i] = 0.0;
        }
    }
    // Complete zero columns of U to an orthonormal basis (Gram–Schmidt against
    // the nonzero columns and previously-completed ones).
    for i in 0..n {
        if sigma[i] > 0.0 {
            continue;
        }
        // Try basis vectors until one survives projection.
        let mut best: Option<Vec<f64>> = None;
        for e in 0..n {
            let mut cand = vec![0.0f64; n];
            cand[e] = 1.0;
            for j in 0..n {
                if j == i || (sigma[j] == 0.0 && j > i) {
                    continue;
                }
                let uj = &u[col(j)];
                let proj: f64 = (0..n).map(|r| cand[r] * uj[r]).sum();
                for (c, x) in cand.iter_mut().zip(uj) {
                    *c -= proj * x;
                }
            }
            let norm: f64 = cand.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-6 {
                for c in &mut cand {
                    *c /= norm;
                }
                best = Some(cand);
                break;
            }
        }
        let completed = best.expect("orthonormal completion must succeed for n basis vectors");
        u[col(i)].copy_from_slice(&completed);
    }

    // Sort by descending singular value.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| sigma[j].total_cmp(&sigma[i]));
    let su = Matrix::from_fn(n, n, |r, c| u[order[c] * n + r] as f32);
    let sv = Matrix::from_fn(n, n, |r, c| v[order[c] * n + r] as f32);
    let ss: Vec<f32> = order.iter().map(|&i| sigma[i] as f32).collect();
    Svd {
        u: su,
        sigma: ss,
        v: sv,
    }
}

/// Solves the orthogonal Procrustes problem: the orthogonal `R` maximizing
/// `trace(Rᵀ·M)`, i.e. `R = U·Vᵀ` where `M = U·Σ·Vᵀ`.
///
/// In ITQ, `M = Xᵀ·B` (data times binary codes) and the returned `R` is the
/// updated rotation.
///
/// # Panics
///
/// Panics if `m` is not square.
pub fn procrustes_rotation(m: &Matrix) -> Matrix {
    let svd = svd_square(m);
    svd.u.matmul(&svd.v.transpose())
}

/// Generates a Haar-ish random orthogonal matrix by Gram–Schmidt on a
/// Gaussian matrix.
pub fn random_orthogonal(n: usize, rng: &mut SimRng) -> Matrix {
    loop {
        let g = Matrix::random_gaussian(n, n, rng);
        if let Some(q) = gram_schmidt_columns(&g) {
            return q;
        }
        // Astronomically unlikely to loop: retry on degenerate draw.
    }
}

/// Orthonormalizes the columns of `m`; returns `None` if a column collapses.
fn gram_schmidt_columns(m: &Matrix) -> Option<Matrix> {
    let n = m.rows();
    let k = m.cols();
    let mut cols: Vec<Vec<f32>> = (0..k).map(|c| m.col(c)).collect();
    for i in 0..k {
        // Re-orthogonalize twice for stability (classical GS done twice).
        for _pass in 0..2 {
            for j in 0..i {
                let proj = crate::vecops::dot(&cols[i], &cols[j]);
                let (left, right) = cols.split_at_mut(i);
                crate::vecops::axpy(-proj, &left[j], &mut right[0]);
            }
        }
        let norm = crate::vecops::l2_norm(&cols[i]);
        if norm < 1e-6 {
            return None;
        }
        for x in &mut cols[i] {
            *x /= norm;
        }
    }
    Some(Matrix::from_fn(n, k, |r, c| cols[c][r]))
}

/// Maximum absolute deviation of `QᵀQ` from the identity — 0 for a perfectly
/// orthogonal matrix. Used in tests and to validate trained ITQ rotations.
pub fn orthogonality_error(q: &Matrix) -> f32 {
    let qtq = q.transpose().matmul(q);
    qtq.max_abs_diff(&Matrix::identity(q.cols()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct_svd(svd: &Svd) -> Matrix {
        let n = svd.sigma.len();
        let mut us = svd.u.clone();
        for r in 0..n {
            for c in 0..n {
                us.set(r, c, us.get(r, c) * svd.sigma[c]);
            }
        }
        us.matmul(&svd.v.transpose())
    }

    #[test]
    fn eigen_of_diagonal_matrix() {
        let a = Matrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ]);
        let e = eigen_sym(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-5);
        assert!((e.values[1] - 2.0).abs() < 1e-5);
        assert!((e.values[2] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn eigen_reconstructs_symmetric_matrix() {
        let mut rng = SimRng::seed_from(11);
        let g = Matrix::random_gaussian(6, 6, &mut rng);
        let a = g.matmul(&g.transpose()); // symmetric PSD
        let e = eigen_sym(&a);
        // A ≈ V diag(λ) Vᵀ
        let n = 6;
        let mut vl = e.vectors.clone();
        for r in 0..n {
            for c in 0..n {
                vl.set(r, c, vl.get(r, c) * e.values[c]);
            }
        }
        let rec = vl.matmul(&e.vectors.transpose());
        assert!(rec.max_abs_diff(&a) < 1e-3 * a.frobenius_norm().max(1.0));
    }

    #[test]
    fn svd_reconstructs_random_matrix() {
        let mut rng = SimRng::seed_from(21);
        let a = Matrix::random_gaussian(8, 8, &mut rng);
        let svd = svd_square(&a);
        let rec = reconstruct_svd(&svd);
        assert!(rec.max_abs_diff(&a) < 1e-3);
        assert!(orthogonality_error(&svd.u) < 1e-4);
        assert!(orthogonality_error(&svd.v) < 1e-4);
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1], "singular values must be descending");
        }
    }

    #[test]
    fn svd_of_rank_deficient_matrix_completes_u() {
        // Rank-1 matrix: outer product.
        let u = [1.0f32, 2.0, 3.0];
        let v = [-1.0f32, 0.5, 2.0];
        let a = Matrix::from_fn(3, 3, |r, c| u[r] * v[c]);
        let svd = svd_square(&a);
        assert!(svd.sigma[1].abs() < 1e-4);
        assert!(svd.sigma[2].abs() < 1e-4);
        assert!(
            orthogonality_error(&svd.u) < 1e-4,
            "U must still be orthogonal"
        );
        let rec = reconstruct_svd(&svd);
        assert!(rec.max_abs_diff(&a) < 1e-3);
    }

    #[test]
    fn procrustes_recovers_a_known_rotation() {
        let mut rng = SimRng::seed_from(31);
        let r_true = random_orthogonal(5, &mut rng);
        let x = Matrix::random_gaussian(64, 5, &mut rng);
        let b = x.matmul(&r_true);
        // M = Xᵀ B; Procrustes on M should recover R (X is full rank w.h.p.).
        let m = x.transpose().matmul(&b);
        let r = procrustes_rotation(&m);
        assert!(r.max_abs_diff(&r_true) < 1e-3);
    }

    #[test]
    fn random_orthogonal_is_orthogonal() {
        let mut rng = SimRng::seed_from(41);
        for n in [2, 3, 8, 16] {
            let q = random_orthogonal(n, &mut rng);
            assert!(orthogonality_error(&q) < 1e-4, "n = {n}");
        }
    }
}
