//! Vector kernels: dot products, softmax, norms.
//!
//! These are the scalar building blocks of the attention math. They operate on
//! plain `&[f32]` slices so callers control allocation (C-CALLER-CONTROL).

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// assert_eq!(longsight_tensor::vecops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    // Unrolled-by-4 accumulation: keeps four independent dependency chains so
    // the compiler can vectorize without -ffast-math. `chunks_exact` leaves
    // no bounds check in the loop, so the four lanes become one vector.
    let mut acc = [0.0f32; 4];
    let (xs, ys) = (a.chunks_exact(4), b.chunks_exact(4));
    let (x_tail, y_tail) = (xs.remainder(), ys.remainder());
    for (x, y) in xs.zip(ys) {
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    let mut tail = 0.0;
    for (x, y) in x_tail.iter().zip(y_tail) {
        tail += x * y;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// `y += alpha * x` (the BLAS `axpy`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean (L2) norm.
#[inline]
pub fn l2_norm(v: &[f32]) -> f32 {
    dot(v, v).sqrt()
}

/// Normalizes `v` to unit L2 norm in place. Zero vectors are left unchanged.
pub fn normalize_in_place(v: &mut [f32]) {
    let n = l2_norm(v);
    if n > 0.0 {
        for x in v {
            *x /= n;
        }
    }
}

/// Cosine similarity; returns 0 when either vector is all zeros.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// Numerically-stable softmax, in place.
///
/// Subtracts the maximum before exponentiating. An empty slice is a no-op.
pub fn softmax_in_place(v: &mut [f32]) {
    if v.is_empty() {
        return;
    }
    let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in v.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
    }
}

/// Numerically-stable log-softmax, returning a new vector.
pub fn log_softmax(v: &[f32]) -> Vec<f32> {
    if v.is_empty() {
        return Vec::new();
    }
    let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = v.iter().map(|x| (x - max).exp()).sum::<f32>().ln();
    v.iter().map(|x| x - max - log_sum).collect()
}

/// Index of the maximum element (first occurrence on ties); `None` for an
/// empty slice.
pub fn argmax(v: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &x) in v.iter().enumerate() {
        match best {
            Some((_, b)) if x.total_cmp(&b).is_le() => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// Root-mean-square of a slice, with epsilon guard (used by RMSNorm).
pub fn rms(v: &[f32], eps: f32) -> f32 {
    if v.is_empty() {
        return eps.sqrt();
    }
    let ms = v.iter().map(|x| x * x).sum::<f32>() / v.len() as f32;
    (ms + eps).sqrt()
}

/// Mean squared error between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mse(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "mse length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>() / a.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..131).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..131).map(|i| (i as f32).cos()).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-4);
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let mut v = vec![1.0, 2.0, 3.0, 4.0];
        let mut shifted: Vec<f32> = v.iter().map(|x| x + 100.0).collect();
        softmax_in_place(&mut v);
        softmax_in_place(&mut shifted);
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        for (a, b) in v.iter().zip(&shifted) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_extreme_values() {
        let mut v = vec![1e30, -1e30, 0.0];
        softmax_in_place(&mut v);
        assert!((v[0] - 1.0).abs() < 1e-6);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let v = vec![0.3, -1.2, 2.5, 0.0];
        let ls = log_softmax(&v);
        let mut sm = v.clone();
        softmax_in_place(&mut sm);
        for (l, s) in ls.iter().zip(&sm) {
            assert!((l.exp() - s).abs() < 1e-6);
        }
    }

    #[test]
    fn argmax_picks_first_max_of_ties_deterministically() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn cosine_of_identical_unit_vectors_is_one() {
        let v = vec![0.6, 0.8];
        assert!((cosine(&v, &v) - 1.0).abs() < 1e-6);
        assert_eq!(cosine(&v, &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn rms_of_unit_constant_vector() {
        let v = vec![1.0; 16];
        assert!((rms(&v, 0.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn axpy_accumulates() {
        let x = vec![1.0, 2.0];
        let mut y = vec![10.0, 20.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, vec![10.5, 21.0]);
    }

    #[test]
    fn normalize_makes_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize_in_place(&mut v);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize_in_place(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }
}
