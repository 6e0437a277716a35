//! Property-based tests for the tensor kernels, on the in-repo
//! [`check`](longsight_tensor::check) runner.

use longsight_tensor::check::{run_cases, Gen};
use longsight_tensor::{
    linalg, prop_ensure, prop_ensure_eq, vecops, Matrix, ScoredIndex, SignArena, SignBits, SimRng,
    TopK,
};

/// A finite `f32` vector in `[-100, 100)` with length drawn from `[lo, hi)`.
fn finite_vec(g: &mut Gen, lo: usize, hi: usize) -> Vec<f32> {
    g.vec_f32(lo, hi, -100.0, 100.0)
}

#[test]
fn sign_concordance_matches_naive() {
    run_cases("sign_concordance_matches_naive", 64, |g| {
        let v = finite_vec(g, 1, 200);
        let w_seed = g.u64_in(0, 1000);
        let mut rng = SimRng::seed_from(w_seed);
        let w: Vec<f32> = (0..v.len()).map(|_| rng.normal() as f32).collect();
        let sv = SignBits::from_slice(&v);
        let sw = SignBits::from_slice(&w);
        let naive = v
            .iter()
            .zip(&w)
            .filter(|(a, b)| (**a < 0.0) == (**b < 0.0))
            .count() as u32;
        prop_ensure_eq!(sv.concordance(&sw), naive);
        prop_ensure_eq!(sv.hamming(&sw) + sv.concordance(&sw), v.len() as u32);
        Ok(())
    });
}

/// One `f32` from a mix meant to break kernels that assume tidy input:
/// finite values, a small pool of heavy duplicates, ±0.0, ±inf, NaN
/// payloads of both signs and subnormals.
fn tricky_f32(g: &mut Gen) -> f32 {
    match g.usize_in(0, 10) {
        0..=3 => g.f32_in(-100.0, 100.0),
        4 | 5 => [1.5, -1.5, 0.25, 7.0][g.usize_in(0, 4)],
        6 => [0.0, -0.0][g.usize_in(0, 2)],
        7 => [f32::INFINITY, f32::NEG_INFINITY][g.usize_in(0, 2)],
        8 => {
            let payload = g.u32_in(1, 1 << 22) | 1 << 22;
            let sign = if g.bool() { 1u32 << 31 } else { 0 };
            f32::from_bits(sign | 0x7f80_0000 | payload)
        }
        _ => {
            let sub = f32::from_bits(g.u32_in(1, 0x0080_0000));
            if g.bool() {
                -sub
            } else {
                sub
            }
        }
    }
}

fn tricky_vec(g: &mut Gen, lo: usize, hi: usize) -> Vec<f32> {
    let n = g.usize_in(lo, hi);
    (0..n).map(|_| tricky_f32(g)).collect()
}

/// `(score bits, index)` pairs, for comparisons that see NaN payloads and
/// the sign of zero.
fn bits(v: &[ScoredIndex]) -> Vec<(u32, usize)> {
    v.iter().map(|s| (s.score.to_bits(), s.index)).collect()
}

#[test]
fn topk_matches_sort() {
    run_cases("topk_matches_sort", 256, |g| {
        let scores = if g.bool() {
            finite_vec(g, 0, 300)
        } else {
            tricky_vec(g, 0, 300)
        };
        let n = scores.len();
        let k = match g.usize_in(0, 5) {
            0 => 0,
            1 => n + g.usize_in(0, 3),
            2 => usize::MAX,
            _ => g.usize_in(1, 40),
        };
        let mut pairs: Vec<ScoredIndex> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| ScoredIndex::new(s, i))
            .collect();
        pairs.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.index.cmp(&b.index)));
        pairs.truncate(k);
        let want = bits(&pairs);

        // One selector over the whole stream.
        let mut top = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            top.push(s, i);
        }
        prop_ensure_eq!(top.len(), want.len());
        let mut unordered = top.clone().into_vec();
        unordered.sort_unstable_by(|a, b| b.cmp(a));
        prop_ensure_eq!(bits(&unordered), want.clone());
        prop_ensure_eq!(bits(&top.into_sorted_vec()), want.clone());

        // Chunk-local selectors over contiguous chunks, merged two ways:
        // `merge` and re-pushing each chunk's sorted list (how the hybrid
        // scan joins its chunks).
        let chunk = g.usize_in(1, 64);
        let mut merged = TopK::new(k);
        let mut repushed = TopK::new(k);
        for (c, part) in scores.chunks(chunk).enumerate() {
            let mut local = TopK::new(k);
            for (j, &s) in part.iter().enumerate() {
                local.push(s, c * chunk + j);
            }
            for e in local.clone().into_sorted_vec() {
                repushed.push(e.score, e.index);
            }
            merged.merge(local);
        }
        prop_ensure_eq!(bits(&merged.into_sorted_vec()), want.clone());
        prop_ensure_eq!(bits(&repushed.into_sorted_vec()), want);
        Ok(())
    });
}

/// `a` and `b` are the same `f32`: equal bits, or both NaN (Rust leaves
/// the payload of a NaN produced by arithmetic unspecified).
fn same_f32(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

#[test]
fn dot_matches_the_indexed_four_lane_loop() {
    run_cases("dot_matches_the_indexed_four_lane_loop", 256, |g| {
        // Lengths 0..=133 cover every remainder mod 4 and Llama's 128.
        let n = g.usize_in(0, 134);
        let tricky = g.bool();
        let mut draw = || -> Vec<f32> {
            (0..n)
                .map(|_| {
                    if tricky && g.usize_in(0, 8) == 0 {
                        tricky_f32(g)
                    } else {
                        g.f32_in(-100.0, 100.0)
                    }
                })
                .collect()
        };
        let (a, b) = (draw(), draw());
        // Reference: four lanes over indexed loads, then the tail, summed
        // as `acc[0] + acc[1] + acc[2] + acc[3] + tail`.
        let mut acc = [0.0f32; 4];
        for j in (0..n - n % 4).step_by(4) {
            for (l, acc) in acc.iter_mut().enumerate() {
                *acc += a[j + l] * b[j + l];
            }
        }
        let mut tail = 0.0f32;
        for j in n - n % 4..n {
            tail += a[j] * b[j];
        }
        let want = acc[0] + acc[1] + acc[2] + acc[3] + tail;
        let got = vecops::dot(&a, &b);
        prop_ensure!(
            same_f32(got, want),
            "length {n}: dot {:#x} vs reference {:#x}",
            got.to_bits(),
            want.to_bits()
        );
        Ok(())
    });
}

#[test]
fn sign_packing_matches_the_per_element_walk() {
    run_cases("sign_packing_matches_the_per_element_walk", 256, |g| {
        let v = tricky_vec(g, 0, 300);
        let mut want = vec![0u64; v.len().div_ceil(64)];
        for (i, &x) in v.iter().enumerate() {
            if x < 0.0 {
                want[i / 64] |= 1u64 << (i % 64);
            }
        }
        let packed = SignBits::from_slice(&v);
        prop_ensure_eq!(packed.words(), &want[..]);
        prop_ensure_eq!(packed.dim(), v.len());
        // The arena packs in place behind an earlier key.
        let mut arena = SignArena::new(v.len());
        let negated: Vec<f32> = v.iter().map(|x| -x).collect();
        arena.push_signs_of(&negated);
        arena.push_signs_of(&v);
        prop_ensure_eq!(arena.key_words(1), &want[..]);
        let negated_bits = SignBits::from_slice(&negated);
        prop_ensure_eq!(arena.key_words(0), negated_bits.words());
        Ok(())
    });
}

#[test]
fn softmax_is_a_distribution() {
    run_cases("softmax_is_a_distribution", 64, |g| {
        let mut v = finite_vec(g, 1, 64);
        vecops::softmax_in_place(&mut v);
        let sum: f32 = v.iter().sum();
        prop_ensure!((sum - 1.0).abs() < 1e-4);
        prop_ensure!(v.iter().all(|x| (0.0..=1.0 + 1e-6).contains(x)));
        Ok(())
    });
}

#[test]
fn softmax_preserves_argmax() {
    run_cases("softmax_preserves_argmax", 64, |g| {
        let v = finite_vec(g, 2, 64);
        let before = vecops::argmax(&v).unwrap();
        let mut sm = v.clone();
        vecops::softmax_in_place(&mut sm);
        // The max element keeps (one of) the max probabilities.
        let max_prob = sm.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_ensure!(sm[before] >= max_prob - 1e-6);
        Ok(())
    });
}

#[test]
fn matmul_distributes_over_add() {
    run_cases("matmul_distributes_over_add", 64, |g| {
        let seed = g.u64_in(0, 500);
        let mut rng = SimRng::seed_from(seed);
        let a = Matrix::random_gaussian(4, 5, &mut rng);
        let b = Matrix::random_gaussian(5, 3, &mut rng);
        let c = Matrix::random_gaussian(5, 3, &mut rng);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_ensure!(lhs.max_abs_diff(&rhs) < 1e-3);
        Ok(())
    });
}

#[test]
fn random_orthogonal_preserves_norms() {
    run_cases("random_orthogonal_preserves_norms", 64, |g| {
        let seed = g.u64_in(0, 200);
        let n = g.usize_in(2, 12);
        let mut rng = SimRng::seed_from(seed);
        let q = linalg::random_orthogonal(n, &mut rng);
        let v = rng.normal_vec(n);
        let rotated = q.matvec(&v);
        prop_ensure!((vecops::l2_norm(&rotated) - vecops::l2_norm(&v)).abs() < 1e-3);
        Ok(())
    });
}

#[test]
fn procrustes_output_is_orthogonal() {
    run_cases("procrustes_output_is_orthogonal", 64, |g| {
        let seed = g.u64_in(0, 200);
        let n = g.usize_in(2, 10);
        let mut rng = SimRng::seed_from(seed);
        let m = Matrix::random_gaussian(n, n, &mut rng);
        let r = linalg::procrustes_rotation(&m);
        prop_ensure!(linalg::orthogonality_error(&r) < 1e-3);
        Ok(())
    });
}

#[test]
fn dot_is_symmetric() {
    run_cases("dot_is_symmetric", 64, |g| {
        let v = finite_vec(g, 1, 100);
        let seed = g.u64_in(0, 100);
        let mut rng = SimRng::seed_from(seed);
        let w: Vec<f32> = (0..v.len()).map(|_| rng.normal() as f32).collect();
        let scale = v.iter().map(|x| x.abs()).fold(0.0f32, f32::max).max(1.0)
            * w.iter().map(|x| x.abs()).fold(0.0f32, f32::max).max(1.0)
            * v.len() as f32;
        prop_ensure!((vecops::dot(&v, &w) - vecops::dot(&w, &v)).abs() <= 1e-5 * scale);
        Ok(())
    });
}
