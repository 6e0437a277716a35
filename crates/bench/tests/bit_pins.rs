//! Bit pins for the ITQ training path.
//!
//! `linalg::svd_square` and `ItqRotation::train` feed every hybrid+ITQ
//! golden (Fig 3, Fig 4, Fig 10, the filtering baselines). A rewrite of
//! either may change speed but not a single output bit, so these tests hash
//! the exact `f32` bit patterns and compare them with constants recorded
//! before the column-major Jacobi rewrite.

use longsight_bench::fig3::{trace_for, train_trace_itq};
use longsight_tensor::{linalg, Matrix, SimRng};

/// FNV-1a over the little-endian bit patterns of `values`.
fn fnv1a_bits<'a>(values: impl IntoIterator<Item = &'a f32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn svd_square_bits_are_pinned() {
    let mut rng = SimRng::seed_from(0x5BD_128);
    let a = Matrix::random_gaussian(128, 128, &mut rng);
    let svd = linalg::svd_square(&a);
    let got = [
        fnv1a_bits(svd.u.data()),
        fnv1a_bits(&svd.sigma),
        fnv1a_bits(svd.v.data()),
    ];
    assert_eq!(
        got,
        [
            0x9683_33db_dd1a_d28d,
            0x152c_60e2_6882_2728,
            0x8e68_d90b_2c80_abbb
        ],
        "svd_square moved a bit: {got:#x?}"
    );
}

#[test]
fn itq_training_on_the_fig3_set_is_pinned() {
    // Fig 3's first context: 4096 tokens, rotation trained on the first
    // 1024 keys for 30 iterations.
    let trace = trace_for(128, 4_096, 0xF163 ^ 4_096);
    let rotation = train_trace_itq(&trace, 1024, 0xF163);
    let got = fnv1a_bits(rotation.matrix().data());
    assert_eq!(
        got, 0x96a7_e40c_f09f_4749,
        "ITQ training moved a bit: {got:#x}"
    );
}
