//! Dense numeric kernels for the LongSight reproduction.
//!
//! This crate provides the small, self-contained numeric substrate that the
//! rest of the workspace builds on:
//!
//! * [`Matrix`] — a row-major `f32` matrix with the handful of BLAS-like
//!   operations the transformer substrate needs,
//! * [`vecops`] — vector kernels (dot products, softmax, normalization),
//! * [`linalg`] — Jacobi eigendecomposition and one-sided Jacobi SVD, used by
//!   the ITQ rotation trainer,
//! * [`SignBits`] — bit-packed sign vectors with popcount-based concordance,
//!   the data structure behind Sign-Concordance Filtering,
//! * [`SignArena`] — a contiguous key-major arena of packed sign lanes, the
//!   block-kernel layout mirroring a DReX Key Sign Object region,
//! * [`TopK`] — bounded top-*k* selection,
//! * [`Bf16`] — bfloat16 storage emulation (the paper's models run BF16),
//! * [`SimRng`] — a seeded in-repo xoshiro256** RNG with the Gaussian helpers
//!   the synthetic weight/workload generators need,
//! * [`check`] — a minimal seeded property-test runner used by the workspace's
//!   randomized test suites.
//!
//! Everything here is deterministic given a seed and free of unsafe code, with
//! no dependencies outside the standard library.
//!
//! # Example
//!
//! ```
//! use longsight_tensor::{Matrix, SimRng};
//!
//! let mut rng = SimRng::seed_from(42);
//! let a = Matrix::random_gaussian(4, 8, &mut rng);
//! let b = Matrix::random_gaussian(8, 3, &mut rng);
//! let c = a.matmul(&b);
//! assert_eq!((c.rows(), c.cols()), (4, 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bf16;
pub mod check;
mod flatvecs;
pub mod linalg;
mod matrix;
mod rng;
mod sign;
mod topk;
pub mod vecops;

pub use bf16::{quantize_bf16_in_place, Bf16};
pub use flatvecs::FlatVecs;
pub use matrix::Matrix;
pub use rng::SimRng;
pub use sign::{SignArena, SignBits};
pub use topk::{top_k_indices, ScoredIndex, TopK};
