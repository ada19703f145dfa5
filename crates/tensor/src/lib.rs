//! # tesseract-tensor
//!
//! Dense tensor substrate for the Tesseract reproduction.
//!
//! This crate provides everything the distributed layers need from a tensor
//! library, with **two interchangeable backends** behind the [`TensorLike`]
//! trait:
//!
//! * [`DenseTensor`] — real `f32` math backed by [`Matrix`]. Used by every
//!   correctness test and by the Figure-7 training experiments.
//! * [`ShadowTensor`] — a shape only. Used to push the *paper-scale*
//!   Table 1 / Table 2 configurations through the very same layer and
//!   collective code without doing terabytes of arithmetic on one CPU core:
//!   every op is one [`TensorLike`] method body — shape rule, [`Meter`]
//!   charge, kernel — and this backend merely drops the kernel, so it
//!   charges what the dense op charges.
//!
//! The crate also contains the numerical kernels themselves ([`matmul`] —
//! each GEMM runs on the thread that calls it; this crate spawns none),
//! neural-network primitives ([`nn`]), a deterministic in-tree PRNG
//! ([`rng`]) and Xavier initialization ([`init`]).

pub mod init;
pub mod matmul;
pub mod matrix;
pub mod meter;
pub mod nn;
pub mod rng;
pub mod tensor;
pub mod trace;

pub use matmul::{KernelPath, MicroKernel};
pub use matrix::Matrix;
pub use meter::{Meter, MeterScope};
pub use rng::Xoshiro256StarStar;
pub use tensor::{AdamCoeffs, DenseTensor, ShadowTensor, TensorLike};
pub use trace::{TraceEvent, TraceKind};

/// Size in bytes of one stored element. The cluster cost model multiplies
/// message element counts by this to obtain wire bytes; keeping it here makes
/// the (single) precision assumption explicit and auditable.
pub const ELEM_BYTES: usize = core::mem::size_of::<f32>();

/// Relative tolerance used by the equality helpers in tests.
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let denom = a.abs().max(b.abs()).max(1.0);
    diff / denom <= tol
}

/// Asserts two slices are elementwise approximately equal; panics with the
/// first offending index. Intended for tests and verification binaries.
pub fn assert_slices_close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(a.len(), b.len(), "length mismatch: {} vs {}", a.len(), b.len());
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(approx_eq(x, y, tol), "mismatch at index {i}: {x} vs {y} (tol {tol})");
    }
}

/// Maximum relative elementwise difference between two slices.
pub fn max_rel_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let denom = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() / denom
        })
        .fold(0.0, f32::max)
}
