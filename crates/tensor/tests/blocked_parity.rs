//! Per-kernel-path parity of the blocked GEMM kernels, and independence
//! from how many rank threads are multiplying at once.
//!
//! The contract under test (DESIGN.md §5): the blocked path has one
//! numerics class. For every orientation and every shape, every backend the
//! host supports (`Scalar`, `Avx2`, `Avx512`) is **bitwise identical** to
//! [`fused_reference`], a plain triple loop over `f32::mul_add`, full tiles
//! and edge tiles alike. So a blocked result depends on neither the CPU nor
//! `TESSERACT_KERNEL`. It agrees with the serial path (a mul+add chain)
//! within floating-point tolerance: FMA fuses `a·b + c` into one rounding.
//!
//! Blocking only changes iteration *grouping*, never a backend's
//! per-element floating-point evaluation order, and the kernels own no
//! shared state, so concurrent callers cannot see each other.

use tesseract_tensor::matmul::{
    active_kernel, gemm, gemm_on, planned_path, Orient, BLOCKED_MIN_ELEMS, BLOCK_K, BLOCK_M,
};
use tesseract_tensor::{max_rel_diff, KernelPath, Matrix, MicroKernel, Xoshiro256StarStar};

/// Backends to run the forced-path matrix over: every one the host
/// supports (forcing an unsupported backend panics by design).
fn testable_kernels() -> Vec<MicroKernel> {
    MicroKernel::available().collect()
}

/// The fused numerics class written out: `C = A · B` with each element one
/// ascending-k `fma(a_ik, b_kj, c)` chain. `f32::mul_add` rounds once on
/// every host (in software where there is no FMA unit), so this reference
/// does not depend on which CPU runs the test.
fn fused_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for (kk, &a_ik) in a.row(i).iter().enumerate() {
            for (c_ij, &b_kj) in c.row_mut(i).iter_mut().zip(b.row(kk)) {
                *c_ij = a_ik.mul_add(b_kj, *c_ij);
            }
        }
    }
    c
}

/// Deterministic test matrix with non-trivial mantissas (so reassociated
/// summation would actually change bits) and mixed signs/magnitudes.
fn gen(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Matrix::random_uniform(rows, cols, -2.5, 2.5, &mut rng)
}

/// `reference` and `candidate` hold the same bits, any NaN standing for any
/// other (a NaN payload depends on operand order, which the compiler may
/// commute).
fn assert_bitwise_eq(label: &str, reference: &Matrix, candidate: &Matrix) {
    assert_eq!(reference.shape(), candidate.shape(), "{label}: shape mismatch");
    for (i, (r, c)) in reference.data().iter().zip(candidate.data()).enumerate() {
        let same = r.to_bits() == c.to_bits() || (r.is_nan() && c.is_nan());
        assert!(same, "{label}: bit mismatch at flat index {i}: {r} vs {c}");
    }
}

/// `orient`'s stored operands of the logical product `a · b`: every
/// orientation multiplies the same values, so [`fused_reference`]`(a, b)`
/// is the one anchor for all three.
fn stored(orient: Orient, a: &Matrix, b: &Matrix) -> (Matrix, Matrix) {
    let flip = |x: &Matrix, transposed: bool| if transposed { x.transpose() } else { x.clone() };
    (flip(a, orient == Orient::Tn), flip(b, orient == Orient::Nt))
}

/// Checks every orientation at one `(m, k, n)`: every backend bitwise
/// against [`fused_reference`], and within tolerance of the serial path
/// (whose mul+add chain rounds twice per step).
fn check_shape(m: usize, k: usize, n: usize, label: &str) {
    let (a, b) = (gen(m, k, 1), gen(k, n, 2));
    let fused = fused_reference(&a, &b);
    for o in Orient::ALL {
        let (sa, sb) = stored(o, &a, &b);
        let serial = gemm_on(o, KernelPath::Serial, active_kernel(), &sa, &sb);
        for kernel in testable_kernels() {
            let c = gemm_on(o, KernelPath::Blocked, kernel, &sa, &sb);
            let label = format!("{label} {} {o:?} {m}x{k}x{n}", kernel.name());
            assert_bitwise_eq(&label, &fused, &c);
            let diff = max_rel_diff(serial.data(), c.data());
            assert!(diff < 1e-4, "{label}: {diff:e} off serial");
        }
    }
}

/// Shapes chosen to hit every remainder path in the packing and every
/// micro-kernel tile set: degenerate dims, sizes just off the scalar
/// (MR=4, NR=8), AVX2 (MR=6, NR=16) and AVX-512 (MR=8, NR=32) register
/// tiles — including m,n strictly below one tile — sizes straddling the
/// cache-block boundaries, and extreme aspect ratios.
fn adversarial_shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 17, 1),
        (2, 3, 5),
        (3, 1, 9),   // k=1: single multiply, no accumulation chain
        (4, 8, 8),   // exactly one scalar register tile
        (5, 9, 11),  // one past the scalar tile in every dim
        (6, 16, 16), // exactly one AVX2 register tile
        (7, 17, 17), // one past the AVX2 tile in every dim
        (5, 20, 15), // below one AVX2 tile in m and n, above scalar's
        (8, 32, 32), // exactly one AVX-512 register tile
        (7, 13, 23), // primes: nothing divides anything
        (BLOCK_M + 1, BLOCK_K + 2, 256 + 3),
        (65, 130, 97),
        (BLOCK_M, 7, 256), // thin k: packing dominated by remainders
        (1, 300, 500),     // single-row C
        (500, 300, 1),     // single-column C
        (3, 1024, 4),      // tall accumulation, tiny output
        (190, 5, 6),       // tall-skinny A
        (6, 5, 190),       // short-wide B
    ]
}

#[test]
fn blocked_matches_reference_per_path_on_adversarial_shapes() {
    for (m, k, n) in adversarial_shapes() {
        check_shape(m, k, n, "adversarial");
    }
}

/// The grid around the widest tile: `m` one off a multiple of 8 (and of
/// [`BLOCK_M`]), `n` one off 32, `k` one off [`BLOCK_K`] — every
/// combination of full, short and one-past tiles in each dimension.
#[test]
fn blocked_matches_reference_per_path_around_the_widest_tile() {
    for m in [1, 7, 8, 9, 63, 65] {
        for n in [31, 32, 33] {
            for k in [1, 255, 257] {
                check_shape(m, k, n, "tile-edge");
            }
        }
    }
}

/// What rank threads rely on: a GEMM touches nothing but its operands and
/// its own output, so 8 callers (the `train_comm` / `serve_open` world)
/// multiplying shared inputs at once each get [`fused_reference`]'s bits —
/// on every backend the host can run, and through the public dispatchers.
#[test]
fn concurrent_callers_get_the_single_caller_result_bitwise() {
    const CALLERS: usize = 8;
    // Several row blocks with a remainder, above the dispatch threshold so
    // the public entry points take the blocked path too.
    let (m, k, n) = (2 * BLOCK_M + 37, 75, 61);
    let (a, b) = (gen(m, k, 10), gen(k, n, 11));
    // One anchor for every caller, orientation, backend and entry point.
    let reference = fused_reference(&a, &b);
    let operands = Orient::ALL.map(|o| (o, stored(o, &a, &b)));
    // Every caller leaves the barrier together, so the GEMMs overlap.
    let start = std::sync::Barrier::new(CALLERS);
    std::thread::scope(|s| {
        for caller in 0..CALLERS {
            let (operands, start, reference) = (&operands, &start, &reference);
            s.spawn(move || {
                start.wait();
                for (o, (a, b)) in operands {
                    for kernel in testable_kernels() {
                        let label = format!("{} {o:?} caller={caller}", kernel.name());
                        let c = gemm_on(*o, KernelPath::Blocked, kernel, a, b);
                        assert_bitwise_eq(&label, reference, &c);
                    }
                    let label = format!("public {o:?} caller={caller}");
                    assert_bitwise_eq(&label, reference, &gemm(*o, a, b));
                }
            });
        }
    });
}

#[test]
fn blocked_matches_the_fused_chain_with_special_values() {
    // NaN/inf placed mid-matrix must flow through packing (including the
    // zero-padded lanes) without contaminating neighbouring outputs, on
    // every backend.
    let m = 9;
    let k = 21;
    let n = 13;
    let mut a = gen(m, k, 20);
    let mut b = gen(k, n, 21);
    a.data_mut()[k + 3] = f32::NAN;
    a.data_mut()[2 * k + 5] = f32::INFINITY;
    b.data_mut()[4 * n + 2] = f32::NEG_INFINITY;
    b.data_mut()[7 * n + 9] = 0.0;

    let fused = fused_reference(&a, &b);
    // Sanity: the NaN and an infinity actually reached the output.
    assert!(fused.data().iter().any(|v| v.is_nan()));
    assert!(fused.data().iter().any(|v| v.is_infinite()));
    for kernel in testable_kernels() {
        let label = format!("special-values {} nn", kernel.name());
        assert_bitwise_eq(
            &label,
            &fused,
            &gemm_on(Orient::Nn, KernelPath::Blocked, kernel, &a, &b),
        );
    }
}

/// Dispatch reads the shape only: [`gemm`] is [`gemm_on`] at the shape's
/// [`planned_path`] on the [`active_kernel`], bit for bit, in every
/// orientation, on both sides of [`BLOCKED_MIN_ELEMS`] and of the
/// thin-output edges (fewer than 4 rows or 8 columns stay serial).
#[test]
fn gemm_is_the_planned_path_on_the_active_kernel() {
    use KernelPath::{Blocked, Serial};
    let t = 64;
    assert_eq!(t * t * t, BLOCKED_MIN_ELEMS);
    let kernel = active_kernel();
    for (m, k, n, path) in [
        (96, 96, 96, Blocked),
        (t, t, t, Blocked),
        (t - 1, t, t, Serial),
        (t, t, t - 1, Serial),
        (3, 300, 300, Serial),
        (4, 300, 300, Blocked),
        (300, 300, 7, Serial),
        (300, 300, 8, Blocked),
        (1, 1, 1, Serial),
    ] {
        assert_eq!(planned_path(m, k, n), path, "{m}x{k}x{n}");
        for o in Orient::ALL {
            let ((ar, ac), (br, bc)) = o.stored(m, k, n);
            let (a, b) = (gen(ar, ac, 40), gen(br, bc, 41));
            let label = format!("{o:?} {m}x{k}x{n} {path:?}");
            assert_bitwise_eq(&label, &gemm_on(o, path, kernel, &a, &b), &gemm(o, &a, &b));
        }
    }
}
