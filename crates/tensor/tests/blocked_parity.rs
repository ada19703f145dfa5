//! Per-kernel-path parity of the blocked GEMM kernels, and independence
//! from how many rank threads are multiplying at once.
//!
//! The contract under test (DESIGN.md §5) has two numerics classes:
//!
//! * **mul+add**: for every orientation and every shape,
//!   `*_blocked_with(.., MicroKernel::Scalar)` produces **bitwise
//!   identical** output to `*_serial` — both accumulate each output element
//!   along the same ascending-k mul+add chain.
//! * **fused**: every vector backend (`Avx2`, `Avx512`) is **bitwise
//!   identical** to [`fused_reference`], a plain triple loop over
//!   `f32::mul_add` — so `avx2 == avx512` bit for bit on every shape, full
//!   tiles and edge tiles alike, on whichever of them the host can run. It
//!   agrees with the scalar path within floating-point tolerance: FMA fuses
//!   `a·b + c` into one rounding, so the two classes' chains round
//!   differently.
//!
//! Blocking only changes iteration *grouping*, never a backend's
//! per-element floating-point evaluation order, and the kernels own no
//! shared state, so concurrent callers cannot see each other.

use tesseract_tensor::matmul::{
    matmul, matmul_blocked_with, matmul_nt, matmul_nt_blocked_with, matmul_nt_serial,
    matmul_serial, matmul_tn, matmul_tn_blocked_with, matmul_tn_serial, BLOCK_K, BLOCK_M,
};
use tesseract_tensor::{max_rel_diff, Matrix, MicroKernel, Xoshiro256StarStar};

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

fn assert_bitwise_eq(label: &str, reference: &Matrix, candidate: &Matrix) {
    assert_eq!(reference.shape(), candidate.shape(), "{label}: shape mismatch");
    for (i, (r, c)) in reference.data().iter().zip(candidate.data()).enumerate() {
        assert_eq!(r.to_bits(), c.to_bits(), "{label}: bit mismatch at flat index {i}: {r} vs {c}");
    }
}

/// Checks all three orientations at one `(m, k, n)`: the scalar backend
/// bitwise against the serial triple loops, and every vector backend
/// bitwise against [`fused_reference`] (hence against every other vector
/// backend), plus within tolerance of scalar. Operand shapes are arranged
/// so the *logical* product is m×k · k×n in every orientation (nt stores B
/// as n×k, tn stores A as k×m).
fn check_shape(m: usize, k: usize, n: usize, label: &str) {
    let a = gen(m, k, 1);
    let b = gen(k, n, 2);
    let bt = gen(n, k, 3);
    let at = gen(k, m, 4);
    let serial = (matmul_serial(&a, &b), matmul_nt_serial(&a, &bt), matmul_tn_serial(&at, &b));
    let fused = (
        fused_reference(&a, &b),
        fused_reference(&a, &bt.transpose()),
        fused_reference(&at.transpose(), &b),
    );

    for kernel in testable_kernels() {
        let kn = kernel.name();
        let nn = matmul_blocked_with(&a, &b, kernel);
        let nt = matmul_nt_blocked_with(&a, &bt, kernel);
        let tn = matmul_tn_blocked_with(&at, &b, kernel);
        match kernel {
            // Scalar: bitwise against the serial reference.
            MicroKernel::Scalar => {
                assert_bitwise_eq(&format!("{label} {kn} nn {m}x{k}x{n}"), &serial.0, &nn);
                assert_bitwise_eq(&format!("{label} {kn} nt {m}x{k}x{n}"), &serial.1, &nt);
                assert_bitwise_eq(&format!("{label} {kn} tn {m}x{k}x{n}"), &serial.2, &tn);
            }
            // SIMD: bitwise against the fused chain (avx2 == avx512),
            // tolerant vs scalar.
            MicroKernel::Avx2 | MicroKernel::Avx512 => {
                assert_bitwise_eq(&format!("{label} {kn} nn {m}x{k}x{n} vs fused"), &fused.0, &nn);
                assert_bitwise_eq(&format!("{label} {kn} nt {m}x{k}x{n} vs fused"), &fused.1, &nt);
                assert_bitwise_eq(&format!("{label} {kn} tn {m}x{k}x{n} vs fused"), &fused.2, &tn);
                for (orient, reference, candidate) in
                    [("nn", &serial.0, &nn), ("nt", &serial.1, &nt), ("tn", &serial.2, &tn)]
                {
                    let diff = max_rel_diff(reference.data(), candidate.data());
                    assert!(
                        diff < 1e-4,
                        "{label} {kn} {orient} {m}x{k}x{n}: beyond FMA tolerance ({diff:e})"
                    );
                }
            }
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
/// multiplying shared inputs at once each get the single-caller bits — on
/// every backend the host can run, and through the public dispatchers.
#[test]
fn concurrent_callers_get_the_single_caller_result_bitwise() {
    const CALLERS: usize = 8;
    // Several row blocks with a remainder, above the dispatch threshold so
    // the public entry points take the blocked path too.
    let (m, k, n) = (2 * BLOCK_M + 37, 75, 61);
    let a = gen(m, k, 10);
    let b = gen(k, n, 11);
    let bt = gen(n, k, 12);
    let at = gen(k, m, 13);

    let references: Vec<_> = testable_kernels()
        .into_iter()
        .map(|kernel| {
            let single_caller = (
                matmul_blocked_with(&a, &b, kernel),
                matmul_nt_blocked_with(&a, &bt, kernel),
                matmul_tn_blocked_with(&at, &b, kernel),
            );
            (kernel, single_caller)
        })
        .collect();
    // The scalar backend's single-caller result (scalar leads the list) is
    // itself pinned to the serial triple loop, anchoring the whole matrix
    // of checks.
    let scalar = &references[0].1;
    assert_bitwise_eq("scalar anchor nn", &matmul_serial(&a, &b), &scalar.0);
    assert_bitwise_eq("scalar anchor nt", &matmul_nt_serial(&a, &bt), &scalar.1);
    assert_bitwise_eq("scalar anchor tn", &matmul_tn_serial(&at, &b), &scalar.2);
    let active_kernel = tesseract_tensor::matmul::active_kernel();
    let active = &references.iter().find(|(k, _)| *k == active_kernel).expect("supported").1;
    // Every caller leaves the barrier together, so the GEMMs overlap.
    let start = std::sync::Barrier::new(CALLERS);
    std::thread::scope(|s| {
        for caller in 0..CALLERS {
            let (a, b, bt, at, start) = (&a, &b, &bt, &at, &start);
            let references = &references;
            s.spawn(move || {
                start.wait();
                for (kernel, reference) in references {
                    let label = format!("{} caller={caller}", kernel.name());
                    let nn = matmul_blocked_with(a, b, *kernel);
                    let nt = matmul_nt_blocked_with(a, bt, *kernel);
                    let tn = matmul_tn_blocked_with(at, b, *kernel);
                    assert_bitwise_eq(&format!("{label} nn"), &reference.0, &nn);
                    assert_bitwise_eq(&format!("{label} nt"), &reference.1, &nt);
                    assert_bitwise_eq(&format!("{label} tn"), &reference.2, &tn);
                }
                let label = format!("public caller={caller}");
                assert_bitwise_eq(&format!("{label} nn"), &active.0, &matmul(a, b));
                assert_bitwise_eq(&format!("{label} nt"), &active.1, &matmul_nt(a, bt));
                assert_bitwise_eq(&format!("{label} tn"), &active.2, &matmul_tn(at, b));
            });
        }
    });
}

#[test]
fn blocked_matches_serial_with_special_values() {
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

    let serial = matmul_serial(&a, &b);
    // Sanity: the NaN actually reached the output somewhere.
    assert!(serial.data().iter().any(|v| v.is_nan()));
    assert_bitwise_eq(
        "special-values scalar nn",
        &serial,
        &matmul_blocked_with(&a, &b, MicroKernel::Scalar),
    );
    for kernel in testable_kernels() {
        let blocked = matmul_blocked_with(&a, &b, kernel);
        // Special values classify identically even where rounding differs.
        for (i, (s, v)) in serial.data().iter().zip(blocked.data()).enumerate() {
            let kn = kernel.name();
            assert_eq!(s.is_nan(), v.is_nan(), "{kn}: NaN placement diverged at {i}");
            assert_eq!(
                s.is_infinite(),
                v.is_infinite(),
                "{kn}: infinity placement diverged at {i}"
            );
        }
    }
}

#[test]
fn public_entry_points_match_the_active_kernel_above_the_dispatch_threshold() {
    // 96^3 is above BLOCKED_MIN_ELEMS, so the public fns take the blocked
    // path on the process-wide backend — results must be bitwise identical
    // to that backend called explicitly (and hence, when the backend is
    // scalar, to the serial triple loop).
    let s = 96;
    let a = gen(s, s, 30);
    let b = gen(s, s, 31);
    let bt = gen(s, s, 32);
    let kernel = tesseract_tensor::matmul::active_kernel();
    assert_bitwise_eq("public nn", &matmul_blocked_with(&a, &b, kernel), &matmul(&a, &b));
    assert_bitwise_eq("public nt", &matmul_nt_blocked_with(&a, &bt, kernel), &matmul_nt(&a, &bt));
    assert_bitwise_eq("public tn", &matmul_tn_blocked_with(&a, &b, kernel), &matmul_tn(&a, &b));
}
