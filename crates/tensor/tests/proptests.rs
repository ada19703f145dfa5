//! Property-based tests (proptest) for the tensor substrate: algebraic
//! identities of the kernels and structural invariants of the matrix type.

use proptest::prelude::*;
use tesseract_tensor::matmul::{matmul, matmul_nt, matmul_tn};
use tesseract_tensor::nn;
use tesseract_tensor::{approx_eq, max_rel_diff, Matrix, Xoshiro256StarStar};

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..8, 1usize..8, 1usize..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_is_left_distributive((m, k, n) in dims(), seed in 0u64..1000) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let a = Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
        let c = Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
        let mut b_plus_c = b.clone();
        b_plus_c.add_assign(&c);
        let lhs = matmul(&a, &b_plus_c);
        let mut rhs = matmul(&a, &b);
        rhs.add_assign(&matmul(&a, &c));
        prop_assert!(max_rel_diff(lhs.data(), rhs.data()) < 1e-4);
    }

    #[test]
    fn transpose_reverses_products((m, k, n) in dims(), seed in 0u64..1000) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let a = Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
        // (AB)ᵀ = Bᵀ Aᵀ
        let lhs = matmul(&a, &b).transpose();
        let rhs = matmul(&b.transpose(), &a.transpose());
        prop_assert!(max_rel_diff(lhs.data(), rhs.data()) < 1e-4);
    }

    #[test]
    fn nt_and_tn_agree_with_explicit_transposes((m, k, n) in dims(), seed in 0u64..1000) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let a = Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(n, k, -1.0, 1.0, &mut rng);
        prop_assert!(max_rel_diff(
            matmul_nt(&a, &b).data(),
            matmul(&a, &b.transpose()).data()
        ) < 1e-4);
        let c = Matrix::random_uniform(m, n, -1.0, 1.0, &mut rng);
        prop_assert!(max_rel_diff(
            matmul_tn(&a, &c).data(),
            matmul(&a.transpose(), &c).data()
        ) < 1e-4);
    }

    #[test]
    fn softmax_rows_are_distributions(m in matrix_strategy(4, 6)) {
        let y = nn::softmax_rows(&m);
        for i in 0..y.rows() {
            let sum: f32 = y.row(i).iter().sum();
            prop_assert!(approx_eq(sum, 1.0, 1e-4));
            prop_assert!(y.row(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn layernorm_output_is_normalized(m in matrix_strategy(3, 16)) {
        let cache = nn::layernorm_rows(&m, 1e-5);
        for i in 0..cache.y.rows() {
            let row = cache.y.row(i);
            let mean: f32 = row.iter().sum::<f32>() / row.len() as f32;
            prop_assert!(mean.abs() < 1e-3, "row {i} mean {mean}");
        }
    }

    #[test]
    fn slice_concat_rows_round_trip(m in matrix_strategy(6, 4), split in 1usize..5) {
        let top = m.slice_rows(0, split);
        let bottom = m.slice_rows(split, 6);
        prop_assert_eq!(Matrix::concat_rows(&[top, bottom]), m);
    }

    #[test]
    fn slice_concat_cols_round_trip(m in matrix_strategy(4, 6), split in 1usize..5) {
        let left = m.slice_cols(0, split);
        let right = m.slice_cols(split, 6);
        prop_assert_eq!(Matrix::concat_cols(&[left, right]), m);
    }

    #[test]
    fn block_tiling_reconstructs(m in matrix_strategy(6, 6), br in 1usize..4, bc in 1usize..4) {
        // Tile with (possibly ragged) blocks and reassemble.
        let mut rebuilt = Matrix::zeros(6, 6);
        let mut r = 0;
        while r < 6 {
            let nr = br.min(6 - r);
            let mut c = 0;
            while c < 6 {
                let nc = bc.min(6 - c);
                rebuilt.set_block(r, c, &m.block(r, c, nr, nc));
                c += nc;
            }
            r += nr;
        }
        prop_assert_eq!(rebuilt, m);
    }

    #[test]
    fn rng_uniform_respects_bounds(seed in 0u64..10_000, lo in -5.0f32..0.0, width in 0.1f32..10.0) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let hi = lo + width;
        for _ in 0..100 {
            let x = rng.uniform(lo, hi);
            prop_assert!(x >= lo && x < hi);
        }
    }

    #[test]
    fn gelu_is_monotone_on_positive_axis(a in 0.0f32..5.0, delta in 0.001f32..5.0) {
        prop_assert!(nn::gelu(a + delta) >= nn::gelu(a));
    }

    /// Lane independence: the vectorized loops behind `gelu_matrix` /
    /// `gelu_backward_matrix` give each element the bits of the scalar
    /// function, whatever lane it lands in — any offset into a buffer, any
    /// length (empty, single, non-multiples of the vector width).
    #[test]
    fn gelu_over_any_slice_equals_scalar_gelu_bitwise(
        v in proptest::collection::vec(-12.0f32..12.0, 67),
        start in 0usize..67,
        len in 0usize..67,
    ) {
        let x = &v[start..(start + len).min(v.len())];
        let dy: Vec<f32> = x.iter().map(|a| 0.5 - a).collect();
        let xm = Matrix::from_vec(1, x.len(), x.to_vec());
        let fwd = nn::gelu_matrix(&xm);
        let bwd = nn::gelu_backward_matrix(&xm, &Matrix::from_vec(1, x.len(), dy.clone()));
        for (i, &a) in x.iter().enumerate() {
            // `black_box` keeps this reference evaluation scalar.
            let a = std::hint::black_box(a);
            prop_assert_eq!(fwd.data()[i].to_bits(), nn::gelu(a).to_bits());
            prop_assert_eq!(bwd.data()[i].to_bits(), (dy[i] * nn::gelu_grad(a)).to_bits());
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative(seed in 0u64..1000, label in 0usize..4) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let logits = Matrix::random_uniform(1, 4, -3.0, 3.0, &mut rng);
        let (loss, grad) = nn::softmax_cross_entropy(&logits, &[label]);
        prop_assert!(loss >= 0.0);
        // Gradient rows sum to ~0 (softmax minus one-hot).
        let s: f32 = grad.row(0).iter().sum();
        prop_assert!(s.abs() < 1e-5);
    }
}

// ---------------------------------------------------------------------------
// Forced-kernel-path properties (per-path parity contract, DESIGN.md §5)
// ---------------------------------------------------------------------------

use tesseract_tensor::matmul::{
    matmul_blocked_with, matmul_nt_blocked_with, matmul_nt_serial, matmul_serial,
    matmul_tn_blocked_with, matmul_tn_serial,
};
use tesseract_tensor::MicroKernel;

/// Shapes spanning every backend's remainder edges: m and n range from
/// strictly below one scalar tile (4×8) through several AVX2 tiles (6×16)
/// and past one AVX-512 tile (8×32), k crosses nothing-divides-anything
/// territory.
fn kernel_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..40, 1usize..96, 1usize..40)
}

fn forced_kernels() -> Vec<MicroKernel> {
    MicroKernel::available().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every vector backend agrees with scalar within FMA rounding
    /// tolerance on random shapes, including micro-tile remainder edges, in
    /// all three orientations.
    #[test]
    fn forced_paths_agree_within_tolerance((m, k, n) in kernel_dims(), seed in 0u64..1000) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let a = Matrix::random_uniform(m, k, -2.0, 2.0, &mut rng);
        let b = Matrix::random_uniform(k, n, -2.0, 2.0, &mut rng);
        let bt = Matrix::random_uniform(n, k, -2.0, 2.0, &mut rng);
        let at = Matrix::random_uniform(k, m, -2.0, 2.0, &mut rng);
        let s = MicroKernel::Scalar;
        for v in forced_kernels() {
            prop_assert!(max_rel_diff(
                matmul_blocked_with(&a, &b, s).data(),
                matmul_blocked_with(&a, &b, v).data(),
            ) < 1e-4);
            prop_assert!(max_rel_diff(
                matmul_nt_blocked_with(&a, &bt, s).data(),
                matmul_nt_blocked_with(&a, &bt, v).data(),
            ) < 1e-4);
            prop_assert!(max_rel_diff(
                matmul_tn_blocked_with(&at, &b, s).data(),
                matmul_tn_blocked_with(&at, &b, v).data(),
            ) < 1e-4);
        }
    }

    /// The scalar backend is bitwise identical to the serial triple loops
    /// on random shapes, in all three orientations.
    #[test]
    fn scalar_path_is_bitwise_the_serial_loops((m, k, n) in kernel_dims(), seed in 0u64..1000) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let a = Matrix::random_uniform(m, k, -2.0, 2.0, &mut rng);
        let b = Matrix::random_uniform(k, n, -2.0, 2.0, &mut rng);
        let bt = Matrix::random_uniform(n, k, -2.0, 2.0, &mut rng);
        let at = Matrix::random_uniform(k, m, -2.0, 2.0, &mut rng);
        let s = MicroKernel::Scalar;
        prop_assert_eq!(&matmul_blocked_with(&a, &b, s), &matmul_serial(&a, &b));
        prop_assert_eq!(&matmul_nt_blocked_with(&a, &bt, s), &matmul_nt_serial(&a, &bt));
        prop_assert_eq!(&matmul_tn_blocked_with(&at, &b, s), &matmul_tn_serial(&at, &b));
    }
}

// ---------------------------------------------------------------------------
// One price list: every `TensorLike` op on both backends
// ---------------------------------------------------------------------------

use std::panic::{catch_unwind, AssertUnwindSafe};
use tesseract_tensor::{AdamCoeffs, DenseTensor, Meter, ShadowTensor, TensorLike};

/// Runs every metered op once on `[r, k]` / `[k, c]` / `[r, c]` operands and
/// logs, after each, the op's name, its output shape and the meter so far.
fn drive_every_op<T: TensorLike>(
    (r, k, c): (usize, usize, usize),
    cut: usize,
    seed: u64,
) -> Vec<(&'static str, (usize, usize), Meter)> {
    let param = |rows, cols, id| T::init_xavier_block(rows, cols, 0, 0, rows, cols, seed, id);
    let (a, b, bt) = (param(r, k, 0), param(k, c, 1), param(c, k, 2));
    let (y, rowvec, colvec) = (param(r, c, 3), param(1, c, 4), param(r, 1, 5));
    let (r0, c0) = (cut % (r + 1), cut % (c + 1));
    let limits: Vec<usize> = (0..r).map(|i| (7 * i + cut) % (c + 1)).collect();

    let mut m = Meter::new();
    let mut log = Vec::new();
    macro_rules! logged {
        ($name:literal, $out:expr) => {{
            let out = $out;
            log.push(($name, out.shape(), m));
            out
        }};
    }
    let mut x = logged!("matmul", a.matmul(&b, &mut m));
    logged!("matmul_nt", a.matmul_nt(&bt, &mut m));
    logged!("matmul_tn", a.matmul_tn(&x, &mut m));
    logged!("add", x.add(&y, &mut m));
    x.add_assign(&y, &mut m);
    logged!("add_assign", &x);
    logged!("sub", x.sub(&y, &mut m));
    logged!("hadamard", x.hadamard(&y, &mut m));
    logged!("scale", x.scale(0.5, &mut m));
    x.scale_assign(0.5, &mut m);
    logged!("scale_assign", &x);
    logged!("add_scaled", x.add_scaled(&y, -0.5, &mut m));
    let (mut mom, mut vel) = (T::zeros(r, c), T::zeros(r, c));
    let coeffs = AdamCoeffs::at_step(0.9, 0.999, 1e-8, 1);
    logged!("adam_direction", x.adam_direction(&mut mom, &mut vel, coeffs, &mut m));
    logged!("row_sums", x.row_sums(&mut m));
    let squares = logged!("row_sums_of_squares", x.row_sums_of_squares(&mut m));
    logged!("col_sums", x.col_sums(&mut m));
    logged!("add_rowvec", x.add_rowvec(&rowvec, &mut m));
    logged!("add_colvec", x.add_colvec(&colvec, &mut m));
    logged!("sub_colvec", x.sub_colvec(&colvec, &mut m));
    logged!("mul_colvec", x.mul_colvec(&colvec, &mut m));
    logged!("rsqrt_add", squares.rsqrt_add(1e-5, &mut m));
    logged!("gelu", x.gelu(&mut m));
    logged!("gelu_backward", x.gelu_backward(&y, &mut m));
    let mut probs = logged!("softmax_rows", x.softmax_rows(&mut m));
    logged!("softmax_rows_backward", probs.softmax_rows_backward(&y, &mut m));
    probs.softmax_rows_masked_inplace(&limits, &mut m);
    logged!("softmax_rows_masked_inplace", &probs);
    let top = logged!("slice_rows", x.slice_rows(r0, r, &mut m));
    let left = logged!("slice_cols", x.slice_cols(0, c0, &mut m));
    logged!("concat_rows", T::concat_rows(&[x.clone(), top], &mut m));
    logged!("concat_cols", T::concat_cols(&[left, x], &mut m));
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The invariant every shadow-backend number rests on: op for op, a
    /// dense run and a shadow run produce the same shape and leave the same
    /// meter. Shapes reach past `BLOCKED_MIN_ELEMS`, so both GEMM dispatch
    /// tallies are covered.
    #[test]
    fn every_op_charges_dense_and_shadow_alike(
        dims in (1usize..72, 1usize..72, 1usize..72),
        cut in 0usize..72,
        seed in 0u64..1000,
    ) {
        let dense = drive_every_op::<DenseTensor>(dims, cut, seed);
        let shadow = drive_every_op::<ShadowTensor>(dims, cut, seed);
        prop_assert_eq!(dense.len(), 28, "one entry per metered op");
        for (d, s) in dense.iter().zip(&shadow) {
            prop_assert_eq!(d, s, "{} on {:?}", d.0, dims);
        }
    }
}

/// A shape-violating call, keyed by the text its panic must carry.
type Violation = (&'static str, Box<dyn Fn(&mut Meter)>);

/// One violation per shape rule.
fn shape_violations<T: TensorLike>() -> Vec<Violation> {
    fn case(text: &'static str, call: impl Fn(&mut Meter) + 'static) -> Violation {
        (text, Box::new(call))
    }
    let t = T::zeros;
    let adam = AdamCoeffs::at_step(0.9, 0.999, 1e-8, 1);
    vec![
        case("matmul: inner dims 5 vs 4", move |m| drop(t(3, 5).matmul(&t(4, 2), m))),
        case("matmul_nt: inner dims 5 vs 2", move |m| drop(t(3, 5).matmul_nt(&t(4, 2), m))),
        case("matmul_tn: inner dims 3 vs 4", move |m| drop(t(3, 5).matmul_tn(&t(4, 2), m))),
        case("add: shape mismatch (3, 5) vs (5, 3)", move |m| drop(t(3, 5).add(&t(5, 3), m))),
        case("add_assign: shape mismatch", move |m| t(3, 5).add_assign(&t(5, 3), m)),
        case("sub: shape mismatch", move |m| drop(t(3, 5).sub(&t(3, 4), m))),
        case("hadamard: shape mismatch", move |m| drop(t(3, 5).hadamard(&t(2, 5), m))),
        case("add_scaled: shape mismatch", move |m| drop(t(3, 5).add_scaled(&t(5, 3), 0.1, m))),
        case("adam_direction: shape mismatch", move |m| {
            drop(t(3, 5).adam_direction(&mut t(3, 4), &mut t(3, 5), adam, m))
        }),
        case("adam_direction: shape mismatch", move |m| {
            drop(t(3, 5).adam_direction(&mut t(3, 5), &mut t(2, 5), adam, m))
        }),
        case("gelu_backward: shape mismatch", move |m| drop(t(3, 5).gelu_backward(&t(5, 3), m))),
        case("softmax_rows_backward: shape mismatch", move |m| {
            drop(t(3, 5).softmax_rows_backward(&t(3, 6), m))
        }),
        case("reduce_add_inplace: shape mismatch", move |_| t(3, 5).reduce_add_inplace(&t(5, 3))),
        case("add_rowvec: bad vector shape", move |m| drop(t(3, 5).add_rowvec(&t(1, 3), m))),
        case("add_rowvec: bad vector shape", move |m| drop(t(3, 5).add_rowvec(&t(5, 1), m))),
        case("add_colvec: bad vector shape", move |m| drop(t(3, 5).add_colvec(&t(5, 1), m))),
        case("sub_colvec: bad vector shape", move |m| drop(t(3, 5).sub_colvec(&t(1, 3), m))),
        case("mul_colvec: bad vector shape", move |m| drop(t(3, 5).mul_colvec(&t(3, 2), m))),
        case("slice_rows out of bounds", move |m| drop(t(3, 5).slice_rows(1, 4, m))),
        case("slice_rows out of bounds", move |m| drop(t(3, 5).slice_rows(2, 1, m))),
        case("slice_cols out of bounds", move |m| drop(t(3, 5).slice_cols(0, 6, m))),
        case("slice_cols out of bounds", move |m| drop(t(3, 5).slice_cols(4, 3, m))),
        case("concat_rows: column mismatch", move |m| drop(T::concat_rows(&[t(3, 5), t(3, 4)], m))),
        case("concat_cols: row mismatch", move |m| drop(T::concat_cols(&[t(3, 5), t(2, 5)], m))),
        case("concat_rows of no parts", move |m| drop(T::concat_rows(&[], m))),
        case("concat_cols of no parts", move |m| drop(T::concat_cols(&[], m))),
        case("softmax mask: one limit per row", move |m| {
            t(3, 5).softmax_rows_masked_inplace(&[1, 2], m)
        }),
        case("softmax mask: limit exceeds 5 columns", move |m| {
            t(3, 5).softmax_rows_masked_inplace(&[1, 6, 2], m)
        }),
        case("init_xavier_block: [4+5, 0+4] outside [8, 8]", move |_| {
            drop(T::init_xavier_block(8, 8, 4, 0, 5, 4, 1, 0))
        }),
        case("init_xavier_block: [0+4, 6+4] outside [8, 8]", move |_| {
            drop(T::init_xavier_block(8, 8, 0, 6, 4, 4, 1, 0))
        }),
    ]
}

/// The panic text of each violation.
fn violation_messages<T: TensorLike>() -> Vec<String> {
    shape_violations::<T>()
        .into_iter()
        .map(|(text, call)| {
            let Err(panic) = catch_unwind(AssertUnwindSafe(|| call(&mut Meter::new()))) else {
                panic!("`{text}` case did not panic");
            };
            let got = (panic.downcast_ref::<String>().map(String::as_str))
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .expect("panic carries text");
            assert!(got.contains(text), "expected `{text}` in `{got}`");
            got.to_string()
        })
        .collect()
}

/// Every shape rule trips with the same text on both backends.
#[test]
fn shape_violations_panic_alike_on_dense_and_shadow() {
    assert_eq!(violation_messages::<DenseTensor>(), violation_messages::<ShadowTensor>());
}
