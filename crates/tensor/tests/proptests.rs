//! Property tests for the tensor substrate: algebraic identities of the
//! kernels, structural invariants of the matrix type, and the JSON writer's
//! round trip through the parser. Each test loops over its cases and draws
//! every input from its own `Xoshiro256StarStar`, seeded with a constant.

use tesseract_tensor::matmul::{gemm, gemm_on, KernelPath, Orient};
use tesseract_tensor::nn;
use tesseract_tensor::trace::json::{self, Value};
use tesseract_tensor::{approx_eq, max_rel_diff, Matrix, Xoshiro256StarStar};

/// `(m, k, n)`, each in `1..8`.
fn dims(rng: &mut Xoshiro256StarStar) -> (usize, usize, usize) {
    (1 + rng.next_usize(7), 1 + rng.next_usize(7), 1 + rng.next_usize(7))
}

/// A `rows × cols` matrix with entries in `[-2, 2)`.
fn matrix(rng: &mut Xoshiro256StarStar, rows: usize, cols: usize) -> Matrix {
    Matrix::random_uniform(rows, cols, -2.0, 2.0, rng)
}

#[test]
fn matmul_is_left_distributive() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(101);
    for _ in 0..64 {
        let (m, k, n) = dims(&mut rng);
        let a = Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
        let c = Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
        let mut b_plus_c = b.clone();
        b_plus_c.add_assign(&c);
        let lhs = gemm(Orient::Nn, &a, &b_plus_c);
        let mut rhs = gemm(Orient::Nn, &a, &b);
        rhs.add_assign(&gemm(Orient::Nn, &a, &c));
        assert!(max_rel_diff(lhs.data(), rhs.data()) < 1e-4, "{m}x{k}x{n}");
    }
}

#[test]
fn transpose_reverses_products() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(102);
    for _ in 0..64 {
        let (m, k, n) = dims(&mut rng);
        let a = Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
        // (AB)ᵀ = Bᵀ Aᵀ
        let lhs = gemm(Orient::Nn, &a, &b).transpose();
        let rhs = gemm(Orient::Nn, &b.transpose(), &a.transpose());
        assert!(max_rel_diff(lhs.data(), rhs.data()) < 1e-4, "{m}x{k}x{n}");
    }
}

#[test]
fn nt_and_tn_agree_with_explicit_transposes() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(103);
    for _ in 0..64 {
        let (m, k, n) = dims(&mut rng);
        let a = Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(n, k, -1.0, 1.0, &mut rng);
        assert!(
            max_rel_diff(
                gemm(Orient::Nt, &a, &b).data(),
                gemm(Orient::Nn, &a, &b.transpose()).data()
            ) < 1e-4
        );
        let c = Matrix::random_uniform(m, n, -1.0, 1.0, &mut rng);
        assert!(
            max_rel_diff(
                gemm(Orient::Tn, &a, &c).data(),
                gemm(Orient::Nn, &a.transpose(), &c).data()
            ) < 1e-4
        );
    }
}

#[test]
fn softmax_rows_are_distributions() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(104);
    for _ in 0..64 {
        let y = nn::softmax_rows(&matrix(&mut rng, 4, 6));
        for i in 0..y.rows() {
            let sum: f32 = y.row(i).iter().sum();
            assert!(approx_eq(sum, 1.0, 1e-4));
            assert!(y.row(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }
}

#[test]
fn layernorm_output_is_normalized() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(105);
    for _ in 0..64 {
        let cache = nn::layernorm_rows(&matrix(&mut rng, 3, 16), 1e-5);
        for i in 0..cache.y.rows() {
            let row = cache.y.row(i);
            let mean: f32 = row.iter().sum::<f32>() / row.len() as f32;
            assert!(mean.abs() < 1e-3, "row {i} mean {mean}");
        }
    }
}

#[test]
fn slice_concat_rows_round_trip() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(106);
    for _ in 0..64 {
        let m = matrix(&mut rng, 6, 4);
        let split = 1 + rng.next_usize(4);
        let top = m.slice_rows(0, split);
        let bottom = m.slice_rows(split, 6);
        assert_eq!(Matrix::concat_rows(&[top, bottom]), m);
    }
}

#[test]
fn slice_concat_cols_round_trip() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(107);
    for _ in 0..64 {
        let m = matrix(&mut rng, 4, 6);
        let split = 1 + rng.next_usize(4);
        let left = m.slice_cols(0, split);
        let right = m.slice_cols(split, 6);
        assert_eq!(Matrix::concat_cols(&[left, right]), m);
    }
}

#[test]
fn block_tiling_reconstructs() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(108);
    for _ in 0..64 {
        let m = matrix(&mut rng, 6, 6);
        let (br, bc) = (1 + rng.next_usize(3), 1 + rng.next_usize(3));
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
        assert_eq!(rebuilt, m);
    }
}

#[test]
fn rng_uniform_respects_bounds() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(109);
    for _ in 0..64 {
        let lo = rng.uniform(-5.0, 0.0);
        let hi = lo + rng.uniform(0.1, 10.0);
        for _ in 0..100 {
            let x = rng.uniform(lo, hi);
            assert!(x >= lo && x < hi, "{x} outside [{lo}, {hi})");
        }
    }
}

#[test]
fn gelu_is_monotone_on_positive_axis() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(110);
    for _ in 0..64 {
        let (a, delta) = (rng.uniform(0.0, 5.0), rng.uniform(0.001, 5.0));
        assert!(nn::gelu(a + delta) >= nn::gelu(a), "gelu({a} + {delta})");
    }
}

/// Lane independence: the vectorized loops behind `gelu_matrix` /
/// `gelu_backward_matrix` give each element the bits of the scalar
/// function, whatever lane it lands in — any offset into a buffer, any
/// length (empty, single, non-multiples of the vector width).
#[test]
fn gelu_over_any_slice_equals_scalar_gelu_bitwise() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(111);
    for _ in 0..64 {
        let v: Vec<f32> = (0..67).map(|_| rng.uniform(-12.0, 12.0)).collect();
        let (start, len) = (rng.next_usize(67), rng.next_usize(67));
        let x = &v[start..(start + len).min(v.len())];
        let dy: Vec<f32> = x.iter().map(|a| 0.5 - a).collect();
        let xm = Matrix::from_vec(1, x.len(), x.to_vec());
        let fwd = nn::gelu_matrix(&xm);
        let bwd = nn::gelu_backward_matrix(&xm, &Matrix::from_vec(1, x.len(), dy.clone()));
        for (i, &a) in x.iter().enumerate() {
            // `black_box` keeps this reference evaluation scalar.
            let a = std::hint::black_box(a);
            assert_eq!(fwd.data()[i].to_bits(), nn::gelu(a).to_bits());
            assert_eq!(bwd.data()[i].to_bits(), (dy[i] * nn::gelu_grad(a)).to_bits());
        }
    }
}

#[test]
fn cross_entropy_is_nonnegative() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(112);
    for _ in 0..64 {
        let logits = Matrix::random_uniform(1, 4, -3.0, 3.0, &mut rng);
        let label = rng.next_usize(4);
        let (loss, grad) = nn::softmax_cross_entropy(&logits, &[label]);
        assert!(loss >= 0.0);
        // Gradient rows sum to ~0 (softmax minus one-hot).
        let s: f32 = grad.row(0).iter().sum();
        assert!(s.abs() < 1e-5);
    }
}

// ---------------------------------------------------------------------------
// Forced-kernel-path properties (per-path parity contract, DESIGN.md §5)
// ---------------------------------------------------------------------------

use tesseract_tensor::MicroKernel;

/// Every blocked backend is bitwise identical to the first (scalar) on
/// random shapes, including micro-tile remainder edges, in all three
/// orientations: the blocked path has one numerics class. m and n range
/// from strictly below one scalar tile (4×8) through several AVX2 tiles
/// (6×16) and past one AVX-512 tile (8×32), k crosses
/// nothing-divides-anything territory.
#[test]
fn forced_paths_agree_bitwise() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(113);
    for _ in 0..24 {
        let (m, k, n) = (1 + rng.next_usize(39), 1 + rng.next_usize(95), 1 + rng.next_usize(39));
        for o in Orient::ALL {
            let ((ar, ac), (br, bc)) = o.stored(m, k, n);
            let a = Matrix::random_uniform(ar, ac, -2.0, 2.0, &mut rng);
            let b = Matrix::random_uniform(br, bc, -2.0, 2.0, &mut rng);
            let bits = |v| {
                let c = gemm_on(o, KernelPath::Blocked, v, &a, &b);
                c.data().iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
            };
            let first = bits(MicroKernel::Scalar);
            for v in MicroKernel::available().skip(1) {
                assert_eq!(first, bits(v), "{o:?} {m}x{k}x{n} on {v:?}");
            }
        }
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
    let mut grown = x.clone();
    grown.append_rows(&top, &mut m);
    logged!("append_rows", &grown);
    logged!("concat_rows", T::concat_rows(&[x.clone(), top], &mut m));
    logged!("concat_cols", T::concat_cols(&[left, x], &mut m));
    log
}

/// The invariant every shadow-backend number rests on: op for op, a
/// dense run and a shadow run produce the same shape and leave the same
/// meter. Shapes reach past `BLOCKED_MIN_ELEMS`, so both GEMM dispatch
/// tallies are covered.
#[test]
fn every_op_charges_dense_and_shadow_alike() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(114);
    for _ in 0..48 {
        let dims = (1 + rng.next_usize(71), 1 + rng.next_usize(71), 1 + rng.next_usize(71));
        let (cut, seed) = (rng.next_usize(72), rng.next_usize(1000) as u64);
        let dense = drive_every_op::<DenseTensor>(dims, cut, seed);
        let shadow = drive_every_op::<ShadowTensor>(dims, cut, seed);
        assert_eq!(dense.len(), 29, "one entry per metered op");
        for (d, s) in dense.iter().zip(&shadow) {
            assert_eq!(d, s, "{} on {:?}", d.0, dims);
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
        case("append_rows: column mismatch", move |m| t(3, 5).append_rows(&t(2, 4), m)),
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

/// Characters a JSON string must escape or carry through: quotes,
/// backslashes, control characters, and multi-byte UTF-8.
const JSON_CHARS: [char; 17] = [
    'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{8}', '\u{1f}', 'é', '→',
    '中', '😀',
];

fn random_json_string(rng: &mut Xoshiro256StarStar) -> String {
    (0..rng.next_usize(6)).map(|_| JSON_CHARS[rng.next_usize(JSON_CHARS.len())]).collect()
}

/// A random JSON tree: every scalar kind, each number form the writer
/// builds, escaped strings, and empty or nested containers up to `depth`.
fn random_json(rng: &mut Xoshiro256StarStar, depth: usize) -> Value {
    let magnitude = 10f64.powi(rng.next_usize(40) as i32 - 20);
    let x = (rng.next_f64() - 0.5) * magnitude;
    match rng.next_usize(if depth == 0 { 7 } else { 11 }) {
        0 => Value::Null,
        1 => rng.next_u64().is_multiple_of(2).into(),
        2 => Value::fixed(x, rng.next_usize(10)),
        3 => Value::sci(x),
        4 => x.into(),
        5 => rng.next_u64().into(),
        6 => random_json_string(rng).into(),
        7 | 8 => Value::Arr((0..rng.next_usize(4)).map(|_| random_json(rng, depth - 1)).collect()),
        _ => Value::Obj(
            (0..rng.next_usize(4))
                .map(|_| (random_json_string(rng), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn json_write_then_parse_gives_back_the_tree() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(115);
    for _ in 0..256 {
        let tree = random_json(&mut rng, 4);
        assert_eq!(json::parse(&json::write(&tree)), Ok(tree));
    }
}
