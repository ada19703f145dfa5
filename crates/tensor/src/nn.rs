//! Neural-network primitives on dense matrices: activations, row softmax,
//! layer normalization (Eq. 13/14 of the paper) and cross-entropy loss.
//!
//! These are the *serial* kernels; the distributed layers compose their
//! partial-sum versions from `TensorLike` primitives plus collectives, and
//! the tests in `tesseract-core` check them against these references.

use crate::matrix::Matrix;

/// Branch-free `f32` exponential: the one `exp` behind [`gelu`] and
/// [`gelu_grad`].
///
/// Clamp to the range whose result is a normal `f32`, round `x·log2e` to an
/// integer `n` with the 1.5·2²³ magic-number add, reduce `r = x − n·ln2` with
/// the two-constant Cody–Waite split, evaluate the Cephes `expf` polynomial
/// on `r ∈ [−ln2/2, ln2/2]` and multiply by `2ⁿ` assembled from exponent
/// bits. Only `mul`, `add`, `min`/`max` and integer shifts — each exactly
/// rounded under IEEE 754, with no FMA contraction and no table — so every
/// lane of an autovectorized loop computes the same bits as a scalar call, on
/// any host, at any slice offset. Measured error 0.96 ulp against `f64::exp`
/// over the clamped range; inputs outside it saturate to `exp(±clamp)`
/// (finite, positive); NaN propagates.
#[inline(always)]
fn exp(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // ln2 split so that `n·LN2_HI` is exact for |n| < 2¹⁵ (Cephes C1/C2).
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const MAGIC: f32 = 12_582_912.0;
    // n stays in [−126, 127] so 2ⁿ is a normal number.
    let x = x.clamp(-87.33, 88.37);
    let t = x * LOG2E + MAGIC;
    let n = t - MAGIC;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_2e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 0.5;
    p = p * (r * r) + r + 1.0;
    // The low mantissa bits of `t` hold `n` in two's complement; shifted into
    // the exponent field and re-biased they are the bits of 2ⁿ.
    let two_n = f32::from_bits((t.to_bits() << 23).wrapping_add(0x3f80_0000));
    p * two_n
}

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_CUBIC: f32 = 0.044715;

/// `σ(2u)` with `u = √(2/π)(x + 0.044715x³)`: the factor GELU multiplies `x`
/// by. `0.5(1 + tanh u) = σ(2u)` exactly, and the sigmoid form has no
/// `1 + tanh` cancellation for very negative `x`.
#[inline(always)]
fn gelu_gate(x: f32) -> f32 {
    let u = SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x);
    1.0 / (1.0 + exp(-2.0 * u))
}

/// GELU activation (the BERT/GPT/Megatron tanh approximation, evaluated as
/// `x·σ(2u)` through the in-tree `exp`).
#[inline(always)]
pub fn gelu(x: f32) -> f32 {
    x * gelu_gate(x)
}

/// Derivative of [`gelu`] with respect to its input:
/// `s + x·2s(1−s)·u'` with `s = σ(2u)`.
#[inline(always)]
pub fn gelu_grad(x: f32) -> f32 {
    let s = gelu_gate(x);
    s + x * (2.0 * s * (1.0 - s)) * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_CUBIC * x * x)
}

/// Applies GELU elementwise.
pub fn gelu_matrix(x: &Matrix) -> Matrix {
    x.map(gelu)
}

/// Elementwise GELU backward: `dX = dY ∘ gelu'(X)`.
pub fn gelu_backward_matrix(x: &Matrix, dy: &Matrix) -> Matrix {
    x.zip_map(dy, |xi, g| g * gelu_grad(xi))
}

/// Numerically-stable softmax over each row.
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// In-place form of [`softmax_rows`]: mutates `x` instead of allocating a
/// fresh matrix. [`softmax_rows`] is implemented as clone + this, so the two
/// are bitwise-identical by construction.
pub fn softmax_rows_inplace(x: &mut Matrix) {
    for i in 0..x.rows() {
        softmax_row_prefix(x.row_mut(i));
    }
}

/// Softmax over one row slice (the shared kernel of the in-place variants).
fn softmax_row_prefix(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Masked in-place row softmax: row `i` is softmaxed over its first
/// `limits[i]` entries only; the remaining entries are zeroed (they carry no
/// probability mass). This is the causal-attention kernel — during prefill,
/// token `t` of a request may only attend to positions `0..=t`, so
/// `limits[t] = cache_len + t + 1`.
///
/// Bitwise contract: row `i` of the result equals
/// `softmax_rows(x.slice_cols(0, limits[i]))` padded with zeros — the masked
/// path runs the exact same max/exp/sum/scale sequence over the prefix as
/// the allocating path does over a sliced row (tested in this module).
pub fn softmax_rows_masked_inplace(x: &mut Matrix, limits: &[usize]) {
    assert_eq!(x.rows(), limits.len(), "softmax mask: one limit per row");
    let cols = x.cols();
    for (i, &limit) in limits.iter().enumerate() {
        assert!(limit <= cols, "softmax mask: limit {limit} exceeds {cols} columns");
        let row = x.row_mut(i);
        softmax_row_prefix(&mut row[..limit]);
        for v in &mut row[limit..] {
            *v = 0.0;
        }
    }
}

/// Softmax backward given the forward output `y` and upstream gradient `dy`:
/// `dx_i = y_i * (dy_i - Σ_j y_j dy_j)` per row.
pub fn softmax_rows_backward(y: &Matrix, dy: &Matrix) -> Matrix {
    assert_eq!(y.shape(), dy.shape());
    let mut out = Matrix::zeros(y.rows(), y.cols());
    for i in 0..y.rows() {
        let yr = y.row(i);
        let dyr = dy.row(i);
        let dot: f32 = yr.iter().zip(dyr.iter()).map(|(a, b)| a * b).sum();
        for ((o, &yv), &dyv) in out.row_mut(i).iter_mut().zip(yr.iter()).zip(dyr.iter()) {
            *o = yv * (dyv - dot);
        }
    }
    out
}

/// Output of a layer-norm forward pass, caching what the backward needs.
pub struct LayerNormCache {
    /// Normalized output `X̂`.
    pub y: Matrix,
    /// `1 / sqrt(Var[X] + eps)` per row.
    pub inv_std: Vec<f32>,
}

/// Layer normalization over each row (Eq. 13), without affine parameters, as
/// in the paper's description of the residual-connection normalization.
pub fn layernorm_rows(x: &Matrix, eps: f32) -> LayerNormCache {
    let n = x.cols() as f32;
    let mut y = x.clone();
    let mut inv_std = Vec::with_capacity(x.rows());
    for i in 0..y.rows() {
        let row = y.row_mut(i);
        let mean = row.iter().sum::<f32>() / n;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let inv = 1.0 / (var + eps).sqrt();
        for v in row.iter_mut() {
            *v = (*v - mean) * inv;
        }
        inv_std.push(inv);
    }
    LayerNormCache { y, inv_std }
}

/// Layer-norm backward (Eq. 14): given `dY = δJ/δX̂`, the cached normalized
/// output `X̂` and `1/sqrt(Var+eps)`, returns `dX`.
pub fn layernorm_rows_backward(cache: &LayerNormCache, dy: &Matrix) -> Matrix {
    let y = &cache.y;
    assert_eq!(y.shape(), dy.shape());
    let n = y.cols() as f32;
    let mut dx = Matrix::zeros(y.rows(), y.cols());
    for i in 0..y.rows() {
        let yr = y.row(i);
        let dyr = dy.row(i);
        let sum_dy: f32 = dyr.iter().sum();
        let sum_y_dy: f32 = yr.iter().zip(dyr.iter()).map(|(a, b)| a * b).sum();
        let inv = cache.inv_std[i];
        for ((o, &yv), &dyv) in dx.row_mut(i).iter_mut().zip(yr.iter()).zip(dyr.iter()) {
            *o = (dyv - (yv * sum_y_dy + sum_dy) / n) * inv;
        }
    }
    dx
}

/// Adds a row-vector bias to every row.
pub fn bias_add(x: &Matrix, bias: &[f32]) -> Matrix {
    assert_eq!(x.cols(), bias.len());
    let mut data = Vec::with_capacity(x.len());
    for i in 0..x.rows() {
        data.extend(x.row(i).iter().zip(bias).map(|(v, b)| v + b));
    }
    Matrix::from_vec(x.rows(), x.cols(), data)
}

/// Mean cross-entropy of `logits` (rows = samples) against integer labels,
/// plus the gradient with respect to the logits.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), labels.len());
    let probs = softmax_rows(logits);
    let n = logits.rows() as f32;
    let mut loss = 0.0f32;
    let mut grad = probs.clone();
    for (i, &label) in labels.iter().enumerate() {
        assert!(label < logits.cols(), "label {label} out of range");
        loss -= probs[(i, label)].max(1e-12).ln();
        grad[(i, label)] -= 1.0;
    }
    grad.scale_assign(1.0 / n);
    (loss / n, grad)
}

/// Count of argmax-correct rows (classification accuracy numerator).
pub fn count_correct(logits: &Matrix, labels: &[usize]) -> usize {
    assert_eq!(logits.rows(), labels.len());
    let mut correct = 0;
    for (i, &label) in labels.iter().enumerate() {
        let row = logits.row(i);
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(j, _)| j)
            .unwrap();
        if argmax == label {
            correct += 1;
        }
    }
    correct
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    /// Distance in units in the last place of the `f32` nearest `want`.
    fn ulps(got: f32, want: f64) -> f64 {
        let w = want as f32;
        let ulp = f32::from_bits(w.to_bits() + 1) - w;
        ((got as f64 - want) / ulp as f64).abs()
    }

    #[test]
    fn exp_is_within_two_ulp_of_f64_exp() {
        let mut worst = 0.0f64;
        for i in 0..=1_750_000 {
            let x = -87.0 + i as f32 * 1e-4;
            worst = worst.max(ulps(exp(x), (x as f64).exp()));
        }
        assert!(worst <= 2.0, "worst error {worst} ulp");
    }

    #[test]
    fn exp_edge_cases() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert!(exp(f32::NAN).is_nan());
        // Saturation outside the clamp, at finite positive values.
        assert_eq!(exp(f32::INFINITY), exp(88.37));
        assert_eq!(exp(1e30), exp(88.37));
        assert_eq!(exp(f32::NEG_INFINITY), exp(-87.33));
        assert_eq!(exp(-1e30), exp(-87.33));
        for x in [f32::MIN, -1e3, -87.33, -1.0, 1e-30, 1.0, 88.37, 1e3, f32::MAX] {
            let e = exp(x);
            assert!(e.is_finite() && e > 0.0, "exp({x}) = {e}");
        }
    }

    /// The tanh form GELU is specified by, evaluated in `f64`: the accuracy
    /// reference for the `x·σ(2u)` form the library computes.
    fn gelu_tanh_f64(x: f64) -> (f64, f64) {
        let k = (2.0 / std::f64::consts::PI).sqrt();
        let t = (k * (x + 0.044715 * x * x * x)).tanh();
        let du = k * (1.0 + 3.0 * 0.044715 * x * x);
        (0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)
    }

    #[test]
    fn gelu_matches_the_tanh_form_in_f64() {
        for i in 0..=200_000 {
            let x = -10.0 + i as f32 * 1e-4;
            let (want, want_grad) = gelu_tanh_f64(x as f64);
            let tol = 1e-6 * x.abs().max(1.0) as f64;
            assert!((gelu(x) as f64 - want).abs() <= tol, "gelu({x})");
            assert!((gelu_grad(x) as f64 - want_grad).abs() <= tol, "gelu_grad({x})");
        }
    }

    #[test]
    fn gelu_known_values() {
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
        // Asymptotics: gelu(x) -> x for large x, -> 0 for very negative x.
        assert_eq!(gelu(6.0), 6.0);
        assert!(gelu(-6.0).abs() < 1e-4);
        assert!(gelu(f32::NAN).is_nan() && gelu_grad(f32::NAN).is_nan());
        for x in [f32::MIN, -1e19, -1e3, -11.0, 11.0, 1e3, 1e19, f32::MAX] {
            assert!(gelu(x).is_finite(), "gelu({x}) = {}", gelu(x));
        }
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        let h = 1e-3f32;
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let fd = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!((gelu_grad(x) - fd).abs() < 1e-3, "x={x}");
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let x = Matrix::random_uniform(5, 8, -4.0, 4.0, &mut rng);
        let y = softmax_rows(&x);
        for i in 0..5 {
            let s: f32 = y.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(y.row(i).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_inplace_is_bitwise_identical_to_allocating() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(21);
        let x = Matrix::random_uniform(7, 9, -5.0, 5.0, &mut rng);
        let allocating = softmax_rows(&x);
        let mut inplace = x.clone();
        softmax_rows_inplace(&mut inplace);
        assert_eq!(allocating.data(), inplace.data());
    }

    #[test]
    fn masked_softmax_matches_sliced_allocating_path_bitwise() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(22);
        let x = Matrix::random_uniform(5, 8, -4.0, 4.0, &mut rng);
        let limits = [1usize, 3, 8, 5, 2];
        let mut masked = x.clone();
        softmax_rows_masked_inplace(&mut masked, &limits);
        for (i, &limit) in limits.iter().enumerate() {
            // Reference: slice the prefix out, run the allocating softmax.
            let prefix = softmax_rows(&x.slice_rows(i, i + 1).slice_cols(0, limit));
            assert_eq!(&masked.row(i)[..limit], prefix.data(), "row {i}");
            assert!(masked.row(i)[limit..].iter().all(|&v| v == 0.0), "row {i} tail");
        }
    }

    #[test]
    fn masked_softmax_with_full_limits_equals_plain_softmax() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(23);
        let x = Matrix::random_uniform(4, 6, -3.0, 3.0, &mut rng);
        let mut masked = x.clone();
        softmax_rows_masked_inplace(&mut masked, &[6, 6, 6, 6]);
        assert_eq!(masked.data(), softmax_rows(&x).data());
    }

    #[test]
    #[should_panic(expected = "limit 9 exceeds 8 columns")]
    fn masked_softmax_rejects_out_of_range_limits() {
        let mut x = Matrix::zeros(1, 8);
        softmax_rows_masked_inplace(&mut x, &[9]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let mut shifted = x.clone();
        for v in shifted.data_mut() {
            *v += 100.0;
        }
        crate::assert_slices_close(softmax_rows(&x).data(), softmax_rows(&shifted).data(), 1e-6);
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let x = Matrix::random_uniform(2, 4, -1.0, 1.0, &mut rng);
        let dy = Matrix::random_uniform(2, 4, -1.0, 1.0, &mut rng);
        let y = softmax_rows(&x);
        let dx = softmax_rows_backward(&y, &dy);
        let h = 1e-3f32;
        for i in 0..2 {
            for j in 0..4 {
                let mut xp = x.clone();
                xp[(i, j)] += h;
                let mut xm = x.clone();
                xm[(i, j)] -= h;
                let yp = softmax_rows(&xp);
                let ym = softmax_rows(&xm);
                let mut fd = 0.0f32;
                for jj in 0..4 {
                    fd += dy[(i, jj)] * (yp[(i, jj)] - ym[(i, jj)]) / (2.0 * h);
                }
                assert!((dx[(i, j)] - fd).abs() < 2e-3, "({i},{j}): {} vs {}", dx[(i, j)], fd);
            }
        }
    }

    #[test]
    fn layernorm_produces_zero_mean_unit_var() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let x = Matrix::random_uniform(4, 16, -3.0, 3.0, &mut rng);
        let cache = layernorm_rows(&x, 1e-5);
        for i in 0..4 {
            let row = cache.y.row(i);
            let mean: f32 = row.iter().sum::<f32>() / 16.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layernorm_backward_matches_finite_difference() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let x = Matrix::random_uniform(2, 6, -2.0, 2.0, &mut rng);
        let dy = Matrix::random_uniform(2, 6, -1.0, 1.0, &mut rng);
        let cache = layernorm_rows(&x, 1e-5);
        let dx = layernorm_rows_backward(&cache, &dy);
        let h = 1e-2f32;
        for i in 0..2 {
            for j in 0..6 {
                let mut xp = x.clone();
                xp[(i, j)] += h;
                let mut xm = x.clone();
                xm[(i, j)] -= h;
                let yp = layernorm_rows(&xp, 1e-5).y;
                let ym = layernorm_rows(&xm, 1e-5).y;
                let mut fd = 0.0f32;
                for jj in 0..6 {
                    fd += dy[(i, jj)] * (yp[(i, jj)] - ym[(i, jj)]) / (2.0 * h);
                }
                assert!((dx[(i, j)] - fd).abs() < 5e-2, "({i},{j}): {} vs {}", dx[(i, j)], fd);
            }
        }
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Matrix::from_vec(2, 3, vec![10.0, 0.0, 0.0, 0.0, 10.0, 0.0]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-3);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let logits = Matrix::random_uniform(3, 4, -1.0, 1.0, &mut rng);
        let labels = [2usize, 0, 3];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let h = 1e-2f32;
        for i in 0..3 {
            for j in 0..4 {
                let mut lp = logits.clone();
                lp[(i, j)] += h;
                let mut lm = logits.clone();
                lm[(i, j)] -= h;
                let (fp, _) = softmax_cross_entropy(&lp, &labels);
                let (fm, _) = softmax_cross_entropy(&lm, &labels);
                let fd = (fp - fm) / (2.0 * h);
                assert!((grad[(i, j)] - fd).abs() < 1e-3, "({i},{j})");
            }
        }
    }

    #[test]
    fn bias_add_broadcasts() {
        let x = Matrix::zeros(2, 3);
        let out = bias_add(&x, &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn count_correct_counts() {
        let logits = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
        assert_eq!(count_correct(&logits, &[0, 1, 1]), 2);
    }
}
