//! The [`TensorLike`] abstraction and its two backends.
//!
//! Distributed layers and parallel matmul algorithms in the other crates are
//! written **once**, generically over `T: TensorLike`. Instantiated with
//! [`DenseTensor`] they do real `f32` arithmetic (used for correctness tests
//! and the Figure-7 training runs); instantiated with [`ShadowTensor`] they
//! execute the identical control flow — same collectives, same message
//! shapes, same op sequence — while only tracking shapes, flops and bytes.
//! This is what lets the Table 1 / Table 2 paper-scale sweeps (hidden size
//! up to 8192, 64 ranks) run in milliseconds on one CPU core with *exact*
//! communication-volume accounting.
//!
//! Both backends charge the [`Meter`] with identical numbers for identical
//! ops, so a dense run and a shadow run of the same configuration report the
//! same simulated time.

use crate::init::global_xavier;
use crate::matmul;
use crate::matrix::Matrix;
use crate::meter::Meter;
use crate::nn;
use crate::ELEM_BYTES;

/// Approximate flops per element for GELU. The constant only needs to be
/// consistent across backends; it mirrors the handful of transcendental ops
/// a fused GELU kernel performs.
pub const GELU_FLOPS_PER_ELEM: f64 = 12.0;
/// Approximate flops per element for a fused row softmax (max, exp, sum, div).
pub const SOFTMAX_FLOPS_PER_ELEM: f64 = 6.0;
/// Flops per element for `1/sqrt(x + eps)`.
pub const RSQRT_FLOPS_PER_ELEM: f64 = 3.0;

/// Per-step scalars of [`TensorLike::adam_direction`].
#[derive(Clone, Copy, Debug)]
pub struct AdamCoeffs {
    pub beta1: f32,
    pub beta2: f32,
    /// Bias corrections `1/(1 − βᵗ)` for the first and second moment.
    pub bias1: f32,
    pub bias2: f32,
    /// Added to `v̂` inside the root (`ε²`, see `train::optim`).
    pub eps_sq: f32,
}

impl AdamCoeffs {
    /// Coefficients of optimizer step `t` (1-based).
    pub fn at_step(beta1: f32, beta2: f32, eps: f32, t: i32) -> Self {
        Self {
            beta1,
            beta2,
            bias1: 1.0 / (1.0 - beta1.powi(t)),
            bias2: 1.0 / (1.0 - beta2.powi(t)),
            eps_sq: eps * eps,
        }
    }
}

/// Charges `flops_per_elem.len()` elementwise kernels over one tensor, one
/// [`Meter::record`] each — the fused optimizer ops replay the op chain they
/// replace through this, on both backends, so the α–β clock cannot tell.
fn record_chain(m: &mut Meter, elems: usize, bytes: usize, flops_per_elem: &[f64]) {
    for f in flops_per_elem {
        m.record(f * elems as f64, bytes);
    }
}

/// `x.scale(s)` then `add`.
const ADD_SCALED_CHAIN: [f64; 2] = [1.0, 1.0];
/// Two moment updates (scale, scale, add each, plus `g∘g`), two bias
/// corrections, `rsqrt_add`, final hadamard: eleven kernels.
const ADAM_DIRECTION_CHAIN: [f64; 11] =
    [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, RSQRT_FLOPS_PER_ELEM, 1.0];

/// Common interface of the dense and shadow tensor backends.
///
/// Every op validates shapes (so the shadow backend still catches layout
/// bugs), charges the meter, and returns a new tensor. `self` is always the
/// "primary" operand; see each method for the exact semantics.
pub trait TensorLike: Clone + Send + Sync + Sized + 'static {
    /// All-zero tensor (dense) / blank shape (shadow).
    fn zeros(rows: usize, cols: usize) -> Self;

    /// The `[r0..r0+nr, c0..c0+nc]` block of the *global* Xavier-initialized
    /// `[global_rows, global_cols]` parameter identified by
    /// `(root_seed, param_id)`. Every rank calling this with the same global
    /// shape and ids reconstructs blocks of the *same* global matrix, which
    /// is what makes arrangements numerically comparable (Figure 7).
    fn init_xavier_block(
        global_rows: usize,
        global_cols: usize,
        r0: usize,
        c0: usize,
        nr: usize,
        nc: usize,
        root_seed: u64,
        param_id: u64,
    ) -> Self;

    fn rows(&self) -> usize;
    fn cols(&self) -> usize;

    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// Number of stored elements.
    fn elem_count(&self) -> usize {
        self.rows() * self.cols()
    }

    /// Wire size of this tensor in bytes (what a collective would move).
    fn byte_size(&self) -> usize {
        self.elem_count() * ELEM_BYTES
    }

    /// `C = self · rhs`.
    fn matmul(&self, rhs: &Self, m: &mut Meter) -> Self;
    /// `C = self · rhsᵀ`.
    fn matmul_nt(&self, rhs: &Self, m: &mut Meter) -> Self;
    /// `C = selfᵀ · rhs`.
    fn matmul_tn(&self, rhs: &Self, m: &mut Meter) -> Self;

    /// Transposed copy.
    fn transpose(&self, m: &mut Meter) -> Self;

    /// Elementwise `self + rhs`.
    fn add(&self, rhs: &Self, m: &mut Meter) -> Self;
    /// Elementwise in-place `self += rhs`.
    fn add_assign(&mut self, rhs: &Self, m: &mut Meter);
    /// Elementwise `self - rhs`.
    fn sub(&self, rhs: &Self, m: &mut Meter) -> Self;
    /// Elementwise (Hadamard) `self ∘ rhs`.
    fn hadamard(&self, rhs: &Self, m: &mut Meter) -> Self;
    /// `self * s`.
    fn scale(&self, s: f32, m: &mut Meter) -> Self;
    /// In-place `self *= s`. Charged exactly like [`TensorLike::scale`]: the
    /// modelled kernel is the same, only the host skips the copy.
    fn scale_assign(&mut self, s: f32, m: &mut Meter);
    /// `self + s·x` in one pass (`w − lr·g` is `s = −lr`). Elementwise the
    /// same roundings, and the same two charges, as `self.add(&x.scale(s))`.
    fn add_scaled(&self, x: &Self, s: f32, m: &mut Meter) -> Self;
    /// One Adam step for the gradient `self`: updates the moments in place
    /// (`m ← β₁m + (1−β₁)g`, `v ← β₂v + (1−β₂)g∘g`) and returns the direction
    /// `m̂ ∘ 1/sqrt(v̂ + ε²)`. Elementwise the same roundings, and the same
    /// eleven charges, as the `scale`/`add`/`hadamard`/`rsqrt_add` chain it
    /// replaces (kept as the spec in this module's tests).
    fn adam_direction(&self, mom: &mut Self, vel: &mut Self, c: AdamCoeffs, m: &mut Meter) -> Self;

    /// Row sums as a `[rows, 1]` column vector.
    fn row_sums(&self, m: &mut Meter) -> Self;
    /// Row sums of squares as a `[rows, 1]` column vector.
    fn row_sums_of_squares(&self, m: &mut Meter) -> Self;
    /// Column sums as a `[1, cols]` row vector.
    fn col_sums(&self, m: &mut Meter) -> Self;

    /// Broadcast-add a `[1, cols]` row vector to every row (bias add).
    fn add_rowvec(&self, v: &Self, m: &mut Meter) -> Self;
    /// Broadcast-add a `[rows, 1]` column vector to every column.
    fn add_colvec(&self, v: &Self, m: &mut Meter) -> Self;
    /// Broadcast-subtract a `[rows, 1]` column vector from every column.
    fn sub_colvec(&self, v: &Self, m: &mut Meter) -> Self;
    /// Broadcast-multiply by a `[rows, 1]` column vector.
    fn mul_colvec(&self, v: &Self, m: &mut Meter) -> Self;

    /// Elementwise `1 / sqrt(self + eps)`.
    fn rsqrt_add(&self, eps: f32, m: &mut Meter) -> Self;

    /// Elementwise GELU.
    fn gelu(&self, m: &mut Meter) -> Self;
    /// GELU backward: `self` is the forward *input* `X`, returns `dY ∘ gelu'(X)`.
    fn gelu_backward(&self, dy: &Self, m: &mut Meter) -> Self;

    /// Row-wise softmax.
    fn softmax_rows(&self, m: &mut Meter) -> Self;
    /// In-place row-wise softmax: bitwise-identical values to
    /// [`TensorLike::softmax_rows`] with no output allocation (the decode
    /// hot path of KV-cached attention runs this once per step).
    fn softmax_rows_inplace(&mut self, m: &mut Meter);
    /// Masked in-place row softmax: row `i` is softmaxed over its first
    /// `limits[i]` entries and zeroed beyond them — the causal-attention
    /// kernel (see `nn::softmax_rows_masked_inplace`). Charges flops for
    /// the active (unmasked) elements only.
    fn softmax_rows_masked_inplace(&mut self, limits: &[usize], m: &mut Meter);
    /// Softmax backward: `self` is the forward *output* `Y`.
    fn softmax_rows_backward(&self, dy: &Self, m: &mut Meter) -> Self;

    /// Rows `r0..r1` as a new tensor.
    fn slice_rows(&self, r0: usize, r1: usize, m: &mut Meter) -> Self;
    /// Columns `c0..c1` as a new tensor.
    fn slice_cols(&self, c0: usize, c1: usize, m: &mut Meter) -> Self;
    /// Vertical concatenation.
    fn concat_rows(parts: &[Self], m: &mut Meter) -> Self;
    /// Horizontal concatenation.
    fn concat_cols(parts: &[Self], m: &mut Meter) -> Self;

    /// Elementwise accumulation used *inside* collectives (reduce /
    /// all-reduce combine step). Not metered: communication costs are
    /// accounted by the cluster cost model, not the compute meter.
    fn reduce_add_inplace(&mut self, other: &Self);

    /// Dense backing matrix, if this backend has real data.
    fn try_matrix(&self) -> Option<&Matrix>;

    /// Frobenius norm of the stored values, if this backend has real data
    /// (the shadow backend returns `None`; LAMB/LARS fall back to a trust
    /// ratio of 1 there). Not metered: norm computation inside optimizers
    /// is negligible against the fwd/bwd work the tables time.
    fn frobenius(&self) -> Option<f32>;
}

// ---------------------------------------------------------------------------
// DenseTensor
// ---------------------------------------------------------------------------

/// Real `f32` tensor; all math is actually performed.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseTensor(pub Matrix);

impl DenseTensor {
    pub fn from_matrix(m: Matrix) -> Self {
        Self(m)
    }

    pub fn matrix(&self) -> &Matrix {
        &self.0
    }

    pub fn into_matrix(self) -> Matrix {
        self.0
    }
}

fn ew_shape_check<T: TensorLike>(a: &T, b: &T, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch {:?} vs {:?}", a.shape(), b.shape());
}

impl TensorLike for DenseTensor {
    fn zeros(rows: usize, cols: usize) -> Self {
        Self(Matrix::zeros(rows, cols))
    }

    fn init_xavier_block(
        global_rows: usize,
        global_cols: usize,
        r0: usize,
        c0: usize,
        nr: usize,
        nc: usize,
        root_seed: u64,
        param_id: u64,
    ) -> Self {
        let global = global_xavier(global_rows, global_cols, root_seed, param_id);
        Self(global.block(r0, c0, nr, nc))
    }

    fn rows(&self) -> usize {
        self.0.rows()
    }

    fn cols(&self) -> usize {
        self.0.cols()
    }

    fn matmul(&self, rhs: &Self, m: &mut Meter) -> Self {
        let out = matmul::matmul(&self.0, &rhs.0);
        m.record_gemm(
            matmul::matmul_flops(self.rows(), self.cols(), rhs.cols()),
            out.len() * ELEM_BYTES,
            matmul::planned_path(self.rows(), self.cols(), rhs.cols()),
        );
        Self(out)
    }

    fn matmul_nt(&self, rhs: &Self, m: &mut Meter) -> Self {
        let out = matmul::matmul_nt(&self.0, &rhs.0);
        m.record_gemm(
            matmul::matmul_flops(self.rows(), self.cols(), rhs.rows()),
            out.len() * ELEM_BYTES,
            matmul::planned_path(self.rows(), self.cols(), rhs.rows()),
        );
        Self(out)
    }

    fn matmul_tn(&self, rhs: &Self, m: &mut Meter) -> Self {
        let out = matmul::matmul_tn(&self.0, &rhs.0);
        m.record_gemm(
            matmul::matmul_flops(self.cols(), self.rows(), rhs.cols()),
            out.len() * ELEM_BYTES,
            matmul::planned_path(self.cols(), self.rows(), rhs.cols()),
        );
        Self(out)
    }

    fn transpose(&self, m: &mut Meter) -> Self {
        let out = self.0.transpose();
        m.record(0.0, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn add(&self, rhs: &Self, m: &mut Meter) -> Self {
        ew_shape_check(self, rhs, "add");
        let out = self.0.zip_map(&rhs.0, |a, b| a + b);
        m.record(self.elem_count() as f64, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn add_assign(&mut self, rhs: &Self, m: &mut Meter) {
        ew_shape_check(self, rhs, "add_assign");
        self.0.add_assign(&rhs.0);
        m.record(self.elem_count() as f64, 0);
    }

    fn sub(&self, rhs: &Self, m: &mut Meter) -> Self {
        ew_shape_check(self, rhs, "sub");
        let out = self.0.zip_map(&rhs.0, |a, b| a - b);
        m.record(self.elem_count() as f64, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn hadamard(&self, rhs: &Self, m: &mut Meter) -> Self {
        ew_shape_check(self, rhs, "hadamard");
        let out = self.0.zip_map(&rhs.0, |a, b| a * b);
        m.record(self.elem_count() as f64, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn scale(&self, s: f32, m: &mut Meter) -> Self {
        let out = self.0.map(|a| a * s);
        m.record(self.elem_count() as f64, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn scale_assign(&mut self, s: f32, m: &mut Meter) {
        self.0.scale_assign(s);
        m.record(self.elem_count() as f64, self.byte_size());
    }

    fn add_scaled(&self, x: &Self, s: f32, m: &mut Meter) -> Self {
        ew_shape_check(self, x, "add_scaled");
        let out = self.0.zip_map(&x.0, |a, b| a + b * s);
        record_chain(m, self.elem_count(), self.byte_size(), &ADD_SCALED_CHAIN);
        Self(out)
    }

    fn adam_direction(&self, mom: &mut Self, vel: &mut Self, c: AdamCoeffs, m: &mut Meter) -> Self {
        ew_shape_check(self, mom, "adam_direction");
        ew_shape_check(self, vel, "adam_direction");
        let (g1, g2) = (1.0 - c.beta1, 1.0 - c.beta2);
        let moments = mom.0.data_mut().iter_mut().zip(vel.0.data_mut());
        let data = (self.0.data().iter().zip(moments))
            .map(|(&g, (mo, ve))| {
                *mo = *mo * c.beta1 + g * g1;
                *ve = *ve * c.beta2 + (g * g) * g2;
                (*mo * c.bias1) * (1.0 / (*ve * c.bias2 + c.eps_sq).sqrt())
            })
            .collect();
        record_chain(m, self.elem_count(), self.byte_size(), &ADAM_DIRECTION_CHAIN);
        Self(Matrix::from_vec(self.rows(), self.cols(), data))
    }

    fn row_sums(&self, m: &mut Meter) -> Self {
        let mut out = Matrix::zeros(self.rows(), 1);
        for i in 0..self.rows() {
            out[(i, 0)] = self.0.row(i).iter().sum();
        }
        m.record(self.elem_count() as f64, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn row_sums_of_squares(&self, m: &mut Meter) -> Self {
        let mut out = Matrix::zeros(self.rows(), 1);
        for i in 0..self.rows() {
            out[(i, 0)] = self.0.row(i).iter().map(|v| v * v).sum();
        }
        m.record(2.0 * self.elem_count() as f64, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn col_sums(&self, m: &mut Meter) -> Self {
        let mut out = Matrix::zeros(1, self.cols());
        for i in 0..self.rows() {
            for (o, &v) in out.row_mut(0).iter_mut().zip(self.0.row(i).iter()) {
                *o += v;
            }
        }
        m.record(self.elem_count() as f64, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn add_rowvec(&self, v: &Self, m: &mut Meter) -> Self {
        assert_eq!(v.shape(), (1, self.cols()), "add_rowvec: bad vector shape");
        let out = nn::bias_add(&self.0, v.0.row(0));
        m.record(self.elem_count() as f64, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn add_colvec(&self, v: &Self, m: &mut Meter) -> Self {
        assert_eq!(v.shape(), (self.rows(), 1), "add_colvec: bad vector shape");
        let out = self.0.zip_map_colvec(v.0.data(), |x, s| x + s);
        m.record(self.elem_count() as f64, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn sub_colvec(&self, v: &Self, m: &mut Meter) -> Self {
        assert_eq!(v.shape(), (self.rows(), 1), "sub_colvec: bad vector shape");
        let out = self.0.zip_map_colvec(v.0.data(), |x, s| x - s);
        m.record(self.elem_count() as f64, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn mul_colvec(&self, v: &Self, m: &mut Meter) -> Self {
        assert_eq!(v.shape(), (self.rows(), 1), "mul_colvec: bad vector shape");
        let out = self.0.zip_map_colvec(v.0.data(), |x, s| x * s);
        m.record(self.elem_count() as f64, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn rsqrt_add(&self, eps: f32, m: &mut Meter) -> Self {
        let out = self.0.map(|x| 1.0 / (x + eps).sqrt());
        m.record(RSQRT_FLOPS_PER_ELEM * self.elem_count() as f64, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn gelu(&self, m: &mut Meter) -> Self {
        let out = nn::gelu_matrix(&self.0);
        m.record(GELU_FLOPS_PER_ELEM * self.elem_count() as f64, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn gelu_backward(&self, dy: &Self, m: &mut Meter) -> Self {
        ew_shape_check(self, dy, "gelu_backward");
        let out = nn::gelu_backward_matrix(&self.0, &dy.0);
        m.record(GELU_FLOPS_PER_ELEM * self.elem_count() as f64, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn softmax_rows(&self, m: &mut Meter) -> Self {
        let out = nn::softmax_rows(&self.0);
        m.record(SOFTMAX_FLOPS_PER_ELEM * self.elem_count() as f64, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn softmax_rows_inplace(&mut self, m: &mut Meter) {
        nn::softmax_rows_inplace(&mut self.0);
        // Same math as the allocating path, but no output allocation.
        m.record(SOFTMAX_FLOPS_PER_ELEM * self.elem_count() as f64, 0);
    }

    fn softmax_rows_masked_inplace(&mut self, limits: &[usize], m: &mut Meter) {
        nn::softmax_rows_masked_inplace(&mut self.0, limits);
        let active: usize = limits.iter().sum();
        m.record(SOFTMAX_FLOPS_PER_ELEM * active as f64, 0);
    }

    fn softmax_rows_backward(&self, dy: &Self, m: &mut Meter) -> Self {
        ew_shape_check(self, dy, "softmax_rows_backward");
        let out = nn::softmax_rows_backward(&self.0, &dy.0);
        m.record(SOFTMAX_FLOPS_PER_ELEM * self.elem_count() as f64, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn slice_rows(&self, r0: usize, r1: usize, m: &mut Meter) -> Self {
        let out = self.0.slice_rows(r0, r1);
        m.record(0.0, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn slice_cols(&self, c0: usize, c1: usize, m: &mut Meter) -> Self {
        let out = self.0.slice_cols(c0, c1);
        m.record(0.0, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn concat_rows(parts: &[Self], m: &mut Meter) -> Self {
        let out = Matrix::concat_rows(parts.iter().map(|p| &p.0));
        m.record(0.0, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn concat_cols(parts: &[Self], m: &mut Meter) -> Self {
        let out = Matrix::concat_cols(parts.iter().map(|p| &p.0));
        m.record(0.0, out.len() * ELEM_BYTES);
        Self(out)
    }

    fn reduce_add_inplace(&mut self, other: &Self) {
        assert_eq!(self.shape(), other.shape(), "reduce_add_inplace: shape mismatch");
        self.0.add_assign(&other.0);
    }

    fn try_matrix(&self) -> Option<&Matrix> {
        Some(&self.0)
    }

    fn frobenius(&self) -> Option<f32> {
        Some(self.0.frobenius_norm())
    }
}

// ---------------------------------------------------------------------------
// ShadowTensor
// ---------------------------------------------------------------------------

/// Shape-only tensor: carries `(rows, cols)` and nothing else. All ops
/// validate shapes exactly like the dense backend and charge the meter with
/// identical flop/byte numbers, so paper-scale configurations can run
/// through the real distributed code in microseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowTensor {
    rows: usize,
    cols: usize,
}

impl ShadowTensor {
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols }
    }
}

impl TensorLike for ShadowTensor {
    fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols }
    }

    fn init_xavier_block(
        _global_rows: usize,
        _global_cols: usize,
        _r0: usize,
        _c0: usize,
        nr: usize,
        nc: usize,
        _root_seed: u64,
        _param_id: u64,
    ) -> Self {
        Self { rows: nr, cols: nc }
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn matmul(&self, rhs: &Self, m: &mut Meter) -> Self {
        assert_eq!(self.cols, rhs.rows, "matmul: inner dims {} vs {}", self.cols, rhs.rows);
        let out = Self::new(self.rows, rhs.cols);
        m.record_gemm(
            matmul::matmul_flops(self.rows, self.cols, rhs.cols),
            out.byte_size(),
            matmul::planned_path(self.rows, self.cols, rhs.cols),
        );
        out
    }

    fn matmul_nt(&self, rhs: &Self, m: &mut Meter) -> Self {
        assert_eq!(self.cols, rhs.cols, "matmul_nt: inner dims {} vs {}", self.cols, rhs.cols);
        let out = Self::new(self.rows, rhs.rows);
        m.record_gemm(
            matmul::matmul_flops(self.rows, self.cols, rhs.rows),
            out.byte_size(),
            matmul::planned_path(self.rows, self.cols, rhs.rows),
        );
        out
    }

    fn matmul_tn(&self, rhs: &Self, m: &mut Meter) -> Self {
        assert_eq!(self.rows, rhs.rows, "matmul_tn: inner dims {} vs {}", self.rows, rhs.rows);
        let out = Self::new(self.cols, rhs.cols);
        m.record_gemm(
            matmul::matmul_flops(self.cols, self.rows, rhs.cols),
            out.byte_size(),
            matmul::planned_path(self.cols, self.rows, rhs.cols),
        );
        out
    }

    fn transpose(&self, m: &mut Meter) -> Self {
        let out = Self::new(self.cols, self.rows);
        m.record(0.0, out.byte_size());
        out
    }

    fn add(&self, rhs: &Self, m: &mut Meter) -> Self {
        ew_shape_check(self, rhs, "add");
        m.record(self.elem_count() as f64, self.byte_size());
        *self
    }

    fn add_assign(&mut self, rhs: &Self, m: &mut Meter) {
        ew_shape_check(self, rhs, "add_assign");
        m.record(self.elem_count() as f64, 0);
    }

    fn sub(&self, rhs: &Self, m: &mut Meter) -> Self {
        ew_shape_check(self, rhs, "sub");
        m.record(self.elem_count() as f64, self.byte_size());
        *self
    }

    fn hadamard(&self, rhs: &Self, m: &mut Meter) -> Self {
        ew_shape_check(self, rhs, "hadamard");
        m.record(self.elem_count() as f64, self.byte_size());
        *self
    }

    fn scale(&self, _s: f32, m: &mut Meter) -> Self {
        m.record(self.elem_count() as f64, self.byte_size());
        *self
    }

    fn scale_assign(&mut self, _s: f32, m: &mut Meter) {
        m.record(self.elem_count() as f64, self.byte_size());
    }

    fn add_scaled(&self, x: &Self, _s: f32, m: &mut Meter) -> Self {
        ew_shape_check(self, x, "add_scaled");
        record_chain(m, self.elem_count(), self.byte_size(), &ADD_SCALED_CHAIN);
        *self
    }

    fn adam_direction(
        &self,
        mom: &mut Self,
        vel: &mut Self,
        _c: AdamCoeffs,
        m: &mut Meter,
    ) -> Self {
        ew_shape_check(self, mom, "adam_direction");
        ew_shape_check(self, vel, "adam_direction");
        record_chain(m, self.elem_count(), self.byte_size(), &ADAM_DIRECTION_CHAIN);
        *self
    }

    fn row_sums(&self, m: &mut Meter) -> Self {
        let out = Self::new(self.rows, 1);
        m.record(self.elem_count() as f64, out.byte_size());
        out
    }

    fn row_sums_of_squares(&self, m: &mut Meter) -> Self {
        let out = Self::new(self.rows, 1);
        m.record(2.0 * self.elem_count() as f64, out.byte_size());
        out
    }

    fn col_sums(&self, m: &mut Meter) -> Self {
        let out = Self::new(1, self.cols);
        m.record(self.elem_count() as f64, out.byte_size());
        out
    }

    fn add_rowvec(&self, v: &Self, m: &mut Meter) -> Self {
        assert_eq!(v.shape(), (1, self.cols), "add_rowvec: bad vector shape");
        m.record(self.elem_count() as f64, self.byte_size());
        *self
    }

    fn add_colvec(&self, v: &Self, m: &mut Meter) -> Self {
        assert_eq!(v.shape(), (self.rows, 1), "add_colvec: bad vector shape");
        m.record(self.elem_count() as f64, self.byte_size());
        *self
    }

    fn sub_colvec(&self, v: &Self, m: &mut Meter) -> Self {
        assert_eq!(v.shape(), (self.rows, 1), "sub_colvec: bad vector shape");
        m.record(self.elem_count() as f64, self.byte_size());
        *self
    }

    fn mul_colvec(&self, v: &Self, m: &mut Meter) -> Self {
        assert_eq!(v.shape(), (self.rows, 1), "mul_colvec: bad vector shape");
        m.record(self.elem_count() as f64, self.byte_size());
        *self
    }

    fn rsqrt_add(&self, _eps: f32, m: &mut Meter) -> Self {
        m.record(RSQRT_FLOPS_PER_ELEM * self.elem_count() as f64, self.byte_size());
        *self
    }

    fn gelu(&self, m: &mut Meter) -> Self {
        m.record(GELU_FLOPS_PER_ELEM * self.elem_count() as f64, self.byte_size());
        *self
    }

    fn gelu_backward(&self, dy: &Self, m: &mut Meter) -> Self {
        ew_shape_check(self, dy, "gelu_backward");
        m.record(GELU_FLOPS_PER_ELEM * self.elem_count() as f64, self.byte_size());
        *self
    }

    fn softmax_rows(&self, m: &mut Meter) -> Self {
        m.record(SOFTMAX_FLOPS_PER_ELEM * self.elem_count() as f64, self.byte_size());
        *self
    }

    fn softmax_rows_inplace(&mut self, m: &mut Meter) {
        m.record(SOFTMAX_FLOPS_PER_ELEM * self.elem_count() as f64, 0);
    }

    fn softmax_rows_masked_inplace(&mut self, limits: &[usize], m: &mut Meter) {
        assert_eq!(self.rows, limits.len(), "softmax mask: one limit per row");
        assert!(
            limits.iter().all(|&l| l <= self.cols),
            "softmax mask: limit exceeds {} columns",
            self.cols
        );
        let active: usize = limits.iter().sum();
        m.record(SOFTMAX_FLOPS_PER_ELEM * active as f64, 0);
    }

    fn softmax_rows_backward(&self, dy: &Self, m: &mut Meter) -> Self {
        ew_shape_check(self, dy, "softmax_rows_backward");
        m.record(SOFTMAX_FLOPS_PER_ELEM * self.elem_count() as f64, self.byte_size());
        *self
    }

    fn slice_rows(&self, r0: usize, r1: usize, m: &mut Meter) -> Self {
        assert!(r0 <= r1 && r1 <= self.rows, "slice_rows out of bounds");
        let out = Self::new(r1 - r0, self.cols);
        m.record(0.0, out.byte_size());
        out
    }

    fn slice_cols(&self, c0: usize, c1: usize, m: &mut Meter) -> Self {
        assert!(c0 <= c1 && c1 <= self.cols, "slice_cols out of bounds");
        let out = Self::new(self.rows, c1 - c0);
        m.record(0.0, out.byte_size());
        out
    }

    fn concat_rows(parts: &[Self], m: &mut Meter) -> Self {
        assert!(!parts.is_empty());
        let cols = parts[0].cols;
        assert!(parts.iter().all(|p| p.cols == cols), "concat_rows: column mismatch");
        let out = Self::new(parts.iter().map(|p| p.rows).sum(), cols);
        m.record(0.0, out.byte_size());
        out
    }

    fn concat_cols(parts: &[Self], m: &mut Meter) -> Self {
        assert!(!parts.is_empty());
        let rows = parts[0].rows;
        assert!(parts.iter().all(|p| p.rows == rows), "concat_cols: row mismatch");
        let out = Self::new(rows, parts.iter().map(|p| p.cols).sum());
        m.record(0.0, out.byte_size());
        out
    }

    fn reduce_add_inplace(&mut self, other: &Self) {
        assert_eq!(self.shape(), other.shape(), "reduce_add_inplace: shape mismatch");
    }

    fn try_matrix(&self) -> Option<&Matrix> {
        None
    }

    fn frobenius(&self) -> Option<f32> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    fn dense(rows: usize, cols: usize, seed: u64) -> DenseTensor {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        DenseTensor(Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng))
    }

    /// Runs the same op sequence on both backends and checks the meters agree
    /// — the invariant that makes shadow timing trustworthy.
    #[test]
    fn dense_and_shadow_meters_agree() {
        let a = dense(6, 4, 1);
        let b = dense(4, 8, 2);
        let sa = ShadowTensor::new(6, 4);
        let sb = ShadowTensor::new(4, 8);

        let mut md = Meter::new();
        let mut ms = Meter::new();

        let cd = a.matmul(&b, &mut md);
        let cs = sa.matmul(&sb, &mut ms);
        assert_eq!(cd.shape(), cs.shape());

        let gd = cd.gelu(&mut md);
        let gs = cs.gelu(&mut ms);
        let _ = gd.softmax_rows(&mut md);
        let _ = gs.softmax_rows(&mut ms);
        let mut ipd = cd.clone();
        let mut ips = cs;
        ipd.softmax_rows_inplace(&mut md);
        ips.softmax_rows_inplace(&mut ms);
        let limits = [1usize, 2, 3, 4, 5, 8];
        let mut mkd = cd.clone();
        let mut mks = cs;
        mkd.softmax_rows_masked_inplace(&limits, &mut md);
        mks.softmax_rows_masked_inplace(&limits, &mut ms);
        let _ = cd.row_sums(&mut md);
        let _ = cs.row_sums(&mut ms);
        let _ = cd.slice_cols(1, 5, &mut md);
        let _ = cs.slice_cols(1, 5, &mut ms);
        let _ = cd.add_scaled(&gd, -0.5, &mut md);
        let _ = cs.add_scaled(&gs, -0.5, &mut ms);
        ipd.scale_assign(0.5, &mut md);
        ips.scale_assign(0.5, &mut ms);
        let (mut momd, mut veld) = (DenseTensor::zeros(6, 8), DenseTensor::zeros(6, 8));
        let (mut moms, mut vels) = (ShadowTensor::new(6, 8), ShadowTensor::new(6, 8));
        let _ = cd.adam_direction(&mut momd, &mut veld, adam_coeffs(1), &mut md);
        let _ = cs.adam_direction(&mut moms, &mut vels, adam_coeffs(1), &mut ms);

        assert_eq!(md, ms);
    }

    fn adam_coeffs(t: i32) -> AdamCoeffs {
        AdamCoeffs::at_step(0.9, 0.999, 1e-8, t)
    }

    /// The eleven-op chain `adam_direction` replaced, kept as its spec.
    fn adam_direction_chain<T: TensorLike>(
        g: &T,
        mom: &mut T,
        vel: &mut T,
        c: AdamCoeffs,
        m: &mut Meter,
    ) -> T {
        *mom = mom.scale(c.beta1, m).add(&g.scale(1.0 - c.beta1, m), m);
        let g2 = g.hadamard(g, m);
        *vel = vel.scale(c.beta2, m).add(&g2.scale(1.0 - c.beta2, m), m);
        let m_hat = mom.scale(c.bias1, m);
        let v_hat = vel.scale(c.bias2, m);
        let denom = v_hat.rsqrt_add(c.eps_sq, m);
        m_hat.hadamard(&denom, m)
    }

    fn bits(t: &DenseTensor) -> Vec<u32> {
        t.0.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fused_optimizer_ops_equal_their_op_chains_bitwise() {
        let (rows, cols) = (7, 13);
        let w = dense(rows, cols, 20);
        let (mut fused, mut chain, mut shadow) = (Meter::new(), Meter::new(), Meter::new());
        let sw = ShadowTensor::new(rows, cols);

        // `a + s·x`, and `w − s·x` as the optimizers used to spell it.
        let x = dense(rows, cols, 21);
        let got = w.add_scaled(&x, 0.3, &mut fused);
        assert_eq!(bits(&got), bits(&w.add(&x.scale(0.3, &mut chain), &mut chain)));
        let got = w.add_scaled(&x, -3e-3, &mut fused);
        assert_eq!(bits(&got), bits(&w.sub(&x.scale(3e-3, &mut chain), &mut chain)));
        let _ = sw.add_scaled(&sw, 0.3, &mut shadow);
        let _ = sw.add_scaled(&sw, -3e-3, &mut shadow);

        let mut scaled = w.clone();
        scaled.scale_assign(0.7, &mut fused);
        assert_eq!(bits(&scaled), bits(&w.scale(0.7, &mut chain)));
        let _ = sw.scale(0.7, &mut shadow);

        // Several Adam steps, so non-zero moments and a moving bias
        // correction are covered.
        let mut moments = (DenseTensor::zeros(rows, cols), DenseTensor::zeros(rows, cols));
        let mut spec = moments.clone();
        let (mut smom, mut svel) = (sw, sw);
        for t in 1..=4 {
            let g = dense(rows, cols, 30 + t as u64);
            let c = adam_coeffs(t);
            let got = g.adam_direction(&mut moments.0, &mut moments.1, c, &mut fused);
            let want = adam_direction_chain(&g, &mut spec.0, &mut spec.1, c, &mut chain);
            assert_eq!(bits(&got), bits(&want), "direction at step {t}");
            assert_eq!(bits(&moments.0), bits(&spec.0), "first moment at step {t}");
            assert_eq!(bits(&moments.1), bits(&spec.1), "second moment at step {t}");
            let _ = sw.adam_direction(&mut smom, &mut svel, c, &mut shadow);
        }
        assert_eq!(fused, chain);
        assert_eq!(fused, shadow);
    }

    #[test]
    fn shadow_shapes_follow_dense_shapes() {
        let mut m = Meter::new();
        let a = ShadowTensor::new(3, 5);
        let b = ShadowTensor::new(7, 5);
        assert_eq!(a.matmul_nt(&b, &mut m).shape(), (3, 7));
        let c = ShadowTensor::new(3, 9);
        assert_eq!(a.matmul_tn(&c, &mut m).shape(), (5, 9));
        assert_eq!(a.transpose(&mut m).shape(), (5, 3));
        assert_eq!(a.col_sums(&mut m).shape(), (1, 5));
        assert_eq!(
            ShadowTensor::concat_rows(&[a, ShadowTensor::new(2, 5)], &mut m).shape(),
            (5, 5)
        );
        assert_eq!(
            ShadowTensor::concat_cols(&[a, ShadowTensor::new(3, 2)], &mut m).shape(),
            (3, 7)
        );
    }

    #[test]
    #[should_panic(expected = "matmul: inner dims")]
    fn shadow_catches_shape_bugs() {
        let mut m = Meter::new();
        let a = ShadowTensor::new(3, 5);
        let b = ShadowTensor::new(4, 2);
        let _ = a.matmul(&b, &mut m);
    }

    #[test]
    fn xavier_block_assembles_to_global() {
        // Four quadrant blocks of an 8x8 parameter must tile the global one.
        let full = DenseTensor::init_xavier_block(8, 8, 0, 0, 8, 8, 42, 7);
        let mut m = Meter::new();
        let mut quads = Vec::new();
        for bi in 0..2 {
            let mut row = Vec::new();
            for bj in 0..2 {
                row.push(DenseTensor::init_xavier_block(8, 8, bi * 4, bj * 4, 4, 4, 42, 7));
            }
            row_major_push(&mut quads, row, &mut m);
        }
        let assembled = DenseTensor::concat_rows(&quads, &mut m);
        assert_eq!(assembled.matrix(), full.matrix());
    }

    fn row_major_push(quads: &mut Vec<DenseTensor>, row: Vec<DenseTensor>, m: &mut Meter) {
        quads.push(DenseTensor::concat_cols(&row, m));
    }

    #[test]
    fn dense_colvec_broadcasts() {
        let mut m = Meter::new();
        let x = DenseTensor(Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32));
        let v = DenseTensor(Matrix::from_vec(2, 1, vec![10.0, 20.0]));
        let y = x.add_colvec(&v, &mut m);
        assert_eq!(y.matrix().row(0), &[10.0, 11.0, 12.0]);
        assert_eq!(y.matrix().row(1), &[23.0, 24.0, 25.0]);
        let z = x.mul_colvec(&v, &mut m);
        assert_eq!(z.matrix().row(1), &[60.0, 80.0, 100.0]);
        let w = x.sub_colvec(&v, &mut m);
        assert_eq!(w.matrix().row(0), &[-10.0, -9.0, -8.0]);
    }

    #[test]
    fn dense_rowvec_bias() {
        let mut m = Meter::new();
        let x = DenseTensor(Matrix::zeros(2, 3));
        let v = DenseTensor(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let y = x.add_rowvec(&v, &mut m);
        assert_eq!(y.matrix().row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn dense_row_and_col_sums() {
        let mut m = Meter::new();
        let x = DenseTensor(Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32));
        let rs = x.row_sums(&mut m);
        assert_eq!(rs.matrix().data(), &[3.0, 12.0]);
        let cs = x.col_sums(&mut m);
        assert_eq!(cs.matrix().data(), &[3.0, 5.0, 7.0]);
        let rss = x.row_sums_of_squares(&mut m);
        assert_eq!(rss.matrix().data(), &[5.0, 50.0]);
    }

    #[test]
    fn byte_size_uses_elem_bytes() {
        let t = ShadowTensor::new(3, 5);
        assert_eq!(t.byte_size(), 15 * ELEM_BYTES);
    }

    #[test]
    fn frobenius_by_backend() {
        let d = DenseTensor(Matrix::from_vec(1, 4, vec![1.0, 2.0, 2.0, 0.0]));
        assert!((d.frobenius().unwrap() - 3.0).abs() < 1e-6);
        assert_eq!(ShadowTensor::new(1, 4).frobenius(), None);
    }

    #[test]
    fn reduce_add_matches_add() {
        let a = dense(3, 3, 10);
        let b = dense(3, 3, 11);
        let mut m = Meter::new();
        let expected = a.add(&b, &mut m);
        let mut acc = a.clone();
        acc.reduce_add_inplace(&b);
        assert_eq!(acc.matrix(), expected.matrix());
    }
}
