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
//! The ops are written once too. Every op is a provided method of the trait
//! holding its shape rule (the `assert!`), its [`Meter`] charge and its
//! dense kernel — a closure handed to [`TensorLike::build`] — in one body. A
//! backend is storage and nothing else: `DenseTensor::build` runs the
//! closure, `ShadowTensor::build` drops it unrun. A dense run and a shadow
//! run of the same configuration therefore report the same simulated time by
//! construction: there is no second copy of a charge to keep in step.
//!
//! A fused launch is its op chain: [`fused`] runs a chain of these ops and
//! charges it as one launch, so a fused op has no kernel or price of its
//! own either.

use std::sync::Arc;

use crate::init::global_xavier;
use crate::matmul::{self, Orient};
use crate::matrix::Matrix;
use crate::meter::Meter;
use crate::nn;
use crate::ELEM_BYTES;

/// Approximate flops per element for GELU. It mirrors the handful of
/// transcendental ops a fused GELU kernel performs.
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

/// What a [`fused`] launch writes: the bytes its output occupies.
pub trait FusedOutput {
    fn out_bytes(&self) -> usize;
}

impl<T: TensorLike> FusedOutput for T {
    fn out_bytes(&self) -> usize {
        self.byte_size()
    }
}

impl<T: TensorLike> FusedOutput for Vec<T> {
    fn out_bytes(&self) -> usize {
        self.iter().map(T::byte_size).sum()
    }
}

/// An output the chain may not write: none, no bytes.
impl<A: FusedOutput> FusedOutput for Option<A> {
    fn out_bytes(&self) -> usize {
        self.as_ref().map_or(0, A::out_bytes)
    }
}

/// An in-place chain: it writes no new tensor, no bytes.
impl FusedOutput for () {
    fn out_bytes(&self) -> usize {
        0
    }
}

impl<A: FusedOutput, B: FusedOutput> FusedOutput for (A, B) {
    fn out_bytes(&self) -> usize {
        self.0.out_bytes() + self.1.out_bytes()
    }
}

/// One fused launch: runs the op `chain` on a meter of its own and charges
/// `m` ([`Meter::record_fused`]) one launch with the chain's flops and GEMM
/// dispatch tallies and only the output's bytes. The values are the
/// chain's, bit for bit; only the price list folds.
pub fn fused<R: FusedOutput>(m: &mut Meter, chain: impl FnOnce(&mut Meter) -> R) -> R {
    let mut ops = Meter::new();
    let out = chain(&mut ops);
    m.record_fused(&ops, out.out_bytes());
    out
}

/// The eleven-op chain [`TensorLike::adam_direction`] runs in one pass:
/// its spec, and (on shadow shapes) its charge.
pub fn adam_direction_chain<T: TensorLike>(
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
    m_hat.hadamard(&v_hat.rsqrt_add(c.eps_sq, m), m)
}

const NO_VALUES: &str = "kernels run only on a backend that stores values";

/// The values a kernel reads: only a backend that stores values runs the
/// kernels, so inside one this cannot fail.
fn vals<T: TensorLike>(t: &T) -> &Matrix {
    t.try_matrix().expect(NO_VALUES)
}

/// Mutable [`vals`], for the kernels that also update an operand.
fn vals_mut<T: TensorLike>(t: &mut T) -> &mut Matrix {
    t.try_matrix_mut().expect(NO_VALUES)
}

fn ew_shape_check<T: TensorLike>(a: &T, b: &T, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch {:?} vs {:?}", a.shape(), b.shape());
}

/// One metered op: charges `flops` and a `[rows, cols]` output, then builds it.
fn op<T: TensorLike>(
    (rows, cols): (usize, usize),
    flops: f64,
    m: &mut Meter,
    kernel: impl FnOnce() -> Matrix,
) -> T {
    m.record(flops, rows * cols * ELEM_BYTES);
    T::build(rows, cols, kernel)
}

/// An [`op`] whose output has the shape of `x`, at `flops_per_elem`.
fn map_op<T: TensorLike>(
    x: &T,
    flops_per_elem: f64,
    m: &mut Meter,
    kernel: impl FnOnce(&Matrix) -> Matrix,
) -> T {
    op(x.shape(), flops_per_elem * x.elem_count() as f64, m, || kernel(vals(x)))
}

/// A [`map_op`] over two tensors of one shape.
fn zip_op<T: TensorLike>(
    a: &T,
    b: &T,
    what: &str,
    flops_per_elem: f64,
    m: &mut Meter,
    kernel: impl FnOnce(&Matrix, &Matrix) -> Matrix,
) -> T {
    ew_shape_check(a, b, what);
    map_op(a, flops_per_elem, m, |a| kernel(a, vals(b)))
}

/// A [`map_op`] broadcasting the `[rows, 1]` column vector `v` over `x`.
fn colvec_op<T: TensorLike>(
    x: &T,
    v: &T,
    what: &str,
    m: &mut Meter,
    f: impl Fn(f32, f32) -> f32,
) -> T {
    assert_eq!(v.shape(), (x.rows(), 1), "{what}: bad vector shape");
    map_op(x, 1.0, m, |x| x.zip_map_colvec(vals(v).data(), f))
}

/// One GEMM launch of `a` and `b` in orientation `orient`, shaped by
/// [`Orient::dims`].
fn gemm_op<T: TensorLike>(orient: Orient, a: &T, b: &T, m: &mut Meter) -> T {
    let (rows, inner, cols) = orient.dims(a.shape(), b.shape());
    m.record_gemm(
        matmul::matmul_flops(rows, inner, cols),
        rows * cols * ELEM_BYTES,
        matmul::planned_path(rows, inner, cols),
    );
    T::build(rows, cols, || matmul::gemm(orient, vals(a), vals(b)))
}

/// Common interface of the dense and shadow tensor backends.
///
/// A backend implements the five storage hooks at the top and nothing else.
/// Every op below them is written once, here: it validates shapes (so the
/// shadow backend still catches layout bugs, and with the same panic text),
/// charges the meter, and returns a new tensor through
/// [`TensorLike::build`]. `self` is always the "primary" operand; see each
/// method for the exact semantics.
pub trait TensorLike: Clone + Send + Sync + Sized + 'static {
    /// A `[rows, cols]` tensor holding `kernel()`. A backend that stores
    /// values runs the kernel; one that stores only the shape drops it unrun.
    fn build(rows: usize, cols: usize, kernel: impl FnOnce() -> Matrix) -> Self;

    fn rows(&self) -> usize;
    fn cols(&self) -> usize;

    /// Dense backing matrix, if this backend has real data.
    fn try_matrix(&self) -> Option<&Matrix>;
    /// Mutable [`TensorLike::try_matrix`]: how the in-place ops reach the values.
    fn try_matrix_mut(&mut self) -> Option<&mut Matrix>;

    /// All-zero tensor (dense) / blank shape (shadow).
    fn zeros(rows: usize, cols: usize) -> Self {
        Self::build(rows, cols, || Matrix::zeros(rows, cols))
    }

    /// The `[r0..r0+nr, c0..c0+nc]` block of the *global* Xavier-initialized
    /// `[global_rows, global_cols]` parameter identified by
    /// `(root_seed, param_id)`. Every rank calling this with the same global
    /// shape and ids reconstructs blocks of the *same* global matrix, which
    /// is what makes arrangements numerically comparable (Figure 7).
    // Global shape, block origin, block size, then the stream's ids: the
    // same positional pairs as `Matrix::block`, which the kernel calls.
    #[allow(clippy::too_many_arguments)]
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
        assert!(
            r0 + nr <= global_rows && c0 + nc <= global_cols,
            "init_xavier_block: [{r0}+{nr}, {c0}+{nc}] outside [{global_rows}, {global_cols}]"
        );
        Self::build(nr, nc, || {
            global_xavier(global_rows, global_cols, root_seed, param_id).block(r0, c0, nr, nc)
        })
    }

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
    fn matmul(&self, rhs: &Self, m: &mut Meter) -> Self {
        gemm_op(Orient::Nn, self, rhs, m)
    }
    /// `C = self · rhsᵀ`.
    fn matmul_nt(&self, rhs: &Self, m: &mut Meter) -> Self {
        gemm_op(Orient::Nt, self, rhs, m)
    }
    /// `C = selfᵀ · rhs`.
    fn matmul_tn(&self, rhs: &Self, m: &mut Meter) -> Self {
        gemm_op(Orient::Tn, self, rhs, m)
    }

    /// Elementwise `self + rhs`.
    fn add(&self, rhs: &Self, m: &mut Meter) -> Self {
        zip_op(self, rhs, "add", 1.0, m, |a, b| a.zip_map(b, |x, y| x + y))
    }
    /// Elementwise in-place `self += rhs`.
    fn add_assign(&mut self, rhs: &Self, m: &mut Meter) {
        ew_shape_check(self, rhs, "add_assign");
        m.record(self.elem_count() as f64, 0);
        if let Some(a) = self.try_matrix_mut() {
            a.add_assign(vals(rhs));
        }
    }
    /// Elementwise `self - rhs`.
    fn sub(&self, rhs: &Self, m: &mut Meter) -> Self {
        zip_op(self, rhs, "sub", 1.0, m, |a, b| a.zip_map(b, |x, y| x - y))
    }
    /// Elementwise (Hadamard) `self ∘ rhs`.
    fn hadamard(&self, rhs: &Self, m: &mut Meter) -> Self {
        zip_op(self, rhs, "hadamard", 1.0, m, |a, b| a.zip_map(b, |x, y| x * y))
    }
    /// `self * s`.
    fn scale(&self, s: f32, m: &mut Meter) -> Self {
        map_op(self, 1.0, m, |a| a.map(|x| x * s))
    }
    /// In-place `self *= s`. Charged exactly like [`TensorLike::scale`]: the
    /// modelled kernel is the same, only the host skips the copy.
    fn scale_assign(&mut self, s: f32, m: &mut Meter) {
        m.record(self.elem_count() as f64, self.byte_size());
        if let Some(a) = self.try_matrix_mut() {
            a.scale_assign(s);
        }
    }
    /// `self + s·x` in one pass (`w − lr·g` is `s = −lr`). Elementwise the
    /// same roundings as `self.add(&x.scale(s))`, charged by running that
    /// chain on shadow shapes.
    fn add_scaled(&self, x: &Self, s: f32, m: &mut Meter) -> Self {
        ew_shape_check(self, x, "add_scaled");
        let shape = ShadowTensor::new(self.rows(), self.cols());
        let _ = shape.add(&shape.scale(s, m), m);
        Self::build(self.rows(), self.cols(), || vals(self).zip_map(vals(x), |a, b| a + b * s))
    }
    /// One Adam step for the gradient `self`: updates the moments in place
    /// (`m ← β₁m + (1−β₁)g`, `v ← β₂v + (1−β₂)g∘g`) and returns the direction
    /// `m̂ ∘ 1/sqrt(v̂ + ε²)`. Elementwise the same roundings as
    /// [`adam_direction_chain`], charged by running that chain on shadow
    /// shapes.
    fn adam_direction(&self, mom: &mut Self, vel: &mut Self, c: AdamCoeffs, m: &mut Meter) -> Self {
        ew_shape_check(self, mom, "adam_direction");
        ew_shape_check(self, vel, "adam_direction");
        let (rows, cols) = self.shape();
        let shape = ShadowTensor::new(rows, cols);
        let (mut mo, mut ve) = (shape, shape);
        let _ = adam_direction_chain(&shape, &mut mo, &mut ve, c, m);
        Self::build(rows, cols, || {
            let (g1, g2) = (1.0 - c.beta1, 1.0 - c.beta2);
            let moments = vals_mut(mom).data_mut().iter_mut().zip(vals_mut(vel).data_mut());
            let data = (vals(self).data().iter().zip(moments))
                .map(|(&g, (mo, ve))| {
                    *mo = *mo * c.beta1 + g * g1;
                    *ve = *ve * c.beta2 + (g * g) * g2;
                    (*mo * c.bias1) * (1.0 / (*ve * c.bias2 + c.eps_sq).sqrt())
                })
                .collect();
            Matrix::from_vec(rows, cols, data)
        })
    }

    /// Row sums as a `[rows, 1]` column vector.
    fn row_sums(&self, m: &mut Meter) -> Self {
        op((self.rows(), 1), self.elem_count() as f64, m, || {
            let x = vals(self);
            Matrix::from_fn(x.rows(), 1, |i, _| x.row(i).iter().sum())
        })
    }
    /// Row sums of squares as a `[rows, 1]` column vector.
    fn row_sums_of_squares(&self, m: &mut Meter) -> Self {
        op((self.rows(), 1), 2.0 * self.elem_count() as f64, m, || {
            let x = vals(self);
            Matrix::from_fn(x.rows(), 1, |i, _| x.row(i).iter().map(|v| v * v).sum())
        })
    }
    /// Column sums as a `[1, cols]` row vector.
    fn col_sums(&self, m: &mut Meter) -> Self {
        op((1, self.cols()), self.elem_count() as f64, m, || {
            let mut out = Matrix::zeros(1, self.cols());
            for i in 0..self.rows() {
                for (o, &v) in out.row_mut(0).iter_mut().zip(vals(self).row(i)) {
                    *o += v;
                }
            }
            out
        })
    }

    /// Broadcast-add a `[1, cols]` row vector to every row (bias add).
    fn add_rowvec(&self, v: &Self, m: &mut Meter) -> Self {
        assert_eq!(v.shape(), (1, self.cols()), "add_rowvec: bad vector shape");
        map_op(self, 1.0, m, |x| nn::bias_add(x, vals(v).row(0)))
    }
    /// Broadcast-add a `[rows, 1]` column vector to every column.
    fn add_colvec(&self, v: &Self, m: &mut Meter) -> Self {
        colvec_op(self, v, "add_colvec", m, |x, s| x + s)
    }
    /// Broadcast-subtract a `[rows, 1]` column vector from every column.
    fn sub_colvec(&self, v: &Self, m: &mut Meter) -> Self {
        colvec_op(self, v, "sub_colvec", m, |x, s| x - s)
    }
    /// Broadcast-multiply by a `[rows, 1]` column vector.
    fn mul_colvec(&self, v: &Self, m: &mut Meter) -> Self {
        colvec_op(self, v, "mul_colvec", m, |x, s| x * s)
    }

    /// Elementwise `1 / sqrt(self + eps)`.
    fn rsqrt_add(&self, eps: f32, m: &mut Meter) -> Self {
        map_op(self, RSQRT_FLOPS_PER_ELEM, m, |a| a.map(|x| 1.0 / (x + eps).sqrt()))
    }

    /// Elementwise GELU.
    fn gelu(&self, m: &mut Meter) -> Self {
        map_op(self, GELU_FLOPS_PER_ELEM, m, nn::gelu_matrix)
    }
    /// GELU backward: `self` is the forward *input* `X`, returns `dY ∘ gelu'(X)`.
    fn gelu_backward(&self, dy: &Self, m: &mut Meter) -> Self {
        zip_op(self, dy, "gelu_backward", GELU_FLOPS_PER_ELEM, m, nn::gelu_backward_matrix)
    }

    /// Row-wise softmax.
    fn softmax_rows(&self, m: &mut Meter) -> Self {
        map_op(self, SOFTMAX_FLOPS_PER_ELEM, m, nn::softmax_rows)
    }
    /// Masked in-place row softmax: row `i` is softmaxed over its first
    /// `limits[i]` entries and zeroed beyond them — the causal-attention
    /// kernel (see `nn::softmax_rows_masked_inplace`). Charges flops for
    /// the active (unmasked) elements only, and no output allocation.
    fn softmax_rows_masked_inplace(&mut self, limits: &[usize], m: &mut Meter) {
        let (rows, cols) = self.shape();
        assert_eq!(rows, limits.len(), "softmax mask: one limit per row");
        assert!(limits.iter().all(|&l| l <= cols), "softmax mask: limit exceeds {cols} columns");
        m.record(SOFTMAX_FLOPS_PER_ELEM * limits.iter().sum::<usize>() as f64, 0);
        if let Some(x) = self.try_matrix_mut() {
            nn::softmax_rows_masked_inplace(x, limits);
        }
    }
    /// Softmax backward: `self` is the forward *output* `Y`.
    fn softmax_rows_backward(&self, dy: &Self, m: &mut Meter) -> Self {
        zip_op(
            self,
            dy,
            "softmax_rows_backward",
            SOFTMAX_FLOPS_PER_ELEM,
            m,
            nn::softmax_rows_backward,
        )
    }

    /// Rows `r0..r1` as a new tensor.
    fn slice_rows(&self, r0: usize, r1: usize, m: &mut Meter) -> Self {
        assert!(r0 <= r1 && r1 <= self.rows(), "slice_rows out of bounds");
        op((r1 - r0, self.cols()), 0.0, m, || vals(self).slice_rows(r0, r1))
    }
    /// Columns `c0..c1` as a new tensor.
    fn slice_cols(&self, c0: usize, c1: usize, m: &mut Meter) -> Self {
        assert!(c0 <= c1 && c1 <= self.cols(), "slice_cols out of bounds");
        op((self.rows(), c1 - c0), 0.0, m, || vals(self).slice_cols(c0, c1))
    }
    /// Vertical concatenation.
    fn concat_rows(parts: &[Self], m: &mut Meter) -> Self {
        let cols = parts.first().expect("concat_rows of no parts").cols();
        assert!(parts.iter().all(|p| p.cols() == cols), "concat_rows: column mismatch");
        let rows = parts.iter().map(Self::rows).sum();
        op((rows, cols), 0.0, m, || Matrix::concat_rows(parts.iter().map(vals)))
    }
    /// Appends `rows` below this tensor's rows in place: the value of
    /// [`TensorLike::concat_rows`] of `[self, rows]` without copying
    /// `self`, charged as data movement of the new rows only.
    fn append_rows(&mut self, rows: &Self, m: &mut Meter) {
        assert_eq!(rows.cols(), self.cols(), "append_rows: column mismatch");
        m.record(0.0, rows.byte_size());
        let grown = Self::build(self.rows() + rows.rows(), self.cols(), || {
            let mut kept = std::mem::replace(vals_mut(self), Matrix::zeros(0, 0));
            kept.append_rows(vals(rows));
            kept
        });
        *self = grown;
    }
    /// Horizontal concatenation.
    fn concat_cols(parts: &[Self], m: &mut Meter) -> Self {
        let rows = parts.first().expect("concat_cols of no parts").rows();
        assert!(parts.iter().all(|p| p.rows() == rows), "concat_cols: row mismatch");
        let cols = parts.iter().map(Self::cols).sum();
        op((rows, cols), 0.0, m, || Matrix::concat_cols(parts.iter().map(vals)))
    }

    /// Elementwise accumulation used *inside* collectives (reduce /
    /// all-reduce combine step). Not metered: communication costs are
    /// accounted by the cluster cost model, not the compute meter.
    fn reduce_add_inplace(&mut self, other: &Self) {
        assert_eq!(self.shape(), other.shape(), "reduce_add_inplace: shape mismatch");
        if let Some(a) = self.try_matrix_mut() {
            a.add_assign(vals(other));
        }
    }

    /// Frobenius norm of the stored values, if this backend has real data
    /// (the shadow backend returns `None`). Not metered: its one caller,
    /// gradient clipping, charges the norm's op chain on shadow shapes.
    fn frobenius(&self) -> Option<f32> {
        self.try_matrix().map(Matrix::frobenius_norm)
    }
}

/// Data that can travel through collectives. Every [`TensorLike`] is one:
/// its wire size is [`TensorLike::byte_size`] and a reduction combines with
/// [`TensorLike::reduce_add_inplace`]. The trait lives beside `TensorLike`
/// because only the crate that owns both may write that blanket impl next
/// to the `()` and `Arc<P>` ones.
pub trait Payload: Clone + Send + Sync + 'static {
    /// Size of one rank's contribution on the wire, in bytes.
    fn wire_size(&self) -> usize;
    /// Elementwise combine for reductions.
    fn combine(&mut self, other: &Self);
}

impl<T: TensorLike> Payload for T {
    fn wire_size(&self) -> usize {
        self.byte_size()
    }

    fn combine(&mut self, other: &Self) {
        self.reduce_add_inplace(other);
    }
}

impl Payload for () {
    fn wire_size(&self) -> usize {
        0
    }

    fn combine(&mut self, _other: &Self) {}
}

/// A list travels as one payload (a lane exchanges its fetched weight
/// panels this way); a reduction combines it item by item.
impl<P: Payload> Payload for Vec<P> {
    fn wire_size(&self) -> usize {
        self.iter().map(P::wire_size).sum()
    }

    fn combine(&mut self, other: &Self) {
        assert_eq!(self.len(), other.len(), "combining lists of different lengths");
        self.iter_mut().zip(other).for_each(|(a, b)| a.combine(b));
    }
}

/// `Arc<P>` travels through collectives and point-to-point sends without
/// copying the inner payload (the pipeline sends activations this way).
/// Reducing through the `Arc` uses copy-on-write: uniquely-owned deposits
/// are combined in place, shared ones are cloned first.
impl<P: Payload> Payload for Arc<P> {
    fn wire_size(&self) -> usize {
        (**self).wire_size()
    }

    fn combine(&mut self, other: &Self) {
        Arc::make_mut(self).combine(other);
    }
}

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

impl TensorLike for DenseTensor {
    fn build(rows: usize, cols: usize, kernel: impl FnOnce() -> Matrix) -> Self {
        let out = kernel();
        debug_assert_eq!(out.shape(), (rows, cols), "kernel broke the op's shape rule");
        Self(out)
    }

    fn rows(&self) -> usize {
        self.0.rows()
    }

    fn cols(&self) -> usize {
        self.0.cols()
    }

    fn try_matrix(&self) -> Option<&Matrix> {
        Some(&self.0)
    }

    fn try_matrix_mut(&mut self) -> Option<&mut Matrix> {
        Some(&mut self.0)
    }
}

/// Shape-only tensor: carries `(rows, cols)` and nothing else. It runs no
/// kernel, so paper-scale configurations go through the real distributed
/// code — every shape rule and every meter charge of [`TensorLike`] — in
/// microseconds.
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
    fn build(rows: usize, cols: usize, _kernel: impl FnOnce() -> Matrix) -> Self {
        Self { rows, cols }
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn try_matrix(&self) -> Option<&Matrix> {
        None
    }

    fn try_matrix_mut(&mut self) -> Option<&mut Matrix> {
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

    fn adam_coeffs(t: i32) -> AdamCoeffs {
        AdamCoeffs::at_step(0.9, 0.999, 1e-8, t)
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

    /// A block that leaves the global matrix is a mis-sliced weight on either
    /// backend (dense used to trip inside `Matrix::block`, shadow never).
    #[test]
    #[should_panic(expected = "init_xavier_block: [4+4, 6+4] outside [8, 8]")]
    fn shadow_rejects_a_parameter_block_outside_the_global_matrix() {
        let _ = ShadowTensor::init_xavier_block(8, 8, 4, 6, 4, 4, 42, 7);
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

    /// A cache grown by `append_rows` holds what `concat_rows` builds, bit
    /// for bit, from empty through a prefill, decodes and an empty step;
    /// Shadow grows to the same shapes on the same charge, the new rows'
    /// bytes and no launch.
    #[test]
    fn append_rows_is_concat_rows_in_place() {
        let (mut dense_m, mut shadow_m) = (Meter::new(), Meter::new());
        let (mut grown, mut shadow) = (DenseTensor::zeros(0, 6), ShadowTensor::new(0, 6));
        for (step, rows) in [5, 1, 1, 0, 3].into_iter().enumerate() {
            let new = dense(rows, 6, 40 + step as u64);
            let want = DenseTensor::concat_rows(&[grown.clone(), new.clone()], &mut Meter::new());
            grown.append_rows(&new, &mut dense_m);
            assert_eq!(grown.shape(), want.shape(), "step {step}");
            assert_eq!(bits(&grown), bits(&want), "step {step}");
            shadow.append_rows(&ShadowTensor::new(rows, 6), &mut shadow_m);
            assert_eq!(shadow.shape(), grown.shape(), "step {step}");
            assert_eq!(shadow_m, dense_m, "step {step}");
        }
        assert_eq!((dense_m.kernels, dense_m.flops), (0, 0.0));
        assert_eq!(dense_m.bytes_allocated, (10 * 6 * ELEM_BYTES) as u64);
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
