//! Matrix-multiplication kernels.
//!
//! Three orientations are needed by the distributed algorithms (the paper's
//! §3.1 defines Tesseract variants for `C = A·B`, `C = A·Bᵀ`, `C = Aᵀ·B`;
//! the latter two implement the backward rules `A' = C'·Bᵀ`, `B' = Aᵀ·C'`).
//!
//! Each orientation has two implementations sharing one numerical contract:
//!
//! * a **serial** kernel (`*_serial`) used below the [`planned_path`] size
//!   threshold, where the blocked path's bookkeeping would dominate;
//! * a **cache-blocked, packed** kernel (`*_blocked_with`) used above it:
//!   A and B are repacked into `MR`/`NR`-wide micro-panels ([`BLOCK_M`]
//!   rows of A and [`BLOCK_K`] deep), a register-tiled micro-kernel
//!   accumulates an `MR×NR` block of C, and the caller walks C one
//!   [`BLOCK_M`]-row block at a time against the whole packed B.
//!
//! **A GEMM runs on the thread that calls it.** The unit of parallelism is
//! the simulated processor — one OS thread per rank (`Cluster::run`) — and
//! the kernels own no shared state, so any number of rank threads may
//! multiply concurrently. There is no second, intra-GEMM level of threads:
//! with `world ≥ 4` rank threads already on the host's cores it never
//! lowered a benchmark `host_op_s` (EXPERIMENTS.md §K).
//!
//! The blocked path is itself **runtime-dispatched** over a family of
//! [`MicroKernel`] backends sharing one packing implementation (packing is
//! parameterized by the backend's `MR`/`NR`):
//!
//! * [`MicroKernel::Scalar`] — `MR×NR = 4×8`, plain mul+add, the portable
//!   reference on every architecture;
//! * [`MicroKernel::Avx2`] — `MR×NR = 6×16`, `_mm256` FMA intrinsics behind
//!   `#[target_feature(enable = "avx2,fma")]`, the vector path of x86 hosts
//!   without AVX-512;
//! * [`MicroKernel::Avx512`] — `MR×NR = 8×32`, `_mm512` FMA intrinsics
//!   behind `#[target_feature(enable = "avx512f")]`.
//!
//! A vector backend is selected only when `is_x86_feature_detected!` proves
//! the host supports it. The backend is resolved **once per process**
//! ([`active_kernel`], a `OnceLock`): the widest supported one by default,
//! or forced with `TESSERACT_KERNEL=scalar|avx2|avx512` for testing and
//! benchmarking. Dispatch therefore costs nothing in the hot loop.
//!
//! **The serial path runs at the backend's vector width too, in the mul+add
//! class.** On [`MicroKernel::Scalar`] it is the triple loops. On a vector
//! backend, B is packed into the backend's `NR`-wide k-major strips and one
//! mul+add tile body (`mul_add_serial_tile!`, instantiated behind
//! `#[target_feature(enable = "avx2")]` / `"avx512f"`, never `fma`)
//! accumulates 4 rows × `NR` columns of C in registers, a separate multiply
//! and add per step. Shapes a tile cannot fill (fewer than 4 rows, less than
//! one vector of columns) keep the loops. Every lane computes the loops'
//! chain, so the serial path gives the same bits on every backend, and
//! [`planned_path`] and the metered dispatch counts are untouched.
//!
//! **Every tile runs the backend's own kernel.** A remainder tile at the
//! bottom/right edge is copied into a zeroed `MR×NR` stack tile, run
//! through the same full-tile kernel, and its valid region copied back
//! (`micro_kernel`) — there is no separate edge loop, so no row of C is
//! computed at scalar speed on a vector backend.
//!
//! **Determinism contract** (DESIGN.md §5): every element of C is computed
//! as one chain over strictly ascending k — blocking tiles k but visits
//! tiles in order, and packing copies values bit-exactly. A fixed backend
//! therefore produces **bitwise-identical** output on every call, from any
//! thread. Because edge tiles use the backend's own arithmetic, the chain's
//! rounding depends only on the backend's *numerics class*, and there are
//! two:
//!
//! * **mul+add** `((c + a_i0·b_0j) + a_i1·b_1j) + …` — the serial path on
//!   every backend and the scalar blocked backend, bitwise identical to
//!   each other;
//! * **fused** `fma(a_ik, b_kj, c)` — AVX2 and AVX-512, bitwise identical
//!   to each other on every shape, so a result does not depend on which
//!   x86 vector width the host has.
//!
//! Across the two classes results agree only within floating-point
//! tolerance (one rounding per `a·b + c` instead of two).

use std::sync::OnceLock;

use crate::matrix::Matrix;

/// Rows of C per row block and per A-panel repack (L2-sized with
/// `BLOCK_K`: 64·256 f32 = 64 KiB).
pub const BLOCK_M: usize = 64;
/// Depth (k) tile; one packed B micro-panel stream is `BLOCK_K·NR` f32
/// (8 KiB scalar, 16 KiB AVX2, 32 KiB AVX-512), resident in L1 across a
/// whole row of micro-tiles.
pub const BLOCK_K: usize = 256;

/// Scalar micro-tile rows: C accumulators held in registers are `MR×NR`
/// f32 (4×8 = 8 SSE vectors, the x86-64 baseline budget).
const SCALAR_MR: usize = 4;
/// Scalar micro-tile columns (two 4-lane f32 vectors per accumulator row).
const SCALAR_NR: usize = 8;

/// AVX2 micro-tile rows: 6×16 f32 = 12 ymm accumulators, leaving registers
/// for two B loads and the A broadcast (the BLIS Haswell shape).
const AVX2_MR: usize = 6;
/// AVX2 micro-tile columns (two 8-lane ymm vectors per accumulator row).
const AVX2_NR: usize = 16;

/// AVX-512 micro-tile rows: 8×32 f32 = 16 zmm accumulators of the 32
/// registers. 8 divides [`BLOCK_M`] and every power-of-two shape, so row
/// panels never pad; a taller 12-row tile had faster probes but a slower
/// training step because 64-row attention GEMMs pad to 72 (EXPERIMENTS.md
/// §K).
const AVX512_MR: usize = 8;
/// AVX-512 micro-tile columns (two 16-lane zmm vectors per accumulator row).
const AVX512_NR: usize = 32;

/// Rows of C per serial vector tile: with two vectors per row that is 8
/// independent add chains, enough to keep the vector unit busy at either
/// width (8 rows measured no faster).
const SERIAL_MR: usize = 4;

/// `m·k·n` below which the serial kernel is dispatched (≈ one 64³ GEMM);
/// under this size the pack/tile bookkeeping costs more than it saves.
pub const BLOCKED_MIN_ELEMS: usize = 64 * 64 * 64;

/// Which implementation [`planned_path`] selects for a GEMM shape. The
/// [`crate::Meter`] records a count per variant so experiments can audit
/// what actually ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// Simple triple-loop kernel.
    Serial,
    /// Cache-blocked packed kernel on the process-wide [`MicroKernel`].
    Blocked,
}

/// Register micro-kernel backend of the blocked path. Resolved once per
/// process by [`active_kernel`]; tests and benches can force one per call
/// via [`matmul_blocked_with`] and friends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MicroKernel {
    /// Portable `4×8` mul+add tile — bitwise-identical to the `*_serial`
    /// triple loops, available on every architecture.
    Scalar,
    /// `6×16` AVX2+FMA tile (`_mm256_fmadd_ps`); requires runtime-detected
    /// `avx2` and `fma` CPU features.
    Avx2,
    /// `8×32` AVX-512 tile (`_mm512_fmadd_ps`); requires runtime-detected
    /// `avx512f`. Bitwise identical to [`MicroKernel::Avx2`].
    Avx512,
}

impl MicroKernel {
    /// Every backend, narrowest first. Forced-path test matrices, sweeps
    /// and the `TESSERACT_KERNEL` grammar iterate this, so a backend cannot
    /// be added without entering all of them.
    pub const ALL: [MicroKernel; 3] = [MicroKernel::Scalar, MicroKernel::Avx2, MicroKernel::Avx512];

    /// The backends of [`MicroKernel::ALL`] this host can run, narrowest
    /// first (scalar always leads).
    pub fn available() -> impl DoubleEndedIterator<Item = MicroKernel> {
        Self::ALL.into_iter().filter(|k| k.supported())
    }

    /// Micro-tile rows of this backend.
    pub const fn mr(self) -> usize {
        match self {
            MicroKernel::Scalar => SCALAR_MR,
            MicroKernel::Avx2 => AVX2_MR,
            MicroKernel::Avx512 => AVX512_MR,
        }
    }

    /// Micro-tile columns of this backend.
    pub const fn nr(self) -> usize {
        match self {
            MicroKernel::Scalar => SCALAR_NR,
            MicroKernel::Avx2 => AVX2_NR,
            MicroKernel::Avx512 => AVX512_NR,
        }
    }

    /// Stable lowercase name used by `TESSERACT_KERNEL`, bench JSON, and
    /// log lines.
    pub const fn name(self) -> &'static str {
        match self {
            MicroKernel::Scalar => "scalar",
            MicroKernel::Avx2 => "avx2",
            MicroKernel::Avx512 => "avx512",
        }
    }

    /// Whether the running host can execute this backend.
    pub fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        match self {
            MicroKernel::Scalar => true,
            MicroKernel::Avx2 => {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            }
            MicroKernel::Avx512 => is_x86_feature_detected!("avx512f"),
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == MicroKernel::Scalar
        }
    }
}

static ACTIVE_KERNEL: OnceLock<MicroKernel> = OnceLock::new();

/// Forces the micro-kernel backend for the whole process. This is the
/// setter the run configuration installs (historically the
/// `TESSERACT_KERNEL` env var, now parsed in `tesseract-comm`'s
/// `RunConfig`); forcing an unsupported backend panics — a forced path must
/// never silently degrade. Must run before the first blocked GEMM resolves
/// the backend; forcing a *different* backend after resolution panics too,
/// because the per-process parity guarantees would otherwise be violated.
pub fn force_kernel(k: MicroKernel) {
    assert!(
        k.supported(),
        "TESSERACT_KERNEL={} forced, but this host does not support it",
        k.name()
    );
    let got = *ACTIVE_KERNEL.get_or_init(|| k);
    assert_eq!(
        got,
        k,
        "kernel backend already resolved to {} before {} was forced",
        got.name(),
        k.name()
    );
}

/// The backend every host-feature-supported blocked GEMM runs on, resolved
/// exactly once per process: the [`force_kernel`] override if one was
/// installed first, else the widest backend the CPU supports.
pub fn active_kernel() -> MicroKernel {
    *ACTIVE_KERNEL.get_or_init(detect_kernel)
}

/// Widest supported backend.
fn detect_kernel() -> MicroKernel {
    MicroKernel::available().next_back().expect("the scalar backend runs everywhere")
}

/// Deterministic dispatch decision for a `[m,k]·[k,n]` product. Depends only
/// on the shape — never on data or the active micro-kernel
/// backend (the thresholds are the *scalar* tile so metered dispatch counts
/// are identical on every host) — so dense and shadow backends agree and
/// runs are reproducible. Degenerate outputs (fewer rows or columns than
/// one scalar micro-tile) stay serial: most of each register tile would be
/// padding.
pub fn planned_path(m: usize, k: usize, n: usize) -> KernelPath {
    if m >= SCALAR_MR
        && n >= SCALAR_NR
        && m.saturating_mul(k).saturating_mul(n) >= BLOCKED_MIN_ELEMS
    {
        KernelPath::Blocked
    } else {
        KernelPath::Serial
    }
}

// ---------------------------------------------------------------------------
// Public entry points: dispatch serial vs blocked
// ---------------------------------------------------------------------------

/// `C = A · B`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dims {} vs {}", a.cols(), b.rows());
    match planned_path(a.rows(), a.cols(), b.cols()) {
        KernelPath::Serial => matmul_serial(a, b),
        KernelPath::Blocked => matmul_blocked_with(a, b, active_kernel()),
    }
}

/// `C = A · Bᵀ` without materializing the transpose.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt: inner dims {} vs {}", a.cols(), b.cols());
    match planned_path(a.rows(), a.cols(), b.rows()) {
        KernelPath::Serial => matmul_nt_serial(a, b),
        KernelPath::Blocked => matmul_nt_blocked_with(a, b, active_kernel()),
    }
}

/// `C = Aᵀ · B` without materializing the transpose.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn: inner dims {} vs {}", a.rows(), b.rows());
    match planned_path(a.cols(), a.rows(), b.cols()) {
        KernelPath::Serial => matmul_tn_serial(a, b),
        KernelPath::Blocked => matmul_tn_blocked_with(a, b, active_kernel()),
    }
}

// ---------------------------------------------------------------------------
// Serial kernels
// ---------------------------------------------------------------------------
//
// Deliberately branch-free: the old `if a_ik == 0.0 { continue }` "skip"
// both defeated vectorization and broke IEEE semantics (`0 · NaN` must be
// NaN, `0 · inf` must be NaN — skipping dropped them).

/// Serial `C = A · B` on the [`active_kernel`]'s vector width.
pub fn matmul_serial(a: &Matrix, b: &Matrix) -> Matrix {
    matmul_serial_with(a, b, active_kernel())
}

/// Serial `C = A · Bᵀ` on the [`active_kernel`]'s vector width.
pub fn matmul_nt_serial(a: &Matrix, b: &Matrix) -> Matrix {
    matmul_nt_serial_with(a, b, active_kernel())
}

/// Serial `C = Aᵀ · B` on the [`active_kernel`]'s vector width.
pub fn matmul_tn_serial(a: &Matrix, b: &Matrix) -> Matrix {
    matmul_tn_serial_with(a, b, active_kernel())
}

/// Serial `C = A · B` at an explicitly chosen backend's vector width —
/// bitwise the same on every backend. Panics if `kernel` is unsupported on
/// this host.
pub fn matmul_serial_with(a: &Matrix, b: &Matrix, kernel: MicroKernel) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dims {} vs {}", a.cols(), b.rows());
    gemm_serial(kernel, Orient::Nn, a, b, a.rows(), a.cols(), b.cols())
}

/// Serial `C = A · Bᵀ` at an explicitly chosen backend's vector width.
pub fn matmul_nt_serial_with(a: &Matrix, b: &Matrix, kernel: MicroKernel) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt: inner dims {} vs {}", a.cols(), b.cols());
    gemm_serial(kernel, Orient::Nt, a, b, a.rows(), a.cols(), b.rows())
}

/// Serial `C = Aᵀ · B` at an explicitly chosen backend's vector width.
pub fn matmul_tn_serial_with(a: &Matrix, b: &Matrix, kernel: MicroKernel) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn: inner dims {} vs {}", a.rows(), b.rows());
    gemm_serial(kernel, Orient::Tn, a, b, a.cols(), a.rows(), b.cols())
}

/// The scalar backend, and every shape a vector tile cannot fill — fewer
/// than [`SERIAL_MR`] rows or less than one vector of columns — run the
/// triple loops; the rest runs [`serial_strips`]. The choice reads the
/// backend and the shape, never an option. It keeps a decode step's
/// `[1, d]·[t, d]ᵀ` attention scores on the dot product, where packing Bᵀ
/// would cost as much as the product.
fn gemm_serial(
    kernel: MicroKernel,
    orient: Orient,
    a: &Matrix,
    b: &Matrix,
    m: usize,
    k: usize,
    n: usize,
) -> Matrix {
    assert!(kernel.supported(), "micro-kernel {:?} unsupported on this host", kernel);
    let mut c = Matrix::zeros(m, n);
    if kernel == MicroKernel::Scalar || m < SERIAL_MR || n < kernel.nr() / 2 {
        serial_loops(orient, a, b, &mut c);
    } else if k > 0 {
        serial_strips(kernel, orient, a, b, &mut c, k);
    }
    c
}

/// The triple loops, in ikj / dot-product order so the compiler vectorizes
/// the contiguous inner loops at the x86-64 baseline (SSE2).
fn serial_loops(orient: Orient, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    match orient {
        Orient::Nn => {
            for i in 0..c.rows() {
                let c_row = c.row_mut(i);
                for (kk, &a_ik) in a.row(i).iter().enumerate() {
                    for (c_ij, &b_kj) in c_row.iter_mut().zip(b.row(kk)) {
                        *c_ij += a_ik * b_kj;
                    }
                }
            }
        }
        Orient::Nt => {
            for i in 0..c.rows() {
                let a_row = a.row(i);
                for (j, c_ij) in c.row_mut(i).iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for (x, y) in a_row.iter().zip(b.row(j)) {
                        acc += x * y;
                    }
                    *c_ij = acc;
                }
            }
        }
        Orient::Tn => {
            for kk in 0..a.rows() {
                let b_row = b.row(kk);
                for (i, &a_ki) in a.row(kk).iter().enumerate() {
                    for (c_ij, &b_kj) in c.row_mut(i).iter_mut().zip(b_row) {
                        *c_ij += a_ki * b_kj;
                    }
                }
            }
        }
    }
}

/// The serial path at the backend's vector width: logical B packed into
/// `NR`-wide k-major strips ([`PackedB`], so `A·Bᵀ` accumulates a strip in
/// registers instead of running one latency-bound dot product per element),
/// A read in place, and C swept in [`SERIAL_MR`]-row tiles (then single
/// rows) of one strip each by [`serial_tile`]. A partial last strip is
/// staged through a stack tile, like the blocked path's edges. k-tiles are
/// visited in order and a tile resumes from the stored C value, so each
/// element keeps the loops' chain.
fn serial_strips(
    kernel: MicroKernel,
    orient: Orient,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    k: usize,
) {
    let (m, n) = c.shape();
    let w = kernel.nr();
    let b_packed = PackedB::new(orient, b, k, n, w);
    // Logical A(i, kk) is a.data()[i·a_rs + kk·a_ks].
    let (a_rs, a_ks) = match orient {
        Orient::Nn | Orient::Nt => (k, 1),
        Orient::Tn => (1, m),
    };
    let mut stage = [0.0f32; SERIAL_MR * AVX512_NR];
    for (kc_idx, kc) in (0..k).step_by(BLOCK_K).enumerate() {
        let kb = (k - kc).min(BLOCK_K);
        for q in 0..b_packed.n_panels {
            let j0 = q * w;
            let cols = (n - j0).min(w);
            let b_panel = b_packed.panel(kc_idx, q);
            let mut i0 = 0;
            while i0 < m {
                let rows = if m - i0 >= SERIAL_MR { SERIAL_MR } else { 1 };
                let a_tile = &a.data()[i0 * a_rs + kc * a_ks..];
                if cols == w {
                    let c_tile = &mut c.data_mut()[i0 * n + j0..];
                    serial_tile(kernel, rows, a_tile, a_rs, a_ks, b_panel, kb, c_tile, n);
                } else {
                    for r in 0..rows {
                        stage[r * w..][..cols].copy_from_slice(&c.row(i0 + r)[j0..]);
                    }
                    serial_tile(kernel, rows, a_tile, a_rs, a_ks, b_panel, kb, &mut stage, w);
                    for r in 0..rows {
                        c.row_mut(i0 + r)[j0..].copy_from_slice(&stage[r * w..][..cols]);
                    }
                }
                i0 += rows;
            }
        }
    }
}

/// Runs the backend's mul+add tile on `rows` (= [`SERIAL_MR`] or 1) rows of
/// C at `c` (row stride `c_rs`), after asserting the tile's bounds.
#[allow(clippy::too_many_arguments)]
fn serial_tile(
    kernel: MicroKernel,
    rows: usize,
    a: &[f32],
    a_rs: usize,
    a_ks: usize,
    b_panel: &[f32],
    kb: usize,
    c: &mut [f32],
    c_rs: usize,
) {
    assert!(rows > 0 && kb > 0, "empty serial tile");
    assert!((rows - 1) * a_rs + (kb - 1) * a_ks < a.len(), "A tile out of bounds");
    assert!(b_panel.len() >= kb * kernel.nr(), "packed panel too short");
    assert!((rows - 1) * c_rs + kernel.nr() <= c.len(), "C tile out of bounds");
    match (kernel, rows) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: only vector backends reach here, after `gemm_serial`
        // verified `supported()`; the asserts above are the tile's bounds
        // requirements for `rows` rows of this backend's `nr()` columns.
        (MicroKernel::Avx2, SERIAL_MR) => unsafe {
            serial_tile_avx2::<SERIAL_MR>(a, a_rs, a_ks, b_panel, kb, c, c_rs)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        (MicroKernel::Avx2, 1) => unsafe {
            serial_tile_avx2::<1>(a, a_rs, a_ks, b_panel, kb, c, c_rs)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        (MicroKernel::Avx512, SERIAL_MR) => unsafe {
            serial_tile_avx512::<SERIAL_MR>(a, a_rs, a_ks, b_panel, kb, c, c_rs)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        (MicroKernel::Avx512, 1) => unsafe {
            serial_tile_avx512::<1>(a, a_rs, a_ks, b_panel, kb, c, c_rs)
        },
        _ => unreachable!("no {rows}-row serial tile on the {} backend", kernel.name()),
    }
}

/// One mul+add tile body, instantiated per vector width: an `R × 2·LANES`
/// C tile in `2·R` vector accumulators; per depth step two B loads and `R`
/// A broadcasts, each multiplied, then added — two instructions and two
/// roundings, exactly the loops' `acc += a·b`. The features enable the
/// width only, never `fma`, and intrinsics are never contracted, so every
/// lane computes the scalar chain `((0 + a₀b₀) + a₁b₁) + …` and the
/// instances are bitwise the scalar loops on every shape.
#[cfg(target_arch = "x86_64")]
macro_rules! mul_add_serial_tile {
    ($name:ident, $features:literal, $lanes:literal,
     $zero:ident, $load:ident, $store:ident, $splat:ident, $mul:ident, $add:ident) => {
        /// # Safety
        /// Caller must guarantee the host supports this tile's target
        /// features, that `a` holds index `(R−1)·a_rs + (kb−1)·a_ks`,
        /// `b_panel` at least `kb·2·LANES` f32, and `c` at least
        /// `(R−1)·c_rs + 2·LANES` f32.
        #[target_feature(enable = $features)]
        unsafe fn $name<const R: usize>(
            a: &[f32],
            a_rs: usize,
            a_ks: usize,
            b_panel: &[f32],
            kb: usize,
            c: &mut [f32],
            c_rs: usize,
        ) {
            use std::arch::x86_64::*;
            let mut acc = [[$zero(); 2]; R];
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let p = c.as_ptr().add(r * c_rs);
                acc_row[0] = $load(p);
                acc_row[1] = $load(p.add($lanes));
            }
            for kk in 0..kb {
                let ap = a.as_ptr().add(kk * a_ks);
                let bp = b_panel.as_ptr().add(kk * 2 * $lanes);
                let b0 = $load(bp);
                let b1 = $load(bp.add($lanes));
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let ar = $splat(*ap.add(r * a_rs));
                    acc_row[0] = $add(acc_row[0], $mul(ar, b0));
                    acc_row[1] = $add(acc_row[1], $mul(ar, b1));
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                let p = c.as_mut_ptr().add(r * c_rs);
                $store(p, acc_row[0]);
                $store(p.add($lanes), acc_row[1]);
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
mul_add_serial_tile!(
    serial_tile_avx2,
    "avx2",
    8,
    _mm256_setzero_ps,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_mul_ps,
    _mm256_add_ps
);

#[cfg(target_arch = "x86_64")]
mul_add_serial_tile!(
    serial_tile_avx512,
    "avx512f",
    16,
    _mm512_setzero_ps,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    _mm512_set1_ps,
    _mm512_mul_ps,
    _mm512_add_ps
);

// ---------------------------------------------------------------------------
// Blocked, packed kernels
// ---------------------------------------------------------------------------

/// How the logical `[m,k]·[k,n]` operands map onto the stored matrices.
#[derive(Clone, Copy)]
enum Orient {
    /// `A[m,k]`, `B[k,n]` as stored.
    Nn,
    /// logical B is `Bᵀ` of the stored `[n,k]` matrix.
    Nt,
    /// logical A is `Aᵀ` of the stored `[k,m]` matrix.
    Tn,
}

/// Blocked `C = A · B` on an explicitly chosen micro-kernel backend
/// (production call sites use [`matmul`], which passes [`active_kernel`]).
/// Panics if `kernel` is unsupported on this host. This is the race-free
/// way for tests and benches to pin a path (no env mutation).
pub fn matmul_blocked_with(a: &Matrix, b: &Matrix, kernel: MicroKernel) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dims {} vs {}", a.cols(), b.rows());
    gemm_blocked(kernel, Orient::Nn, a, b, a.rows(), a.cols(), b.cols())
}

/// Blocked `C = A · Bᵀ` on an explicitly chosen micro-kernel backend.
pub fn matmul_nt_blocked_with(a: &Matrix, b: &Matrix, kernel: MicroKernel) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt: inner dims {} vs {}", a.cols(), b.cols());
    gemm_blocked(kernel, Orient::Nt, a, b, a.rows(), a.cols(), b.rows())
}

/// Blocked `C = Aᵀ · B` on an explicitly chosen micro-kernel backend.
pub fn matmul_tn_blocked_with(a: &Matrix, b: &Matrix, kernel: MicroKernel) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn: inner dims {} vs {}", a.rows(), b.rows());
    gemm_blocked(kernel, Orient::Tn, a, b, a.cols(), a.rows(), b.cols())
}

fn gemm_blocked(
    kernel: MicroKernel,
    orient: Orient,
    a: &Matrix,
    b: &Matrix,
    m: usize,
    k: usize,
    n: usize,
) -> Matrix {
    assert!(kernel.supported(), "micro-kernel {:?} unsupported on this host", kernel);
    let mut c = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    // B is packed ONCE, up front, and read by every row block — repacking
    // it per block would add O(k·n) copies per block.
    let b_packed = PackedB::new(orient, b, k, n, kernel.nr());
    for (t, c_rows) in c.data_mut().chunks_mut(BLOCK_M * n).enumerate() {
        gemm_row_block(kernel, orient, a, &b_packed, c_rows, t * BLOCK_M, c_rows.len() / n, k, n);
    }
    c
}

/// All of logical B repacked into `nr`-column micro-panels, grouped by
/// k-tile: slot `(kc_idx, q)` holds `B[kc .. kc+kb, q·nr .. q·nr+nr]` as
/// `kb` rows of `nr` contiguous values (zero-padded at both remainders).
/// Padded lanes feed don't-care accumulator columns that are never stored.
/// One implementation serves every micro-kernel backend: the panel width
/// `nr` is a constructor parameter, and each `(k-tile, column-panel)` slot
/// is the fixed size `min(k, BLOCK_K)·nr` so panel addresses are computable
/// without per-tile offset tables and a shallow GEMM zero-fills no more
/// than it packs.
struct PackedB {
    buf: Vec<f32>,
    n_panels: usize,
    slot: usize,
}

impl PackedB {
    fn new(orient: Orient, b: &Matrix, k: usize, n: usize, nr: usize) -> Self {
        let slot = k.min(BLOCK_K) * nr;
        let n_panels = n.div_ceil(nr);
        let k_tiles = k.div_ceil(BLOCK_K);
        // Pre-zeroed, each slot written once: padding needs no extra pass.
        let mut buf = vec![0.0f32; k_tiles * n_panels * slot];
        for (kc_idx, kc) in (0..k).step_by(BLOCK_K).enumerate() {
            let kb = (k - kc).min(BLOCK_K);
            for q in 0..n_panels {
                let slot_buf = &mut buf[(kc_idx * n_panels + q) * slot..][..slot];
                let j = q * nr;
                let cols = (n - j).min(nr);
                match orient {
                    Orient::Nn | Orient::Tn => {
                        // Stored row-major [k, n]: copy a row stripe per kk.
                        for kk in 0..kb {
                            let src = &b.row(kc + kk)[j..j + cols];
                            slot_buf[kk * nr..kk * nr + cols].copy_from_slice(src);
                        }
                    }
                    Orient::Nt => {
                        // Logical B = stored Bᵀ [n, k]: logical column j is
                        // storage row j — walk it contiguously, scatter with
                        // stride nr.
                        for (l, row) in (0..cols).map(|l| (l, b.row(j + l))) {
                            for (dst, &v) in slot_buf.chunks_exact_mut(nr).zip(&row[kc..kc + kb]) {
                                dst[l] = v;
                            }
                        }
                    }
                }
            }
        }
        Self { buf, n_panels, slot }
    }

    fn panel(&self, kc_idx: usize, q: usize) -> &[f32] {
        &self.buf[(kc_idx * self.n_panels + q) * self.slot..][..self.slot]
    }
}

/// Monomorphizes the row-block sweep over the backend's tile constants.
/// The enum → const-generic hop happens once per row block, far off the
/// hot path; everything below it compiles with `MR`/`NR` as literals.
#[allow(clippy::too_many_arguments)]
fn gemm_row_block(
    kernel: MicroKernel,
    orient: Orient,
    a: &Matrix,
    b_packed: &PackedB,
    c_rows: &mut [f32],
    i0: usize,
    mb: usize,
    k: usize,
    n: usize,
) {
    match kernel {
        MicroKernel::Scalar => gemm_row_block_g::<SCALAR_MR, SCALAR_NR>(
            kernel, orient, a, b_packed, c_rows, i0, mb, k, n,
        ),
        MicroKernel::Avx2 => {
            gemm_row_block_g::<AVX2_MR, AVX2_NR>(kernel, orient, a, b_packed, c_rows, i0, mb, k, n)
        }
        MicroKernel::Avx512 => gemm_row_block_g::<AVX512_MR, AVX512_NR>(
            kernel, orient, a, b_packed, c_rows, i0, mb, k, n,
        ),
    }
}

/// Computes rows `[i0, i0+mb)` of C. Per k-tile: repack the A row panel
/// (once — it is reused across every column panel), then sweep column panels
/// outer / row panels inner so each packed B panel stays L1-resident while
/// the L2-resident A panel streams past it.
#[allow(clippy::too_many_arguments)]
fn gemm_row_block_g<const MR: usize, const NR: usize>(
    kernel: MicroKernel,
    orient: Orient,
    a: &Matrix,
    b_packed: &PackedB,
    c_rows: &mut [f32],
    i0: usize,
    mb: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(b_packed.slot, k.min(BLOCK_K) * NR, "B packed for a different backend");
    let row_panels = mb.div_ceil(MR);
    let mut a_pack = vec![0.0f32; row_panels * MR * k.min(BLOCK_K)];
    for (kc_idx, kc) in (0..k).step_by(BLOCK_K).enumerate() {
        let kb = (k - kc).min(BLOCK_K);
        pack_a(orient, a, &mut a_pack, i0, mb, kc, kb, MR);
        for q in 0..b_packed.n_panels {
            let cols = (n - q * NR).min(NR);
            let b_panel = b_packed.panel(kc_idx, q);
            for p in 0..row_panels {
                let rows = (mb - p * MR).min(MR);
                let a_panel = &a_pack[p * kb * MR..(p + 1) * kb * MR];
                micro_kernel::<MR, NR>(
                    kernel,
                    a_panel,
                    b_panel,
                    kb,
                    c_rows,
                    p * MR,
                    q * NR,
                    n,
                    rows,
                    cols,
                );
            }
        }
    }
}

/// `MR×NR` register-tile update: `C[tile] += Apanel · Bpanel` over `kb`
/// depth steps, always by the backend's own full-tile kernel. A remainder
/// tile (`rows < MR` or `cols < NR`) is staged through a zeroed `MR×NR`
/// stack tile: the zero-padded pack lanes feed its don't-care accumulators,
/// and only the valid region is copied back. Each valid element therefore
/// sees exactly the arithmetic a full tile would give it, so a backend has
/// one numerics class on every shape.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_kernel<const MR: usize, const NR: usize>(
    kernel: MicroKernel,
    a_panel: &[f32],
    b_panel: &[f32],
    kb: usize,
    c_rows: &mut [f32],
    ci: usize,
    cj: usize,
    n: usize,
    rows: usize,
    cols: usize,
) {
    if rows == MR && cols == NR {
        full_tile::<MR, NR>(kernel, a_panel, b_panel, kb, c_rows, ci, cj, n);
        return;
    }
    let mut tile = [[0.0f32; NR]; MR];
    for (r, tile_row) in tile.iter_mut().enumerate().take(rows) {
        tile_row[..cols].copy_from_slice(&c_rows[(ci + r) * n + cj..][..cols]);
    }
    full_tile::<MR, NR>(kernel, a_panel, b_panel, kb, tile.as_flattened_mut(), 0, 0, NR);
    for (r, tile_row) in tile.iter().enumerate().take(rows) {
        c_rows[(ci + r) * n + cj..][..cols].copy_from_slice(&tile_row[..cols]);
    }
}

/// Runs the backend's kernel on the full `MR×NR` tile at `(ci, cj)` of `c`
/// (row stride `n`).
#[allow(clippy::too_many_arguments)]
#[inline]
fn full_tile<const MR: usize, const NR: usize>(
    kernel: MicroKernel,
    a_panel: &[f32],
    b_panel: &[f32],
    kb: usize,
    c: &mut [f32],
    ci: usize,
    cj: usize,
    n: usize,
) {
    assert_eq!((MR, NR), (kernel.mr(), kernel.nr()), "tile constants of another backend");
    assert!(a_panel.len() >= kb * MR && b_panel.len() >= kb * NR, "packed panel too short");
    assert!((ci + MR - 1) * n + cj + NR <= c.len(), "C tile out of bounds");
    match kernel {
        MicroKernel::Scalar => micro_kernel_scalar::<MR, NR>(a_panel, b_panel, kb, c, ci, cj, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a vector backend is only dispatched after `supported()`
        // verified its CPU features (gemm_blocked asserts it); the three
        // asserts above are the kernel's panel-length and tile-bounds
        // requirements for this backend's `MR×NR`.
        MicroKernel::Avx2 => unsafe { micro_kernel_avx2(a_panel, b_panel, kb, c, ci, cj, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as for `Avx2`.
        MicroKernel::Avx512 => unsafe { micro_kernel_avx512(a_panel, b_panel, kb, c, ci, cj, n) },
        #[cfg(not(target_arch = "x86_64"))]
        MicroKernel::Avx2 | MicroKernel::Avx512 => {
            unreachable!("vector backends cannot be selected off x86_64")
        }
    }
}

/// Scalar full-tile kernel. Every access to `acc` is a constant index
/// (the `MR`/`NR` loops fully unroll), so the array lives in registers;
/// loading the C tile first keeps each element's k-chain unbroken across
/// k-tiles.
#[inline]
fn micro_kernel_scalar<const MR: usize, const NR: usize>(
    a_panel: &[f32],
    b_panel: &[f32],
    kb: usize,
    c_rows: &mut [f32],
    ci: usize,
    cj: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        let src: &[f32; NR] = c_rows[(ci + r) * n + cj..][..NR].try_into().unwrap();
        *acc_row = *src;
    }
    for (av, bv) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)).take(kb) {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let ar = av[r];
            for (x, &bl) in acc_row.iter_mut().zip(bv) {
                *x += ar * bl;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let dst: &mut [f32; NR] = (&mut c_rows[(ci + r) * n + cj..][..NR]).try_into().unwrap();
        *dst = *acc_row;
    }
}

/// One FMA full-tile kernel body, instantiated per vector width: an
/// `MR × 2·LANES` C tile held in `2·MR` vector accumulators, per depth step
/// two B loads and `MR` A broadcasts feeding the fused multiply-add. FMA
/// fuses each `a·b + c` into one rounding, so these backends' k-chains
/// differ from scalar in the last ulps; the chain is the same strictly
/// ascending-k `fma(a, b, c)` at either width, which is what makes the two
/// instances bitwise identical to each other.
#[cfg(target_arch = "x86_64")]
macro_rules! fma_micro_kernel {
    ($name:ident, $features:literal, $mr:ident, $lanes:literal,
     $zero:ident, $load:ident, $store:ident, $splat:ident, $fmadd:ident) => {
        /// # Safety
        /// Caller must guarantee the host supports this kernel's target
        /// features, that `a_panel` holds at least `kb·MR` f32, `b_panel`
        /// at least `kb·NR`, and that rows `ci..ci+MR` × cols `cj..cj+NR`
        /// are in-bounds in `c_rows` (row stride `n`).
        #[target_feature(enable = $features)]
        unsafe fn $name(
            a_panel: &[f32],
            b_panel: &[f32],
            kb: usize,
            c_rows: &mut [f32],
            ci: usize,
            cj: usize,
            n: usize,
        ) {
            use std::arch::x86_64::*;
            let mut acc = [[$zero(); 2]; $mr];
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let p = c_rows.as_ptr().add((ci + r) * n + cj);
                acc_row[0] = $load(p);
                acc_row[1] = $load(p.add($lanes));
            }
            let mut ap = a_panel.as_ptr();
            let mut bp = b_panel.as_ptr();
            for _ in 0..kb {
                let b0 = $load(bp);
                let b1 = $load(bp.add($lanes));
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let ar = $splat(*ap.add(r));
                    acc_row[0] = $fmadd(ar, b0, acc_row[0]);
                    acc_row[1] = $fmadd(ar, b1, acc_row[1]);
                }
                ap = ap.add($mr);
                bp = bp.add(2 * $lanes);
            }
            for (r, acc_row) in acc.iter().enumerate() {
                let p = c_rows.as_mut_ptr().add((ci + r) * n + cj);
                $store(p, acc_row[0]);
                $store(p.add($lanes), acc_row[1]);
            }
        }
    };
}

// `6×16`: 12 ymm accumulators + two B loads + the A broadcast of 16
// registers (the BLIS Haswell shape).
#[cfg(target_arch = "x86_64")]
fma_micro_kernel!(
    micro_kernel_avx2,
    "avx2,fma",
    AVX2_MR,
    8,
    _mm256_setzero_ps,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_fmadd_ps
);

// `8×32`: 16 zmm accumulators + two B loads + the A broadcast of 32
// registers.
#[cfg(target_arch = "x86_64")]
fma_micro_kernel!(
    micro_kernel_avx512,
    "avx512f",
    AVX512_MR,
    16,
    _mm512_setzero_ps,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    _mm512_set1_ps,
    _mm512_fmadd_ps
);

/// Packs logical-A rows `[i0, i0+mb) × [kc, kc+kb)` into `mr`-row panels:
/// `buf[(panel·kb + kk)·mr + r]`, zero-padding the row remainder (padded
/// rows are computed into don't-care accumulator lanes and never stored).
/// Shared by every micro-kernel backend via the `mr` parameter.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    orient: Orient,
    a: &Matrix,
    buf: &mut [f32],
    i0: usize,
    mb: usize,
    kc: usize,
    kb: usize,
    mr: usize,
) {
    let panels = mb.div_ceil(mr);
    match orient {
        Orient::Nn | Orient::Nt => {
            // Logical A is the stored matrix: copy row slices, stride mr out.
            for p in 0..panels {
                let panel = &mut buf[p * kb * mr..(p + 1) * kb * mr];
                let rows = (mb - p * mr).min(mr);
                for r in 0..mr {
                    if r < rows {
                        let a_row = &a.row(i0 + p * mr + r)[kc..kc + kb];
                        for (kk, &v) in a_row.iter().enumerate() {
                            panel[kk * mr + r] = v;
                        }
                    } else {
                        for kk in 0..kb {
                            panel[kk * mr + r] = 0.0;
                        }
                    }
                }
            }
        }
        Orient::Tn => {
            // Logical A = stored Aᵀ: row kk of storage holds the panel's
            // r-contiguous values, so each copy is a contiguous stripe.
            for p in 0..panels {
                let panel = &mut buf[p * kb * mr..(p + 1) * kb * mr];
                let rows = (mb - p * mr).min(mr);
                for kk in 0..kb {
                    let src = &a.row(kc + kk)[i0 + p * mr..i0 + p * mr + rows];
                    let dst = &mut panel[kk * mr..kk * mr + mr];
                    dst[..rows].copy_from_slice(src);
                    dst[rows..].fill(0.0);
                }
            }
        }
    }
}

/// Flop count of a `[m,k] x [k,n]` multiply-accumulate product. All three
/// orientations above perform exactly this much work; the shadow backend
/// charges the same number so dense and shadow runs agree on metering.
pub fn matmul_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    fn reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                c[(i, j)] = acc;
            }
        }
        c
    }

    #[test]
    fn matmul_matches_reference() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let a = Matrix::random_uniform(7, 5, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(5, 9, -1.0, 1.0, &mut rng);
        crate::assert_slices_close(matmul(&a, &b).data(), reference(&a, &b).data(), 1e-5);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let a = Matrix::random_uniform(4, 4, -1.0, 1.0, &mut rng);
        assert_eq!(matmul(&a, &Matrix::eye(4)), a);
        assert_eq!(matmul(&Matrix::eye(4), &a), a);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let a = Matrix::random_uniform(6, 4, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(8, 4, -1.0, 1.0, &mut rng);
        crate::assert_slices_close(
            matmul_nt(&a, &b).data(),
            matmul(&a, &b.transpose()).data(),
            1e-5,
        );
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let a = Matrix::random_uniform(4, 6, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(4, 8, -1.0, 1.0, &mut rng);
        crate::assert_slices_close(
            matmul_tn(&a, &b).data(),
            matmul(&a.transpose(), &b).data(),
            1e-5,
        );
    }

    #[test]
    fn associativity_within_tolerance() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let a = Matrix::random_uniform(5, 6, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(6, 7, -1.0, 1.0, &mut rng);
        let c = Matrix::random_uniform(7, 3, -1.0, 1.0, &mut rng);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        crate::assert_slices_close(left.data(), right.data(), 1e-4);
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(matmul_flops(2, 3, 4), 48.0);
    }

    #[test]
    #[should_panic(expected = "matmul: inner dims")]
    fn mismatched_dims_panic() {
        matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    #[test]
    fn kernel_table_is_consistent() {
        let table = MicroKernel::ALL.map(|k| (k.name(), k.mr(), k.nr()));
        assert_eq!(table, [("scalar", 4, 8), ("avx2", 6, 16), ("avx512", 8, 32)]);
        for k in MicroKernel::ALL {
            // Row blocks are BLOCK_M rows: a taller tile never fills.
            assert!(k.mr() <= BLOCK_M);
        }
        assert!(MicroKernel::Scalar.supported(), "scalar must run everywhere");
        // The resolved process-wide backend must itself be runnable.
        assert!(active_kernel().supported());
        // OnceLock: the same answer every time.
        assert_eq!(active_kernel(), active_kernel());
    }

    /// Regression for the removed zero-skip branch: `0 · NaN` must reach C
    /// as NaN (IEEE 754), in every orientation and on every kernel path.
    #[test]
    fn zero_times_nan_propagates() {
        let mut a = Matrix::zeros(2, 3); // A is all zeros, incl. the NaN row
        a[(1, 1)] = 1.0;
        let mut b = Matrix::full(3, 2, 1.0);
        b[(0, 0)] = f32::NAN; // multiplied only by A's zeros
        let c = matmul_serial(&a, &b);
        assert!(c[(0, 0)].is_nan(), "0 * NaN must propagate into C");
        assert!(c[(1, 0)].is_nan());
        assert!(!c[(0, 1)].is_nan());
        for kernel in MicroKernel::available() {
            let cb = matmul_blocked_with(&a, &b, kernel);
            assert!(cb[(0, 0)].is_nan() && cb[(1, 0)].is_nan() && !cb[(0, 1)].is_nan());
        }

        // Aᵀ·B with a zero in Aᵀ against a NaN in B.
        let mut at = Matrix::zeros(3, 2);
        at[(2, 0)] = 2.0;
        let ct = matmul_tn_serial(&at, &b);
        assert!(ct[(0, 0)].is_nan());
        // A·Bᵀ: NaN in B's column hit by a zero of A.
        let mut bt = Matrix::full(2, 3, 1.0);
        bt[(0, 0)] = f32::NAN;
        let cn = matmul_nt_serial(&a, &bt);
        assert!(cn[(0, 0)].is_nan());

        // The packed A·Bᵀ form: enough rows and columns for a full vector
        // tile, a single-row tile and a partial strip on every backend.
        let mut a = Matrix::zeros(5, 3);
        a[(4, 1)] = 1.0;
        let mut bt = Matrix::full(33, 3, 1.0);
        bt[(32, 0)] = f32::NAN; // met only by A's zeros
        bt[(0, 2)] = f32::INFINITY; // 0 · inf
        for kernel in MicroKernel::available() {
            let cn = matmul_nt_serial_with(&a, &bt, kernel);
            let kn = kernel.name();
            assert!((0..5).all(|i| cn[(i, 32)].is_nan() && cn[(i, 0)].is_nan()), "{kn}");
            assert!((0..5).all(|i| (1..32).all(|j| !cn[(i, j)].is_nan())), "{kn}");
        }
    }

    /// `a` and `b` hold the same bits, any NaN standing for any other (a NaN
    /// payload depends on operand order, which the compiler may commute).
    fn assert_same_bits(label: &str, a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape(), "{label}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            let same = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
            assert!(same, "{label}: flat index {i}: {x:e} vs {y:e}");
        }
    }

    /// Every width instance of the serial path is one function: bitwise the
    /// baseline (scalar) instance in all three orientations, on shapes on
    /// both sides of every row-tile, vector and strip edge, and again with
    /// a zero row, a NaN and both infinities in each operand.
    #[test]
    fn serial_width_instances_equal_the_baseline_bitwise() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(22);
        let s = MicroKernel::Scalar;
        for m in [1, 3, 4, 5, 8, 17, 33] {
            for k in [0, 1, 7, 8, 33, 128] {
                for n in [1, 7, 8, 15, 16, 17, 31, 32, 33, 129] {
                    for specials in [false, true] {
                        let mut gen = |rows, cols| {
                            let mut x = Matrix::random_uniform(rows, cols, -2.0, 2.0, &mut rng);
                            let len = x.len();
                            if specials && len > 0 {
                                x.row_mut(0).fill(0.0);
                                x.data_mut()[len / 3] = f32::INFINITY;
                                x.data_mut()[len / 2] = f32::NAN;
                                x.data_mut()[len - 1] = f32::NEG_INFINITY;
                            }
                            x
                        };
                        let (a, b, bt, at) = (gen(m, k), gen(k, n), gen(n, k), gen(k, m));
                        let nn = matmul_serial_with(&a, &b, s);
                        let nt = matmul_nt_serial_with(&a, &bt, s);
                        let tn = matmul_tn_serial_with(&at, &b, s);
                        for kernel in MicroKernel::available().skip(1) {
                            let l = format!("{} {m}x{k}x{n} specials={specials}", kernel.name());
                            assert_same_bits(&l, &nn, &matmul_serial_with(&a, &b, kernel));
                            assert_same_bits(&l, &nt, &matmul_nt_serial_with(&a, &bt, kernel));
                            assert_same_bits(&l, &tn, &matmul_tn_serial_with(&at, &b, kernel));
                        }
                    }
                }
            }
        }
    }

    /// The scalar backend must agree bit-for-bit with the serial triple
    /// loops, so dispatch on the scalar path can never change results.
    #[test]
    fn serial_and_blocked_scalar_agree_bitwise_at_the_threshold() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let a = Matrix::random_uniform(64, 64, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(64, 64, -1.0, 1.0, &mut rng);
        let k = MicroKernel::Scalar;
        assert_eq!(matmul_serial(&a, &b), matmul_blocked_with(&a, &b, k));
        assert_eq!(matmul_nt_serial(&a, &b), matmul_nt_blocked_with(&a, &b, k));
        assert_eq!(matmul_tn_serial(&a, &b), matmul_tn_blocked_with(&a, &b, k));
    }

    /// Across the two numerics classes results agree within floating-point
    /// tolerance (FMA rounds once per step), and within the fused class bit
    /// for bit.
    #[test]
    fn cross_path_tolerance() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let (m, k, n) = (70, 97, 45);
        let a = Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
        let scalar = matmul_blocked_with(&a, &b, MicroKernel::Scalar);
        let mut fused: Option<Matrix> = None;
        for kernel in MicroKernel::available().skip(1) {
            let c = matmul_blocked_with(&a, &b, kernel);
            assert!(
                crate::max_rel_diff(scalar.data(), c.data()) < 1e-5,
                "scalar and {} backends diverged beyond FMA rounding",
                kernel.name()
            );
            assert_eq!(fused.get_or_insert_with(|| c.clone()), &c, "avx2 != avx512");
        }
    }

    #[test]
    fn planned_path_thresholds() {
        assert_eq!(planned_path(4, 4, 4), KernelPath::Serial);
        assert_eq!(planned_path(64, 64, 64), KernelPath::Blocked);
        // Degenerate outputs stay serial no matter how much work k adds.
        assert_eq!(planned_path(1, 1 << 20, 1), KernelPath::Serial);
        assert_eq!(planned_path(usize::MAX, 2, usize::MAX), KernelPath::Blocked);
    }

    #[test]
    fn empty_dims_yield_zero_matrices() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 5);
        let c = matmul_blocked_with(&a, &b, active_kernel());
        assert_eq!(c.shape(), (3, 5));
        assert!(c.data().iter().all(|&v| v == 0.0));
    }
}
