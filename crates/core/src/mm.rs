//! The Tesseract parallel matrix multiplication (paper §3.1, Algorithm 3)
//! and its transpose variants, which together implement the forward pass
//! and the backward rules of Eq. 3 (`A' = C'·Bᵀ`, `B' = Aᵀ·C'` with the
//! depth all-reduce of `B'`).
//!
//! All entry points are SPMD: every rank of the grid calls them with its
//! local blocks and receives its local block of the result. With `d = 1`
//! they are exactly 2-D SUMMA (Optimus); with `d = q` they are a 3-D
//! algorithm; in between they are the paper's 2.5-D scheme in which the `d`
//! layers run `q×q` SUMMA multiplications concurrently over disjoint row
//! bands of `A`/`C`, sharing only the replicated `B`.
//!
//! # One double-buffered loop
//!
//! Algorithm 3 is one loop, and `summa_pipeline` is its only pipelined
//! implementation, written against three seams: **fetch** begins the
//! step-`t` panel collectives (row/column broadcasts), **multiply** turns
//! the completed panels into the step's partial product (`matmul` /
//! `matmul_nt` / `matmul_tn`), and a **sink** (`Sink`) disposes of the
//! partial (accumulate, or reduce to the step's root). The three public
//! entry points only pick the seams.
//!
//! The loop is **double-buffered** on the split-phase collectives: the
//! step-`t+1` fetch is begun before the step-`t` partial is computed, so
//! the rendezvous wait overlaps the GEMM; the reducing sinks likewise
//! complete each reduction one step late, and the depth all-reduce of `B'`
//! is begun the moment the local contribution is final. Results are
//! **bitwise identical** to the blocking `*_serial` loops (same shared
//! `Arc` panels, same ascending-member folds), which stay as the reference
//! the parity suite, `overlap_sweep` and `trace_dump` compare against; only
//! the virtual clock improves (`Meter::overlap_hidden_nanos`).

use std::sync::Arc;

use tesseract_comm::{CommGroup, Payload, PendingCollective, RankCtx};
use tesseract_tensor::TensorLike;

use crate::grid::TesseractGrid;

/// Collectives begun for one SUMMA step; completing them yields the step's
/// panels. Tuples complete left to right.
trait Prefetch {
    type Panels;
    fn complete(self, ctx: &mut RankCtx) -> Self::Panels;
}

impl<R> Prefetch for PendingCollective<'_, R> {
    type Panels = R;
    fn complete(self, ctx: &mut RankCtx) -> R {
        PendingCollective::complete(self, ctx)
    }
}

impl<A: Prefetch, B: Prefetch> Prefetch for (A, B) {
    type Panels = (A::Panels, B::Panels);
    fn complete(self, ctx: &mut RankCtx) -> Self::Panels {
        let a = self.0.complete(ctx);
        let b = self.1.complete(ctx);
        (a, b)
    }
}

/// Where a SUMMA step's partial product goes.
trait Sink<T> {
    type Out;
    /// Disposes of the step-`t` partial.
    fn push(&mut self, ctx: &mut RankCtx, t: usize, partial: T);
    /// Settles whatever is still in flight and returns the result block.
    fn finish(self, ctx: &mut RankCtx) -> Self::Out;
}

/// The double-buffered SUMMA loop (Algorithm 3): per step, complete the
/// panels fetched one step ago, begin the next step's fetch, multiply, and
/// hand the partial to the sink — so every fetch (and every reduction a
/// sink begins) waits under the following GEMM.
fn summa_pipeline<T, F: Prefetch, S: Sink<T>>(
    ctx: &mut RankCtx,
    q: usize,
    fetch: impl Fn(&mut RankCtx, usize) -> F,
    multiply: impl Fn(&mut RankCtx, F::Panels) -> T,
    mut sink: S,
) -> S::Out {
    let mut next = Some(fetch(ctx, 0));
    for t in 0..q {
        let panels = next.take().expect("prefetched by the previous step").complete(ctx);
        if t + 1 < q {
            next = Some(fetch(ctx, t + 1));
        }
        let partial = multiply(ctx, panels);
        sink.push(ctx, t, partial);
    }
    sink.finish(ctx)
}

/// Begins the step-`t` row broadcast of an A-type panel: root `t` deposits
/// an `Arc::clone` of its local block (no self-clone) and every member
/// multiplies against the shared allocation.
fn row_panel_begin<'g, T: TensorLike + Payload>(
    grid: &'g TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &Arc<T>,
    t: usize,
) -> PendingCollective<'g, Arc<T>> {
    grid.row.broadcast_shared_begin(ctx, t, (grid.j() == t).then(|| Arc::clone(a_local)))
}

/// Begins the step-`t` column broadcast of a B-type panel.
fn col_panel_begin<'g, T: TensorLike + Payload>(
    grid: &'g TesseractGrid,
    ctx: &mut RankCtx,
    b_local: &Arc<T>,
    t: usize,
) -> PendingCollective<'g, Arc<T>> {
    grid.col.broadcast_shared_begin(ctx, t, (grid.i() == t).then(|| Arc::clone(b_local)))
}

/// Sink of the forward rule: `C += partial`, no communication.
struct Accumulate<T>(Option<T>);

impl<T: TensorLike> Sink<T> for Accumulate<T> {
    type Out = T;

    fn push(&mut self, ctx: &mut RankCtx, _t: usize, partial: T) {
        match self.0.as_mut() {
            None => self.0 = Some(partial),
            Some(c) => c.add_assign(&partial, &mut ctx.meter.scope("add")),
        }
    }

    fn finish(self, _ctx: &mut RankCtx) -> T {
        self.0.expect("q >= 1")
    }
}

/// Sink of the backward rules: the step-`t` partial is reduced over `fiber`
/// to member `t`, which owns block `t` of the result; each reduction is
/// completed one step late. With a `depth` fiber the root's combined block
/// enters the depth all-reduce the moment it is delivered — the same
/// program point on every member of that fiber, so its SPMD schedule stays
/// aligned — and overlaps the remaining SUMMA steps.
struct ReduceToRoot<'g, T> {
    fiber: &'g CommGroup,
    depth: Option<&'g CommGroup>,
    pending: Option<PendingCollective<'g, Option<Arc<T>>>>,
    depth_pending: Option<PendingCollective<'g, Arc<Arc<T>>>>,
    mine: Option<Arc<T>>,
}

impl<'g, T: TensorLike + Payload> ReduceToRoot<'g, T> {
    fn new(fiber: &'g CommGroup, depth: Option<&'g CommGroup>) -> Self {
        Self { fiber, depth, pending: None, depth_pending: None, mine: None }
    }

    fn settle(&mut self, ctx: &mut RankCtx) {
        match (self.pending.take().and_then(|p| p.complete(ctx)), self.depth) {
            // Reduce *through* the Arc: copy-on-write touches only member
            // 0's accumulator, and every depth replica ends up holding the
            // same combined allocation.
            (Some(r), Some(depth)) => {
                self.depth_pending = Some(depth.all_reduce_shared_begin(ctx, r))
            }
            (Some(r), None) => self.mine = Some(r),
            (None, _) => {}
        }
    }
}

impl<T: TensorLike + Payload> Sink<T> for ReduceToRoot<'_, T> {
    type Out = Arc<T>;

    fn push(&mut self, ctx: &mut RankCtx, t: usize, partial: T) {
        self.settle(ctx);
        self.pending = Some(self.fiber.reduce_shared_begin(ctx, t, partial));
    }

    fn finish(mut self, ctx: &mut RankCtx) -> Arc<T> {
        self.settle(ctx);
        if let Some(dp) = self.depth_pending {
            self.mine = Some(Arc::clone(&*dp.complete(ctx)));
        }
        self.mine.expect("every rank is root for exactly one t")
    }
}

/// `C = A·B` (Algorithm 3).
///
/// * `a_local`: this rank's A-type block `[a/(q·d), b/q]`.
/// * `b_local`: this rank's B-type block `[b/q, c/q]`.
/// * returns this rank's C-type block `[a/(q·d), c/q]`.
///
/// Per step `t`: `A_{i,t,k}` is broadcast along the row, `B_{t,j,k}` along
/// the column, and every rank accumulates `C += A_t · B_t`. No inter-layer
/// communication happens in the forward pass. The panels travel zero-copy,
/// so each is materialized exactly once per rendezvous regardless of the
/// group size. Data is bitwise identical to [`tesseract_matmul_serial`].
pub fn tesseract_matmul<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &Arc<T>,
    b_local: &Arc<T>,
) -> T
where
    T: TensorLike + Payload,
{
    assert_eq!(a_local.cols(), b_local.rows(), "tesseract_matmul: inner block dims disagree");
    summa_pipeline(
        ctx,
        grid.shape.q,
        |ctx, t| (row_panel_begin(grid, ctx, a_local, t), col_panel_begin(grid, ctx, b_local, t)),
        |ctx, (a_t, b_t)| a_t.matmul(&b_t, &mut ctx.meter.scope("gemm")),
        Accumulate(None),
    )
}

/// Blocking-collective reference for [`tesseract_matmul`]: the original
/// serial SUMMA loop (broadcast, broadcast, multiply — every step waits).
/// Kept as the parity baseline and the `overlap_sweep` ablation.
pub fn tesseract_matmul_serial<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &Arc<T>,
    b_local: &Arc<T>,
) -> T
where
    T: TensorLike + Payload,
{
    let q = grid.shape.q;
    assert_eq!(a_local.cols(), b_local.rows(), "tesseract_matmul: inner block dims disagree");
    let a_t = grid.row.broadcast_shared(ctx, 0, (grid.j() == 0).then(|| Arc::clone(a_local)));
    let b_t = grid.col.broadcast_shared(ctx, 0, (grid.i() == 0).then(|| Arc::clone(b_local)));
    let mut c = a_t.matmul(&b_t, &mut ctx.meter.scope("gemm"));
    for t in 1..q {
        let a_t = grid.row.broadcast_shared(ctx, t, (grid.j() == t).then(|| Arc::clone(a_local)));
        let b_t = grid.col.broadcast_shared(ctx, t, (grid.i() == t).then(|| Arc::clone(b_local)));
        let partial = a_t.matmul(&b_t, &mut ctx.meter.scope("gemm"));
        c.add_assign(&partial, &mut ctx.meter.scope("add"));
    }
    c
}

/// `C = A·Bᵀ` — the activation-gradient rule `A' = C'·Bᵀ` of Eq. 3.
///
/// * `a_local`: A-type block of `[a, c]` (e.g. the output gradient `C'`).
/// * `b_local`: B-type block of the `[b, c]` weight.
/// * returns the A-type block of `C = A·Bᵀ` with global shape `[a, b]`.
///
/// Per step `t`: `B_{t,j,k}` is broadcast along the column; every rank
/// computes `A · B_tᵀ` and the row reduces the partials to member `t`,
/// which owns column block `t` of the result. The weight panel is
/// `Arc`-shared along the column and the freshly computed partials are
/// consumed by the in-place row reduction, so the whole backward rule
/// performs zero payload copies. Data is bitwise identical to
/// [`tesseract_matmul_nt_serial`].
pub fn tesseract_matmul_nt<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &T,
    b_local: &Arc<T>,
) -> Arc<T>
where
    T: TensorLike + Payload,
{
    assert_eq!(a_local.cols(), b_local.cols(), "tesseract_matmul_nt: inner block dims disagree");
    summa_pipeline(
        ctx,
        grid.shape.q,
        |ctx, t| col_panel_begin(grid, ctx, b_local, t),
        |ctx, b_t| a_local.matmul_nt(&b_t, &mut ctx.meter.scope("gemm")),
        ReduceToRoot::new(&grid.row, None),
    )
}

/// Blocking-collective reference for [`tesseract_matmul_nt`]: one fully
/// synchronous broadcast + reduce per step.
pub fn tesseract_matmul_nt_serial<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &T,
    b_local: &Arc<T>,
) -> Arc<T>
where
    T: TensorLike + Payload,
{
    let q = grid.shape.q;
    assert_eq!(a_local.cols(), b_local.cols(), "tesseract_matmul_nt: inner block dims disagree");
    let mut mine: Option<Arc<T>> = None;
    for t in 0..q {
        let b_t = grid.col.broadcast_shared(ctx, t, (grid.i() == t).then(|| Arc::clone(b_local)));
        let partial = a_local.matmul_nt(&b_t, &mut ctx.meter.scope("gemm"));
        let reduced = grid.row.reduce_shared(ctx, t, partial);
        if grid.j() == t {
            mine = Some(reduced.expect("root receives reduction"));
        }
    }
    mine.expect("every rank is root for exactly one t")
}

/// `C = Aᵀ·B` — the weight-gradient rule `B' = Aᵀ·C'` of Eq. 3.
///
/// * `a_local`: A-type block of `[a, b]` (e.g. the cached input `A`).
/// * `b_local`: A-type block of `[a, c]` (e.g. the output gradient `C'`).
/// * returns the B-type block of `C = Aᵀ·B` with global shape `[b, c]`.
///
/// Per step `t`: `A_{i,t,k}` is broadcast along the row; every rank
/// computes `A_tᵀ · B` and the column reduces the partials to member `t`.
/// Because each depth layer only sums its own row band `h = i + k·q`, the
/// partial weight gradients are finally **all-reduced across depth**
/// (`depth_reduce = true`), exactly as §3.1 prescribes for `B'`. Pass
/// `false` to inspect the per-layer partials (used by tests and ablations).
/// Data is bitwise identical to [`tesseract_matmul_tn_serial`].
pub fn tesseract_matmul_tn<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &Arc<T>,
    b_local: &T,
    depth_reduce: bool,
) -> Arc<T>
where
    T: TensorLike + Payload,
{
    assert_eq!(a_local.rows(), b_local.rows(), "tesseract_matmul_tn: inner block dims disagree");
    summa_pipeline(
        ctx,
        grid.shape.q,
        |ctx, t| row_panel_begin(grid, ctx, a_local, t),
        |ctx, a_t| a_t.matmul_tn(b_local, &mut ctx.meter.scope("gemm")),
        ReduceToRoot::new(&grid.col, (depth_reduce && grid.shape.d > 1).then_some(&grid.depth)),
    )
}

/// Blocking-collective reference for [`tesseract_matmul_tn`]: one fully
/// synchronous broadcast + reduce per step, depth all-reduce at the end.
pub fn tesseract_matmul_tn_serial<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &Arc<T>,
    b_local: &T,
    depth_reduce: bool,
) -> Arc<T>
where
    T: TensorLike + Payload,
{
    let q = grid.shape.q;
    assert_eq!(a_local.rows(), b_local.rows(), "tesseract_matmul_tn: inner block dims disagree");
    let mut mine: Option<Arc<T>> = None;
    for t in 0..q {
        let a_t = grid.row.broadcast_shared(ctx, t, (grid.j() == t).then(|| Arc::clone(a_local)));
        let partial = a_t.matmul_tn(b_local, &mut ctx.meter.scope("gemm"));
        let reduced = grid.col.reduce_shared(ctx, t, partial);
        if grid.i() == t {
            mine = Some(reduced.expect("root receives reduction"));
        }
    }
    let mut c = mine.expect("every rank is root for exactly one t");
    if depth_reduce && grid.shape.d > 1 {
        // Reduce *through* the Arc: copy-on-write touches only member 0's
        // accumulator, and every depth replica ends up holding the same
        // combined allocation.
        c = Arc::clone(&*grid.depth.all_reduce_shared(ctx, c));
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridShape;
    use crate::partition::{a_block, b_block, combine_b, combine_c};
    use tesseract_comm::Cluster;
    use tesseract_tensor::{
        assert_slices_close, matmul, DenseTensor, Matrix, ShadowTensor, Xoshiro256StarStar,
    };

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng)
    }

    fn run_matmul(shape: GridShape, a: &Matrix, b: &Matrix) -> Matrix {
        let out = Cluster::a100(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            let a_loc = Arc::new(DenseTensor::from_matrix(a_block(a, shape, i, j, k)));
            let b_loc = Arc::new(DenseTensor::from_matrix(b_block(b, shape, i, j)));
            tesseract_matmul(&grid, ctx, &a_loc, &b_loc).into_matrix()
        });
        combine_c(&out.results, shape)
    }

    #[test]
    fn matmul_matches_serial_on_2x2x1() {
        let shape = GridShape::new(2, 1);
        let a = random(8, 6, 1);
        let b = random(6, 4, 2);
        let got = run_matmul(shape, &a, &b);
        assert_slices_close(got.data(), matmul::matmul(&a, &b).data(), 1e-4);
    }

    #[test]
    fn matmul_matches_serial_on_2x2x2() {
        let shape = GridShape::new(2, 2);
        let a = random(8, 6, 3);
        let b = random(6, 4, 4);
        let got = run_matmul(shape, &a, &b);
        assert_slices_close(got.data(), matmul::matmul(&a, &b).data(), 1e-4);
    }

    #[test]
    fn matmul_matches_serial_on_3x3x2() {
        let shape = GridShape::new(3, 2);
        let a = random(12, 9, 5);
        let b = random(9, 6, 6);
        let got = run_matmul(shape, &a, &b);
        assert_slices_close(got.data(), matmul::matmul(&a, &b).data(), 1e-4);
    }

    #[test]
    fn matmul_matches_serial_on_2x2x4_cube_exceeding_depth() {
        // d > q is unusual but nothing in the algorithm forbids it.
        let shape = GridShape::new(2, 4);
        let a = random(16, 4, 7);
        let b = random(4, 4, 8);
        let got = run_matmul(shape, &a, &b);
        assert_slices_close(got.data(), matmul::matmul(&a, &b).data(), 1e-4);
    }

    #[test]
    fn matmul_nt_matches_serial() {
        for (q, d, seed) in [(2usize, 1usize, 10u64), (2, 2, 11), (3, 2, 12)] {
            let shape = GridShape::new(q, d);
            // Global: A [a, c], B [b, c] → C = A·Bᵀ is [a, b].
            let (a_rows, b_rows, c_cols) = (4 * q * d, 2 * q, 3 * q);
            let a = random(a_rows, c_cols, seed);
            let b = random(b_rows, c_cols, seed + 100);
            let out = Cluster::a100(shape.size()).run(|ctx| {
                let grid = TesseractGrid::new(ctx, shape, 0);
                let (i, j, k) = grid.coords;
                let a_loc = DenseTensor::from_matrix(a_block(&a, shape, i, j, k));
                let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
                tesseract_matmul_nt(&grid, ctx, &a_loc, &b_loc).matrix().clone()
            });
            let got = combine_c(&out.results, shape);
            let expected = matmul::matmul_nt(&a, &b);
            assert_slices_close(got.data(), expected.data(), 1e-4);
        }
    }

    #[test]
    fn matmul_tn_matches_serial_with_depth_reduce() {
        for (q, d, seed) in [(2usize, 1usize, 20u64), (2, 2, 21), (3, 2, 22)] {
            let shape = GridShape::new(q, d);
            // Global: A [a, b], B [a, c] → C = Aᵀ·B is [b, c] (B-type).
            let (a_rows, b_cols, c_cols) = (4 * q * d, 2 * q, 3 * q);
            let a = random(a_rows, b_cols, seed);
            let b = random(a_rows, c_cols, seed + 100);
            let out = Cluster::a100(shape.size()).run(|ctx| {
                let grid = TesseractGrid::new(ctx, shape, 0);
                let (i, j, k) = grid.coords;
                let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
                let b_loc = DenseTensor::from_matrix(a_block(&b, shape, i, j, k));
                tesseract_matmul_tn(&grid, ctx, &a_loc, &b_loc, true).matrix().clone()
            });
            let got = combine_b(&out.results, shape);
            let expected = matmul::matmul_tn(&a, &b);
            assert_slices_close(got.data(), expected.data(), 1e-4);

            // All depth replicas must agree after the all-reduce.
            for off in 0..shape.size() {
                let (i, j, _k) = shape.coords_of(off);
                let replica0 = &out.results[shape.offset_of(i, j, 0)];
                assert_eq!(&out.results[off], replica0);
            }
        }
    }

    #[test]
    fn without_depth_reduce_layers_hold_partials() {
        let shape = GridShape::new(2, 2);
        let a = random(8, 4, 30);
        let b = random(8, 6, 31);
        let out = Cluster::a100(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
            let b_loc = DenseTensor::from_matrix(a_block(&b, shape, i, j, k));
            tesseract_matmul_tn(&grid, ctx, &a_loc, &b_loc, false).matrix().clone()
        });
        // Summing partials across depth by hand must equal the full result.
        let mut parts = Vec::new();
        for off in 0..shape.size() {
            let (i, j, k) = shape.coords_of(off);
            if k == 0 {
                let mut sum = out.results[shape.offset_of(i, j, 0)].clone();
                sum.add_assign(&out.results[shape.offset_of(i, j, 1)]);
                parts.push(sum);
            } else {
                parts.push(Matrix::zeros(1, 1)); // placeholder, unused by combine_b
            }
        }
        // Rebuild using only k = 0 entries.
        let mut full_parts = vec![Matrix::zeros(4 / 2, 6 / 2); shape.size()];
        let mut idx = 0;
        for off in 0..shape.size() {
            let (_i, _j, k) = shape.coords_of(off);
            if k == 0 {
                full_parts[off] = parts[idx].clone();
                idx += 1;
            }
        }
        let got = combine_b(&full_parts, shape);
        let expected = matmul::matmul_tn(&a, &b);
        assert_slices_close(got.data(), expected.data(), 1e-4);
    }

    #[test]
    fn shadow_backend_runs_same_code_path() {
        let shape = GridShape::new(2, 2);
        let out = Cluster::a100(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            // Global A [16, 8], B [8, 8] at shadow scale.
            let a_loc = Arc::new(ShadowTensor::new(16 / 4, 8 / 2));
            let b_loc = Arc::new(ShadowTensor::new(8 / 2, 8 / 2));
            let c = tesseract_matmul(&grid, ctx, &a_loc, &b_loc);
            ctx.flush_compute();
            (c.shape(), ctx.clock())
        });
        for (shape_c, clock) in &out.results {
            assert_eq!(*shape_c, (4, 4));
            assert!(*clock > 0.0);
        }
        // Broadcasts happened: 2 per step × q steps × (rows+cols groups).
        assert!(out.comm.get(tesseract_comm::CollectiveOp::Broadcast).calls > 0);
    }

    #[test]
    fn dense_and_shadow_report_identical_makespan() {
        let shape = GridShape::new(2, 1);
        let a = random(8, 8, 40);
        let b = random(8, 8, 41);
        let dense = Cluster::a100(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
            let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
            let _ = tesseract_matmul(&grid, ctx, &a_loc, &b_loc);
        });
        let shadow = Cluster::a100(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let a_loc = Arc::new(ShadowTensor::new(4, 4));
            let b_loc = Arc::new(ShadowTensor::new(4, 4));
            let _ = tesseract_matmul(&grid, ctx, &a_loc, &b_loc);
        });
        assert!((dense.makespan() - shadow.makespan()).abs() < 1e-15);
        assert_eq!(dense.comm.total_wire_bytes(), shadow.comm.total_wire_bytes());
    }
}
