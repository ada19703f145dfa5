//! Tesseract-parallel linear layer (paper §3.2.1).
//!
//! Weight `W [in, out]` is B-type partitioned: rank `(i, j, k)` holds block
//! `[in/q, out/q]`, replicated across depth. The forward pass is one
//! Tesseract matmul; the backward applies Eq. 3 (`dX = dY·Wᵀ`,
//! `dW = Xᵀ·dY` + depth all-reduce).
//!
//! The bias follows §3.2.2 exactly: it lives on the row-0 processors of each
//! layer, is **broadcast down each column** in the forward pass, and its
//! gradients are **reduced back to row 0** (plus a depth all-reduce so the
//! replicas stay in sync).
//!
//! Fused projections (the attention `[h, 3h]` QKV weight) are built with
//! [`TesseractLinear::new_fused`]: each sub-weight is an independently
//! Xavier-initialized global matrix whose local blocks are concatenated
//! column-wise, so every rank's output columns hold *its own heads'*
//! Q/K/V — the layout trick Megatron-style implementations rely on.

use std::sync::Arc;

use tesseract_comm::{Payload, RankCtx};
use tesseract_tensor::TensorLike;

use crate::grid::TesseractGrid;
use crate::mm::{tesseract_matmul, tesseract_matmul_nt, tesseract_matmul_tn};
use crate::module::{Module, ParamRef, Tape};

/// Tesseract column/row-blocked linear layer.
///
/// The weight and bias blocks are `Arc`-held so the forward/backward
/// broadcasts can deposit them into the fabric without cloning; the
/// optimizer still mutates them through [`ParamRef`] via `Arc::make_mut`
/// (copy-on-write, a no-op once any transient rendezvous shares drop).
pub struct TesseractLinear<T> {
    pub in_features: usize,
    pub out_features: usize,
    w: Arc<T>,
    dw: T,
    /// Bias block `[1, out/q]`, present only on row-0 ranks.
    bias: Option<Arc<T>>,
    dbias: Option<T>,
    /// Microbatch activation tape (see [`Tape`] on GPipe LIFO ordering).
    tape: Tape<Arc<T>>,
    with_bias: bool,
}

impl<T: TensorLike + Payload> TesseractLinear<T> {
    /// A plain `[in, out]` linear layer with Xavier weight `param_id`.
    pub fn new(
        ctx: &RankCtx,
        grid: &TesseractGrid,
        in_features: usize,
        out_features: usize,
        with_bias: bool,
        seed: u64,
        param_id: u64,
    ) -> Self {
        Self::new_fused(ctx, grid, in_features, &[(out_features, param_id)], with_bias, seed)
    }

    /// A fused projection: one matmul over the column-concatenation of
    /// several independently-initialized `[in, out_i]` weights.
    pub fn new_fused(
        ctx: &RankCtx,
        grid: &TesseractGrid,
        in_features: usize,
        outs: &[(usize, u64)],
        with_bias: bool,
        seed: u64,
    ) -> Self {
        let _ = ctx;
        let q = grid.shape.q;
        assert_eq!(in_features % q, 0, "in_features must divide by q");
        let (i, j, _k) = grid.coords;
        let in_local = in_features / q;
        let mut blocks = Vec::with_capacity(outs.len());
        let mut scratch = tesseract_tensor::Meter::new();
        for &(out_i, pid) in outs {
            assert_eq!(out_i % q, 0, "out_features must divide by q");
            let out_local = out_i / q;
            blocks.push(T::init_xavier_block(
                in_features,
                out_i,
                i * in_local,
                j * out_local,
                in_local,
                out_local,
                seed,
                pid,
            ));
        }
        let w = T::concat_cols(&blocks, &mut scratch);
        let out_features: usize = outs.iter().map(|&(o, _)| o).sum();
        let out_local_total = out_features / q;
        let (bias, dbias) = if with_bias && i == 0 {
            // Biases are zero-initialized (standard practice), so they need
            // no parameter id and match the serial reference trivially.
            (Some(Arc::new(T::zeros(1, out_local_total))), Some(T::zeros(1, out_local_total)))
        } else {
            (None, None)
        };
        Self {
            in_features,
            out_features,
            w: Arc::new(w),
            dw: T::zeros(in_local, out_local_total),
            bias,
            dbias,
            tape: Tape::new(),
            with_bias,
        }
    }

    /// Forward for inference: `Y = X·W (+ bias broadcast down the column)`,
    /// `&self` and **no tape push**, so serving never accumulates
    /// activations it will not backpropagate. [`Module::forward`] is this
    /// plus the push.
    pub fn forward_infer(&self, grid: &TesseractGrid, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        let mut y = tesseract_matmul(grid, ctx, x, &self.w);
        if self.with_bias {
            let b = grid.col.broadcast_shared(ctx, 0, self.bias.as_ref().map(Arc::clone));
            y = y.add_rowvec(&b, &mut ctx.meter);
        }
        Arc::new(y)
    }

    /// Activations currently queued on the tape (zero outside training).
    pub fn tape_depth(&self) -> usize {
        self.tape.depth()
    }

    /// This rank's weight block (for tests).
    pub fn weight(&self) -> &T {
        &self.w
    }

    /// This rank's accumulated weight gradient (for tests).
    pub fn weight_grad(&self) -> &T {
        &self.dw
    }

    /// This rank's bias block, if it owns one.
    pub fn bias(&self) -> Option<&T> {
        self.bias.as_deref()
    }

    /// This rank's bias gradient, if it owns one.
    pub fn bias_grad(&self) -> Option<&T> {
        self.dbias.as_ref()
    }
}

impl<T: TensorLike + Payload> Module<T> for TesseractLinear<T> {
    fn name(&self) -> &'static str {
        "linear"
    }

    /// [`TesseractLinear::forward_infer`], then tapes `X`.
    fn forward(&mut self, grid: &TesseractGrid, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        let y = self.forward_infer(grid, ctx, x);
        self.tape.push_tracked(ctx, x.byte_size() as u64, Arc::clone(x));
        y
    }

    /// Backward: returns `dX`; accumulates `dW` (and `dbias` on row 0).
    fn backward(&mut self, grid: &TesseractGrid, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        let x = self.tape.pop_tracked(ctx, "TesseractLinear");
        if self.with_bias {
            let db_local = dy.col_sums(&mut ctx.meter);
            let db = grid.col.reduce_shared(ctx, 0, db_local);
            if grid.i() == 0 {
                let mut db = db.expect("row-0 rank receives bias gradient");
                if grid.shape.d > 1 {
                    db = Arc::clone(&*grid.depth.all_reduce_shared(ctx, db));
                }
                self.dbias.as_mut().expect("row-0 rank holds bias").add_assign(&db, &mut ctx.meter);
            }
        }
        let dw = tesseract_matmul_tn(grid, ctx, &x, &**dy, true);
        self.dw.add_assign(&dw, &mut ctx.meter);
        tesseract_matmul_nt(grid, ctx, &**dy, &self.w)
    }

    /// Visits (weight, grad) pairs for the optimizer, in a deterministic
    /// order. Row-0 ranks visit the bias too.
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        f(ParamRef { weight: Arc::make_mut(&mut self.w), grad: &mut self.dw });
        if let (Some(b), Some(db)) = (self.bias.as_mut(), self.dbias.as_mut()) {
            f(ParamRef { weight: Arc::make_mut(b), grad: db });
        }
    }

    fn zero_grad(&mut self) {
        self.tape.debug_assert_balanced("TesseractLinear");
        self.dw = T::zeros(self.dw.rows(), self.dw.cols());
        if let Some(db) = self.dbias.as_mut() {
            *db = T::zeros(db.rows(), db.cols());
        }
    }

    fn reset_tape(&mut self, ctx: &mut RankCtx) {
        self.tape.clear_tracked(ctx);
    }
}
