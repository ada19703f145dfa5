//! Tesseract-parallel linear layer (paper §3.2.1).
//!
//! Weight `W [in, out]` is B-type partitioned: rank `(i, j, k)` holds block
//! `[in/q, out/q]`, replicated across depth. The forward pass is one
//! Tesseract matmul; the backward applies Eq. 3 (`dW = Xᵀ·dY` + depth
//! all-reduce, then `dX = dY·Wᵀ`), its parameter half callable alone
//! ([`TesseractLinear::backward_params`]) where `X` is data.
//!
//! The bias follows §3.2.2 exactly: it lives on the row-0 processors of each
//! layer, is **broadcast down each column** in the forward pass, and its
//! gradients are **reduced back to row 0** (plus a depth all-reduce so the
//! replicas stay in sync).
//!
//! Serving is weight-stationary: [`TesseractLinear::fetch_stationary`]
//! fetches every serving linear's panels once, in one bucket. A
//! column-parallel linear ([`Parallel::Column`]) holds this rank's column
//! of weight panels and its bias block, and [`Stationary::matmul`]
//! multiplies the panels of full rows by them: SUMMA's multiply-and-add on
//! the same panels, so its output is bitwise [`Module::forward`]'s block.
//! A row-parallel linear ([`Parallel::Row`]) holds its row of panels and
//! the full-width bias instead;
//! [`Stationary::partial`] is this rank's term of the lane's sum, and the
//! bias is added once, after it. Both take a `Meter`, not a `RankCtx`, so
//! they run inside the fused launch of a serving stretch and never fetch.
//! [`Module::visit_params`], the only path that mutates a weight, drops
//! the fetched copy.
//!
//! Fused projections (the attention `[h, 3h]` QKV weight) are built with
//! [`TesseractLinear::new_fused`]: each sub-weight is an independently
//! Xavier-initialized global matrix whose local blocks are concatenated
//! column-wise, so every rank's output columns hold *its own heads'*
//! Q/K/V — the layout trick Megatron-style implementations rely on.

use std::borrow::Borrow;
use std::sync::{Arc, OnceLock};

use tesseract_comm::RankCtx;
use tesseract_tensor::{Meter, TensorLike};

use crate::grid::TesseractGrid;
use crate::mm::{
    column_panels, lane_exchange, matmul_panels, tesseract_matmul, tesseract_matmul_nt,
    tesseract_matmul_tn,
};
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
    /// Serving's copy of this rank's weight panels, filled by
    /// [`TesseractLinear::fetch_stationary`] and dropped by
    /// `visit_params`.
    stationary: OnceLock<Stationary<T>>,
}

/// The weights a serving rank multiplies by: `q` weight panels (its own
/// block among them, shared, not copied) and a bias. A column-parallel
/// linear holds its column `[W_0j … W_{q-1,j}]` and the column's bias
/// block; a row-parallel one its row `[W_j0 … W_{j,q-1}]` and the whole
/// bias `[1, out]`.
pub struct Stationary<T> {
    pub panels: Vec<Arc<T>>,
    pub bias: Option<Arc<T>>,
}

/// How a linear's product is split: the first linear of a block's pair
/// (`wqkv`, `fc1`) by columns, the second (`wo`, `fc2`) by rows. A 1-D
/// world splits its weights that way
/// ([`World::linear`](crate::layers::World::linear)), and so does a
/// serving lane, which decides the weights
/// [`TesseractLinear::fetch_stationary`] leaves on a rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parallel {
    /// Each rank computes its column block of the output from full rows:
    /// it holds its weight column (a serving lane: [`Stationary::matmul`]).
    Column,
    /// Each rank computes its term of the sum from its column block of the
    /// input: it holds its weight row (a serving lane: [`Stationary::partial`],
    /// with the whole bias).
    Row,
}

impl<T: TensorLike> Stationary<T> {
    /// Column-parallel: `Y = X·W (+ bias)` for this rank's column block of
    /// `Y`, where `rows` are the column panels `[X_0 … X_{q-1}]` of `X`,
    /// multiplied by the column with [`matmul_panels`]. Bitwise
    /// [`Module::forward`]'s output block on the same rows.
    pub fn matmul(&self, rows: &[impl Borrow<T>], m: &mut Meter) -> T {
        matmul_panels(rows, &self.panels, self.bias.as_deref(), m)
    }

    /// Row-parallel: this rank's term `A_j·[W_j0 … W_{j,q-1}]` of the
    /// lane's sum `X·W`, where `a` is column block `j` of `X`. One GEMM per
    /// output block, `A_j·W_jt`, in SUMMA's shapes (so
    /// `matmul::planned_path` picks SUMMA's kernel), placed side by side.
    /// No bias: it is added once, after the sum.
    pub fn partial(&self, a: &T, m: &mut Meter) -> T {
        let blocks: Vec<T> = self.panels.iter().map(|w| a.matmul(w, m)).collect();
        T::concat_cols(&blocks, m)
    }
}

impl<T: TensorLike> TesseractLinear<T> {
    /// A plain `[in, out]` linear layer with Xavier weight `param_id`.
    pub fn new(
        grid: &TesseractGrid,
        in_features: usize,
        out_features: usize,
        with_bias: bool,
        seed: u64,
        param_id: u64,
    ) -> Self {
        Self::new_fused(grid, in_features, &[(out_features, param_id)], with_bias, seed)
    }

    /// A fused projection: one matmul over the column-concatenation of
    /// several independently-initialized `[in, out_i]` weights.
    pub fn new_fused(
        grid: &TesseractGrid,
        in_features: usize,
        outs: &[(usize, u64)],
        with_bias: bool,
        seed: u64,
    ) -> Self {
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
            stationary: OnceLock::new(),
        }
    }

    /// Fetches, in one bucket, the weight panels and bias that serving
    /// multiplies by for every linear of `set` that does not hold them
    /// yet, in one traced scope, `fetch_stationary`. The one weight fetch:
    /// SPMD over the whole grid, every rank naming the same set.
    ///
    /// A rank's bucket is its weight block of every such linear, then the
    /// bias blocks it holds (row 0's). [`column_panels`] moves the buckets
    /// down every column in `q` broadcasts, after which a rank holds its
    /// column `[W_0j … W_{q-1,j}]` of each linear and the column's bias
    /// blocks. A [`Parallel::Column`] linear keeps them. The
    /// [`Parallel::Row`] linears' columns and bias blocks then cross the
    /// lane in one [`lane_exchange`]: rank `j` keeps panel `j` of every
    /// member's column, its row `[W_j0 … W_{j,q-1}]`, and every member's
    /// bias block, the whole bias. The bytes are those of fetching each
    /// linear alone; the collectives are `q` per rank, plus one with a
    /// row-parallel linear in the set, however large the set.
    pub fn fetch_stationary(grid: &TesseractGrid, ctx: &mut RankCtx, set: &[(&Self, Parallel)]) {
        let todo: Vec<(&Self, Parallel)> =
            set.iter().copied().filter(|(lin, _)| lin.stationary.get().is_none()).collect();
        if todo.is_empty() {
            return;
        }
        ctx.traced("fetch_stationary", "infer", |ctx| {
            let blocks = todo.iter().map(|(lin, _)| Arc::clone(&lin.w));
            let biases = todo.iter().flat_map(|(lin, _)| lin.bias.clone());
            let bucket: Vec<Arc<T>> = blocks.chain(biases).collect();
            let columns = column_panels(grid, ctx, &Arc::new(bucket));
            let mut biases = columns[0][todo.len()..].iter();
            let mut fetched: Vec<Stationary<T>> = (todo.iter().enumerate())
                .map(|(l, (lin, _))| Stationary {
                    panels: columns.iter().map(|c| Arc::clone(&c[l])).collect(),
                    bias: lin.with_bias.then(|| Arc::clone(biases.next().expect("row 0's bias"))),
                })
                .collect();
            let rows: Vec<usize> =
                (0..todo.len()).filter(|&l| todo[l].1 == Parallel::Row).collect();
            if !rows.is_empty() {
                let mine =
                    rows.iter().flat_map(|&l| fetched[l].panels.iter().chain(&fetched[l].bias));
                let lane = lane_exchange(grid, ctx, mine.cloned().collect());
                let (j, q) = (grid.j(), grid.shape.q);
                let mut at = 0;
                for &l in &rows {
                    let bias = todo[l].0.with_bias.then(|| {
                        let blocks: Vec<T> = lane.iter().map(|c| T::clone(&c[at + q])).collect();
                        Arc::new(T::concat_cols(&blocks, &mut Meter::new()))
                    });
                    let panels = lane.iter().map(|c| Arc::clone(&c[at + j])).collect();
                    at += q + usize::from(bias.is_some());
                    fetched[l] = Stationary { panels, bias };
                }
            }
            for ((lin, _), st) in todo.iter().zip(fetched) {
                lin.stationary.get_or_init(|| st);
            }
        });
    }

    /// The fetched weight panels and bias serving multiplies by, with no
    /// tape push. Panics before a fetch: a serving chain holds a `Meter`,
    /// not a `RankCtx`, so it cannot fetch.
    pub fn stationary(&self) -> &Stationary<T> {
        self.stationary.get().expect("TesseractLinear: serving before fetch_stationary")
    }

    /// Bytes of the fetched weight panels and bias
    /// ([`TesseractLinear::stationary`]) on this rank, zero before the
    /// fetch: `q×` the weight block, since the block is one of the panels.
    pub fn stationary_bytes(&self) -> u64 {
        self.stationary
            .get()
            .map_or(0, |st| st.panels.iter().chain(&st.bias).map(|p| p.byte_size() as u64).sum())
    }

    /// The parameter half of [`Module::backward`]: pops the taped `X`,
    /// accumulates `dbias` on row 0 (column sums, the column reduce to
    /// row 0, the depth all-reduce) and `dW = Xᵀ·dY` (with its depth
    /// all-reduce). A layer whose input is data, whose `dX` nothing reads
    /// (the ViT's patch embedding), stops here.
    pub fn backward_params(&mut self, grid: &TesseractGrid, ctx: &mut RankCtx, dy: &T) {
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
        let dw = tesseract_matmul_tn(grid, ctx, &x, dy, true);
        self.dw.add_assign(&dw, &mut ctx.meter);
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

impl<T: TensorLike> Module<T> for TesseractLinear<T> {
    fn name(&self) -> &'static str {
        "linear"
    }

    /// `Y = X·W` by SUMMA, the bias broadcast down the column, then tapes
    /// `X`.
    fn forward(&mut self, grid: &TesseractGrid, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        let mut y = tesseract_matmul(grid, ctx, x, &self.w);
        if self.with_bias {
            let b = grid.col.broadcast_shared(ctx, 0, self.bias.clone());
            y = y.add_rowvec(&b, &mut ctx.meter);
        }
        self.tape.push_tracked(ctx, x.byte_size() as u64, Arc::clone(x));
        Arc::new(y)
    }

    /// Backward: the parameter half ([`TesseractLinear::backward_params`]),
    /// then returns `dX = dY·Wᵀ`.
    fn backward(&mut self, grid: &TesseractGrid, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        self.backward_params(grid, ctx, dy);
        tesseract_matmul_nt(grid, ctx, &**dy, &self.w)
    }

    /// Visits (weight, grad) pairs for the optimizer, in a deterministic
    /// order. Row-0 ranks visit the bias too. Drops serving's fetched
    /// weights first: the visitor may change them, and releasing this
    /// rank's shares of the panels leaves `Arc::make_mut` a copy-on-write
    /// at most.
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        self.stationary.take();
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
