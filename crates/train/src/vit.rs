//! Vision Transformer (paper §4.3): patch embedding → Transformer stack →
//! mean-pool → classifier head, in both Tesseract-parallel and serial
//! (single-GPU baseline) forms, sharing one parameter-id scheme so Figure 7
//! compares identical models.

use std::sync::Arc;

use tesseract_comm::RankCtx;
use tesseract_core::module::{Module, ParamRef};
use tesseract_core::{TesseractGrid, TesseractLinear, TesseractTransformer, TransformerConfig};
use tesseract_tensor::nn;
use tesseract_tensor::{fused, DenseTensor, Matrix, TensorLike};

use tesseract_baselines::serial::{SerialLinear, SerialTransformer};

/// Parameter ids reserved for the ViT-specific layers (body layers use
/// `0..layers·PARAM_IDS_PER_LAYER`).
const PID_EMBED: u64 = 1_000_000;
const PID_HEAD: u64 = 1_000_001;

/// ViT hyperparameters: a Transformer body plus patchification and head.
#[derive(Clone, Copy, Debug)]
pub struct ViTConfig {
    pub body: TransformerConfig,
    /// Input features per patch (must divide by q).
    pub patch_dim: usize,
    /// Output classes (must divide by q).
    pub classes: usize,
}

/// Tesseract-parallel ViT.
pub struct TesseractViT<T: TensorLike> {
    pub embed: TesseractLinear<T>,
    pub body: TesseractTransformer<T>,
    pub head: TesseractLinear<T>,
    pub vcfg: ViTConfig,
}

impl<T: TensorLike> TesseractViT<T> {
    pub fn new(ctx: &RankCtx, grid: &TesseractGrid, vcfg: ViTConfig, seed: u64) -> Self {
        // The body's rule is checked where its layers are built.
        assert_eq!(vcfg.patch_dim % grid.shape.q, 0, "patch_dim must divide by q");
        assert_eq!(vcfg.classes % grid.shape.q, 0, "classes must divide by q");
        Self {
            embed: TesseractLinear::new(
                grid,
                vcfg.patch_dim,
                vcfg.body.hidden,
                true,
                seed,
                PID_EMBED,
            ),
            body: TesseractTransformer::new(ctx, grid, vcfg.body, true, seed, 0),
            head: TesseractLinear::new(grid, vcfg.body.hidden, vcfg.classes, true, seed, PID_HEAD),
            vcfg,
        }
    }

    fn local_samples(&self, grid: &TesseractGrid) -> usize {
        self.vcfg.body.batch / (grid.shape.q * grid.shape.d)
    }
}

impl<T: TensorLike> Module<T> for TesseractViT<T> {
    fn name(&self) -> &'static str {
        "vit"
    }

    /// `x_local`: A-type block of the `[b·s, patch_dim]` patch features.
    /// Returns this rank's `[b/(dq), classes/q]` logits block.
    fn forward(&mut self, grid: &TesseractGrid, ctx: &mut RankCtx, x_local: &Arc<T>) -> Arc<T> {
        let s = self.vcfg.body.seq;
        let e = self.embed.forward(grid, ctx, x_local);
        let feats = self.body.forward(grid, ctx, &e);
        // Mean-pool over the sequence of each local sample, in one launch.
        let samples = self.local_samples(grid);
        let pool = fused(&mut ctx.meter, |m| {
            let pooled: Vec<T> = (0..samples)
                .map(|si| {
                    feats.slice_rows(si * s, (si + 1) * s, m).col_sums(m).scale(1.0 / s as f32, m)
                })
                .collect();
            T::concat_rows(&pooled, m)
        });
        self.head.forward(grid, ctx, &Arc::new(pool))
    }

    /// Backward from the logits gradient; accumulates all parameter grads.
    /// The patches are data, so the patch embedding runs only its
    /// parameter half ([`TesseractLinear::backward_params`]) and no
    /// gradient reaches them: returns an empty `[0, patch_dim/q]` block.
    fn backward(&mut self, grid: &TesseractGrid, ctx: &mut RankCtx, d_logits: &Arc<T>) -> Arc<T> {
        let s = self.vcfg.body.seq;
        let d_pool = self.head.backward(grid, ctx, d_logits);
        // Un-pool, in one launch: every sequence position receives 1/s of
        // the pooled grad.
        let samples = self.local_samples(grid);
        let d_feats = fused(&mut ctx.meter, |m| {
            let mut expanded = Vec::with_capacity(samples * s);
            for si in 0..samples {
                let row = d_pool.slice_rows(si, si + 1, m).scale(1.0 / s as f32, m);
                expanded.extend(std::iter::repeat_n(row, s));
            }
            T::concat_rows(&expanded, m)
        });
        let d_embed = self.body.backward(grid, ctx, &Arc::new(d_feats));
        self.embed.backward_params(grid, ctx, &d_embed);
        Arc::new(T::zeros(0, self.vcfg.patch_dim / grid.shape.q))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        self.embed.visit_params(f);
        self.body.visit_params(f);
        self.head.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.embed.zero_grad();
        self.body.zero_grad();
        self.head.zero_grad();
    }
}

/// Serial single-GPU ViT with identical parameters. Its compute is plain
/// `Matrix` code (the oracle); it is a [`Module`] so optimizers and
/// clipping reach its parameters the same way as the distributed ViT's.
/// The grid and rank context are unused: run it on a `[1,1,1]` grid.
pub struct SerialViT {
    pub embed: SerialLinear,
    pub body: SerialTransformer,
    pub head: SerialLinear,
    pub vcfg: ViTConfig,
}

impl SerialViT {
    pub fn new(vcfg: ViTConfig, seed: u64) -> Self {
        Self {
            embed: SerialLinear::new(vcfg.patch_dim, vcfg.body.hidden, true, seed, PID_EMBED),
            body: SerialTransformer::new(vcfg.body, true, seed, 0),
            head: SerialLinear::new(vcfg.body.hidden, vcfg.classes, true, seed, PID_HEAD),
            vcfg,
        }
    }
}

impl Module<DenseTensor> for SerialViT {
    /// `x`: `[b·s, patch_dim]` → `[b, classes]` logits.
    fn forward(
        &mut self,
        _: &TesseractGrid,
        _: &mut RankCtx,
        x: &Arc<DenseTensor>,
    ) -> Arc<DenseTensor> {
        let s = self.vcfg.body.seq;
        let e = self.embed.forward(x.matrix());
        let feats = self.body.forward(&e);
        let b = feats.rows() / s;
        let mut pool = Matrix::zeros(b, feats.cols());
        for si in 0..b {
            for r in si * s..(si + 1) * s {
                for (acc, &v) in pool.row_mut(si).iter_mut().zip(feats.row(r).iter()) {
                    *acc += v / s as f32;
                }
            }
        }
        Arc::new(DenseTensor(self.head.forward(&pool)))
    }

    /// Accumulates every parameter gradient. The patches are data, so the
    /// patch embedding computes no `dX`: returns an empty
    /// `[0, patch_dim]` tensor.
    fn backward(
        &mut self,
        _: &TesseractGrid,
        _: &mut RankCtx,
        d_logits: &Arc<DenseTensor>,
    ) -> Arc<DenseTensor> {
        let s = self.vcfg.body.seq;
        let d_pool = self.head.backward(d_logits.matrix());
        let b = d_pool.rows();
        let mut d_feats = Matrix::zeros(b * s, d_pool.cols());
        for si in 0..b {
            for r in si * s..(si + 1) * s {
                for (dst, &v) in d_feats.row_mut(r).iter_mut().zip(d_pool.row(si).iter()) {
                    *dst = v / s as f32;
                }
            }
        }
        let d_embed = self.body.backward(&d_feats);
        self.embed.backward_params(&d_embed);
        Arc::new(DenseTensor::zeros(0, self.vcfg.patch_dim))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, DenseTensor>)) {
        self.embed.visit_params(f);
        self.body.visit_params(f);
        self.head.visit_params(f);
    }
}

/// Distributed softmax cross-entropy over column-split logits.
///
/// All-gathers the `[b_local, classes/q]` blocks along the grid row (the
/// class dimension is small, so this is cheap — the same strategy
/// Megatron's vocab-parallel loss uses), computes loss and gradient on the
/// full local rows, and returns this rank's gradient block scaled by
/// `1/global_batch` so it matches the serial mean-reduction.
///
/// Returns `(sum of -log p over local samples, local grad block,
/// argmax-correct count over local samples)`.
pub fn distributed_cross_entropy(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    logits_local: &Arc<DenseTensor>,
    labels_local: &[usize],
    global_batch: usize,
) -> (f32, DenseTensor, usize) {
    let q = grid.shape.q;
    // Zero-copy gather: each rank's logits block is deposited once and read
    // through `Arc`s; only the column-concat below materializes new data.
    let parts = grid.row.all_gather_shared(ctx, Arc::clone(logits_local));
    let full = Matrix::concat_cols(parts.iter().map(|p| p.matrix()));
    assert_eq!(full.rows(), labels_local.len(), "labels must cover local samples");

    let probs = nn::softmax_rows(&full);
    let mut loss_sum = 0.0f32;
    let mut grad_full = probs.clone();
    for (r, &label) in labels_local.iter().enumerate() {
        assert!(label < full.cols(), "label {label} out of range");
        loss_sum -= probs[(r, label)].max(1e-12).ln();
        grad_full[(r, label)] -= 1.0;
    }
    grad_full.scale_assign(1.0 / global_batch as f32);
    let correct = nn::count_correct(&full, labels_local);

    let cols = full.cols() / q;
    let j = grid.j();
    let grad_local = grad_full.slice_cols(j * cols, (j + 1) * cols);
    (loss_sum, DenseTensor::from_matrix(grad_local), correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_comm::RunConfig;
    use tesseract_core::partition::{a_block, combine_c};
    use tesseract_core::GridShape;
    use tesseract_tensor::assert_slices_close;

    fn vcfg() -> ViTConfig {
        ViTConfig {
            body: TransformerConfig {
                batch: 4,
                seq: 3,
                hidden: 8,
                heads: 2,
                mlp_ratio: 2,
                layers: 1,
                eps: 1e-5,
            },
            patch_dim: 4,
            classes: 6,
        }
    }

    #[test]
    fn tesseract_vit_logits_match_serial() {
        let v = vcfg();
        let x = Matrix::seeded(v.body.rows(), v.patch_dim, 1);
        let serial = RunConfig::from_env(1).run(|ctx| {
            let grid = TesseractGrid::new(ctx, GridShape::new(1, 1), 0);
            let x = Arc::new(DenseTensor::from_matrix(x.clone()));
            SerialViT::new(v, 5).forward(&grid, ctx, &x).matrix().clone()
        });
        let y_ser = &serial.results[0];
        for shape in [GridShape::new(1, 1), GridShape::new(2, 1), GridShape::new(2, 2)] {
            let out = RunConfig::from_env(shape.size()).run(|ctx| {
                let grid = TesseractGrid::new(ctx, shape, 0);
                let (i, j, k) = grid.coords;
                let mut vit = TesseractViT::<DenseTensor>::new(ctx, &grid, v, 5);
                let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
                vit.forward(&grid, ctx, &x_loc).matrix().clone()
            });
            let got = combine_c(&out.results, shape);
            assert_slices_close(got.data(), y_ser.data(), 5e-4);
        }
    }

    #[test]
    fn distributed_ce_matches_serial_loss_and_grad() {
        let v = vcfg();
        let logits = Matrix::seeded(v.body.batch, v.classes, 9);
        let labels = vec![0usize, 3, 5, 2];
        let (loss_ser, grad_ser) = nn::softmax_cross_entropy(&logits, &labels);

        let shape = GridShape::new(2, 2);
        let labels_for_test = labels.clone();
        let out = RunConfig::from_env(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            // Logits are A-type: rows split by h = i + kq, cols by j.
            let loc = Arc::new(DenseTensor::from_matrix(a_block(&logits, shape, i, j, k)));
            let h = grid.a_row_block();
            let per = v.body.batch / (shape.q * shape.d);
            let my_labels = &labels_for_test[h * per..(h + 1) * per];
            let (loss_sum, grad, correct) =
                distributed_cross_entropy(&grid, ctx, &loc, my_labels, v.body.batch);
            (loss_sum, grad.into_matrix(), correct)
        });
        // Sum of local loss sums over one row representative (j = 0) per
        // band equals batch · serial mean loss.
        let mut loss_total = 0.0;
        let mut correct_total = 0;
        for off in 0..shape.size() {
            let (i, j, k) = shape.coords_of(off);
            let _ = i;
            if j == 0 {
                loss_total += out.results[off].0;
                correct_total += out.results[off].2;
                let _ = k;
            }
        }
        assert!((loss_total / v.body.batch as f32 - loss_ser).abs() < 1e-5);
        assert!(correct_total <= v.body.batch);
        // Gradients assemble to the serial gradient.
        let grads: Vec<Matrix> = out.results.iter().map(|(_, g, _)| g.clone()).collect();
        let grad_full = combine_c(&grads, shape);
        assert_slices_close(grad_full.data(), grad_ser.data(), 1e-5);
    }

    /// `Matrix` checks an index only under `debug_assert!`, so without the
    /// range check a label equal to `classes` on row 0 would read and write
    /// row 1's class 0 in a release build.
    #[test]
    #[should_panic(expected = "out of range")]
    fn distributed_ce_rejects_an_out_of_range_label() {
        let v = vcfg();
        let logits = Matrix::seeded(v.body.batch, v.classes, 9);
        let shape = GridShape::new(2, 1);
        RunConfig::from_env(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            let loc = Arc::new(DenseTensor::from_matrix(a_block(&logits, shape, i, j, k)));
            distributed_cross_entropy(&grid, ctx, &loc, &[v.classes, 0], v.body.batch)
        });
    }

    #[test]
    fn vit_backward_produces_depth_synced_grads() {
        let v = vcfg();
        let x = Matrix::seeded(v.body.rows(), v.patch_dim, 11);
        let dlogits = Matrix::seeded(v.body.batch, v.classes, 12);
        let shape = GridShape::new(2, 2);
        let out = RunConfig::from_env(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            let mut vit = TesseractViT::<DenseTensor>::new(ctx, &grid, v, 5);
            let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
            let _ = vit.forward(&grid, ctx, &x_loc);
            let dl = Arc::new(DenseTensor::from_matrix(a_block(&dlogits, shape, i, j, k)));
            vit.backward(&grid, ctx, &dl);
            vit.embed.weight_grad().clone().into_matrix()
        });
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(
                    out.results[shape.offset_of(i, j, 0)],
                    out.results[shape.offset_of(i, j, 1)],
                    "embed grads must be depth-synchronized"
                );
            }
        }
    }
}
