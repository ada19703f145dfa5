//! The depth axis is data parallelism over a `[q,q,1]` grid, in the
//! forward pass: at pp = 1, `[q,q,d]` and `dp=d × [q,q,1]` on the same
//! global batch give every rank bitwise the same output block (Dense) and
//! bitwise the same forward clock (Dense and Shadow, and Shadow at the
//! Table-1 job's shapes). Depth slice `k` of the grid and replica `k` hold
//! the same rows: the grid's row block `i + k·q` is row block `i` of
//! replica `k`'s contiguous batch slice, and both spellings number that
//! rank `k·q² + i·q + j`.

use std::sync::Arc;

use tesseract_comm::RunConfig;
use tesseract_core::layers::StackOptions;
use tesseract_core::partition::a_block;
use tesseract_core::{GridShape, Module, TransformerConfig};
use tesseract_hybrid::{HybridShape, HybridTransformer};
use tesseract_tensor::{DenseTensor, Matrix, ShadowTensor, TensorLike};

const SEED: u64 = 24;

/// Per rank: the forward output of the global input `x` (blank blocks
/// when `None`) and the clock after the forward (f64 bits), on `shape`
/// with `cfg.batch` the global batch, split `dp` ways. Runs the module's
/// forward only.
fn forward<T: TensorLike>(
    shape: HybridShape,
    cfg: TransformerConfig,
    x: Option<&Matrix>,
) -> Vec<(Option<Matrix>, u64)> {
    let dp = shape.dp();
    let replica = TransformerConfig { batch: cfg.batch / dp, ..cfg };
    let rows = replica.rows();
    let out = RunConfig::from_env(shape.total()).run(|ctx| {
        let mut engine =
            HybridTransformer::<T>::new(ctx, shape, replica, true, SEED, StackOptions::default());
        let (i, j, k) = engine.grid.coords;
        let r = engine.coords.dp_idx;
        let g = shape.grid();
        let x_loc = match x {
            Some(x) => {
                let b = a_block(&x.slice_rows(r * rows, (r + 1) * rows), g, i, j, k);
                T::build(b.rows(), b.cols(), || b)
            }
            None => T::zeros(rows / (g.q * g.d), cfg.hidden / g.q),
        };
        let y = engine.model.forward(&engine.grid, ctx, &Arc::new(x_loc));
        ctx.flush_compute();
        (y.try_matrix().cloned(), ctx.clock().to_bits())
    });
    out.results
}

/// The two spellings of `d` replicas of a `[q,q,1]` grid.
fn spellings(q: usize, d: usize) -> (HybridShape, HybridShape) {
    (HybridShape::new(1, 1, GridShape::new(q, d)), HybridShape::new(d, 1, GridShape::new(q, 1)))
}

fn assert_same_forward(
    what: &str,
    depth: &[(Option<Matrix>, u64)],
    data: &[(Option<Matrix>, u64)],
) {
    assert_eq!(depth.len(), data.len(), "{what}: rank counts");
    for (rank, ((y1, t1), (y2, t2))) in depth.iter().zip(data).enumerate() {
        assert_eq!(
            t1,
            t2,
            "{what}: rank {rank} forward clock {} vs {}",
            f64::from_bits(*t1),
            f64::from_bits(*t2)
        );
        if let (Some(y1), Some(y2)) = (y1, y2) {
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(y1), bits(y2), "{what}: rank {rank} forward output");
        }
    }
}

#[test]
fn depth_and_data_parallel_forwards_are_bitwise_equal_at_small_shapes() {
    for (q, d) in [(2, 2), (3, 2), (2, 3)] {
        let cfg = TransformerConfig {
            batch: 2 * q * d,
            seq: 3,
            hidden: 4 * q,
            heads: q,
            mlp_ratio: 2,
            layers: 2,
            eps: 1e-5,
        };
        let x = Matrix::seeded(cfg.rows(), cfg.hidden, 5);
        let (depth, data) = spellings(q, d);
        let dense = forward::<DenseTensor>(depth, cfg, Some(&x));
        assert!(dense.iter().all(|(y, _)| y.is_some()), "Dense runs return values");
        assert_same_forward(
            &format!("Dense [{q},{q},{d}]"),
            &dense,
            &forward::<DenseTensor>(data, cfg, Some(&x)),
        );
        let shadow = forward::<ShadowTensor>(depth, cfg, None);
        assert_same_forward(
            &format!("Shadow [{q},{q},{d}]"),
            &shadow,
            &forward::<ShadowTensor>(data, cfg, None),
        );
        let clocks = |runs: &[(Option<Matrix>, u64)]| runs.iter().map(|r| r.1).collect::<Vec<_>>();
        assert_eq!(clocks(&dense), clocks(&shadow), "[{q},{q},{d}]: Dense vs Shadow clocks");
    }
}

#[test]
fn depth_and_data_parallel_forward_clocks_are_bitwise_equal_at_table1_shapes() {
    // Table 1's 64-GPU job: `[4,4,4]` against `dp=4 × [4,4,1]`.
    let cfg = TransformerConfig {
        batch: 16,
        seq: 512,
        hidden: 3072,
        heads: 64,
        mlp_ratio: 4,
        layers: 8,
        eps: 1e-5,
    };
    let (depth, data) = spellings(4, 4);
    let depth = forward::<ShadowTensor>(depth, cfg, None);
    assert!(f64::from_bits(depth[0].1) > 0.0, "the forward charged nothing");
    assert_same_forward("Shadow T1", &depth, &forward::<ShadowTensor>(data, cfg, None));
}
