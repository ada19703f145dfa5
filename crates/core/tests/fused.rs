//! The fused-launch pricing rule, `tesseract_tensor::fused`, over serving's
//! op chains: attention, layer norm over panels, the column-parallel and
//! row-parallel stationary linears, and the two collective-free stretches
//! of a serving layer that compose them (`norm_attention` then `wo`'s
//! row-parallel term; `norm_mlp_up` then `fc2`'s). A fused chain is one
//! launch — none for a zero-flop chain — carrying the chain's flops and
//! GEMM dispatch tallies and only its output's bytes, and Shadow operands
//! price it exactly as Dense ones do. The chains' values are pinned against
//! training's ops elsewhere (`stationary.rs`, `mesh_parity.rs`, serving's
//! cached-vs-recompute).

use std::sync::Arc;

use tesseract_core::layers::attention::{norm_attention, ragged_causal_attention};
use tesseract_core::layers::layernorm::layer_norm_panels;
use tesseract_core::layers::linear::Stationary;
use tesseract_core::layers::transformer::norm_mlp_up;
use tesseract_core::mm::matmul_panels;
use tesseract_core::LayerKv;
use tesseract_tensor::{
    fused, DenseTensor, Matrix, Meter, ShadowTensor, TensorLike, Xoshiro256StarStar, ELEM_BYTES,
};

/// One serving chain, by its operands' shapes.
enum Chain {
    /// Head width, heads, and `(new rows, cached rows)` per segment.
    Attention(usize, usize, &'static [(usize, usize)]),
    /// Rows and the width of each panel.
    LayerNorm(usize, &'static [usize]),
    /// Rows, inner width per panel, output columns, panels, with a bias.
    Panels(usize, usize, usize, usize, bool),
    /// A row-parallel term: rows, inner width, columns per output block,
    /// blocks.
    Partial(usize, usize, usize, usize),
    /// A serving layer's first stretch after its residual add, through
    /// `wo`'s term: head width, heads, panels, and `(new rows, cached
    /// rows)` per segment.
    AttentionWo(usize, usize, usize, &'static [(usize, usize)]),
    /// The `ln2 → fc1 → GELU → fc2` stretch after its residual add: rows,
    /// width per panel, `fc1` output columns, panels.
    MlpFc2(usize, usize, usize, usize),
}

const CASES: [Chain; 30] = [
    // A prefill beside decodes over different cached prefixes; the wide
    // case puts the prefill's GEMMs on the blocked path; then an empty lane.
    Chain::Attention(4, 3, &[(1, 6), (5, 0), (1, 2), (3, 4)]),
    Chain::Attention(64, 2, &[(64, 16), (1, 40)]),
    Chain::Attention(4, 2, &[]),
    // One to four panels, then an empty lane.
    Chain::LayerNorm(7, &[12]),
    Chain::LayerNorm(5, &[6, 6]),
    Chain::LayerNorm(9, &[4, 4, 4]),
    Chain::LayerNorm(3, &[8, 8, 8, 8]),
    Chain::LayerNorm(0, &[4, 4]),
    // One to four panels on the serial path, an empty lane, then blocked
    // GEMMs.
    Chain::Panels(5, 4, 6, 1, true),
    Chain::Panels(5, 4, 6, 2, false),
    Chain::Panels(3, 5, 8, 3, true),
    Chain::Panels(7, 4, 6, 4, true),
    Chain::Panels(0, 4, 6, 2, true),
    Chain::Panels(64, 64, 64, 2, true),
    Chain::Panels(64, 64, 64, 3, false),
    // Two to four output blocks, an empty lane, then blocked GEMMs.
    Chain::Partial(6, 8, 8, 2),
    Chain::Partial(3, 5, 4, 3),
    Chain::Partial(3, 32, 8, 4),
    Chain::Partial(0, 8, 8, 2),
    Chain::Partial(64, 64, 64, 2),
    // Each stretch of a serving layer over a prefill, a ragged decode (one
    // row per request) and an empty lane; a wide prefill puts the QKV
    // projection on the blocked path, and q = 4 has four panels.
    Chain::AttentionWo(4, 2, 2, &[(6, 0)]),
    Chain::AttentionWo(4, 2, 2, &[(1, 6), (1, 2), (1, 9)]),
    Chain::AttentionWo(4, 2, 2, &[]),
    Chain::AttentionWo(32, 2, 2, &[(64, 0)]),
    Chain::AttentionWo(4, 1, 4, &[(1, 3), (2, 0)]),
    Chain::MlpFc2(6, 8, 32, 2),
    Chain::MlpFc2(3, 8, 32, 2),
    Chain::MlpFc2(0, 8, 32, 2),
    Chain::MlpFc2(3, 4, 16, 4),
    Chain::MlpFc2(64, 64, 256, 2),
];

/// `q` panels `[rows, cols]` from seeds `seed..`.
fn panels<T: TensorLike>(
    make: fn(usize, usize, u64) -> T,
    q: usize,
    rows: usize,
    cols: usize,
    seed: u64,
) -> Vec<Arc<T>> {
    (seed..seed + q as u64).map(|s| Arc::new(make(rows, cols, s))).collect()
}

/// Stationary weights: `q` panels `[inner, cols]` and a `[1, bias]` bias.
fn stationary<T: TensorLike>(
    make: fn(usize, usize, u64) -> T,
    q: usize,
    inner: usize,
    cols: usize,
    bias: usize,
) -> Stationary<T> {
    Stationary {
        panels: panels(make, q, inner, cols, 110),
        bias: Some(Arc::new(make(1, bias, 120))),
    }
}

impl Chain {
    /// Runs the chain on operands `make(rows, cols, seed)`; returns its
    /// outputs.
    fn run<T: TensorLike>(&self, make: fn(usize, usize, u64) -> T, m: &mut Meter) -> Vec<T> {
        match *self {
            Chain::Attention(hd, heads, segs) => {
                let w = hd * heads;
                let new_rows: Vec<usize> = segs.iter().map(|s| s.0).collect();
                let q = make(new_rows.iter().sum(), w, 40);
                let caches: Vec<(T, T)> = (segs.iter().zip(50..))
                    .map(|(&(t, c), seed)| (make(t + c, w, seed), make(t + c, w, seed + 10)))
                    .collect();
                let kv: Vec<(&T, &T)> = caches.iter().map(|(k, v)| (k, v)).collect();
                vec![ragged_causal_attention(&q, &kv, &new_rows, hd, m)]
            }
            Chain::LayerNorm(rows, widths) => {
                let panels: Vec<Arc<T>> = (widths.iter().zip(70..))
                    .map(|(&w, seed)| Arc::new(make(rows, w, seed)))
                    .collect();
                layer_norm_panels(&panels, 1e-5, m)
            }
            Chain::Panels(rows, inner, cols, q, with_bias) => {
                let (a, b) = (panels(make, q, rows, inner, 100), panels(make, q, inner, cols, 110));
                let bias = with_bias.then(|| make(1, cols, 120));
                vec![matmul_panels(&a, &b, bias.as_ref(), m)]
            }
            Chain::Partial(rows, inner, cols, q) => {
                let w = stationary(make, q, inner, cols, q * cols);
                vec![w.partial(&make(rows, inner, 100), m)]
            }
            Chain::AttentionWo(hd, heads, q, segs) => {
                let w = hd * heads;
                let new_rows: Vec<usize> = segs.iter().map(|s| s.0).collect();
                let x = make(new_rows.iter().sum(), q * w, 100);
                let mut kvs: Vec<LayerKv<T>> = (segs.iter().zip(50..))
                    .map(|(&(_, c), seed)| LayerKv {
                        k: make(c, w, seed),
                        v: make(c, w, seed + 10),
                    })
                    .collect();
                let mut kvs: Vec<&mut LayerKv<T>> = kvs.iter_mut().collect();
                let wqkv = stationary(make, q, w, 3 * w, 3 * w);
                let wo = stationary(make, q, w, w, q * w);
                let attended = norm_attention(&x, 1e-5, &wqkv, &new_rows, &mut kvs, hd, m);
                vec![wo.partial(&attended, m)]
            }
            Chain::MlpFc2(rows, width, cols, q) => {
                let fc1 = stationary(make, q, width, cols, cols);
                let fc2 = stationary(make, q, cols, width, q * width);
                let act = norm_mlp_up(&make(rows, q * width, 100), 1e-5, &fc1, m);
                vec![fc2.partial(&act, m)]
            }
        }
    }

    /// Bytes of the chain's output.
    fn out_bytes(&self) -> u64 {
        let elems = match *self {
            Chain::Attention(hd, heads, segs) => {
                segs.iter().map(|s| s.0).sum::<usize>() * hd * heads
            }
            Chain::AttentionWo(hd, heads, q, segs) => {
                segs.iter().map(|s| s.0).sum::<usize>() * q * hd * heads
            }
            Chain::LayerNorm(rows, widths) => rows * widths.iter().sum::<usize>(),
            Chain::Panels(rows, _, cols, ..) => rows * cols,
            Chain::Partial(rows, _, cols, q) | Chain::MlpFc2(rows, cols, _, q) => rows * q * cols,
        };
        (elems * ELEM_BYTES) as u64
    }
}

fn dense(rows: usize, cols: usize, seed: u64) -> DenseTensor {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    DenseTensor::from_matrix(Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng))
}

fn shadow(rows: usize, cols: usize, _seed: u64) -> ShadowTensor {
    ShadowTensor::new(rows, cols)
}

/// The GEMM dispatch tallies of a meter, by path.
fn tallies(m: &Meter) -> [u64; 2] {
    [m.gemms_serial, m.gemms_blocked]
}

#[test]
fn a_fused_launch_charges_its_op_chain_as_one_launch() {
    let mut blocked = 0;
    for (ci, case) in CASES.iter().enumerate() {
        let mut chain = Meter::new();
        let _ = case.run(dense, &mut chain);
        let mut launch = Meter::new();
        let _ = fused(&mut launch, |m| case.run(dense, m));
        let busy = chain.flops > 0.0;
        assert_eq!(busy, case.out_bytes() > 0, "case {ci}: only an empty lane does no math");
        assert!(!busy || chain.kernels > 1, "case {ci}: the chain is several ops");
        assert_eq!(launch.kernels, u64::from(busy), "case {ci}: one launch, none without math");
        assert_eq!(launch.flops, chain.flops, "case {ci}: the chain's flops, exactly");
        assert_eq!(tallies(&launch), tallies(&chain), "case {ci}: the chain's GEMM tallies");
        assert_eq!(launch.bytes_allocated, case.out_bytes(), "case {ci}: output bytes only");
        blocked += launch.gemms_blocked;

        let mut shadowed = Meter::new();
        let _ = fused(&mut shadowed, |m| case.run(shadow, m));
        assert_eq!(launch, shadowed, "case {ci}: Shadow charges what Dense charges");
    }
    assert!(blocked > 0, "the cases cover the blocked GEMM path");
}
