//! The fused-launch pricing rule, `tesseract_tensor::fused`, over serving's
//! three op chains (attention, layer norm over gathered panels, stationary
//! linear): a fused chain is one launch — none for a zero-flop chain —
//! carrying the chain's flops and GEMM dispatch tallies and only its
//! output's bytes, and Shadow operands price it exactly as Dense ones do.
//! The chains' values are pinned against training's ops elsewhere
//! (`stationary.rs`, `mesh_parity.rs`, serving's cached-vs-recompute).

use std::sync::Arc;

use tesseract_core::layers::attention::ragged_causal_attention;
use tesseract_core::layers::layernorm::layer_norm_panels;
use tesseract_core::mm::matmul_panels;
use tesseract_tensor::{
    fused, DenseTensor, Matrix, Meter, ShadowTensor, TensorLike, Xoshiro256StarStar, ELEM_BYTES,
};

/// One serving chain, by its operands' shapes.
enum Chain {
    /// Head width, heads, and `(new rows, cached rows)` per segment.
    Attention(usize, usize, &'static [(usize, usize)]),
    /// Rows and the width of each gathered panel.
    LayerNorm(usize, &'static [usize]),
    /// Rows, inner width per panel, output columns, panels, with a bias.
    Panels(usize, usize, usize, usize, bool),
}

const CASES: [Chain; 15] = [
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
];

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
                let panels = |r, c, seed| -> Vec<Arc<T>> {
                    (seed..seed + q as u64).map(|s| Arc::new(make(r, c, s))).collect()
                };
                let (a, b) = (panels(rows, inner, 100), panels(inner, cols, 110));
                let bias = with_bias.then(|| make(1, cols, 120));
                vec![matmul_panels(&a, &b, bias.as_ref(), m)]
            }
        }
    }

    /// Bytes of the chain's output.
    fn out_bytes(&self) -> u64 {
        let elems = match *self {
            Chain::Attention(hd, heads, segs) => {
                segs.iter().map(|s| s.0).sum::<usize>() * hd * heads
            }
            Chain::LayerNorm(rows, widths) => rows * widths.iter().sum::<usize>(),
            Chain::Panels(rows, _, cols, ..) => rows * cols,
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

/// The GEMM dispatch tallies of a meter, by path and micro-kernel.
fn tallies(m: &Meter) -> [u64; 5] {
    [
        m.gemms_serial,
        m.gemms_blocked,
        m.gemms_kernel_scalar,
        m.gemms_kernel_avx2,
        m.gemms_kernel_avx512,
    ]
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
