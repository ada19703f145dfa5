//! Paper-scale timing runs on the shadow backend.
//!
//! Each function is the planner's [`dry_run`] at the requested world size,
//! on the cluster model `RunConfig` defaults to ([`Topology::meluxina`],
//! [`CostParams::a100_cluster`]): the scheme's
//! Transformer stack is built with `ShadowTensor`s (shapes + exact
//! flop/byte metering, no data), one forward and one backward over one
//! batch are executed, and the returned [`DryRun`] reports **virtual**
//! seconds — `max` over ranks, which is what a host-side `time`
//! measurement of one training iteration sees on a real cluster. A
//! Tesseract grid runs as the planner's one-stage, one-replica hybrid
//! ([`Candidate::tesseract`]).

use tesseract_comm::{CostParams, Topology};
use tesseract_core::{GridShape, TransformerConfig};
use tesseract_hybrid::HybridShape;
use tesseract_plan::{dry_run, Candidate, DryRun};

/// One untraced dry-run of `cand` on the default cluster model.
fn time(cand: Candidate, cfg: &TransformerConfig) -> DryRun {
    dry_run(&Topology::meluxina(), &CostParams::a100_cluster(), &cand, cfg, false)
}

/// Times one batch through a Tesseract `[q, q, d]` Transformer stack.
///
/// The backward pass models **activation recomputation** (Chen et al.
/// 2016), which Megatron-LM-era large-model training enables by default:
/// one extra forward runs before the true backward, making backward ≈ 3×
/// forward — exactly the ratio the paper's tables show (e.g. 0.4749 /
/// 0.1225 ≈ 3.9 for Megatron, 0.2636 / 0.0869 ≈ 3.0 for Tesseract).
pub fn time_tesseract(shape: GridShape, cfg: TransformerConfig) -> DryRun {
    time(Candidate::tesseract(shape), &cfg)
}

/// Times one batch through `dp` data-parallel replicas of a `[q, q, 1]`
/// grid, one microbatch each: the control for a `[q, q, dp]` row, whose
/// depth splits the batch the same way.
pub fn time_data_parallel(dp: usize, q: usize, cfg: TransformerConfig) -> DryRun {
    let shape = HybridShape::new(dp, 1, GridShape::new(q, 1));
    time(Candidate::Hybrid { shape, microbatches: 1 }, &cfg)
}

/// Times one batch through a Megatron-LM 1-D Transformer stack on `p` GPUs.
pub fn time_megatron(p: usize, cfg: TransformerConfig) -> DryRun {
    time(Candidate::Megatron { p }, &cfg)
}

/// The paper's fixed experiment scale: sequence length and layer count are
/// not stated in §4; we use s = 512 (the Megatron-LM default of the era)
/// and N = 8 layers, and report shape-preserving *relative* results (see
/// EXPERIMENTS.md).
pub const SEQ_LEN: usize = 512;
pub const NUM_LAYERS: usize = 8;

/// Builds a Table-1/2 configuration.
pub fn paper_config(batch: usize, hidden: usize, heads: usize) -> TransformerConfig {
    TransformerConfig {
        batch,
        seq: SEQ_LEN,
        hidden,
        heads,
        mlp_ratio: 4,
        layers: NUM_LAYERS,
        eps: 1e-5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeper_grids_beat_flat_grids_at_equal_p() {
        // The paper's headline strong-scaling observation: [4,4,4] is much
        // faster than [8,8,1] at 64 GPUs (§4.1 reports 2.07× on forward).
        let cfg = paper_config(16, 3072, 64);
        let t444 = time_tesseract(GridShape::new(4, 4), cfg);
        let t881 = time_tesseract(GridShape::new(8, 1), cfg);
        assert!(
            t444.forward_s < t881.forward_s,
            "[4,4,4] fwd {} must beat [8,8,1] fwd {}",
            t444.forward_s,
            t881.forward_s
        );
    }

    #[test]
    fn tesseract_beats_megatron_at_64_gpus() {
        let cfg_m = paper_config(16, 3072, 64);
        let mega = time_megatron(64, cfg_m);
        let tess = time_tesseract(GridShape::new(4, 4), cfg_m);
        assert!(
            tess.forward_s < mega.forward_s,
            "tesseract fwd {} must beat megatron fwd {}",
            tess.forward_s,
            mega.forward_s
        );
    }

    #[test]
    fn tesseract_timing_reports_hidden_overlap() {
        // The double-buffered SUMMA loops hide panel broadcasts behind
        // compute, so any multi-step grid must report non-zero hidden time.
        let cfg = paper_config(12, 1024, 16);
        let t = time_tesseract(GridShape::new(2, 2), cfg);
        assert!(t.hidden_wait_s > 0.0, "pipeline hid no wait: {t:?}");
    }

    #[test]
    fn timing_is_deterministic() {
        let cfg = paper_config(12, 1024, 16);
        let a = time_tesseract(GridShape::new(2, 2), cfg);
        let b = time_tesseract(GridShape::new(2, 2), cfg);
        assert_eq!(a, b);
    }
}
