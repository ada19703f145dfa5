//! The Table-1 winner depends on the sequence length, which the paper does
//! not state. The planner runs the paper's schemes (Megatron and Tesseract)
//! on the Table-1 job — 64 GPUs, batch 16, h = 3072, 64 heads, 8 layers —
//! at four values of `s`, and the winner moves from `megatron[64]` through
//! `[8,8,1]` to `[4,4,4]`. A cost-model change that moves this crossover
//! fails here, so it is seen and explained rather than absorbed. The
//! makespans are virtual seconds, rounded as EXPERIMENTS.md's T1 table
//! prints them.

use tesseract_core::TransformerConfig;
use tesseract_plan::{plan, CandidateMenu, PlanRequest};

/// `(s, [megatron[64], [8,8,1], [4,4,4]] makespans, winner)`.
const CROSSOVER: [(usize, [&str; 3], &str); 4] = [
    (128, ["0.1270", "0.1548", "0.1962"], "megatron[64]"),
    (256, ["0.2309", "0.1626", "0.1968"], "tesseract[8,8,1]"),
    (512, ["0.4387", "0.2009", "0.1979"], "tesseract[4,4,4]"),
    (1024, ["0.8486", "0.3012", "0.2003"], "tesseract[4,4,4]"),
];

const SCHEMES: [&str; 3] = ["megatron[64]", "tesseract[8,8,1]", "tesseract[4,4,4]"];

#[test]
fn the_table1_winner_follows_the_sequence_length() {
    for (seq, makespans, winner) in CROSSOVER {
        let cfg = TransformerConfig {
            batch: 16,
            seq,
            hidden: 3072,
            heads: 64,
            mlp_ratio: 4,
            layers: 8,
            eps: 1e-5,
        };
        let mut req = PlanRequest::new(64, cfg);
        req.menu = CandidateMenu::paper_schemes();
        let p = plan(&req);
        assert_eq!(p.winner().map(|w| w.label.as_str()), Some(winner), "s = {seq}");
        for (label, want) in SCHEMES.into_iter().zip(makespans) {
            let e = p.entries.iter().find(|e| e.label == label).expect(label);
            let got = format!("{:.4}", e.dryrun.expect("every entry is dry-run").makespan_s);
            assert_eq!(got, want, "{label} at s = {seq}");
        }
    }
}
