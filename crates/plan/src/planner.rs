//! The exhaustive arrangement search.
//!
//! [`plan`] enumerates every structural candidate for the GPU budget (each
//! `(dp, pp, q, d, mb)` tuple once), rejects infeasible ones with their [`ShapeError`]
//! reason, and runs a full ShadowTensor dry-run of **every** feasible
//! candidate on the simulated cluster. The winner is the entry with the
//! smallest simulated makespan (ties go to the earlier-enumerated
//! candidate) — at a fixed global batch that is also the throughput
//! (sequences/s) winner, the paper's Table 1/2 metric. Each candidate's
//! analytic α–β estimate is reported beside its dry-run; it decides nothing.

use tesseract_comm::{CostParams, Topology};
use tesseract_core::{ShapeError, TransformerConfig};

use crate::analytic::{analytic_score, AnalyticScore};
use crate::candidate::{enumerate, Candidate, CandidateMenu};
use crate::dryrun::{dry_run, DryRun};

/// Inputs of one planning run.
#[derive(Clone, Debug)]
pub struct PlanRequest {
    /// GPU budget: every candidate must consume exactly this many ranks.
    pub gpus: usize,
    /// Workload: `cfg.batch` is the *global* batch (hybrid candidates split
    /// it over dp replicas and microbatches).
    pub cfg: TransformerConfig,
    /// Node topology candidates are placed on.
    pub topology: Topology,
    /// Cost constants of the simulated hardware.
    pub params: CostParams,
    /// Which candidate families to enumerate.
    pub menu: CandidateMenu,
    /// GPipe depth for pipelined hybrids (pp > 1).
    pub microbatches: usize,
    /// Collect event traces during the dry-runs (bitwise-invariant).
    pub trace: bool,
}

impl PlanRequest {
    /// Defaults: meluxina topology, A100 cost constants, every candidate
    /// family, 4 microbatches, no tracing.
    pub fn new(gpus: usize, cfg: TransformerConfig) -> Self {
        Self {
            gpus,
            cfg,
            topology: Topology::meluxina(),
            params: CostParams::a100_cluster(),
            menu: CandidateMenu::all(),
            microbatches: 4,
            trace: false,
        }
    }
}

/// Where a feasible candidate ended up in the search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EntryStatus {
    /// Dry-run and ranked; 0 is the winner.
    Ranked(usize),
    /// Never produced: the planner collapses nothing, so two tuples that run
    /// the same step are both ranked, tied. Kept for readers of the old
    /// deduplicating search.
    Duplicate { of: String },
}

/// One feasible candidate's scores.
#[derive(Clone, Debug)]
pub struct PlanEntry {
    pub candidate: Candidate,
    pub label: String,
    /// The analytic estimate, reported beside the dry-run.
    pub analytic: AnalyticScore,
    /// Always `Some`: every feasible candidate is dry-run. Kept optional
    /// for readers of the old deduplicating search.
    pub dryrun: Option<DryRun>,
    pub status: EntryStatus,
}

impl PlanEntry {
    /// Paper metric: global sequences per second through one fwd+bwd step.
    pub fn throughput_seq_s(&self, cfg: &TransformerConfig) -> Option<f64> {
        self.dryrun.map(|d| cfg.batch as f64 / d.makespan_s)
    }
}

/// The search result: every feasible candidate with its scores, every
/// infeasible candidate with its rejection reason, and the search-coverage
/// counters the CI smoke and the bench JSON surface.
#[derive(Clone, Debug)]
pub struct Plan {
    pub gpus: usize,
    pub cfg: TransformerConfig,
    /// Every feasible candidate, by rank.
    pub entries: Vec<PlanEntry>,
    /// `(label, reason)` of every enumerated-but-infeasible candidate.
    pub infeasible: Vec<(String, ShapeError)>,
    /// Always 0: no arrangement is enumerated twice, so no analytic score
    /// is reused. Kept for readers of the old deduplicating search.
    pub analytic_memo_hits: usize,
    /// Always 0: every feasible candidate is dry-run. Kept for readers of
    /// the old two-stage search's counter.
    pub pruned_dryruns: usize,
}

impl Plan {
    /// The winning entry (rank 0), if any candidate was feasible.
    pub fn winner(&self) -> Option<&PlanEntry> {
        self.entries.iter().find(|e| e.status == EntryStatus::Ranked(0))
    }

    /// Renders the ranked table plus coverage counters as plain text.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan for {} GPUs, batch {} seq {} hidden {} heads {} layers {}\n",
            self.gpus,
            self.cfg.batch,
            self.cfg.seq,
            self.cfg.hidden,
            self.cfg.heads,
            self.cfg.layers
        ));
        out.push_str(
            "  rank  arrangement                               analytic(s)  makespan(s)  seq/s      alloc(MB)  act-peak(MB)  hidden-wait\n",
        );
        for e in &self.entries {
            if let (EntryStatus::Ranked(r), Some(d)) = (&e.status, &e.dryrun) {
                out.push_str(&format!(
                    "  {:>4}  {:<41} {:>10.4}  {:>10.4}  {:>8.2}  {:>9.1}  {:>12.1}  {:>10.3}\n",
                    r,
                    e.label,
                    e.analytic.total_s(),
                    d.makespan_s,
                    self.cfg.batch as f64 / d.makespan_s,
                    d.alloc_bytes as f64 / 1e6,
                    d.activation_peak_bytes as f64 / 1e6,
                    d.hidden_wait_frac,
                ));
            }
        }
        for (label, err) in &self.infeasible {
            out.push_str(&format!("     x  {label:<41} infeasible: {err}\n"));
        }
        out.push_str(&format!(
            "  coverage: {} feasible, all dry-run; {} infeasible\n",
            self.entries.len(),
            self.infeasible.len(),
        ));
        out
    }
}

/// Runs the exhaustive search. See the module docs for the pipeline.
pub fn plan(req: &PlanRequest) -> Plan {
    let mut infeasible: Vec<(String, ShapeError)> = Vec::new();
    let mut scored: Vec<(Candidate, AnalyticScore, DryRun)> = Vec::new();
    for cand in enumerate(req.gpus, req.menu, req.microbatches) {
        if let Err(e) = cand.check(&req.cfg, req.gpus) {
            infeasible.push((cand.label(), e));
            continue;
        }
        let analytic = analytic_score(&req.topology, &req.params, &cand, &req.cfg);
        let d = dry_run(&req.topology, &req.params, &cand, &req.cfg, req.trace);
        scored.push((cand, analytic, d));
    }
    // Rank by makespan; the sort is stable, so ties go to the
    // earlier-enumerated candidate.
    scored.sort_by(|a, b| a.2.makespan_s.total_cmp(&b.2.makespan_s));
    let entries = scored
        .into_iter()
        .enumerate()
        .map(|(rank, (candidate, analytic, d))| PlanEntry {
            candidate,
            label: candidate.label(),
            analytic,
            dryrun: Some(d),
            status: EntryStatus::Ranked(rank),
        })
        .collect();

    Plan {
        gpus: req.gpus,
        cfg: req.cfg,
        entries,
        infeasible,
        analytic_memo_hits: 0,
        pruned_dryruns: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_core::GridShape;

    fn small_cfg() -> TransformerConfig {
        TransformerConfig {
            batch: 8,
            seq: 16,
            hidden: 64,
            heads: 8,
            mlp_ratio: 4,
            layers: 2,
            eps: 1e-5,
        }
    }

    #[test]
    fn plan_ranks_every_candidate_at_8_gpus() {
        let mut req = PlanRequest::new(8, small_cfg());
        req.microbatches = 2;
        let p = plan(&req);
        let winner = p.winner().expect("some candidate must be feasible");
        assert!(winner.dryrun.is_some());
        // Entries are listed by rank, contiguous from 0, each dry-run.
        for (r, e) in p.entries.iter().enumerate() {
            assert_eq!(e.status, EntryStatus::Ranked(r), "{}", p.describe());
            assert!(e.dryrun.is_some(), "{} was not dry-run", e.label);
        }
        // Winner has the smallest makespan of all ranked entries.
        let best = winner.dryrun.unwrap().makespan_s;
        for e in &p.entries {
            assert!(e.dryrun.unwrap().makespan_s >= best);
        }
    }

    #[test]
    fn infeasible_candidates_carry_their_reason() {
        // 12 GPUs: no q²d factorization under d ≤ q except q=2,d=3 (d>q) —
        // nothing feasible for Tesseract; Megatron fails on heads | p.
        let req = PlanRequest::new(12, small_cfg());
        let p = plan(&req);
        let mega = p
            .infeasible
            .iter()
            .find(|(label, _)| label == "megatron[12]")
            .expect("megatron[12] must be rejected");
        assert_eq!(mega.1.to_string(), "heads 8 not divisible by p = 12");
    }

    #[test]
    fn tesseract_only_menu_stays_tesseract() {
        let mut req = PlanRequest::new(8, small_cfg());
        req.menu = CandidateMenu { megatron: false, tesseract: true, hybrid: false };
        let p = plan(&req);
        let w = p.winner().unwrap();
        assert_eq!(w.candidate, Candidate::tesseract(GridShape::new(2, 2)));
    }
}
