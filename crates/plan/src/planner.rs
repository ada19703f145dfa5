//! The exhaustive arrangement search.
//!
//! [`plan`] enumerates every structural candidate for the GPU budget,
//! rejects infeasible ones with their [`ShapeError`] reason, collapses
//! canonically-equivalent arrangements onto one signature, and runs a full
//! ShadowTensor dry-run of **every** unique feasible candidate on the
//! simulated cluster. The winner is the entry with the smallest simulated
//! makespan (ties go to the earlier-enumerated candidate) — at a fixed
//! global batch that is also the throughput (sequences/s) winner, the
//! paper's Table 1/2 metric. Each unique candidate's analytic α–β estimate
//! is reported beside its dry-run; it decides nothing.

use std::collections::HashMap;

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
    /// Canonically equivalent to an earlier candidate (same signature);
    /// scored once under that entry's label.
    Duplicate { of: String },
}

/// One feasible candidate's scores.
#[derive(Clone, Debug)]
pub struct PlanEntry {
    pub candidate: Candidate,
    pub label: String,
    pub signature: String,
    /// The analytic estimate, reported beside the dry-run (a duplicate
    /// carries its owner's).
    pub analytic: AnalyticScore,
    /// Present iff `status` is `Ranked`.
    pub dryrun: Option<DryRun>,
    pub status: EntryStatus,
}

impl PlanEntry {
    /// Paper metric: global sequences per second through one fwd+bwd step
    /// (present iff the entry was dry-run).
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
    /// Ranked entries first (by rank), then duplicates (in enumeration
    /// order).
    pub entries: Vec<PlanEntry>,
    /// `(label, reason)` of every enumerated-but-infeasible candidate.
    pub infeasible: Vec<(String, ShapeError)>,
    /// Analytic scores served from the signature memo instead of being
    /// recomputed (== number of duplicate arrangements collapsed).
    pub analytic_memo_hits: usize,
    /// Always 0: every unique feasible candidate is dry-run. Kept for
    /// readers of the old two-stage search's counter.
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
            match (&e.status, &e.dryrun) {
                (EntryStatus::Ranked(r), Some(d)) => {
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
                (EntryStatus::Duplicate { of }, _) => {
                    out.push_str(&format!("     -  {:<41} (duplicate of {of})\n", e.label));
                }
                _ => {}
            }
        }
        for (label, err) in &self.infeasible {
            out.push_str(&format!("     x  {label:<41} infeasible: {err}\n"));
        }
        out.push_str(&format!(
            "  coverage: {} feasible ({} dry-run, {} duplicates collapsed), {} infeasible, {} analytic memo hits\n",
            self.entries.len(),
            self.entries.iter().filter(|e| matches!(e.status, EntryStatus::Ranked(_))).count(),
            self.entries.iter().filter(|e| matches!(e.status, EntryStatus::Duplicate { .. })).count(),
            self.infeasible.len(),
            self.analytic_memo_hits,
        ));
        out
    }
}

/// Runs the exhaustive search. See the module docs for the pipeline.
pub fn plan(req: &PlanRequest) -> Plan {
    let mut infeasible: Vec<(String, ShapeError)> = Vec::new();
    // The first candidate with a signature owns it and is scored and
    // dry-run; later holders are duplicates and reuse the owner's score.
    let mut owners: HashMap<String, usize> = HashMap::new();
    let mut entries: Vec<PlanEntry> = Vec::new();
    for cand in enumerate(req.gpus, req.menu, req.microbatches) {
        if let Err(e) = cand.check(&req.cfg, req.gpus) {
            infeasible.push((cand.label(), e));
            continue;
        }
        let signature = cand.signature();
        let (analytic, dryrun, status) = match owners.get(&signature) {
            Some(&owner) => {
                let o = &entries[owner];
                (o.analytic, None, EntryStatus::Duplicate { of: o.label.clone() })
            }
            None => {
                owners.insert(signature.clone(), entries.len());
                let analytic = analytic_score(&req.topology, &req.params, &cand, &req.cfg);
                let d = dry_run(&req.topology, &req.params, &cand, &req.cfg, req.trace);
                (analytic, Some(d), EntryStatus::Ranked(0)) // ranked below
            }
        };
        entries.push(PlanEntry {
            candidate: cand,
            label: cand.label(),
            signature,
            analytic,
            dryrun,
            status,
        });
    }
    let analytic_memo_hits = entries.len() - owners.len();

    // Rank by makespan; the sort is stable, so ties go to the
    // earlier-enumerated candidate.
    let mut ranked: Vec<(usize, f64)> =
        entries.iter().enumerate().filter_map(|(i, e)| Some((i, e.dryrun?.makespan_s))).collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (rank, &(i, _)) in ranked.iter().enumerate() {
        entries[i].status = EntryStatus::Ranked(rank);
    }
    // Ranked entries by rank, then duplicates in enumeration order (the
    // sort is stable).
    entries.sort_by_key(|e| match e.status {
        EntryStatus::Ranked(r) => (0, r),
        EntryStatus::Duplicate { .. } => (1, 0),
    });

    Plan {
        gpus: req.gpus,
        cfg: req.cfg,
        entries,
        infeasible,
        analytic_memo_hits,
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
    fn plan_ranks_and_memoizes_at_8_gpus() {
        let mut req = PlanRequest::new(8, small_cfg());
        req.microbatches = 2;
        let p = plan(&req);
        let winner = p.winner().expect("some candidate must be feasible");
        assert!(winner.dryrun.is_some());
        // The trivial hybrid wrapper of [2,2,2] collapses onto the
        // Tesseract candidate: at least one memo hit and one duplicate.
        assert!(p.analytic_memo_hits >= 1, "memo hits: {}", p.analytic_memo_hits);
        assert!(
            p.entries.iter().any(|e| matches!(e.status, EntryStatus::Duplicate { .. })),
            "{}",
            p.describe()
        );
        // Ranks are contiguous from 0.
        let mut ranks: Vec<usize> = p
            .entries
            .iter()
            .filter_map(|e| match e.status {
                EntryStatus::Ranked(r) => Some(r),
                _ => None,
            })
            .collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..ranks.len()).collect::<Vec<_>>());
        // Winner has the smallest makespan of all ranked entries.
        let best = winner.dryrun.unwrap().makespan_s;
        for e in &p.entries {
            if let Some(d) = e.dryrun {
                assert!(d.makespan_s >= best);
            }
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
        assert_eq!(w.candidate, Candidate::Tesseract { grid: GridShape::new(2, 2) });
    }
}
