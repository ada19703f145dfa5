//! Validates and exercises the arrangement auto-tuner (`tesseract-plan`).
//!
//! Three modes (default: all three, in order):
//!
//! - `table1` — hands the planner 64 GPUs and the Table 1 workload
//!   (batch 16, hidden 3072, heads 64) with the paper's own scheme menu
//!   (Megatron + Tesseract, no hybrids) and **asserts** it re-derives the
//!   measured Table 1 winner, `tesseract[4,4,4]`, with no hand-picked grid
//!   input.
//! - `table2` — same validation at the Table 2 weak-scaling endpoint: the
//!   64-GPU `[4,4,4]` row's workload (batch 768, hidden 4096, heads 64);
//!   the planner must again select `tesseract[4,4,4]` over `[8,8,1]` and
//!   `megatron[64]`.
//! - `sweep` — a scale the paper never measured: 128 GPUs (only one
//!   feasible `d ≤ q` Tesseract grid, `[8,8,2]`), batch 256, hidden 4096,
//!   heads 128, with the **full** menu including 5-axis hybrids and 4
//!   microbatches; all 25 feasible candidates are dry-run and ranked.
//!
//! Every mode asserts that each feasible candidate was dry-run and ranked,
//! by rank from 0, and that no arrangement appears twice. The ranked
//! tables print to stdout and the JSON report goes to `--out` (default
//! `BENCH_plan.json`).
//!
//! Run: `cargo run --release -p tesseract-bench --bin plan_sweep -- \
//!           [--mode table1|table2|sweep|all] [--out BENCH_plan.json]`

use tesseract_bench::cli::Args;
use tesseract_bench::timing::paper_config;
use tesseract_plan::{plan, CandidateMenu, EntryStatus, Plan, PlanRequest};
use tesseract_tensor::json;
use tesseract_tensor::trace::json::{self, Value};

struct Mode {
    name: &'static str,
    /// Label the planner must select, if this mode validates a paper table.
    expected_winner: Option<&'static str>,
    request: PlanRequest,
}

fn modes(which: &str) -> Vec<Mode> {
    let mut out = Vec::new();
    if which == "all" || which == "table1" {
        let mut req = PlanRequest::new(64, paper_config(16, 3072, 64));
        req.menu = CandidateMenu::paper_schemes();
        out.push(Mode { name: "table1", expected_winner: Some("tesseract[4,4,4]"), request: req });
    }
    if which == "all" || which == "table2" {
        let mut req = PlanRequest::new(64, paper_config(768, 4096, 64));
        req.menu = CandidateMenu::paper_schemes();
        out.push(Mode { name: "table2", expected_winner: Some("tesseract[4,4,4]"), request: req });
    }
    if which == "all" || which == "sweep" {
        let req = PlanRequest::new(128, paper_config(256, 4096, 128));
        out.push(Mode { name: "sweep", expected_winner: None, request: req });
    }
    assert!(!out.is_empty(), "unknown --mode {which:?} (known: table1 table2 sweep all)");
    out
}

/// JSON object for one planned mode, whose entries `main` has checked are
/// listed by rank.
fn mode_json(mode: &Mode, p: &Plan) -> Value {
    let winner = p.winner().expect("every mode has at least one feasible candidate");
    let candidates = p.entries.iter().enumerate().map(|(rank, e)| {
        let a = &e.analytic;
        let analytic = json!({
            "compute": Value::fixed(a.compute_s, 9), "comm": Value::fixed(a.comm_s, 9),
            "total": Value::fixed(a.total_s(), 9)
        });
        let dryrun = e.dryrun.zip(e.throughput_seq_s(&p.cfg)).map(|(d, throughput)| {
            json!({
                "makespan_s": Value::fixed(d.makespan_s, 9),
                "forward_s": Value::fixed(d.forward_s, 9),
                "backward_s": Value::fixed(d.backward_s, 9), "alloc_bytes": d.alloc_bytes,
                "act_peak_bytes": d.activation_peak_bytes,
                "hidden_wait_frac": Value::fixed(d.hidden_wait_frac, 6),
                "throughput_seq_s": Value::fixed(throughput, 4)
            })
        });
        json!({
            "arrangement": e.label.as_str(), "analytic_s": analytic, "rank": rank, "dryrun": dryrun
        })
    });
    let infeasible = p
        .infeasible
        .iter()
        .map(|(label, err)| json!({ "arrangement": label.as_str(), "reason": err.to_string() }));
    let c = &p.cfg;
    json!({
        "mode": mode.name,
        "gpus": p.gpus,
        "workload": {
            "batch": c.batch, "seq": c.seq, "hidden": c.hidden, "heads": c.heads, "layers": c.layers
        },
        "winner": winner.label.as_str(),
        "expected_winner": mode.expected_winner,
        "matches_expected": mode.expected_winner.map(|w| winner.label == w),
        "candidates": Value::Arr(candidates.collect()),
        "infeasible": Value::Arr(infeasible.collect()),
        "search": { "feasible": p.entries.len(), "infeasible": p.infeasible.len() }
    })
}

fn main() {
    let args = Args::parse(&["--mode", "--out"]);
    let which = args.value("--mode", String::from("all"));
    let out_path = args.value("--out", String::from("BENCH_plan.json"));

    let mut sections = Vec::new();
    for mode in modes(&which) {
        println!("== mode {} ==", mode.name);
        let p = plan(&mode.request);
        print!("{}", p.describe());
        let winner = p.winner().expect("every mode has at least one feasible candidate");
        // Every entry was dry-run, listed by rank from 0, and no
        // arrangement appears twice.
        for (r, e) in p.entries.iter().enumerate() {
            let ok = e.status == EntryStatus::Ranked(r) && e.dryrun.is_some();
            assert!(ok, "{}: {} is not ranked {r}", mode.name, e.label);
            let twice = p.entries[..r].iter().any(|o| o.label == e.label);
            assert!(!twice, "{}: {} is listed twice", mode.name, e.label);
        }
        if let Some(expected) = mode.expected_winner {
            assert_eq!(
                winner.label, expected,
                "planner must re-derive the measured {} winner with no hand-picked grid",
                mode.name
            );
            println!("  OK: planner selected {expected} (the measured winner)\n");
        } else {
            println!("  selected: {} (scale the paper never measured)\n", winner.label);
        }
        sections.push(mode_json(&mode, &p));
    }

    let json = json::write(&json!({
        "bench": "plan_sweep",
        "units": {
            "time": "simulated seconds (max over ranks)",
            "throughput": "sequences per simulated second"
        },
        "modes": sections
    }));
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");
}
