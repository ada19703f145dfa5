//! The repo's benchmark: four workloads on two clocks, measured from
//! outside through the library crates' public API. See `README.md` in this
//! directory for the metric definitions and `BENCHMARK.json` at the repo
//! root for the contract.

mod cli;
mod driver;
mod frozen;
mod plan;
mod probes;
mod rep;
mod reports;
mod serve;
mod spans;
mod spec;
mod stats;
mod train;

use std::time::Instant;

use tesseract_comm::RunConfig;

use cli::{Phase, Workload};

/// Kernel thread-pool size every process of the benchmark installs before
/// any kernel runs. One: the simulated ranks already outnumber the cores
/// (one stream per simulated GPU), and with more than one pool thread
/// `tensor::pool` has a job-handoff race under concurrent submitters that
/// kills `train_gemm`'s configuration about every other run (README,
/// "Known fault").
pub const POOL_THREADS: usize = 1;

fn main() {
    let t0 = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tesseract-benchmark: {e}");
            std::process::exit(2);
        }
    };
    if args.contract {
        print!("{}", spec::contract_json());
        return;
    }
    // First installer wins, so this fixes the pool size for the process —
    // including the clusters `plan()` builds from its own `RunConfig`.
    RunConfig::new(1).with_threads(POOL_THREADS).install();

    if let Some(phase) = args.child {
        let rep = match (phase, args.workload.expect("parse checked --child has --workload")) {
            (Phase::Probes, _) => probes::run_child(&args),
            (_, Workload::TrainGemm | Workload::TrainComm) => train::run_child(&args, phase, t0),
            (_, Workload::ServeOpen) => serve::run_child(&args, phase, t0),
            (_, Workload::PlanPaper64) => plan::run_child(&args, phase, t0),
        };
        print!("{}", rep.encode());
        return;
    }
    std::process::exit(driver::main(&args));
}
