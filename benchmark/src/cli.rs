//! Command-line surface shared by the driver, the human-readable runner
//! and the child re-exec.

use std::path::PathBuf;

/// The four workloads (see `benchmark/README.md` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainGemm,
    TrainComm,
    ServeOpen,
    PlanPaper64,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::TrainGemm, Workload::TrainComm, Workload::ServeOpen, Workload::PlanPaper64];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainGemm => "train_gemm",
            Workload::TrainComm => "train_comm",
            Workload::ServeOpen => "serve_open",
            Workload::PlanPaper64 => "plan_paper64",
        }
    }

    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL.into_iter().find(|w| w.name() == s).ok_or_else(|| {
            format!("unknown workload {s:?} (known: train_gemm train_comm serve_open plan_paper64)")
        })
    }
}

/// What a child process runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Set-up, then operations for `--seconds` with tracing off: the
    /// source of every end-to-end metric.
    Timed,
    /// A fixed, shortened operation count with tracing off: the baseline
    /// the traced run's overhead and virtual-clock identity are judged on.
    Short,
    /// The same shortened run with `RunConfig::with_trace(true)` and the
    /// benchmark's host spans.
    Traced,
    /// Direct timings of single layers' public functions.
    Probes,
    /// `serve_open` only: the Shadow-backend twin of the end-to-end run,
    /// which yields the virtual-clock results without the tensor work.
    Shadow,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Timed => "timed",
            Phase::Short => "short",
            Phase::Traced => "traced",
            Phase::Probes => "probes",
            Phase::Shadow => "shadow",
        }
    }

    pub fn parse(s: &str) -> Result<Self, String> {
        [Phase::Timed, Phase::Short, Phase::Traced, Phase::Probes, Phase::Shadow]
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| format!("unknown phase {s:?}"))
    }
}

/// Parsed arguments. `workload: None` selects the human-readable runner
/// over every workload.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    /// Measuring time of one run, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Run the whole benchmark twice and compare the two sets.
    pub check: bool,
    /// Shrink every workload to roughly 1/20 size (the crate's own tests).
    pub smoke: bool,
    /// Print the text of `BENCHMARK.json` and exit.
    pub contract: bool,
    /// Set in a child: the phase to run.
    pub child: Option<Phase>,
    /// Where traces are written.
    pub out_dir: PathBuf,
}

pub const DEFAULT_SEED: u64 = 42;
pub const DEFAULT_SECONDS: f64 = crate::spec::RUN_SECONDS as f64;

pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check: false,
        smoke: false,
        contract: false,
        child: None,
        out_dir: std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target/benchmark"), PathBuf::from),
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(Workload::parse(&value("--workload")?)?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("--seed wants a whole number, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = match v.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 60.0 => s,
                    _ => return Err(format!("--seconds wants a number in (0, 60], got {v:?}")),
                };
            }
            // The driver passes `--trace 0|1`; a bare `--trace` means 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--check" => args.check = true,
            "--smoke" => args.smoke = true,
            "--contract" => args.contract = true,
            "--child" => args.child = Some(Phase::parse(&value("--child")?)?),
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
            other => {
                return Err(format!(
                    "unknown argument {other:?} (known: --workload --seed --seconds --trace --check --smoke --contract)"
                ))
            }
        }
    }
    if args.child.is_some() && args.workload.is_none() {
        return Err("--child needs --workload".to_string());
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_form_parses() {
        let a = parse(&argv("--workload serve_open --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, Some(Workload::ServeOpen));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        let a = parse(&argv("--trace 0 --workload train_gemm")).unwrap();
        assert!(!a.trace);
    }

    #[test]
    fn human_form_parses() {
        let a = parse(&argv("--trace --check")).unwrap();
        assert!(a.trace && a.check && a.workload.is_none());
        assert_eq!(a.seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_input_is_rejected() {
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--seconds 0")).is_err());
        assert!(parse(&argv("--seed x")).is_err());
        assert!(parse(&argv("--frobnicate")).is_err());
    }
}
