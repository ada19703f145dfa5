//! The unified run configuration.
//!
//! A run is one value: construct a [`RunConfig`], override what you need,
//! and call [`RunConfig::run`] (the driver in `cluster.rs`). Cluster shape,
//! cost model, tracing, the rendezvous timeout and the
//! `TESSERACT_KERNEL` / `TESSERACT_RENDEZVOUS_TIMEOUT_SECS` environment
//! knobs all live here. Model options such as tape recomputation live with
//! the model (`StackOptions` in `tesseract-core`), not here.
//!
//! This module is the **only** place in the workspace that reads
//! `TESSERACT_*` environment variables (`tests/structure.rs` rejects strays).
//! [`RunConfig::from_env`] parses them once into explicit fields;
//! [`RunConfig::install`] pushes the one process-global knob (the GEMM
//! micro-kernel) into the tensor crate, where the first installer wins.
//! `TESSERACT_RENDEZVOUS_TIMEOUT_SECS` only sets the
//! `rendezvous_timeout_secs` field of a configuration built by `from_env`,
//! which its run applies. Tracing has no variable: a run that reads
//! its traces asks for them with [`RunConfig::with_trace`].

use tesseract_tensor::matmul::{self, MicroKernel};

use crate::cost::CostParams;
use crate::topology::Topology;

/// One-stop configuration for a simulated run: cluster shape and cost
/// model, per-run toggles (tracing, rendezvous timeout) and the
/// process-global kernel choice.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Number of ranks the cluster spawns.
    pub world: usize,
    /// Link topology collectives are phased over.
    pub topology: Topology,
    /// α–β cost constants.
    pub params: CostParams,
    /// Collect per-rank [`tesseract_tensor::TraceEvent`] timelines.
    pub trace: bool,
    /// Forced GEMM micro-kernel backend (process-global, first installer
    /// wins). `None` auto-detects the widest supported backend.
    pub kernel: Option<MicroKernel>,
    /// Rendezvous timeout for this run's fabric, in seconds. `None` uses
    /// the fabric's 120 s default. Tests that deliberately deadlock set it
    /// explicitly instead of racing on `std::env::set_var`.
    pub rendezvous_timeout_secs: Option<u64>,
}

impl RunConfig {
    /// A `world`-rank run on the paper's testbed topology and cost
    /// constants, with every knob at its default.
    pub fn new(world: usize) -> Self {
        Self {
            world,
            topology: Topology::meluxina(),
            params: CostParams::a100_cluster(),
            trace: false,
            kernel: None,
            rendezvous_timeout_secs: None,
        }
    }

    /// [`RunConfig::new`] with the `TESSERACT_*` environment knobs parsed
    /// into their fields. This is the single environment-read site of the
    /// workspace:
    ///
    /// * `TESSERACT_KERNEL` — `scalar` | `avx2` | `avx512` | `auto`; an
    ///   unknown value panics, and forcing a backend the host does not
    ///   support panics at [`RunConfig::install`] time (a forced path must
    ///   never silently degrade).
    /// * `TESSERACT_RENDEZVOUS_TIMEOUT_SECS` — positive integer; a set
    ///   value that is not panics instead of hanging for the two-minute
    ///   default or timing out every wait at once.
    pub fn from_env(world: usize) -> Self {
        let mut cfg = Self::new(world);
        if let Ok(v) = std::env::var("TESSERACT_KERNEL") {
            cfg.kernel = parse_kernel(&v);
        }
        if let Ok(v) = std::env::var("TESSERACT_RENDEZVOUS_TIMEOUT_SECS") {
            cfg.rendezvous_timeout_secs = Some(parse_timeout_secs(&v));
        }
        cfg
    }

    /// Overrides the link topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Overrides the α–β cost constants.
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.params = params;
        self
    }

    /// Enables (or disables) per-rank event tracing.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Inert: rank threads are the only threads, so there is nothing to
    /// size. Kept solely because the frozen `benchmark/` crate calls it;
    /// ROADMAP item 1(d)'s `[benchmark]` PR removes that last caller and
    /// this method with it.
    pub fn with_threads(self, _: usize) -> Self {
        self
    }

    /// Sets an explicit rendezvous timeout for this run's fabric. Used
    /// by failure-injection tests so a deliberate deadlock fails fast
    /// without mutating process-global state.
    pub fn with_rendezvous_timeout_secs(mut self, secs: u64) -> Self {
        self.rendezvous_timeout_secs = Some(secs);
        self
    }

    /// Applies the process-global knob (the forced kernel). Idempotent;
    /// the first install wins. [`RunConfig::run`] calls this, so explicit
    /// calls are only needed by code that runs kernels without a cluster
    /// (e.g. the single-process GEMM benches).
    pub fn install(&self) {
        if let Some(k) = self.kernel {
            matmul::force_kernel(k);
        }
    }

    /// Inert: a `RunConfig` runs itself. Kept solely because the frozen
    /// `benchmark/` crate calls it; ROADMAP item 1(d)'s `[benchmark]` PR
    /// removes that last caller and this method with it.
    pub fn cluster(self) -> Self {
        self
    }
}

/// Parses `TESSERACT_KERNEL`: the `name()` of any [`MicroKernel::ALL`]
/// backend, or `auto`/empty; an unknown value panics with the pinned
/// message.
fn parse_kernel(v: &str) -> Option<MicroKernel> {
    let v = v.trim().to_ascii_lowercase();
    if v.is_empty() || v == "auto" {
        return None;
    }
    let forced = MicroKernel::ALL.into_iter().find(|k| k.name() == v);
    Some(forced.unwrap_or_else(|| {
        let names = MicroKernel::ALL.map(MicroKernel::name).join("|");
        panic!("invalid TESSERACT_KERNEL={v:?} (want {names}|auto)")
    }))
}

/// Parses `TESSERACT_RENDEZVOUS_TIMEOUT_SECS`: a positive integer number
/// of seconds. Zero or anything unparsable panics with the pinned message
/// (a zero timeout fails every rendezvous and blames a healthy sender).
fn parse_timeout_secs(v: &str) -> u64 {
    v.parse().ok().filter(|&s| s > 0).unwrap_or_else(|| {
        panic!(
            "TESSERACT_RENDEZVOUS_TIMEOUT_SECS must be a positive integer number of \
             seconds, got {v:?}"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_a100_cluster() {
        let cfg = RunConfig::new(8);
        assert_eq!(cfg.world, 8);
        assert!(!cfg.trace);
        assert_eq!(cfg.kernel, None);
        assert_eq!(cfg.rendezvous_timeout_secs, None);
    }

    #[test]
    fn builder_fields_set_their_knobs() {
        let cfg = RunConfig::new(4).with_trace(true).with_rendezvous_timeout_secs(7);
        assert!(cfg.trace);
        assert_eq!(cfg.rendezvous_timeout_secs, Some(7));
    }

    #[test]
    fn kernel_parse_matches_the_pinned_grammar() {
        for k in MicroKernel::ALL {
            assert_eq!(parse_kernel(k.name()), Some(k));
        }
        assert_eq!(parse_kernel(" AVX2 "), Some(MicroKernel::Avx2));
        assert_eq!(parse_kernel("auto"), None);
        assert_eq!(parse_kernel(""), None);
    }

    #[test]
    #[should_panic(expected = "invalid TESSERACT_KERNEL=\"sse9\" (want scalar|avx2|avx512|auto)")]
    fn kernel_parse_panics_on_unknown_backends() {
        let _ = parse_kernel("sse9");
    }

    #[test]
    fn timeout_parse_takes_positive_seconds() {
        assert_eq!(parse_timeout_secs("1"), 1);
        assert_eq!(parse_timeout_secs("120"), 120);
    }

    #[test]
    #[should_panic(
        expected = "TESSERACT_RENDEZVOUS_TIMEOUT_SECS must be a positive integer number of \
                    seconds, got \"0\""
    )]
    fn timeout_parse_rejects_zero() {
        let _ = parse_timeout_secs("0");
    }

    #[test]
    #[should_panic(
        expected = "TESSERACT_RENDEZVOUS_TIMEOUT_SECS must be a positive integer number of \
                    seconds, got \"-5\""
    )]
    fn timeout_parse_rejects_non_integers() {
        let _ = parse_timeout_secs("-5");
    }
}
