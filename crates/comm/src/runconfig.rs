//! The unified run configuration.
//!
//! Everything that used to be scattered across `Cluster::custom`,
//! `Cluster::with_trace`, `Cluster::with_rendezvous_timeout_secs` and the
//! `TESSERACT_KERNEL` / `TESSERACT_TRACE` /
//! `TESSERACT_RENDEZVOUS_TIMEOUT_SECS` environment knobs lives in one
//! builder: construct a [`RunConfig`], override what you need, and call
//! [`RunConfig::cluster`]. New execution options (tape recomputation) are
//! fields here instead of yet another constructor.
//!
//! This module is the **only** place in the workspace that reads
//! `TESSERACT_*` environment variables (`scripts/ci.sh` greps for strays).
//! [`RunConfig::from_env`] parses them once into explicit fields;
//! [`RunConfig::install`] pushes the process-global ones (GEMM
//! micro-kernel, trace default, rendezvous timeout default) into the
//! crates that consume them through plain setters. Each of those knobs is
//! resolved once per process — the first installer wins, exactly like the
//! old lazily-cached env reads.

use tesseract_tensor::matmul::{self, MicroKernel};
use tesseract_tensor::trace;

use crate::cluster::Cluster;
use crate::cost::CostParams;
use crate::fabric;
use crate::topology::Topology;

/// One-stop configuration for a simulated run: cluster shape and cost
/// model, per-run toggles (tracing, rendezvous timeout), the
/// process-global kernel choice and execution options (recomputation) that
/// model stacks read off the config.
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
    /// Rendezvous timeout for this cluster's fabric, in seconds. `None`
    /// uses the process default (120 s unless an installer changed it).
    pub rendezvous_timeout_secs: Option<u64>,
    /// Checkpoint every `k` layers and recompute inside backward
    /// (consumed by model stacks via their `StackOptions`).
    pub recompute_every: Option<usize>,
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
            recompute_every: None,
        }
    }

    /// [`RunConfig::new`] with the `TESSERACT_*` environment knobs parsed
    /// into their fields. This is the single environment-read site of the
    /// workspace; the semantics of each variable are unchanged:
    ///
    /// * `TESSERACT_TRACE` — anything other than unset/empty/`0`/`false`/
    ///   `off` enables tracing.
    /// * `TESSERACT_KERNEL` — `scalar` | `avx2` | `avx512` | `auto`; an
    ///   unknown value panics, and forcing a backend the host does not
    ///   support panics at [`RunConfig::install`] time (a forced path must
    ///   never silently degrade).
    /// * `TESSERACT_RENDEZVOUS_TIMEOUT_SECS` — non-negative integer; a
    ///   set-but-unparsable value panics instead of silently hanging for
    ///   the two-minute default.
    pub fn from_env(world: usize) -> Self {
        let mut cfg = Self::new(world);
        if let Ok(v) = std::env::var("TESSERACT_TRACE") {
            cfg.trace = !(v.is_empty()
                || v == "0"
                || v.eq_ignore_ascii_case("false")
                || v.eq_ignore_ascii_case("off"));
        }
        if let Ok(v) = std::env::var("TESSERACT_KERNEL") {
            cfg.kernel = parse_kernel(&v);
        }
        if let Ok(v) = std::env::var("TESSERACT_RENDEZVOUS_TIMEOUT_SECS") {
            let secs = v.parse().unwrap_or_else(|_| {
                panic!(
                    "TESSERACT_RENDEZVOUS_TIMEOUT_SECS must be a non-negative \
                     integer number of seconds, got {v:?}"
                )
            });
            cfg.rendezvous_timeout_secs = Some(secs);
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

    /// Forces the GEMM micro-kernel backend (first installer wins).
    pub fn with_kernel(mut self, kernel: MicroKernel) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Sets an explicit rendezvous timeout for this cluster's fabric. Used
    /// by failure-injection tests so a deliberate deadlock fails fast
    /// without mutating process-global state.
    pub fn with_rendezvous_timeout_secs(mut self, secs: u64) -> Self {
        self.rendezvous_timeout_secs = Some(secs);
        self
    }

    /// Checkpoints every `k` layers, recomputing inside backward.
    pub fn with_recompute_every(mut self, k: Option<usize>) -> Self {
        self.recompute_every = k;
        self
    }

    /// Applies the process-global knobs (forced kernel, trace default,
    /// rendezvous-timeout default). Idempotent; for each
    /// knob the first install wins, matching the old once-per-process env
    /// caching. [`RunConfig::cluster`] calls this, so explicit calls are
    /// only needed by code that runs kernels without a cluster (e.g. the
    /// single-process GEMM benches).
    pub fn install(&self) {
        if let Some(k) = self.kernel {
            matmul::force_kernel(k);
        }
        trace::set_default_enabled(self.trace);
        if let Some(secs) = self.rendezvous_timeout_secs {
            fabric::set_default_rendezvous_timeout_secs(secs);
        }
    }

    /// Installs the process-global knobs and builds the [`Cluster`] this
    /// configuration describes.
    pub fn cluster(&self) -> Cluster {
        self.install();
        Cluster {
            world: self.world,
            topology: self.topology,
            params: self.params,
            trace: self.trace,
            rendezvous_timeout_secs: self.rendezvous_timeout_secs,
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_a100_cluster() {
        let cfg = RunConfig::new(8);
        let cluster = cfg.cluster();
        assert_eq!(cluster.world, 8);
        assert!(!cluster.trace);
        assert_eq!(cluster.rendezvous_timeout_secs, None);
        assert_eq!(cfg.recompute_every, None);
    }

    #[test]
    fn builder_fields_flow_into_the_cluster() {
        let cluster = RunConfig::new(4).with_trace(true).with_rendezvous_timeout_secs(7).cluster();
        assert!(cluster.trace);
        assert_eq!(cluster.rendezvous_timeout_secs, Some(7));
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
}
