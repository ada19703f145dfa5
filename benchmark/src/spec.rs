//! The benchmark's metric tables: every name `BENCHMARK.json` lists, with
//! its unit, clock, source and the end-to-end metric it should move. The
//! crate's tests hold `BENCHMARK.json` to these tables.
//!
//! Two clocks, named in every metric: `virt_*` (or a `virt_` unit) is
//! simulated time on the α–β clock — deterministic for a given seed —
//! and `host_*` is wall time of this process on this machine. Counts and
//! bytes are exact.

/// An end-to-end metric: every workload reports every one of these.
///
/// Bounds are set from two ten-seed sets on a 2-vCPU shared host, where
/// the spread (inter-quartile over median) of `host_op_s` was 1.8–1.9 %
/// on `train_gemm` but 4–8 % on the three thread-heavy workloads (worst:
/// 8.4 % on `train_comm`), with run-level excursions of ±10 % that
/// measuring longer does not average out (same seed, ten runs: 3.5 % at
/// 10 s, 6.4 % at 20 s); a bound keeps three times the worst spread seen.
/// The seed alone moves `serve_open`'s capacity by 1.6–1.9 % and its peak
/// KV by 4.2–4.4 %.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", clock: "host", better: "lower", bound: 0.25 },
    EndToEnd { name: "host_op_s", unit: "s", clock: "host", better: "lower", bound: 0.25 },
    EndToEnd {
        name: "virt_ops_per_s",
        unit: "1/virt_s",
        clock: "virtual",
        better: "higher",
        bound: 0.06,
    },
    EndToEnd {
        name: "mem_peak_bytes",
        unit: "bytes",
        clock: "exact",
        better: "lower",
        bound: 0.15,
    },
];

/// Where a per-layer number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// A public report of the traced run (`RunOutput.{reports,comm}`,
    /// `ServeSummary`, `Plan`).
    Report,
    /// A host span the benchmark records around a public call.
    Span,
    /// A roll-up of the library's own `RunOutput.traces` events.
    Trace,
    /// A probe: the layer's public function timed directly.
    Probe,
}

impl Source {
    pub fn tag(self) -> &'static str {
        match self {
            Source::Report => "R",
            Source::Span => "S",
            Source::Trace => "T",
            Source::Probe => "P",
        }
    }
}

/// A per-layer metric. Every workload reports every one; a workload that
/// does not exercise the layer (or runs no probe for it) reports 0.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
    /// The end-to-end metric × workload this number should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, source, moves }
}

use Source::{Probe as P, Report as R, Span as S, Trace as T};

const GEMM: &str = "host_op_s on train_gemm and serve_open; none on train_comm, plan_paper64";
const ALLOC: &str = "host_op_s on serve_open and, through allocation, train_gemm";
const FABRIC: &str = "host_op_s on train_comm, plan_paper64 and serve_open";
const WIRE: &str = "virt_ops_per_s on every workload";
const STEP: &str = "host_op_s and virt_ops_per_s on train_*";
const TRAIN: &str = "host_op_s on train_gemm";
const INFER: &str = "host_op_s on serve_open; serve.virt_ttft_*, serve.virt_tpot_*";
const SERVE: &str = "virt_ops_per_s on serve_open; larger batches lengthen serve.virt_tpot_*";
const LATENCY: &str = "the serving user's latency at a fixed offered load";
const PLAN: &str = "host_op_s on plan_paper64";
const MODEL: &str = "virt_ops_per_s on plan_paper64";

pub const PER_LAYER: &[PerLayer] = &[
    // tensor.matmul
    m("tensor.gemm_flops_per_step", "flop", "lower", R, GEMM),
    m("tensor.gemm_calls_blocked", "count", "lower", R, GEMM),
    m("tensor.gemm_calls_serial", "count", "lower", R, GEMM),
    m("tensor.gemm_calls_avx2", "count", "higher", R, GEMM),
    m("tensor.gemm_host_gflops.nn", "GFLOP/s", "higher", P, GEMM),
    m("tensor.gemm_host_gflops.nt", "GFLOP/s", "higher", P, GEMM),
    m("tensor.gemm_host_gflops.tn", "GFLOP/s", "higher", P, GEMM),
    m("tensor.gemm_skinny_host_gflops", "GFLOP/s", "higher", P, "host_op_s on serve_open"),
    // tensor.nn / tensor.tensor
    m("tensor.softmax_masked_host_ns_per_elem", "ns", "lower", P, ALLOC),
    m("tensor.concat_rows_host_ns_per_byte", "ns", "lower", P, ALLOC),
    m("tensor.bytes_allocated_per_step", "bytes", "lower", R, ALLOC),
    // comm.fabric / comm.group
    m("comm.calls_per_step", "count", "lower", R, FABRIC),
    m("comm.calls.broadcast", "count", "lower", R, FABRIC),
    m("comm.calls.reduce", "count", "lower", R, FABRIC),
    m("comm.calls.all_reduce", "count", "lower", R, FABRIC),
    m("comm.calls.all_gather", "count", "lower", R, FABRIC),
    m("comm.calls.reduce_scatter", "count", "lower", R, FABRIC),
    m("comm.calls.all_to_all", "count", "lower", R, FABRIC),
    m("comm.calls.barrier", "count", "lower", R, FABRIC),
    m("comm.calls.send_recv", "count", "lower", R, FABRIC),
    m("comm.wire_bytes_per_step", "bytes", "lower", R, WIRE),
    m("comm.payload_copies", "count", "lower", R, FABRIC),
    m("comm.virt_blocked_s", "virt_s", "lower", R, WIRE),
    m("comm.virt_hidden_s", "virt_s", "higher", R, WIRE),
    m("comm.hidden_frac", "ratio", "higher", R, WIRE),
    m("comm.allreduce_host_us.g2", "us", "lower", P, FABRIC),
    m("comm.allreduce_host_us.g4", "us", "lower", P, PLAN),
    m("comm.allreduce_host_us.g8", "us", "lower", P, FABRIC),
    m("comm.allreduce_host_us.g64", "us", "lower", P, PLAN),
    m("comm.bcast_host_us_1mib.g2", "us", "lower", P, "host_op_s on train_gemm"),
    m("comm.cluster_spawn_host_ms.w8", "ms", "lower", P, "setup_s and host_op_s on serve_open"),
    m("comm.cluster_spawn_host_ms.w64", "ms", "lower", P, PLAN),
    // comm.cost
    m("comm.virt_time_s.broadcast", "virt_s", "lower", R, WIRE),
    m("comm.virt_time_s.reduce", "virt_s", "lower", R, WIRE),
    m("comm.virt_time_s.all_reduce", "virt_s", "lower", R, WIRE),
    m("comm.virt_time_s.all_gather", "virt_s", "lower", R, WIRE),
    m("comm.virt_time_s.reduce_scatter", "virt_s", "lower", R, WIRE),
    m("comm.virt_time_s.all_to_all", "virt_s", "lower", R, WIRE),
    m("comm.virt_time_s.barrier", "virt_s", "lower", R, WIRE),
    m("comm.virt_time_s.send_recv", "virt_s", "lower", R, WIRE),
    // core.mm
    m("core.mm_host_us", "us", "lower", P, STEP),
    m("core.mm_virt_us", "virt_us", "lower", P, STEP),
    // core.layers / core.module
    m("core.fwd_host_s", "s", "lower", S, STEP),
    m("core.bwd_host_s", "s", "lower", S, STEP),
    m("core.fwd_virt_s", "virt_s", "lower", R, STEP),
    m("core.bwd_virt_s", "virt_s", "lower", R, STEP),
    m("core.scope_virt_s.transformer_layer", "virt_s", "lower", T, STEP),
    m("core.scope_blocked_s.transformer_layer", "virt_s", "lower", T, STEP),
    m("core.scope_virt_s.embed_head", "virt_s", "lower", T, STEP),
    m("core.sublayer_host_us.attention", "us", "lower", P, STEP),
    m("core.sublayer_host_us.mlp", "us", "lower", P, STEP),
    m("core.sublayer_host_us.layernorm", "us", "lower", P, STEP),
    m("core.sublayer_virt_us.attention", "virt_us", "lower", P, STEP),
    m("core.sublayer_virt_us.mlp", "virt_us", "lower", P, STEP),
    m("core.sublayer_virt_us.layernorm", "virt_us", "lower", P, STEP),
    m(
        "core.recompute_flops_frac",
        "ratio",
        "lower",
        R,
        "mem_peak_bytes against host_op_s on train_comm",
    ),
    // core.infer
    m("core.prefill_host_us_per_token", "us", "lower", P, INFER),
    m("core.decode_host_us_per_token", "us", "lower", P, INFER),
    m("core.prefill_virt_us_per_token", "virt_us", "lower", P, INFER),
    m("core.decode_virt_us_per_token", "virt_us", "lower", P, INFER),
    m("core.kv_bytes_per_token", "bytes", "lower", R, "mem_peak_bytes on serve_open"),
    // train
    m("train.data_host_s", "s", "lower", S, TRAIN),
    m("train.loss_host_s", "s", "lower", S, TRAIN),
    m("train.clip_host_s", "s", "lower", S, TRAIN),
    m("train.optim_host_s", "s", "lower", S, TRAIN),
    m("train.serial_step_host_s", "s", "lower", S, "the single-worker baseline of train_gemm"),
    m("train.loss_final", "loss", "lower", R, "correctness: must not move"),
    m("train.loss_rel_err_vs_serial", "ratio", "lower", R, "correctness: at most 1e-4"),
    // serve.engine / serve.traffic
    m("serve.steps_total", "count", "lower", R, SERVE),
    m("serve.prefill_steps", "count", "lower", R, SERVE),
    m("serve.decode_steps", "count", "lower", R, SERVE),
    m("serve.tokens_per_step", "count", "higher", R, SERVE),
    m("serve.kv_peak_bytes", "bytes", "lower", R, "mem_peak_bytes on serve_open"),
    m("serve.idle_frac", "ratio", "lower", R, SERVE),
    m("serve.completed", "count", "higher", R, "operations attempted on serve_open"),
    m("serve.failed", "count", "lower", R, "operations failed on serve_open"),
    m("serve.shadow_host_us_per_step", "us", "lower", S, "serve.engine and fabric alone"),
    m("serve.dense_host_us_per_step", "us", "lower", S, "host_op_s on serve_open"),
    m("serve.host_tokens_per_s", "1/s", "higher", S, "host_op_s on serve_open"),
    m("serve.traffic_gen_host_ms", "ms", "lower", S, "setup_s on serve_open"),
    m("serve.generator_lateness_s", "virt_s", "lower", R, "0 by construction"),
    m("serve.virt_ttft_p50_s", "virt_s", "lower", R, LATENCY),
    m("serve.virt_tpot_p50_s", "virt_s", "lower", R, LATENCY),
    m("serve.virt_ttft_p99_s.r600", "virt_s", "lower", R, LATENCY),
    m("serve.virt_ttft_p99_s.r900", "virt_s", "lower", R, LATENCY),
    m("serve.virt_ttft_p99_s.r1200", "virt_s", "lower", R, LATENCY),
    m("serve.virt_tpot_p99_s.r600", "virt_s", "lower", R, LATENCY),
    m("serve.virt_tpot_p99_s.r900", "virt_s", "lower", R, LATENCY),
    m("serve.virt_tpot_p99_s.r1200", "virt_s", "lower", R, LATENCY),
    m("serve.virt_goodput_rps", "1/virt_s", "higher", R, LATENCY),
    // plan (+ hybrid, baselines)
    m("plan.candidates", "count", "higher", R, PLAN),
    m("plan.feasible", "count", "higher", R, PLAN),
    m("plan.pruned_dryruns", "count", "higher", R, PLAN),
    m("plan.memo_hits", "count", "higher", R, PLAN),
    m("plan.winner_analytic_rank", "count", "lower", R, "whether pruning can lose the winner"),
    m("plan.enumerate_host_ms", "ms", "lower", S, PLAN),
    m("plan.analytic_host_ms", "ms", "lower", S, PLAN),
    m("plan.dryrun_host_s", "s", "lower", S, PLAN),
    m("plan.dryrun_host_s_per_candidate", "s", "lower", S, PLAN),
    m("baselines.megatron64_virt_step_s", "virt_s", "lower", R, MODEL),
    m("baselines.tess881_virt_step_s", "virt_s", "lower", R, MODEL),
    m("plan.virt_speedup_vs_1d", "ratio", "higher", R, "the paper's 1.38x over Megatron-LM"),
    m("plan.virt_speedup_vs_2d", "ratio", "higher", R, "the paper's 1.53x over 2-D"),
    m("plan.gap_abs_ln.megatron64", "ratio", "lower", R, "analytic model against the dry-run"),
    m("plan.gap_abs_ln.tess881", "ratio", "lower", R, "analytic model against the dry-run"),
    m("plan.gap_abs_ln.tess444", "ratio", "lower", R, "analytic model against the dry-run"),
    m("plan.gap_max_abs_ln", "ratio", "lower", R, "analytic model against the dry-run"),
    // the tracing itself
    m("trace_overhead_frac", "ratio", "lower", S, "traced host time over untraced, minus 1"),
];

/// One-line reasons for the workloads, as `BENCHMARK.json` carries them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "train_gemm",
        "Dense ViT step on [2,2,1] at hidden 512: blocked GEMM does most host work, collectives are few and large, so kernel, packing and allocation wins show here only",
    ),
    (
        "train_comm",
        "Dense 8-layer stack on [2,2,2] at hidden 64 with recompute: tiny serial GEMMs, ~2000 collectives a step, so fabric, SUMMA loop and tape replay wins show here; a GEMM win must not",
    ),
    (
        "serve_open",
        "Open-loop serving on [2,2,2]: tape-free forward, KV growth, skinny decode GEMMs, continuous batching; shows a large-tile GEMM or throughput-only fabric change that hurts small batches",
    ),
    (
        "plan_paper64",
        "plan() for the paper's 64-GPU Table-1 job on Shadow: planner, hybrid, Megatron baseline and the fabric under 64 rank threads, zero GEMM; a modelled-design change moves its virtual numbers",
    ),
];

/// How long one run measures, in seconds (`run_seconds` of the contract).
pub const RUN_SECONDS: u32 = 10;

/// The text of `BENCHMARK.json`, generated from the tables above so the
/// contract and the program cannot drift apart (a test compares the
/// committed file against this, byte for byte).
pub fn contract_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                e.name, e.unit, e.better, e.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|p| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                p.name, p.unit, p.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::Workload;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        names.extend(PER_LAYER.iter().map(|p| p.name));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for u in END_TO_END.iter().map(|e| e.unit).chain(PER_LAYER.iter().map(|p| p.unit)) {
            assert!(unit_ok(u), "bad unit {u:?}");
        }
        for e in &END_TO_END {
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{} bound out of range", e.name);
            assert!(matches!(e.better, "lower" | "higher"));
        }
        assert!(PER_LAYER.iter().all(|p| matches!(p.better, "lower" | "higher")));
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound), "setup_s has the largest bound");
        for (w, (name, why)) in Workload::ALL.iter().zip(WORKLOADS) {
            assert_eq!(w.name(), name);
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is {} chars", why.len());
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(contract_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_contract_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, contract_json(), "regenerate with `benchmark/run.sh --contract`");
        tesseract_tensor::trace::json::parse(&committed).expect("BENCHMARK.json parses");
    }
}
