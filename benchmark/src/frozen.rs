//! Constants frozen at the commit that defined the benchmark. A change
//! that moves one of them changed the *modelled* system, not just the
//! simulator, and must say so by updating this file in a change of its own.

/// Latency limits of `serve.virt_goodput_rps`: twice the p99 values the
/// seed commit measured at 600 req/s on the default seed (42), 1 000
/// requests, Shadow backend. Virtual seconds.
pub const SLO_TTFT_P99_S: f64 = 2.0 * 0.002532656871933936;
pub const SLO_TPOT_P99_S: f64 = 2.0 * 0.0019115238838603998;

/// Dry-run makespans of the three paper schemes on the Table-1 job, in
/// virtual seconds: the full-precision values behind the nine digits
/// committed in `BENCH_plan.json` (0.438712178, 0.200873046, 0.197898713).
pub const PAPER_MAKESPANS_S: [(&str, f64); 3] = [
    ("megatron[64]", 0.4387121784147193),
    ("tesseract[8,8,1]", 0.20087304635904013),
    ("tesseract[4,4,4]", 0.19789871340544035),
];
