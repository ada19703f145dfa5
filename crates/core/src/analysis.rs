//! Closed-form communication and memory analysis (paper §1, §3.1,
//! Eq. 7–12): transmission counts of Cannon / 2.5-D / Tesseract, the
//! per-processor memory formulas for Tesseract vs. Megatron-LM, the
//! bandwidth/latency lower bounds and the isoefficiency functions.
//!
//! The `comm_cost_table` and `memory_table` binaries evaluate these and
//! cross-check them against byte counts *measured* by the simulated
//! cluster's collectives.

/// §3.1: Cannon's algorithm transfer count for one matmul on `p` GPUs:
/// `2·p^{3/2} − 2·p^{1/2}`.
pub fn transmissions_cannon(p: usize) -> f64 {
    let p = p as f64;
    2.0 * p.powf(1.5) - 2.0 * p.sqrt()
}

/// §3.1: 2.5-D algorithm transfer count: `2·p − 2·p^{1/3}`.
pub fn transmissions_25d(p: usize) -> f64 {
    let p = p as f64;
    2.0 * p - 2.0 * p.powf(1.0 / 3.0)
}

/// §3.1: Tesseract transfer count at `d = q` (so `p = q³`): `2·p^{2/3}`.
pub fn transmissions_tesseract_cube(p: usize) -> f64 {
    (p as f64).powf(2.0 / 3.0) * 2.0
}

/// Eq. 7/8: per-processor element count for one Tesseract matmul of
/// `[a, b] × [b, c]` on a `[q, q, d]` grid:
/// `ab/p + bcd/p + ac/p` with `p = q²d`.
pub fn memory_tesseract(a: usize, b: usize, c: usize, q: usize, d: usize) -> f64 {
    let p = (q * q * d) as f64;
    let (a, b, c, d) = (a as f64, b as f64, c as f64, d as f64);
    a * b / p + b * c * d / p + a * c / p
}

/// Eq. 9/10: per-processor element count for Megatron-LM:
/// `ab + bc/p + ac/p` (the full activation is replicated on every GPU).
pub fn memory_megatron(a: usize, b: usize, c: usize, p: usize) -> f64 {
    let p = p as f64;
    let (a, b, c) = (a as f64, b as f64, c as f64);
    a * b + b * c / p + a * c / p
}

/// §3.1 isoefficiency functions: the rate at which problem size must grow
/// with `p` to hold efficiency constant. Returns `W(p)` up to a constant.
pub fn isoefficiency_megatron(p: usize) -> f64 {
    (p as f64).powi(3)
}

/// Optimus: `W ~ (√p · log p)³`.
pub fn isoefficiency_optimus(p: usize) -> f64 {
    let pf = p as f64;
    (pf.sqrt() * pf.log2()).powi(3)
}

/// Eq. 4/5: bandwidth and latency lower bounds of 2.5-D with replication
/// `d`, `W = Ω(n²/√(d·p))`, `S = Ω(√p / d^{3/2})`. At `d = 1` they are
/// Cannon's 2-D bounds of Eq. 1/2, `W = Ω(n²/√p)`, `S = Ω(√p)`.
pub fn lower_bounds_25d(n: usize, p: usize, d: usize) -> (f64, f64) {
    let (n, p, d) = (n as f64, p as f64, d as f64);
    (n * n / (d * p).sqrt(), p.sqrt() / d.powf(1.5))
}

/// Parallel efficiency from Eq. 12: `1 / (1 + T_comm · p / W)`.
pub fn efficiency(serial_work: f64, p: usize, t_comm: f64) -> f64 {
    1.0 / (1.0 + t_comm * p as f64 / serial_work)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §1: "with 64 processors, Cannon needs 31.5× the communication of
    /// Tesseract, and 2.5-D needs 3.75×".
    #[test]
    fn paper_ratio_claims_at_p64() {
        let cannon = transmissions_cannon(64);
        let d25 = transmissions_25d(64);
        let tess = transmissions_tesseract_cube(64);
        assert!((cannon / tess - 31.5).abs() < 1e-9, "cannon ratio {}", cannon / tess);
        assert!((d25 / tess - 3.75).abs() < 1e-9, "2.5-D ratio {}", d25 / tess);
    }

    /// §3.1: Tesseract requires fewer transmissions than Cannon and 2.5-D
    /// once more than a handful of GPUs are involved, and its advantage
    /// grows with q (p = q³).
    #[test]
    fn transmission_advantage_grows_with_q() {
        let at = |q: usize| {
            let p = q * q * q;
            (transmissions_cannon(p), transmissions_25d(p), transmissions_tesseract_cube(p))
        };
        let mut prev_cannon_ratio = 0.0;
        let mut prev_25d_ratio = 0.0;
        for q in 2..=8 {
            let (cannon, d25, tess) = at(q);
            assert!(cannon > tess, "q={q}: Tesseract beats Cannon");
            assert!(d25 > tess, "q={q}: Tesseract beats 2.5-D");
            assert!(cannon / tess > prev_cannon_ratio, "Cannon ratio grows");
            assert!(d25 / tess > prev_25d_ratio, "2.5-D ratio grows");
            prev_cannon_ratio = cannon / tess;
            prev_25d_ratio = d25 / tess;
        }
    }

    /// Eq. 8 vs Eq. 10: Megatron stores the full `[a, b]` activation;
    /// Tesseract stores `1/p` of it.
    #[test]
    fn tesseract_memory_is_smaller_for_large_activations() {
        let (a, b, c) = (6144, 3072, 12288);
        let (q, d) = (4, 4);
        let p = q * q * d;
        let tess = memory_tesseract(a, b, c, q, d);
        let mega = memory_megatron(a, b, c, p);
        assert!(tess < mega, "tesseract {} vs megatron {}", tess, mega);
        // The activation term dominates Megatron's footprint; Tesseract's
        // only overhead is the d-fold weight replication (Eq. 8), so the
        // ratio is large: here a·b/p + b·c·d/p + a·c/p vs a·b + ... ≈ 5.4×.
        assert!(mega / tess > 5.0);
    }

    #[test]
    fn memory_formulas_match_hand_computation() {
        // [8, 4] x [4, 6] on [2, 2, 2]: p = 8.
        let tess = memory_tesseract(8, 4, 6, 2, 2);
        assert!((tess - (32.0 / 8.0 + 24.0 * 2.0 / 8.0 + 48.0 / 8.0)).abs() < 1e-12);
        let mega = memory_megatron(8, 4, 6, 8);
        assert!((mega - (32.0 + 3.0 + 6.0)).abs() < 1e-12);
    }

    #[test]
    fn isoefficiency_ordering() {
        // Megatron's isoefficiency grows faster than Optimus's beyond the
        // small-p regime where the log factor dominates.
        assert!(isoefficiency_megatron(4096) > isoefficiency_optimus(4096));
    }

    #[test]
    fn efficiency_is_one_without_comm() {
        assert_eq!(efficiency(1e9, 64, 0.0), 1.0);
        assert!(efficiency(1e9, 64, 1e6) < 1.0);
    }
}
