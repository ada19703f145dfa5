//! Execution metering.
//!
//! Every tensor op — dense or shadow — charges a [`Meter`] with the flops it
//! performs and the bytes it allocates for its output. A [`Meter::record`]
//! with flops is one kernel launch; a zero-flop op (slice, concatenation)
//! is data movement and launches none. The one-pass optimizer ops charge
//! their op chain run on shadow shapes, so the clock cannot tell them
//! apart. A fused launch is its op chain under `tensor::fused`: the chain
//! runs on a meter of its own and [`Meter::record_fused`] charges it as one
//! launch with the chain's flops and GEMM dispatch tallies and only the
//! output's bytes (each collective-free stretch of a serving layer).
//! The cluster runtime converts these into simulated time (`flops /
//! device_rate + kernels * launch_overhead`), which is what the Table 1 /
//! Table 2 reproductions report instead of host wall-clock.
//!
//! A meter holds compute flows only. A rank's collective wait, its serving
//! step counts and its KV, weight and tape high-water marks are booked where
//! they are produced: in the comm crate's per-rank context and ledger.

use crate::matmul::KernelPath;

/// Accumulated compute-side costs for one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Meter {
    /// Floating-point operations performed (multiply-accumulate counts as 2).
    pub flops: f64,
    /// Bytes allocated for op outputs (activation-memory proxy).
    pub bytes_allocated: u64,
    /// Number of kernel launches (each costs fixed overhead on a real GPU).
    pub kernels: u64,
    /// GEMM launches dispatched to the blocked-parallel kernel.
    pub gemms_blocked: u64,
    /// GEMM launches that fell back to the serial kernel (below the
    /// `matmul::planned_path` size threshold).
    pub gemms_serial: u64,
}

impl Meter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one op: `flops` of math producing `out_bytes` of output.
    /// Zero-flop ops (slices, concatenations, transposes) model as views /
    /// fused data movement and launch no kernel — real frameworks do not
    /// pay a launch per reshape.
    pub fn record(&mut self, flops: f64, out_bytes: usize) {
        self.flops += flops;
        self.bytes_allocated += out_bytes as u64;
        if flops > 0.0 {
            self.kernels += 1;
        }
    }

    /// Records one GEMM launch, additionally tallying which kernel
    /// implementation its shape dispatched to. The one caller
    /// (`tensor::gemm_op`) derives `path` from `matmul::planned_path`, a
    /// function of the shape alone, so the tallies are the same on the dense
    /// and the shadow backend. Every blocked GEMM of a process runs on its
    /// one `matmul::active_kernel`, so the per-backend split is not tallied
    /// here; the rank's report derives it.
    pub fn record_gemm(&mut self, flops: f64, out_bytes: usize, path: KernelPath) {
        self.record(flops, out_bytes);
        match path {
            KernelPath::Blocked => self.gemms_blocked += 1,
            KernelPath::Serial => self.gemms_serial += 1,
        }
    }

    /// Records one fused launch of an op chain charged on its own meter
    /// `chain`: the chain's flops and GEMM dispatch tallies in one launch
    /// (none for a zero-flop chain), and `out_bytes` of output — the
    /// chain's intermediates never leave the launch. The one caller is
    /// `tensor::fused`.
    pub fn record_fused(&mut self, chain: &Meter, out_bytes: usize) {
        let kernels = u64::from(chain.flops > 0.0);
        self.merge(&Meter { kernels, bytes_allocated: out_bytes as u64, ..*chain });
    }

    /// Opens a labeled RAII instrumentation scope over this meter. The
    /// guard derefs to the meter, so any op that takes `&mut Meter` can be
    /// charged through it unchanged; when the guard drops, `label` is
    /// reported to the active tracer (if any) as a name hint for the next
    /// compute flush. Charging arithmetic is untouched — a scoped call is
    /// bitwise identical to an unscoped one.
    pub fn scope(&mut self, label: &'static str) -> MeterScope<'_> {
        MeterScope { meter: self, label }
    }

    /// Merges another meter into this one (e.g. per-layer into per-step).
    pub fn merge(&mut self, other: &Meter) {
        self.flops += other.flops;
        self.bytes_allocated += other.bytes_allocated;
        self.kernels += other.kernels;
        self.gemms_blocked += other.gemms_blocked;
        self.gemms_serial += other.gemms_serial;
    }

    /// Returns the current totals and resets the meter, for converting a
    /// batch of ops into simulated time exactly once.
    pub fn take(&mut self) -> Meter {
        std::mem::take(self)
    }
}

/// RAII guard from [`Meter::scope`]: the single front door of the
/// instrumentation API. It times and counts exactly like the bare meter
/// (via `Deref`/`DerefMut` — zero charging changes) and, on drop, emits
/// its label to the per-rank tracer so the next compute-flush trace span
/// is named after the ops it contains.
pub struct MeterScope<'m> {
    meter: &'m mut Meter,
    label: &'static str,
}

impl MeterScope<'_> {
    /// The label this scope reports to the tracer.
    pub fn label(&self) -> &'static str {
        self.label
    }
}

impl std::ops::Deref for MeterScope<'_> {
    type Target = Meter;

    fn deref(&self) -> &Meter {
        self.meter
    }
}

impl std::ops::DerefMut for MeterScope<'_> {
    fn deref_mut(&mut self) -> &mut Meter {
        self.meter
    }
}

impl Drop for MeterScope<'_> {
    fn drop(&mut self) {
        crate::trace::on_scope_label(self.label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut m = Meter::new();
        m.record(100.0, 64);
        m.record(50.0, 32);
        assert_eq!(m.flops, 150.0);
        assert_eq!(m.bytes_allocated, 96);
        assert_eq!(m.kernels, 2);
    }

    #[test]
    fn zero_flop_ops_launch_no_kernel() {
        let mut m = Meter::new();
        m.record(0.0, 1024);
        assert_eq!(m.kernels, 0);
        assert_eq!(m.bytes_allocated, 1024);
    }

    #[test]
    fn take_resets() {
        let mut m = Meter::new();
        m.record(10.0, 8);
        let snap = m.take();
        assert_eq!(snap.kernels, 1);
        assert_eq!(m, Meter::default());
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = Meter::new();
        a.record(1.0, 2);
        let mut b = Meter::new();
        b.record(3.0, 4);
        a.merge(&b);
        assert_eq!(a.flops, 4.0);
        assert_eq!(a.bytes_allocated, 6);
        assert_eq!(a.kernels, 2);
    }

    #[test]
    fn scope_charges_like_the_bare_meter_and_labels_the_tracer() {
        let mut scoped = Meter::new();
        {
            let mut s = scoped.scope("gemm");
            s.record(100.0, 64);
            assert_eq!(s.label(), "gemm");
        }
        let mut bare = Meter::new();
        bare.record(100.0, 64);
        assert_eq!(scoped, bare, "scope must be charging-transparent");
        // With a tracer installed, the label names the next flush event.
        crate::trace::install(0);
        {
            let mut s = scoped.scope("gemm");
            s.record(1.0, 4);
        }
        crate::trace::on_flush(1.0, 1, 4, 0.0, 1.0);
        let events = crate::trace::take();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "gemm");
    }

    #[test]
    fn gemm_dispatch_counts_by_path() {
        let mut m = Meter::new();
        m.record_gemm(10.0, 8, KernelPath::Serial);
        m.record_gemm(20.0, 8, KernelPath::Blocked);
        m.record_gemm(30.0, 8, KernelPath::Blocked);
        assert_eq!((m.gemms_serial, m.gemms_blocked), (1, 2));
        assert_eq!(m.kernels, 3);
        let mut other = Meter::new();
        other.record_gemm(1.0, 1, KernelPath::Serial);
        m.merge(&other);
        assert_eq!((m.gemms_serial, m.gemms_blocked), (2, 2));
    }
}
