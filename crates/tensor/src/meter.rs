//! Execution metering.
//!
//! Every tensor op — dense or shadow — charges a [`Meter`] with the flops it
//! performs, the bytes it allocates for its output, and one "kernel launch".
//! The cluster runtime converts these into simulated time
//! (`flops / device_rate + kernels * launch_overhead`), which is what the
//! Table 1 / Table 2 reproductions report instead of host wall-clock.

use crate::matmul::{KernelPath, MicroKernel};

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
    /// Blocked-GEMM dispatches that ran the scalar micro-kernel backend
    /// (`matmul::MicroKernel::Scalar`, the portable 4×8 tile).
    pub gemms_kernel_scalar: u64,
    /// Blocked-GEMM dispatches that ran the AVX2+FMA micro-kernel backend
    /// (`matmul::MicroKernel::Avx2`, the 6×16 `_mm256_fmadd_ps` tile).
    pub gemms_kernel_avx2: u64,
    /// Blocked-GEMM dispatches that ran the AVX-512 micro-kernel backend
    /// (`matmul::MicroKernel::Avx512`, the 8×32 `_mm512_fmadd_ps` tile).
    pub gemms_kernel_avx512: u64,
    /// Host-side deep copies of collective payloads (each one a real
    /// memcpy the zero-copy collectives exist to avoid). Never converted
    /// into simulated time: copies are a host artifact, not part of the
    /// α–β model.
    pub payload_copies: u64,
    /// Bytes duplicated by those payload copies.
    pub payload_copy_bytes: u64,
    /// Simulated nanoseconds this rank's clock spent blocked in collectives
    /// (the `advance_comm` deltas). Recorded as integer nanoseconds so the
    /// counter is bitwise deterministic across runs.
    pub comm_wait_nanos: u64,
    /// Simulated nanoseconds of collective wait that split-phase overlap
    /// hid under compute (zero on the serial path). Informational: already
    /// excluded from `comm_wait_nanos`, never re-charged.
    pub overlap_hidden_nanos: u64,
    /// Serving-engine prefill steps this rank participated in (each one
    /// processes the full prompts of a batch of admitted requests).
    pub prefill_steps: u64,
    /// Serving-engine decode steps this rank participated in (each one
    /// advances every active request by one token).
    pub decode_steps: u64,
    /// Peak bytes of KV-cache blocks resident on this rank. Tracked as a
    /// high-water mark (merge takes the max), never converted into
    /// simulated time: it is the serving analogue of activation peak
    /// memory, the binding constraint at long sequence lengths.
    pub kv_cache_bytes_peak: u64,
    /// Peak bytes of tape-held activations resident on this rank: the
    /// training analogue of `kv_cache_bytes_peak`. A high-water mark over
    /// the running total of bytes pushed-minus-popped across every
    /// module's [`Tape`](../module) — what checkpointed recomputation
    /// exists to shrink. Merge takes the max.
    pub activation_bytes_peak: u64,
}

/// Converts simulated seconds into the integer-nanosecond resolution the
/// overlap counters use. Rounding (not truncation) keeps the conversion
/// stable against the ±1 ulp wobble of f64 cost arithmetic.
fn to_nanos(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
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
    /// implementation its shape dispatched to, and — for blocked dispatches
    /// — which micro-kernel backend the process resolved
    /// (`matmul::active_kernel`). The one caller (`tensor::gemm_op`) derives
    /// `path` from `matmul::planned_path`, a function of the shape alone, so
    /// the tallies are the same on the dense and the shadow backend.
    pub fn record_gemm(&mut self, flops: f64, out_bytes: usize, path: KernelPath) {
        self.record(flops, out_bytes);
        match path {
            KernelPath::Blocked => {
                self.gemms_blocked += 1;
                match crate::matmul::active_kernel() {
                    MicroKernel::Scalar => self.gemms_kernel_scalar += 1,
                    MicroKernel::Avx2 => self.gemms_kernel_avx2 += 1,
                    MicroKernel::Avx512 => self.gemms_kernel_avx512 += 1,
                }
            }
            KernelPath::Serial => self.gemms_serial += 1,
        }
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

    /// Charges one deep copy of a collective payload of `bytes` bytes.
    /// Copies contribute to no simulated time — `compute_time` never sees
    /// them — they exist so the copy-elimination in the shared collectives
    /// is observable and regressions are testable.
    pub fn charge_payload_copy(&mut self, bytes: u64) {
        self.payload_copies += 1;
        self.payload_copy_bytes += bytes;
    }

    /// Charges `seconds` of simulated time spent blocked in a collective.
    pub fn charge_comm_wait(&mut self, seconds: f64) {
        self.comm_wait_nanos += to_nanos(seconds);
    }

    /// Charges `seconds` of collective wait hidden under compute by a
    /// split-phase `begin`/`complete` pair.
    pub fn charge_overlap_hidden(&mut self, seconds: f64) {
        self.overlap_hidden_nanos += to_nanos(seconds);
    }

    /// Counts one serving prefill step (bookkeeping only, no time).
    pub fn charge_prefill_step(&mut self) {
        self.prefill_steps += 1;
    }

    /// Counts one serving decode step (bookkeeping only, no time).
    pub fn charge_decode_step(&mut self) {
        self.decode_steps += 1;
    }

    /// Raises the KV-cache high-water mark to `bytes` if it is the new
    /// peak. The serving engine calls this with its current per-rank cache
    /// footprint after every admit/append/evict transition.
    pub fn note_kv_cache_bytes(&mut self, bytes: u64) {
        self.kv_cache_bytes_peak = self.kv_cache_bytes_peak.max(bytes);
    }

    /// Raises the tape-held activation high-water mark to `bytes` if it is
    /// the new peak. Called by the tape-accounting layer with the rank's
    /// running tape total after every push.
    pub fn note_activation_bytes(&mut self, bytes: u64) {
        self.activation_bytes_peak = self.activation_bytes_peak.max(bytes);
    }

    /// Merges another meter into this one (e.g. per-layer into per-step).
    pub fn merge(&mut self, other: &Meter) {
        self.flops += other.flops;
        self.bytes_allocated += other.bytes_allocated;
        self.kernels += other.kernels;
        self.gemms_blocked += other.gemms_blocked;
        self.gemms_serial += other.gemms_serial;
        self.gemms_kernel_scalar += other.gemms_kernel_scalar;
        self.gemms_kernel_avx2 += other.gemms_kernel_avx2;
        self.gemms_kernel_avx512 += other.gemms_kernel_avx512;
        self.payload_copies += other.payload_copies;
        self.payload_copy_bytes += other.payload_copy_bytes;
        self.comm_wait_nanos += other.comm_wait_nanos;
        self.overlap_hidden_nanos += other.overlap_hidden_nanos;
        self.prefill_steps += other.prefill_steps;
        self.decode_steps += other.decode_steps;
        // Peak memory is a high-water mark, not a flow: merging windows
        // keeps the larger peak instead of summing.
        self.kv_cache_bytes_peak = self.kv_cache_bytes_peak.max(other.kv_cache_bytes_peak);
        self.activation_bytes_peak = self.activation_bytes_peak.max(other.activation_bytes_peak);
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
    fn payload_copies_accumulate_and_merge() {
        let mut a = Meter::new();
        a.charge_payload_copy(256);
        a.charge_payload_copy(64);
        assert_eq!((a.payload_copies, a.payload_copy_bytes), (2, 320));
        // Copies launch no kernels and allocate no metered output bytes:
        // they must never leak into simulated time.
        assert_eq!((a.kernels, a.bytes_allocated), (0, 0));
        assert_eq!(a.flops, 0.0);
        let mut b = Meter::new();
        b.charge_payload_copy(8);
        a.merge(&b);
        assert_eq!((a.payload_copies, a.payload_copy_bytes), (3, 328));
    }

    #[test]
    fn comm_wait_and_hidden_nanos_accumulate_and_merge() {
        let mut a = Meter::new();
        a.charge_comm_wait(1.5e-6);
        a.charge_comm_wait(0.5e-6);
        a.charge_overlap_hidden(0.25e-6);
        assert_eq!((a.comm_wait_nanos, a.overlap_hidden_nanos), (2000, 250));
        // Wait counters are pure bookkeeping: no kernels, no flops, no
        // allocation — they must never turn into compute time.
        assert_eq!((a.kernels, a.bytes_allocated), (0, 0));
        assert_eq!(a.flops, 0.0);
        let mut b = Meter::new();
        b.charge_comm_wait(1e-9);
        b.charge_overlap_hidden(2e-9);
        a.merge(&b);
        assert_eq!((a.comm_wait_nanos, a.overlap_hidden_nanos), (2001, 252));
    }

    #[test]
    fn nanos_conversion_rounds_instead_of_truncating() {
        let mut m = Meter::new();
        // 0.1 µs is not exactly representable; rounding keeps it at 100 ns.
        m.charge_comm_wait(1e-7);
        assert_eq!(m.comm_wait_nanos, 100);
    }

    #[test]
    fn scope_charges_like_the_bare_meter_and_labels_the_tracer() {
        let mut scoped = Meter::new();
        {
            let mut s = scoped.scope("gemm");
            s.record(100.0, 64);
            s.charge_payload_copy(8);
            assert_eq!(s.label(), "gemm");
        }
        let mut bare = Meter::new();
        bare.record(100.0, 64);
        bare.charge_payload_copy(8);
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
    fn serving_counters_accumulate_and_merge() {
        let mut a = Meter::new();
        a.charge_prefill_step();
        a.charge_decode_step();
        a.charge_decode_step();
        a.note_kv_cache_bytes(1024);
        a.note_kv_cache_bytes(512); // below the peak: must not lower it
        assert_eq!((a.prefill_steps, a.decode_steps), (1, 2));
        assert_eq!(a.kv_cache_bytes_peak, 1024);
        // Serving counters are pure bookkeeping: no kernels, no flops, no
        // allocation — they must never turn into simulated time.
        assert_eq!((a.kernels, a.bytes_allocated), (0, 0));
        assert_eq!(a.flops, 0.0);
        let mut b = Meter::new();
        b.charge_prefill_step();
        b.charge_decode_step();
        b.note_kv_cache_bytes(768);
        a.merge(&b);
        // Steps are flows (summed); the peak is a high-water mark (max).
        assert_eq!((a.prefill_steps, a.decode_steps), (2, 3));
        assert_eq!(a.kv_cache_bytes_peak, 1024);
        let mut c = Meter::new();
        c.note_kv_cache_bytes(4096);
        a.merge(&c);
        assert_eq!(a.kv_cache_bytes_peak, 4096);
    }

    #[test]
    fn activation_peak_is_a_high_water_mark() {
        let mut a = Meter::new();
        a.note_activation_bytes(2048);
        a.note_activation_bytes(512); // below the peak: must not lower it
        assert_eq!(a.activation_bytes_peak, 2048);
        // Pure bookkeeping: never turns into simulated time.
        assert_eq!((a.kernels, a.bytes_allocated), (0, 0));
        assert_eq!(a.flops, 0.0);
        let mut b = Meter::new();
        b.note_activation_bytes(4096);
        a.merge(&b);
        assert_eq!(a.activation_bytes_peak, 4096);
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

    #[test]
    fn gemm_dispatch_counts_the_active_micro_kernel() {
        let mut m = Meter::new();
        m.record_gemm(10.0, 8, KernelPath::Serial);
        // Serial dispatches never touch a micro-kernel backend.
        let per_kernel =
            |m: &Meter| (m.gemms_kernel_scalar, m.gemms_kernel_avx2, m.gemms_kernel_avx512);
        assert_eq!(per_kernel(&m), (0, 0, 0));
        m.record_gemm(20.0, 8, KernelPath::Blocked);
        m.record_gemm(30.0, 8, KernelPath::Blocked);
        // Blocked dispatches count against exactly the resolved backend.
        let expected = match crate::matmul::active_kernel() {
            MicroKernel::Scalar => (2, 0, 0),
            MicroKernel::Avx2 => (0, 2, 0),
            MicroKernel::Avx512 => (0, 0, 2),
        };
        assert_eq!(per_kernel(&m), expected);
        let mut other = Meter::new();
        other.record_gemm(1.0, 1, KernelPath::Blocked);
        m.merge(&other);
        let (scalar, avx2, avx512) = per_kernel(&m);
        assert_eq!(scalar + avx2 + avx512, m.gemms_blocked);
        assert_eq!(m.gemms_blocked, 3);
    }
}
