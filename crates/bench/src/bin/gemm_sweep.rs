//! GEMM kernel sweep: seed-reference vs serial vs every blocked
//! micro-kernel backend, plus the shapes the benchmark's workloads run.
//!
//! Times the `n×n×n` product for each requested size on:
//!
//! * `seed` — a verbatim copy of the pre-blocking kernel this repo shipped
//!   with (ikj loop with the zero-skip branch), kept here as the fixed
//!   baseline the speedup columns are measured against;
//! * `serial` — the current serial kernel (zero-skip removed, vectorizable);
//! * one **lane per supported backend** ([`MicroKernel::ALL`]: scalar 4×8,
//!   AVX2 6×16, AVX-512 8×32) — the cache-blocked/packed kernel forced onto
//!   that micro-kernel, isolating each SIMD width's win. A GEMM runs on its
//!   calling thread, so every lane is one thread; the speed-up columns read
//!   the lane of the active backend
//!   ([`tesseract_tensor::matmul::active_kernel`]).
//!
//! Then the same lanes time [`WORKLOAD_SHAPES`] — the non-square GEMMs
//! `benchmark/`'s probes report — so the committed record measures what the
//! workloads run, not only squares; the `"serial_shapes"` block times the
//! serial path ([`matmul_serial_with`] and friends) at the small shapes
//! `train_comm` and a `serve_open` decode step run ([`SERIAL_SHAPES`]), one
//! lane per backend width; and the `"elementwise"` block times the non-GEMM
//! kernels of a step ([`ELEMENTWISE_SHAPES`]: GELU forward/backward, the
//! Adam direction) in ns per element, each beside the implementation it
//! replaced.
//!
//! No timing is accepted before its parity gate: the blocked vector
//! backends **bitwise** against each other (`avx2 == avx512`, the fused
//! numerics class), scalar-vs-vector within floating-point tolerance, every
//! serial width **bitwise** against the scalar one (the mul+add class), and
//! the elementwise kernels **bitwise** against their scalar function / op
//! chain (lane-independent `mul`/`add` sequences).
//!
//! Reports median wall time over `--reps` runs as a table on stdout and as
//! JSON (`--out`, default `BENCH_kernels.json`). The JSON records which
//! micro-kernel actually ran (`"kernel"`), whether it was forced via
//! `TESSERACT_KERNEL` (`"kernel_forced"`), which backends the host supports
//! (`"lanes"`), and the host's hardware parallelism (`"host_cpus"`), which
//! bounds how many rank threads can run such a GEMM at once.
//!
//! Run: `cargo run --release -p tesseract-bench --bin gemm_sweep -- \
//!           [--sizes 256,512,1024] [--reps 5] [--out BENCH_kernels.json]`

use std::hint::black_box;
use std::time::Instant;

use tesseract_comm::RunConfig;
use tesseract_tensor::matmul::{
    active_kernel, matmul_blocked_with, matmul_nt_blocked_with, matmul_nt_serial_with,
    matmul_serial, matmul_serial_with, matmul_tn_blocked_with, matmul_tn_serial_with, MicroKernel,
};
use tesseract_tensor::{
    max_rel_diff, nn, AdamCoeffs, DenseTensor, Matrix, Meter, TensorLike, Xoshiro256StarStar,
};

#[derive(Clone, Copy)]
enum Orient {
    Nn,
    Nt,
    Tn,
}

impl Orient {
    /// Random stored operands `(A, B)` of the logical `[m,k]·[k,n]` product
    /// (nt stores B as n×k, tn stores A as k×m).
    fn operands(self, m: usize, k: usize, n: usize) -> (Matrix, Matrix) {
        let mut rng = Xoshiro256StarStar::seed_from_u64((m * k + n) as u64);
        let ((ar, ac), (br, bc)) = match self {
            Orient::Nn => ((m, k), (k, n)),
            Orient::Nt => ((m, k), (n, k)),
            Orient::Tn => ((k, m), (k, n)),
        };
        let a = Matrix::random_uniform(ar, ac, -1.0, 1.0, &mut rng);
        (a, Matrix::random_uniform(br, bc, -1.0, 1.0, &mut rng))
    }
}

/// The GEMMs `benchmark/`'s probes time, as logical `[m,k]·[k,n]`: fc1's
/// SUMMA step on `train_gemm` in the three orientations a training step
/// runs it (`tensor.gemm_host_gflops.{nn,nt,tn}`) and `serve_open`'s skinny
/// decode GEMM (`tensor.gemm_skinny_host_gflops`).
const WORKLOAD_SHAPES: [(&str, Orient, usize, usize, usize); 4] = [
    ("summa_nn", Orient::Nn, 256, 256, 1024),
    ("summa_nt", Orient::Nt, 256, 1024, 256),
    ("summa_tn", Orient::Tn, 256, 256, 1024),
    ("skinny_nn", Orient::Nn, 8, 128, 512),
];

/// Serial GEMMs of `benchmark/`'s small-shape workloads, as logical
/// `[m,k]·[k,n]`: `train_comm`'s fc1 in the three orientations a training
/// step runs it, fc2's input gradient, and the per-head attention scores of
/// a `serve_open` decode step.
const SERIAL_SHAPES: [(&str, Orient, usize, usize, usize); 5] = [
    ("fc1_nn", Orient::Nn, 32, 32, 128),
    ("fc1_nt", Orient::Nt, 32, 32, 128),
    ("fc1_tn", Orient::Tn, 32, 32, 128),
    ("fc2_dx_nt", Orient::Nt, 32, 128, 32),
    ("decode_scores_nt", Orient::Nt, 1, 32, 64),
];

/// Where GELU runs in `benchmark/`'s workloads: fc1's local output on
/// `train_gemm` and on a `serve_open` decode step.
const ELEMENTWISE_SHAPES: [(&str, usize, usize); 2] =
    [("train_gemm", 256, 1024), ("serve_open_decode", 8, 512)];
/// One `[2,2,1]` weight block of `train_gemm`'s hidden-512 body.
const ADAM_SHAPE: (usize, usize) = (512, 512);

/// libm `tanhf`: what GELU cost one call of per element until PR 16.
const TANHF: fn(f32) -> f32 = f32::tanh;
const SQRT_2_OVER_PI: f32 = 0.797_884_6;

/// The tanh-form GELU forward this repo shipped with (clone, then one
/// `tanhf` per element): the baseline of the `"elementwise"` GELU rows.
fn gelu_seed(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for v in out.data_mut() {
        let x = *v;
        *v = 0.5 * x * (1.0 + TANHF(SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)));
    }
    out
}

/// Backward counterpart of [`gelu_seed`].
fn gelu_backward_seed(x: &Matrix, dy: &Matrix) -> Matrix {
    let mut out = dy.clone();
    for (g, &x) in out.data_mut().iter_mut().zip(x.data()) {
        let t = TANHF(SQRT_2_OVER_PI * (x + 0.044715 * x * x * x));
        let du = SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044715 * x * x);
        *g *= 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du;
    }
    out
}

/// The eleven-op `TensorLike` chain `adam_direction` fuses: the baseline of
/// the `"elementwise"` Adam row and the spec its result must equal bitwise.
fn adam_direction_chain(
    g: &DenseTensor,
    mom: &mut DenseTensor,
    vel: &mut DenseTensor,
    c: AdamCoeffs,
    m: &mut Meter,
) -> DenseTensor {
    *mom = mom.scale(c.beta1, m).add(&g.scale(1.0 - c.beta1, m), m);
    let g2 = g.hadamard(g, m);
    *vel = vel.scale(c.beta2, m).add(&g2.scale(1.0 - c.beta2, m), m);
    let m_hat = mom.scale(c.bias1, m);
    let v_hat = vel.scale(c.bias2, m);
    m_hat.hadamard(&v_hat.rsqrt_add(c.eps_sq, m), m)
}

/// The seed repo's `matmul`, copied verbatim (modulo `Matrix` accessors):
/// ikj order with a zero-skip branch on `a_ik`. The branch defeats
/// vectorization of the inner loop and mis-handles `0 × NaN`; it is the
/// baseline every speedup in BENCH_kernels.json is relative to.
fn matmul_seed(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dims {} vs {}", a.cols(), b.rows());
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (kk, &a_ik) in a_row.iter().enumerate().take(k) {
            if a_ik == 0.0 {
                continue;
            }
            let b_row = b.row(kk);
            for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row.iter()) {
                *c_ij += a_ik * b_kj;
            }
        }
    }
    c
}

/// Median wall time in nanoseconds over `reps` runs of `f`.
fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            let out = f();
            let elapsed = start.elapsed().as_nanos() as f64;
            black_box(out);
            elapsed
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Median nanoseconds per element of an elementwise `f` over `elems`
/// elements; each sample repeats `f` until it covers about 2²⁰ elements, so
/// the decode-sized shapes are not timer-bound.
fn ns_per_elem<R>(reps: usize, elems: usize, mut f: impl FnMut() -> R) -> f64 {
    let iters = ((1 << 20) / elems).max(1);
    let sample = median_ns(reps, || {
        for _ in 1..iters {
            black_box(f());
        }
        f()
    });
    sample / (iters * elems) as f64
}

/// Median nanoseconds per call of a GEMM of `flops`; each sample repeats
/// it until it covers about 2²² flops, so the small shapes are not
/// timer-bound.
fn ns_per_call<R>(reps: usize, flops: f64, mut f: impl FnMut() -> R) -> f64 {
    let iters = ((4_194_304.0 / flops) as usize).max(1);
    let sample = median_ns(reps, || {
        for _ in 1..iters {
            black_box(f());
        }
        f()
    });
    sample / iters as f64
}

/// Median time per call of the serial `gemm` on each of `lanes`, accepted
/// only after every lane equals the scalar one bit for bit.
fn timed_serial_lanes(
    label: &str,
    lanes: &[MicroKernel],
    reps: usize,
    flops: f64,
    gemm: impl Fn(MicroKernel) -> Matrix,
) -> Vec<f64> {
    let scalar = gemm(MicroKernel::Scalar);
    for &kernel in lanes {
        assert_bitwise(&format!("{label} serial {}", kernel.name()), &scalar, &gemm(kernel));
    }
    lanes.iter().map(|&kernel| ns_per_call(reps, flops, || gemm(kernel))).collect()
}

/// One `"elementwise"` row: an op at a shape, beside what it replaced.
struct ElementwiseRow {
    op: &'static str,
    shape: &'static str,
    rows: usize,
    cols: usize,
    ns_per_elem: f64,
    replaced: &'static str,
    replaced_ns_per_elem: f64,
}

/// Times the non-GEMM kernels of a step. GELU is accepted only once the
/// matrix loops equal the scalar function bit for bit (lane independence,
/// here under the release optimizer) and stay within 1e-5 of the tanh form;
/// the fused Adam direction only once it equals the op chain bit for bit.
fn elementwise_rows(reps: usize) -> Vec<ElementwiseRow> {
    let mut rows = Vec::new();
    for (shape, r, c) in ELEMENTWISE_SHAPES {
        let mut rng = Xoshiro256StarStar::seed_from_u64((r * c) as u64);
        let x = Matrix::random_uniform(r, c, -4.0, 4.0, &mut rng);
        let dy = Matrix::random_uniform(r, c, -1.0, 1.0, &mut rng);
        let (fwd, bwd) = (nn::gelu_matrix(&x), nn::gelu_backward_matrix(&x, &dy));
        // `black_box` per element keeps the reference loops scalar.
        let scalar_fwd = x.map(|x| nn::gelu(black_box(x)));
        let scalar_bwd = x.zip_map(&dy, |x, g| g * nn::gelu_grad(black_box(x)));
        assert_bitwise(&format!("gelu fwd {shape}"), &scalar_fwd, &fwd);
        assert_bitwise(&format!("gelu bwd {shape}"), &scalar_bwd, &bwd);
        assert!(max_rel_diff(fwd.data(), gelu_seed(&x).data()) < 1e-5);
        assert!(max_rel_diff(bwd.data(), gelu_backward_seed(&x, &dy).data()) < 1e-5);
        rows.push(ElementwiseRow {
            op: "gelu_fwd",
            shape,
            rows: r,
            cols: c,
            ns_per_elem: ns_per_elem(reps, r * c, || nn::gelu_matrix(&x)),
            replaced: "libm_tanhf",
            replaced_ns_per_elem: ns_per_elem(reps, r * c, || gelu_seed(&x)),
        });
        rows.push(ElementwiseRow {
            op: "gelu_bwd",
            shape,
            rows: r,
            cols: c,
            ns_per_elem: ns_per_elem(reps, r * c, || nn::gelu_backward_matrix(&x, &dy)),
            replaced: "libm_tanhf",
            replaced_ns_per_elem: ns_per_elem(reps, r * c, || gelu_backward_seed(&x, &dy)),
        });
    }

    let (r, c) = ADAM_SHAPE;
    let mut rng = Xoshiro256StarStar::seed_from_u64(16);
    let g = DenseTensor::from_matrix(Matrix::random_uniform(r, c, -1.0, 1.0, &mut rng));
    let coeffs = AdamCoeffs::at_step(0.9, 0.999, 1e-8, 1);
    let mut meter = Meter::new();
    let mut fused = (DenseTensor::zeros(r, c), DenseTensor::zeros(r, c));
    let mut chain = fused.clone();
    for step in 0..2 {
        let got = g.adam_direction(&mut fused.0, &mut fused.1, coeffs, &mut meter);
        let want = adam_direction_chain(&g, &mut chain.0, &mut chain.1, coeffs, &mut meter);
        assert_bitwise(&format!("adam direction, step {step}"), want.matrix(), got.matrix());
        assert_bitwise(&format!("adam moment, step {step}"), chain.0.matrix(), fused.0.matrix());
        assert_bitwise(&format!("adam velocity, step {step}"), chain.1.matrix(), fused.1.matrix());
    }
    rows.push(ElementwiseRow {
        op: "adam_direction",
        shape: "train_gemm",
        rows: r,
        cols: c,
        ns_per_elem: ns_per_elem(reps, r * c, || {
            g.adam_direction(&mut fused.0, &mut fused.1, coeffs, &mut meter)
        }),
        replaced: "op_chain",
        replaced_ns_per_elem: ns_per_elem(reps, r * c, || {
            adam_direction_chain(&g, &mut chain.0, &mut chain.1, coeffs, &mut meter)
        }),
    });
    rows
}

struct Row {
    n: usize,
    seed_ns: f64,
    serial_ns: f64,
    /// Time per supported backend, in [`MicroKernel::ALL`] order.
    lane_ns: Vec<f64>,
}

fn gflops(m: usize, k: usize, n: usize, ns: f64) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64 / ns
}

fn assert_bitwise(label: &str, reference: &Matrix, candidate: &Matrix) {
    for (i, (r, c)) in reference.data().iter().zip(candidate.data()).enumerate() {
        assert_eq!(
            r.to_bits(),
            c.to_bits(),
            "{label}: per-path parity violated at flat index {i}: {r} vs {c}"
        );
    }
}

/// Median time of `gemm` on each of `lanes`, accepted only after
/// the cross-backend gate: every vector backend within FMA tolerance of
/// scalar, and bitwise equal to the other vector backends.
fn timed_lanes(
    label: &str,
    lanes: &[MicroKernel],
    reps: usize,
    gemm: impl Fn(MicroKernel) -> Matrix,
) -> Vec<f64> {
    let scalar = gemm(MicroKernel::Scalar);
    let mut fused: Option<(MicroKernel, Matrix)> = None;
    for &kernel in lanes.iter().filter(|&&k| k != MicroKernel::Scalar) {
        let out = gemm(kernel);
        let cross = max_rel_diff(out.data(), scalar.data());
        assert!(
            cross < 1e-4,
            "{label}: {} vs scalar diverged beyond FMA tolerance ({cross:e})",
            kernel.name()
        );
        match &fused {
            Some((first, reference)) => assert_bitwise(
                &format!("{label} {} vs {}", first.name(), kernel.name()),
                reference,
                &out,
            ),
            None => fused = Some((kernel, out)),
        }
    }
    lanes.iter().map(|&kernel| median_ns(reps, || gemm(kernel))).collect()
}

/// `"scalar": 1.0, "avx2": 2.0` — one JSON member per lane.
fn lane_members(lanes: &[MicroKernel], values: impl Iterator<Item = f64>, digits: usize) -> String {
    let members: Vec<String> =
        lanes.iter().zip(values).map(|(k, v)| format!("\"{}\": {v:.digits$}", k.name())).collect();
    members.join(", ")
}

fn main() {
    let mut sizes: Vec<usize> = vec![256, 512, 1024];
    let mut reps = 5usize;
    let mut out_path = String::from("BENCH_kernels.json");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value")).clone();
        match arg.as_str() {
            "--sizes" => {
                sizes = value("--sizes")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes wants comma-separated integers"))
                    .collect();
            }
            "--reps" => reps = value("--reps").parse().expect("--reps wants an integer"),
            "--out" => out_path = value("--out"),
            other => panic!("unknown argument {other:?} (known: --sizes --reps --out)"),
        }
    }

    // All TESSERACT_* knobs are parsed and installed by the run
    // configuration (the single env-read site of the workspace); this bench
    // runs no cluster, so it installs explicitly before the first GEMM.
    let run_cfg = RunConfig::from_env(1);
    run_cfg.install();
    let kernel = active_kernel();
    let kernel_forced = run_cfg.kernel.is_some();
    let lanes: Vec<MicroKernel> = MicroKernel::available().collect();
    let lane_names: Vec<&str> = lanes.iter().map(|k| k.name()).collect();
    let active_lane = lanes.iter().position(|&k| k == kernel).expect("active kernel is supported");
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "gemm_sweep: sizes {sizes:?}, {reps} reps, micro-kernel {}{}, supported backends \
         {lane_names:?}, one thread per GEMM (host has {host_cpus})\n",
        kernel.name(),
        if kernel_forced { " (forced via TESSERACT_KERNEL)" } else { "" },
    );
    let lane_header: String =
        lane_names.iter().map(|l| format!(" {:<12} |", format!("{l} ns"))).collect();
    println!("| n    | seed ns      | serial ns    |{lane_header} serial GF/s | blk1 GF/s | simd x | blk1 x |");

    let mut rows = Vec::new();
    for &n in &sizes {
        let mut rng = Xoshiro256StarStar::seed_from_u64(n as u64);
        let a = Matrix::random_uniform(n, n, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(n, n, -1.0, 1.0, &mut rng);

        let row = Row {
            n,
            seed_ns: median_ns(reps, || matmul_seed(&a, &b)),
            serial_ns: median_ns(reps, || matmul_serial(&a, &b)),
            lane_ns: timed_lanes(&format!("n={n}"), &lanes, reps, |k| {
                matmul_blocked_with(&a, &b, k)
            }),
        };
        let blocked1_ns = row.lane_ns[active_lane];
        let lane_cells: String = row.lane_ns.iter().map(|ns| format!(" {ns:>12.0} |")).collect();
        println!(
            "| {:<4} | {:>12.0} | {:>12.0} |{lane_cells} {:>11.3} | {:>9.3} | {:>6.2} | {:>6.2} |",
            row.n,
            row.seed_ns,
            row.serial_ns,
            gflops(n, n, n, row.serial_ns),
            gflops(n, n, n, blocked1_ns),
            row.lane_ns[0] / blocked1_ns,
            row.seed_ns / blocked1_ns,
        );
        rows.push(row);
    }

    println!("\nworkload shapes (GFLOP/s per backend):");
    let workload_rows: Vec<(&str, usize, usize, usize, Vec<f64>)> = WORKLOAD_SHAPES
        .iter()
        .map(|&(label, orient, m, k, n)| {
            let (a, b) = orient.operands(m, k, n);
            let lane_ns = timed_lanes(label, &lanes, reps, |kernel| match orient {
                Orient::Nn => matmul_blocked_with(&a, &b, kernel),
                Orient::Nt => matmul_nt_blocked_with(&a, &b, kernel),
                Orient::Tn => matmul_tn_blocked_with(&a, &b, kernel),
            });
            let rates = lane_members(&lanes, lane_ns.iter().map(|&ns| gflops(m, k, n, ns)), 3);
            println!("  {label:<10} {m}x{k}x{n}: {rates}");
            (label, m, k, n, lane_ns)
        })
        .collect();

    println!("\nserial shapes (GFLOP/s per backend width):");
    let serial_rows: Vec<(&str, usize, usize, usize, Vec<f64>)> = SERIAL_SHAPES
        .iter()
        .map(|&(label, orient, m, k, n)| {
            let (a, b) = orient.operands(m, k, n);
            let flops = 2.0 * (m * k * n) as f64;
            let lane_ns = timed_serial_lanes(label, &lanes, reps, flops, |kernel| match orient {
                Orient::Nn => matmul_serial_with(&a, &b, kernel),
                Orient::Nt => matmul_nt_serial_with(&a, &b, kernel),
                Orient::Tn => matmul_tn_serial_with(&a, &b, kernel),
            });
            let rates = lane_members(&lanes, lane_ns.iter().map(|&ns| gflops(m, k, n, ns)), 3);
            println!("  {label:<16} {m}x{k}x{n}: {rates}");
            (label, m, k, n, lane_ns)
        })
        .collect();

    println!("\nelementwise kernels (ns per element, beside what each replaced):");
    let elementwise = elementwise_rows(reps);
    for e in &elementwise {
        println!(
            "  {:<15} {:<18} {}x{}: {:.2} ns/elem ({} {:.2})",
            e.op, e.shape, e.rows, e.cols, e.ns_per_elem, e.replaced, e.replaced_ns_per_elem
        );
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"gemm_sweep\",\n");
    json.push_str("  \"units\": { \"time\": \"ns (median)\", \"rate\": \"GFLOP/s\" },\n");
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"kernel\": \"{}\",\n", kernel.name()));
    json.push_str(&format!("  \"kernel_forced\": {kernel_forced},\n"));
    json.push_str(&format!("  \"lanes\": {lane_names:?},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(
        "  \"parity\": \"blocked vector lanes bitwise equal to each other, within FMA tolerance of \
         scalar; serial lanes bitwise equal to scalar\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let n = r.n;
        let blocked1_ns = r.lane_ns[active_lane];
        json.push_str(&format!(
            "    {{ \"n\": {n}, \"seed_ns\": {:.0}, \"serial_ns\": {:.0}, \
\"lane1_ns\": {{ {} }}, \"lane1_gflops\": {{ {} }}, \"serial_gflops\": {:.3}, \
\"speedup_serial\": {:.3}, \"speedup_blocked1\": {:.3}, \"simd_speedup\": {:.3} }}{}\n",
            r.seed_ns,
            r.serial_ns,
            lane_members(&lanes, r.lane_ns.iter().copied(), 0),
            lane_members(&lanes, r.lane_ns.iter().map(|&ns| gflops(n, n, n, ns)), 3),
            gflops(n, n, n, r.serial_ns),
            r.seed_ns / r.serial_ns,
            r.seed_ns / blocked1_ns,
            r.lane_ns[0] / blocked1_ns,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    for (block, shape_rows) in
        [("workload_shapes", &workload_rows), ("serial_shapes", &serial_rows)]
    {
        json.push_str(&format!("  ],\n  \"{block}\": [\n"));
        for (i, (label, m, k, n, lane_ns)) in shape_rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{ \"shape\": \"{label}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \"lane1_ns\": {{ {} }}, \"lane1_gflops\": {{ {} }} }}{}\n",
                lane_members(&lanes, lane_ns.iter().copied(), 0),
                lane_members(&lanes, lane_ns.iter().map(|&ns| gflops(*m, *k, *n, ns)), 3),
                if i + 1 == shape_rows.len() { "" } else { "," }
            ));
        }
    }
    json.push_str("  ],\n  \"elementwise\": [\n");
    for (i, e) in elementwise.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"op\": \"{}\", \"shape\": \"{}\", \"rows\": {}, \"cols\": {}, \"ns_per_elem\": {:.2}, \"replaced\": \"{}\", \"replaced_ns_per_elem\": {:.2} }}{}\n",
            e.op,
            e.shape,
            e.rows,
            e.cols,
            e.ns_per_elem,
            e.replaced,
            e.replaced_ns_per_elem,
            if i + 1 == elementwise.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("\nwrote {out_path}");
}
