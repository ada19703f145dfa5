//! Reproduces the **§1/§3.1 communication-count claims** (experiment C1)
//! and tabulates the **flat vs two-level (hierarchical) collective cost
//! crossover** per op, payload size and group placement.
//!
//! C1:
//! * Cannon needs `2p^{3/2} − 2p^{1/2}` transfers per matmul, the 2.5-D
//!   algorithm `2p − 2p^{1/3}`, Tesseract (d = q) only `2p^{2/3}`;
//! * at p = 64, Cannon moves 31.5× and 2.5-D 3.75× Tesseract's volume;
//! * Tesseract wins against Cannon for q > 2 and against 2.5-D for q > 4.
//!
//! The closed forms are evaluated and then cross-checked against the
//! *measured* wire bytes of the actual algorithm implementations running a
//! same-size matmul on the simulated cluster.
//!
//! The hierarchical section evaluates
//! `CostParams::phased_collective_time` — the two-level schedule the
//! simulator charges (NVLink phase inside each node, InfiniBand phase over
//! one leader per node, size-based selection against the flat algorithm) —
//! on mesh-derived placements of the paper's arrangements, and writes the
//! whole table to `BENCH_comm.json`. CI greps that JSON for a numeric
//! crossover and for `"intra_node_hier_exceeds_flat": false`; the binary
//! additionally panics if the model violates its own bounds (hierarchical
//! below the pure-NVLink floor, above the flat charge, not strictly
//! cheaper somewhere for multi-node placements with node sharing, or
//! unequal to flat for intra-node groups).
//!
//! Run: `cargo run --release -p tesseract-bench --bin comm_cost_table -- \
//!           [--out BENCH_comm.json]`

use tesseract_baselines::cannon::cannon_matmul;
use tesseract_baselines::solomonik::solomonik_matmul;
use tesseract_bench::cli::Args;
use tesseract_comm::{CollectiveOp, CostParams, Link, RunConfig, Topology};
use tesseract_core::analysis::{
    transmissions_25d, transmissions_cannon, transmissions_tesseract_cube,
};
use tesseract_core::{mm::tesseract_matmul, GridShape, TesseractGrid};
use tesseract_tensor::json;
use tesseract_tensor::trace::json::{self, Value};
use tesseract_tensor::ShadowTensor;

/// Payload sizes swept per (op, placement): 1 KiB … 64 MiB.
const SIZES: [usize; 5] = [1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26];

/// Ops the two-level schedule decomposes (point-to-point ops stay flat).
const HIER_OPS: [CollectiveOp; 4] = [
    CollectiveOp::Broadcast,
    CollectiveOp::Reduce,
    CollectiveOp::AllReduce,
    CollectiveOp::AllGather,
];

/// One mesh-derived rank group whose placement the crossover table sweeps.
struct PlacementCase {
    label: &'static str,
    ranks: Vec<usize>,
}

/// The paper's arrangements, expressed as fibers/sub-meshes of the
/// `[q,q,d]` named-axis mesh on the Meluxina packing (4 GPUs/node).
fn placement_cases() -> Vec<PlacementCase> {
    let qq21 = GridShape::new(2, 1).mesh(0);
    let qq22 = GridShape::new(2, 2).mesh(0);
    let qq44 = GridShape::new(4, 4).mesh(0);
    vec![
        // Row fiber of [2,2,1]: 2 ranks on one node.
        PlacementCase { label: "[2,2,1] row fiber", ranks: qq21.fiber_ranks("col", &[0, 0, 0]) },
        // One q×q layer of [2,2,2]: 4 ranks, exactly one node.
        PlacementCase { label: "[2,2,2] layer 0", ranks: (0..4).collect() },
        // Depth fiber of [2,2,2]: one rank on each of 2 nodes (no sharing).
        PlacementCase {
            label: "[2,2,2] depth fiber",
            ranks: qq22.fiber_ranks("depth", &[0, 0, 0]),
        },
        // The whole [2,2,2] cube: 8 ranks over 2 full nodes.
        PlacementCase { label: "[2,2,2] world", ranks: (0..8).collect() },
        // One 4×4 layer of [4,4,2]: 16 ranks over 4 full nodes.
        PlacementCase { label: "[4,4,2] layer 0", ranks: (0..16).collect() },
        // Depth fiber of [4,4,4]: one rank on each of 4 nodes (no sharing).
        PlacementCase {
            label: "[4,4,4] depth fiber",
            ranks: qq44.fiber_ranks("depth", &[0, 0, 0]),
        },
    ]
}

fn human_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{} MiB", b >> 20)
    } else {
        format!("{} KiB", b >> 10)
    }
}

fn main() {
    let out_path = Args::parse(&["--out"]).value("--out", String::from("BENCH_comm.json"));

    println!("## C1 — closed-form transfer counts per matmul (§1/§3.1)\n");
    println!("| p | Cannon 2p^1.5-2p^0.5 | 2.5-D 2p-2p^(1/3) | Tesseract 2p^(2/3) | Cannon/Tess | 2.5D/Tess |");
    println!("|---|---|---|---|---|---|");
    for q in [2usize, 3, 4, 5, 6] {
        let p = q * q * q;
        let c = transmissions_cannon(p);
        let d = transmissions_25d(p);
        let t = transmissions_tesseract_cube(p);
        println!("| {p} | {c:.2} | {d:.2} | {t:.2} | {:.2} | {:.2} |", c / t, d / t);
    }
    let (c64, d64, t64) =
        (transmissions_cannon(64), transmissions_25d(64), transmissions_tesseract_cube(64));
    println!("\npaper's p = 64 claims: Cannon/Tesseract = {:.2} (paper: 31.5), 2.5-D/Tesseract = {:.2} (paper: 3.75)\n", c64 / t64, d64 / t64);

    // Measured cross-check: one Transformer-like matmul — tall activation
    // A = [a, n] times weight B = [n, n] — at p = 64 in each scheme's
    // natural arrangement. (For a square one-shot matmul the weight
    // broadcasts dominate and depth cannot help; the tall-activation case
    // is the regime tensor parallelism targets and where §3.1's advantage
    // materializes.)
    let n = 4096usize;
    let a_rows = 32768usize; // b·s = 64 × 512
    println!("## C1 — measured wire bytes for one [{a_rows}, {n}] x [{n}, {n}] matmul at p = 64\n");

    // Cannon on [8, 8].
    let cannon = RunConfig::from_env(64).run(|ctx| {
        let grid = TesseractGrid::new(ctx, GridShape::new(8, 1), 0);
        let a = std::sync::Arc::new(ShadowTensor::new(a_rows / 8, n / 8));
        let b = std::sync::Arc::new(ShadowTensor::new(n / 8, n / 8));
        let _ = cannon_matmul(&grid, ctx, &a, &b);
    });

    // Solomonik 2.5-D on [4, 4, 4].
    let solomonik = RunConfig::from_env(64).run(|ctx| {
        let grid = TesseractGrid::new(ctx, GridShape::new(4, 4), 0);
        let (_, _, k) = grid.coords;
        let a = (k == 0).then(|| ShadowTensor::new(a_rows / 4, n / 4));
        let b = (k == 0).then(|| ShadowTensor::new(n / 4, n / 4));
        let _ = solomonik_matmul(&grid, ctx, a, b);
    });

    // SUMMA / 2-D Tesseract on [8, 8, 1].
    let summa = RunConfig::from_env(64).run(|ctx| {
        let grid = TesseractGrid::new(ctx, GridShape::new(8, 1), 0);
        let a = std::sync::Arc::new(ShadowTensor::new(a_rows / 8, n / 8));
        let b = std::sync::Arc::new(ShadowTensor::new(n / 8, n / 8));
        let _ = tesseract_matmul(&grid, ctx, &a, &b);
    });

    // Tesseract on [4, 4, 4].
    let tess = RunConfig::from_env(64).run(|ctx| {
        let grid = TesseractGrid::new(ctx, GridShape::new(4, 4), 0);
        let a = std::sync::Arc::new(ShadowTensor::new(a_rows / 16, n / 4));
        let b = std::sync::Arc::new(ShadowTensor::new(n / 4, n / 4));
        let _ = tesseract_matmul(&grid, ctx, &a, &b);
    });

    println!("| algorithm | arrangement | wire bytes | collective calls | vs Tesseract |");
    println!("|---|---|---|---|---|");
    let t_bytes = tess.comm.total_wire_bytes() as f64;
    for (name, arr, out) in [
        ("Cannon", "[8,8]", &cannon),
        ("2.5-D (Solomonik)", "[4,4,4]", &solomonik),
        ("SUMMA / Optimus", "[8,8,1]", &summa),
        ("Tesseract", "[4,4,4]", &tess),
    ] {
        println!(
            "| {name} | {arr} | {} | {} | {:.2}x |",
            out.comm.total_wire_bytes(),
            out.comm.total_calls(),
            out.comm.total_wire_bytes() as f64 / t_bytes
        );
    }
    println!("\nFor the tall-activation matmuls a Transformer performs, Tesseract moves");
    println!("the least data, in line with the paper's closed forms (exact multiples");
    println!("differ because the closed forms count abstract 'transfers' while the");
    println!("harness counts bytes of concrete block sizes).");

    // ---- Flat vs two-level hierarchical crossover --------------------
    let params = CostParams::a100_cluster();
    let topo = Topology::meluxina();
    println!(
        "\n## Flat vs two-level hierarchical collective cost (Meluxina packing, 4 GPUs/node)\n"
    );

    let mut intra_exceeds = false;
    let mut shared_crossovers = 0usize;
    let mut entries = Vec::new();
    for case in placement_cases() {
        let placement = topo.placement(&case.ranks);
        println!(
            "### {} — {} ranks on {} node(s), fullest node holds {}\n",
            case.label, placement.members, placement.nodes, placement.max_per_node
        );
        println!("| op | size | flat (µs) | two-level (µs) | intra (µs) | inter (µs) | winner |");
        println!("|---|---|---|---|---|---|---|");
        for op in HIER_OPS {
            let mut won_somewhere = false;
            let mut crossover: Option<usize> = None;
            let mut size_rows = Vec::new();
            for bytes in SIZES {
                let c = params.phased_collective_time(op, bytes, placement);
                let nv = params.collective_time(op, placement.members, bytes, Link::NvLink);
                assert!(
                    c.total >= nv && c.total <= c.flat,
                    "{op:?} {bytes} on {}: charged cost outside [NVLink, flat] bounds: {c:?}",
                    case.label
                );
                if placement.is_intra_node() {
                    intra_exceeds |= c.total > c.flat;
                    assert!(
                        c.total == c.flat,
                        "{op:?} {bytes} on intra-node {}: two-level must equal flat: {c:?}",
                        case.label
                    );
                }
                if c.hierarchical_won() {
                    won_somewhere = true;
                } else if won_somewhere && crossover.is_none() {
                    crossover = Some(bytes);
                }
                println!(
                    "| {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {} |",
                    op.name(),
                    human_bytes(bytes),
                    c.flat * 1e6,
                    c.total * 1e6,
                    c.intra * 1e6,
                    c.inter * 1e6,
                    if c.hierarchical_won() { "hierarchical" } else { "flat" }
                );
                size_rows.push(json!({
                    "bytes": bytes, "flat_s": Value::sci(c.flat), "hier_s": Value::sci(c.total),
                    "intra_s": Value::sci(c.intra), "inter_s": Value::sci(c.inter),
                    "hier_cheaper": c.hierarchical_won()
                }));
            }
            if placement.shares_nodes_across() {
                assert!(
                    won_somewhere,
                    "{op:?} on {}: members share nodes but the two-level schedule never won",
                    case.label
                );
            }
            if crossover.is_some() {
                shared_crossovers += 1;
            }
            entries.push(json!({
                "op": op.name(),
                "placement": case.label,
                "members": placement.members,
                "nodes": placement.nodes,
                "max_per_node": placement.max_per_node,
                "intra_node": placement.is_intra_node(),
                "shares_nodes_across": placement.shares_nodes_across(),
                "hier_wins_somewhere": won_somewhere,
                "crossover_bytes": crossover,
                "sizes": size_rows
            }));
        }
        println!();
    }
    let json = json::write(&json!({
        "bench": "comm_cost_table",
        "model": "two_level_hierarchical_vs_flat",
        "topology": "meluxina (4 GPUs/node, NVLink intra, InfiniBand inter)",
        "entries": entries,
        "intra_node_hier_exceeds_flat": intra_exceeds,
        "crossover_entries": shared_crossovers
    }));
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path} ({shared_crossovers} op/placement entries show a size crossover)");
    println!("\nReading the table: inside one node the two-level schedule *is* the flat");
    println!("NVLink algorithm (identical cost). Across nodes with several members per");
    println!("node, the InfiniBand phase spans node leaders only, so latency-bound");
    println!("sizes are strictly cheaper; tree ops pay the payload twice (NVLink +");
    println!("IB), so past ~3.2 MB selection falls back to the flat pipelined tree —");
    println!("that is the crossover. Ring ops (all-reduce / all-gather) also shrink");
    println!("the IB bandwidth term, so the two-level schedule wins at every size.");
}
