//! Integration tests of the per-rank event tracer on the simulated cluster:
//! exact reconciliation of trace totals against the run's own accounting,
//! zero-perturbation when enabled, scope balance under GPipe tape rewind,
//! begin/complete pairing across group members and the Chrome-trace schema.

use std::sync::Arc;

use tesseract_comm::{CollectiveOp, CostParams, Link, RunConfig};
use tesseract_core::partition::{a_block, b_block};
use tesseract_core::{
    tesseract_matmul, tesseract_matmul_nt, tesseract_matmul_tn, GridShape, Module, TesseractGrid,
    TesseractTransformer, TransformerConfig,
};
use tesseract_tensor::trace::{chrome, critical, json};
use tesseract_tensor::{DenseTensor, Matrix, TensorLike, TraceKind};

const SEED: u64 = 7;

/// One traced fwd+bwd matmul step on the `[q, q, d]` grid.
fn traced_step(shape: GridShape, trace: bool) -> tesseract_comm::RunOutput<Matrix> {
    let rows = 8 * shape.q * shape.d;
    let a = Matrix::seeded(rows, 16, 1);
    let b = Matrix::seeded(16, 16, 2);
    RunConfig::from_env(shape.size()).with_trace(trace).run(move |ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
        let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
        let dy = tesseract_matmul(&grid, ctx, &a_loc, &b_loc);
        let _dx = tesseract_matmul_nt(&grid, ctx, &dy, &b_loc);
        let dw = tesseract_matmul_tn(&grid, ctx, &a_loc, &dy, true);
        ctx.flush_compute();
        dw.matrix().clone()
    })
}

/// The acceptance grid: every rank's counters and comm ledger rebuilt from
/// its trace equal its `RankReport` exactly.
#[test]
fn trace_reconciles_with_meter_and_stats_on_the_cube() {
    let out = traced_step(GridShape::new(2, 2), true);
    assert_eq!(out.traces.len(), 8);
    assert!(out.traces.iter().all(|t| !t.is_empty()));
    assert_eq!(out.reconcile_trace(), Ok(()));
}

/// Every rank books its own wait, per op. Two `[2,2,1]` stages: stage 0
/// runs double-buffered SUMMA (split-phase row and column broadcasts) and
/// sends its blocks to stage 1 over a pipeline hop; stage 1 receives them,
/// runs SUMMA, and the world ends on a blocking broadcast whose size only
/// the root knows. On every rank the report's wait fields are the sums of
/// the per-op ledger, and a rank that led no collective still shows the
/// wait it paid.
#[test]
fn every_rank_books_its_own_wait_per_op() {
    let shape = GridShape::new(2, 1);
    let stage_size = shape.size();
    let a = Matrix::seeded(8 * shape.q, 16, 3);
    let b = Matrix::seeded(16, 16, 4);
    let out = RunConfig::from_env(2 * stage_size).with_trace(true).run(move |ctx| {
        let (stage, local) = (ctx.rank / stage_size, ctx.rank % stage_size);
        let grid = TesseractGrid::new(ctx, shape, stage * stage_size);
        let (i, j, k) = grid.coords;
        let pipe = ctx.group("pipe", vec![local, stage_size + local]);
        let a_loc = if stage == 0 {
            DenseTensor::from_matrix(a_block(&a, shape, i, j, k))
        } else {
            pipe.recv(ctx)
        };
        let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
        let y = tesseract_matmul(&grid, ctx, &Arc::new(a_loc), &b_loc);
        if stage == 0 {
            pipe.send(ctx, y.clone());
        }
        let world = ctx.world_group();
        let _ = world.broadcast_shared(ctx, 0, (ctx.rank == 0).then(|| Arc::new(y)));
    });
    assert_eq!(out.reconcile_trace(), Ok(()));
    for r in &out.reports {
        let per_op = |f: fn(tesseract_comm::OpStats) -> u64| {
            CollectiveOp::ALL.iter().map(|&op| f(r.comm.get(op))).sum::<u64>()
        };
        assert_eq!(r.comm_wait_nanos, per_op(|s| s.blocked_nanos), "rank {}", r.rank);
        assert_eq!(r.overlap_hidden_nanos, per_op(|s| s.hidden_nanos), "rank {}", r.rank);
        assert!(r.comm.get(CollectiveOp::Broadcast).blocked_nanos > 0, "rank {}", r.rank);
    }
    assert!(out.reports.iter().any(|r| r.overlap_hidden_nanos > 0), "SUMMA hid no wait");
    // Stage 1 led no hop, yet every receiver waited on its sender.
    for r in &out.reports[stage_size..] {
        let hop = r.comm.get(CollectiveOp::SendRecv);
        assert_eq!(hop.calls, 0, "rank {}", r.rank);
        assert!(hop.blocked_nanos > 0, "rank {} booked no wait on its recv", r.rank);
    }
    // The last rank of stage 1 leads nothing at all and still waited.
    let last = out.reports.last().unwrap();
    assert_eq!(last.comm.total_calls(), 0);
    assert!(last.comm_wait_nanos > 0);
}

/// Tracing is observational: enabling it must not change results, reports,
/// stats or the makespan by a single bit — and disabled runs carry no
/// events.
#[test]
fn tracing_does_not_perturb_results_or_accounting() {
    let shape = GridShape::new(2, 1);
    let plain = traced_step(shape, false);
    let traced = traced_step(shape, true);
    assert_eq!(plain.results, traced.results);
    assert_eq!(plain.reports, traced.reports);
    assert_eq!(plain.makespan(), traced.makespan());
    assert_eq!(plain.comm.total_wire_bytes(), traced.comm.total_wire_bytes());
    assert!(plain.traces.iter().all(Vec::is_empty), "untraced run must carry no events");
    assert!(traced.traces.iter().all(|t| !t.is_empty()));
}

/// A GPipe schedule (all forwards, then all backwards in reverse) through
/// the layer stack must emit one balanced fwd/bwd scope pair per layer per
/// microbatch, and scope spans must nest (contain or stay disjoint — no
/// partial overlap), even though the tape rewinds in reverse order.
#[test]
fn scope_events_balance_under_tape_rewind() {
    let shape = GridShape::new(2, 1);
    let microbatches = 3usize;
    let cfg = TransformerConfig {
        batch: 2,
        seq: 4,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        layers: 2,
        eps: 1e-5,
    };
    let xs: Vec<Matrix> = (0..microbatches).map(|m| Matrix::seeded(8, 8, 30 + m as u64)).collect();
    let dys: Vec<Matrix> = (0..microbatches).map(|m| Matrix::seeded(8, 8, 40 + m as u64)).collect();
    let out = RunConfig::from_env(shape.size()).with_trace(true).run(move |ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut stack = TesseractTransformer::<DenseTensor>::new(ctx, &grid, cfg, true, SEED, 3);
        for x in &xs {
            let x_loc = Arc::new(DenseTensor::from_matrix(a_block(x, shape, i, j, k)));
            let _ = stack.forward(&grid, ctx, &x_loc);
        }
        for dy in dys.iter().rev() {
            let dy_loc = Arc::new(DenseTensor::from_matrix(a_block(dy, shape, i, j, k)));
            let _ = stack.backward(&grid, ctx, &dy_loc);
        }
        stack.zero_grad();
    });
    for events in &out.traces {
        let scopes: Vec<_> = events
            .iter()
            .filter_map(|ev| match &ev.kind {
                TraceKind::Scope { phase } => Some((ev.name.as_str(), *phase, ev.begin, ev.end)),
                _ => None,
            })
            .collect();
        let fwd = scopes.iter().filter(|s| s.1 == "fwd").count();
        let bwd = scopes.iter().filter(|s| s.1 == "bwd").count();
        // 2 layers x 3 microbatches, once per direction.
        assert_eq!(fwd, 6, "fwd scopes: {scopes:?}");
        assert_eq!(bwd, 6, "bwd scopes: {scopes:?}");
        for (name, _, begin, end) in &scopes {
            assert!(begin <= end, "{name}: scope runs backwards");
            assert!(
                name.ends_with(".fwd") || name.ends_with(".bwd"),
                "{name}: scope name must carry its phase"
            );
        }
        // Nesting discipline: any two scope spans either nest or are
        // disjoint. (Equal endpoints count as nesting.)
        for a in &scopes {
            for b in &scopes {
                let disjoint = a.3 <= b.2 || b.3 <= a.2;
                let nested = (a.2 <= b.2 && b.3 <= a.3) || (b.2 <= a.2 && a.3 <= b.3);
                assert!(disjoint || nested, "scopes partially overlap: {:?} vs {:?}", a, b);
            }
        }
    }
}

/// A hand-off between pipeline stages is a rendezvous of its own: in a
/// traced two-stage GPipe step over three microbatches, every `send_recv`
/// key holds exactly one send span (the one that books the call) and one
/// recv span, and the two agree on the slowest entry, the send clock.
#[test]
fn every_pipeline_message_has_a_trace_key_of_its_own() {
    let shape = GridShape::new(2, 1);
    let stage_size = shape.size();
    let microbatches = 3usize;
    let cfg = TransformerConfig {
        batch: 2,
        seq: 4,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        layers: 1,
        eps: 1e-5,
    };
    let out = RunConfig::from_env(2 * stage_size).with_trace(true).run(move |ctx| {
        let (stage, local) = (ctx.rank / stage_size, ctx.rank % stage_size);
        let grid = TesseractGrid::new(ctx, shape, stage * stage_size);
        let (i, j, k) = grid.coords;
        let pipe = ctx.group("pipe", vec![local, stage_size + local]);
        let block = |m: u64| {
            Arc::new(DenseTensor::from_matrix(a_block(&Matrix::seeded(8, 8, m), shape, i, j, k)))
        };
        let mut stack = TesseractTransformer::<DenseTensor>::new(ctx, &grid, cfg, true, SEED, 3);
        for m in 0..microbatches as u64 {
            let x = if stage == 0 { block(50 + m) } else { pipe.recv(ctx) };
            let y = stack.forward(&grid, ctx, &x);
            if stage == 0 {
                pipe.send(ctx, y);
            }
        }
        for m in (0..microbatches as u64).rev() {
            let dy = if stage == 1 { block(60 + m) } else { pipe.recv(ctx) };
            let dx = stack.backward(&grid, ctx, &dy);
            if stage == 1 {
                pipe.send(ctx, dx);
            }
        }
    });
    assert_eq!(out.reconcile_trace(), Ok(()));
    let mut by_key = std::collections::HashMap::<_, Vec<_>>::new();
    for ev in out.traces.iter().flatten() {
        if let TraceKind::Comm {
            op: "send_recv", key_group, key_seq, max_entry_vt, recorded, ..
        } = ev.kind
        {
            let span = (recorded, ev.begin, max_entry_vt);
            by_key.entry((key_group, key_seq)).or_default().push(span);
        }
    }
    assert_eq!(by_key.len(), 2 * microbatches * stage_size, "one key per message");
    for ((g, s), spans) in &by_key {
        let sends = spans.iter().filter(|sp| sp.0).count();
        assert_eq!((sends, spans.len()), (1, 2), "({g:x},{s}): {spans:?}");
        let (send, recv) = if spans[0].0 { (spans[0], spans[1]) } else { (spans[1], spans[0]) };
        assert_eq!(send.2, send.1, "({g:x},{s}): a send's entry is its own clock");
        if recv.1 <= send.1 {
            assert_eq!(recv.2, send.2, "({g:x},{s}): an early recv names the send's entry");
        } else {
            assert_eq!(recv.2, recv.1, "({g:x},{s}): a late recv names its own, later entry");
        }
    }
}

/// A receiver that enters its recv after the send: rank 0 sends at 0,
/// rank 1 runs ten 61³ GEMMs and then receives. The recv's slowest entry
/// is rank 1's own, so the critical path walks rank 1's GEMMs as compute,
/// and `send_recv` holds only the transfer's seconds.
#[test]
fn a_late_receivers_compute_is_walked_as_compute_not_as_its_recv() {
    let bytes = 61 * 61 * 4;
    let out = RunConfig::new(2).with_trace(true).run(|ctx| {
        let pair = ctx.group("pair", vec![0, 1]);
        let t = DenseTensor::from_matrix(Matrix::seeded(61, 61, 8));
        if ctx.rank == 0 {
            pair.send(ctx, t);
        } else {
            for _ in 0..10 {
                let _ = t.matmul(&t, &mut ctx.meter);
            }
            let _: DenseTensor = pair.recv(ctx);
        }
    });
    let transfer =
        CostParams::a100_cluster().collective_time(CollectiveOp::SendRecv, 2, bytes, Link::NvLink);
    let path = critical::critical_path(&out.traces);
    let seconds = |category| -> f64 {
        path.segments.iter().filter(|sg| sg.category == category).map(|sg| sg.duration()).sum()
    };
    let gemms = out.reports[1].compute_time;
    assert!(gemms > transfer, "the receiver must enter late: {gemms} vs {transfer}");
    assert!((path.makespan - (gemms + transfer)).abs() < 1e-12, "{}", path.makespan);
    assert!((seconds("compute") - gemms).abs() < 1e-12, "{:?}", path.segments);
    assert!((seconds("comm") - transfer).abs() < 1e-12, "{:?}", path.segments);
    assert!(path.segments.iter().all(|sg| sg.rank == 1), "{:?}", path.segments);
    let totals = path.op_totals();
    let send_recv = totals.iter().find(|(name, _)| name == "send_recv").map(|t| t.1);
    assert!((send_recv.unwrap_or(0.0) - transfer).abs() < 1e-12, "{totals:?}");
}

/// All members of one logical collective (same `(group, seq)` rendezvous
/// key) must agree on `max_entry_vt`, and the last-arriving member's own
/// entry must realize it — the pairing the critical-path walker hops on.
#[test]
fn comm_events_pair_across_group_members() {
    let out = traced_step(GridShape::new(2, 2), true);
    let mut by_key = std::collections::HashMap::<_, Vec<_>>::new();
    for ev in out.traces.iter().flatten() {
        if let TraceKind::Comm { op, key_group, key_seq, max_entry_vt, recorded, .. } = &ev.kind {
            by_key.entry((*key_group, *key_seq, op)).or_default().push((
                ev.begin,
                *max_entry_vt,
                *recorded,
            ));
        }
    }
    assert!(!by_key.is_empty());
    for ((g, s, op), members) in &by_key {
        let max_entry = members[0].1;
        for (_, m, _) in members {
            assert_eq!(*m, max_entry, "{op} ({g:x},{s}): members disagree on max entry");
        }
        let latest = members.iter().map(|m| m.0).fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (latest - max_entry).abs() < 1e-12,
            "{op} ({g:x},{s}): no member's entry realizes max_entry_vt \
             (latest {latest}, max {max_entry})"
        );
        let recorded = members.iter().filter(|m| m.2).count();
        assert_eq!(recorded, 1, "{op} ({g:x},{s}): exactly one member records the stats");
    }
}

/// The emitted Chrome-trace JSON must parse, declare nanosecond display
/// units, and contain one complete (`ph: "X"`) event per traced span with
/// the mandatory fields.
#[test]
fn chrome_json_is_valid_chrome_trace_format() {
    let out = traced_step(GridShape::new(2, 1), true);
    let payload = chrome::chrome_trace_json(&out.traces);
    let doc = json::parse(&payload).expect("chrome trace must be valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ns"),
        "displayTimeUnit missing"
    );
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    let spans = out.traces.iter().flatten().count();
    let complete: Vec<_> =
        events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).collect();
    assert!(!complete.is_empty());
    assert!(
        complete.len() <= spans,
        "more complete events than recorded spans ({} vs {spans})",
        complete.len()
    );
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("every event has ph");
        assert!(e.get("pid").and_then(|v| v.as_f64()).is_some(), "every event has pid");
        match ph {
            "X" => {
                assert!(e.get("name").and_then(|v| v.as_str()).is_some());
                assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
                assert!(e.get("dur").and_then(|v| v.as_f64()).is_some_and(|d| d >= 0.0));
                assert!(e.get("tid").and_then(|v| v.as_f64()).is_some());
            }
            "M" | "i" | "s" | "f" => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }
}
