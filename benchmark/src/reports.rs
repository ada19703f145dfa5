//! Per-layer numbers read off a run's public reports ([R]): the part the
//! training and serving workloads share.

use tesseract_comm::{CollectiveOp, CommStats, RankReport};

use crate::rep::Rep;

/// The collectives the workloads issue (gather/scatter/shift have no
/// caller on these paths).
const REPORTED_OPS: [CollectiveOp; 8] = [
    CollectiveOp::Broadcast,
    CollectiveOp::Reduce,
    CollectiveOp::AllReduce,
    CollectiveOp::AllGather,
    CollectiveOp::ReduceScatter,
    CollectiveOp::AllToAll,
    CollectiveOp::Barrier,
    CollectiveOp::SendRecv,
];

/// One field of a rank report.
pub type Field<'a> = &'a dyn Fn(&RankReport) -> f64;

/// GEMM dispatch, allocation and collective-wait numbers. `per_step`
/// turns a field of the rank reports into its mean over ranks per step
/// (each workload knows its own window and step count).
pub fn rank_layers(per_step: &dyn Fn(Field) -> f64, rep: &mut Rep) {
    rep.set("tensor.gemm_flops_per_step", per_step(&|r| r.flops));
    rep.set("tensor.gemm_calls_blocked", per_step(&|r| r.gemms_blocked as f64));
    rep.set("tensor.gemm_calls_serial", per_step(&|r| r.gemms_serial as f64));
    rep.set("tensor.gemm_calls_avx2", per_step(&|r| r.gemms_kernel_avx2 as f64));
    rep.set("tensor.bytes_allocated_per_step", per_step(&|r| r.bytes_allocated as f64));
    let blocked = per_step(&|r| r.comm_wait_nanos as f64) * 1e-9;
    let hidden = per_step(&|r| r.overlap_hidden_nanos as f64) * 1e-9;
    rep.set("comm.virt_blocked_s", blocked);
    rep.set("comm.virt_hidden_s", hidden);
    let waited = hidden + blocked;
    rep.set("comm.hidden_frac", if waited > 0.0 { hidden / waited } else { 0.0 });
}

/// Collective calls, wire bytes and virtual seconds per step, per op.
pub fn comm_layers(comm: &CommStats, steps: f64, rep: &mut Rep) {
    rep.set("comm.calls_per_step", comm.total_calls() as f64 / steps);
    rep.set("comm.wire_bytes_per_step", comm.total_wire_bytes() as f64 / steps);
    rep.set("comm.payload_copies", comm.total_copies() as f64);
    for op in REPORTED_OPS {
        let s = comm.get(op);
        rep.set(&format!("comm.calls.{}", op.name()), s.calls as f64 / steps);
        rep.set(&format!("comm.virt_time_s.{}", op.name()), s.time / steps);
    }
}
