//! Criterion benchmarks of the simulated-cluster collectives: wall-time of
//! the rendezvous fabric itself (how fast the simulator executes), not the
//! simulated seconds it reports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use tesseract_comm::Cluster;
use tesseract_tensor::{DenseTensor, Matrix};

fn bench_all_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/all_reduce");
    group.sample_size(10);
    for ranks in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(ranks), &ranks, |b, &ranks| {
            b.iter(|| {
                Cluster::a100(ranks).run(|ctx| {
                    let g = ctx.world_group();
                    let t = DenseTensor::from_matrix(Matrix::full(16, 16, ctx.rank as f32));
                    black_box(g.all_reduce_shared(ctx, t));
                })
            })
        });
    }
    group.finish();
}

fn bench_broadcast_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/broadcast_chain");
    group.sample_size(10);
    group.bench_function("4ranks_x16", |b| {
        b.iter(|| {
            Cluster::a100(4).run(|ctx| {
                let g = ctx.world_group();
                for _ in 0..16 {
                    let payload = (ctx.rank == 0)
                        .then(|| Arc::new(DenseTensor::from_matrix(Matrix::full(8, 8, 1.0))));
                    black_box(g.broadcast_shared(ctx, 0, payload));
                }
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_all_reduce, bench_broadcast_chain);
criterion_main!(benches);
