//! Solver benches for the §8 Krylov host reference: matrix-free
//! frozen-mobility operator application and conjugate gradients (plain and
//! Jacobi-preconditioned) on that Picard operator.

use bench::standard_problem;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fv_core::operator::{FrozenMobilityOperator, LinearOperator};
use fv_core::solver::cg::ConjugateGradient;
use fv_core::state::FlowState;

fn bench_operator_apply(c: &mut Criterion) {
    let mut g = c.benchmark_group("operator_apply");
    for n in [8usize, 16, 24] {
        let (mesh, fluid, trans) = standard_problem(n, n, n, 5);
        let p = FlowState::<f64>::varied(&mesh, 1.0e7, 1.1e7, 0);
        let frozen = FrozenMobilityOperator::new(&mesh, &fluid, &trans, p.pressure());
        let x: Vec<f64> = (0..mesh.num_cells()).map(|i| (i % 13) as f64).collect();
        let mut y = vec![0.0; mesh.num_cells()];
        g.throughput(Throughput::Elements(mesh.num_cells() as u64));
        g.bench_with_input(BenchmarkId::new("frozen_mobility", n), &n, |b, _| {
            b.iter(|| frozen.apply(&x, &mut y));
        });
    }
    g.finish();
}

fn bench_krylov(c: &mut Criterion) {
    let mut g = c.benchmark_group("krylov");
    g.sample_size(10);
    let n = 12usize;
    let (mesh, fluid, trans) = standard_problem(n, n, n, 5);
    let ncells = mesh.num_cells();
    let p = FlowState::<f64>::uniform(&mesh, 1.0e7);
    let op = FrozenMobilityOperator::new(&mesh, &fluid, &trans, p.pressure())
        .with_diagonal(vec![1e-8; ncells]);
    let rhs: Vec<f64> = (0..ncells).map(|i| ((i * 31) % 17) as f64 * 1e-9).collect();
    g.bench_function("cg", |b| {
        let mut cg = ConjugateGradient::new(ncells, 500, 1e-8);
        let mut x = vec![0.0; ncells];
        b.iter(|| {
            x.iter_mut().for_each(|v| *v = 0.0);
            cg.solve(&op, &rhs, &mut x)
        });
    });
    g.bench_function("cg_jacobi", |b| {
        let diag = op.diagonal();
        let mut cg = ConjugateGradient::new(ncells, 500, 1e-8).with_jacobi(&diag);
        let mut x = vec![0.0; ncells];
        b.iter(|| {
            x.iter_mut().for_each(|v| *v = 0.0);
            cg.solve(&op, &rhs, &mut x)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_operator_apply, bench_krylov);
criterion_main!(benches);
