//! Integration test of the §8 Krylov host reference: conjugate gradients on
//! the matrix-free frozen-mobility operator of a heterogeneous problem.

use mdfv::fv::linalg::norm2;
use mdfv::fv::operator::{FrozenMobilityOperator, LinearOperator};
use mdfv::fv::prelude::*;

fn heterogeneous_problem() -> (CartesianMesh3, Fluid, Transmissibilities) {
    let mesh = CartesianMesh3::new(Extents::new(10, 8, 5), Spacing::new(12.0, 12.0, 6.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.5, 77);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    (mesh, fluid, trans)
}

#[test]
fn cg_solves_the_heterogeneous_frozen_mobility_system() {
    let (mesh, fluid, trans) = heterogeneous_problem();
    let n = mesh.num_cells();
    let p = FlowState::<f64>::uniform(&mesh, 15.0e6);
    let op = FrozenMobilityOperator::new(&mesh, &fluid, &trans, p.pressure())
        .with_diagonal(vec![1e-9; n]);
    let rhs: Vec<f64> = (0..n)
        .map(|i| (((i * 7) % 13) as f64 - 6.0) * 1e-9)
        .collect();
    let solve = |cg: &mut ConjugateGradient<f64>| {
        let mut x = vec![0.0; n];
        let report = cg.solve(&op, &rhs, &mut x);
        assert!(report.converged(), "{report:?}");
        let mut ax = vec![0.0; n];
        op.apply(&x, &mut ax);
        for (r, b) in ax.iter_mut().zip(&rhs) {
            *r -= b;
        }
        assert!(
            norm2(&ax) <= 1e-8 * norm2(&rhs),
            "‖Ax − b‖ = {} for ‖b‖ = {}",
            norm2(&ax),
            norm2(&rhs)
        );
        x
    };
    let plain = solve(&mut ConjugateGradient::new(n, 2000, 1e-11));
    let diag = op.diagonal();
    let jacobi = solve(&mut ConjugateGradient::new(n, 2000, 1e-11).with_jacobi(&diag));
    let diff: Vec<f64> = plain.iter().zip(&jacobi).map(|(a, b)| a - b).collect();
    let rel = norm2(&diff) / norm2(&plain).max(1e-300);
    assert!(rel < 1e-6, "plain and Jacobi CG differ by {rel}");
}
