//! Matrix-free operators built on the flux kernel.
//!
//! The paper's §8 notes that "the FV flux computation is naturally extendable
//! to a matrix-free FV operator for use in an iterative Krylov method which
//! would solve equation (2)". This module provides exactly that: linear
//! operators that apply the (linearized) flux stencil to a vector without
//! ever forming a matrix, so a Krylov solver only needs repeated flux sweeps.

use crate::eos::Fluid;
use crate::mesh::{CartesianMesh3, ALL_NEIGHBORS, NEIGHBOR_COUNT};
use crate::real::Real;
use crate::residual::assemble_flux_residual;
use crate::trans::Transmissibilities;

/// A matrix-free linear operator `y = A x`.
pub trait LinearOperator<R: Real> {
    /// Applies the operator: `y ← A x`.
    fn apply(&self, x: &[R], y: &mut [R]);
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
}

/// The nonlinear flux-residual operator `r(p)` (Algorithm 1) with an
/// application counter — the "1,000 applications" driver of the paper's
/// evaluation calls through this.
pub struct FluxOperator<'a> {
    mesh: &'a CartesianMesh3,
    fluid: &'a Fluid,
    trans: &'a Transmissibilities,
    applications: std::cell::Cell<usize>,
}

impl<'a> FluxOperator<'a> {
    /// Creates the operator over borrowed problem data.
    pub fn new(mesh: &'a CartesianMesh3, fluid: &'a Fluid, trans: &'a Transmissibilities) -> Self {
        Self {
            mesh,
            fluid,
            trans,
            applications: std::cell::Cell::new(0),
        }
    }

    /// Evaluates `r ← r_flux(p)`.
    pub fn residual<R: Real>(&self, pressure: &[R], residual: &mut [R]) {
        self.applications.set(self.applications.get() + 1);
        assemble_flux_residual(self.mesh, self.fluid, self.trans, pressure, residual);
    }

    /// Number of residual evaluations so far.
    pub fn applications(&self) -> usize {
        self.applications.get()
    }

    /// The mesh this operator sweeps.
    pub fn mesh(&self) -> &CartesianMesh3 {
        self.mesh
    }
}

/// Symmetric positive-definite Picard linearization: mobilities `λ` are
/// frozen at a reference pressure, giving
///
/// ```text
/// (A x)_K = Σ_L Υ_KL λ_KL (x_K − x_L)
/// ```
///
/// a weighted graph Laplacian plus an optional positive diagonal shift —
/// exactly the operator a pressure solve hands to conjugate gradients.
pub struct FrozenMobilityOperator<R> {
    /// `Υ_KL · λ_KL` per cell-face slot, `coeff[cell*10 + face]`.
    coeff: Vec<R>,
    /// Optional positive diagonal (e.g. compressibility `Vφc/Δt`).
    diag: Vec<R>,
    n: usize,
    nx: usize,
    ny: usize,
    nz: usize,
}

impl<R: Real> FrozenMobilityOperator<R> {
    /// Freezes mobilities at pressure `p_ref` (per-face arithmetic average of
    /// the two cell mobilities, which keeps the operator symmetric).
    pub fn new(
        mesh: &CartesianMesh3,
        fluid: &Fluid,
        trans: &Transmissibilities,
        p_ref: &[R],
    ) -> Self {
        assert_eq!(p_ref.len(), mesh.num_cells());
        let inv_mu = R::ONE / R::from_f64(fluid.viscosity);
        let n = mesh.num_cells();
        let mut coeff = vec![R::ZERO; n * NEIGHBOR_COUNT];
        for (i, c) in mesh.cells() {
            let rho_k = fluid.density(p_ref[i]);
            for nb in ALL_NEIGHBORS {
                let Some(l) = mesh.neighbor(c, nb) else {
                    continue;
                };
                let j = mesh.linear_idx(l);
                let rho_l = fluid.density(p_ref[j]);
                let lambda = (rho_k + rho_l) * R::HALF * inv_mu;
                coeff[i * NEIGHBOR_COUNT + nb.face_index()] = R::from_f64(trans.t(i, nb)) * lambda;
            }
        }
        Self {
            coeff,
            diag: vec![R::ZERO; n],
            n,
            nx: mesh.nx(),
            ny: mesh.ny(),
            nz: mesh.nz(),
        }
    }

    /// Adds a diagonal shift (must be non-negative to preserve SPD).
    pub fn with_diagonal(mut self, diag: Vec<R>) -> Self {
        assert_eq!(diag.len(), self.n);
        assert!(diag.iter().all(|d| *d >= R::ZERO));
        self.diag = diag;
        self
    }

    /// The diagonal of `A` (Jacobi preconditioner): `Σ_L Υλ + shift`.
    pub fn diagonal(&self) -> Vec<R> {
        let mut d = self.diag.clone();
        for i in 0..self.n {
            for k in 0..NEIGHBOR_COUNT {
                d[i] += self.coeff[i * NEIGHBOR_COUNT + k];
            }
        }
        d
    }

    #[inline]
    fn neighbor_index(&self, i: usize, face: usize) -> Option<usize> {
        // Decode structured coords from the linear index (x innermost).
        let x = i % self.nx;
        let y = (i / self.nx) % self.ny;
        let z = i / (self.nx * self.ny);
        let (dx, dy, dz) = crate::mesh::Neighbor::from_face_index(face).offset();
        let xx = x as i64 + dx;
        let yy = y as i64 + dy;
        let zz = z as i64 + dz;
        if xx < 0
            || yy < 0
            || zz < 0
            || xx >= self.nx as i64
            || yy >= self.ny as i64
            || zz >= self.nz as i64
        {
            None
        } else {
            Some(((zz as usize * self.ny) + yy as usize) * self.nx + xx as usize)
        }
    }
}

impl<R: Real> LinearOperator<R> for FrozenMobilityOperator<R> {
    fn apply(&self, x: &[R], y: &mut [R]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for i in 0..self.n {
            let mut acc = self.diag[i] * x[i];
            for face in 0..NEIGHBOR_COUNT {
                let c = self.coeff[i * NEIGHBOR_COUNT + face];
                if c == R::ZERO {
                    continue;
                }
                // boundary faces store 0 so unwrap-by-skip is safe
                if let Some(j) = self.neighbor_index(i, face) {
                    acc += c * (x[i] - x[j]);
                }
            }
            y[i] = acc;
        }
    }

    fn dim(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::PermeabilityField;
    use crate::linalg::dot;
    use crate::mesh::{Extents, Spacing};
    use crate::state::FlowState;
    use crate::trans::StencilKind;

    fn setup() -> (CartesianMesh3, Fluid, Transmissibilities) {
        let mesh = CartesianMesh3::new(Extents::new(4, 3, 3), Spacing::uniform(2.0));
        let fluid = Fluid::water_like();
        let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.3, 21);
        let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
        (mesh, fluid, trans)
    }

    #[test]
    fn flux_operator_counts_applications() {
        let (mesh, fluid, trans) = setup();
        let op = FluxOperator::new(&mesh, &fluid, &trans);
        let p = FlowState::<f64>::uniform(&mesh, 1.0e7);
        let mut r = vec![0.0; mesh.num_cells()];
        for _ in 0..5 {
            op.residual(p.pressure(), &mut r);
        }
        assert_eq!(op.applications(), 5);
        assert_eq!(op.mesh().num_cells(), mesh.num_cells());
    }

    #[test]
    fn frozen_operator_is_symmetric() {
        let (mesh, fluid, trans) = setup();
        let p = FlowState::<f64>::varied(&mesh, 1.0e7, 1.1e7, 2);
        let a = FrozenMobilityOperator::new(&mesh, &fluid, &trans, p.pressure());
        let n = mesh.num_cells();
        // check xᵀAy == yᵀAx on random-ish vectors
        let x: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 17) as f64 - 8.0).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 53 + 5) % 13) as f64 - 6.0).collect();
        let mut ax = vec![0.0; n];
        let mut ay = vec![0.0; n];
        a.apply(&x, &mut ax);
        a.apply(&y, &mut ay);
        let lhs = dot(&y, &ax);
        let rhs = dot(&x, &ay);
        assert!(
            (lhs - rhs).abs() <= 1e-10 * lhs.abs().max(1e-30),
            "lhs={lhs} rhs={rhs}"
        );
        assert_eq!(a.dim(), n);
    }

    #[test]
    fn frozen_operator_is_positive_semidefinite_and_kills_constants() {
        let (mesh, fluid, trans) = setup();
        let p = FlowState::<f64>::uniform(&mesh, 1.0e7);
        let a = FrozenMobilityOperator::new(&mesh, &fluid, &trans, p.pressure());
        let n = mesh.num_cells();
        // constants are in the null space (pure Laplacian, no diagonal)
        let ones = vec![1.0; n];
        let mut out = vec![0.0; n];
        a.apply(&ones, &mut out);
        assert!(out.iter().all(|&v| v.abs() < 1e-12));
        // xᵀAx >= 0
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64).collect();
        let mut ax = vec![0.0; n];
        a.apply(&x, &mut ax);
        assert!(dot(&x, &ax) >= -1e-12);
    }

    #[test]
    fn diagonal_shift_makes_operator_definite() {
        let (mesh, fluid, trans) = setup();
        let p = FlowState::<f64>::uniform(&mesh, 1.0e7);
        let n = mesh.num_cells();
        let a = FrozenMobilityOperator::new(&mesh, &fluid, &trans, p.pressure())
            .with_diagonal(vec![1.0; n]);
        let ones = vec![1.0; n];
        let mut out = vec![0.0; n];
        a.apply(&ones, &mut out);
        for v in out {
            assert!((v - 1.0).abs() < 1e-12);
        }
        let d = a.diagonal();
        assert!(d.iter().all(|&v| v >= 1.0));
    }
}
