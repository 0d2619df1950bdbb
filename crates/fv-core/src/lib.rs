//! # fv-core — finite-volume substrate for compressible single-phase Darcy flow
//!
//! This crate implements the physics and numerics that the paper
//! *"Massively Distributed Finite-Volume Flux Computation"* (SC 2023) builds
//! on: a 3D Cartesian mesh, Two-Point Flux Approximation (TPFA)
//! transmissibilities, a slightly-compressible equation of state, single-point
//! upwinding, and the cell-based flux/residual assembly of the paper's
//! Algorithm 1. It also provides the implicit (backward-Euler) residual of the
//! paper's Eq. (2), a matrix-free flux operator, and a conjugate-gradient
//! solver — the host reference for the Krylov extension sketched in the
//! paper's §8 ("Discussions").
//!
//! The serial kernels in [`residual`] are the *ground truth* against which the
//! dataflow implementation (`tpfa-dataflow` on `wse-sim`) and the GPU-style
//! reference implementations (`gpu-ref`) are validated.
//!
//! ## Governing equations (paper §3)
//!
//! Darcy's law and mass balance:
//!
//! ```text
//! u = -(κ/μ) (∇p − ρ g)                          (1a)
//! ∂/∂t (φ ρ) + ∇·(ρ u) = 0                       (1b)
//! ```
//!
//! discretized with a low-order FV scheme and backward Euler:
//!
//! ```text
//! V_K (φ_K^{n+1} ρ_K^{n+1} − φ_K^n ρ_K^n)/Δt + Σ_{L∈adj(K)} F_KL^{n+1} = 0   (2)
//! ```
//!
//! with the TPFA + single-point-upwind flux
//!
//! ```text
//! F_KL = Υ_KL · λ_upw · ΔΦ_KL                    (3a)
//! ΔΦ_KL = p_K − p_L + ρ_avg g (z_K − z_L)        (3b, sign-corrected)
//! λ_upw = ρ_K/μ  if ΔΦ_KL > 0 else ρ_L/μ         (4)
//! ρ_K   = ρ_ref exp(c_f (p_K − p_ref))           (5)
//! ```
//!
//! The paper's printed (3b) has `p_L − p_K`, which contradicts its own
//! upwinding rule (4) and mass balance (2); we use the standard
//! outflow-positive convention — see [`flux`] for the full justification.
//! Cell `z` coordinates are *elevations* (increasing upward).
//!
//! ## Quick start
//!
//! ```
//! use fv_core::prelude::*;
//!
//! let mesh = CartesianMesh3::new(Extents::new(8, 8, 4), Spacing::uniform(10.0));
//! let fluid = Fluid::water_like();
//! let perm = PermeabilityField::uniform(&mesh, 1e-13);
//! let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
//! let state = FlowState::hydrostatic(&mesh, &fluid, 20.0e6);
//! let mut residual = vec![0.0_f64; mesh.num_cells()];
//! assemble_flux_residual(&mesh, &fluid, &trans, state.pressure(), &mut residual);
//! // interior fluxes cancel: a uniform-pressure, gravity-free field has zero residual
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]
// Numeric kernels below walk several same-length slices by index; zipped
// iterator chains obscure the stencil structure there.
#![allow(clippy::needless_range_loop)]

pub mod eos;
pub mod fields;
pub mod flux;
pub mod linalg;
pub mod mesh;
pub mod operator;
pub mod real;
pub mod residual;
pub mod solver;
pub mod source;
pub mod state;
pub mod trans;
pub mod validate;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::eos::Fluid;
    pub use crate::fields::{CellField, PermeabilityField};
    pub use crate::flux::{face_flux, FaceFlux};
    pub use crate::mesh::{CartesianMesh3, CellIdx, Extents, Neighbor, Spacing, NEIGHBOR_COUNT};
    pub use crate::operator::FluxOperator;
    pub use crate::real::Real;
    pub use crate::residual::{
        assemble_flux_residual, assemble_flux_residual_facewise, assemble_implicit_residual,
    };
    pub use crate::solver::cg::ConjugateGradient;
    pub use crate::state::FlowState;
    pub use crate::trans::{StencilKind, Transmissibilities};
}

pub use prelude::*;
