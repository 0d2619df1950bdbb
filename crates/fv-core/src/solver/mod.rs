//! Iterative solvers on matrix-free operators — the paper's §8 extension
//! ("developing nonlinear and linear solvers ... can broaden the scope of FV
//! applications").
//!
//! * [`cg`] — preconditioned conjugate gradients for the SPD Picard operator,
//!   the host reference for an on-fabric Krylov solve.

pub mod cg;

use crate::real::Real;

/// Why an iterative solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Residual tolerance reached.
    Converged,
    /// Iteration budget exhausted.
    MaxIterations,
    /// The curvature `pᵀAp` was not positive (operator not SPD).
    Breakdown,
}

/// Outcome of an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveReport<R> {
    /// Why iteration stopped.
    pub reason: StopReason,
    /// Iterations performed.
    pub iterations: usize,
    /// Final (preconditioned, where applicable) residual norm.
    pub residual_norm: R,
}

impl<R: Real> SolveReport<R> {
    /// True if the solve converged.
    pub fn converged(&self) -> bool {
        self.reason == StopReason::Converged
    }
}
