//! Well / source terms for the implicit residual.
//!
//! The paper's motivating application is CO₂ injection; the flux-kernel study
//! itself has no wells, but the implicit residual of Eq. (2), which the §8
//! Krylov extension solves, takes a mass source.

use crate::mesh::{CartesianMesh3, CellIdx};
use serde::{Deserialize, Serialize};

/// A constant-rate mass source (positive = injection) in one cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SourceTerm {
    /// Linear cell index of the perforated cell.
    pub cell: usize,
    /// Mass rate `q` [kg/s]; positive injects.
    pub mass_rate: f64,
}

impl SourceTerm {
    /// An injector at structured coordinates.
    pub fn injector(mesh: &CartesianMesh3, at: CellIdx, mass_rate: f64) -> Self {
        assert!(mass_rate >= 0.0, "injector rate must be non-negative");
        Self {
            cell: mesh.linear_idx(at),
            mass_rate,
        }
    }

    /// A producer at structured coordinates.
    pub fn producer(mesh: &CartesianMesh3, at: CellIdx, mass_rate: f64) -> Self {
        assert!(mass_rate >= 0.0, "producer rate must be non-negative");
        Self {
            cell: mesh.linear_idx(at),
            mass_rate: -mass_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{Extents, Spacing};

    fn mesh() -> CartesianMesh3 {
        CartesianMesh3::new(Extents::new(4, 4, 3), Spacing::uniform(1.0))
    }

    #[test]
    fn injector_and_producer_signs() {
        let m = mesh();
        let inj = SourceTerm::injector(&m, CellIdx::new(1, 1, 0), 2.0);
        assert!(inj.mass_rate > 0.0);
        let prod = SourceTerm::producer(&m, CellIdx::new(2, 2, 1), 2.0);
        assert!(prod.mass_rate < 0.0);
        assert_eq!(inj.cell, m.linear(1, 1, 0));
    }

    #[test]
    #[should_panic]
    fn negative_injector_rate_rejected() {
        let m = mesh();
        let _ = SourceTerm::injector(&m, CellIdx::new(0, 0, 0), -1.0);
    }
}
