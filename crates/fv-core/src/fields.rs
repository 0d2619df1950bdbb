//! Cell-centered fields and synthetic geomodel generators.
//!
//! The paper runs on "highly detailed geomodels" that are proprietary; per
//! the reproduction plan we generate synthetic permeability and pressure
//! fields with the same statistical character (layered, heterogeneous,
//! log-normally distributed permeability — standard for subsurface models).

use crate::mesh::{CartesianMesh3, CellIdx};
use crate::real::Real;
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A cell-centered scalar field stored in mesh linear-index order
/// (X innermost, Z outermost).
#[derive(Debug, Clone, PartialEq)]
pub struct CellField<R> {
    data: Vec<R>,
}

impl<R: Real> CellField<R> {
    /// A field of zeros sized for `mesh`.
    pub fn zeros(mesh: &CartesianMesh3) -> Self {
        Self {
            data: vec![R::ZERO; mesh.num_cells()],
        }
    }

    /// A constant field.
    pub fn constant(mesh: &CartesianMesh3, value: R) -> Self {
        Self {
            data: vec![value; mesh.num_cells()],
        }
    }

    /// Builds a field by evaluating `f` at every cell.
    pub fn from_fn(mesh: &CartesianMesh3, mut f: impl FnMut(CellIdx) -> R) -> Self {
        let mut data = Vec::with_capacity(mesh.num_cells());
        for (_, c) in mesh.cells() {
            data.push(f(c));
        }
        Self { data }
    }

    /// Wraps an existing vector (must match the mesh size).
    pub fn from_vec(mesh: &CartesianMesh3, data: Vec<R>) -> Self {
        assert_eq!(data.len(), mesh.num_cells(), "field/mesh size mismatch");
        Self { data }
    }

    /// Immutable view of the raw data.
    #[inline]
    pub fn as_slice(&self) -> &[R] {
        &self.data
    }

    /// Mutable view of the raw data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [R] {
        &mut self.data
    }

    /// Consumes the field, returning the raw vector.
    pub fn into_vec(self) -> Vec<R> {
        self.data
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the field has no cells (never the case for a valid mesh).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts element type (e.g. an `f64` reference field to the `f32`
    /// working precision used on the fabric).
    pub fn cast<S: Real>(&self) -> CellField<S> {
        CellField {
            data: self.data.iter().map(|&v| S::from_f64(v.to_f64())).collect(),
        }
    }
}

impl<R> std::ops::Index<usize> for CellField<R> {
    type Output = R;
    #[inline]
    fn index(&self, i: usize) -> &R {
        &self.data[i]
    }
}

impl<R> std::ops::IndexMut<usize> for CellField<R> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut R {
        &mut self.data[i]
    }
}

/// Scalar (isotropic) permeability field `κ` \[m²\].
#[derive(Debug, Clone, PartialEq)]
pub struct PermeabilityField {
    values: Vec<f64>,
}

impl PermeabilityField {
    /// Homogeneous permeability.
    pub fn uniform(mesh: &CartesianMesh3, kappa: f64) -> Self {
        assert!(kappa > 0.0, "permeability must be positive");
        Self {
            values: vec![kappa; mesh.num_cells()],
        }
    }

    /// Layered permeability: each Z layer gets one value, cycling through
    /// `layer_values` — mimics the sedimentary layering of real geomodels.
    pub fn layered(mesh: &CartesianMesh3, layer_values: &[f64]) -> Self {
        assert!(!layer_values.is_empty());
        assert!(layer_values.iter().all(|&k| k > 0.0));
        let mut values = vec![0.0; mesh.num_cells()];
        for (i, c) in mesh.cells() {
            values[i] = layer_values[c.z % layer_values.len()];
        }
        Self { values }
    }

    /// Log-normally distributed heterogeneous permeability with the given
    /// median and log₁₀ standard deviation, seeded for reproducibility.
    pub fn log_normal(mesh: &CartesianMesh3, median: f64, log10_sigma: f64, seed: u64) -> Self {
        assert!(median > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let normal = rand::distributions::Uniform::new(-1.0_f64, 1.0);
        // Sum of 6 uniforms ≈ normal (Irwin–Hall), scaled to unit variance.
        let values = (0..mesh.num_cells())
            .map(|_| {
                let z: f64 = (0..6).map(|_| normal.sample(&mut rng)).sum::<f64>() / 6.0_f64.sqrt()
                    * 3.0_f64.sqrt();
                median * 10.0_f64.powf(log10_sigma * z)
            })
            .collect();
        Self { values }
    }

    /// Permeability of the cell with linear index `idx`.
    #[inline]
    pub fn kappa(&self, idx: usize) -> f64 {
        self.values[idx]
    }

    /// Raw values.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{Extents, Spacing};

    fn mesh() -> CartesianMesh3 {
        CartesianMesh3::new(Extents::new(4, 3, 5), Spacing::uniform(1.0))
    }

    #[test]
    fn zeros_and_constant() {
        let m = mesh();
        let z = CellField::<f64>::zeros(&m);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let c = CellField::constant(&m, 2.5_f64);
        assert!(c.as_slice().iter().all(|&v| v == 2.5));
        assert_eq!(c.len(), m.num_cells());
        assert!(!c.is_empty());
    }

    #[test]
    fn from_fn_sees_every_cell_in_order() {
        let m = mesh();
        let f = CellField::from_fn(&m, |c| (c.x + 10 * c.y + 100 * c.z) as f64);
        for (i, c) in m.cells() {
            assert_eq!(f[i], (c.x + 10 * c.y + 100 * c.z) as f64);
        }
    }

    #[test]
    fn cast_f64_to_f32_preserves_values() {
        let m = mesh();
        let f = CellField::from_fn(&m, |c| c.x as f64 * 0.5);
        let g: CellField<f32> = f.cast();
        for i in 0..f.len() {
            assert_eq!(g[i] as f64, f[i]);
        }
    }

    #[test]
    #[should_panic]
    fn from_vec_checks_size() {
        let m = mesh();
        let _ = CellField::from_vec(&m, vec![0.0_f64; 3]);
    }

    #[test]
    fn layered_permeability_cycles_by_z() {
        let m = mesh();
        let k = PermeabilityField::layered(&m, &[1e-12, 1e-14]);
        for (i, c) in m.cells() {
            let expect = if c.z % 2 == 0 { 1e-12 } else { 1e-14 };
            assert_eq!(k.kappa(i), expect);
        }
    }

    #[test]
    fn log_normal_is_reproducible_and_positive() {
        let m = mesh();
        let a = PermeabilityField::log_normal(&m, 1e-13, 0.5, 42);
        let b = PermeabilityField::log_normal(&m, 1e-13, 0.5, 42);
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(a.as_slice().iter().all(|&k| k > 0.0));
        let c = PermeabilityField::log_normal(&m, 1e-13, 0.5, 43);
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn log_normal_median_is_roughly_right() {
        let m = CartesianMesh3::new(Extents::new(20, 20, 20), Spacing::uniform(1.0));
        let k = PermeabilityField::log_normal(&m, 1e-13, 0.3, 7);
        let mut v: Vec<f64> = k.as_slice().to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        assert!(
            (median.log10() - (-13.0)).abs() < 0.15,
            "median {median:e} too far from 1e-13"
        );
    }

    #[test]
    fn index_mut_roundtrip() {
        let m = mesh();
        let mut f = CellField::<f64>::zeros(&m);
        f[5] = 9.0;
        assert_eq!(f[5], 9.0);
        f.as_mut_slice()[6] = 4.0;
        assert_eq!(f.clone().into_vec()[6], 4.0);
    }
}
