//! Fluid equation of state (paper Eq. 5).
//!
//! The paper models supercritical CO₂ injection with a *slightly
//! compressible* single-phase fluid: density depends exponentially on
//! pressure, viscosity is constant, porosity depends linearly on pressure.

use crate::real::Real;
use serde::{Deserialize, Serialize};

/// Fluid properties for the slightly-compressible single-phase model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fluid {
    /// Reference density `ρ_ref` [kg/m³].
    pub rho_ref: f64,
    /// Reference pressure `p_ref` \[Pa\].
    pub p_ref: f64,
    /// Fluid compressibility `c_f` [1/Pa].
    pub compressibility: f64,
    /// Constant dynamic viscosity `μ` [Pa·s].
    pub viscosity: f64,
    /// Gravitational acceleration `g` [m/s²] (signed along +z; the paper's
    /// Eq. 3b multiplies `g (z_L − z_K)`).
    pub gravity: f64,
}

impl Fluid {
    /// Water-like fluid at reservoir conditions — a convenient default for
    /// examples and tests.
    pub fn water_like() -> Self {
        Self {
            rho_ref: 1000.0,
            p_ref: 10.0e6,
            compressibility: 4.5e-10,
            viscosity: 1.0e-3,
            gravity: 9.81,
        }
    }

    /// Supercritical-CO₂-like fluid — the paper's motivating application
    /// (geologic carbon storage).
    pub fn co2_like() -> Self {
        Self {
            rho_ref: 700.0,
            p_ref: 15.0e6,
            compressibility: 1.0e-8,
            viscosity: 6.0e-5,
            gravity: 9.81,
        }
    }

    /// Same fluid with gravity switched off (useful for conservation tests:
    /// a uniform pressure field then yields an exactly zero flux residual).
    pub fn without_gravity(mut self) -> Self {
        self.gravity = 0.0;
        self
    }

    /// Density at pressure `p` (Eq. 5): `ρ = ρ_ref · exp(c_f (p − p_ref))`.
    #[inline]
    pub fn density<R: Real>(&self, p: R) -> R {
        let cf = R::from_f64(self.compressibility);
        let pref = R::from_f64(self.p_ref);
        let rref = R::from_f64(self.rho_ref);
        rref * (cf * (p - pref)).exp()
    }

    /// Porosity model `φ(p) = φ_ref (1 + c_r (p − p_ref))` — linear in
    /// pressure per the paper ("the porosity and the density depend linearly
    /// on pressure"; density is in fact exponential via Eq. 5, porosity is
    /// linear). Used only by the accumulation term of Eq. (2).
    #[inline]
    pub fn porosity<R: Real>(&self, phi_ref: R, rock_compressibility: R, p: R) -> R {
        let pref = R::from_f64(self.p_ref);
        phi_ref * (R::ONE + rock_compressibility * (p - pref))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_at_reference_pressure_is_reference_density() {
        let f = Fluid::water_like();
        let rho: f64 = f.density(f.p_ref);
        assert!((rho - f.rho_ref).abs() < 1e-12);
    }

    #[test]
    fn density_is_monotonic_in_pressure() {
        let f = Fluid::co2_like();
        let mut last = 0.0_f64;
        for i in 0..100 {
            let p = 5.0e6 + i as f64 * 1.0e5;
            let rho = f.density(p);
            assert!(rho > last, "density must increase with pressure");
            last = rho;
        }
    }

    #[test]
    fn f32_and_f64_density_agree() {
        let f = Fluid::water_like();
        let p = 12.0e6;
        let d64: f64 = f.density(p);
        let d32: f32 = f.density(p as f32);
        assert!((d64 - d32 as f64).abs() / d64 < 1e-5);
    }

    #[test]
    fn porosity_linear_model() {
        let f = Fluid::water_like();
        let phi: f64 = f.porosity(0.2, 1.0e-9, f.p_ref + 1.0e6);
        assert!((phi - 0.2 * (1.0 + 1.0e-3)).abs() < 1e-12);
    }

    #[test]
    fn without_gravity_zeroes_g() {
        assert_eq!(Fluid::water_like().without_gravity().gravity, 0.0);
    }
}
