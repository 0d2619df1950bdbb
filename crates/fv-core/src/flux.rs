//! The TPFA face flux (paper Eqs. 3–4) — the inner kernel of the whole work.
//!
//! This module transcribes the paper's discrete flux:
//!
//! ```text
//! F_KL  = Υ_KL · λ_upw · ΔΦ_KL                   (3a)
//! ΔΦ_KL = p_K − p_L + ρ_avg · g · (z_K − z_L)    (3b, sign-corrected)
//! λ_upw = ρ_K/μ  if ΔΦ_KL > 0, else ρ_L/μ        (4)
//! ```
//!
//! **Sign note.** The paper's Eq. (3b) prints `ΔΦ = p_L − p_K + ρ g (z_L −
//! z_K)`, but its Eq. (4) upwinds on `ρ_K` when `ΔΦ > 0` and its Eq. (2)
//! adds `+Σ F_KL` to the accumulation term — both of which are only
//! physically consistent (upstream mobility, mass conserved, diffusion
//! dissipative) if `ΔΦ` is the *K-to-L* driving force. We therefore use the
//! standard outflow-positive convention above (the one reference simulators
//! like GEOS use) and treat the printed (3b) as a sign typo. The operation
//! count is unchanged.
//!
//! Every implementation in the workspace — the serial reference below, the
//! RAJA-like and CUDA-like GPU models, and the DSD-vectorized fabric kernel —
//! computes **exactly this expression**, so they can be cross-validated
//! bit-for-bit at equal precision.
//!
//! Operation count: one face flux costs 14 FLOPs in the fabric decomposition
//! of the paper's Table 4 (6 FMUL + 4 FSUB + 1 FADD + 1 FMA + 1 FNEG, with
//! FMA counting 2). The scalar form below is algebraically identical; the
//! instruction-exact decomposition lives in the fabric kernel where it is
//! *measured*, not assumed.

use crate::eos::Fluid;
use crate::real::Real;

/// Result of one face-flux evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaceFlux<R> {
    /// The mass flux `F_KL` (positive = residual contribution to cell K).
    pub flux: R,
    /// The potential difference `ΔΦ_KL` (useful for upwind diagnostics).
    pub pot_diff: R,
}

/// Evaluates the TPFA face flux `F_KL` between cells K and L.
///
/// * `trans` — transmissibility `Υ_KL`
/// * `p_k`, `p_l` — cell pressures
/// * `rho_k`, `rho_l` — cell densities (already evaluated via Eq. 5)
/// * `g_dz` — `g · (z_K − z_L)`, the gravity head between cell centers
///   (z is elevation, increasing upward)
/// * `inv_mu` — `1/μ` (the paper's viscosity is constant; its reciprocal is
///   precomputed so the kernel multiplies instead of divides, exactly as the
///   fabric implementation does)
#[inline(always)]
pub fn face_flux<R: Real>(
    trans: R,
    p_k: R,
    p_l: R,
    rho_k: R,
    rho_l: R,
    g_dz: R,
    inv_mu: R,
) -> FaceFlux<R> {
    let rho_avg = (rho_k + rho_l) * R::HALF;
    let pot_diff = (p_k - p_l) + rho_avg * g_dz;
    let rho_upw = if pot_diff > R::ZERO { rho_k } else { rho_l };
    let lambda = rho_upw * inv_mu;
    FaceFlux {
        flux: trans * lambda * pot_diff,
        pot_diff,
    }
}

/// Convenience wrapper evaluating densities from pressures via the EOS
/// (Eq. 5) before calling [`face_flux`] — matches Algorithm 1 line
/// "Evaluate densities in K and L using Eq. 5".
#[inline]
pub fn face_flux_from_pressure<R: Real>(
    fluid: &Fluid,
    trans: R,
    p_k: R,
    p_l: R,
    g_dz: R,
) -> FaceFlux<R> {
    let rho_k = fluid.density(p_k);
    let rho_l = fluid.density(p_l);
    let inv_mu = R::ONE / R::from_f64(fluid.viscosity);
    face_flux(trans, p_k, p_l, rho_k, rho_l, g_dz, inv_mu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fluid() -> Fluid {
        Fluid::water_like()
    }

    #[test]
    fn zero_pressure_difference_no_gravity_gives_zero_flux() {
        let f = face_flux_from_pressure(&fluid(), 1.0e-12_f64, 10.0e6, 10.0e6, 0.0);
        assert_eq!(f.flux, 0.0);
        assert_eq!(f.pot_diff, 0.0);
    }

    #[test]
    fn flux_is_antisymmetric() {
        // F_KL == −F_LK: swap (p_k, rho_k) with (p_l, rho_l) and negate g·dz.
        let fl = fluid();
        let (pk, pl) = (10.0e6_f64, 11.0e6);
        let gdz = fl.gravity * 5.0;
        let fwd = face_flux_from_pressure(&fl, 2e-12, pk, pl, gdz);
        let bwd = face_flux_from_pressure(&fl, 2e-12, pl, pk, -gdz);
        assert!(
            (fwd.flux + bwd.flux).abs() <= 1e-12 * fwd.flux.abs().max(1.0),
            "fwd={} bwd={}",
            fwd.flux,
            bwd.flux
        );
    }

    #[test]
    fn upwind_density_follows_potential_sign() {
        let fl = fluid().without_gravity();
        let inv_mu = 1.0 / fl.viscosity;
        let (rho_k, rho_l) = (900.0_f64, 1100.0);
        // ΔΦ = p_k − p_l > 0 → flow K→L → upwind is K → ρ_K
        let f = face_flux(1.0, 2.0e6, 1.0e6, rho_k, rho_l, 0.0, inv_mu);
        assert!((f.flux - 1.0 * rho_k * inv_mu * 1.0e6).abs() < 1e-3);
        // ΔΦ < 0 → flow L→K → upwind is L → ρ_L
        let g = face_flux(1.0, 1.0e6, 2.0e6, rho_k, rho_l, 0.0, inv_mu);
        assert!((g.flux - 1.0 * rho_l * inv_mu * (-1.0e6)).abs() < 1e-3);
    }

    #[test]
    fn flux_scales_linearly_with_transmissibility() {
        let fl = fluid();
        let a = face_flux_from_pressure(&fl, 1e-12_f64, 10.0e6, 12.0e6, 0.0);
        let b = face_flux_from_pressure(&fl, 3e-12_f64, 10.0e6, 12.0e6, 0.0);
        assert!((b.flux / a.flux - 3.0).abs() < 1e-12);
    }

    #[test]
    fn gravity_head_enters_potential() {
        let fl = fluid();
        // equal pressures, cells stacked vertically: ΔΦ = ρ_avg g dz ≠ 0
        let gdz = fl.gravity * 10.0; // z_L − z_K = 10 m
        let f = face_flux_from_pressure(&fl, 1e-12_f64, 10.0e6, 10.0e6, gdz);
        assert!(f.pot_diff > 0.0);
        assert!(f.flux > 0.0);
    }

    #[test]
    fn zero_transmissibility_means_no_flow() {
        let f = face_flux_from_pressure(&fluid(), 0.0_f64, 1.0e6, 9.0e6, 3.0);
        assert_eq!(f.flux, 0.0);
    }

    #[test]
    fn f32_matches_f64_to_single_precision() {
        let fl = fluid();
        let f64v = face_flux_from_pressure(&fl, 1e-12_f64, 10.0e6, 10.5e6, fl.gravity * 2.0);
        let f32v = face_flux_from_pressure(
            &fl,
            1e-12_f32,
            10.0e6_f32,
            10.5e6_f32,
            (fl.gravity * 2.0) as f32,
        );
        let rel = ((f32v.flux as f64) - f64v.flux).abs() / f64v.flux.abs();
        assert!(rel < 1e-4, "relative error {rel}");
    }
}
