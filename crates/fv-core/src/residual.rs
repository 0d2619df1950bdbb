//! Serial reference assembly of the flux residual — the paper's Algorithm 1 —
//! plus the full implicit residual of Eq. (2).
//!
//! [`assemble_flux_residual`] is the **ground truth** for the entire
//! workspace: the dataflow implementation and both GPU-style references are
//! validated against it.

use crate::eos::Fluid;
use crate::flux::face_flux;
use crate::mesh::{CartesianMesh3, Neighbor, ALL_NEIGHBORS};
use crate::real::Real;
use crate::source::SourceTerm;
use crate::trans::Transmissibilities;

/// Gravity head `g · (z_K − z_L)` for a given neighbor direction on a uniform
/// grid (z = elevation, increasing upward): `−g·dz` toward the upper
/// neighbor, `+g·dz` toward the lower one, `0` in-plane.
#[inline]
pub fn gravity_head<R: Real>(fluid: &Fluid, mesh: &CartesianMesh3, nb: Neighbor) -> R {
    match nb {
        Neighbor::Up => R::from_f64(-fluid.gravity * mesh.spacing().dz),
        Neighbor::Down => R::from_f64(fluid.gravity * mesh.spacing().dz),
        _ => R::ZERO,
    }
}

/// Algorithm 1, cell-based: sweeps cells in the outer loop and the ten
/// neighbors of each cell in the inner loop, incrementing the local residual
/// `(r_flux)_K += F_KL`. `residual` is zeroed first (the algorithm's
/// `r_flux := 0` line).
pub fn assemble_flux_residual<R: Real>(
    mesh: &CartesianMesh3,
    fluid: &Fluid,
    trans: &Transmissibilities,
    pressure: &[R],
    residual: &mut [R],
) {
    assert_eq!(pressure.len(), mesh.num_cells());
    assert_eq!(residual.len(), mesh.num_cells());
    let inv_mu = R::ONE / R::from_f64(fluid.viscosity);
    residual.iter_mut().for_each(|r| *r = R::ZERO);

    for (i, c) in mesh.cells() {
        let p_k = pressure[i];
        let rho_k = fluid.density(p_k);
        let mut acc = R::ZERO;
        for nb in ALL_NEIGHBORS {
            let Some(l) = mesh.neighbor(c, nb) else {
                continue;
            };
            let j = mesh.linear_idx(l);
            let t = R::from_f64(trans.t(i, nb));
            let p_l = pressure[j];
            let rho_l = fluid.density(p_l);
            let g_dz = gravity_head(fluid, mesh, nb);
            acc += face_flux(t, p_k, p_l, rho_k, rho_l, g_dz, inv_mu).flux;
        }
        residual[i] = acc;
    }
}

/// Algorithm 1, face-based: every interior connection is visited exactly
/// once and scattered to both cells using flux antisymmetry
/// (`F_LK = −F_KL`). Produces the same residual as the cell-based sweep up
/// to floating-point reassociation — a useful independent cross-check of the
/// cell-based kernels (the paper's Figure 3 contrasts the two mappings).
pub fn assemble_flux_residual_facewise<R: Real>(
    mesh: &CartesianMesh3,
    fluid: &Fluid,
    trans: &Transmissibilities,
    pressure: &[R],
    residual: &mut [R],
) {
    assert_eq!(pressure.len(), mesh.num_cells());
    assert_eq!(residual.len(), mesh.num_cells());
    let inv_mu = R::ONE / R::from_f64(fluid.viscosity);
    residual.iter_mut().for_each(|r| *r = R::ZERO);

    // One orientation per connection family.
    const FORWARD: [Neighbor; 5] = [
        Neighbor::East,
        Neighbor::South,
        Neighbor::Up,
        Neighbor::SouthEast,
        Neighbor::NorthEast,
    ];
    for (i, c) in mesh.cells() {
        let p_k = pressure[i];
        let rho_k = fluid.density(p_k);
        for nb in FORWARD {
            let Some(l) = mesh.neighbor(c, nb) else {
                continue;
            };
            let j = mesh.linear_idx(l);
            let t = R::from_f64(trans.t(i, nb));
            let p_l = pressure[j];
            let rho_l = fluid.density(p_l);
            let g_dz = gravity_head(fluid, mesh, nb);
            let f = face_flux(t, p_k, p_l, rho_k, rho_l, g_dz, inv_mu).flux;
            residual[i] += f;
            residual[j] -= f;
        }
    }
}

/// Parameters of the accumulation term of Eq. (2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccumulationParams<R> {
    /// Reference porosity `φ_ref` (uniform).
    pub phi_ref: R,
    /// Rock compressibility `c_r` [1/Pa] in `φ(p) = φ_ref (1 + c_r (p−p_ref))`.
    pub rock_compressibility: R,
    /// Time-step size `Δt` \[s\].
    pub dt: R,
}

/// Full implicit residual of Eq. (2):
///
/// ```text
/// r_K = V_K (φ_K^{n+1} ρ_K^{n+1} − φ_K^n ρ_K^n)/Δt + Σ_L F_KL^{n+1} − q_K
/// ```
///
/// where `q_K` collects well/source mass rates. The paper's kernel study
/// "neglect\[s\] the accumulation term"; this full version backs the implicit
/// time-stepping extension (§8) exercised by the CO₂-injection example.
#[allow(clippy::too_many_arguments)]
pub fn assemble_implicit_residual<R: Real>(
    mesh: &CartesianMesh3,
    fluid: &Fluid,
    trans: &Transmissibilities,
    acc: AccumulationParams<R>,
    p_new: &[R],
    p_old: &[R],
    sources: &[SourceTerm],
    residual: &mut [R],
) {
    assemble_flux_residual(mesh, fluid, trans, p_new, residual);
    let vol = R::from_f64(mesh.cell_volume());
    let inv_dt = R::ONE / acc.dt;
    for i in 0..mesh.num_cells() {
        let mass_new = fluid.porosity(acc.phi_ref, acc.rock_compressibility, p_new[i])
            * fluid.density(p_new[i]);
        let mass_old = fluid.porosity(acc.phi_ref, acc.rock_compressibility, p_old[i])
            * fluid.density(p_old[i]);
        residual[i] += vol * (mass_new - mass_old) * inv_dt;
    }
    for s in sources {
        residual[s.cell] -= R::from_f64(s.mass_rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::PermeabilityField;
    use crate::mesh::{Extents, Spacing};
    use crate::state::FlowState;
    use crate::trans::StencilKind;

    fn setup() -> (CartesianMesh3, Fluid, Transmissibilities) {
        let mesh = CartesianMesh3::new(Extents::new(5, 4, 3), Spacing::new(2.0, 3.0, 1.5));
        let fluid = Fluid::water_like();
        let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.3, 5);
        let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
        (mesh, fluid, trans)
    }

    #[test]
    fn uniform_pressure_without_gravity_is_equilibrium() {
        let (mesh, fluid, trans) = setup();
        let fluid = fluid.without_gravity();
        let state = FlowState::<f64>::uniform(&mesh, 20.0e6);
        let mut r = vec![0.0; mesh.num_cells()];
        assemble_flux_residual(&mesh, &fluid, &trans, state.pressure(), &mut r);
        assert!(
            r.iter().all(|&v| v == 0.0),
            "uniform field must be stationary"
        );
    }

    #[test]
    fn global_conservation_interior_fluxes_cancel() {
        let (mesh, fluid, trans) = setup();
        let state = FlowState::<f64>::varied(&mesh, 10.0e6, 12.0e6, 3);
        let mut r = vec![0.0; mesh.num_cells()];
        assemble_flux_residual(&mesh, &fluid, &trans, state.pressure(), &mut r);
        let total: f64 = r.iter().sum();
        let scale: f64 = r.iter().map(|v| v.abs()).sum::<f64>().max(1e-30);
        assert!(
            total.abs() / scale < 1e-12,
            "interior fluxes must cancel: total={total}, scale={scale}"
        );
    }

    #[test]
    fn cellwise_and_facewise_agree() {
        let (mesh, fluid, trans) = setup();
        let state = FlowState::<f64>::varied(&mesh, 10.0e6, 12.0e6, 9);
        let mut a = vec![0.0; mesh.num_cells()];
        let mut b = vec![0.0; mesh.num_cells()];
        assemble_flux_residual(&mesh, &fluid, &trans, state.pressure(), &mut a);
        assemble_flux_residual_facewise(&mesh, &fluid, &trans, state.pressure(), &mut b);
        for i in 0..a.len() {
            let tol = 1e-10 * a[i].abs().max(1e-20);
            assert!((a[i] - b[i]).abs() <= tol, "cell {i}: {} vs {}", a[i], b[i]);
        }
    }

    #[test]
    fn pressure_gradient_drives_flow_downhill() {
        // p increases with x; the low-pressure cell receives inflow, which
        // with the outflow-positive convention is a *negative* residual.
        let mesh = CartesianMesh3::new(Extents::new(2, 1, 1), Spacing::uniform(1.0));
        let fluid = Fluid::water_like().without_gravity();
        let perm = PermeabilityField::uniform(&mesh, 1e-12);
        let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
        let p = vec![1.0e6_f64, 2.0e6];
        let mut r = vec![0.0; 2];
        assemble_flux_residual(&mesh, &fluid, &trans, &p, &mut r);
        // For cell 0: ΔΦ = p0 − p1 < 0 → inflow → negative residual.
        assert!(r[0] < 0.0);
        // The high-pressure cell loses mass: positive residual.
        assert!(r[1] > 0.0);
        assert!((r[0] + r[1]).abs() < 1e-12 * r[1].abs());
    }

    #[test]
    fn hydrostatic_state_is_near_equilibrium() {
        let (mesh, fluid, trans) = setup();
        let state = FlowState::<f64>::hydrostatic(&mesh, &fluid, 10.0e6);
        let mut r = vec![0.0; mesh.num_cells()];
        assemble_flux_residual(&mesh, &fluid, &trans, state.pressure(), &mut r);
        // compare to a strongly out-of-equilibrium field
        let pulse = FlowState::<f64>::gaussian_pulse(&mesh, 10.0e6, 1.0e6, 1.5);
        let mut rp = vec![0.0; mesh.num_cells()];
        assemble_flux_residual(&mesh, &fluid, &trans, pulse.pressure(), &mut rp);
        let n = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(
            n(&r) < 1e-3 * n(&rp),
            "hydrostatic residual {} should be tiny vs pulse residual {}",
            n(&r),
            n(&rp)
        );
    }

    #[test]
    fn cardinal_stencil_ignores_diagonal_pressure() {
        // With a Cardinal stencil, changing a diagonal neighbor's pressure
        // must not change a cell's residual.
        let mesh = CartesianMesh3::new(Extents::new(3, 3, 1), Spacing::uniform(1.0));
        let fluid = Fluid::water_like().without_gravity();
        let perm = PermeabilityField::uniform(&mesh, 1e-12);
        let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::Cardinal);
        let center = mesh.linear(1, 1, 0);
        let diag = mesh.linear(0, 0, 0);
        let mut p = vec![1.0e6_f64; mesh.num_cells()];
        let mut r1 = vec![0.0; mesh.num_cells()];
        assemble_flux_residual(&mesh, &fluid, &trans, &p, &mut r1);
        p[diag] = 5.0e6;
        let mut r2 = vec![0.0; mesh.num_cells()];
        assemble_flux_residual(&mesh, &fluid, &trans, &p, &mut r2);
        assert_eq!(r1[center], r2[center]);
    }

    #[test]
    fn ten_point_stencil_sees_diagonal_pressure() {
        let mesh = CartesianMesh3::new(Extents::new(3, 3, 1), Spacing::uniform(1.0));
        let fluid = Fluid::water_like().without_gravity();
        let perm = PermeabilityField::uniform(&mesh, 1e-12);
        let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
        let center = mesh.linear(1, 1, 0);
        let diag = mesh.linear(0, 0, 0);
        let mut p = vec![1.0e6_f64; mesh.num_cells()];
        let mut r1 = vec![0.0; mesh.num_cells()];
        assemble_flux_residual(&mesh, &fluid, &trans, &p, &mut r1);
        p[diag] = 5.0e6;
        let mut r2 = vec![0.0; mesh.num_cells()];
        assemble_flux_residual(&mesh, &fluid, &trans, &p, &mut r2);
        assert_ne!(r1[center], r2[center]);
    }

    #[test]
    fn implicit_residual_reduces_to_flux_when_steady() {
        let (mesh, fluid, trans) = setup();
        let p = FlowState::<f64>::varied(&mesh, 10.0e6, 11.0e6, 1);
        let acc = AccumulationParams {
            phi_ref: 0.2,
            rock_compressibility: 1e-9,
            dt: 86400.0,
        };
        let mut r_imp = vec![0.0; mesh.num_cells()];
        // p_new == p_old → accumulation vanishes
        assemble_implicit_residual(
            &mesh,
            &fluid,
            &trans,
            acc,
            p.pressure(),
            p.pressure(),
            &[],
            &mut r_imp,
        );
        let mut r_flux = vec![0.0; mesh.num_cells()];
        assemble_flux_residual(&mesh, &fluid, &trans, p.pressure(), &mut r_flux);
        for i in 0..r_imp.len() {
            assert_eq!(r_imp[i], r_flux[i]);
        }
    }

    #[test]
    fn accumulation_term_signs() {
        // Pressure rise over the step stores mass: positive accumulation.
        let (mesh, fluid, trans) = setup();
        let fluid = fluid.without_gravity();
        let p_old = FlowState::<f64>::uniform(&mesh, 10.0e6);
        let p_new = FlowState::<f64>::uniform(&mesh, 10.1e6);
        let acc = AccumulationParams {
            phi_ref: 0.2,
            rock_compressibility: 1e-9,
            dt: 3600.0,
        };
        let mut r = vec![0.0; mesh.num_cells()];
        assemble_implicit_residual(
            &mesh,
            &fluid,
            &trans,
            acc,
            p_new.pressure(),
            p_old.pressure(),
            &[],
            &mut r,
        );
        assert!(r.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn sources_subtract_mass_rate() {
        let (mesh, fluid, trans) = setup();
        let fluid = fluid.without_gravity();
        let p = FlowState::<f64>::uniform(&mesh, 10.0e6);
        let acc = AccumulationParams {
            phi_ref: 0.2,
            rock_compressibility: 1e-9,
            dt: 3600.0,
        };
        let src = [SourceTerm {
            cell: 7,
            mass_rate: 2.5,
        }];
        let mut r = vec![0.0; mesh.num_cells()];
        assemble_implicit_residual(
            &mesh,
            &fluid,
            &trans,
            acc,
            p.pressure(),
            p.pressure(),
            &src,
            &mut r,
        );
        assert_eq!(r[7], -2.5);
        assert!(r.iter().enumerate().all(|(i, &v)| i == 7 || v == 0.0));
    }

    #[test]
    fn f32_assembly_tracks_f64_reference() {
        let (mesh, fluid, trans) = setup();
        let s64 = FlowState::<f64>::gaussian_pulse(&mesh, 10.0e6, 1.0e6, 2.0);
        let s32 = FlowState::<f32>::from_pressure(s64.pressure_field().cast());
        let mut r64 = vec![0.0_f64; mesh.num_cells()];
        let mut r32 = vec![0.0_f32; mesh.num_cells()];
        assemble_flux_residual(&mesh, &fluid, &trans, s64.pressure(), &mut r64);
        assemble_flux_residual(&mesh, &fluid, &trans, s32.pressure(), &mut r32);
        let scale = r64.iter().map(|v| v.abs()).fold(0.0_f64, f64::max);
        for i in 0..r64.len() {
            assert!(
                (r64[i] - r32[i] as f64).abs() < 2e-3 * scale,
                "cell {i}: f64={} f32={}",
                r64[i],
                r32[i]
            );
        }
    }
}
