//! Integration tests of the §8 acoustic-wave extension through the public
//! `mdfv` API: the wave on the fabric against its serial reference, and the
//! wave and TPFA programs sharing one exchange infrastructure.

use mdfv::dataflow::wave::{serial_wave_step, WaveParams, WaveSimulator};
use mdfv::fv::prelude::*;

#[test]
fn wave_on_fabric_agrees_with_serial_through_public_api() {
    let (nx, ny, nz) = (6, 6, 4);
    let params = WaveParams::new(5.0, 5.0, 5.0, 1000.0, 1.5e-3, 0.25);
    assert!(params.cfl() < 1.0);
    let mut u0 = vec![0.0_f32; nx * ny * nz];
    u0[(ny + 3) * nx + 3] = 1.0;
    let mut sim = WaveSimulator::new(nx, ny, nz, params);
    sim.set_initial(&u0, &u0);
    let mut u = u0.clone();
    let mut up = u0;
    for _ in 0..8 {
        sim.step().unwrap();
        let next = serial_wave_step(nx, ny, nz, &params, &u, &up);
        up = std::mem::replace(&mut u, next);
    }
    let fab = sim.read_field();
    let scale = u.iter().map(|v| v.abs()).fold(1e-12_f32, f32::max);
    for i in 0..u.len() {
        assert!((fab[i] - u[i]).abs() <= 3e-5 * scale, "cell {i}");
    }
}

#[test]
fn wave_energy_radiates_but_stays_bounded_without_diagonals() {
    // β = 0 disables the diagonal weights (but the exchange still runs) —
    // a pure 7-point wave stencil, also stable
    let params = WaveParams::new(5.0, 5.0, 5.0, 1000.0, 1.5e-3, 0.0);
    let mut sim = WaveSimulator::new(8, 8, 2, params);
    let mut u0 = vec![0.0_f32; 128];
    u0[4 * 8 + 4] = 1.0;
    sim.set_initial(&u0, &u0);
    sim.step_n(30).unwrap();
    let u = sim.read_field();
    let max = u.iter().map(|v| v.abs()).fold(0.0_f32, f32::max);
    assert!(max.is_finite() && max < 2.0);
}

#[test]
fn wave_and_tpfa_share_the_exchange_infrastructure() {
    // both programs run on identically-configured fabrics: a smoke test
    // that the factored exchange engine serves two different applications
    use mdfv::dataflow::DataflowFluxSimulator;
    let mesh = CartesianMesh3::new(Extents::new(5, 5, 3), Spacing::uniform(5.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::uniform(&mesh, 1e-13);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    let mut tpfa = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .build()
        .unwrap();
    let p = FlowState::<f32>::varied(&mesh, 1.0e7, 1.1e7, 0);
    tpfa.apply(p.pressure()).unwrap();

    let params = WaveParams::new(5.0, 5.0, 5.0, 1000.0, 1.0e-3, 0.5);
    let mut wave = WaveSimulator::new(5, 5, 3, params);
    wave.set_initial(&vec![0.1_f32; 75], &vec![0.1_f32; 75]);
    wave.step_n(3).unwrap();

    // identical in-plane traffic per interior PE and iteration count ratio
    // of 2 (TPFA ships two quantities, the wave one)
    let t = tpfa.pe_counters(2, 2).fabric_loads;
    let w = wave.stats().total; // aggregate; compare shape only
    assert_eq!(t, 16 * 3);
    assert!(w.fabric_loads > 0);
}
