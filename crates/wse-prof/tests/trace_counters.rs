//! Cross-check: a complete trace is a lossless account of the simulator's
//! work. Replaying every traced DSD op and wavelet event through
//! [`Profile::from_trace`] must reconstruct the aggregate
//! [`wse_sim::stats::FabricStats`] *exactly* ([`Profile::stats`]) —
//! instruction counters, cycle maxima, and fabric traffic alike — on the
//! quickstart-sized TPFA program.

use fv_core::eos::Fluid;
use fv_core::fields::PermeabilityField;
use fv_core::mesh::{CartesianMesh3, Extents, Spacing};
use fv_core::state::FlowState;
use fv_core::trans::{StencilKind, Transmissibilities};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_prof::Profile;
use wse_sim::fabric::Execution;
use wse_sim::trace::TraceSpec;

fn cross_check(execution: Execution) {
    let mesh = CartesianMesh3::new(Extents::new(16, 12, 8), Spacing::new(10.0, 10.0, 4.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 2024);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    let mut sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .execution(execution)
        .trace(TraceSpec::ring(8192))
        .build()
        .unwrap();
    let pressure = FlowState::<f32>::gaussian_pulse(&mesh, 20.0e6, 2.0e6, 3.0);
    sim.apply(pressure.pressure()).expect("fabric run failed");

    let trace = sim.trace().expect("tracing was enabled");
    assert_eq!(
        trace.dropped, 0,
        "cross-check requires a complete (undropped) trace"
    );
    let from_trace = Profile::from_trace(&trace).stats();
    let direct = sim.stats();
    assert_eq!(
        from_trace, direct,
        "trace-derived statistics must equal the simulator's own counters"
    );
    assert!(direct.total.flops() > 0, "sanity: the run did real work");
    assert!(direct.fabric_hops > 0, "sanity: wavelets crossed links");
}

#[test]
fn trace_reconstructs_fabric_stats_exactly_sequential() {
    cross_check(Execution::Sequential);
}

#[test]
fn trace_reconstructs_fabric_stats_exactly_sharded() {
    cross_check(Execution::Sharded {
        shards: 4,
        threads: 2,
    });
}
