//! Differential determinism at the *profiler* level: because the critical
//! path and the cycle attribution are pure functions of the per-PE trace
//! streams — which are bit-identical between the sequential and the sharded
//! engines — the profiler's entire output must be too. This pins the
//! property end-to-end on a full 16×16×6 TPFA run at 1, 4 and 9 shards.

use fv_core::eos::Fluid;
use fv_core::fields::PermeabilityField;
use fv_core::mesh::{CartesianMesh3, Extents, Spacing};
use fv_core::state::FlowState;
use fv_core::trans::{StencilKind, Transmissibilities};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_prof::{critical_path, Profile};
use wse_sim::fabric::Execution;
use wse_trace::{TraceRegion, TraceSpec};

const NX: usize = 16;
const NY: usize = 16;
const NZ: usize = 6;
const CAP: usize = 8192;

struct Run {
    profile: Profile,
    path: wse_prof::CriticalPath,
    queue_wait: u64,
    queue_wait_by_pe: Vec<u64>,
}

/// One traced application of Algorithm 1 on the 16×16×6 ten-point problem,
/// profiled.
fn profiled_run(execution: Execution) -> Run {
    let mesh = CartesianMesh3::new(Extents::new(NX, NY, NZ), Spacing::new(10.0, 10.0, 4.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 7);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    let pressure = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, 3)
        .pressure()
        .to_vec();
    let mut sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .execution(execution)
        .trace(TraceSpec::ring(CAP))
        .build()
        .unwrap();
    sim.apply(&pressure).expect("traced run failed");
    let trace = sim.trace().expect("tracing was enabled");
    assert_eq!(trace.dropped, 0, "capacity must hold the full run");
    let profile = Profile::from_trace(&trace);
    let path = critical_path(&trace, 1).expect("run has tasks");
    Run {
        profile,
        path,
        queue_wait: sim.queue_wait_cycles(),
        queue_wait_by_pe: sim.queue_wait_by_pe(),
    }
}

#[test]
fn profiler_output_is_bit_identical_across_engines() {
    let seq = profiled_run(Execution::Sequential);

    // Sanity on the sequential profile before comparing: the run must
    // actually exercise the instrumented regions.
    let halo = TraceRegion::HaloExchange.code() as usize;
    let flux = TraceRegion::FluxCompute.code() as usize;
    let resid = TraceRegion::ResidualAccumulate.code() as usize;
    assert_eq!(seq.profile.unpaired_markers(), 0);
    assert!(seq.profile.regions[halo].cycles() > 0, "halo region empty");
    assert!(seq.profile.regions[flux].cycles() > 0, "flux region empty");
    assert!(
        seq.profile.regions[resid].cycles() > 0,
        "residual region empty"
    );
    assert!(seq.path.makespan > 0);
    assert!(seq.path.on_path_tasks > 1, "path should chain tasks");
    assert!(seq.path.hops() > 0, "path should cross the fabric");

    for shards in [1usize, 4, 9] {
        let sh = profiled_run(Execution::Sharded { shards, threads: 2 });
        assert_eq!(
            seq.profile, sh.profile,
            "{shards}-shard attribution diverged from sequential"
        );
        assert_eq!(
            seq.path, sh.path,
            "{shards}-shard critical path diverged from sequential"
        );
        assert_eq!(
            seq.queue_wait, sh.queue_wait,
            "{shards}-shard queue-wait total diverged"
        );
        assert_eq!(
            seq.queue_wait_by_pe, sh.queue_wait_by_pe,
            "{shards}-shard per-PE queue-wait diverged"
        );
    }
}

#[test]
fn attribution_totals_match_fabric_counters() {
    // The sum over region buckets must equal the fabric-wide cycle total —
    // attribution re-buckets cycles, it must not invent or lose any.
    let mesh = CartesianMesh3::new(Extents::new(NX, NY, NZ), Spacing::new(10.0, 10.0, 4.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 7);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    let pressure = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, 3)
        .pressure()
        .to_vec();
    let mut sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .execution(Execution::Sequential)
        .trace(TraceSpec::ring(CAP))
        .build()
        .unwrap();
    sim.apply(&pressure).expect("run failed");
    let trace = sim.trace().unwrap();
    let profile = Profile::from_trace(&trace);
    let stats = sim.stats();
    assert_eq!(profile.attributed_cycles(), stats.total.cycles());
    assert_eq!(profile.max_pe_counters().cycles(), stats.max_pe_cycles);
    // The critical path ends at the last task. The last TaskEnd timestamp
    // may exceed the last *processed event* time (a task's end is recorded
    // at busy_until without being an event itself), and trailing wavelets
    // (edge-dropped sends) may extend the horizon slightly past it — so
    // makespan brackets between final_time's neighborhood and the horizon.
    let path = critical_path(&trace, 1).unwrap();
    assert!(path.makespan > 0 && path.makespan <= profile.horizon);
    assert!(
        profile.horizon - path.makespan <= 64,
        "path ends far before the trace horizon"
    );
    // Path accounting decomposes the span exactly.
    assert_eq!(
        path.makespan - path.origin_time,
        path.task_cycles + path.hop_cycles + path.wait_cycles
    );
}
