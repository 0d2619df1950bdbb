//! A checkpoint's pending-event records may come in any order: the codec
//! accepts them so, and its checksum does not authenticate the file.
//! Restore anchors each strip's wheel at its earliest record before filing
//! the rest (so an unsorted list costs no rebases), and the result must
//! finish exactly as the file-order restore does, on either engine.

use fv_core::eos::Fluid;
use fv_core::fields::PermeabilityField;
use fv_core::mesh::{CartesianMesh3, Extents, Spacing};
use fv_core::state::FlowState;
use fv_core::trans::{StencilKind, Transmissibilities};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_serve::Checkpoint;
use wse_sim::fabric::{Execution, RunReport};

const SHARDED: Execution = Execution::Sharded {
    shards: 4,
    threads: 2,
};

struct Problem {
    mesh: CartesianMesh3,
    fluid: Fluid,
    trans: Transmissibilities,
    pressure: Vec<f32>,
}

/// A deep-ish column, so a mid-apply pause holds events spread over
/// thousands of cycles.
fn problem() -> Problem {
    let mesh = CartesianMesh3::new(Extents::new(8, 8, 24), Spacing::new(10.0, 10.0, 4.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 21);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    let pressure = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, 5)
        .pressure()
        .to_vec();
    Problem {
        mesh,
        fluid,
        trans,
        pressure,
    }
}

fn build(p: &Problem, execution: Execution) -> DataflowFluxSimulator {
    DataflowFluxSimulator::builder(&p.mesh)
        .fluid(&p.fluid)
        .transmissibilities(&p.trans)
        .execution(execution)
        .build()
        .expect("build failed")
}

/// Restores `ckpt` (through the binary codec) into a fresh simulator and
/// finishes its in-flight apply: the residual's bits and the run report.
fn finish_from(p: &Problem, ckpt: &Checkpoint, execution: Execution) -> (Vec<u32>, RunReport) {
    let mut sim = build(p, execution);
    Checkpoint::decode(&ckpt.encode())
        .expect("decode failed")
        .restore_into(&mut sim)
        .expect("restore failed");
    while !sim.step_events(u64::MAX).expect("step failed").complete {}
    let residual = sim.finish_apply().expect("finish failed");
    let bits = residual.iter().map(|r| r.to_bits()).collect();
    (bits, sim.last_run().expect("a run was made"))
}

#[test]
fn reversed_event_records_restore_in_one_pass_and_finish_bit_identically() {
    let p = problem();
    let mut sim = build(&p, Execution::Sequential);
    sim.begin_apply(&p.pressure);
    let step = sim.step_events(20_000).expect("step failed");
    assert!(!step.complete, "the pause must land mid-apply");
    let in_order = Checkpoint::capture(&sim);
    let events = &in_order.driver.fabric.events;
    assert!(
        events.first().map(|e| e.time) < events.last().map(|e| e.time),
        "the pause must hold events of more than one cycle"
    );
    let mut reversed = in_order.clone();
    reversed.driver.fabric.events.reverse();

    // Restored in any order, the pending set is the same: a fresh snapshot
    // lists it in canonical order again.
    let mut restored = build(&p, SHARDED);
    reversed
        .restore_into(&mut restored)
        .expect("restore failed");
    assert_eq!(&restored.snapshot().fabric.events, events);

    let expected = finish_from(&p, &in_order, Execution::Sequential);
    for execution in [Execution::Sequential, SHARDED] {
        assert_eq!(
            finish_from(&p, &reversed, execution),
            expected,
            "{execution:?}"
        );
    }
}
