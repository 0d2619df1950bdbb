//! Checkpoints of a fault-laden TPFA run: the snapshot's fault records,
//! router positions, parked wavelets and pop-ordered event list must
//! survive capture → encode → decode → restore → capture byte for byte, on
//! one strip and on four, with link-down, slow, corrupt, flip and halt
//! faults installed and their logs non-empty.

use fv_core::eos::Fluid;
use fv_core::fields::PermeabilityField;
use fv_core::mesh::{CartesianMesh3, Extents, Spacing};
use fv_core::state::FlowState;
use fv_core::trans::{StencilKind, Transmissibilities};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_serve::Checkpoint;
use wse_sim::fabric::Execution;
use wse_sim::fault::{Fault, FaultKind, FaultPlan};
use wse_sim::geometry::{Direction, PeCoord};
use wse_sim::snapshot::FabricSnapshot;
use wse_sim::wavelet::Color;

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

fn problem() -> Problem {
    let mesh = CartesianMesh3::new(Extents::new(9, 7, 3), Spacing::new(10.0, 10.0, 4.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 29);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    let pressure = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, 11)
        .pressure()
        .to_vec();
    Problem {
        mesh,
        fluid,
        trans,
        pressure,
    }
}

/// One fault of every kind, at different PEs and times inside the first
/// apply.
fn plan() -> FaultPlan {
    let fault = |col, row, at, kind| Fault {
        pe: PeCoord::new(col, row),
        at,
        kind,
        persistent: true,
    };
    FaultPlan::new()
        .with(fault(
            2,
            3,
            10,
            FaultKind::LinkDown {
                dir: Direction::North,
                until: 400,
            },
        ))
        .with(fault(
            5,
            2,
            0,
            FaultKind::PeSlow {
                factor: 3,
                until: 5_000,
            },
        ))
        .with(fault(4, 4, 40, FaultKind::CorruptPayload { xor: 0x10 }))
        .with(fault(
            6,
            5,
            20,
            FaultKind::RouterFlip {
                color: Color::new(0),
            },
        ))
        .with(fault(
            1,
            1,
            30,
            FaultKind::RouterFlip {
                color: Color::new(1),
            },
        ))
        .with(fault(7, 1, 300, FaultKind::PeHalt))
}

/// PEs whose fault log is not empty.
fn logged(snap: &FabricSnapshot) -> usize {
    snap.pes.iter().filter(|p| !p.faults.log.is_empty()).count()
}

fn build(p: &Problem, execution: Execution) -> DataflowFluxSimulator {
    DataflowFluxSimulator::builder(&p.mesh)
        .fluid(&p.fluid)
        .transmissibilities(&p.trans)
        .execution(execution)
        .fault_plan(plan())
        .build()
        .expect("build failed")
}

/// Capture → encode → decode → restore into a fresh simulator → capture
/// again gives the same checkpoint and the same bytes; returns the bytes.
fn assert_round_trip(p: &Problem, sim: &DataflowFluxSimulator, execution: Execution) -> Vec<u8> {
    let captured = Checkpoint::capture(sim);
    let bytes = captured.encode();
    let decoded = Checkpoint::decode(&bytes).expect("decode failed");
    assert!(decoded == captured, "{execution:?}: the codec lost state");
    let mut fresh = build(p, execution);
    decoded.restore_into(&mut fresh).expect("restore failed");
    let again = Checkpoint::capture(&fresh);
    assert!(again == captured, "{execution:?}: restore lost state");
    assert!(
        again.encode() == bytes,
        "{execution:?}: the restored fabric captures other bytes"
    );
    bytes
}

#[test]
fn fault_laden_checkpoints_round_trip_byte_for_byte() {
    let p = problem();
    for execution in [Execution::Sequential, SHARDED] {
        let mut sim = build(&p, execution);
        sim.begin_apply(&p.pressure);
        // Step until the pause holds parked wavelets and fault logs. A
        // detected fault fails the step, but the fabric is still paused at
        // a cycle end with its events pending, which is what is captured.
        let mut paused = false;
        for _ in 0..200 {
            let step = sim.step_events(97);
            if step.as_ref().is_ok_and(|s| s.complete) {
                break;
            }
            let snap = sim.snapshot().fabric;
            let parked = snap.pes.iter().any(|p| !p.parked.is_empty());
            if parked && !snap.events.is_empty() && logged(&snap) >= 2 {
                paused = true;
                break;
            }
        }
        assert!(
            paused,
            "{execution:?}: no pause with parked wavelets and fault logs"
        );
        let snap = sim.snapshot().fabric;
        assert!(snap.pes.iter().any(|p| p.faults.active), "scheduled faults");
        let key = |e: &wse_sim::snapshot::EventRecord| (e.time, e.pe, e.seq, e.src);
        assert!(
            snap.events.windows(2).all(|w| key(&w[0]) < key(&w[1])),
            "{execution:?}: events not strictly in pop order"
        );
        assert_round_trip(&p, &sim, execution);
    }
}

#[test]
fn between_applies_one_strip_and_four_capture_the_same_bytes() {
    let p = problem();
    let mut seq = build(&p, Execution::Sequential);
    let mut sharded = build(&p, SHARDED);
    let outcome = seq.apply(&p.pressure);
    assert_eq!(sharded.apply(&p.pressure), outcome);
    assert!(logged(&seq.snapshot().fabric) >= 2, "fault logs");
    assert_eq!(
        assert_round_trip(&p, &seq, Execution::Sequential),
        assert_round_trip(&p, &sharded, SHARDED),
        "1 strip and 4 strips captured different bytes"
    );
}
