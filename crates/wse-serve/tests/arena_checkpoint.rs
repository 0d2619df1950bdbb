//! The checkpoint codec against the SPMD arena representation: a wire
//! checkpoint must be a function of the *problem state*, never of the
//! engine or in-memory layout that produced it. Struct-of-array scalar
//! arenas, per-class shared route tables, and PE memories laid out in one
//! slab all canonicalize to one byte stream — so checkpoints interchange freely
//! across engines, and only a deliberate payload change moves the schema.

use fv_core::eos::Fluid;
use fv_core::fields::PermeabilityField;
use fv_core::mesh::{CartesianMesh3, Extents, Spacing};
use fv_core::state::FlowState;
use fv_core::trans::{StencilKind, Transmissibilities};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_serve::{Checkpoint, SCHEMA_VERSION};
use wse_sim::fabric::Execution;

const NX: usize = 10;
const NY: usize = 9;
const NZ: usize = 3;

struct Problem {
    mesh: CartesianMesh3,
    fluid: Fluid,
    trans: Transmissibilities,
    pressure: Vec<f32>,
}

fn problem() -> Problem {
    let mesh = CartesianMesh3::new(Extents::new(NX, NY, NZ), Spacing::new(10.0, 10.0, 4.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 23);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    let pressure = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, 2)
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

#[test]
fn encoded_bytes_are_independent_of_the_engine() {
    let p = problem();
    let mut seq = build(&p, Execution::Sequential);
    let mut sharded = build(
        &p,
        Execution::Sharded {
            shards: 4,
            threads: 2,
        },
    );
    for _ in 0..2 {
        seq.apply(&p.pressure).expect("sequential run failed");
        sharded.apply(&p.pressure).expect("sharded run failed");
    }
    assert_eq!(
        Checkpoint::capture(&seq).encode(),
        Checkpoint::capture(&sharded).encode(),
        "engine leaked into the wire format"
    );
    // Version 2 (from 1) dropped the router version and narrowed event
    // PE ids to `u32`; version 3 dropped the per-PE program state record,
    // whose words now travel in the arena; version 4 changed the header's
    // checksum and spec hash, version 5 the spec hash's fault-plan
    // encoding, and version 6 the order of the pending events. The arena
    // layout itself never forced a bump.
    assert_eq!(
        SCHEMA_VERSION, 6,
        "only a payload or header change moves the schema"
    );
}

#[test]
fn wire_roundtrip_crosses_representations_and_engines() {
    // Capture from a sharded simulator, push the bytes through
    // encode/decode, restore into a sequential one, and demand the
    // continuation is bit-identical to never stopping.
    let p = problem();
    let mut origin = build(
        &p,
        Execution::Sharded {
            shards: 4,
            threads: 2,
        },
    );
    for _ in 0..2 {
        origin.apply(&p.pressure).expect("origin run failed");
    }
    let bytes = Checkpoint::capture(&origin).encode();
    let decoded = Checkpoint::decode(&bytes).expect("decode failed");

    let mut resumed = build(&p, Execution::Sequential);
    decoded
        .restore_into(&mut resumed)
        .expect("cross-engine restore failed");
    assert_eq!(resumed.applications(), 2);

    let r_origin = origin.apply(&p.pressure).expect("origin run failed");
    let r_resumed = resumed.apply(&p.pressure).expect("resumed run failed");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&r_origin),
        bits(&r_resumed),
        "resumed continuation diverged from the uninterrupted run"
    );
}
