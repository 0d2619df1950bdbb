//! Deep-column pin: an 8×8×64 TPFA apply schedules almost every ramp
//! event thousands of cycles ahead (a column's launch task costs ≈ 30·nz
//! cycles before its outbox flushes ≈ 16·nz one-cycle-apart slots), which
//! is the far-horizon regime of the event queue. The event count, final
//! time and residual digest were recorded at the commit *before* the queue
//! became a two-level timing wheel; a queue or schedule change that alters
//! what a PE observes shows up here.
//!
//! The run is chunked with `step_events` on both engines, and at every
//! pause the host queue must hold nothing in its comparison heap: every
//! pending event of a deep column is inside the wheel's horizon.

use fv_core::eos::Fluid;
use fv_core::fields::PermeabilityField;
use fv_core::mesh::{CartesianMesh3, Extents, Spacing};
use fv_core::state::FlowState;
use fv_core::trans::{StencilKind, Transmissibilities};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_serve::Checkpoint;
use wse_sim::fabric::{Execution, RunReport};

const PINNED_EVENTS: u64 = 202_496;
const PINNED_FINAL_TIME: u64 = 8_843;
const PINNED_RESIDUAL_FNV: u64 = 0xac81_68ae_2d33_298d;
// Re-pinned when the engines went PE-major: the first N events of the
// `(time, pe, seq, src)` schedule are a different — equally valid — set than
// the first N of `(time, seq, src)`, so the paused state differs. The three
// pins above did not move, and finishing from this checkpoint still has to
// reproduce them.
//
// Re-pinned again for checkpoint schema 2, with the paused state unchanged:
// was 1,399,721 bytes / 0x2616_7882_2b0c_43d2. TPFA moving onto the generic
// stencil program's state format added 17 bytes per PE (+1,088); dropping
// the router version took 4 per PE (−256) and `u32` event PE ids 8 per
// pending event (−156,912).
//
// Re-pinned once more when every pause came to end a simulated cycle (the
// one-strip run of the strip engine replaced the sequential loop, which
// paused exactly at the limit, mid-cycle): was 1,243,641 bytes /
// 0x3a38_35b2_f3c2_eaf7. The limit is the same; the pause now runs the
// cycle it trips in to its end, on both engines alike.
//
// Re-pinned for checkpoint schema 3, with the paused state unchanged: was
// 1,241,786 bytes / 0xe1f9_6b3e_cc37_6c79. The program state moved from a
// per-PE record (8-byte length + 159 bytes, −167 per PE, −10,688) into 11
// state words at the end of each PE's arena (+2,720: 680 words, as trailing
// zero words are trimmed).
//
// Re-pinned for checkpoint schema 4, with the paused state and the length
// unchanged: was 0xf3ad_4481_1797_fe34. Only the header moved — its version
// field, and the spec hash and payload checksum, which became the content
// hash (`wse_sim::hash`) in place of FNV-1a and murmur3.
//
// Re-pinned for checkpoint schema 5, with the paused state, the length and
// the payload unchanged: was 0xefaa_4ede_4f0b_eb3e. Only the header's
// version and spec hash moved, as the spec hash now encodes the fault plan
// field by field; the payload (bytes 32..) is pinned on its own.
//
// Re-pinned for checkpoint schema 6, with the paused state and the length
// unchanged: was 0x5d2d_aaed_592f_8854 / payload 0x1d2e_3267_7357_7f20.
// Only the event order moved: pending events are listed in the engine's
// pop order `(time, pe, seq, src)` instead of `(time, seq, src)`, each
// record byte-for-byte as before, and the header's version field with it.
const PINNED_HALF_CHECKPOINT_LEN: usize = 1_233_818;
const PINNED_HALF_CHECKPOINT_FNV: u64 = 0x6c4a_a5af_00dd_3857;
const PINNED_HALF_CHECKPOINT_PAYLOAD_FNV: u64 = 0x0b8c_cfb0_f400_71fa;

/// Events per `step_events` call; prime, so the limit trips mid-cycle and
/// the pause runs that cycle out.
const CHUNK: u64 = 7_919;

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
    let mesh = CartesianMesh3::new(Extents::new(8, 8, 64), Spacing::new(10.0, 10.0, 4.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 15);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    let pressure = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, 3)
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

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn residual_fnv(residual: &[f32]) -> u64 {
    fnv1a(residual.iter().flat_map(|r| r.to_bits().to_le_bytes()))
}

fn assert_no_overflow(sim: &DataflowFluxSimulator) {
    let (wheel, overflow) = sim.queue_occupancy();
    assert_eq!(
        overflow, 0,
        "{overflow} events in the comparison heap at a pause ({wheel} in the wheel)"
    );
}

/// Steps the in-flight application to completion in `CHUNK`-event slices,
/// checking the queue at every pause, and returns the residual and report.
fn finish_chunked(sim: &mut DataflowFluxSimulator) -> (Vec<f32>, RunReport) {
    loop {
        let step = sim.step_events(CHUNK).expect("step failed");
        assert_no_overflow(sim);
        if step.complete {
            break;
        }
    }
    let residual = sim.finish_apply().expect("finish failed");
    (residual, sim.last_run().expect("a run was made"))
}

fn assert_pinned(residual: &[f32], report: RunReport) {
    assert_eq!(report.events, PINNED_EVENTS, "event count moved");
    assert_eq!(report.final_time, PINNED_FINAL_TIME, "final time moved");
    assert_eq!(
        residual_fnv(residual),
        PINNED_RESIDUAL_FNV,
        "residual bits moved"
    );
}

#[test]
fn chunked_apply_matches_the_pins_on_both_engines() {
    let p = problem();
    for execution in [Execution::Sequential, SHARDED] {
        let mut sim = build(&p, execution);
        sim.begin_apply(&p.pressure);
        assert_no_overflow(&sim);
        let (residual, report) = finish_chunked(&mut sim);
        assert_pinned(&residual, report);
    }
}

#[test]
fn half_apply_checkpoint_is_pinned_and_resumes_on_the_other_engine() {
    let p = problem();
    // A pause ends the cycle in which the limit was reached, so the state
    // half way through the apply is a fixed point of the schedule. (Of the
    // one-strip schedule: strips cut fast-forward chains into segments,
    // which both bill their events at other cycles and leave differently
    // cut chains in flight, so a 4-strip pause is a different valid state.)
    let mut seq = build(&p, Execution::Sequential);
    seq.begin_apply(&p.pressure);
    let step = seq.step_events(PINNED_EVENTS / 2).expect("step failed");
    assert!(!step.complete);
    assert_no_overflow(&seq);
    let bytes = Checkpoint::capture(&seq).encode();
    assert_eq!(bytes.len(), PINNED_HALF_CHECKPOINT_LEN, "checkpoint size");
    assert_eq!(
        fnv1a(bytes.iter().copied()),
        PINNED_HALF_CHECKPOINT_FNV,
        "half-apply checkpoint bytes moved"
    );
    assert_eq!(
        fnv1a(bytes[32..].iter().copied()),
        PINNED_HALF_CHECKPOINT_PAYLOAD_FNV,
        "half-apply checkpoint payload moved"
    );

    let mut sharded = build(&p, SHARDED);
    Checkpoint::decode(&bytes)
        .expect("decode failed")
        .restore_into(&mut sharded)
        .expect("restore failed");
    // The step counters travel in PE memory.
    assert_eq!(sharded.progress_by_pe(), seq.progress_by_pe());
    assert_no_overflow(&sharded);
    let (residual, report) = finish_chunked(&mut sharded);
    assert_pinned(&residual, report);
}
