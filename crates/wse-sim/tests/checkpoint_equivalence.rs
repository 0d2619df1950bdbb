//! Checkpoint/restore differential harness: a run that is snapshotted at
//! event boundaries, serialized through the `wse-serve` binary format,
//! and restored into **freshly built** simulators must be bit-identical
//! to the uninterrupted run — same residual bits, same per-PE counters,
//! same accumulated [`RunReport`], same aggregate stats — across every
//! combination of engine (sequential, sharded at several shard counts)
//! and fast-forwarding, including checkpoints that hop between engines
//! mid-application.
//!
//! The workload is the repo's real TPFA flux program (`tpfa-dataflow`),
//! and every checkpoint makes the full journey: capture → encode →
//! decode → restore, so the binary codec itself is inside the
//! differential, not just the in-memory snapshot types.
//!
//! The integrity header gets its own adversarial section: truncation,
//! bit flips in the payload, a foreign schema version, a foreign problem
//! — each must be refused with the right typed error, never a panic. So
//! must a correctly sealed checkpoint whose program state words (kept in
//! PE memory) are out of range.

use fv_core::eos::Fluid;
use fv_core::fields::PermeabilityField;
use fv_core::mesh::{CartesianMesh3, Extents, Spacing};
use fv_core::state::FlowState;
use fv_core::trans::{StencilKind, Transmissibilities};
use tpfa_dataflow::{DataflowFluxSimulator, MemoryPlan};
use wse_serve::checkpoint::{Checkpoint, CheckpointError, HEADER_LEN};
use wse_sim::fabric::{Execution, RunReport};
use wse_sim::snapshot::RestoreError;
use wse_sim::stats::{FabricStats, OpCounters};

struct Problem {
    mesh: CartesianMesh3,
    fluid: Fluid,
    trans: Transmissibilities,
}

fn problem(nx: usize, ny: usize, nz: usize, seed: u64) -> Problem {
    let mesh = CartesianMesh3::new(Extents::new(nx, ny, nz), Spacing::new(10.0, 10.0, 4.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, seed);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    Problem { mesh, fluid, trans }
}

fn simulator(p: &Problem, execution: Execution, fast_forward: bool) -> DataflowFluxSimulator {
    DataflowFluxSimulator::builder(&p.mesh)
        .fluid(&p.fluid)
        .transmissibilities(&p.trans)
        .execution(execution)
        .fast_forward(fast_forward)
        .build()
        .unwrap()
}

fn pressure(p: &Problem, seed: u64) -> Vec<f32> {
    FlowState::<f32>::varied(&p.mesh, 1.0e7, 1.2e7, seed)
        .pressure()
        .to_vec()
}

/// Everything observable from a finished run; bit-exact comparison.
#[derive(Debug, PartialEq)]
struct Observation {
    residual_bits: Vec<u32>,
    per_pe_counters: Vec<OpCounters>,
    report: RunReport,
    stats: FabricStats,
    applications: usize,
}

fn observe(p: &Problem, sim: &DataflowFluxSimulator, residual: &[f32]) -> Observation {
    let (nx, ny) = (p.mesh.nx(), p.mesh.ny());
    Observation {
        residual_bits: residual.iter().map(|v| v.to_bits()).collect(),
        per_pe_counters: (0..ny)
            .flat_map(|y| (0..nx).map(move |x| (x, y)))
            .map(|(x, y)| *sim.pe_counters(x, y))
            .collect(),
        report: sim.last_run().unwrap(),
        stats: sim.stats(),
        applications: sim.applications(),
    }
}

/// The uninterrupted reference: plain `apply` calls on one simulator.
fn uninterrupted(
    p: &Problem,
    execution: Execution,
    fast_forward: bool,
    apps: usize,
) -> Observation {
    let mut sim = simulator(p, execution, fast_forward);
    let mut last = Vec::new();
    for i in 0..apps {
        last = sim.apply(&pressure(p, i as u64)).unwrap();
    }
    observe(p, &sim, &last)
}

/// Serializes through the binary format and restores into a fresh
/// simulator with the given engine — the full kill/restore journey.
fn roundtrip_into(
    p: &Problem,
    sim: &DataflowFluxSimulator,
    execution: Execution,
    fast_forward: bool,
) -> DataflowFluxSimulator {
    let bytes = Checkpoint::capture(sim).encode();
    let decoded = Checkpoint::decode(&bytes).expect("own checkpoint must decode");
    let mut fresh = simulator(p, execution, fast_forward);
    decoded.restore_into(&mut fresh).expect("restore refused");
    fresh
}

/// The engine/fast-forward rotation the chain test hops through.
const ROTATION: [(Execution, bool); 6] = [
    (Execution::Sequential, true),
    (
        Execution::Sharded {
            shards: 4,
            threads: 2,
        },
        false,
    ),
    (Execution::Sequential, false),
    (
        Execution::Sharded {
            shards: 9,
            threads: 3,
        },
        true,
    ),
    (
        Execution::Sharded {
            shards: 1,
            threads: 1,
        },
        true,
    ),
    (
        Execution::Sharded {
            shards: 4,
            threads: 4,
        },
        true,
    ),
];

/// One pass over the whole run, checkpointing at every `stride`-event
/// boundary and continuing each time in a **fresh simulator on the next
/// engine of the rotation**. Every boundary is exercised exactly once,
/// total work stays linear, and the final observation must equal the
/// uninterrupted sequential reference bit for bit.
#[test]
fn checkpoint_chain_hops_engines_at_every_boundary() {
    let p = problem(16, 16, 4, 42);
    let apps = 2;
    let reference = uninterrupted(&p, Execution::Sequential, true, apps);

    let stride = 2048;
    let (mut execution, mut ff) = ROTATION[0];
    let mut sim = simulator(&p, execution, ff);
    let mut hops = 0usize;
    let mut last = Vec::new();
    while sim.applications() < apps {
        if !sim.in_flight() {
            let seed = sim.applications() as u64;
            sim.begin_apply(&pressure(&p, seed));
        }
        let step = sim.step_events(stride).unwrap();
        if step.complete {
            last = sim.finish_apply().unwrap();
            continue;
        }
        // Mid-application boundary: kill this simulator, restore the
        // serialized state into the next engine of the rotation.
        hops += 1;
        (execution, ff) = ROTATION[hops % ROTATION.len()];
        sim = roundtrip_into(&p, &sim, execution, ff);
        assert!(sim.in_flight(), "restored mid-application state");
    }
    assert!(
        hops >= ROTATION.len(),
        "only {hops} checkpoints — shrink the stride so every engine is visited"
    );
    assert_eq!(observe(&p, &sim, &last), reference);
}

/// Checkpoints taken *between* applications restore across engines and
/// preserve cumulative counters, for every engine pair and both
/// fast-forward settings.
#[test]
fn between_application_checkpoints_restore_across_engines() {
    let p = problem(8, 8, 3, 7);
    let engines = [
        (Execution::Sequential, true),
        (Execution::Sequential, false),
        (
            Execution::Sharded {
                shards: 4,
                threads: 2,
            },
            true,
        ),
        (
            Execution::Sharded {
                shards: 4,
                threads: 2,
            },
            false,
        ),
    ];
    let reference = uninterrupted(&p, Execution::Sequential, true, 2);
    for (first_exec, first_ff) in engines {
        for (second_exec, second_ff) in engines {
            let mut first = simulator(&p, first_exec, first_ff);
            first.apply(&pressure(&p, 0)).unwrap();
            let mut second = roundtrip_into(&p, &first, second_exec, second_ff);
            drop(first);
            let last = second.apply(&pressure(&p, 1)).unwrap();
            assert_eq!(
                observe(&p, &second, &last),
                reference,
                "{first_exec:?}/ff={first_ff} -> {second_exec:?}/ff={second_ff}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Integrity: corrupted checkpoints must be refused with typed errors.
// ---------------------------------------------------------------------------

fn small_checkpoint() -> (Problem, Vec<u8>) {
    let p = problem(4, 4, 3, 5);
    let mut sim = simulator(&p, Execution::Sequential, true);
    sim.apply(&pressure(&p, 0)).unwrap();
    let bytes = Checkpoint::capture(&sim).encode();
    (p, bytes)
}

#[test]
fn corrupted_magic_is_rejected() {
    let (_, mut bytes) = small_checkpoint();
    bytes[0] ^= 0xff;
    assert_eq!(
        Checkpoint::decode(&bytes).unwrap_err(),
        CheckpointError::BadMagic
    );
}

#[test]
fn foreign_schema_version_is_rejected() {
    let (_, mut bytes) = small_checkpoint();
    bytes[8] = bytes[8].wrapping_add(1);
    assert!(matches!(
        Checkpoint::decode(&bytes).unwrap_err(),
        CheckpointError::BadVersion { .. }
    ));
}

#[test]
fn schema_v1_is_refused_without_a_reader() {
    // Neither schema 1, schema 2 (a per-PE program state record), schema 3
    // (murmur3 checksum, FNV-1a spec hash), schema 4 (a spec hash over the
    // fault plan's `Debug` text) nor schema 5 (events in `(time, seq, src)`
    // order) has a reader: old files are refused, not migrated.
    let (_, bytes) = small_checkpoint();
    for found in [1u32, 2, 3, 4, 5] {
        let mut old = bytes.clone();
        old[8..12].copy_from_slice(&found.to_le_bytes());
        assert_eq!(
            Checkpoint::decode(&old).unwrap_err(),
            CheckpointError::BadVersion { found }
        );
    }
}

#[test]
fn out_of_range_state_words_are_refused_not_a_panic() {
    // TPFA's program state words end each PE's allocation: step counter,
    // pending hooks, sent flags, then one receive cursor per stream.
    let (p, bytes) = small_checkpoint();
    let nz = p.mesh.nz();
    let plan = MemoryPlan::for_nz(nz);
    let state = plan.total_words() - plan.state;
    let stream_len = 2 * nz as u32;
    let pe = 5;
    for (word, value, why) in [
        (state + 3 + 7, stream_len + 1, "receive cursor"),
        (state + 2, 1 << 4, "sent flags"),
        (state + 1, 1 << 2, "pending flags"),
    ] {
        let mut ck = Checkpoint::decode(&bytes).unwrap();
        let words = &mut ck.driver.fabric.pes[pe].memory_words;
        if words.len() <= word {
            words.resize(word + 1, 0);
        }
        words[word] = value;
        // Re-encoding seals the payload again: only the restore-time
        // check stands between these words and the task handlers.
        let sealed = Checkpoint::decode(&ck.encode()).expect("sealed checkpoint decodes");
        let mut sim = simulator(&p, Execution::Sequential, true);
        match sim.restore_snapshot(&sealed.driver) {
            Err(RestoreError::Program { pe: at, detail }) => {
                assert_eq!(at, pe);
                assert!(detail.contains(why), "{why}: {detail}");
            }
            other => panic!("{why}: restore gave {other:?}"),
        }
    }
}

#[test]
fn truncated_payload_is_rejected() {
    let (_, bytes) = small_checkpoint();
    let cut = &bytes[..bytes.len() - 17];
    assert!(matches!(
        Checkpoint::decode(cut).unwrap_err(),
        CheckpointError::Truncated { .. }
    ));
    // Sub-header truncation too.
    assert!(matches!(
        Checkpoint::decode(&bytes[..HEADER_LEN - 3]).unwrap_err(),
        CheckpointError::Truncated { .. }
    ));
}

#[test]
fn every_payload_bit_flip_is_caught_by_the_checksum() {
    let (_, bytes) = small_checkpoint();
    // Flip one byte at a spread of payload offsets; the header's payload
    // checksum must catch each before decoding starts.
    let payload_len = bytes.len() - HEADER_LEN;
    for frac in [0, payload_len / 3, payload_len / 2, payload_len - 1] {
        let mut corrupt = bytes.clone();
        corrupt[HEADER_LEN + frac] ^= 0x10;
        assert!(
            matches!(
                Checkpoint::decode(&corrupt).unwrap_err(),
                CheckpointError::ChecksumMismatch { .. }
            ),
            "flip at payload offset {frac} slipped through"
        );
    }
}

#[test]
fn checkpoint_for_a_different_problem_is_refused() {
    let (_, bytes) = small_checkpoint();
    let decoded = Checkpoint::decode(&bytes).unwrap();
    let other = problem(4, 4, 3, 6); // different permeability seed
    let mut sim = simulator(&other, Execution::Sequential, true);
    assert!(matches!(
        decoded.restore_into(&mut sim).unwrap_err(),
        CheckpointError::SpecHashMismatch { .. }
    ));
}

#[test]
fn declared_length_beyond_buffer_is_truncated_not_a_panic() {
    let (_, mut bytes) = small_checkpoint();
    // Inflate the declared payload length far past the buffer.
    bytes[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        Checkpoint::decode(&bytes).unwrap_err(),
        CheckpointError::Truncated { .. }
    ));
}
