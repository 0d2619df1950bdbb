//! Fault-injection semantics and engine equivalence at the fabric level.
//!
//! Two layers:
//!
//! 1. **Closed-form fixtures** on a tiny hand-built program (the eastward
//!    shifter from the crate's unit tests, rebuilt on the public API): one
//!    link failure / payload corruption at a known place and time must
//!    produce exactly the predicted typed error, fault log, and drop
//!    counters.
//! 2. **Randomized plans**: for a batch of seeds, the sequential and
//!    sharded engines must agree bit-for-bit on the outcome — same error,
//!    same engine-independent fault log, same stats.

use wse_sim::prelude::*;
use Direction::{East, Ramp, West};

const DATA: Color = Color::new(0);
const START: Color = Color::new(1);

/// Eastward shift: on START, even columns send their value east then hand
/// the channel over with a control wavelet; odd columns receive, then send
/// on the handover (the Fig. 6 two-step pattern).
struct Shifter {
    value: f32,
    received: Option<wse_sim::memory::MemRange>,
}

impl Shifter {
    fn new(value: f32) -> Self {
        Self {
            value,
            received: None,
        }
    }
}

impl PeProgram for Shifter {
    fn init(&mut self, ctx: &mut PeContext) {
        self.received = Some(ctx.alloc(1));
        let sending = RouterPosition::new(DirMask::single(Ramp), DirMask::single(East));
        let receiving = RouterPosition::new(DirMask::single(West), DirMask::single(Ramp));
        let initial = if ctx.coord.col.is_multiple_of(2) {
            0
        } else {
            1
        };
        ctx.configure_color(DATA, ColorConfig::switchable(sending, receiving, initial));
    }

    fn on_data(&mut self, ctx: &mut PeContext, w: Wavelet) {
        if w.color == START {
            if ctx.coord.col.is_multiple_of(2) {
                ctx.send_f32(DATA, self.value);
                ctx.send_control(DATA, 0);
            }
        } else if w.color == DATA {
            ctx.recv_store(self.received.unwrap().at(0), w.as_f32());
        }
    }

    fn on_control(&mut self, ctx: &mut PeContext, _w: Wavelet) {
        ctx.send_f32(DATA, self.value);
    }

    /// 1 once the received word holds data instead of its NaN sentinel.
    fn progress(&self, memory: &[u32]) -> Option<u64> {
        let received = self.received?;
        Some(!f32::from_bits(memory[received.at(0)]).is_nan() as u64)
    }
}

fn shifter_fabric(cols: usize, execution: Execution, plan: &FaultPlan) -> Fabric {
    let mut f = Fabric::new(
        FabricDims::new(cols, 1),
        FabricConfig {
            execution,
            ..FabricConfig::default()
        },
        |c| Box::new(Shifter::new(c.col as f32 + 100.0)),
    );
    f.load();
    // The host marks every received word "nothing yet".
    for c in f.dims().iter() {
        f.memory_mut(c)[0] = f32::NAN.to_bits();
    }
    if !plan.is_empty() {
        f.set_fault_plan(plan);
    }
    f
}

fn run_shifter(
    cols: usize,
    execution: Execution,
    plan: &FaultPlan,
) -> (Result<RunReport, String>, Vec<FaultEvent>, FabricStats) {
    let mut f = shifter_fabric(cols, execution, plan);
    f.activate_all(START, 0);
    let result = f.run().map_err(|e| e.to_string());
    (result, f.fault_log(), f.stats())
}

#[test]
fn link_failure_at_known_edge_produces_the_predicted_fault() {
    // Take down PE (0,0)'s east link for the whole run: the very first
    // data wavelet it sends is dropped at that edge.
    let plan = FaultPlan::new().with(Fault {
        pe: PeCoord::new(0, 0),
        at: 0,
        kind: FaultKind::LinkDown {
            dir: East,
            until: 1_000_000,
        },
        persistent: true,
    });
    let mut f = shifter_fabric(4, Execution::Sequential, &plan);
    f.activate_all(START, 0);
    let err = f.run().expect_err("a dropped wavelet is a detected fault");
    match err {
        FabricError::Fault {
            pe, class, time, ..
        } => {
            assert_eq!(pe, PeCoord::new(0, 0), "fault site is the failed edge");
            assert_eq!(class, FaultClass::LinkDown);
            assert_eq!(time, 0, "the first send happens at t=0");
        }
        other => panic!("expected a LinkDown fault, got: {other}"),
    }
    // Column 1 never received; columns 2->3 still completed their exchange.
    assert!(f32::from_bits(f.memory(PeCoord::new(1, 0))[0]).is_nan());
    assert_eq!(f32::from_bits(f.memory(PeCoord::new(3, 0))[0]), 102.0);
    // Both wavelets (0,0) emits eastward die on the downed link: the data
    // send and the handover control.
    let stats = f.stats();
    assert_eq!(stats.fault_drops, 2, "data + control both dropped");
    let log = f.fault_log();
    assert_eq!(log.len(), 2);
    assert!(log
        .iter()
        .all(|e| e.class == FaultClass::LinkDown && !e.benign && e.pe == PeCoord::new(0, 0)));
}

#[test]
fn corrupted_payload_is_injected_upstream_and_detected_at_the_ramp() {
    // Flip payload bits of the first wavelet PE (0,0) routes: injection is
    // logged (benign) at the corrupting router, detection (non-benign) at
    // the receiving PE's ramp — a *different* PE, which is exactly why the
    // checksum travels with the wavelet.
    let plan = FaultPlan::new().with(Fault {
        pe: PeCoord::new(0, 0),
        at: 0,
        kind: FaultKind::CorruptPayload { xor: 0x0004_0000 },
        persistent: true,
    });
    let mut f = shifter_fabric(4, Execution::Sequential, &plan);
    f.activate_all(START, 0);
    let err = f.run().expect_err("corruption must not pass silently");
    match err {
        FabricError::Fault { pe, class, .. } => {
            assert_eq!(class, FaultClass::CorruptDetected);
            assert_eq!(pe, PeCoord::new(1, 0), "detected at the receiver");
        }
        other => panic!("expected a CorruptDetected fault, got: {other}"),
    }
    let log = f.fault_log();
    let injected: Vec<_> = log
        .iter()
        .filter(|e| e.class == FaultClass::CorruptInjected)
        .collect();
    let detected: Vec<_> = log
        .iter()
        .filter(|e| e.class == FaultClass::CorruptDetected)
        .collect();
    assert_eq!(injected.len(), 1);
    assert!(injected[0].benign, "injection alone is not yet an error");
    assert_eq!(injected[0].pe, PeCoord::new(0, 0));
    assert_eq!(detected.len(), 1);
    assert!(!detected[0].benign);
    assert_eq!(detected[0].pe, PeCoord::new(1, 0));
    // The corrupted value was discarded, not stored.
    assert!(f32::from_bits(f.memory(PeCoord::new(1, 0))[0]).is_nan());
    assert_eq!(f.stats().checksum_drops, 1);
}

#[test]
fn pe_halt_swallows_deliveries_and_stalls_progress() {
    let plan = FaultPlan::new().with(Fault {
        pe: PeCoord::new(1, 0),
        at: 0,
        kind: FaultKind::PeHalt,
        persistent: true,
    });
    let mut f = shifter_fabric(4, Execution::Sequential, &plan);
    f.activate_all(START, 0);
    let err = f.run().expect_err("a halted PE is a detected fault");
    assert!(
        matches!(
            err,
            FabricError::Fault {
                class: FaultClass::PeHalt,
                pe,
                ..
            } if pe == PeCoord::new(1, 0)
        ),
        "got: {err}"
    );
    // The halted PE's progress counter never advanced; its neighbors' did.
    let progress = f.progress_by_pe();
    assert_eq!(progress[1], Some(0), "halted PE made no progress");
    assert_eq!(progress[3], Some(1), "column 3 completed its receive");
}

#[test]
fn fault_free_plans_add_no_events_and_change_nothing() {
    let (clean, clean_log, clean_stats) = run_shifter(6, Execution::Sequential, &FaultPlan::new());
    assert!(clean.is_ok());
    assert!(clean_log.is_empty());
    // A plan whose faults all fire far beyond the run's horizon still
    // enables checksum verification — results must be unchanged.
    let late = FaultPlan::new().with(Fault {
        pe: PeCoord::new(0, 0),
        at: 1_000_000_000,
        kind: FaultKind::PeHalt,
        persistent: true,
    });
    let (with_plan, plan_log, plan_stats) = run_shifter(6, Execution::Sequential, &late);
    assert!(with_plan.is_ok());
    assert!(plan_log.is_empty(), "nothing fired");
    assert_eq!(clean_stats.total, plan_stats.total);
    assert_eq!(
        clean.unwrap().final_time,
        with_plan.unwrap().final_time,
        "verification is free in simulated cycles"
    );
}

#[test]
fn randomized_plans_are_engine_invariant() {
    // For a batch of seeds, the full observable outcome — result, fault
    // log, aggregate stats — must be identical between the sequential
    // engine and two sharded geometries.
    let dims = FabricDims::new(6, 1);
    for seed in 0..12u64 {
        let plan = FaultPlan::randomized(seed, dims, 40, 2);
        let seq = run_shifter(6, Execution::Sequential, &plan);
        for shards in [2usize, 3] {
            let par = run_shifter(6, Execution::Sharded { shards, threads: 2 }, &plan);
            assert_eq!(
                seq.0, par.0,
                "seed {seed}, {shards} shards: run outcome diverged"
            );
            assert_eq!(
                seq.1, par.1,
                "seed {seed}, {shards} shards: fault log diverged"
            );
            assert_eq!(
                seq.2.total, par.2.total,
                "seed {seed}, {shards} shards: stats diverged"
            );
        }
    }
}

/// Fault plans force per-hop routing (fast-forward is disabled while a
/// plan is installed), so this also exercises the strip engine's mail
/// without chain jumps: randomized plans on a *two-dimensional* fabric must
/// stay engine-invariant across 2 and 4 row strips (8 asked for clamps to
/// the 4 rows).
#[test]
fn randomized_plans_on_2d_fabrics_are_engine_invariant() {
    let dims = FabricDims::new(8, 4);
    let run = |execution: Execution, plan: &FaultPlan| {
        let mut f = Fabric::new(
            dims,
            FabricConfig {
                execution,
                ..FabricConfig::default()
            },
            |c| Box::new(Shifter::new((c.row * 8 + c.col) as f32 + 100.0)),
        );
        f.load();
        if !plan.is_empty() {
            f.set_fault_plan(plan);
        }
        f.activate_all(START, 0);
        let result = f.run().map_err(|e| e.to_string());
        (result, f.fault_log(), f.stats())
    };
    for seed in 0..8u64 {
        let plan = FaultPlan::randomized(seed, dims, 40, 3);
        let seq = run(Execution::Sequential, &plan);
        for shards in [2usize, 4, 8] {
            let par = run(Execution::Sharded { shards, threads: 2 }, &plan);
            assert_eq!(seq, par, "seed {seed}, {shards} shards diverged");
        }
    }
}

/// Liveness regression kept from the lookahead engine, where a shard that
/// went quiet could freeze its neighbours' clocks: halting a whole block of
/// PEs at t=0 must not hang the engine — the halted PEs keep popping (and
/// swallowing) events and the run terminates with the same typed error and
/// fault log as the sequential engine. The strip engine cuts rows, so this
/// one-row fixture runs as one strip whatever `shards` asks for; faults
/// across strip edges are the 2-D test above.
#[test]
fn fully_halted_shard_does_not_deadlock_the_lookahead() {
    let cols = 8;
    // Halt the third quarter (columns 4–5): with 4 shards that is one
    // whole shard of the 8×1 fabric; with 2 shards it is half a shard.
    let mut plan = FaultPlan::new();
    for col in 4..6 {
        plan = plan.with(Fault {
            pe: PeCoord::new(col, 0),
            at: 0,
            kind: FaultKind::PeHalt,
            persistent: true,
        });
    }
    let seq = run_shifter(cols, Execution::Sequential, &plan);
    let err = seq.0.as_ref().expect_err("halted PEs are detected faults");
    assert!(err.contains("halt"), "expected a PeHalt error, got: {err}");
    for (shards, threads) in [(2usize, 2usize), (4, 2), (4, 4), (8, 2)] {
        let par = run_shifter(cols, Execution::Sharded { shards, threads }, &plan);
        assert_eq!(
            seq, par,
            "{shards} shards × {threads} threads: halted-shard outcome diverged"
        );
    }
}

#[test]
fn transient_faults_vanish_for_later_attempts() {
    let transient = Fault {
        pe: PeCoord::new(0, 0),
        at: 0,
        kind: FaultKind::LinkDown {
            dir: East,
            until: 1_000_000,
        },
        persistent: false,
    };
    let plan = FaultPlan::new().with(transient);
    let (first, ..) = run_shifter(4, Execution::Sequential, &plan);
    assert!(first.is_err(), "attempt 0 hits the fault");
    let retry_plan = plan.for_attempt(1);
    assert!(retry_plan.is_empty());
    let (second, ..) = run_shifter(4, Execution::Sequential, &retry_plan);
    let (clean, ..) = run_shifter(4, Execution::Sequential, &FaultPlan::new());
    assert_eq!(
        second, clean,
        "attempt 1 is indistinguishable from fault-free"
    );
}
