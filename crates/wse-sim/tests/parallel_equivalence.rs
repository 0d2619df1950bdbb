//! Differential determinism harness: the cycle-synchronous strip engine
//! must be **bit-identical** to its one-strip, one-thread run
//! (`Execution::Sequential`) — same residuals, same per-PE instruction
//! counters, same [`RunReport`], same final fabric time, and the same error
//! reports — for every strip count and thread count, including strip counts
//! that do not divide the row count and more threads than cores, and across
//! pauses and restores.
//!
//! The workload is the repo's real TPFA flux program (`tpfa-dataflow`,
//! a dev-dependency) on a 32×32 fabric, not a toy kernel: every mechanism
//! of the simulator (switch toggling, diagonal forwarding, DSD vector ops,
//! ramp staggering, host activation) is exercised.

use fv_core::eos::Fluid;
use fv_core::fields::PermeabilityField;
use fv_core::mesh::{CartesianMesh3, Extents, Spacing};
use fv_core::state::FlowState;
use fv_core::trans::{StencilKind, Transmissibilities};
use proptest::prelude::*;
use tpfa_dataflow::DataflowFluxSimulator;
use wse_sim::fabric::{Execution, Fabric, FabricConfig, FabricError, RunReport};
use wse_sim::geometry::{Direction, FabricDims, PeCoord};
use wse_sim::pe::{PeContext, PeProgram};
use wse_sim::route::{ColorConfig, DirMask, RouterPosition};
use wse_sim::stats::{FabricStats, OpCounters};
use wse_sim::wavelet::{Color, Wavelet};

/// Everything observable from one TPFA run; two runs are equivalent iff
/// these compare equal (all comparisons are bit-exact — `f32` residuals are
/// compared through their bit patterns).
#[derive(Debug, PartialEq)]
struct Observation {
    residual_bits: Vec<u32>,
    per_pe_counters: Vec<OpCounters>,
    report: RunReport,
    stats: FabricStats,
}

/// The TPFA problem every observation runs, and its input pressure.
fn build_tpfa(
    nx: usize,
    ny: usize,
    nz: usize,
    execution: Execution,
) -> (DataflowFluxSimulator, Vec<f32>) {
    let mesh = CartesianMesh3::new(Extents::new(nx, ny, nz), Spacing::new(10.0, 10.0, 4.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 12345);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    let sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .execution(execution)
        .build()
        .unwrap();
    let pressure = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, 77);
    (sim, pressure.pressure().to_vec())
}

fn observe_tpfa(nx: usize, ny: usize, nz: usize, execution: Execution) -> Observation {
    let (mut sim, pressure) = build_tpfa(nx, ny, nz, execution);
    let residual = sim.apply(&pressure).expect("TPFA run failed");
    observation(&sim, &residual, nx, ny)
}

/// What a finished apply left behind.
fn observation(sim: &DataflowFluxSimulator, residual: &[f32], nx: usize, ny: usize) -> Observation {
    Observation {
        residual_bits: residual.iter().map(|v| v.to_bits()).collect(),
        per_pe_counters: (0..ny)
            .flat_map(|y| (0..nx).map(move |x| (x, y)))
            .map(|(x, y)| *sim.pe_counters(x, y))
            .collect(),
        report: sim.last_run().unwrap(),
        stats: sim.stats(),
    }
}

#[test]
fn sharded_tpfa_is_bit_identical_across_shard_counts() {
    let (nx, ny, nz) = (32, 32, 2);
    let reference = observe_tpfa(nx, ny, nz, Execution::Sequential);
    assert!(reference.report.events > 0);
    // 1 strip (degenerate), 2 and 4 (32/2, 32/4 rows), and 3 and 9 — 32 is
    // divisible by neither, so the strips are uneven (10/11/11, 3/4/…) —
    // on 1 worker (inline, no barrier), 2, and 4 (more than this host's
    // cores, so the barrier has to yield).
    for shards in [1usize, 2, 3, 4, 9] {
        for threads in [1usize, 2, 4] {
            let sharded = observe_tpfa(nx, ny, nz, Execution::Sharded { shards, threads });
            assert_eq!(
                reference, sharded,
                "sequential vs sharded({shards} shards, {threads} threads)"
            );
        }
    }
}

#[test]
fn single_row_fabric_clamps_to_one_strip() {
    // One row cannot be cut: 4 strips and 2 threads asked for, 1 and 1 run.
    let reference = observe_tpfa(24, 1, 3, Execution::Sequential);
    assert!(reference.report.events > 0);
    let sharded = observe_tpfa(
        24,
        1,
        3,
        Execution::Sharded {
            shards: 4,
            threads: 2,
        },
    );
    assert_eq!(reference, sharded);
}

#[test]
fn chunked_parallel_run_matches_a_single_run() {
    // A `run_until` pauses at the end of the cycle in which its limit was
    // reached; wherever the pauses land, the chunks' reports sum
    // to the single run's and the final state is the same. A 1-event limit
    // makes every call exactly one cycle.
    let (nx, ny, nz) = (16, 16, 2);
    let reference = observe_tpfa(nx, ny, nz, Execution::Sequential);
    for (chunk, threads) in [(1u64, 2usize), (1_000, 1), (7_777, 2)] {
        let execution = Execution::Sharded { shards: 4, threads };
        let (mut sim, pressure) = build_tpfa(nx, ny, nz, execution);
        sim.begin_apply(&pressure);
        let mut calls = 0;
        while !sim.step_events(chunk).expect("chunk failed").complete {
            calls += 1;
        }
        assert!(calls > 1, "a {chunk}-event limit must pause");
        let residual = sim.finish_apply().expect("finish failed");
        assert_eq!(
            reference,
            observation(&sim, &residual, nx, ny),
            "{chunk}-event chunks on {threads} threads"
        );
    }
}

#[test]
fn every_pause_ends_a_simulated_cycle_on_both_engines() {
    // A 100-event limit trips in the middle of cycle 0 (256 host
    // activations are pending at it) and of most later cycles; every pause
    // still runs its cycle out, so nothing left pending is at or before the
    // reported fabric time, and the chunked run ends where one call does.
    let (nx, ny, nz) = (16, 16, 2);
    let reference = observe_tpfa(nx, ny, nz, Execution::Sequential);
    let sharded = Execution::Sharded {
        shards: 3,
        threads: 2,
    };
    for execution in [Execution::Sequential, sharded] {
        let (mut sim, pressure) = build_tpfa(nx, ny, nz, execution);
        sim.begin_apply(&pressure);
        let mut pauses = 0;
        loop {
            let step = sim.step_events(100).expect("chunk failed");
            if step.complete {
                break;
            }
            pauses += 1;
            let early = sim.snapshot().fabric.events.iter().map(|e| e.time).min();
            assert!(
                early.is_some_and(|t| t > step.fabric_time),
                "{execution:?}: pause {pauses} at t={} left an event at {early:?}",
                step.fabric_time
            );
        }
        assert!(pauses > 1, "{execution:?}: a 100-event limit must pause");
        let residual = sim.finish_apply().expect("finish failed");
        assert_eq!(
            reference,
            observation(&sim, &residual, nx, ny),
            "{execution:?}: chunked run diverged from one call"
        );
    }
}

#[test]
fn sharded_tpfa_is_bit_identical_on_non_square_fabric() {
    // 21×13 on 6 strips: 13 rows split unevenly (2/2/2/2/2/3).
    let reference = observe_tpfa(21, 13, 3, Execution::Sequential);
    let sharded = observe_tpfa(
        21,
        13,
        3,
        Execution::Sharded {
            shards: 6,
            threads: 3,
        },
    );
    assert_eq!(reference, sharded);
}

#[test]
fn sharded_tpfa_repeated_applications_stay_identical() {
    // Cross-run state (fabric time, per-PE sequence counters, busy_until)
    // must also evolve identically, otherwise the second apply diverges.
    let run = |execution: Execution| {
        let mesh = CartesianMesh3::new(Extents::new(16, 16, 2), Spacing::new(10.0, 10.0, 4.0));
        let fluid = Fluid::water_like();
        let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 5);
        let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
        let mut sim = DataflowFluxSimulator::builder(&mesh)
            .fluid(&fluid)
            .transmissibilities(&trans)
            .execution(execution)
            .build()
            .unwrap();
        let mut all_bits = Vec::new();
        for i in 0..3 {
            let p = FlowState::<f32>::varied(&mesh, 1.0e7, 1.1e7, i);
            let r = sim.apply(p.pressure()).unwrap();
            all_bits.extend(r.iter().map(|v| v.to_bits()));
            all_bits.push(sim.last_run().unwrap().final_time as u32);
        }
        all_bits
    };
    assert_eq!(
        run(Execution::Sequential),
        run(Execution::Sharded {
            shards: 4,
            threads: 2
        })
    );
}

// ---------------------------------------------------------------------------
// Error-report equivalence
// ---------------------------------------------------------------------------

const DATA: Color = Color::new(0);
const STREAM: Color = Color::new(5);

/// Column 0 PEs send east on a color every other PE keeps closed — the
/// wavelets park at column 1 and the fabric deadlocks with one stalled
/// wavelet per row.
struct DeadlockProgram;

impl PeProgram for DeadlockProgram {
    fn init(&mut self, ctx: &mut PeContext) {
        let sending = RouterPosition::new(
            DirMask::single(Direction::Ramp),
            DirMask::single(Direction::East),
        );
        let receiving = RouterPosition::new(
            DirMask::single(Direction::West),
            DirMask::single(Direction::Ramp),
        );
        // position never toggles: east neighbors reject the stream forever
        ctx.configure_color(STREAM, ColorConfig::switchable(sending, receiving, 0));
    }
    fn on_data(&mut self, ctx: &mut PeContext, w: Wavelet) {
        if w.color == DATA && ctx.coord.col == 0 {
            ctx.send_f32(STREAM, ctx.coord.row as f32);
        }
    }
}

fn run_deadlock(execution: Execution) -> FabricError {
    let dims = FabricDims::new(8, 6);
    let config = FabricConfig {
        execution,
        ..FabricConfig::default()
    };
    let mut f = Fabric::new(dims, config, |_| Box::new(DeadlockProgram));
    f.load();
    f.activate_all(DATA, 0);
    f.run().expect_err("must deadlock")
}

#[test]
fn deadlock_reports_are_identical_across_engines() {
    let reference = run_deadlock(Execution::Sequential);
    match &reference {
        FabricError::Deadlock { pe, stalled, .. } => {
            // six rows stall, the scan reports the first in linear order
            assert_eq!(*pe, PeCoord::new(1, 0));
            assert_eq!(*stalled, 1);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
    for (shards, threads) in [(2, 2), (4, 4), (6, 3)] {
        let sharded = run_deadlock(Execution::Sharded { shards, threads });
        assert_eq!(
            reference, sharded,
            "deadlock report must match for {shards} shards"
        );
    }
}

/// Every PE on the anti-diagonal sends on an unconfigured color — several
/// strips report one; the engines must agree on the winning error.
struct RouteErrorProgram;

impl PeProgram for RouteErrorProgram {
    fn init(&mut self, _ctx: &mut PeContext) {}
    fn on_data(&mut self, ctx: &mut PeContext, w: Wavelet) {
        if w.color == DATA && ctx.coord.col + ctx.coord.row == 7 {
            ctx.send_f32(Color::new(19), 1.0);
        }
    }
}

#[test]
fn route_error_reports_are_identical_across_engines() {
    let run = |execution: Execution| {
        let dims = FabricDims::new(8, 8);
        let config = FabricConfig {
            execution,
            ..FabricConfig::default()
        };
        let mut f = Fabric::new(dims, config, |_| Box::new(RouteErrorProgram));
        f.load();
        f.activate_all(DATA, 0);
        f.run().expect_err("must hit a route error")
    };
    let reference = run(Execution::Sequential);
    assert!(matches!(reference, FabricError::Route { .. }));
    for (shards, threads) in [(4, 2), (16, 4)] {
        assert_eq!(reference, run(Execution::Sharded { shards, threads }));
    }
}

#[test]
fn budget_error_reports_are_identical_across_engines() {
    struct Loopy;
    impl PeProgram for Loopy {
        fn init(&mut self, _ctx: &mut PeContext) {}
        fn on_data(&mut self, ctx: &mut PeContext, w: Wavelet) {
            ctx.activate(w.color, 0);
        }
    }
    let run = |execution: Execution| {
        let mut f = Fabric::new(
            FabricDims::new(4, 4),
            FabricConfig {
                max_events: 1_000,
                execution,
                ..FabricConfig::default()
            },
            |_| Box::new(Loopy),
        );
        f.load();
        f.activate_all(DATA, 0);
        f.run().expect_err("must exceed the budget")
    };
    let reference = run(Execution::Sequential);
    assert!(matches!(reference, FabricError::EventBudgetExceeded { .. }));
    for (shards, threads) in [(2, 2), (4, 4), (8, 2)] {
        assert_eq!(reference, run(Execution::Sharded { shards, threads }));
    }
}

#[test]
fn pending_event_at_the_end_of_time_is_processed_on_both_engines() {
    // Saturated times are legal queue contents, so "nothing pending" must
    // not be encoded as time `u64::MAX`: with a saturating hop latency the
    // one cross-strip wavelet of this run is mailed *at* `u64::MAX`, and an
    // engine that read that as quiescence would never deliver it.
    const LINK: Color = Color::new(9);
    struct Southbound;
    impl PeProgram for Southbound {
        fn init(&mut self, ctx: &mut PeContext) {
            let (rx, tx) = if ctx.coord.row == 0 {
                (Direction::Ramp, Direction::South)
            } else {
                (Direction::North, Direction::Ramp)
            };
            let position = RouterPosition::new(DirMask::single(rx), DirMask::single(tx));
            ctx.configure_color(LINK, ColorConfig::fixed(position));
            ctx.alloc(1);
        }
        fn on_data(&mut self, ctx: &mut PeContext, w: Wavelet) {
            if w.color == DATA {
                ctx.send_f32(LINK, 7.0);
            } else {
                ctx.memory.write_f32(0, w.as_f32());
            }
        }
    }
    let run = |execution: Execution, fast_forward: bool| {
        let config = FabricConfig {
            execution,
            fast_forward,
            hop_latency: u64::MAX,
            ..FabricConfig::default()
        };
        let mut f = Fabric::new(FabricDims::new(1, 2), config, |_| Box::new(Southbound));
        f.load();
        f.activate(PeCoord::new(0, 0), DATA, 0);
        let report = f.run().expect("run failed");
        let received = f32::from_bits(f.memory(PeCoord::new(0, 1))[0]);
        (report, f.time(), received, f.stats())
    };
    let reference = run(Execution::Sequential, false);
    assert_eq!(reference.1, u64::MAX, "the delivery is at the end of time");
    assert_eq!(reference.2, 7.0, "and it happened");
    for fast_forward in [false, true] {
        assert_eq!(reference, run(Execution::Sequential, fast_forward));
        for threads in [1, 2] {
            let execution = Execution::Sharded { shards: 2, threads };
            assert_eq!(reference, run(execution, fast_forward), "{execution:?}");
        }
    }
}

/// The panic of a `PeProgram` on a strip another worker runs must reach the
/// caller of `Fabric::run` — with its own message, not as a hang: the other
/// workers would otherwise wait at the barrier for a worker that is gone.
/// (CI runs this file under `timeout`.)
#[test]
#[should_panic(expected = "handler blew up at (3, 7)")]
fn a_panic_on_another_workers_strip_is_the_callers_panic() {
    struct Bomb;
    impl PeProgram for Bomb {
        fn init(&mut self, _ctx: &mut PeContext) {}
        fn on_data(&mut self, ctx: &mut PeContext, _w: Wavelet) {
            let PeCoord { col, row } = ctx.coord;
            if (col, row) == (3, 7) {
                panic!("handler blew up at ({col}, {row})");
            }
        }
    }
    let config = FabricConfig {
        execution: Execution::Sharded {
            shards: 4,
            threads: 2,
        },
        ..FabricConfig::default()
    };
    // Rows 6–7 are the last strip, which worker 1 (not the caller) runs;
    // the caller's worker is at the barrier, or on its way there, when the
    // handler panics, and both orders must end the same way.
    let mut f = Fabric::new(FabricDims::new(8, 8), config, |_| Box::new(Bomb));
    f.load();
    f.activate_all(DATA, 0);
    let _ = f.run();
}

// ---------------------------------------------------------------------------
// Property wall: randomized geometries × fast-forward × injection schedules
// ---------------------------------------------------------------------------

const HOP_EAST: Color = Color::new(21);
const HOP_SOUTH: Color = Color::new(22);

/// A "hopper" fabric for property testing: every PE carries two passive
/// fixed-route chains (eastbound and southbound, both fast-forwardable,
/// both accepting ramp injection mid-chain), with the far edge sinking up
/// its ramp. A `DATA` activation launches wavelets on either chain based
/// on payload bits, so a random activation schedule produces arbitrary
/// overlapping cross-shard chain traffic. Sinks fold `payload + 1` into
/// memory word 0 (order-insensitive, value-sensitive).
struct HopperProgram {
    cols: usize,
    rows: usize,
}

impl PeProgram for HopperProgram {
    fn init(&mut self, ctx: &mut PeContext) {
        let c = ctx.coord;
        let east = if c.col == self.cols - 1 {
            ColorConfig::fixed(RouterPosition::new(
                DirMask::single(Direction::West),
                DirMask::single(Direction::Ramp),
            ))
        } else {
            ColorConfig::fixed(RouterPosition::new(
                DirMask::of(&[Direction::West, Direction::Ramp]),
                DirMask::single(Direction::East),
            ))
        };
        ctx.configure_color(HOP_EAST, east);
        let south = if c.row == self.rows - 1 {
            ColorConfig::fixed(RouterPosition::new(
                DirMask::single(Direction::North),
                DirMask::single(Direction::Ramp),
            ))
        } else {
            ColorConfig::fixed(RouterPosition::new(
                DirMask::of(&[Direction::North, Direction::Ramp]),
                DirMask::single(Direction::South),
            ))
        };
        ctx.configure_color(HOP_SOUTH, south);
        ctx.alloc(1);
    }
    fn on_data(&mut self, ctx: &mut PeContext, w: Wavelet) {
        if w.color == DATA {
            // Edge PEs skip the chain that would park at their own router.
            if w.payload & 1 != 0 && ctx.coord.col < self.cols - 1 {
                ctx.send_f32(HOP_EAST, (w.payload >> 8) as f32);
            }
            if w.payload & 2 != 0 && ctx.coord.row < self.rows - 1 {
                ctx.send_f32(HOP_SOUTH, (w.payload >> 8) as f32);
            }
        } else {
            let seen = ctx.memory.read_u32(0);
            ctx.memory
                .write_u32(0, seen.wrapping_add(w.payload).wrapping_add(1));
        }
    }
}

#[derive(Debug, PartialEq)]
struct HopperObservation {
    report: RunReport,
    stats: FabricStats,
    final_time: u64,
    memories: Vec<u32>,
    counters: Vec<OpCounters>,
}

fn observe_hopper(
    cols: usize,
    rows: usize,
    schedule: &[(usize, u32)],
    execution: Execution,
    fast_forward: bool,
) -> HopperObservation {
    let dims = FabricDims::new(cols, rows);
    let config = FabricConfig {
        execution,
        fast_forward,
        ..FabricConfig::default()
    };
    let mut f = Fabric::new(dims, config, |_| Box::new(HopperProgram { cols, rows }));
    f.load();
    for &(pe, payload) in schedule {
        let coord = PeCoord::new(pe % cols, (pe / cols) % rows);
        f.activate(coord, DATA, payload);
    }
    let report = f.run().expect("hopper run failed");
    HopperObservation {
        report,
        stats: f.stats(),
        final_time: f.time(),
        memories: (0..cols * rows)
            .map(|i| f.memory(PeCoord::new(i % cols, i / cols))[0])
            .collect(),
        counters: (0..cols * rows)
            .map(|i| *f.counters(PeCoord::new(i % cols, i / cols)))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The satellite property wall: random fabric geometry (row counts
    /// rarely divisible by the strip count), random strip count from
    /// {1, 2, 3, 4, 9}, fast-forward on or off, and a random injection
    /// schedule — every observable must be bit-identical to the
    /// sequential per-hop reference.
    #[test]
    fn randomized_geometry_and_schedule_is_engine_invariant(
        (cols, rows, schedule) in (4usize..12, 4usize..12).prop_flat_map(|(cols, rows)| {
            let n = cols * rows;
            (
                Just(cols),
                Just(rows),
                proptest::collection::vec((0..n, 0u32..u32::MAX), 1..16),
            )
        }),
        shard_pick in 0usize..5,
        ff_pick in 0u32..2,
        threads in 1usize..5,
    ) {
        let shards = [1usize, 2, 3, 4, 9][shard_pick];
        let fast_forward = ff_pick == 1;
        let reference = observe_hopper(cols, rows, &schedule, Execution::Sequential, false);
        let ff_seq = observe_hopper(cols, rows, &schedule, Execution::Sequential, fast_forward);
        prop_assert_eq!(&reference, &ff_seq, "sequential ff={} diverged", fast_forward);
        let sharded = observe_hopper(
            cols,
            rows,
            &schedule,
            Execution::Sharded { shards, threads },
            fast_forward,
        );
        prop_assert_eq!(
            &reference,
            &sharded,
            "{}x{} fabric, {} shards, {} threads, ff={} diverged",
            cols,
            rows,
            shards,
            threads,
            fast_forward
        );
    }
}

// ---------------------------------------------------------------------------
// Per-shard statistics
// ---------------------------------------------------------------------------

#[test]
fn per_shard_stats_partition_the_global_stats() {
    let mesh = CartesianMesh3::new(Extents::new(12, 10, 2), Spacing::new(10.0, 10.0, 4.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 3);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    let mut sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .execution(Execution::Sharded {
            shards: 4,
            threads: 2,
        })
        .build()
        .unwrap();
    let p = FlowState::<f32>::varied(&mesh, 1.0e7, 1.1e7, 0);
    sim.apply(p.pressure()).unwrap();
    let global = sim.stats();
    for shards in [1usize, 4, 6] {
        let per = sim.shard_stats(shards);
        assert_eq!(per.len(), shards, "{shards} shards requested");
        let mut merged = FabricStats::default();
        for s in &per {
            merged.merge(s);
        }
        assert_eq!(merged, global, "{shards}-shard partition must cover");
        assert!(per.iter().all(|s| s.num_pes > 0));
    }
}
