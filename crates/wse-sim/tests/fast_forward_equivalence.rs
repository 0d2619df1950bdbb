//! Differential harness for static-route fast-forwarding: with
//! `fast_forward` on, chains of passive fixed-route routers deliver a
//! wavelet as one jumped event — and every observable (residuals, per-PE
//! counters, [`FabricStats`], [`RunReport`], final time) must be
//! **bit-identical** to the per-hop engine, on both execution engines.
//!
//! Also home to the overflow regression tests: event times near
//! `u64::MAX` (fault schedules and extreme `hop_latency` values can place
//! events arbitrarily late) must saturate instead of wrapping.

use fv_core::eos::Fluid;
use fv_core::fields::PermeabilityField;
use fv_core::mesh::{CartesianMesh3, Extents, Spacing};
use fv_core::state::FlowState;
use fv_core::trans::{StencilKind, Transmissibilities};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_sim::dsd::{Dsd, Operand};
use wse_sim::fabric::{Execution, Fabric, FabricConfig, FabricError, RunReport};
use wse_sim::geometry::{Direction, FabricDims, PeCoord};
use wse_sim::pe::{PeContext, PeProgram};
use wse_sim::route::{ColorConfig, DirMask, RouteError, RouterPosition};
use wse_sim::stats::{FabricStats, OpCounters};
use wse_sim::trace::{TraceEventKind, TraceSpec};
use wse_sim::wavelet::{Color, Wavelet};

/// Everything observable from one TPFA run (bit-exact comparisons).
#[derive(Debug, PartialEq)]
struct Observation {
    residual_bits: Vec<u32>,
    per_pe_counters: Vec<OpCounters>,
    report: RunReport,
    stats: FabricStats,
}

fn observe_tpfa(execution: Execution, fast_forward: bool) -> Observation {
    let (nx, ny, nz) = (24, 24, 2);
    let mesh = CartesianMesh3::new(Extents::new(nx, ny, nz), Spacing::new(10.0, 10.0, 4.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 4242);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    let mut sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .execution(execution)
        .fast_forward(fast_forward)
        .build()
        .unwrap();
    let pressure = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, 99);
    let residual = sim.apply(pressure.pressure()).expect("TPFA run failed");
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

/// The real TPFA workload (switch toggling on cardinal channels, fixed
/// 2-hop diagonal chains, DSD ops): fast-forwarding must be invisible.
#[test]
fn tpfa_fast_forward_is_bit_identical() {
    let reference = observe_tpfa(Execution::Sequential, false);
    assert!(reference.report.events > 0);
    let ff_seq = observe_tpfa(Execution::Sequential, true);
    assert_eq!(
        reference, ff_seq,
        "sequential: fast-forward changed results"
    );
    let ff_sharded = observe_tpfa(
        Execution::Sharded {
            shards: 4,
            threads: 2,
        },
        true,
    );
    assert_eq!(
        reference, ff_sharded,
        "sharded: fast-forward changed results"
    );
}

const KICK: Color = Color::new(0);
const STREAM: Color = Color::new(7);

/// A dedicated long static route down one column — the direction the
/// parallel engine's row strips cut: PE (0, 0) injects on `STREAM`, PEs
/// 1..n-1 passively forward North→South on a fixed route, and the last PE
/// receives up its ramp — the longest fast-forward chain the fabric can
/// express (the source and sink hops stay per-hop; only the passive
/// middle is jumped).
struct PipelineProgram {
    width: usize,
    received: u32,
}

impl PeProgram for PipelineProgram {
    fn init(&mut self, ctx: &mut PeContext) {
        let row = ctx.coord.row;
        let cfg = if row == 0 {
            ColorConfig::fixed(RouterPosition::new(
                DirMask::single(Direction::Ramp),
                DirMask::single(Direction::South),
            ))
        } else if row == self.width - 1 {
            ColorConfig::fixed(RouterPosition::new(
                DirMask::single(Direction::North),
                DirMask::single(Direction::Ramp),
            ))
        } else {
            ColorConfig::fixed(RouterPosition::new(
                DirMask::single(Direction::North),
                DirMask::single(Direction::South),
            ))
        };
        ctx.configure_color(STREAM, cfg);
    }
    fn on_data(&mut self, ctx: &mut PeContext, w: Wavelet) {
        if w.color == KICK && ctx.coord.row == 0 {
            for i in 0..4 {
                ctx.send_f32(STREAM, i as f32);
            }
        } else if w.color == STREAM {
            self.received += 1;
        }
    }
}

fn run_pipeline(
    width: usize,
    execution: Execution,
    fast_forward: bool,
) -> (RunReport, FabricStats, u64, Vec<u64>) {
    let dims = FabricDims::new(1, width);
    let config = FabricConfig {
        execution,
        fast_forward,
        ..FabricConfig::default()
    };
    let mut f = Fabric::new(dims, config, |_| {
        Box::new(PipelineProgram { width, received: 0 })
    });
    f.load();
    f.activate(PeCoord::new(0, 0), KICK, 0);
    let report = f.run().expect("pipeline run failed");
    let hops: Vec<u64> = (0..width)
        .map(|x| f.pe_stats(PeCoord::new(0, x)).fabric_hops)
        .collect();
    (report, f.stats(), f.time(), hops)
}

/// A 32-PE passive chain: fast-forward jumps 30 hops per wavelet, and
/// every per-router hop counter, the aggregate stats, the event count,
/// and the final time must still match the per-hop engine exactly —
/// including when the chain is cut into segments by strip edges. The 4-
/// and 8-strip runs make one chain span up to eight strips, so a wavelet
/// is handed across several mailboxes before it sinks.
#[test]
fn long_chain_fast_forward_is_bit_identical() {
    for (width, shard_counts) in [
        (3usize, &[2usize][..]),
        (8, &[2, 4][..]),
        (32, &[2, 4, 8][..]),
    ] {
        let reference = run_pipeline(width, Execution::Sequential, false);
        assert!(reference.1.fabric_hops >= (width as u64 - 1) * 4);
        let ff = run_pipeline(width, Execution::Sequential, true);
        assert_eq!(
            reference, ff,
            "width {width}: sequential fast-forward diverged"
        );
        for &shards in shard_counts {
            let ff_sharded = run_pipeline(width, Execution::Sharded { shards, threads: 2 }, true);
            assert_eq!(
                reference, ff_sharded,
                "length {width} × {shards} strips: segmented cross-strip fast-forward diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Closed-form 2-strip edge crossing
// ---------------------------------------------------------------------------

const CHAIN: Color = Color::new(9);

/// A 1×8 passive southbound chain whose routers accept both `North` and
/// `Ramp` input, so the *entire* path — injection hop included — is one
/// fast-forwardable chain. Every PE that receives `CHAIN` up its ramp
/// counts the delivery in word 0 of its memory (host-observable).
struct BoundaryChainProgram {
    width: usize,
}

impl PeProgram for BoundaryChainProgram {
    fn init(&mut self, ctx: &mut PeContext) {
        let cfg = if ctx.coord.row == self.width - 1 {
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
        ctx.configure_color(CHAIN, cfg);
        ctx.alloc(1);
    }
    fn on_data(&mut self, ctx: &mut PeContext, w: Wavelet) {
        if w.color == KICK && ctx.coord.row == 0 {
            ctx.send_f32(CHAIN, 42.0);
        } else if w.color == CHAIN {
            let seen = ctx.memory.read_u32(0);
            ctx.memory.write_u32(0, seen + 1);
        }
    }
}

fn run_boundary_chain(
    execution: Execution,
    fast_forward: bool,
    max_events: u64,
) -> (Result<RunReport, FabricError>, Fabric) {
    const WIDTH: usize = 8;
    let config = FabricConfig {
        execution,
        fast_forward,
        max_events,
        hop_latency: 3,
        ..FabricConfig::default()
    };
    let mut f = Fabric::new(FabricDims::new(1, WIDTH), config, |_| {
        Box::new(BoundaryChainProgram { width: WIDTH })
    });
    f.load();
    f.activate(PeCoord::new(0, 0), KICK, 0);
    let result = f.run();
    (result, f)
}

/// Satellite fixture for the cross-strip fast-forward path, checked
/// against hand arithmetic (hop latency L = 3, length 8, 2 strips of 4
/// rows):
///
/// - the kick activation at t=0 costs 1 event; the send leaves PE (0,0)'s
///   ramp at t=0 and crosses 7 fabric links, so the sink's ramp delivery
///   happens at exactly t = 7·L = 21 — the fast-forwarded chain is jumped
///   in two segments (4 hops in strip 0, 3 in strip 1) whose times sum to
///   the same 7·L;
/// - event budget: 1 activation + 8 router pops (rows 0–7; segments bill
///   their bulk hops to their own strip) + 1 sink delivery = 10 pops in
///   *every* engine × fast-forward combination;
/// - per-router `fabric_hops` is 1 for rows 0–6 and 0 for the sink, so
///   the strip-0 routers account 4 hops and strip-1 routers 3.
#[test]
fn two_shard_chain_crossing_matches_closed_form() {
    const L: u64 = 3;
    for execution in [
        Execution::Sequential,
        Execution::Sharded {
            shards: 2,
            threads: 2,
        },
    ] {
        for fast_forward in [false, true] {
            let label = format!("{execution:?} ff={fast_forward}");
            let (result, f) = run_boundary_chain(execution, fast_forward, 1_000);
            let report = result.expect("chain run failed");
            assert_eq!(report.events, 10, "{label}: event count");
            assert_eq!(report.final_time, 7 * L, "{label}: sink arrival time");
            let hops: Vec<u64> = (0..8)
                .map(|x| f.pe_stats(PeCoord::new(0, x)).fabric_hops)
                .collect();
            assert_eq!(
                hops,
                vec![1, 1, 1, 1, 1, 1, 1, 0],
                "{label}: per-router hops"
            );
            // Hop split across the row-3/row-4 edge of the 2 strips: 4 + 3.
            let per_shard = f.shard_stats(2);
            assert_eq!(per_shard[0].fabric_hops, 4, "{label}: shard-0 hops");
            assert_eq!(per_shard[1].fabric_hops, 3, "{label}: shard-1 hops");
            // Exactly one ramp delivery, at the far end of the chain.
            assert_eq!(f.memory(PeCoord::new(0, 7))[0], 1, "{label}");
            for x in 0..7 {
                assert_eq!(f.memory(PeCoord::new(0, x))[0], 0, "{label}");
            }
            // The budget is exact: 10 events fit, 9 do not — even when the
            // chain is jumped in bulk (segments bill `1 + (hops-1)` pops).
            let (ok, _) = run_boundary_chain(execution, fast_forward, 10);
            assert!(ok.is_ok(), "{label}: budget of 10 must pass");
            let (err, _) = run_boundary_chain(execution, fast_forward, 9);
            assert!(
                matches!(err, Err(FabricError::EventBudgetExceeded { max_events: 9 })),
                "{label}: budget of 9 must trip"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Loaded routes are frozen
// ---------------------------------------------------------------------------

const REWIRE: Color = Color::new(11);
const LATE: Color = Color::new(12);

/// What PE (0, 5) — mid-chain, in a *remote* strip for every multi-strip
/// split — does when the host activates `REWIRE` with this payload.
#[derive(Clone, Copy, Debug)]
enum Rewire {
    /// Re-configure `CHAIN` at once: the same cycle the stream departs.
    SameCycle = 0,
    /// Burn three cycles, then re-configure `CHAIN`: after a jump has
    /// departed PE 0, before the per-hop wavelet reaches PE 5.
    InFlight = 1,
    /// Configure `LATE`, which no router has, and use it.
    NewColor = 2,
}

/// Like [`BoundaryChainProgram`], plus the [`Rewire`] behaviours.
struct RewiredChainProgram {
    width: usize,
}

impl PeProgram for RewiredChainProgram {
    fn init(&mut self, ctx: &mut PeContext) {
        BoundaryChainProgram { width: self.width }.init(ctx);
        // the in-flight rewire's burn vector
        ctx.alloc(6);
    }
    fn on_data(&mut self, ctx: &mut PeContext, w: Wavelet) {
        let intercept = ColorConfig::fixed(RouterPosition::new(
            DirMask::single(Direction::North),
            DirMask::single(Direction::Ramp),
        ));
        if w.color == KICK && ctx.coord.row == 0 {
            ctx.send_f32(CHAIN, 7.0);
        } else if w.color == REWIRE && w.payload == Rewire::InFlight as u32 {
            let burn = Dsd::contiguous(4, 3);
            ctx.fnegs(burn, Operand::Mem(burn));
            ctx.activate(REWIRE, Rewire::SameCycle as u32);
        } else if w.color == REWIRE && w.payload == Rewire::NewColor as u32 {
            let loopback = RouterPosition::new(
                DirMask::single(Direction::Ramp),
                DirMask::single(Direction::Ramp),
            );
            ctx.configure_color(LATE, ColorConfig::fixed(loopback));
            ctx.send_f32(LATE, 1.0);
        } else if w.color == REWIRE {
            // Would make the chain terminate here — refused after load.
            ctx.configure_color(CHAIN, intercept);
        } else if w.color == CHAIN || w.color == LATE {
            let seen = ctx.memory.read_u32(0);
            ctx.memory.write_u32(0, seen + 1);
        }
    }
}

/// Regression for the bug frozen routes close. With routes revalidated at
/// walk time (the parent of this change), the in-flight rewire gave
/// `final_time` 10 and a delivery at PE 5 per-hop but 14 and PE 7
/// fast-forwarded, and under PE-major order the same-cycle rewire diverged
/// the same way: "bit-identical with fast-forwarding on or off" only held
/// when the rewire's key happened to precede the walk's. Now re-configuring
/// a configured color after `load()` is the same typed error — variant, PE
/// and color — on both engines, fast-forwarding on or off, traced or not,
/// the route stands, and configuring a *new* color stays legal.
#[test]
fn reconfiguring_a_loaded_route_is_a_typed_error() {
    const WIDTH: usize = 8;
    let run = |execution: Execution, fast_forward: bool, traced: bool, rewire: Rewire| {
        let config = FabricConfig {
            execution,
            fast_forward,
            hop_latency: 2,
            trace: if traced {
                TraceSpec::ring(64)
            } else {
                TraceSpec::OFF
            },
            ..FabricConfig::default()
        };
        let mut f = Fabric::new(FabricDims::new(1, WIDTH), config, |_| {
            Box::new(RewiredChainProgram { width: WIDTH })
        });
        f.load();
        f.activate(PeCoord::new(0, 5), REWIRE, rewire as u32);
        f.activate(PeCoord::new(0, 0), KICK, 0);
        let result = f.run();
        let memories: Vec<u32> = (0..WIDTH)
            .map(|x| f.memory(PeCoord::new(0, x))[0])
            .collect();
        let errors = f.trace().map(|t| {
            t.events
                .iter()
                .filter(|e| e.kind == TraceEventKind::Error)
                .count()
        });
        (result, f.stats(), f.time(), memories, errors)
    };
    let engines = [
        Execution::Sequential,
        Execution::Sharded {
            shards: 2,
            threads: 2,
        },
        Execution::Sharded {
            shards: 4,
            threads: 2,
        },
    ];
    for rewire in [Rewire::SameCycle, Rewire::InFlight, Rewire::NewColor] {
        let reference = run(Execution::Sequential, false, false, rewire);
        match rewire {
            Rewire::NewColor => {
                assert!(reference.0.is_ok(), "a new color is legal after load");
                // PE 5 heard its own loopback; the chain still ends at PE 7.
                assert_eq!(reference.3, vec![0, 0, 0, 0, 0, 1, 0, 1]);
            }
            _ => {
                let frozen = FabricError::Route {
                    pe: PeCoord::new(0, 5),
                    error: RouteError::Frozen(CHAIN),
                };
                assert_eq!(reference.0, Err(frozen), "{rewire:?}");
                // The loaded route stands: PE 5 forwards, PE 7 receives.
                assert_eq!(reference.3, vec![0, 0, 0, 0, 0, 0, 0, 1], "{rewire:?}");
            }
        }
        for execution in engines {
            for fast_forward in [false, true] {
                for traced in [false, true] {
                    let label =
                        format!("{rewire:?} {execution:?} ff={fast_forward} traced={traced}");
                    let (result, stats, time, memories, errors) =
                        run(execution, fast_forward, traced, rewire);
                    assert_eq!(
                        (&result, &stats, time, &memories),
                        (&reference.0, &reference.1, reference.2, &reference.3),
                        "{label}"
                    );
                    if traced {
                        let expected = usize::from(result.is_err());
                        assert_eq!(errors, Some(expected), "{label}: traced at the PE");
                    }
                }
            }
        }
    }
}

/// Extreme `hop_latency`: event times saturate at `u64::MAX` instead of
/// wrapping (the sequential path used unchecked `+` before the overflow
/// handling was unified behind `advance_time`). The run must terminate
/// with the clock pinned at the end of time, identically with and without
/// fast-forwarding and on both engines (the saturated events cross strip
/// edges as mail timed `u64::MAX`).
#[test]
fn near_u64_max_event_times_saturate() {
    let run = |execution: Execution, fast_forward: bool| {
        let dims = FabricDims::new(1, 6);
        let config = FabricConfig {
            execution,
            hop_latency: u64::MAX / 2,
            fast_forward,
            ..FabricConfig::default()
        };
        let mut f = Fabric::new(dims, config, |_| {
            Box::new(PipelineProgram {
                width: 6,
                received: 0,
            })
        });
        f.load();
        f.activate(PeCoord::new(0, 0), KICK, 0);
        let report = f.run().expect("saturated run failed");
        (report, f.stats(), f.time())
    };
    let reference = run(Execution::Sequential, false);
    // Three hops of u64::MAX/2 pin the clock at the end of time.
    assert_eq!(reference.2, u64::MAX);
    let strips = Execution::Sharded {
        shards: 3,
        threads: 2,
    };
    for (execution, fast_forward) in [
        (Execution::Sequential, true),
        (strips, false),
        (strips, true),
    ] {
        assert_eq!(reference, run(execution, fast_forward), "{execution:?}");
    }
}
