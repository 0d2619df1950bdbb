//! Closed-form fixture for **region fast-forwarding**: a homogeneous run
//! of identically-programmed PEs (one route-table equivalence class) is
//! crossed in bulk — one jump, bulk hop/cycle accounting — and every
//! number is checked against hand arithmetic, not a reference run.
//!
//! The region counter contract under test:
//!
//! - `ff_jumps` counts every jump, `region_ff_jumps` only jumps that
//!   crossed >= 2 PEs (a "region", not a mere pass-through);
//! - both are engine-DEPENDENT (the parallel engine's row-strip edges cut
//!   a region into per-strip segments) and excluded from the determinism
//!   contract;
//! - everything else — events, final time, per-router hops, stats,
//!   memories — is bit-identical across engines and fast-forward
//!   settings.

use wse_sim::fabric::{Execution, Fabric, FabricConfig, RunReport};
use wse_sim::geometry::{Direction, FabricDims, PeCoord};
use wse_sim::pe::{PeContext, PeProgram};
use wse_sim::route::{ColorConfig, DirMask, RouterPosition};
use wse_sim::stats::FabricStats;
use wse_sim::wavelet::{Color, Wavelet};

const KICK: Color = Color::new(0);
const CHAIN: Color = Color::new(9);
const L: u64 = 2; // hop latency for every run in this file

/// A length-W region along one row (`out` = East) or one column (`out` =
/// South): PEs `0..W-1` share one identical fixed route (accept the
/// upstream link *or* Ramp, forward `out`) — a single equivalence class —
/// and the last PE sinks the stream up its ramp. The whole path, injection
/// hop included, is one fast-forwardable region.
struct RegionChain {
    width: usize,
    out: Direction,
}

impl RegionChain {
    /// A PE's position along the chain.
    fn along(&self, c: PeCoord) -> usize {
        c.col + c.row
    }
}

impl PeProgram for RegionChain {
    fn init(&mut self, ctx: &mut PeContext) {
        let upstream = self.out.arrival_side();
        let cfg = if self.along(ctx.coord) == self.width - 1 {
            ColorConfig::fixed(RouterPosition::new(
                DirMask::single(upstream),
                DirMask::single(Direction::Ramp),
            ))
        } else {
            ColorConfig::fixed(RouterPosition::new(
                DirMask::of(&[upstream, Direction::Ramp]),
                DirMask::single(self.out),
            ))
        };
        ctx.configure_color(CHAIN, cfg);
        ctx.alloc(1);
    }
    fn on_data(&mut self, ctx: &mut PeContext, w: Wavelet) {
        if w.color == KICK && self.along(ctx.coord) == 0 {
            ctx.send_f32(CHAIN, 42.0);
        } else if w.color == CHAIN {
            let seen = ctx.memory.read_u32(0);
            ctx.memory.write_u32(0, seen + 1);
        }
    }
}

struct RegionRun {
    report: RunReport,
    stats: FabricStats,
    final_time: u64,
    hops: Vec<u64>,
    memories: Vec<u32>,
    ff_jumps: u64,
    region_ff_jumps: u64,
    eq_classes: usize,
}

fn run_region(width: usize, execution: Execution, fast_forward: bool) -> RegionRun {
    run_region_along(Direction::East, width, execution, fast_forward)
}

fn run_region_along(
    out: Direction,
    width: usize,
    execution: Execution,
    fast_forward: bool,
) -> RegionRun {
    let config = FabricConfig {
        execution,
        fast_forward,
        hop_latency: L,
        ..FabricConfig::default()
    };
    let (dims, at): (_, fn(usize) -> PeCoord) = match out {
        Direction::East => (FabricDims::new(width, 1), |x| PeCoord::new(x, 0)),
        Direction::South => (FabricDims::new(1, width), |y| PeCoord::new(0, y)),
        other => panic!("no {other:?}-bound fixture"),
    };
    let mut f = Fabric::new(dims, config, |_| Box::new(RegionChain { width, out }));
    f.load();
    f.activate(PeCoord::new(0, 0), KICK, 0);
    let report = f.run().expect("region run failed");
    RegionRun {
        report,
        stats: f.stats(),
        final_time: f.time(),
        hops: (0..width).map(|i| f.pe_stats(at(i)).fabric_hops).collect(),
        memories: (0..width).map(|i| f.memory(at(i))[0]).collect(),
        ff_jumps: f.ff_jumps(),
        region_ff_jumps: f.region_ff_jumps(),
        eq_classes: f.eq_classes(),
    }
}

/// Width 12, hop latency 2, one wavelet. Hand arithmetic:
///
/// - the kick activation costs 1 event; the wavelet crosses 11 fabric
///   links (cols 0–10 each forward once, the sink forwards nothing), so
///   the sink's ramp delivery lands at exactly t = 11·L = 22;
/// - event budget: 1 activation + 12 router pops + 1 sink delivery = 14,
///   identical with bulk accounting (a k-hop jump bills 1 + (k-1) pops);
/// - sequentially the whole 11-hop region is ONE jump (`ff_jumps` = 1)
///   and it crosses >= 2 PEs (`region_ff_jumps` = 1);
/// - the parallel engine cuts the fabric into row strips, so the same
///   region laid along a *column* and run on two strips is cut at the
///   row-5/row-6 edge into 6 + 5 hop segments — two jumps, both regions —
///   while along a row (one strip: `shards` clamps to the row count) it
///   stays one jump;
/// - route interning sees exactly 2 classes: the homogeneous forwarders
///   and the sink.
#[test]
fn region_jump_matches_closed_form() {
    const W: usize = 12;
    type Observables = (RunReport, FabricStats, u64, Vec<u64>, Vec<u32>);
    let mut reference: Option<Observables> = None;
    let two_strips = Execution::Sharded {
        shards: 2,
        threads: 2,
    };
    for (out, execution) in [
        (Direction::East, Execution::Sequential),
        (Direction::East, two_strips),
        (Direction::South, Execution::Sequential),
        (Direction::South, two_strips),
    ] {
        for ff in [false, true] {
            let label = format!("{out:?}-bound {execution:?} ff={ff}");
            let r = run_region_along(out, W, execution, ff);
            assert_eq!(r.report.events, 14, "{label}: event count");
            assert_eq!(r.final_time, 11 * L, "{label}: sink arrival time");
            assert_eq!(r.stats.fabric_hops, 11, "{label}: total hops");
            let mut want_hops = vec![1u64; W - 1];
            want_hops.push(0);
            assert_eq!(r.hops, want_hops, "{label}: per-router hops");
            let mut want_mem = vec![0u32; W - 1];
            want_mem.push(1);
            assert_eq!(r.memories, want_mem, "{label}: exactly one delivery");
            assert_eq!(r.eq_classes, 2, "{label}: class count");
            let (jumps, regions) = match (out, execution, ff) {
                (_, _, false) => (0, 0),
                (Direction::South, Execution::Sharded { .. }, true) => (2, 2),
                (_, _, true) => (1, 1),
            };
            assert_eq!(r.ff_jumps, jumps, "{label}: ff_jumps");
            assert_eq!(r.region_ff_jumps, regions, "{label}: region_ff_jumps");
            // The deterministic observables pin a single answer across
            // the whole matrix.
            let obs = (r.report, r.stats, r.final_time, r.hops, r.memories);
            match &reference {
                None => reference = Some(obs),
                Some(want) => assert_eq!(want, &obs, "{label}: diverged"),
            }
        }
    }
}

/// The >= 2 threshold: a 1-hop pass-through is a jump but not a region.
#[test]
fn single_hop_jumps_are_not_regions() {
    // Width 2: the source forwards once, straight into the sink.
    let r = run_region(2, Execution::Sequential, true);
    assert_eq!(r.stats.fabric_hops, 1);
    assert_eq!(r.ff_jumps, 1, "a 1-hop jump is still a jump");
    assert_eq!(r.region_ff_jumps, 0, "but not a region");
    // Width 3: two hops — the smallest region.
    let r = run_region(3, Execution::Sequential, true);
    assert_eq!(r.stats.fabric_hops, 2);
    assert_eq!(r.ff_jumps, 1);
    assert_eq!(r.region_ff_jumps, 1, "2 hops is the smallest region");
}

/// With fast-forward off the counters stay at zero.
#[test]
fn counters_stay_zero_without_fast_forward() {
    let r = run_region(12, Execution::Sequential, false);
    assert_eq!(r.ff_jumps, 0);
    assert_eq!(r.region_ff_jumps, 0);
}
