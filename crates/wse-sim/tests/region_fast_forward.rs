//! Closed-form fixture for **region fast-forwarding**: a homogeneous run
//! of identically-programmed PEs (one route-table equivalence class) is
//! crossed in bulk — one jump, bulk hop/cycle accounting — and every
//! number is checked against hand arithmetic, not a reference run.
//!
//! The region counter contract under test:
//!
//! - `ff_jumps` counts every jump, `region_ff_jumps` only jumps that
//!   crossed >= 2 PEs (a "region", not a mere pass-through);
//! - both are engine-DEPENDENT (shard boundaries cut a region into
//!   per-shard segments) and excluded from the determinism contract;
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

/// A width-W eastbound region: cols `0..W-1` share one identical fixed
/// route (accept West *or* Ramp, forward East) — a single equivalence
/// class — and the last column sinks the stream up its ramp. The whole
/// path, injection hop included, is one fast-forwardable region.
struct RegionChain {
    width: usize,
}

impl PeProgram for RegionChain {
    fn init(&mut self, ctx: &mut PeContext) {
        let cfg = if ctx.coord.col == self.width - 1 {
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
        ctx.configure_color(CHAIN, cfg);
    }
    fn on_data(&mut self, ctx: &mut PeContext, w: Wavelet) {
        if w.color == KICK && ctx.coord.col == 0 {
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
    let config = FabricConfig {
        execution,
        fast_forward,
        hop_latency: L,
        ..FabricConfig::default()
    };
    let mut f = Fabric::new(FabricDims::new(width, 1), config, |_| {
        Box::new(RegionChain { width })
    });
    f.load();
    f.activate(PeCoord::new(0, 0), KICK, 0);
    let report = f.run().expect("region run failed");
    RegionRun {
        report,
        stats: f.stats(),
        final_time: f.time(),
        hops: (0..width)
            .map(|x| f.fabric_hops_at(PeCoord::new(x, 0)))
            .collect(),
        memories: (0..width)
            .map(|x| f.memory(PeCoord::new(x, 0)).read_u32(0))
            .collect(),
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
/// - two shards cut the region at the col-5/col-6 boundary into 6 + 5
///   hop segments: two jumps, both regions;
/// - route interning sees exactly 2 classes: the homogeneous forwarders
///   and the sink.
#[test]
fn region_jump_matches_closed_form() {
    const W: usize = 12;
    type Observables = (RunReport, FabricStats, u64, Vec<u64>, Vec<u32>);
    let mut reference: Option<Observables> = None;
    for execution in [
        Execution::Sequential,
        Execution::Sharded {
            shards: 2,
            threads: 2,
        },
    ] {
        for ff in [false, true] {
            let label = format!("{execution:?} ff={ff}");
            let r = run_region(W, execution, ff);
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
            let (jumps, regions) = match (execution, ff) {
                (_, false) => (0, 0),
                (Execution::Sequential, true) => (1, 1),
                (Execution::Sharded { .. }, true) => (2, 2),
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
