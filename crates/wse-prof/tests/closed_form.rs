//! A hand-built 3-PE pipeline whose critical path is known in closed form.
//!
//! PE0 ──A──▶ PE1 ──B──▶ PE2 on a 3×1 fabric, hop latency 1:
//!
//! * PE0 is injected at t=0, computes `W0` cycles, sends one wavelet east;
//! * PE1 receives it at `W0 + 1` (a single-wavelet flush leaves the router
//!   at the task's own end, then one hop), computes `W1` cycles inside a
//!   flux-compute region, sends east;
//! * PE2 receives at `W0 + W1 + 2` and computes `W2` cycles.
//!
//! ```text
//! makespan = W0 + W1 + W2 + 2·hop_latency
//! ```
//!
//! Every step of the recovered path is asserted against this closed form,
//! and the attribution must put exactly `W1` cycles into flux-compute.

use wse_prof::{critical_path, PathStep, Profile, OTHER_REGION};
use wse_sim::dsd::{Dsd, Operand};
use wse_sim::fabric::{Fabric, FabricConfig};
use wse_sim::geometry::{Direction, FabricDims, PeCoord};
use wse_sim::pe::{PeContext, PeProgram};
use wse_sim::route::{ColorConfig, DirMask, RouterPosition};
use wse_sim::wavelet::{Color, Wavelet};
use wse_trace::{TraceRegion, TraceSpec};

const A: Color = Color::new(0);
const B: Color = Color::new(1);
const START: Color = Color::new(2);

const W0: u64 = 11;
const W1: u64 = 7;
const W2: u64 = 5;

/// One stage of the pipeline: `work` cycles of FMUL, then (optionally) one
/// wavelet on `send` — PE1's work is marked as flux-compute.
struct Stage {
    work: usize,
    recv_color: Option<Color>,
    send: Option<Color>,
    mark_region: bool,
    buf: Option<Dsd>,
}

impl Stage {
    fn run(&mut self, ctx: &mut PeContext) {
        let dst = self.buf.expect("init ran");
        if self.mark_region {
            ctx.region_begin(TraceRegion::FluxCompute);
        }
        ctx.fmuls(dst, Operand::Scalar(2.0), Operand::Scalar(3.0));
        if self.mark_region {
            ctx.region_end(TraceRegion::FluxCompute);
        }
        if let Some(color) = self.send {
            ctx.send_f32(color, 6.0);
        }
    }
}

impl PeProgram for Stage {
    fn init(&mut self, ctx: &mut PeContext) {
        let r = ctx.alloc(self.work);
        self.buf = Some(Dsd::contiguous(r.offset, self.work));
        // Inbound color: west → ramp; outbound color: ramp → east.
        if let Some(c) = self.recv_color {
            ctx.configure_color(
                c,
                ColorConfig::fixed(RouterPosition::new(
                    DirMask::single(Direction::West),
                    DirMask::single(Direction::Ramp),
                )),
            );
        }
        if let Some(c) = self.send {
            ctx.configure_color(
                c,
                ColorConfig::fixed(RouterPosition::new(
                    DirMask::single(Direction::Ramp),
                    DirMask::single(Direction::East),
                )),
            );
        }
    }

    fn on_data(&mut self, ctx: &mut PeContext, w: Wavelet) {
        let expected = self.recv_color.unwrap_or(START);
        assert_eq!(w.color, expected, "stage activated on the wrong color");
        self.run(ctx);
    }

    fn on_control(&mut self, _ctx: &mut PeContext, _w: Wavelet) {
        unreachable!("fixture sends no control wavelets");
    }
}

fn build() -> Fabric {
    let dims = FabricDims::new(3, 1);
    let config = FabricConfig {
        trace: TraceSpec::ring(256),
        ..FabricConfig::default()
    };
    let mut f = Fabric::new(dims, config, |c| {
        let stage = match c.col {
            0 => Stage {
                work: W0 as usize,
                recv_color: None,
                send: Some(A),
                mark_region: false,
                buf: None,
            },
            1 => Stage {
                work: W1 as usize,
                recv_color: Some(A),
                send: Some(B),
                mark_region: true,
                buf: None,
            },
            _ => Stage {
                work: W2 as usize,
                recv_color: Some(B),
                send: None,
                mark_region: false,
                buf: None,
            },
        };
        Box::new(stage)
    });
    f.load();
    f
}

#[test]
fn three_pe_pipeline_matches_closed_form() {
    let mut f = build();
    f.activate(PeCoord::new(0, 0), START, 0);
    f.run().expect("pipeline run failed");
    let trace = f.trace().expect("tracing on");
    let cp = critical_path(&trace, 1).expect("has tasks");

    let makespan = W0 + W1 + W2 + 2;
    assert_eq!(cp.makespan, makespan);
    assert_eq!(cp.task_cycles, W0 + W1 + W2);
    assert_eq!(cp.hop_cycles, 2);
    assert_eq!(cp.wait_cycles, 0);
    assert_eq!(cp.origin_time, 0);
    assert_eq!(cp.on_path_tasks, 3);
    assert_eq!(cp.off_path_tasks, 0);
    assert!(cp.slack_histogram.is_empty());
    // Both hops go east, none elsewhere (link codes: N,E,S,W,ramp).
    assert_eq!(cp.link_hops, [0, 2, 0, 0, 0]);

    // The step list, in chronological order and in closed form.
    let expected = [
        PathStep::Inject { pe: 0, time: 0 },
        PathStep::Task {
            pe: 0,
            color: START.id(),
            start: 0,
            end: W0,
        },
        PathStep::Hop {
            from_pe: 0,
            to_pe: 1,
            color: A.id(),
            link: Direction::East as u16,
            depart: W0,
            arrive: W0 + 1,
        },
        PathStep::Task {
            pe: 1,
            color: A.id(),
            start: W0 + 1,
            end: W0 + 1 + W1,
        },
        PathStep::Hop {
            from_pe: 1,
            to_pe: 2,
            color: B.id(),
            link: Direction::East as u16,
            depart: W0 + 1 + W1,
            arrive: W0 + 2 + W1,
        },
        PathStep::Task {
            pe: 2,
            color: B.id(),
            start: W0 + 2 + W1,
            end: makespan,
        },
    ];
    assert_eq!(cp.steps, expected);

    // Bounding accounting: PE0 carries the most on-path cycles.
    assert_eq!(cp.pe_cycles[0], (0, W0));
    assert_eq!(cp.hops(), 2);
}

#[test]
fn three_pe_attribution_is_exact() {
    let mut f = build();
    f.activate(PeCoord::new(0, 0), START, 0);
    f.run().expect("pipeline run failed");
    let trace = f.trace().expect("tracing on");
    let p = Profile::from_trace(&trace);

    let flux = TraceRegion::FluxCompute.code() as usize;
    assert_eq!(p.unpaired_markers(), 0);
    // PE1's marked work lands in flux-compute; PE0/PE2's unmarked work in
    // the "other" bucket. send_f32 costs nothing (a single outbox push).
    assert_eq!(p.regions[flux].counters.compute_cycles, W1);
    assert_eq!(p.regions[OTHER_REGION].counters.compute_cycles, W0 + W2);
    assert_eq!(p.attributed_cycles(), W0 + W1 + W2);
    assert_eq!(
        p.per_pe.iter().map(|c| c.cycles()).collect::<Vec<_>>(),
        vec![W0, W1, W2]
    );
    assert_eq!(p.max_pe, 0);
    // Idle of the pacing PE: everything after its own task.
    assert_eq!(p.idle_cycles(0), p.horizon - W0);
}
