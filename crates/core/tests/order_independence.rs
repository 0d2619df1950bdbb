//! Order-independence pin: the engines promise a *per-PE* event order, not
//! a global one, so everything observable must be a function of the program
//! alone — whatever schedule the engine uses inside a simulated cycle,
//! however the PE grid is sharded, and wherever a chunked run pauses.
//!
//! The digests below were recorded at the commit *before* the engines
//! switched from the global `(time, seq, src)` pop order to PE-major
//! `(time, pe, seq, src)`. They cover residual bits, every PE's
//! [`OpCounters`], every per-PE scalar (`queue_wait_cycles`, `fabric_hops`,
//! `ramp_deliveries`, `edge_drops`, `flow_stalls`), `RunReport.events` /
//! `final_time`, and the per-PE trace streams of a ring-traced run, on both
//! engines, single-call and chunked. A schedule change that alters any of
//! them is a behaviour change, not a schedule change.

use fv_core::eos::Fluid;
use fv_core::fields::PermeabilityField;
use fv_core::mesh::{CartesianMesh3, Extents, Spacing};
use fv_core::state::FlowState;
use fv_core::trans::{StencilKind, Transmissibilities};
use tpfa_dataflow::wave::{WaveParams, WaveWorkload};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_sim::fabric::Execution;
use wse_sim::stats::OpCounters;
use wse_sim::trace::TraceSpec;

const TPFA_STATE_FNV: u64 = 0x3c35_67b3_a0fa_708c;
const TPFA_TRACE_FNV: u64 = 0x070b_3db0_6ca6_895c;
const WAVE_STATE_FNV: u64 = 0xb718_47be_9af4_7957;
const WAVE_TRACE_FNV: u64 = 0x9e71_d0f6_4e15_9687;
// The two TPFA ablations, recorded on the hand-written TPFA program that
// preceded `TpfaKernel`.
const NO_COMPUTE_STATE_FNV: u64 = 0xc16f_99b0_48a3_e9c6;
const NO_COMPUTE_TRACE_FNV: u64 = 0xbe1f_3728_5e97_6577;
const NO_DIAGONALS_STATE_FNV: u64 = 0x3ac5_537c_6920_ca67;
const NO_DIAGONALS_TRACE_FNV: u64 = 0x8314_811d_b568_d8e9;

/// Events per `step_events` call; prime, so the limit trips mid-cycle and
/// the pause runs that cycle out.
const CHUNK: u64 = 7_919;
const WAVE_STEPS: usize = 3;

const ENGINES: [Execution; 2] = [
    Execution::Sequential,
    Execution::Sharded {
        shards: 4,
        threads: 2,
    },
];

/// FNV-1a over a stream of `u64` words (little-endian bytes).
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn field(&mut self, values: &[f32]) {
        for v in values {
            self.word(u64::from(v.to_bits()));
        }
    }

    fn counters(&mut self, c: &OpCounters) {
        for w in [
            c.fmul,
            c.fsub,
            c.fadd,
            c.fma,
            c.fneg,
            c.fmov_in,
            c.fmov_out,
            c.mem_loads,
            c.mem_stores,
            c.fabric_loads,
            c.fabric_stores,
            c.eos_evals,
            c.compute_cycles,
            c.comm_cycles,
        ] {
            self.word(w);
        }
    }

    /// Every PE's counters and scalars, and the last run's totals.
    fn fabric_state(&mut self, sim: &DataflowFluxSimulator, nx: usize, ny: usize) {
        for y in 0..ny {
            for x in 0..nx {
                self.counters(sim.pe_counters(x, y));
            }
        }
        for w in sim.queue_wait_by_pe() {
            self.word(w);
        }
        // The per-PE rows of the scalar arena, in linear PE order.
        for y in 0..ny {
            for x in 0..nx {
                let s = sim.pe_stats(x, y);
                for w in [
                    s.fabric_hops,
                    s.ramp_deliveries,
                    s.edge_drops,
                    s.flow_stalls,
                ] {
                    self.word(w);
                }
            }
        }
        let report = sim.last_run().expect("a run was made");
        self.word(report.events);
        self.word(report.final_time);
    }

    /// The per-PE trace streams, each in its causal `seq` order.
    fn trace(&mut self, sim: &DataflowFluxSimulator) {
        let trace = sim.trace().expect("tracing is on");
        for (pe, stream) in trace.by_pe().into_iter().enumerate() {
            self.word(pe as u64);
            self.word(stream.len() as u64);
            for e in stream {
                self.word(e.time);
                self.word(u64::from(e.seq) << 32 | u64::from(e.payload));
                self.word(u64::from(e.kind.code()) << 24 | u64::from(e.a) << 16 | u64::from(e.b));
            }
        }
        self.word(trace.dropped);
    }
}

/// Runs the in-flight application to completion, in one call or in
/// `CHUNK`-event slices.
fn finish(sim: &mut DataflowFluxSimulator, chunked: bool) -> Vec<f32> {
    if chunked {
        while !sim.step_events(CHUNK).expect("step failed").complete {}
    }
    sim.finish_apply().expect("finish failed")
}

/// `(stencil, compute_enabled, diagonals_enabled)` of a pinned TPFA run.
type Variant = (StencilKind, bool, bool);
const FULL: Variant = (StencilKind::TenPoint, true, true);
/// The communication-only ablation (Table 3): no flux arithmetic.
const NO_COMPUTE: Variant = (StencilKind::TenPoint, false, true);
/// The cardinal-only ablation (§5.2.2), on a cardinal stencil.
const NO_DIAGONALS: Variant = (StencilKind::Cardinal, true, false);

/// `(state digest, trace digest)` of one TPFA 16×16×4 apply.
fn tpfa(execution: Execution, chunked: bool, traced: bool) -> (u64, Option<u64>) {
    tpfa_with(FULL, execution, chunked, traced)
}

fn tpfa_no_compute(execution: Execution, chunked: bool, traced: bool) -> (u64, Option<u64>) {
    tpfa_with(NO_COMPUTE, execution, chunked, traced)
}

fn tpfa_no_diagonals(execution: Execution, chunked: bool, traced: bool) -> (u64, Option<u64>) {
    tpfa_with(NO_DIAGONALS, execution, chunked, traced)
}

fn tpfa_with(
    (kind, compute, diagonals): Variant,
    execution: Execution,
    chunked: bool,
    traced: bool,
) -> (u64, Option<u64>) {
    let (nx, ny, nz) = (16, 16, 4);
    let mesh = CartesianMesh3::new(Extents::new(nx, ny, nz), Spacing::new(10.0, 10.0, 4.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 15);
    let trans = Transmissibilities::tpfa(&mesh, &perm, kind);
    let pressure = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, 3);
    let mut builder = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .compute_enabled(compute)
        .diagonals_enabled(diagonals)
        .execution(execution);
    if traced {
        builder = builder.trace(TraceSpec::ring(1 << 14));
    }
    let mut sim = builder.build().expect("build failed");
    sim.begin_apply(pressure.pressure());
    let residual = finish(&mut sim, chunked);
    let mut state = Digest::new();
    state.field(&residual);
    state.fabric_state(&sim, nx, ny);
    let trace = traced.then(|| {
        let mut d = Digest::new();
        d.trace(&sim);
        d.0
    });
    (state.0, trace)
}

/// `(state digest, trace digest)` of three wave steps on 12×12×3. The
/// single-call form is `advance()`; the chunked form re-injects the (equal)
/// wavefields the fabric already holds, because `begin_apply` is the only
/// stepped launch.
fn wave(execution: Execution, chunked: bool, traced: bool) -> (u64, Option<u64>) {
    let (nx, ny, nz) = (12, 12, 3);
    let params = WaveParams::new(10.0, 10.0, 10.0, 1500.0, 2.0e-3, 0.5);
    let (cx, cy, cz) = (nx as f64 / 2.0, ny as f64 / 2.0, nz as f64 / 2.0);
    let mut u = vec![0.0_f32; nx * ny * nz];
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let r2 = (x as f64 + 0.5 - cx).powi(2)
                    + (y as f64 + 0.5 - cy).powi(2)
                    + (z as f64 + 0.5 - cz).powi(2);
                u[(z * ny + y) * nx + x] = (-r2 / 1.69).exp() as f32;
            }
        }
    }
    let mut builder = DataflowFluxSimulator::workload_builder()
        .workload(WaveWorkload::new(nx, ny, nz, params).expect("wave spec compiles"))
        .execution(execution);
    if traced {
        builder = builder.trace(TraceSpec::ring(1 << 14));
    }
    let mut sim = builder.build().expect("build failed");
    let mut u_prev = u.clone();
    sim.inject(&u);
    let mut state = Digest::new();
    for _ in 0..WAVE_STEPS {
        let next = if chunked {
            let both: Vec<f32> = u.iter().chain(&u_prev).copied().collect();
            sim.begin_apply(&both);
            finish(&mut sim, true)
        } else {
            sim.advance().expect("advance failed")
        };
        u_prev = std::mem::replace(&mut u, next);
        state.field(&u);
        state.fabric_state(&sim, nx, ny);
    }
    let trace = traced.then(|| {
        let mut d = Digest::new();
        d.trace(&sim);
        d.0
    });
    (state.0, trace)
}

fn assert_pinned(
    name: &str,
    run: fn(Execution, bool, bool) -> (u64, Option<u64>),
    state_pin: u64,
    trace_pin: u64,
) {
    for execution in ENGINES {
        for chunked in [false, true] {
            for traced in [false, true] {
                let label = format!("{name} {execution:?} chunked={chunked} traced={traced}");
                let (state, trace) = run(execution, chunked, traced);
                assert_eq!(state, state_pin, "{label}: state digest {state:#018x}");
                if let Some(trace) = trace {
                    assert_eq!(trace, trace_pin, "{label}: trace digest {trace:#018x}");
                }
            }
        }
    }
}

#[test]
fn tpfa_observables_do_not_depend_on_the_schedule() {
    assert_pinned("tpfa", tpfa, TPFA_STATE_FNV, TPFA_TRACE_FNV);
}

#[test]
fn tpfa_ablations_do_not_depend_on_the_schedule() {
    assert_pinned(
        "tpfa compute off",
        tpfa_no_compute,
        NO_COMPUTE_STATE_FNV,
        NO_COMPUTE_TRACE_FNV,
    );
    assert_pinned(
        "tpfa diagonals off",
        tpfa_no_diagonals,
        NO_DIAGONALS_STATE_FNV,
        NO_DIAGONALS_TRACE_FNV,
    );
}

#[test]
fn wave_observables_do_not_depend_on_the_schedule() {
    assert_pinned("wave", wave, WAVE_STATE_FNV, WAVE_TRACE_FNV);
}
