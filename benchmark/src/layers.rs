//! The traced run's per-layer pass over a direct workload: one measured
//! cost per layer, taken from outside by timing public calls. Module names
//! are the layers.

use crate::direct::DirectRun;
use crate::metrics::Measured;
use crate::problem::{operate, Problem, Res};
use crate::span::Tracer;
use crate::stats::{lower_quartile, median, tail};
use crate::workloads::{Kind, Workload, CHUNK_EVENTS};
use crate::{Ledger, Opts};
use gpu_ref::problem::{GpuFluxProblem, GpuModel};
use perf_model::Cs2Model;
use std::hint::black_box;
use std::time::Instant;
use tpfa_dataflow::DataflowFluxSimulator;
use wse_metrics::MetricsHub;
use wse_prof::{bucket_name, Profile, PROFILE_BUCKETS};
use wse_sim::fabric::{Fabric, FabricConfig};
use wse_sim::geometry::FabricDims;
use wse_sim::trace::TraceSpec;

fn seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64())
}

/// Seconds one untraced operation takes.
fn time_op(
    sim: &mut DataflowFluxSimulator,
    kind: Kind,
    input: &[f32],
    chunk: Option<u64>,
) -> Res<f64> {
    let mut quiet = Tracer::new(false, Instant::now(), 0);
    operate(sim, kind, input, chunk, &mut quiet, 0).map(|(_, s)| s.total_s)
}

/// The order the two sides of A/B pair `pair` run in: alternating, so drift
/// favours neither side.
fn first_side(pair: usize) -> [usize; 2] {
    if pair.is_multiple_of(2) {
        [0, 1]
    } else {
        [1, 0]
    }
}

/// Median ratio of operation time on `a` over operation time on `b`,
/// measured as interleaved pairs so machine drift hits both sides alike.
/// `chunk_a` steps side A in chunks (the chunked-vs-single-call ratio).
#[allow(clippy::too_many_arguments)]
fn paired_ratio(
    w: &Workload,
    o: &Opts,
    problem: &Problem,
    next_index: &mut u64,
    a: &mut DataflowFluxSimulator,
    chunk_a: Option<u64>,
    b: Option<&mut DataflowFluxSimulator>,
    ledger: &mut Ledger,
) -> Res<f64> {
    let mut ratios = Vec::new();
    // With no separate B simulator both sides run on `a`.
    let mut b = b;
    for pair in 0..w.ab_pairs {
        let input = problem.input(o.seed, *next_index);
        *next_index += 1;
        let mut times = [0.0; 2]; // [A, B]
        for side in first_side(pair) {
            times[side] = match (side, b.as_deref_mut()) {
                (0, _) => time_op(a, w.kind, &input, chunk_a)?,
                (_, Some(b)) => time_op(b, w.kind, &input, None)?,
                (_, None) => time_op(a, w.kind, &input, None)?,
            };
            ledger.op();
        }
        ratios.push(times[0] / times[1]);
    }
    Ok(median(&ratios))
}

/// Replays the build through the built simulator's `workload()`:
/// compile → route programs → `Fabric::new` → `load` → `upload_static`,
/// then one raw apply on the replayed fabric for the engine-dependent
/// fast-forward counters the driver does not expose.
fn replay_build(o: &Opts, run: &DirectRun, tr: &mut Tracer, m: &mut Measured, ledger: &mut Ledger) {
    let workload = run.sim.workload().clone();
    let (nx, ny) = workload.grid();
    let dims = FabricDims::new(nx, ny);
    let config = FabricConfig {
        execution: run.execution,
        ..FabricConfig::default()
    };
    let pattern = workload.pattern();
    let spec = workload.compiled().spec.clone();
    let (mut compile, mut route, mut new, mut load, mut upload) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut fabric = None;
    for k in 0..3 {
        let request = (run.builds_s.len() + 1 + k) as u64;
        let root = tr.begin("setup", request);
        let (compiled, s) = tr.timed("wse-stencil.compile", request, || {
            wse_stencil::compile(&spec)
        });
        compile.push(s);
        black_box(compiled.is_ok());
        let ((), s) = tr.timed("wse-stencil.route_program", request, || {
            for c in dims.iter() {
                black_box(pattern.route_program(dims, c));
            }
        });
        route.push(s);
        let (mut f, s) = tr.timed("wse-sim.fabric_new", request, || {
            Fabric::new(dims, config, |_| workload.make_program())
        });
        new.push(s);
        let ((), s) = tr.timed("wse-sim.load", request, || f.load());
        load.push(s);
        let ((), s) = tr.timed("core.upload_static", request, || {
            workload.upload_static(&mut f)
        });
        upload.push(s);
        tr.end(root);
        fabric = Some(f);
    }
    m.set(
        "wse-stencil.compile_s",
        lower_quartile(&compile),
        compile.len(),
    );
    m.set(
        "wse-stencil.route_program_s",
        lower_quartile(&route),
        route.len(),
    );
    let classes = pattern.eq_classes(dims);
    m.set("wse-stencil.eq_classes", classes as f64, 1);
    ledger.check(
        "the pattern's route-program classes equal the loaded fabric's",
        classes == run.sim.eq_classes(),
    );
    m.set("wse-sim.fabric_new_s", lower_quartile(&new), new.len());
    m.set("wse-sim.load_s", lower_quartile(&load), load.len());
    m.set(
        "core.upload_static_s",
        lower_quartile(&upload),
        upload.len(),
    );
    let pieces = lower_quartile(&new) + lower_quartile(&load) + lower_quartile(&upload);
    m.set(
        "core.build_other_s",
        (lower_quartile(&run.builds_s) - pieces).max(0.0),
        run.builds_s.len(),
    );

    let mut fabric = fabric.expect("the build was replayed");
    match &run.problem {
        Problem::Tpfa(_) => workload.inject(&mut fabric, &run.problem.input(o.seed, 0)),
        Problem::Wave { u0, .. } => workload.inject(&mut fabric, u0),
    }
    fabric.activate_all(workload.start_color(), 0);
    if fabric.run().is_ok() {
        m.set("wse-sim.ff_hops", fabric.ff_hops() as f64, 1);
        m.set("wse-sim.ff_jumps", fabric.ff_jumps() as f64, 1);
    }
}

/// The observability layers on this problem: a live metrics hub and a
/// trace ring (which today also turns fast-forwarding off), each as an
/// interleaved ratio against the plain simulator, then the profiler on the
/// recorded trace.
fn observability(
    w: &Workload,
    o: &Opts,
    run: &mut DirectRun,
    m: &mut Measured,
    ledger: &mut Ledger,
) -> Res<()> {
    let Problem::Tpfa(p) = &run.problem else {
        return Ok(());
    };
    let builder = || {
        DataflowFluxSimulator::builder(&p.mesh)
            .fluid(&p.fluid)
            .transmissibilities(&p.trans)
            .execution(run.execution)
    };
    let mut live = builder()
        .metrics(MetricsHub::new_live())
        .build()
        .map_err(|e| format!("build with a live hub failed: {e}"))?;
    let mut ring = builder()
        .trace(TraceSpec::ring(8192))
        .build()
        .map_err(|e| format!("build with a trace ring failed: {e}"))?;
    let mut plain = builder()
        .build()
        .map_err(|e| format!("build failed: {e}"))?;
    let warm = run.problem.input(o.seed, 0);
    for sim in [&mut live, &mut ring, &mut plain] {
        time_op(sim, w.kind, &warm, None)?;
    }

    // Profile the one warm apply the ring has recorded so far.
    let trace = ring
        .trace()
        .ok_or("the ring-traced simulator has no trace")?;
    let (profile, analyze_s) = seconds(|| Profile::from_trace(&trace));
    drop(trace);
    m.set("wse-prof.analyze_s", analyze_s, 1);
    for i in 0..PROFILE_BUCKETS {
        let name = match bucket_name(i) {
            "halo-exchange" => "wse-prof.share.halo-exchange",
            "flux-compute" => "wse-prof.share.flux-compute",
            "residual-accumulate" => "wse-prof.share.residual-accumulate",
            _ => continue,
        };
        m.set(name, profile.share(i), 1);
    }

    let next = &mut run.next_index;
    let ratio = paired_ratio(
        w,
        o,
        &run.problem,
        next,
        &mut live,
        None,
        Some(&mut plain),
        ledger,
    )?;
    m.set("wse-metrics.live_apply_ratio", ratio, w.ab_pairs);
    let ratio = paired_ratio(
        w,
        o,
        &run.problem,
        next,
        &mut ring,
        None,
        Some(&mut plain),
        ledger,
    )?;
    m.set("wse-trace.ring_apply_ratio", ratio, w.ab_pairs);
    Ok(())
}

/// The GPU-style references and the modelled CS-2 time — labelled
/// modelled, never mixed with host seconds.
fn references(run: &DirectRun, serial_s: Option<f64>, m: &mut Measured) {
    let cells = run.problem.cells() as f64;
    if let Some(serial_s) = serial_s {
        m.set("fv-core.serial_cells_per_s", cells / serial_s, 1);
    }
    if let Problem::Tpfa(p) = &run.problem {
        let mut gpu = GpuFluxProblem::new(&p.mesh, &p.fluid, &p.trans);
        for (name, model) in [
            ("gpu-ref.raja_cells_per_s", GpuModel::Raja),
            ("gpu-ref.cuda_cells_per_s", GpuModel::Cuda),
        ] {
            let times: Vec<f64> = (0..3)
                .map(|_| seconds(|| gpu.apply(model, &run.last_input)).1)
                .collect();
            m.set(name, cells / lower_quartile(&times), times.len());
        }
    }
    m.set(
        "perf-model.cs2_apply_s",
        Cs2Model::default().time_from_cycles(run.counts.max_pe_cycles, run.counts.ops, 1),
        1,
    );
}

/// Fills every per-layer metric that applies to the direct phases of `w`.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    w: &Workload,
    o: &Opts,
    run: &mut DirectRun,
    serial_s: Option<f64>,
    sequential_twin: Option<&mut DataflowFluxSimulator>,
    tr: &mut Tracer,
    m: &mut Measured,
    ledger: &mut Ledger,
) -> Res<()> {
    m.set("fv-core.problem_gen_s", run.problem_gen_s, 1);

    // The apply, piece by piece, from the traced steady operations.
    let col =
        |f: fn(&crate::problem::OpSample) -> f64| run.steady.iter().map(f).collect::<Vec<_>>();
    let (totals, runs) = (col(|s| s.total_s), col(|s| s.run_s));
    let n = totals.len();
    if w.kind == Kind::Tpfa {
        m.set("core.inject_s", lower_quartile(&col(|s| s.inject_s)), n);
        m.set("core.collect_s", lower_quartile(&col(|s| s.collect_s)), n);
    }
    m.set("core.cold_apply_s", run.cold.total_s, 1);
    if let Some((_, value)) = tail(&totals) {
        m.set("core.apply_tail_s", value, n);
    }
    m.set("core.apply_samples", n as f64, n);
    m.set("wse-sim.run_s", lower_quartile(&runs), n);
    let c = &run.counts;
    m.set(
        "wse-sim.host_ns_per_event",
        lower_quartile(&runs) * 1e9 * c.ops as f64 / c.events as f64,
        n,
    );

    // Exact counts per steady operation.
    for (name, value) in [
        ("wse-sim.events", c.events),
        ("wse-sim.fabric_hops", c.fabric_hops),
        ("wse-sim.ramp_deliveries", c.ramp_deliveries),
        ("wse-sim.flow_stalls", c.flow_stalls),
        ("wse-sim.queue_wait_cycles", c.queue_wait_cycles),
        ("wse-sim.flops", c.total.flops()),
        ("wse-sim.mem_bytes", c.total.mem_bytes()),
        (
            "wse-sim.fabric_bytes",
            c.total.fabric_in_bytes() + c.total.fabric_out_bytes(),
        ),
        ("wse-sim.max_pe_cycles", c.max_pe_cycles),
        ("wse-sim.region_ff_jumps", c.region_ff_jumps),
    ] {
        m.set(name, value as f64 / c.ops as f64, c.ops);
    }

    // Checkpoint layer.
    let trip = |f: fn(&crate::direct::RoundTrip) -> f64| {
        lower_quartile(&run.round_trips.iter().map(f).collect::<Vec<_>>())
    };
    let trips = run.round_trips.len();
    m.set("wse-serve.capture_s", trip(|r| r.capture_s), trips);
    m.set("wse-serve.encode_s", trip(|r| r.encode_s), trips);
    m.set("wse-serve.decode_s", trip(|r| r.decode_s), trips);
    m.set("wse-serve.restore_s", trip(|r| r.restore_s), trips);
    m.set(
        "wse-serve.checkpoint_bytes",
        trip(|r| r.bytes as f64),
        trips,
    );

    replay_build(o, run, tr, m, ledger);
    references(run, serial_s, m);

    // Tracing overhead: the same operation with spans on and off,
    // alternating in this process.
    let mut ratios = Vec::new();
    for pair in 0..w.ab_pairs {
        let input = run.problem.input(o.seed, run.next_index);
        let mut times = [0.0; 2]; // [spans on, spans off]
        for side in first_side(pair) {
            tr.set_enabled(side == 0);
            let (_, sample) = operate(&mut run.sim, w.kind, &input, None, tr, run.next_index)?;
            times[side] = sample.total_s;
        }
        tr.set_enabled(true);
        run.next_index += 1;
        ratios.push(times[0] / times[1]);
    }
    m.set("bench.trace_overhead_ratio", median(&ratios), ratios.len());

    // Ratios against the plain single-call run, interleaved.
    if w.kind == Kind::Tpfa {
        let (problem, next, sim) = (&run.problem, &mut run.next_index, &mut run.sim);
        let ratio = paired_ratio(w, o, problem, next, sim, Some(CHUNK_EVENTS), None, ledger)?;
        m.set("wse-sim.chunked_run_ratio", ratio, w.ab_pairs);
        if let Some(twin) = sequential_twin {
            let ratio = paired_ratio(w, o, problem, next, sim, None, Some(twin), ledger)?;
            m.set("wse-sim.sharded_vs_sequential", ratio, w.ab_pairs);
        }
    }
    if w.observability {
        observability(w, o, run, m, ledger)?;
    }
    Ok(())
}
