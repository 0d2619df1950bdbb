//! The direct workloads: build → apply → collect → checkpoint on one
//! simulator, timed from outside through the public API.

use crate::metrics::Measured;
use crate::problem::{bit_identical, operate, serial_wave, wave_deviation, OpSample, Problem, Res};
use crate::span::Tracer;
use crate::stats::lower_quartile;
use crate::workloads::{Kind, Workload};
use crate::{Ledger, Opts};
use std::time::{Duration, Instant};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_serve::Checkpoint;
use wse_sim::fabric::Execution;
use wse_sim::stats::OpCounters;

/// Wave steps cross-checked against `serial_wave_step`.
const WAVE_CHECKED_STEPS: usize = 8;
/// Tolerance of that cross-check (the repository's own tests use 2e-5 to
/// 3e-5 over 8 to 12 steps).
const WAVE_TOLERANCE: f64 = 5e-5;

/// Timings of one checkpoint round trip.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundTrip {
    pub total_s: f64,
    pub capture_s: f64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub restore_s: f64,
    pub bytes: usize,
}

/// Exact simulated counts, summed over the first `ops` steady operations:
/// always the same operations, however long the loop then runs on. (The
/// cycles of single applies differ by a cycle or two with the clock value
/// they start at, so a per-apply figure is a mean over a fixed set.)
#[derive(Default)]
pub struct Counts {
    pub ops: usize,
    pub cycles: u64,
    pub events: u64,
    /// Summed PE instruction and traffic counters.
    pub total: OpCounters,
    pub fabric_hops: u64,
    pub ramp_deliveries: u64,
    pub flow_stalls: u64,
    /// Cycles the pacing (slowest) PE advanced by.
    pub max_pe_cycles: u64,
    pub queue_wait_cycles: u64,
    pub region_ff_jumps: u64,
    /// `VmHWM` when the last of these operations finished.
    pub peak_rss_mb: Option<f64>,
}

/// Everything the direct phases measured; the traced run's per-layer pass
/// reads it too.
pub struct DirectRun {
    pub problem: Problem,
    pub execution: Execution,
    /// The simulator the steady operations ran on.
    pub sim: DataflowFluxSimulator,
    pub problem_gen_s: f64,
    /// `builder()…build()` seconds, first build discarded.
    pub builds_s: Vec<f64>,
    pub cold: OpSample,
    pub steady: Vec<OpSample>,
    pub round_trips: Vec<RoundTrip>,
    /// Input and output of the last steady operation.
    pub last_input: Vec<f32>,
    pub last_output: Vec<f32>,
    pub counts: Counts,
    /// Operations issued so far (the next request id and input index).
    pub next_index: u64,
}

/// Checkpoint round trips — capture, encode, decode, restore into `mirror`
/// — at one pause: at half an apply's events (TPFA) or between two steps
/// (wave: `advance()` cannot be paused from outside). The state is the same
/// for every trip of a pause, so one paused apply yields `trips` samples.
/// Both simulators then finish the same operation; the restored result
/// must be bit-identical.
#[allow(clippy::too_many_arguments)]
fn round_trips_at_pause(
    kind: Kind,
    sim: &mut DataflowFluxSimulator,
    mirror: &mut DataflowFluxSimulator,
    input: &[f32],
    half_events: u64,
    trips: usize,
    tr: &mut Tracer,
    request: u64,
    ledger: &mut Ledger,
) -> Res<Vec<RoundTrip>> {
    if kind == Kind::Tpfa {
        sim.begin_apply(input);
        let step = sim
            .step_events(half_events)
            .map_err(|e| format!("fabric error before the checkpoint: {e}"))?;
        if step.complete {
            return Err("half an apply's events finished the apply".into());
        }
    }
    let mut samples = Vec::new();
    for _ in 0..trips {
        let mut rt = RoundTrip::default();
        let root = tr.begin("checkpoint", request);
        let (captured, capture_s) =
            tr.timed("wse-serve.capture", request, || Checkpoint::capture(sim));
        let (bytes, encode_s) = tr.timed("wse-serve.encode", request, || captured.encode());
        let (decoded, decode_s) =
            tr.timed("wse-serve.decode", request, || Checkpoint::decode(&bytes));
        let decoded = decoded.map_err(|e| format!("checkpoint does not decode: {e}"))?;
        let (restored, restore_s) = tr.timed("wse-serve.restore", request, || {
            decoded.restore_into(mirror)
        });
        rt.total_s = tr.end(root);
        restored.map_err(|e| format!("checkpoint does not restore: {e}"))?;
        (rt.capture_s, rt.encode_s, rt.decode_s, rt.restore_s) =
            (capture_s, encode_s, decode_s, restore_s);
        rt.bytes = bytes.len();
        ledger.op();
        samples.push(rt);
    }

    let finish = |s: &mut DataflowFluxSimulator| match kind {
        Kind::Tpfa => s.finish_apply(),
        Kind::Wave => s.advance(),
    };
    let original = finish(sim).map_err(|e| format!("fabric error after the checkpoint: {e}"))?;
    let resumed = finish(mirror).map_err(|e| format!("fabric error after the restore: {e}"))?;
    ledger.check_quiet(
        "result finished from a restored checkpoint is bit-identical",
        bit_identical(&original, &resumed),
    );
    Ok(samples)
}

/// Runs the direct phases of `w` and records its end-to-end metrics.
pub fn run(
    w: &Workload,
    o: &Opts,
    tr: &mut Tracer,
    m: &mut Measured,
    ledger: &mut Ledger,
) -> Res<DirectRun> {
    let dims = w.dims(o.smoke);
    let execution = w.execution(o.nproc);
    let (problem, problem_gen_s) = tr.timed("fv-core.problem_gen", 0, || {
        Problem::generate(w.kind, dims, o.seed)
    });

    // Two builds to start with: the first becomes the simulator (and is
    // discarded from `setup_s`), the second the restore target.
    let mut all_builds_s = Vec::new();
    let mut timed_build = |tr: &mut Tracer, ledger: &mut Ledger| {
        let request = all_builds_s.len() as u64;
        let root = tr.begin("setup", request);
        let (built, _) = tr.timed("core.build", request, || problem.build(execution));
        all_builds_s.push(tr.end(root));
        ledger.op();
        built
    };
    let mut sim = timed_build(tr, ledger)?;
    let mut mirror = timed_build(tr, ledger)?;
    problem.set_initial(&mut sim);

    // Cold operation: lazy memory banks and fast-forward tables fill here.
    let mut index = 0u64;
    let input = problem.input(o.seed, index);
    let (_, cold) = operate(&mut sim, w.kind, &input, None, tr, index)?;
    ledger.op();
    index += 1;

    // The first wave steps are cross-checked against the serial scheme.
    if let Problem::Wave { u0, .. } = &problem {
        let (mut u, mut u_prev) = (serial_wave(&problem, u0, u0), u0.clone());
        let mut worst = wave_deviation(&u, &sim.read_output());
        for _ in 1..WAVE_CHECKED_STEPS {
            let (field, _) = operate(&mut sim, w.kind, &[], None, tr, index)?;
            index += 1;
            let next = serial_wave(&problem, &u, &u_prev);
            u_prev = std::mem::replace(&mut u, next);
            worst = worst.max(wave_deviation(&u, &field));
        }
        println!(
            "  wave vs serial_wave_step over {WAVE_CHECKED_STEPS} steps: max deviation {worst:.3e}"
        );
        ledger.check(
            "first wave steps match serial_wave_step",
            worst <= WAVE_TOLERANCE,
        );
    }

    // The steady loop, for `--seconds` and at least the minimum counts. Each
    // turn builds once, applies once (a different input each time) and,
    // every `pause_every`-th turn, pauses one more apply half-way for
    // checkpoint round trips — so every kind of sample is spread over the
    // whole window and sees the host's fast and slow spells alike. Exact
    // counts and peak memory are taken when `min_ops` applies are done:
    // always the same work, however fast the host is.
    let (min_ops, min_pauses) = if o.smoke {
        (3, 1)
    } else {
        (w.min_ops, w.min_pauses)
    };
    let deadline = Instant::now() + Duration::from_secs_f64(o.seconds);
    let mut steady: Vec<OpSample> = Vec::new();
    let mut round_trips = Vec::new();
    let mut pauses = 0;
    let (mut last_input, mut last_output) = (Vec::new(), Vec::new());
    let counters =
        |sim: &DataflowFluxSimulator| (sim.stats(), sim.queue_wait_cycles(), sim.region_ff_jumps());
    let mut counts = Counts::default();
    while steady.len() < min_ops || pauses < min_pauses || Instant::now() < deadline {
        drop(timed_build(tr, ledger)?);

        let input = problem.input(o.seed, index);
        let before = (steady.len() < min_ops).then(|| counters(&sim));
        let (output, sample) = operate(&mut sim, w.kind, &input, None, tr, index)?;
        ledger.op();
        index += 1;
        if let Some(before) = before {
            let after = counters(&sim);
            counts.ops += 1;
            counts.cycles += sample.cycles;
            counts.events += sample.events;
            counts.total.merge(&after.0.total.delta(&before.0.total));
            counts.fabric_hops += after.0.fabric_hops - before.0.fabric_hops;
            counts.ramp_deliveries += after.0.ramp_deliveries - before.0.ramp_deliveries;
            counts.flow_stalls += after.0.flow_stalls - before.0.flow_stalls;
            counts.max_pe_cycles += after.0.max_pe_cycles - before.0.max_pe_cycles;
            counts.queue_wait_cycles += after.1 - before.1;
            counts.region_ff_jumps += after.2 - before.2;
        }
        steady.push(sample);
        (last_input, last_output) = (input, output);
        if steady.len() == min_ops {
            counts.peak_rss_mb = crate::env::status_mb("VmHWM:");
        }

        if steady.len().is_multiple_of(w.pause_every) {
            let input = problem.input(o.seed, index);
            round_trips.extend(round_trips_at_pause(
                w.kind,
                &mut sim,
                &mut mirror,
                &input,
                cold.events / 2,
                w.trips_per_pause,
                tr,
                index,
                ledger,
            )?);
            index += 1;
            pauses += 1;
        }
    }
    let builds_s = all_builds_s.split_off(1);
    println!(
        "  {} builds after the first, {} steady operations, {} round trips at {pauses} pauses",
        builds_s.len(),
        steady.len(),
        round_trips.len()
    );
    if o.corrupt {
        crate::flip_bit(&mut last_output);
    }

    // End-to-end metrics.
    let totals: Vec<f64> = steady.iter().map(|s| s.total_s).collect();
    let steady_wall: f64 = totals.iter().sum();
    let trips: Vec<f64> = round_trips.iter().map(|r| r.total_s).collect();
    m.set("setup_s", lower_quartile(&builds_s), builds_s.len());
    m.set("apply_s", lower_quartile(&totals), totals.len());
    m.set(
        "bench.cell_updates_per_s",
        (problem.cells() * steady.len()) as f64 / steady_wall,
        steady.len(),
    );
    m.set(
        "sim_cycles_per_apply",
        counts.cycles as f64 / counts.ops as f64,
        counts.ops,
    );
    m.set(
        "checkpoint_roundtrip_s",
        lower_quartile(&trips),
        trips.len(),
    );
    m.set(
        "peak_rss_mb",
        counts
            .peak_rss_mb
            .ok_or("cannot read VmHWM from /proc/self/status")?,
        1,
    );

    Ok(DirectRun {
        problem,
        execution,
        sim,
        problem_gen_s,
        builds_s,
        cold,
        steady,
        round_trips,
        last_input,
        last_output,
        counts,
        next_index: index,
    })
}

/// Output checks of a finished direct run: the last residual against the
/// serial reference, and the sharded engine against a sequential run.
/// Returns the seconds the serial reference took and, for a sharded
/// workload, the sequential twin for the traced run's A/B.
pub fn check_outputs(
    w: &Workload,
    run: &DirectRun,
    ledger: &mut Ledger,
) -> Res<(Option<f64>, Option<DataflowFluxSimulator>)> {
    let mut serial_s = None;
    if let Problem::Tpfa(_) = run.problem {
        let t0 = Instant::now();
        let reference = run.problem.serial_reference(&run.last_input);
        serial_s = Some(t0.elapsed().as_secs_f64());
        ledger.check(
            "last residual matches the serial fv-core reference (1e-3)",
            Problem::within_tolerance(&reference, &run.last_output),
        );
    }
    // A residual's low bits depend on the clock value its apply starts at
    // (flux contributions arrive, and are summed, in a different order), so
    // the engines are compared on fresh simulators with equal histories.
    let mut twin = None;
    if matches!(run.execution, Execution::Sharded { .. }) {
        let mut quiet = Tracer::new(false, Instant::now(), 0);
        let mut outputs = Vec::new();
        for execution in [run.execution, Execution::Sequential] {
            let mut sim = run.problem.build(execution)?;
            let (output, _) = operate(&mut sim, w.kind, &run.last_input, None, &mut quiet, 0)?;
            outputs.push(output);
            twin = Some(sim);
        }
        ledger.check(
            "sharded residual is bit-identical to a sequential run",
            bit_identical(&outputs[0], &outputs[1]),
        );
    }
    Ok((serial_s, twin))
}
