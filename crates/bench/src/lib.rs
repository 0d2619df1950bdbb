//! Shared workload generators and reporting helpers for the benchmark
//! harness.
//!
//! Every table and figure of the paper's evaluation is a markdown fragment
//! of [`paper`], printed by the `paper` binary and checked against
//! `EXPERIMENTS.md` by this crate's tests (see `DESIGN.md` for the
//! experiment index). Host wall-clock is measured by the repository
//! benchmark (`benchmark/`), not here.

use fv_core::eos::Fluid;
use fv_core::fields::PermeabilityField;
use fv_core::mesh::{CartesianMesh3, Extents, Spacing};
use fv_core::state::FlowState;
use fv_core::trans::{StencilKind, Transmissibilities};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_sim::fabric::Execution;
use wse_sim::stats::OpCounters;

pub mod cli;
pub mod paper;

pub use cli::CommonArgs;

/// The paper's production mesh (750 × 994 × 246 = 183 393 000 cells).
pub const PAPER_MESH: (usize, usize, usize) = (750, 994, 246);

/// The paper mesh's interior xy footprint, one PE per cell column — the
/// fabric the *measured* paper-scale runs instantiate (737,794 PEs).
pub const PAPER_MESH_XY: (usize, usize) = (746, 989);

/// Truncated z extent for the measured paper-scale smoke: enough for a
/// real vertical exchange (the column kernel touches z±1), small enough
/// that one apply finishes in CI.
pub const PAPER_SMOKE_NZ: usize = 2;

/// Peak resident set of this process in MiB, read from
/// `/proc/self/status` `VmHWM` — the figure `/usr/bin/time -v` reports
/// as "Maximum resident set size". `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Applications of Algorithm 1 in the paper's timing runs.
pub const PAPER_ITERATIONS: usize = 1000;

/// The standard synthetic workload: heterogeneous log-normal permeability
/// on a uniform Cartesian mesh with a water-like fluid — the stand-in for
/// the paper's proprietary geomodel (see DESIGN.md, substitution table).
pub fn standard_problem(
    nx: usize,
    ny: usize,
    nz: usize,
    seed: u64,
) -> (CartesianMesh3, Fluid, Transmissibilities) {
    let mesh = CartesianMesh3::new(Extents::new(nx, ny, nz), Spacing::new(10.0, 10.0, 4.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, seed);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    (mesh, fluid, trans)
}

/// A fresh pressure vector for iteration `i` (the paper applies Algorithm 1
/// "with a different pressure vector at every call").
pub fn pressure_for_iteration(mesh: &CartesianMesh3, i: usize) -> Vec<f32> {
    FlowState::<f32>::varied(mesh, 1.0e7, 1.2e7, i as u64)
        .pressure()
        .to_vec()
}

/// Result of a measured dataflow run at laboratory scale.
pub struct DataflowMeasurement {
    /// Per-iteration counters of the critical-path (interior) PE.
    pub interior_pe_per_iteration: OpCounters,
    /// Aggregate counters over the whole fabric and run.
    pub fabric_total: OpCounters,
}

/// Human-readable engine label for benchmark headers.
pub fn execution_label(execution: Execution) -> String {
    match execution {
        Execution::Sequential => "sequential".into(),
        Execution::Sharded { shards, threads } => {
            format!("sharded ({shards} shards, {threads} threads)")
        }
    }
}

/// Runs the dataflow simulator for `iterations` applications on an
/// `nx × ny × nz` standard problem and extracts the measured counters.
///
/// `compute` = false gives the paper's Table-3 communication-only variant.
pub fn measure_dataflow(
    nx: usize,
    ny: usize,
    nz: usize,
    iterations: usize,
    compute: bool,
) -> DataflowMeasurement {
    measure_dataflow_with(nx, ny, nz, iterations, compute, Execution::Sequential)
}

/// [`measure_dataflow`] with an explicit fabric engine. Counters are
/// bit-identical across engines; only the host wall-clock changes.
pub fn measure_dataflow_with(
    nx: usize,
    ny: usize,
    nz: usize,
    iterations: usize,
    compute: bool,
    execution: Execution,
) -> DataflowMeasurement {
    assert!(nx >= 3 && ny >= 3, "need an interior PE to measure");
    let (mesh, fluid, trans) = standard_problem(nx, ny, nz, 42);
    let mut sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .compute_enabled(compute)
        .execution(execution)
        .build()
        .expect("standard problem is always valid");
    sim.apply_many(iterations, |i| pressure_for_iteration(&mesh, i))
        .expect("dataflow run failed");
    let interior = *sim.pe_counters(nx / 2, ny / 2);
    let mut per_iter = OpCounters::default();
    // scale down to one iteration (counts are exactly linear in iterations)
    let scale = |v: u64| v / iterations as u64;
    per_iter.fmul = scale(interior.fmul);
    per_iter.fsub = scale(interior.fsub);
    per_iter.fadd = scale(interior.fadd);
    per_iter.fma = scale(interior.fma);
    per_iter.fneg = scale(interior.fneg);
    per_iter.fmov_in = scale(interior.fmov_in);
    per_iter.fmov_out = scale(interior.fmov_out);
    per_iter.mem_loads = scale(interior.mem_loads);
    per_iter.mem_stores = scale(interior.mem_stores);
    per_iter.fabric_loads = scale(interior.fabric_loads);
    per_iter.fabric_stores = scale(interior.fabric_stores);
    per_iter.eos_evals = scale(interior.eos_evals);
    per_iter.compute_cycles = scale(interior.compute_cycles);
    per_iter.comm_cycles = scale(interior.comm_cycles);
    DataflowMeasurement {
        interior_pe_per_iteration: per_iter,
        fabric_total: sim.stats().total,
    }
}

/// Honors the shared `--faults <seed>` / `--recovery <policy>` flags: runs
/// one application of the standard problem with the requested seeded fault
/// plan and recovery policy on the selected engine, and prints the outcome
/// (clean, recovered, degraded, or the typed failure). A no-op when
/// `--faults` was not given, so callers can call it unconditionally.
pub fn run_faulted_demo(args: &CommonArgs, nx: usize, ny: usize, nz: usize) {
    let Some(seed) = args.fault_seed else { return };
    let (mesh, fluid, trans) = standard_problem(nx, ny, nz, 42);
    let plan = args.fault_plan(wse_sim::geometry::FabricDims::new(nx, ny), 400, 3);
    let mut sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .execution(args.execution)
        .fault_plan(plan)
        .recovery(args.recovery)
        .build()
        .expect("standard problem is always valid");
    println!(
        "\n-- fault injection: --faults {seed} ({:?} recovery, {}x{} fabric) --",
        args.recovery, nx, ny
    );
    match sim.apply_recovering(&pressure_for_iteration(&mesh, 0)) {
        Ok(r) if r.degraded => {
            let valid = r.valid.iter().filter(|&&v| v).count();
            println!(
                "degraded result: {valid}/{} PEs valid, {} fault event(s) logged",
                r.valid.len(),
                r.faults.len()
            );
        }
        Ok(r) if r.attempts > 1 => println!(
            "recovered bit-identically on attempt {} (+{} modeled backoff cycles)",
            r.attempts, r.backoff_cycles
        ),
        Ok(_) => println!("no fault disturbed the run within its horizon; result is clean"),
        Err(e) => println!("typed failure: {e}"),
    }
}

/// Honors the shared `--checkpoint <path>` / `--resume <path>` flags on
/// the standard problem, a no-op when neither was given.
///
/// * `--checkpoint <path>`: runs one application about half-way with the
///   stepped driver API, serializes the mid-application fabric state to
///   `path` ([`wse_serve::Checkpoint`]), and abandons the run — the "kill"
///   half of a kill/restore cycle.
/// * `--resume <path>`: reads `path`, restores it into a freshly built
///   simulator on the selected engine (checkpoints are engine-portable),
///   finishes the interrupted application, and asserts the residual is
///   **bit-identical** to an uninterrupted run.
///
/// Both flags together (same path) perform the full cycle in one
/// invocation; across two invocations they script a real kill/restore.
///
/// A checkpoint that cannot be written, read or restored (an I/O failure,
/// a truncated file, a foreign schema version or problem) is returned as
/// the typed error for the caller to report.
pub fn run_checkpoint_demo(
    args: &CommonArgs,
    nx: usize,
    ny: usize,
    nz: usize,
) -> Result<(), wse_serve::CheckpointError> {
    use wse_serve::Checkpoint;
    if args.checkpoint.is_none() && args.resume.is_none() {
        return Ok(());
    }
    let (mesh, fluid, trans) = standard_problem(nx, ny, nz, 42);
    let build = || {
        DataflowFluxSimulator::builder(&mesh)
            .fluid(&fluid)
            .transmissibilities(&trans)
            .execution(args.execution)
            .build()
            .expect("standard problem is always valid")
    };
    let mut reference = build();
    let baseline = reference
        .apply(&pressure_for_iteration(&mesh, 0))
        .expect("reference run failed");
    let total_events = reference.last_run().expect("reference just ran").events;

    if let Some(path) = &args.checkpoint {
        let mut sim = build();
        sim.begin_apply(&pressure_for_iteration(&mesh, 0));
        let step = sim
            .step_events(total_events / 2)
            .expect("stepped run failed");
        assert!(!step.complete, "half the events cannot finish the run");
        Checkpoint::capture(&sim).write_file(path)?;
        println!(
            "\n-- checkpoint: mid-application state ({} of {total_events} events, \
             {nx}x{ny}x{nz}, {}) written to {path} --",
            step.events,
            args.execution_label()
        );
        println!("   resume with --resume {path} (any engine) to finish bit-identically");
    }

    if let Some(path) = &args.resume {
        let ck = Checkpoint::read_file(path)?;
        let mut sim = build();
        ck.restore_into(&mut sim)?;
        println!(
            "\n-- resume: restored {path} on {} --",
            args.execution_label()
        );
        let residual = if sim.in_flight() {
            sim.finish_apply().expect("resumed run failed")
        } else {
            sim.apply(&pressure_for_iteration(&mesh, 0))
                .expect("post-restore run failed")
        };
        assert!(
            residual
                .iter()
                .zip(&baseline)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "resumed run must be bit-identical to the uninterrupted one"
        );
        println!(
            "   finished {} events total; residual bit-identical to the \
             uninterrupted run ({} cells)",
            sim.last_run().expect("resumed run just finished").events,
            residual.len()
        );
    }
    Ok(())
}

/// The telemetry hub the shared `--metrics <path>` flag requests: live
/// when the flag was given, [`wse_metrics::MetricsHub::Null`] (every probe
/// a no-op) otherwise. Pass the result to `.metrics(...)` on simulator
/// builders or [`wse_serve::ServerConfig::metrics`], then write it out
/// with [`export_metrics`].
pub fn metrics_hub(args: &CommonArgs) -> wse_metrics::MetricsHub {
    if args.metrics.is_some() {
        wse_metrics::MetricsHub::new_live()
    } else {
        wse_metrics::MetricsHub::Null
    }
}

/// Honors the shared `--metrics <path>` flag: writes `hub`'s Prometheus
/// text exposition to the requested path. A no-op when the flag was not
/// given (or the hub is null — nothing was ever recorded).
pub fn export_metrics(args: &CommonArgs, hub: &wse_metrics::MetricsHub) {
    let Some(path) = &args.metrics else { return };
    if !hub.is_live() {
        return;
    }
    let text = hub.prometheus_text();
    std::fs::write(path, &text).unwrap_or_else(|e| panic!("writing metrics to {path}: {e}"));
    println!(
        "\nmetrics written to {path} ({} samples, Prometheus text format)",
        hub.snapshot().len()
    );
}

/// A GitHub-flavoured markdown table from a `header` and `rows` written
/// as their cells joined by ` | `, each line ending in a newline. Every
/// table the harness prints goes through it.
pub fn markdown_table(header: &str, rows: impl IntoIterator<Item = String>) -> String {
    let columns = header.split(" | ").count();
    let mut out = format!("| {header} |\n|{}\n", " --- |".repeat(columns));
    for row in rows {
        out += &format!("| {row} |\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_problem_is_reproducible() {
        let (m1, _, t1) = standard_problem(4, 4, 3, 7);
        let (m2, _, t2) = standard_problem(4, 4, 3, 7);
        assert_eq!(m1.num_cells(), m2.num_cells());
        assert_eq!(t1.as_slice(), t2.as_slice());
    }

    #[test]
    fn pressure_vectors_differ_per_iteration() {
        let (mesh, _, _) = standard_problem(4, 4, 3, 7);
        assert_ne!(
            pressure_for_iteration(&mesh, 0),
            pressure_for_iteration(&mesh, 1)
        );
    }

    #[test]
    fn measured_interior_pe_matches_table_4() {
        let nz = 4;
        let m = measure_dataflow(5, 5, nz as usize, 2, true);
        let c = &m.interior_pe_per_iteration;
        assert_eq!(c.fmul, 60 * nz);
        assert_eq!(c.fsub, 40 * nz);
        assert_eq!(c.fneg, 10 * nz);
        assert_eq!(c.fadd, 10 * nz);
        assert_eq!(c.fma, 10 * nz);
        assert_eq!(c.fmov_in, 16 * nz);
        assert_eq!(c.flops(), 140 * nz);
        assert_eq!(c.mem_loads + c.mem_stores, 406 * nz);
    }

    #[test]
    fn measured_counts_match_analytic_cycle_model() {
        // the perf-model analytic counts must agree with simulation
        let m = measure_dataflow(5, 5, 6, 1, true);
        let analytic = perf_model::TpfaCycleModel::new(6);
        let c = &m.interior_pe_per_iteration;
        assert_eq!(c.compute_cycles, analytic.compute_cycles());
        assert_eq!(c.comm_cycles, analytic.comm_cycles());
    }

    #[test]
    fn comm_only_variant_has_zero_flops() {
        let m = measure_dataflow(4, 4, 3, 1, false);
        assert_eq!(m.fabric_total.flops(), 0);
        assert!(m.fabric_total.fabric_loads > 0);
    }

    #[test]
    fn sharded_measurement_matches_sequential_counters() {
        let seq = measure_dataflow(5, 5, 4, 1, true);
        let par = measure_dataflow_with(
            5,
            5,
            4,
            1,
            true,
            Execution::Sharded {
                shards: 4,
                threads: 2,
            },
        );
        assert_eq!(seq.interior_pe_per_iteration, par.interior_pe_per_iteration);
        assert_eq!(seq.fabric_total, par.fabric_total);
    }

    #[test]
    fn a_bad_resume_file_is_a_typed_error_not_a_panic() {
        use wse_serve::CheckpointError;
        let path = std::env::temp_dir().join(format!("bench-resume-{}.bin", std::process::id()));
        let path_arg = path.to_str().expect("temp path is UTF-8").to_string();
        let demo = |flag: &str| {
            let args =
                CommonArgs::from_slice(&[flag.to_string(), path_arg.clone()], &[], &[]).unwrap();
            run_checkpoint_demo(&args, 4, 4, 3)
        };
        demo("--checkpoint").expect("writing a checkpoint");
        let bytes = std::fs::read(&path).unwrap();

        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let truncated = demo("--resume");

        let mut schema_1 = bytes;
        schema_1[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &schema_1).unwrap();
        let old_schema = demo("--resume");
        let _ = std::fs::remove_file(&path);

        assert!(
            matches!(truncated, Err(CheckpointError::Truncated { .. })),
            "{truncated:?}"
        );
        assert_eq!(
            old_schema.unwrap_err().to_string(),
            "unsupported schema version 1 (expected 5)"
        );
    }
}
