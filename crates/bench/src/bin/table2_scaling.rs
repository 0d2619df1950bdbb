//! **Table 2** — weak-scaling experiment: grow the X-Y extent at constant
//! Nz = 246 and report throughput [Gcell/s], CS-2 time and A100 time for
//! 1000 applications.
//!
//! The CS-2 column comes from the cycle model (fed with simulator-measured
//! per-PE counters, which depend only on Nz); the A100 column from the
//! bandwidth roofline. A *functional* weak-scaling sweep at laboratory
//! scale is run first to demonstrate the property on the real simulator:
//! the critical-path PE's cycle count stays constant as the fabric grows.

use bench::{measure_dataflow_with, PAPER_ITERATIONS};
use perf_model::{A100Model, Cs2Model};

/// The paper's Table 2 rows: (Nx, Ny, Nz, paper CS-2 s, paper A100 s,
/// paper Gcell/s).
const PAPER_ROWS: [(usize, usize, usize, f64, f64, f64); 6] = [
    (200, 200, 246, 0.0813, 0.9040, 121.01),
    (400, 400, 246, 0.0817, 3.2649, 481.43),
    (600, 600, 246, 0.0821, 7.2440, 1078.79),
    (750, 600, 246, 0.0821, 9.6825, 1347.21),
    (750, 800, 246, 0.0822, 13.2407, 1794.01),
    (750, 950, 246, 0.0823, 16.8378, 2227.38),
];

fn main() {
    // The shared flag family (`--shards N [--threads M]`, `--trace`,
    // `--profile`, ...); counters — and thus every modeled number — are
    // bit-identical across engines.
    let args = bench::CommonArgs::parse();
    let execution = args.execution;
    println!("== Table 2: weak scaling (Nz = 246, 1000 applications) ==");
    println!("(fabric engine: {})\n", args.execution_label());

    // ---- functional demonstration on the simulator ----------------------
    println!("Functional weak scaling on the fabric simulator (nz = 8):");
    let w = [10, 14, 22];
    bench::print_row(
        &[
            "fabric".into(),
            "cells".into(),
            "interior-PE cycles/app".into(),
        ],
        &w,
    );
    bench::print_sep(&w);
    let mut first_cycles = None;
    for n in [4usize, 8, 12, 16] {
        let m = measure_dataflow_with(n, n, 8, 1, true, execution);
        let cyc = m.interior_pe_per_iteration.cycles();
        bench::print_row(
            &[
                format!("{n}x{n}"),
                format!("{}", m.num_cells),
                format!("{cyc}"),
            ],
            &w,
        );
        match first_cycles {
            None => first_cycles = Some(cyc),
            Some(c) => assert_eq!(
                c, cyc,
                "per-PE work must be independent of the fabric extent"
            ),
        }
    }
    println!("(constant cycles/app across fabric sizes = near-perfect weak scaling)\n");

    // ---- paper-scale table ----------------------------------------------
    let a100 = A100Model::default();
    let meas = measure_dataflow_with(9, 9, 12, 1, true, execution);
    let per_iter_nz12 = meas.interior_pe_per_iteration.cycles() as f64;

    let w = [6, 6, 6, 14, 12, 12, 12, 12, 12];
    bench::print_row(
        &[
            "Nx".into(),
            "Ny".into(),
            "Nz".into(),
            "cells".into(),
            "Gcell/s".into(),
            "CS-2 [s]".into(),
            "paper".into(),
            "A100 [s]".into(),
            "paper".into(),
        ],
        &w,
    );
    bench::print_sep(&w);
    for (nx, ny, nz, p_cs2, p_a100, _p_thr) in PAPER_ROWS {
        let cs2 = Cs2Model {
            fabric_cols: nx,
            fabric_rows: ny,
            ..Cs2Model::default()
        };
        let per_iter = per_iter_nz12 * nz as f64 / 12.0;
        let t_cs2 = cs2.time_seconds(per_iter / cs2.simd_width, PAPER_ITERATIONS);
        let cells = nx * ny * nz;
        let thr = cs2.throughput_gcell_per_s(cells, t_cs2, PAPER_ITERATIONS);
        let t_a100 = a100.time_seconds(cells, PAPER_ITERATIONS);
        bench::print_row(
            &[
                nx.to_string(),
                ny.to_string(),
                nz.to_string(),
                cells.to_string(),
                format!("{thr:.2}"),
                bench::fmt_s(t_cs2),
                bench::fmt_s(p_cs2),
                bench::fmt_s(t_a100),
                bench::fmt_s(p_a100),
            ],
            &w,
        );
    }
    println!("\n(shape checks: CS-2 time ~constant, A100 time ~linear in cells,");
    println!(" throughput grows ~linearly with the fabric area — as in the paper)");

    // `--trace out.json [--trace-cap N]`: traced run of the largest
    // functional fabric above; the per-shard summary lines diagnose load
    // imbalance across the sharded engine's partition.
    if let Some(req) = &args.trace {
        bench::run_traced(16, 16, 8, 1, execution, req);
    }

    // `--profile out.json [--trace-cap N]`: profiled run of the same
    // fabric — which PEs, colors and links bound the makespan.
    if let Some(req) = &args.profile {
        bench::run_profiled(16, 16, 8, 1, execution, req);
    }

    // `--faults <seed> [--recovery <policy>]`: one faulted demonstration
    // run (never part of the measured tables above).
    let (fx, fy, fz) = (16, 16, 8);
    bench::run_faulted_demo(&args, fx, fy, fz);

    // `--checkpoint <path>` / `--resume <path>`: kill/restore of a
    // mid-application fabric state, resumed bit-identically.
    if let Err(e) = bench::run_checkpoint_demo(&args, fx, fy, fz) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }

    // `--metrics <path>`: one instrumented demonstration run, exported as
    // Prometheus text (never part of the measured tables).
    bench::run_metered_demo(&args, fx, fy, fz);
}
