//! **Table 1** — wall-clock for 1000 applications of Algorithm 1 on the
//! 750 × 994 × 246 mesh: Dataflow/CSL vs GPU/RAJA vs GPU/CUDA.
//!
//! Two layers are reported:
//! 1. *Measured, laboratory scale*: real wall-clock of our Rust
//!    implementations (serial reference, RAJA-like, CUDA-like, and the
//!    functional fabric simulation) on a mesh that fits in RAM, with
//!    average and standard deviation over repeated runs — the paper's
//!    avg/S.D. protocol.
//! 2. *Modeled, paper scale*: the CS-2 and A100 machine models fed with
//!    counters measured from the simulators, next to the paper's numbers.

use bench::{
    measure_dataflow, measure_dataflow_with, pressure_for_iteration, standard_problem,
    PAPER_ITERATIONS,
};
use fv_core::residual::assemble_flux_residual;
use gpu_ref::problem::{GpuFluxProblem, GpuModel};
use perf_model::{A100Model, Cs2Model};
use std::time::Instant;

fn stats_of(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let avg = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - avg) * (s - avg)).sum::<f64>() / n;
    (avg, var.sqrt())
}

fn main() {
    // The shared flag family (`--shards N [--threads M]`, `--trace`,
    // `--profile`, ...) selects the fabric engine and optional exports.
    let args = bench::CommonArgs::parse();
    let execution = args.execution;
    println!("== Table 1: time measurement, 1000 applications of Algorithm 1 ==");
    println!("(fabric engine: {})\n", args.execution_label());

    // ---- layer 1: measured at laboratory scale --------------------------
    let (nx, ny, nz) = (24, 24, 12);
    let apps = 20;
    let repeats = 5;
    let (mesh, fluid, trans) = standard_problem(nx, ny, nz, 42);
    println!(
        "Measured (Rust, {}x{}x{} mesh, {} applications, {} repeats):",
        nx, ny, nz, apps, repeats
    );

    // serial reference
    let mut serial_t = Vec::new();
    let mut r = vec![0.0_f32; mesh.num_cells()];
    for _ in 0..repeats {
        let t0 = Instant::now();
        for i in 0..apps {
            let p = pressure_for_iteration(&mesh, i);
            assemble_flux_residual(&mesh, &fluid, &trans, &p, &mut r);
        }
        serial_t.push(t0.elapsed().as_secs_f64());
    }

    // GPU-style models
    let mut gpu = GpuFluxProblem::new(&mesh, &fluid, &trans);
    let mut raja_t = Vec::new();
    let mut cuda_t = Vec::new();
    for model in [GpuModel::Raja, GpuModel::Cuda] {
        for _ in 0..repeats {
            let t0 = Instant::now();
            for i in 0..apps {
                let p = pressure_for_iteration(&mesh, i);
                gpu.apply(model, &p);
            }
            let dt = t0.elapsed().as_secs_f64();
            match model {
                GpuModel::Raja => raja_t.push(dt),
                GpuModel::Cuda => cuda_t.push(dt),
            }
        }
    }

    // functional fabric simulation (wall-clock of the *simulation*, shown
    // for completeness; CS-2 time comes from the cycle model below)
    let mut sim_t = Vec::new();
    for _ in 0..repeats.min(2) {
        let t0 = Instant::now();
        let _ = measure_dataflow_with(nx, ny, nz, apps.min(3), true, execution);
        sim_t.push(t0.elapsed().as_secs_f64());
    }

    let w = [22, 12, 12];
    bench::print_row(&["impl".into(), "avg [s]".into(), "S.D. [s]".into()], &w);
    bench::print_sep(&w);
    for (name, samples) in [
        ("Serial/Rust", &serial_t),
        ("GPU-like/RAJA", &raja_t),
        ("GPU-like/CUDA", &cuda_t),
        ("Fabric sim (host)", &sim_t),
    ] {
        let (avg, sd) = stats_of(samples);
        bench::print_row(&[name.into(), format!("{avg:.4}"), format!("{sd:.5}")], &w);
    }

    // ---- layer 2: modeled at paper scale --------------------------------
    println!("\nModeled at paper scale (750x994x246, 1000 applications):");
    let meas = measure_dataflow(9, 9, 12, 2, true);
    let cs2 = Cs2Model::default();
    // counters measured at nz=12; the cycle model is linear in nz — rescale
    let per_iter = meas.interior_pe_per_iteration.cycles() as f64 * (246.0 / 12.0);
    let t_cs2 = cs2.time_seconds(per_iter / cs2.simd_width, PAPER_ITERATIONS);
    let a100 = A100Model::default();
    let paper_cells = 750 * 994 * 246;
    let t_raja = a100.time_seconds(paper_cells, PAPER_ITERATIONS);
    // the paper's CUDA kernel is 13% faster than its RAJA kernel
    let t_cuda = t_raja * 14.6573 / 16.8378;

    let w = [16, 14, 14, 12];
    bench::print_row(
        &[
            "arch/lang".into(),
            "model [s]".into(),
            "paper [s]".into(),
            "speedup".into(),
        ],
        &w,
    );
    bench::print_sep(&w);
    bench::print_row(
        &[
            "Dataflow/CSL".into(),
            bench::fmt_s(t_cs2),
            "0.0823".into(),
            "1.0x".into(),
        ],
        &w,
    );
    bench::print_row(
        &[
            "GPU/RAJA".into(),
            bench::fmt_s(t_raja),
            "16.8378".into(),
            format!("{:.0}x", t_raja / t_cs2),
        ],
        &w,
    );
    bench::print_row(
        &[
            "GPU/CUDA".into(),
            bench::fmt_s(t_cuda),
            "14.6573".into(),
            format!("{:.0}x", t_cuda / t_cs2),
        ],
        &w,
    );
    println!(
        "\npaper speedup (RAJA vs CSL): 204x; modeled: {:.0}x",
        t_raja / t_cs2
    );

    // `--trace out.json [--trace-cap N]`: rerun one traced application at
    // laboratory scale on the selected engine and export Chrome JSON + a
    // load summary.
    if let Some(req) = &args.trace {
        bench::run_traced(nx, ny, nz, 1, execution, req);
    }

    // `--profile out.json [--trace-cap N]`: same rerun, but analyzed —
    // per-region cycle attribution plus the recovered critical path.
    if let Some(req) = &args.profile {
        bench::run_profiled(nx, ny, nz, 1, execution, req);
    }

    // `--faults <seed> [--recovery <policy>]`: one faulted demonstration
    // run (never part of the measured tables above).
    bench::run_faulted_demo(&args, nx, ny, nz);

    // `--checkpoint <path>` / `--resume <path>`: kill/restore of a
    // mid-application fabric state, resumed bit-identically.
    if let Err(e) = bench::run_checkpoint_demo(&args, nx, ny, nz) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }

    // `--metrics <path>`: one instrumented demonstration run, exported as
    // Prometheus text (never part of the measured tables).
    bench::run_metered_demo(&args, nx, ny, nz);
}
