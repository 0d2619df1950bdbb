//! Quickstart: build a small CCS-style problem, compute the TPFA flux
//! residual three ways — serial reference, GPU-style reference, and the
//! wafer-scale dataflow fabric — and cross-validate the results.
//!
//! ```text
//! cargo run --example quickstart
//! cargo run --example quickstart -- --trace trace.json [--trace-cap N]
//! cargo run --example quickstart -- --profile prof.json [--trace-cap N]
//! cargo run --example quickstart -- --metrics metrics.prom
//! cargo run --example quickstart -- --checkpoint ckpt.bin
//! cargo run --example quickstart -- --resume ckpt.bin --shards 4
//! ```
//!
//! With `--trace`, both engine runs record per-PE event traces; the sorted
//! traces are asserted bit-identical (the determinism probe), a Chrome
//! `trace_event` JSON is written (open in Perfetto or `chrome://tracing`),
//! and the profile's load summary is printed. With `--profile`, the trace
//! is analyzed instead: per-region cycle attribution plus the recovered
//! critical path, both asserted bit-identical across engines, exported as
//! JSON. With `--metrics`, both engine runs publish `fabric_*`/`driver_*`
//! telemetry into one live hub, written out as Prometheus text on exit. With
//! `--checkpoint`, a run is stopped half-way and its fabric state written
//! out; `--resume` restores such a file on any engine, finishes the run and
//! asserts the residual bit-identical to an uninterrupted one. An unknown
//! flag exits 2.

use bench::CommonArgs;
use mdfv::dataflow::DataflowFluxSimulator;
use mdfv::fv::prelude::*;
use mdfv::fv::validate::Validation;
use mdfv::gpu::problem::{GpuFluxProblem, GpuModel};
use mdfv::prof::{critical_path, profile_json, Profile};
use mdfv::wse::fabric::Execution;
use mdfv::wse::trace::chrome_trace_json;

fn main() {
    // The shared benchmark flag family (`--trace`, `--profile`,
    // `--trace-cap`, `--shards`, ...), parsed once.
    let args = CommonArgs::parse();
    let hub = bench::metrics_hub(&args);
    let trace_spec = args.trace_spec();
    // 1. A 16×12×8 Cartesian mesh with heterogeneous (log-normal)
    //    permeability and a water-like slightly-compressible fluid.
    let mesh = CartesianMesh3::new(Extents::new(16, 12, 8), Spacing::new(10.0, 10.0, 4.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 2024);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    println!(
        "mesh: {}x{}x{} = {} cells, 10-face TPFA stencil",
        mesh.nx(),
        mesh.ny(),
        mesh.nz(),
        mesh.num_cells()
    );

    // 2. A pressure field: injection-style overpressure pulse.
    let state = FlowState::<f32>::gaussian_pulse(&mesh, 20.0e6, 2.0e6, 3.0);

    // 3. Serial reference (Algorithm 1), f64 ground truth.
    let p64: Vec<f64> = state.pressure().iter().map(|&v| v as f64).collect();
    let mut reference = vec![0.0_f64; mesh.num_cells()];
    assemble_flux_residual(&mesh, &fluid, &trans, &p64, &mut reference);
    println!("serial reference computed ({} cells)", reference.len());

    // 4. GPU-style references (RAJA-like and CUDA-like launchers).
    let mut gpu = GpuFluxProblem::new(&mesh, &fluid, &trans);
    let raja = gpu.apply_and_read(GpuModel::Raja, state.pressure());
    let cuda = gpu.apply_and_read(GpuModel::Cuda, state.pressure());

    // 5. The dataflow fabric: one PE per (x, y) column, cardinal exchange
    //    with router switching, diagonal exchange through intermediaries.
    let mut fabric = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .trace(trace_spec)
        .metrics(hub.clone())
        .build()
        .expect("quickstart problem passes builder validation");
    let dataflow = fabric.apply(state.pressure()).expect("fabric run");
    let stats = fabric.stats();
    println!(
        "fabric run: {} PEs, {} FLOPs, {} wavelets received",
        mesh.nx() * mesh.ny(),
        stats.total.flops(),
        stats.total.fabric_loads,
    );
    // `fluid()`/`transmissibilities()` are a thin wrapper over the generic
    // workload API: the declarative TPFA stencil spec (`mdfv::stencil`) is
    // compiled to colors, route programs and an exchange schedule, exactly
    // like the Laplacian and seismic-wave workloads
    // (`builder.workload(...)`, see `examples/seismic_wave.rs`).
    let pattern = fabric.workload().pattern();
    println!(
        "compiled '{}' stencil: {} receive streams on {} colors \
         ({} cardinal lanes, {} diagonal families)",
        fabric.workload().name(),
        pattern.streams,
        pattern.colors_used(),
        pattern.cardinals.len(),
        pattern.diagonals.len(),
    );

    // 6. The same fabric program on the parallel sharded engine (4 row
    //    strips, one rendezvous per simulated cycle): bit-identical results.
    let sharded_exec = match args.execution {
        Execution::Sharded { .. } => args.execution,
        Execution::Sequential => Execution::Sharded {
            shards: 4,
            threads: 2,
        },
    };
    let mut sharded_sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .execution(sharded_exec)
        .trace(trace_spec)
        .metrics(hub.clone())
        .build()
        .expect("quickstart problem passes builder validation");
    let sharded = sharded_sim.apply(state.pressure()).expect("sharded run");
    assert!(
        dataflow
            .iter()
            .zip(&sharded)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "sharded engine must be bit-identical to the sequential engine"
    );
    println!(
        "{}: bit-identical residual",
        bench::execution_label(sharded_exec)
    );

    // 7. Cross-validation.
    println!();
    for v in [
        Validation::compare("GPU/RAJA  vs serial", &reference, &raja, 1e-4),
        Validation::compare("GPU/CUDA  vs serial", &reference, &cuda, 1e-4),
        Validation::compare("dataflow  vs serial", &reference, &dataflow, 1e-3),
    ] {
        println!("{v}");
        assert!(v.passed());
    }
    println!("\nall implementations agree — see DESIGN.md for the architecture map");

    // 8. Tracing (only with `--trace`): the sorted per-PE event streams of
    //    the two engines must be bit-identical — a determinism probe far
    //    stronger than residual equality — then export for Perfetto.
    if let Some(path) = &args.trace {
        let seq_trace = fabric.trace().expect("tracing was enabled");
        let sh_trace = sharded_sim.trace().expect("tracing was enabled");
        assert_eq!(
            seq_trace.events, sh_trace.events,
            "sequential and sharded sorted traces must be bit-identical"
        );
        println!(
            "\ntrace determinism: {} events bit-identical across engines",
            seq_trace.events.len()
        );
        std::fs::write(path, chrome_trace_json(&sh_trace))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        print!("{}", Profile::from_trace(&sh_trace).summary(&sh_trace, 5));
        println!(
            "trace written to {path} ({} events, {} dropped)",
            sh_trace.events.len(),
            sh_trace.dropped
        );
    }

    // 9. Profiling (only with `--profile`): attribute every cycle to a
    //    named region and recover the critical path bounding the makespan.
    //    Both are pure functions of the engine-invariant per-PE streams, so
    //    both must be bit-identical across engines too.
    if let Some(path) = &args.profile {
        let seq_trace = fabric.trace().expect("tracing was enabled");
        let sh_trace = sharded_sim.trace().expect("tracing was enabled");
        let profile = Profile::from_trace(&seq_trace);
        let cp = critical_path(&seq_trace, 1);
        assert_eq!(
            profile,
            Profile::from_trace(&sh_trace),
            "attribution must be bit-identical across engines"
        );
        assert_eq!(
            cp,
            critical_path(&sh_trace, 1),
            "critical path must be bit-identical across engines"
        );
        println!(
            "\nprofiler determinism: attribution + critical path bit-identical across engines\n"
        );
        print!("{profile}");
        if let Some(cp) = &cp {
            print!("{cp}");
        }
        std::fs::write(path, profile_json(&profile, cp.as_ref()))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("profile written to {path}");
    }

    // 10. Fault injection (only with `--faults <seed>`): one faulted run
    //     under the `--recovery` policy — recover bit-identically, degrade
    //     honestly, or fail with the typed error.
    bench::run_faulted_demo(&args, mesh.nx(), mesh.ny(), mesh.nz());

    // 11. Checkpoint/restore (only with `--checkpoint`/`--resume`): write
    //     a mid-application fabric snapshot, or restore one — on any
    //     engine — and finish it bit-identically.
    if let Err(e) = bench::run_checkpoint_demo(&args, mesh.nx(), mesh.ny(), mesh.nz()) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }

    // 12. Telemetry (only with `--metrics <path>`): both engine runs
    //     published into one hub, labeled by engine — written out as
    //     Prometheus text.
    bench::export_metrics(&args, &hub);
}
