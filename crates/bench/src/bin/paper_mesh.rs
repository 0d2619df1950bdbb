//! **paper-mesh** — the paper-scale smoke run: one full TPFA flux
//! application on the paper's 746×989 mesh footprint (737,794 PEs, one
//! cell column per PE), measured, not modeled.
//!
//! This is the workload the SPMD arena work exists for: per-PE scalar
//! state lives in flat struct-of-array arenas, route programs are
//! deduplicated to O(1) equivalence classes, and PE memories grow
//! lazily — so peak RSS is O(PEs × state words) and the fabric fits on
//! an ordinary host. The z extent is truncated to 2 layers so one apply
//! finishes in CI; the xy extent (the PE grid, the part that stresses
//! the fabric representation) is the paper's.
//!
//! ```text
//! cargo run --release --bin paper_mesh -- [--budget-s S] [--max-rss-mb MB] [--shards N [--threads M]]
//! ```
//!
//! The run always checks its exact counts — events, final fabric time and
//! route equivalence classes, functions of the program alone and so the
//! same on every engine — and exits 1 on any mismatch. With `--budget-s` /
//! `--max-rss-mb` it also gates on cost: exit 1 if the apply exceeds the
//! wall budget or the process high-water RSS (`VmHWM`, the same figure
//! `/usr/bin/time -v` reports) exceeds the ceiling. CI runs
//! `just paper-mesh` with both set.

use std::time::Instant;

use bench::cli::{flag, or_exit};
use bench::{peak_rss_mb, pressure_for_iteration, standard_problem, PAPER_MESH_XY, PAPER_SMOKE_NZ};
use tpfa_dataflow::DataflowFluxSimulator;

const PAPER_NX: usize = PAPER_MESH_XY.0;
const PAPER_NY: usize = PAPER_MESH_XY.1;
const SMOKE_NZ: usize = PAPER_SMOKE_NZ;

/// Events of one apply.
const PINNED_EVENTS: u64 = 92_120_182;
/// Fabric time at the end of one apply, in simulated cycles.
const PINNED_FINAL_TIME: u64 = 325;
/// Route-program equivalence classes across the whole fabric.
const PINNED_EQ_CLASSES: u64 = 64;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let common = or_exit(bench::CommonArgs::from_slice(
        &raw,
        &["--shards", "--threads", "--budget-s", "--max-rss-mb"],
        &[],
    ));
    let budget_s: Option<f64> = or_exit(flag(&raw, "--budget-s"));
    let max_rss_mb: Option<f64> = or_exit(flag(&raw, "--max-rss-mb"));

    println!(
        "== paper mesh: {PAPER_NX}x{PAPER_NY}x{SMOKE_NZ} ({} PEs), engine {} ==",
        PAPER_NX * PAPER_NY,
        common.execution_label()
    );

    let t_setup = Instant::now();
    let (mesh, fluid, trans) = standard_problem(PAPER_NX, PAPER_NY, SMOKE_NZ, 2);
    let p = pressure_for_iteration(&mesh, 0);
    let mut sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .execution(common.execution)
        .build()
        .expect("paper-mesh problem must build");
    println!(
        "  setup: {:.1} s ({} route equivalence classes across {} PEs)",
        t_setup.elapsed().as_secs_f64(),
        sim.eq_classes(),
        PAPER_NX * PAPER_NY,
    );

    let t_apply = Instant::now();
    let residual = sim.apply(&p).expect("paper-mesh apply failed");
    let wall_s = t_apply.elapsed().as_secs_f64();
    let report = sim.last_run().expect("run recorded");
    assert_eq!(residual.len(), PAPER_NX * PAPER_NY * SMOKE_NZ);
    assert!(
        residual.iter().all(|v| v.is_finite()),
        "paper-mesh residual must be finite"
    );

    let rss = peak_rss_mb();
    println!(
        "  apply: {wall_s:.1} s, {} events ({:.0} events/s), final time {} cycles",
        report.events,
        report.events as f64 / wall_s,
        report.final_time,
    );
    match rss {
        Some(mb) => println!("  peak RSS: {mb:.0} MiB (VmHWM)"),
        None => println!("  peak RSS: unavailable (no /proc)"),
    }

    let mut failed = false;
    for (what, got, pinned) in [
        ("events", report.events, PINNED_EVENTS),
        ("final time", report.final_time, PINNED_FINAL_TIME),
        (
            "equivalence classes",
            sim.eq_classes() as u64,
            PINNED_EQ_CLASSES,
        ),
    ] {
        if got != pinned {
            eprintln!("FAIL: {what} {got}, pinned {pinned}");
            failed = true;
        } else {
            println!("  {what}: {got} == pinned");
        }
    }
    if let Some(budget) = budget_s {
        if wall_s > budget {
            eprintln!("FAIL: apply took {wall_s:.1} s, budget {budget:.1} s");
            failed = true;
        } else {
            println!("  wall budget: {wall_s:.1} s <= {budget:.1} s");
        }
    }
    if let (Some(ceiling), Some(mb)) = (max_rss_mb, rss) {
        if mb > ceiling {
            eprintln!("FAIL: peak RSS {mb:.0} MiB, ceiling {ceiling:.0} MiB");
            failed = true;
        } else {
            println!("  RSS ceiling: {mb:.0} MiB <= {ceiling:.0} MiB");
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("paper-mesh smoke passed");
}
