//! The paper's evaluation as markdown: Tables 1–4, Figure 8, the §7.2
//! energy comparison and the §5.2.2 diagonal ablation.
//!
//! Each deterministic result is a function of the shared [`Runs`] that
//! returns the markdown fragment `EXPERIMENTS.md` embeds between
//! `<!-- paper:NAME -->` and `<!-- /paper:NAME -->`. [`check`] compares the
//! two, and this crate's `experiments_md` test runs it on every fragment,
//! so `cargo test` fails when a modelled or exact number drifts away from
//! the document. Numbers timed on the host (Table 1's laboratory-scale
//! rows) and plot series (Figure 8's ceilings) are printed by the `paper`
//! binary, labelled, and never embedded.

use std::time::Instant;

use fv_core::fields::PermeabilityField;
use fv_core::residual::assemble_flux_residual;
use fv_core::trans::{StencilKind, Transmissibilities};
use gpu_ref::problem::{GpuFluxProblem, GpuModel};
use perf_model::energy::efficiency_ratio;
use perf_model::{A100Model, Cs2Model, EnergyModel, Roofline, RooflinePoint};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_prof::Profile;
use wse_sim::stats::OpCounters;
use wse_sim::trace::TraceSpec;

use crate::{
    markdown_table, measure_dataflow, pressure_for_iteration, standard_problem, PAPER_ITERATIONS,
    PAPER_MESH,
};

/// The laboratory problem every modelled number is measured on: the
/// interior PE of a 9×9 fabric, columns of 12 cells.
const LAB: (usize, usize, usize) = (9, 9, 12);

/// One table or figure of the evaluation.
pub struct Table {
    /// The name `paper NAME` selects and the markers carry.
    pub name: &'static str,
    /// The deterministic fragment `EXPERIMENTS.md` embeds.
    pub embedded: fn(&Runs) -> String,
    /// What `paper` prints after the fragment but never embeds.
    pub printed: Option<fn() -> String>,
}

const fn table(
    name: &'static str,
    embedded: fn(&Runs) -> String,
    printed: Option<fn() -> String>,
) -> Table {
    Table {
        name,
        embedded,
        printed,
    }
}

/// Every table and figure, in the paper's order.
pub static TABLES: [Table; 7] = [
    table("table1", table1, Some(table1_measured)),
    table("table2", table2, None),
    table("table3", table3, None),
    table("table4", table4, None),
    table("figure8", figure8, Some(figure8_ceilings)),
    table("energy", energy, None),
    table("ablation", ablation, None),
];

/// The tables `paper` prints for its command line: all of them with no
/// argument, one with its name, an error for anything else.
pub fn select(args: &[String]) -> Result<Vec<&'static Table>, String> {
    let names = || TABLES.iter().map(|t| t.name).collect::<Vec<_>>().join(", ");
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        return Err(format!(
            "unknown flag {flag} (paper takes no flags, only one of {})",
            names()
        ));
    }
    match args {
        [] => Ok(TABLES.iter().collect()),
        [name] => TABLES
            .iter()
            .find(|t| t.name == name)
            .map(|t| vec![t])
            .ok_or_else(|| format!("unknown table {name:?} (expected one of {})", names())),
        [_, extra, ..] => Err(format!(
            "unexpected argument {extra:?} (paper takes at most one table name)"
        )),
    }
}

/// The measurements the fragments share: the interior PE's counters for
/// one application of the 9×9×12 standard problem, with and without flux
/// computation.
pub struct Runs {
    /// The full program.
    pub full: OpCounters,
    /// The communication-only program (Table 3's stripped binary).
    pub comm_only: OpCounters,
}

impl Runs {
    /// Runs both programs on the simulator.
    pub fn measure() -> Self {
        let (nx, ny, nz) = LAB;
        Self {
            full: measure_dataflow(nx, ny, nz, 1, true).interior_pe_per_iteration,
            comm_only: measure_dataflow(nx, ny, nz, 1, false).interior_pe_per_iteration,
        }
    }
}

/// Compares the text between `name`'s markers in `doc` with `fragment`,
/// ignoring blank lines at either end; the error names the table and the
/// first line that differs.
pub fn check(doc: &str, name: &str, fragment: &str) -> Result<(), String> {
    let (open, close) = (
        format!("<!-- paper:{name} -->"),
        format!("<!-- /paper:{name} -->"),
    );
    let start = doc
        .find(&open)
        .ok_or_else(|| format!("{name}: no {open} marker"))?
        + open.len();
    let len = doc[start..]
        .find(&close)
        .ok_or_else(|| format!("{name}: {open} has no closing {close}"))?;
    let mut embedded = doc[start..start + len].trim_matches('\n').lines();
    let mut generated = fragment.trim_matches('\n').lines();
    for line in 1.. {
        match (embedded.next(), generated.next()) {
            (None, None) => break,
            (d, g) if d != g => {
                return Err(format!(
                    "{name}: fragment line {line} differs from `paper {name}`\n  \
                     document:  {}\n  generated: {}",
                    d.unwrap_or("<end>"),
                    g.unwrap_or("<end>")
                ))
            }
            _ => {}
        }
    }
    Ok(())
}

/// Seconds at the paper tables' precision.
fn secs(v: f64) -> String {
    format!("{v:.4}")
}

/// Cells of the paper's production mesh.
fn paper_cells() -> usize {
    PAPER_MESH.0 * PAPER_MESH.1 * PAPER_MESH.2
}

/// Interior-PE cycles measured on the 12-cell lab column, scaled to the
/// paper's column height (the per-PE cycle count is linear in it).
fn paper_nz_cycles(cycles: u64) -> f64 {
    cycles as f64 * PAPER_MESH.2 as f64 / LAB.2 as f64
}

/// Modelled CS-2 seconds for the paper's 1000 applications of a program
/// whose interior PE runs `cycles` per application on the lab column.
fn cs2_seconds(cs2: &Cs2Model, cycles: u64) -> f64 {
    cs2.time_seconds(paper_nz_cycles(cycles) / cs2.simd_width, PAPER_ITERATIONS)
}

/// FLOPs of the paper's 1000 applications at the measured per-cell count.
fn paper_flops(runs: &Runs) -> f64 {
    let per_cell = runs.full.flops() as usize / LAB.2;
    (per_cell * paper_cells() * PAPER_ITERATIONS) as f64
}

/// Table 1, modelled at paper scale: CS-2 from the measured counters, A100
/// from the bandwidth roofline.
fn table1(runs: &Runs) -> String {
    let t_cs2 = cs2_seconds(&Cs2Model::default(), runs.full.cycles());
    let t_raja = A100Model::default().time_seconds(paper_cells(), PAPER_ITERATIONS);
    // The paper's CUDA kernel is 13 % faster than its RAJA kernel.
    let t_cuda = t_raja * 14.6573 / 16.8378;
    let rows = [
        ("Dataflow/CSL", "0.0823", t_cs2),
        ("GPU/RAJA", "16.8378", t_raja),
        ("GPU/CUDA", "14.6573", t_cuda),
    ]
    .map(|(arch, paper, t)| format!("{arch} | {paper} | {} | {:.0}×", secs(t), t / t_cs2));
    format!(
        "{}\nSpeedup RAJA / CSL: paper 204×, model {:.0}×. The CS-2 model's input is \
         the interior PE's {} compute + {} communication cycles per application, \
         measured at Nz = {} and scaled to Nz = {}.\n",
        markdown_table("arch/lang | paper [s] | model [s] | model speedup", rows),
        t_raja / t_cs2,
        runs.full.compute_cycles,
        runs.full.comm_cycles,
        LAB.2,
        PAPER_MESH.2,
    )
}

/// Host seconds of each of `runs` calls of `body`.
fn timed(runs: usize, mut body: impl FnMut()) -> Vec<f64> {
    (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            body();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// Table 1's laboratory-scale rows: host wall-clock of the Rust kernels,
/// average and standard deviation over repeats (the paper's protocol).
fn table1_measured() -> String {
    let (nx, ny, nz, apps, repeats) = (24, 24, 12, 20, 5);
    let (mesh, fluid, trans) = standard_problem(nx, ny, nz, 42);
    let mut r = vec![0.0_f32; mesh.num_cells()];
    let serial = timed(repeats, || {
        for i in 0..apps {
            let p = pressure_for_iteration(&mesh, i);
            assemble_flux_residual(&mesh, &fluid, &trans, &p, &mut r);
        }
    });
    let mut gpu = GpuFluxProblem::new(&mesh, &fluid, &trans);
    let mut launch = |model| {
        timed(repeats, || {
            for i in 0..apps {
                gpu.apply(model, &pressure_for_iteration(&mesh, i));
            }
        })
    };
    let (raja, cuda) = (launch(GpuModel::Raja), launch(GpuModel::Cuda));
    // The simulator's own wall-clock, for completeness; CS-2 time comes
    // from the cycle model.
    let sim = timed(2, || {
        measure_dataflow(nx, ny, nz, 3, true);
    });
    let rows = [
        ("Serial/Rust", serial),
        ("GPU-like/RAJA", raja),
        ("GPU-like/CUDA", cuda),
        ("Fabric sim, 3 applications", sim),
    ]
    .map(|(name, samples)| {
        let n = samples.len() as f64;
        let avg = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - avg) * (s - avg)).sum::<f64>() / n;
        format!("{name} | {} | {:.5}", secs(avg), var.sqrt())
    });
    format!(
        "Measured on this host, not embedded ({nx}×{ny}×{nz} mesh, {apps} applications, \
         {repeats} repeats):\n\n{}",
        markdown_table("impl | avg [s] | S.D. [s]", rows)
    )
}

/// Table 2: the functional weak-scaling sweep on the simulator, and the
/// modelled paper-scale rows.
fn table2(runs: &Runs) -> String {
    let mut interior_cycles = None;
    let sweep = [4usize, 8, 12, 16].map(|n| {
        let cycles = measure_dataflow(n, n, 8, 1, true)
            .interior_pe_per_iteration
            .cycles();
        assert_eq!(
            *interior_cycles.get_or_insert(cycles),
            cycles,
            "per-PE work must be independent of the fabric extent"
        );
        format!("{n}×{n} | {} | {cycles}", n * n * 8)
    });

    // (Nx, Ny, paper CS-2 s, paper A100 s), all at Nz = 246.
    let paper_rows = [
        (200, 200, "0.0813", "0.9040"),
        (400, 400, "0.0817", "3.2649"),
        (600, 600, "0.0821", "7.2440"),
        (750, 600, "0.0821", "9.6825"),
        (750, 800, "0.0822", "13.2407"),
        (750, 950, "0.0823", "16.8378"),
    ];
    let a100 = A100Model::default();
    let nz = PAPER_MESH.2;
    let cs2_on = |nx, ny| {
        let cs2 = Cs2Model {
            fabric_cols: nx,
            fabric_rows: ny,
            ..Cs2Model::default()
        };
        (cs2, cs2_seconds(&cs2, runs.full.cycles()))
    };
    let rows = paper_rows.map(|(nx, ny, p_cs2, p_a100)| {
        let (cs2, t_cs2) = cs2_on(nx, ny);
        let cells = nx * ny * nz;
        format!(
            "{nx} | {ny} | {cells} | {:.2} | {} | {p_cs2} | {} | {p_a100}",
            cs2.throughput_gcell_per_s(cells, t_cs2, PAPER_ITERATIONS),
            secs(t_cs2),
            secs(a100.time_seconds(cells, PAPER_ITERATIONS)),
        )
    });
    let ((x0, y0, ..), (x5, y5, ..)) = (paper_rows[0], paper_rows[5]);
    format!(
        "Functional weak scaling on the simulator (nz = 8):\n\n{}\n\
         Modelled at paper scale (Nz = {nz}, {PAPER_ITERATIONS} applications):\n\n{}\n\
         CS-2 time grows {:.1} % from the first row to the last while the cell count \
         grows {:.1}× (paper: 1.2 %).\n",
        markdown_table("fabric | cells | interior-PE cycles / application", sweep),
        markdown_table(
            "Nx | Ny | cells | Gcell/s | CS-2 [s] | paper CS-2 [s] | A100 [s] | paper A100 [s]",
            rows
        ),
        100.0 * (cs2_on(x5, y5).1 / cs2_on(x0, y0).1 - 1.0),
        (x5 * y5) as f64 / (x0 * y0) as f64,
    )
}

/// Table 3: the communication / computation split, from the stripped
/// program's cycles (the paper's protocol) and, as a cross-check, from the
/// profiler's attribution of one traced run of the full program.
fn table3(runs: &Runs) -> String {
    let breakdown = |compute: u64, comm: u64| {
        let scaled = |cycles: u64| paper_nz_cycles(cycles).round() as u64;
        Cs2Model::default().breakdown_from_cycles(
            scaled(compute),
            scaled(comm),
            1,
            PAPER_ITERATIONS,
        )
    };
    let comm = runs.comm_only.comm_cycles;
    let counters = breakdown(runs.full.cycles() - comm, comm);

    let (nx, ny, nz) = LAB;
    let (mesh, fluid, trans) = standard_problem(nx, ny, nz, 42);
    let mut sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .trace(TraceSpec::ring(1 << 16))
        .build()
        .expect("standard problem is always valid");
    sim.apply(&pressure_for_iteration(&mesh, 0))
        .expect("traced run failed");
    let profile = Profile::from_trace(&sim.trace().expect("tracing was enabled"));
    let profiled = breakdown(
        profile.pacing_compute_cycles(),
        profile.pacing_comm_cycles(),
    );

    let split = [
        ("Data movement", counters.comm_s, "0.0199 | 24.18"),
        ("Computation", counters.compute_s, "0.0624 | 75.82"),
        ("Total", counters.total_s, "0.0823 | 100.00"),
    ]
    .map(|(label, t, paper)| {
        let share = 100.0 * t / counters.total_s;
        format!("{label} | {paper} | {} | {share:.2}", secs(t))
    });
    let cross = [
        ("Data movement", profiled.comm_s, counters.comm_s),
        ("Computation", profiled.compute_s, counters.compute_s),
        ("Total", profiled.total_s, counters.total_s),
    ]
    .map(|(label, p, c)| {
        let rel_err = 100.0 * (p - c).abs() / c;
        format!("{label} | {} | {} | {rel_err:.2}", secs(p), secs(c))
    });
    format!(
        "{}\nInterior-PE cycles per application at Nz = {nz}: {} for the full program, \
         {comm} for the communication-only one. The data-movement share is {:.2} \
         percentage points from the paper's.\n\n\
         The same split from the profiler's attribution of the pacing PE in one traced \
         run of the full program:\n\n{}",
        markdown_table(" | paper [s] | paper [%] | model [s] | model [%]", split),
        runs.full.cycles(),
        (100.0 * counters.comm_fraction() - 24.18).abs(),
        markdown_table(" | profile [s] | counter [s] | rel err [%]", cross),
    )
}

/// Table 4: the per-cell instruction mix, read from the simulator's
/// counters.
fn table4(runs: &Runs) -> String {
    let c = &runs.full;
    let per_cell = |v: u64| v / LAB.2 as u64;
    let ops = [
        ("FMUL", c.fmul, 60, "2 loads, 1 store"),
        ("FSUB", c.fsub, 40, "2 loads, 1 store"),
        ("FNEG", c.fneg, 10, "1 load, 1 store"),
        ("FADD", c.fadd, 10, "2 loads, 1 store"),
        ("FMA", c.fma, 10, "3 loads, 1 store"),
        ("FMOV", c.fmov_in, 16, "1 store, 1 fabric load"),
    ];
    let totals = [
        ("FLOPs", c.flops(), 140),
        ("loads + stores", c.mem_loads + c.mem_stores, 406),
        ("fabric loads", c.fabric_loads, 16),
    ];
    let all_match = ops
        .iter()
        .map(|&(_, got, paper, _)| (got, paper))
        .chain(totals.iter().map(|&(_, got, paper)| (got, paper)))
        .all(|(got, paper)| per_cell(got) == paper);
    let intensities = [
        ("memory", "0.0862", c.memory_intensity()),
        ("fabric", "2.1875", c.fabric_intensity()),
    ];
    let summary = totals
        .map(|(what, got, paper)| format!("{what} | {paper} | {}", per_cell(got)))
        .into_iter()
        .chain(intensities.map(|(to, paper, got)| {
            format!("arithmetic intensity, {to} [FLOP/B] | {paper} | {got:.4}")
        }));
    let ops = ops
        .map(|(op, got, paper, traffic)| format!("{op} | {paper} | {} | {traffic}", per_cell(got)));
    format!(
        "{}\n{}\nEvery count matches the paper: {}.\n",
        markdown_table("op | paper | measured | traffic", ops),
        markdown_table("per cell | paper | measured", summary),
        if all_match { "yes" } else { "no" },
    )
}

/// The CS-2 roofline (PE-memory and fabric ceilings) and the A100 one
/// (HBM ceiling).
fn rooflines(cs2: &Cs2Model, a100: &A100Model) -> (Roofline, Roofline) {
    (
        Roofline::new("CS-2", cs2.peak_flops())
            .with_bandwidth("memory", cs2.memory_bandwidth())
            .with_bandwidth("fabric", cs2.fabric_bandwidth()),
        Roofline::new("A100", a100.peak_flops).with_bandwidth("HBM", a100.mem_bandwidth),
    )
}

/// Figure 8's kernel dots: the CS-2 dots at the measured intensities and
/// the modelled rate, the A100 dot from the calibrated bandwidth model.
fn figure8(runs: &Runs) -> String {
    let (cs2, a100) = (Cs2Model::default(), A100Model::default());
    let (roof_cs2, roof_a100) = rooflines(&cs2, &a100);
    let cs2_rate = paper_flops(runs) / cs2_seconds(&cs2, runs.full.cycles());
    let a100_rate = a100.roofline_ceiling() * a100.bandwidth_efficiency;
    let dots = [
        (&roof_cs2, "memory", runs.full.memory_intensity(), cs2_rate),
        (&roof_cs2, "fabric", runs.full.fabric_intensity(), cs2_rate),
        (&roof_a100, "HBM", a100.profiled_intensity, a100_rate),
    ];
    let papers = [
        "0.0862, bandwidth-bound, 311.85 TFLOP/s",
        "2.1875, compute-bound, 311.85 TFLOP/s",
        "2.11, memory-bound at 76 %, 6012 GFLOP/s",
    ];
    let rows = dots
        .iter()
        .zip(papers)
        .map(|(&(roof, ceiling, ai, rate), paper)| {
            let point = RooflinePoint {
                label: String::new(),
                intensity: ai,
                achieved_flops: rate,
                ceiling: ceiling.into(),
            };
            let bound = match (roof.is_bandwidth_bound(ceiling, ai), ceiling) {
                (false, _) => "compute",
                (true, "HBM") => "memory",
                (true, _) => "bandwidth",
            };
            let achieved = match ceiling {
                "HBM" => format!("{:.2} GFLOP/s", rate / 1e9),
                _ => format!("{:.2} TFLOP/s", rate / 1e12),
            };
            format!(
                "{}, FV flux vs {ceiling} | {ai:.4} | {bound}-bound, {:.0} % of roof \
                 | {achieved} | {paper}",
                roof.machine,
                100.0 * roof.efficiency(&point),
            )
        });
    format!(
        "Peaks: CS-2 {:.1} TFLOP/s, A100 {:.1} TFLOP/s.\n\n{}\n\
         The A100 dot's rate is the model's: {:.0} GB/s HBM × {:.2} bandwidth efficiency \
         × {:.2} FLOP/B = {:.2} GFLOP/s, against the paper's 6012 GFLOP/s. The HBM roof \
         at {:.2} FLOP/B is {:.2} GFLOP/s.\n",
        cs2.peak_flops() / 1e12,
        a100.peak_flops / 1e12,
        markdown_table(
            "kernel dot | AI [FLOP/B] | placement | achieved | paper",
            rows
        ),
        a100.mem_bandwidth / 1e9,
        a100.bandwidth_efficiency,
        a100.profiled_intensity,
        a100_rate / 1e9,
        a100.profiled_intensity,
        a100.roofline_ceiling() / 1e9,
    )
}

/// Figure 8's ceiling series, plot-ready (13 log-spaced arithmetic
/// intensities up to 100 FLOP/B).
fn figure8_ceilings() -> String {
    let series = |roof: &Roofline, from: f64| {
        let labels: Vec<&str> = roof.bandwidths.iter().map(|b| b.label.as_str()).collect();
        let columns: Vec<_> = labels
            .iter()
            .map(|l| roof.series(l, from, 100.0, 13))
            .collect();
        let rows = (0..13).map(|i| {
            let attainable = columns.iter().map(|c| format!("{:.4e}", c[i].1));
            let ai = format!("{:.4}", columns[0][i].0);
            std::iter::once(ai)
                .chain(attainable)
                .collect::<Vec<_>>()
                .join(" | ")
        });
        let header = format!("AI [FLOP/B] | {} [FLOP/s]", labels.join(" [FLOP/s] | "));
        markdown_table(&header, rows)
    };
    let (cs2, a100) = rooflines(&Cs2Model::default(), &A100Model::default());
    format!(
        "Roofline ceilings, printed for plotting, not embedded.\n\nCS-2:\n\n{}\nA100:\n\n{}",
        series(&cs2, 0.01),
        series(&a100, 0.1),
    )
}

/// §7.2: GFLOP/W of both machines and their ratio, at the modelled times
/// and at the paper's wall-clocks.
fn energy(runs: &Runs) -> String {
    let (cs2, a100) = (Cs2Model::default(), A100Model::default());
    let flops = paper_flops(runs);
    let power = [cs2.power_watts, a100.power_watts].map(EnergyModel::new);
    let time = [
        cs2_seconds(&cs2, runs.full.cycles()),
        a100.time_seconds(paper_cells(), PAPER_ITERATIONS),
    ];
    let model = [0, 1].map(|i| power[i].gflop_per_watt(flops, time[i]));
    let paper = [0, 1].map(|i| power[i].gflop_per_watt(flops, [0.0823, 16.8378][i]));
    let rows = [("CS-2", "13.67"), ("A100", "6.10")]
        .iter()
        .enumerate()
        .map(|(i, (name, published))| {
            format!(
                "{name} | {:.0} | {} | {:.2} | {:.2} | {:.2} | {published}",
                power[i].power_watts,
                secs(time[i]),
                power[i].energy_joules(time[i]) / 1e3,
                model[i],
                paper[i],
            )
        })
        .chain([format!(
            "ratio | | | | {:.2}× | {:.2}× | 2.2×",
            efficiency_ratio(model[0], model[1]),
            efficiency_ratio(paper[0], paper[1])
        )]);
    markdown_table(
        " | power [W] | model time [s] | energy [kJ] | GFLOP/W, model times \
         | GFLOP/W, paper wall-clocks | paper GFLOP/W",
        rows,
    )
}

/// §5.2.2: the interior PE's traffic and cycles with the diagonal exchange
/// on (the shared full run) and off.
fn ablation(runs: &Runs) -> String {
    let (nx, ny, nz) = LAB;
    let (mesh, fluid, _) = standard_problem(nx, ny, nz, 42);
    // The builder rejects a cardinal-only fabric fed diagonal
    // transmissibilities, so the OFF arm pairs the ablated exchange with
    // the cardinal stencil; the counters compared depend only on the
    // exchange pattern and nz.
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 42);
    let cardinal = Transmissibilities::tpfa(&mesh, &perm, StencilKind::Cardinal);
    let mut sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&cardinal)
        .diagonals_enabled(false)
        .build()
        .expect("a cardinal stencil without diagonals is valid");
    sim.apply(&pressure_for_iteration(&mesh, 0))
        .expect("ablated run failed");
    let (on, off) = (&runs.full, *sim.pe_counters(nx / 2, ny / 2));
    let rows = [
        ("fabric loads", on.fabric_loads, off.fabric_loads),
        ("communication cycles", on.comm_cycles, off.comm_cycles),
        ("total cycles", on.cycles(), off.cycles()),
    ]
    .map(|(what, a, b)| format!("{what} | {a} | {b} | {:.2}×", a as f64 / b as f64));
    let comm_delta = on.comm_cycles - off.comm_cycles;
    let cs2 = Cs2Model::default();
    format!(
        "{}\nThe extra {} cycles are {comm_delta} of communication and {} of computation \
         (the four diagonal faces). Modelled at paper scale: {} s with diagonals, {} s \
         without; the pattern's pure communication overhead is {:.1} % of the total.\n",
        markdown_table(
            "interior PE, per application | diagonals ON | diagonals OFF | ratio",
            rows
        ),
        on.cycles() - off.cycles(),
        on.compute_cycles - off.compute_cycles,
        secs(cs2_seconds(&cs2, on.cycles())),
        secs(cs2_seconds(&cs2, off.cycles())),
        100.0 * comm_delta as f64 / on.cycles() as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAGMENT: &str = "| a | b |\n| --- | --- |\n| x | 0.0262 |\n";

    fn document(fragment: &str) -> String {
        format!("# Title\n\n<!-- paper:t -->\n\n{fragment}\n<!-- /paper:t -->\n\nprose\n")
    }

    #[test]
    fn an_unchanged_document_passes() {
        assert_eq!(check(&document(FRAGMENT), "t", FRAGMENT), Ok(()));
    }

    #[test]
    fn one_changed_digit_fails_and_names_the_line() {
        let doc = document(&FRAGMENT.replace("0.0262", "0.0263"));
        let err = check(&doc, "t", FRAGMENT).unwrap_err();
        assert!(err.starts_with("t: fragment line 3 differs"), "{err}");
        assert!(err.contains("| x | 0.0263 |") && err.contains("| x | 0.0262 |"));
        let shorter = document("| a | b |\n| --- | --- |\n");
        assert!(check(&shorter, "t", FRAGMENT)
            .unwrap_err()
            .contains("document:  <end>"));
    }

    #[test]
    fn a_missing_or_unterminated_marker_fails_and_names_the_table() {
        let doc = document(FRAGMENT);
        assert_eq!(
            check(&doc, "table9", FRAGMENT),
            Err("table9: no <!-- paper:table9 --> marker".into())
        );
        let open_only = doc.replace("<!-- /paper:t -->", "");
        assert_eq!(
            check(&open_only, "t", FRAGMENT),
            Err("t: <!-- paper:t --> has no closing <!-- /paper:t -->".into())
        );
    }

    #[test]
    fn select_takes_one_known_table_name_and_nothing_else() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(select(&args("")).unwrap().len(), TABLES.len());
        assert_eq!(select(&args("table3")).unwrap()[0].name, "table3");
        for bad in ["table5", "--shards", "table1 table2", "table1 --shards 4"] {
            assert!(select(&args(bad)).is_err(), "{bad}");
        }
    }
}
