//! **Chaos harness** — randomized seeded fault schedules against the fabric
//! simulator, asserting the recovery contract on every run:
//!
//! * a run that returns `Ok` without degradation is **bit-identical** to the
//!   fault-free residual;
//! * a degraded run's valid PEs are bit-identical to the fault-free
//!   residual on those columns;
//! * everything else is a **typed** [`FabricError::Fault`]-family error —
//!   never silently wrong data;
//! * per seed and policy, `Execution::Sequential` and `Execution::Sharded`
//!   reach the **same outcome** with the same fault log.
//!
//! Usage: `chaos [--schedules N] [--seed S0] [--shards N [--threads M]]
//! [--report out.json]`. With `--shards`, the harness still runs *both*
//! engines per schedule (the differential assertion needs them); the flag
//! pins the sharded geometry being differenced. Without it, schedules
//! rotate through a sweep of strip counts (4, 1, 9 and 2) so the
//! cycle-synchronous strip engine is chaos-tested across strip layouts —
//! fault plans force per-hop routing, and halt faults exercise the
//! no-hang guarantee when a whole strip goes quiet. Exit code 0 iff every
//! schedule upholds every invariant.
//!
//! Every failed run's JSON report line carries a **flight-recorder tail**
//! (`"flight": [...]`): the last [`FLIGHT_TAIL`] fault-log events before
//! the typed error, rendered through the same bounded drop-oldest ring
//! ([`wse_metrics::FlightRecorder`]) the job server attaches to failures.
//!
//! A **kill/restore sweep** follows the fault schedules: each run is
//! checkpointed mid-application at a seeded event count
//! ([`wse_serve::Checkpoint`], the full binary codec), the live simulator
//! is dropped, the bytes are restored into a freshly built one, and the
//! run finishes — the residual, per-PE counters, aggregate stats and
//! accumulated [`RunReport`](wse_sim::fabric::RunReport) must be bit-identical to an uninterrupted
//! run, on both engines, with fast-forwarding on and off.

use bench::cli::{flag, or_exit};
use bench::{pressure_for_iteration, standard_problem};
use tpfa_dataflow::{DataflowFluxSimulator, Recovered, RecoveryPolicy};
use wse_metrics::FlightRecorder;
use wse_sim::fabric::{Execution, FabricError};
use wse_sim::fault::FaultPlan;
use wse_sim::geometry::FabricDims;

const NX: usize = 8;
const NY: usize = 8;
const NZ: usize = 6;
/// Injection window: wide enough to hit every phase of the 2-step cardinal
/// + 3-phase diagonal exchange of one application.
const HORIZON: u64 = 400;
const FAULTS_PER_SCHEDULE: usize = 3;
/// Flight-recorder depth for the failure tails in the JSON report: a
/// bounded drop-oldest ring (`wse_metrics::FlightRecorder`), so a noisy
/// schedule still yields exactly the last few fault events before death.
const FLIGHT_TAIL: usize = 8;

/// Outcome of one (schedule, policy, engine) run, reduced to comparable
/// form.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    /// Clean residual (bit-comparable), attempts used.
    Clean { residual: Vec<f32>, attempts: u32 },
    /// Degraded residual with validity map.
    Degraded {
        residual: Vec<f32>,
        valid: Vec<bool>,
    },
    /// Typed error, reduced to its rendered form (site, time, class).
    Error { message: String },
}

/// The last [`FLIGHT_TAIL`] fault-log events of a finished run, rendered
/// through a bounded drop-oldest ring — the same flight-recorder shape the
/// job server attaches to failures ([`wse_serve::JobServer::failure_of`]).
fn flight_tail(sim: &DataflowFluxSimulator) -> Vec<String> {
    let mut ring = FlightRecorder::new(FLIGHT_TAIL);
    for ev in sim.fault_log() {
        ring.push(format!(
            "t={} pe=({},{}) {:?} detail={}{}",
            ev.time,
            ev.pe.col,
            ev.pe.row,
            ev.class,
            ev.detail,
            if ev.benign { " (benign)" } else { "" }
        ));
    }
    ring.to_vec()
}

fn run_one(
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    execution: Execution,
    pressure: &[f32],
) -> (Outcome, usize, Vec<String>) {
    let (mesh, fluid, trans) = standard_problem(NX, NY, NZ, 42);
    let mut sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .execution(execution)
        .fault_plan(plan.clone())
        .recovery(policy)
        .build()
        .expect("chaos problem must pass builder validation");
    let outcome = match sim.apply_recovering(pressure) {
        Ok(Recovered {
            residual,
            valid,
            degraded: true,
            ..
        }) => Outcome::Degraded { residual, valid },
        Ok(r) => Outcome::Clean {
            residual: r.residual,
            attempts: r.attempts,
        },
        Err(e) => {
            assert!(
                matches!(e, FabricError::Fault { .. }),
                "fault schedules must fail through the typed Fault error, got: {e}"
            );
            Outcome::Error {
                message: e.to_string(),
            }
        }
    };
    (outcome, sim.fault_log().len(), flight_tail(&sim))
}

fn check_invariants(seed: u64, policy: RecoveryPolicy, outcome: &Outcome, baseline: &[f32]) {
    match outcome {
        Outcome::Clean { residual, .. } => {
            assert_eq!(
                residual.as_slice(),
                baseline,
                "seed {seed} {policy:?}: clean run must be bit-identical to fault-free"
            );
        }
        Outcome::Degraded { residual, valid } => {
            assert_eq!(valid.len(), NX * NY);
            for (pe, &ok) in valid.iter().enumerate() {
                if !ok {
                    continue;
                }
                let (x, y) = (pe % NX, pe / NX);
                for z in 0..NZ {
                    let i = (z * NY + y) * NX + x;
                    assert_eq!(
                        residual[i].to_bits(),
                        baseline[i].to_bits(),
                        "seed {seed}: degraded run marked PE ({x},{y}) valid but \
                         cell {i} differs from the fault-free residual"
                    );
                }
            }
        }
        Outcome::Error { .. } => {}
    }
}

/// One measured end state of a (possibly interrupted) single-application
/// run, reduced to bit-comparable form.
#[derive(Debug, PartialEq)]
struct EndState {
    residual_bits: Vec<u32>,
    stats: wse_sim::stats::FabricStats,
    report: wse_sim::fabric::RunReport,
}

/// Runs one application, killed at `kill_at` events: the mid-application
/// state makes the full serialize → drop → deserialize → restore journey
/// into a **freshly built** simulator, which then finishes the run.
/// `kill_at = None` is the uninterrupted control.
fn kill_restore_one(
    execution: Execution,
    fast_forward: bool,
    kill_at: Option<u64>,
    pressure: &[f32],
) -> EndState {
    let (mesh, fluid, trans) = standard_problem(NX, NY, NZ, 42);
    let build = || {
        DataflowFluxSimulator::builder(&mesh)
            .fluid(&fluid)
            .transmissibilities(&trans)
            .execution(execution)
            .fast_forward(fast_forward)
            .build()
            .expect("chaos problem must pass builder validation")
    };
    let mut sim = build();
    let residual = match kill_at {
        None => sim.apply(pressure).expect("uninterrupted run failed"),
        Some(limit) => {
            sim.begin_apply(pressure);
            let step = sim.step_events(limit).expect("stepped run failed");
            if !step.complete {
                // The kill: only the serialized bytes survive.
                let bytes = wse_serve::Checkpoint::capture(&sim).encode();
                drop(sim);
                sim = build();
                wse_serve::Checkpoint::decode(&bytes)
                    .expect("own checkpoint must decode")
                    .restore_into(&mut sim)
                    .expect("restore into an identically built simulator");
            }
            sim.finish_apply().expect("resumed run failed")
        }
    };
    EndState {
        residual_bits: residual.iter().map(|v| v.to_bits()).collect(),
        stats: sim.stats(),
        report: sim.last_run().expect("run just finished"),
    }
}

/// The kill/restore sweep: seeded mid-application kill points on every
/// engine × fast-forward combination, each asserted bit-identical to the
/// uninterrupted control. Returns the number of cycles exercised.
fn kill_restore_sweep(
    kills: usize,
    seed0: u64,
    sharded: Execution,
    pressure: &[f32],
    report_lines: &mut Vec<String>,
) -> usize {
    let combos = [
        (Execution::Sequential, true),
        (Execution::Sequential, false),
        (sharded, true),
        (sharded, false),
    ];
    // Uninterrupted control per combo (engines agree, but comparing each
    // combo to its own control keeps the assertion self-contained).
    let controls: Vec<EndState> = combos
        .iter()
        .map(|&(e, ff)| kill_restore_one(e, ff, None, pressure))
        .collect();
    let total_events = controls[0].report.events;
    for w in 1..controls.len() {
        assert_eq!(
            controls[0], controls[w],
            "uninterrupted engines/fast-forward modes must agree"
        );
    }
    for k in 0..kills {
        let seed = seed0 + k as u64;
        // Seeded kill point, spread over the middle of the run.
        let kill_at = 1 + seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) % (3 * total_events / 4);
        let (execution, ff) = combos[k % combos.len()];
        let killed = kill_restore_one(execution, ff, Some(kill_at), pressure);
        assert_eq!(
            killed,
            controls[k % combos.len()],
            "seed {seed}: kill at {kill_at} events on {:?}/ff={ff} must \
             restore bit-identically",
            execution
        );
        report_lines.push(format!(
            "{{\"kill_seed\":{seed},\"kill_at\":{kill_at},\"engine\":\"{}\",\
             \"fast_forward\":{ff},\"bit_identical\":true}}",
            bench::execution_label(execution)
        ));
    }
    kills
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let common = or_exit(bench::CommonArgs::from_slice(
        &raw,
        &["--schedules", "--seed", "--report"],
        &[],
    ));
    let schedules = or_exit(flag(&raw, "--schedules")).unwrap_or(50);
    let seed0 = or_exit(flag(&raw, "--seed")).unwrap_or(1);
    let report_path: Option<String> = or_exit(flag(&raw, "--report"));
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    // One pinned geometry with --shards, otherwise a rotating sweep of
    // shard grids so every boundary layout gets chaos coverage.
    let geometries: Vec<Execution> = match common.execution {
        Execution::Sharded { .. } => vec![common.execution],
        Execution::Sequential => vec![
            Execution::Sharded { shards: 4, threads },
            Execution::Sharded { shards: 1, threads },
            Execution::Sharded { shards: 9, threads },
            Execution::Sharded { shards: 2, threads },
        ],
    };
    let sharded = geometries[0];

    println!(
        "== chaos: {schedules} randomized fault schedules on {NX}x{NY}x{NZ} \
         (seeds {seed0}..{}) ==",
        seed0 + schedules as u64 - 1
    );
    println!(
        "(differencing sequential vs {}; {FAULTS_PER_SCHEDULE} faults per schedule, \
         horizon {HORIZON} cycles)\n",
        if geometries.len() == 1 {
            bench::execution_label(sharded)
        } else {
            format!(
                "a rotating sweep of {} sharded geometries",
                geometries.len()
            )
        }
    );

    // Fault-free baseline, once per engine (they are asserted identical —
    // the repo's standing differential invariant).
    let (mesh, _, _) = standard_problem(NX, NY, NZ, 42);
    let pressure = pressure_for_iteration(&mesh, 0);
    let dims = FabricDims::new(NX, NY);
    let (base_seq, _, _) = run_one(
        &FaultPlan::new(),
        RecoveryPolicy::Fail,
        Execution::Sequential,
        &pressure,
    );
    let (base_shard, _, _) = run_one(&FaultPlan::new(), RecoveryPolicy::Fail, sharded, &pressure);
    assert_eq!(base_seq, base_shard, "fault-free engines must agree");
    let baseline = match &base_seq {
        Outcome::Clean { residual, .. } => residual.clone(),
        other => panic!("fault-free run must be clean, got {other:?}"),
    };

    let policies = [
        RecoveryPolicy::Fail,
        RecoveryPolicy::Retry {
            max_attempts: 3,
            backoff: 64,
        },
        RecoveryPolicy::Degrade,
    ];
    let mut tally = [[0usize; 3]; 3]; // [policy][clean, degraded, error]
    let mut report_lines = Vec::new();
    let mut failure_tails = 0usize;
    for s in 0..schedules {
        let seed = seed0 + s as u64;
        let geometry = geometries[s % geometries.len()];
        let plan = FaultPlan::randomized(seed, dims, HORIZON, FAULTS_PER_SCHEDULE);
        for (pi, &policy) in policies.iter().enumerate() {
            let (seq, seq_faults, seq_flight) =
                run_one(&plan, policy, Execution::Sequential, &pressure);
            let (par, par_faults, par_flight) = run_one(&plan, policy, geometry, &pressure);
            assert_eq!(
                seq, par,
                "seed {seed} {policy:?}: engines disagree on the outcome"
            );
            assert_eq!(
                seq_faults, par_faults,
                "seed {seed} {policy:?}: engines disagree on the fault log"
            );
            assert_eq!(
                seq_flight, par_flight,
                "seed {seed} {policy:?}: engines disagree on the flight tail"
            );
            check_invariants(seed, policy, &seq, &baseline);
            let (label, slot) = match &seq {
                Outcome::Clean { attempts, .. } => (format!("clean(attempts={attempts})"), 0usize),
                Outcome::Degraded { valid, .. } => {
                    let invalid = valid.iter().filter(|v| !**v).count();
                    (format!("degraded(invalid_pes={invalid})"), 1)
                }
                Outcome::Error { message } => (format!("error({message})"), 2),
            };
            tally[pi][slot] += 1;
            // Failures travel with their flight-recorder tail: the last
            // FLIGHT_TAIL fault events leading up to the typed error.
            let flight_json = if matches!(seq, Outcome::Error { .. }) {
                assert!(
                    !seq_flight.is_empty(),
                    "seed {seed} {policy:?}: a failed run must carry a \
                     non-empty flight tail"
                );
                failure_tails += 1;
                let quoted: Vec<String> = seq_flight
                    .iter()
                    .map(|line| format!("\"{}\"", line.replace('\\', "\\\\").replace('"', "\\\"")))
                    .collect();
                format!(",\"flight\":[{}]", quoted.join(","))
            } else {
                String::new()
            };
            report_lines.push(format!(
                "{{\"seed\":{seed},\"policy\":{pi},\"outcome\":\"{label}\",\
                 \"fault_events\":{seq_faults}{flight_json}}}"
            ));
        }
    }

    let rows = ["fail", "retry:3:64", "degrade"]
        .iter()
        .zip(&tally)
        .map(|(name, [clean, degraded, error])| format!("{name} | {clean} | {degraded} | {error}"));
    print!(
        "{}",
        bench::markdown_table("policy | clean | degraded | error", rows)
    );
    println!(
        "\nall {} runs upheld the contract: clean ⇒ bit-identical, degraded ⇒ \
         valid PEs bit-identical, otherwise a typed fault error; engines agree.",
        schedules * policies.len() * 2
    );
    println!(
        "{failure_tails} failure(s) carry a flight-recorder tail \
         (last ≤{FLIGHT_TAIL} fault events) in the report."
    );

    // ---- kill/restore sweep ---------------------------------------------
    let kills = (schedules / 2).clamp(4, 16);
    println!(
        "\n== kill/restore: {kills} seeded mid-application checkpoints \
         (sequential + {}, fast-forward on/off) ==",
        bench::execution_label(sharded)
    );
    kill_restore_sweep(kills, seed0, sharded, &pressure, &mut report_lines);
    println!(
        "all {kills} kill/restore cycles finished bit-identically to their \
         uninterrupted controls (residual, counters, stats, report)."
    );

    if let Some(path) = report_path {
        let json = format!("[\n{}\n]\n", report_lines.join(",\n"));
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing report to {path}: {e}"));
        println!("report written to {path}");
    }
}
