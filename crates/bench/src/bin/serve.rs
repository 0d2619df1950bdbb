//! **Serve harness** — scripted exercise of the multi-tenant simulation
//! job server (`wse-serve`): submit → preempt → resume → verify, then a
//! repeat submission that must hit the compiled-layout cache.
//!
//! The script asserts the serving contract end to end:
//!
//! * a job preempted mid-run parks as a complete fabric checkpoint and,
//!   once resumed, finishes with a residual **bit-identical** to a direct
//!   (serverless) run of the same problem;
//! * a second job naming the same [`ProblemSpec`] reports
//!   `cache_hit = true` and a lower setup time than the compiling first
//!   job (the transmissibility assembly is the dominant host-side cost);
//! * the bounded queue rejects the submission past its capacity with the
//!   typed [`wse_serve::SubmitError::QueueFull`].
//!
//! Usage: `serve [--apps N] [--shards N [--threads M]] [--metrics out.prom]`.
//! With `--metrics` the server runs with a live telemetry hub and the
//! `serve_*`/`fabric_*`/`driver_*` series are written out as Prometheus
//! text on exit. Exit code 0 iff every assertion holds.

use bench::cli::{flag, or_exit};
use bench::pressure_for_iteration;
use tpfa_dataflow::DataflowFluxSimulator;
use wse_serve::{JobServer, JobSpec, JobState, ProblemSpec, ServerConfig};

const NX: usize = 12;
const NY: usize = 12;
const NZ: usize = 6;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let common = or_exit(bench::CommonArgs::from_slice(&raw, &["--apps"], &[]));
    let apps = or_exit(flag(&raw, "--apps")).unwrap_or(4);
    let problem = ProblemSpec {
        nx: NX,
        ny: NY,
        nz: NZ,
        perm_seed: 42,
    };
    let mut spec = JobSpec::new(problem, apps);
    spec.execution = common.execution;
    // Small chunks so preemption lands promptly mid-application.
    spec.checkpoint_every = Some(1024);

    println!(
        "== serve: {NX}x{NY}x{NZ}, {apps} applications per job, engine {} ==\n",
        common.execution_label()
    );
    let hub = bench::metrics_hub(&common);
    let server = JobServer::start(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        metrics: hub.clone(),
    });

    // ---- submit → preempt → resume → verify -----------------------------
    let id = server.submit(spec.clone()).expect("empty queue accepts");
    println!("submitted {id}");
    // Preempt once the worker is demonstrably mid-run (fall through if the
    // job outraces the poll — the verification below holds either way).
    loop {
        let s = server.status(id).expect("job exists");
        match s.state {
            JobState::Running if s.events > 0 => {
                server.preempt(id);
                break;
            }
            JobState::Done | JobState::Failed(_) => break,
            _ => std::thread::yield_now(),
        }
    }
    let parked = server.wait(id).expect("job exists");
    if parked.state == JobState::Checkpointed {
        println!(
            "preempted {id}: parked at {} events, {}/{} applications, \
             {} checkpoint(s) captured",
            parked.events, parked.applications_done, parked.applications_total, parked.checkpoints
        );
        assert!(server.resume(id), "a parked job accepts resume");
        println!("resumed {id}");
    } else {
        println!("note: {id} finished before the preempt landed (tiny run)");
    }
    let done = server.wait(id).expect("job exists");
    assert_eq!(done.state, JobState::Done, "resumed job must finish");
    let served = server.result(id).expect("done job has a residual");

    // Direct (serverless) control: same problem, same pressure stream.
    let (mesh, fluid, trans) = bench::standard_problem(NX, NY, NZ, 42);
    let mut direct = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .execution(common.execution)
        .build()
        .expect("serve problem is always valid");
    let mut control = Vec::new();
    for i in 0..apps {
        control = direct
            .apply(&pressure_for_iteration(&mesh, i))
            .expect("direct run failed");
    }
    assert!(
        served
            .iter()
            .zip(&control)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "served residual must be bit-identical to the direct run"
    );
    println!(
        "verified: served residual bit-identical to the direct run \
         ({} cells, {} events)\n",
        served.len(),
        done.events
    );

    // ---- compiled-layout cache ------------------------------------------
    let first = server.status(id).expect("job exists");
    let id2 = server.submit(spec).expect("queue has room");
    let second = server.wait(id2).expect("job exists");
    assert_eq!(second.state, JobState::Done);
    assert_eq!(first.cache_hit, Some(false), "first job compiles");
    assert_eq!(second.cache_hit, Some(true), "repeat submission hits");
    let (miss, hit) = (
        first.setup_nanos.expect("measured"),
        second.setup_nanos.expect("measured"),
    );
    assert!(
        hit < miss,
        "cache hit must be cheaper than the compile ({hit} ns vs {miss} ns)"
    );
    println!(
        "compiled-layout cache ({} entry):",
        server.cached_problems()
    );
    let rows = [("first", &first), ("repeat", &second)].map(|(label, s)| {
        format!(
            "{label} | {:?} | {:.1} | {:.0}% | {} | {}",
            s.cache_hit == Some(true),
            s.setup_nanos.unwrap() as f64 / 1_000.0,
            s.progress * 100.0,
            s.stats.fabric_hops,
            s.stats.flow_stalls
        )
    });
    print!(
        "{}",
        bench::markdown_table(
            "job | cache_hit | setup [µs] | progress | hops | stalls",
            rows
        )
    );
    assert_eq!(first.progress, 1.0, "a done job reports progress 1.0");
    assert!(
        second.stats.fabric_hops > 0,
        "a finished job carries cumulative fabric stats"
    );

    // ---- bounded queue ---------------------------------------------------
    // Occupy both workers with long jobs so fillers stay queued, then
    // submit past the capacity.
    let mut blocker = JobSpec::new(problem, 1_000);
    blocker.checkpoint_every = Some(1024);
    let blockers: Vec<_> = (0..2)
        .map(|_| server.submit(blocker.clone()).expect("queue has room"))
        .collect();
    while !blockers.iter().all(|&b| {
        matches!(
            server.status(b).expect("job exists").state,
            JobState::Running
        )
    }) {
        std::thread::yield_now();
    }
    let filler = JobSpec::new(problem, 1);
    let mut fillers = Vec::new();
    let overflow = loop {
        match server.submit(filler.clone()) {
            Ok(fid) => fillers.push(fid),
            Err(e) => break e,
        }
    };
    assert!(
        matches!(overflow, wse_serve::SubmitError::QueueFull { .. }),
        "overflow must be the typed rejection, got: {overflow}"
    );
    println!(
        "\nbounded queue: {} queued fillers behind 2 busy workers, then \
         typed rejection: {overflow}",
        fillers.len()
    );
    for fid in fillers.into_iter().chain(blockers) {
        server.cancel(fid);
    }

    server.shutdown();
    bench::export_metrics(&common, &hub);
    println!("\nserve contract upheld: preempt/resume bit-identity, cache hit, bounded queue.");
}
