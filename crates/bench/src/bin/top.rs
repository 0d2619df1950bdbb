//! **top** — a live ASCII dashboard over the job server's progress
//! streams ([`wse_serve::JobServer::subscribe`]) and `serve_*` telemetry.
//!
//! Submits a small batch of jobs to a local [`wse_serve::JobServer`] and
//! renders one progress bar per job at chunk granularity — percent
//! complete, applications done, deterministic event/fabric-time
//! coordinates, and a wall-clock ETA — plus a server footer (queue depth,
//! busy workers, completed jobs, cache hits, route equivalence classes,
//! region fast-forward jumps) read straight from the live
//! [`wse_metrics::MetricsHub`]. The screen redraws in place via ANSI
//! cursor movement; pass `--plain` to append frames instead (useful when
//! piping to a file).
//!
//! Usage: `top [--jobs N] [--apps N] [--shards N [--threads M]]
//! [--metrics out.prom] [--plain]`. Exits 0 once every job settles; with
//! `--metrics` the final hub contents are written as Prometheus text.

use std::sync::mpsc;
use std::time::Duration;

use bench::cli::{flag, or_exit};
use wse_serve::{JobServer, JobSpec, JobState, ProblemSpec, ProgressUpdate, ServerConfig};

const NX: usize = 16;
const NY: usize = 16;
const NZ: usize = 6;
const BAR: usize = 24;

/// One rendered dashboard line: `job 3 [#####---] 42.0% apps 1/4 ...`.
fn render_line(idx: usize, apps_total: usize, u: &ProgressUpdate, state: &str) -> String {
    let filled = ((u.progress * BAR as f64).round() as usize).min(BAR);
    let bar = format!("{}{}", "#".repeat(filled), "-".repeat(BAR - filled));
    let eta = match u.eta_seconds {
        Some(s) if s > 0.005 => format!("eta {s:6.2}s"),
        _ => "eta      -".to_string(),
    };
    format!(
        "job {idx:<2} [{bar}] {:6.1}%  apps {:>2}/{apps_total:<2}  ev {:>9}  t {:>8}  {eta}  {state}",
        u.progress * 100.0,
        u.applications_done,
        u.events,
        u.fabric_time,
    )
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let common = or_exit(bench::CommonArgs::from_slice(
        &raw,
        &["--shards", "--threads", "--metrics", "--jobs", "--apps"],
        &["--plain"],
    ));
    let jobs = or_exit(flag(&raw, "--jobs")).unwrap_or(4);
    let apps = or_exit(flag(&raw, "--apps")).unwrap_or(6);
    let plain = raw.iter().any(|a| a == "--plain");

    // The dashboard needs a live hub regardless of --metrics; the flag
    // only controls whether the final snapshot is written out.
    let hub = wse_metrics::MetricsHub::new_live();
    let server = JobServer::start(ServerConfig {
        workers: 2,
        queue_capacity: jobs.max(8),
        metrics: hub.clone(),
    });
    println!(
        "== top: {jobs} jobs x {apps} applications on {NX}x{NY}x{NZ}, engine {} ==\n",
        common.execution_label()
    );

    // Fan every per-job subscription into one channel the render loop can
    // drain without blocking on any single job.
    let (tx, rx) = mpsc::channel::<(usize, ProgressUpdate)>();
    let mut ids = Vec::new();
    for j in 0..jobs {
        let problem = ProblemSpec {
            nx: NX,
            ny: NY,
            nz: NZ,
            // Two jobs per seed so the compiled-problem cache gets hits.
            perm_seed: 42 + (j / 2) as u64,
        };
        let mut spec = JobSpec::new(problem, apps);
        spec.execution = common.execution;
        spec.checkpoint_every = Some(2048); // chunked => frequent updates
        let id = server.submit(spec).expect("queue sized for the batch");
        let sub = server.subscribe(id).expect("job just submitted");
        let tx = tx.clone();
        std::thread::spawn(move || {
            for update in sub {
                if tx.send((j, update)).is_err() {
                    break;
                }
            }
        });
        ids.push(id);
    }
    drop(tx);

    let queue_depth = hub.gauge("serve_queue_depth", "", &[]);
    let busy = hub.gauge("serve_workers_busy", "", &[]);
    let done_ctr = hub.counter("serve_jobs_done_total", "", &[]);
    let hits = hub.counter("serve_cache_hits_total", "", &[]);
    // Fabric-level series carry the driver's `engine` label; the same
    // label makes these handles alias the worker-registered ones.
    let engine = tpfa_dataflow::engine_label(common.execution);
    let fabric_label: &[(&str, &str)] = &[("engine", &engine)];
    let eq_classes = hub.gauge("fabric_eq_classes", "", fabric_label);
    let region_ff = hub.counter("fabric_region_ff_jumps_total", "", fabric_label);

    let mut latest: Vec<Option<ProgressUpdate>> = vec![None; jobs];
    let mut frame_lines = 0usize;
    let mut open = jobs;
    loop {
        // Drain everything pending, then redraw once.
        loop {
            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok((j, update)) => latest[j] = Some(update),
                Err(mpsc::RecvTimeoutError::Timeout) => break,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    open = 0;
                    break;
                }
            }
        }
        if !plain && frame_lines > 0 {
            print!("\x1b[{frame_lines}A");
        }
        let clear = if plain { "" } else { "\x1b[2K" };
        frame_lines = 0;
        for (j, slot) in latest.iter().enumerate() {
            let state = match server.status(ids[j]).map(|s| s.state) {
                Some(JobState::Queued) => "queued",
                Some(JobState::Running) => "running",
                Some(JobState::Done) => "done",
                Some(JobState::Checkpointed) => "parked",
                Some(JobState::Failed(_)) => "FAILED",
                None => "?",
            };
            let line = match slot {
                Some(u) => render_line(j, apps, u, state),
                None => format!("job {j:<2} [{}] waiting...", "-".repeat(BAR)),
            };
            println!("{clear}{line}");
            frame_lines += 1;
        }
        println!(
            "{clear}\nqueue {:.0}  busy {:.0}  done {}/{jobs}  cache hits {}  eq-classes {:.0}  region-ff {}",
            queue_depth.get(),
            busy.get(),
            done_ctr.get(),
            hits.get(),
            eq_classes.get(),
            region_ff.get()
        );
        frame_lines += 2;
        if open == 0 {
            break;
        }
    }

    for &id in &ids {
        let fin = server.wait(id).expect("job exists");
        assert_eq!(fin.state, JobState::Done, "dashboard jobs must finish");
        assert_eq!(fin.progress, 1.0, "settled jobs report progress 1.0");
    }
    server.shutdown();
    bench::export_metrics(&common, &hub);
    println!("\nall {jobs} jobs done; every subscriber stream closed cleanly.");
}
