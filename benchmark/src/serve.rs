//! The served workload: closed-loop clients against a `JobServer`.
//!
//! Closed loop because callers wait for their residual: each client sends
//! its next job only after the previous one is done. Everything is timed
//! from the client side of the public API.

use crate::metrics::Measured;
use crate::problem::{bit_identical, Res, Rng};
use crate::span::Tracer;
use crate::stats::{lower_quartile, median, p95_or_tail};
use crate::workloads::{ServeMix, Workload};
use crate::{Ledger, Opts};
use fv_core::state::FlowState;
use std::time::{Duration, Instant};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_serve::{
    CompiledProblem, JobId, JobServer, JobSpec, JobState, JobStatus, ProblemSpec, ServerConfig,
};

/// What one client saw of one job.
struct JobRecord {
    latency_s: f64,
    submit_s: f64,
    first_progress_s: f64,
    status: JobStatus,
    /// Preempt call → parked, resume call → first new progress, resume
    /// call → done; only for jobs that were parked.
    parked: Option<(f64, f64, f64)>,
    /// Spec and served residual of a job picked for verification.
    verify: Option<(JobSpec, Vec<f32>)>,
}

struct ClientResult {
    records: Vec<JobRecord>,
    rejected: u64,
    /// `VmHWM` when this client finished its `min_jobs`-th job: peak memory
    /// after a fixed amount of work, however fast the host is.
    peak_rss_mb: Option<f64>,
    tracer: Tracer,
}

/// Blocks until the job reports more than `beyond` events or settles.
fn await_progress(server: &JobServer, id: JobId, beyond: u64) {
    if let Some(updates) = server.subscribe(id) {
        while updates.recv().is_ok_and(|u| u.events <= beyond) {}
    }
}

#[allow(clippy::too_many_arguments)]
fn client(
    server: &JobServer,
    mix: ServeMix,
    dims: (usize, usize, usize),
    o: &Opts,
    client_index: usize,
    deadline: Instant,
    min_jobs: usize,
    mut tracer: Tracer,
) -> ClientResult {
    let mut rng = Rng(o.seed ^ (client_index as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let verify_every = if o.smoke { 4 } else { mix.verify_every };
    let mut records = Vec::new();
    let mut rejected = 0;
    let mut peak_rss_mb = None;
    let mut k = 0;
    while k < min_jobs || Instant::now() < deadline {
        // Global job number: the mix is the same however the clients race.
        let g = client_index + mix.clients * k;
        k += 1;
        let fresh = g % mix.miss_every == mix.miss_every - 1;
        let preempt = g % mix.preempt_every == mix.preempt_every / 2 + 1;
        let mut spec = JobSpec::new(
            ProblemSpec {
                nx: dims.0,
                ny: dims.1,
                nz: dims.2,
                perm_seed: if fresh {
                    o.seed.wrapping_add(1 + g as u64)
                } else {
                    o.seed
                },
            },
            mix.applications,
        );
        spec.pressure_seed = rng.next_u64() >> 16;
        spec.checkpoint_every = Some(mix.chunk_events);

        let request = g as u64;
        let root = tracer.begin("job", request);
        let (submitted, submit_s) =
            tracer.timed("wse-serve.submit", request, || server.submit(spec.clone()));
        let Ok(id) = submitted else {
            rejected += 1;
            tracer.end(root);
            continue;
        };
        let ((), waited_s) = tracer.timed("wse-serve.first_progress", request, || {
            await_progress(server, id, 0)
        });
        let mut parked = None;
        let status;
        if preempt {
            let (at_park, to_parked_s) =
                tracer.timed("wse-serve.preempt_to_parked", request, || {
                    server.preempt(id);
                    server.wait(id)
                });
            match at_park {
                Some(st) if st.state == JobState::Checkpointed => {
                    let resume = tracer.begin("wse-serve.resume_to_done", request);
                    server.resume(id);
                    let ((), to_progress_s) =
                        tracer.timed("wse-serve.resume_to_progress", request, || {
                            await_progress(server, id, st.events)
                        });
                    status = server.wait(id);
                    parked = Some((to_parked_s, to_progress_s, tracer.end(resume)));
                }
                // The job finished before the preemption landed.
                other => status = other,
            }
        } else {
            (status, _) = tracer.timed("wse-serve.run_to_done", request, || server.wait(id));
        }
        let latency_s = tracer.end(root);
        let Some(status) = status else { continue };
        let verify = g
            .is_multiple_of(verify_every)
            .then(|| server.result(id).map(|residual| (spec, residual)))
            .flatten();
        records.push(JobRecord {
            latency_s,
            submit_s,
            first_progress_s: submit_s + waited_s,
            status,
            parked,
            verify,
        });
        if k == min_jobs {
            peak_rss_mb = crate::env::status_mb("VmHWM:");
        }
    }
    ClientResult {
        records,
        rejected,
        peak_rss_mb,
        tracer,
    }
}

/// The residual a direct run of `spec` produces.
fn direct_residual(spec: &JobSpec) -> Res<Vec<f32>> {
    let problem = CompiledProblem::compile(spec.problem);
    let mut sim = DataflowFluxSimulator::builder(&problem.mesh)
        .fluid(&problem.fluid)
        .transmissibilities(&problem.trans)
        .build()
        .map_err(|e| format!("direct build failed: {e}"))?;
    let mut residual = Vec::new();
    for application in 0..spec.applications {
        let pressure = FlowState::<f32>::varied(
            &problem.mesh,
            1.0e7,
            1.2e7,
            spec.pressure_seed + application as u64,
        );
        residual = sim
            .apply(pressure.pressure())
            .map_err(|e| format!("direct apply failed: {e}"))?;
    }
    Ok(residual)
}

/// Runs the traffic mix and records its end-to-end and job-server metrics.
pub fn run(
    w: &Workload,
    mix: ServeMix,
    o: &Opts,
    epoch: Instant,
    tr: &mut Tracer,
    m: &mut Measured,
    ledger: &mut Ledger,
) -> Res<()> {
    let dims = w.dims(o.smoke);
    let server = JobServer::start(ServerConfig {
        workers: mix.workers,
        queue_capacity: mix.queue_capacity,
        ..ServerConfig::default()
    });
    let min_jobs = if o.smoke { 8 } else { mix.min_jobs_per_client };
    let window_start = Instant::now();
    let deadline = window_start + Duration::from_secs_f64(o.seconds);
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..mix.clients)
            .map(|c| {
                let tracer = Tracer::new(tr.enabled(), epoch, c as u32 + 1);
                let server = &server;
                scope.spawn(move || client(server, mix, dims, o, c, deadline, min_jobs, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
            .collect::<Res<_>>()
    })?;
    let window_s = window_start.elapsed().as_secs_f64();
    server.shutdown();

    let mut records = Vec::new();
    let mut rejected = 0;
    let peak_rss_mb = results
        .iter()
        .filter_map(|r| r.peak_rss_mb)
        .fold(0.0, f64::max);
    for r in results {
        records.extend(r.records);
        rejected += r.rejected;
        tr.absorb(r.tracer);
    }
    let mut verified = 0;
    for (i, record) in records.iter().enumerate() {
        ledger.op();
        ledger.check_quiet(
            "served job ends Done",
            record.status.state == JobState::Done,
        );
        if let Some((spec, served)) = &record.verify {
            let mut served = served.clone();
            if o.corrupt && verified == 0 {
                crate::flip_bit(&mut served);
            }
            verified += 1;
            ledger.check_quiet(
                &format!("served residual of record {i} is bit-identical to a direct run"),
                bit_identical(&served, &direct_residual(spec)?),
            );
        }
    }
    for _ in 0..rejected {
        ledger.op();
        ledger.check_quiet("submission accepted", false);
    }
    println!("  {} jobs in {window_s:.2} s, {verified} verified against direct runs, {rejected} rejected", records.len());
    ledger.check("at least one served residual was verified", verified > 0);

    let done: Vec<&JobRecord> = records
        .iter()
        .filter(|r| r.status.state == JobState::Done)
        .collect();
    if done.is_empty() {
        return Err("no served job finished".into());
    }
    let col = |f: &dyn Fn(&JobRecord) -> Option<f64>| -> Vec<f64> {
        done.iter().filter_map(|r| f(r)).collect()
    };
    let latency = col(&|r| Some(r.latency_s));
    let miss_setup = col(&|r| {
        (r.status.cache_hit == Some(false)).then(|| r.status.setup_nanos.unwrap_or(0) as f64 / 1e9)
    });
    let hit_setup = col(&|r| {
        (r.status.cache_hit == Some(true)).then(|| r.status.setup_nanos.unwrap_or(0) as f64 / 1e9)
    });
    let cycles = col(&|r| Some(r.status.fabric_time as f64 / mix.applications as f64));
    let round_trip = col(&|r| r.parked.map(|(park, progress, _)| park + progress));
    let cells = (dims.0 * dims.1 * dims.2 * mix.applications) as f64;

    m.set("setup_s", lower_quartile(&miss_setup), miss_setup.len());
    m.set(
        "apply_s",
        lower_quartile(&latency) / mix.applications as f64,
        latency.len(),
    );
    m.set(
        "bench.cell_updates_per_s",
        cells * done.len() as f64 / window_s,
        done.len(),
    );
    m.set("sim_cycles_per_apply", median(&cycles), cycles.len());
    m.set(
        "checkpoint_roundtrip_s",
        lower_quartile(&round_trip),
        round_trip.len(),
    );
    m.set("peak_rss_mb", peak_rss_mb, 1);
    ledger.check(
        "every served job advances its fabric clock by the same cycles",
        cycles.iter().all(|&c| c == cycles[0]),
    );
    ledger.check("some jobs were parked and resumed", !round_trip.is_empty());
    ledger.check("some jobs missed the problem cache", !miss_setup.is_empty());

    let n = latency.len();
    m.set("wse-serve.job_latency_p50_s", median(&latency), n);
    if let Some((_, p)) = p95_or_tail(&latency) {
        m.set("wse-serve.job_latency_p95_s", p, n);
    }
    m.set("wse-serve.jobs_per_s", n as f64 / window_s, n);
    m.set(
        "wse-serve.submit_s",
        lower_quartile(&col(&|r| Some(r.submit_s))),
        n,
    );
    m.set(
        "wse-serve.first_progress_s",
        lower_quartile(&col(&|r| Some(r.first_progress_s))),
        n,
    );
    m.set(
        "wse-serve.hit_setup_s",
        lower_quartile(&hit_setup),
        hit_setup.len(),
    );
    m.set(
        "wse-serve.cache_hit_ratio",
        hit_setup.len() as f64 / n as f64,
        n,
    );
    m.set(
        "wse-serve.preempt_to_parked_s",
        lower_quartile(&col(&|r| r.parked.map(|p| p.0))),
        round_trip.len(),
    );
    m.set(
        "wse-serve.resume_to_done_s",
        lower_quartile(&col(&|r| r.parked.map(|p| p.2))),
        round_trip.len(),
    );
    m.set("wse-serve.rejected", rejected as f64, 1);
    Ok(())
}
