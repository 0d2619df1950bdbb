//! A multi-tenant simulation job server.
//!
//! [`JobServer`] owns a pool of worker threads and a bounded submission
//! queue. Each [`JobSpec`] names a standard problem (mesh geometry + a
//! permeability seed), a scenario (how many applications of Algorithm 1,
//! with which pressure seed), and an engine configuration. Workers compile
//! the problem (mesh, transmissibilities — the expensive host-side setup),
//! build the simulator, and drive it with the stepped driver API so jobs
//! can be **preempted** at any event boundary: a preempted job's complete
//! state is captured as a [`Checkpoint`] and the worker moves on; `resume`
//! re-enqueues it and any worker continues it bit-identically — even on a
//! different engine than it started on.
//!
//! Compiled problems are cached by content hash: a repeat submission of
//! the same `ProblemSpec` skips the compile entirely and reports
//! `cache_hit = true` with its measured setup time, so the saving is
//! observable, not asserted.
//!
//! Everything is `std`-only (threads, `Mutex`/`Condvar`) — the container
//! has no async runtime and none is needed: jobs are CPU-bound and the
//! control API is polling + blocking waits.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

use fv_core::eos::Fluid;
use fv_core::fields::PermeabilityField;
use fv_core::mesh::{CartesianMesh3, Extents, Spacing};
use fv_core::state::FlowState;
use fv_core::trans::{StencilKind, Transmissibilities};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_metrics::{Counter, FlightRecorder, Gauge, Histogram, MetricsHub};
use wse_sim::fabric::{Execution, FabricError};
use wse_sim::fault::FaultPlan;
use wse_sim::hash::ContentHasher;
use wse_sim::stats::FabricStats;

use crate::checkpoint::Checkpoint;

/// Entries retained by each job's failure flight recorder — the last-N
/// control/progress events that travel with a failure.
pub const FLIGHT_RECORDER_CAPACITY: usize = 64;

/// Events per [`DataflowFluxSimulator::step_events`] chunk when the job
/// does not set [`JobSpec::checkpoint_every`]. Small enough for prompt
/// preemption, large enough to amortize the pause machinery.
pub const DEFAULT_CHUNK_EVENTS: u64 = 200_000;

/// A standard problem by content: geometry plus the permeability seed.
/// Mirrors the benchmark harness's synthetic workload (uniform spacing,
/// water-like fluid, log-normal permeability, ten-point stencil).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProblemSpec {
    /// PE-grid width (mesh X extent).
    pub nx: usize,
    /// PE-grid height (mesh Y extent).
    pub ny: usize,
    /// Column height (mesh Z extent, in PE memory).
    pub nz: usize,
    /// Seed of the log-normal permeability field.
    pub perm_seed: u64,
}

impl ProblemSpec {
    /// Content hash ([`wse_sim::hash`]) — the compiled-layout cache key.
    pub fn content_hash(&self) -> u64 {
        let mut h = ContentHasher::new();
        for v in [
            self.nx as u64,
            self.ny as u64,
            self.nz as u64,
            self.perm_seed,
        ] {
            h.write_u64(v);
        }
        h.finish()
    }
}

/// A compiled problem: the host-side artifacts that are expensive to
/// build and identical for every job naming the same [`ProblemSpec`].
pub struct CompiledProblem {
    /// The Cartesian mesh.
    pub mesh: CartesianMesh3,
    /// The working fluid.
    pub fluid: Fluid,
    /// The full ten-point transmissibility set.
    pub trans: Transmissibilities,
}

impl CompiledProblem {
    /// Compiles the spec: mesh, fluid, permeability field, TPFA
    /// transmissibilities (the dominant cost).
    pub fn compile(spec: ProblemSpec) -> Self {
        let mesh = CartesianMesh3::new(
            Extents::new(spec.nx, spec.ny, spec.nz),
            Spacing::new(10.0, 10.0, 4.0),
        );
        let fluid = Fluid::water_like();
        let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, spec.perm_seed);
        let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
        Self { mesh, fluid, trans }
    }
}

/// What a job runs: problem, scenario, engine.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The problem to compile (or fetch from the cache).
    pub problem: ProblemSpec,
    /// Applications of Algorithm 1 to run.
    pub applications: usize,
    /// Seed stream for the per-application pressure vectors (application
    /// `i` uses `pressure_seed + i`).
    pub pressure_seed: u64,
    /// Event-loop engine for this job's fabric.
    pub execution: Execution,
    /// Static-route fast-forwarding.
    pub fast_forward: bool,
    /// Fault-injection plan (empty = fault-free).
    pub fault_plan: FaultPlan,
    /// Events per step chunk — the preemption granularity
    /// ([`DEFAULT_CHUNK_EVENTS`] when `None`).
    pub checkpoint_every: Option<u64>,
}

impl JobSpec {
    /// A fault-free sequential job over the given problem.
    pub fn new(problem: ProblemSpec, applications: usize) -> Self {
        Self {
            problem,
            applications,
            pressure_seed: 0,
            execution: Execution::Sequential,
            fast_forward: true,
            fault_plan: FaultPlan::new(),
            checkpoint_every: None,
        }
    }
}

/// Why a job ended without a residual.
#[derive(Debug, Clone, PartialEq)]
pub enum JobFailure {
    /// The fabric surfaced a typed error.
    Fabric(FabricError),
    /// The simulator could not be built or restored.
    Build(String),
    /// The job was canceled.
    Canceled,
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting for a worker (possibly holding a checkpoint to resume).
    Queued,
    /// A worker is driving the fabric.
    Running,
    /// Preempted: complete state captured, waiting for `resume`.
    Checkpointed,
    /// All applications finished; the residual is available.
    Done,
    /// Ended without a residual.
    Failed(JobFailure),
}

/// Job handle returned by [`JobServer::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// A point-in-time view of a job, returned by [`JobServer::status`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job's id.
    pub id: JobId,
    /// Lifecycle state.
    pub state: JobState,
    /// Completed applications of Algorithm 1.
    pub applications_done: usize,
    /// Applications requested.
    pub applications_total: usize,
    /// Fabric events processed so far (across preemptions).
    pub events: u64,
    /// Fabric clock of this job's simulator.
    pub fabric_time: u64,
    /// Estimated completion fraction in `[0, 1]`: completed applications
    /// plus an in-flight fraction extrapolated from the events-per-
    /// application average. Exactly `1.0` once [`JobState::Done`].
    pub progress: f64,
    /// Cumulative fabric statistics of this job's simulator, refreshed at
    /// every chunk boundary (zeroed until the first chunk completes).
    pub stats: FabricStats,
    /// Whether the compiled problem came from the cache (`None` until a
    /// worker picked the job up the first time).
    pub cache_hit: Option<bool>,
    /// Nanoseconds the worker spent obtaining the compiled problem
    /// (compile on a miss, clone-of-`Arc` on a hit).
    pub setup_nanos: Option<u64>,
    /// Checkpoints captured for this job (preemptions).
    pub checkpoints: u64,
}

/// One progress notification, delivered to [`JobServer::subscribe`]rs at
/// chunk granularity (plus one final update at every settling transition).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressUpdate {
    /// Completed applications of Algorithm 1.
    pub applications_done: usize,
    /// Fabric events processed so far (across preemptions).
    pub events: u64,
    /// Fabric clock of the job's simulator.
    pub fabric_time: u64,
    /// Estimated completion fraction in `[0, 1]` (see
    /// [`JobStatus::progress`]).
    pub progress: f64,
    /// Estimated wall-clock seconds to completion, extrapolated from time
    /// spent so far vs progress made. `None` until enough progress exists
    /// to extrapolate from.
    pub eta_seconds: Option<f64>,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — retry later or raise
    /// [`ServerConfig::queue_capacity`].
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The server is shutting down.
    ShuttingDown,
    /// The problem has a zero extent, so there is no mesh to build.
    EmptyProblem(ProblemSpec),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
            SubmitError::EmptyProblem(p) => {
                write!(f, "problem {}x{}x{} has a zero extent", p.nx, p.ny, p.nz)
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Server sizing and telemetry.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs; submissions beyond this are
    /// rejected with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Telemetry hub (default [`MetricsHub::Null`] — every probe is a
    /// no-op). A live hub receives `serve_*` server series and is passed
    /// through to each job's driver for the `fabric_*`/`wall_*` series.
    pub metrics: MetricsHub,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            metrics: MetricsHub::Null,
        }
    }
}

struct Job {
    spec: JobSpec,
    state: JobState,
    applications_done: usize,
    events: u64,
    fabric_time: u64,
    /// Events accumulated inside the current in-flight application (the
    /// numerator of the in-app progress fraction).
    in_app_events: u64,
    /// Cumulative fabric statistics, refreshed at chunk boundaries.
    stats: FabricStats,
    cache_hit: Option<bool>,
    setup_nanos: Option<u64>,
    checkpoints: u64,
    preempt_requested: bool,
    cancel_requested: bool,
    checkpoint: Option<Checkpoint>,
    result: Option<Vec<f32>>,
    /// Wall-clock submission instant (the submit→done latency anchor).
    submitted_at: Instant,
    /// First worker claim (the ETA extrapolation anchor).
    run_started: Option<Instant>,
    /// Live progress subscriptions; dead receivers are pruned on send.
    subscribers: Vec<mpsc::Sender<ProgressUpdate>>,
    /// Last-N control/progress events, attached to failures.
    flight: FlightRecorder<String>,
}

impl Job {
    fn progress(&self) -> f64 {
        if self.state == JobState::Done {
            return 1.0;
        }
        let total = self.spec.applications.max(1) as f64;
        let mut p = self.applications_done as f64 / total;
        // In-app fraction, extrapolated from the mean events a completed
        // application took. The first application has no baseline and
        // contributes nothing until it completes.
        let prior = self.events - self.in_app_events;
        if self.applications_done > 0 && prior > 0 && self.in_app_events > 0 {
            let avg = prior as f64 / self.applications_done as f64;
            p += (self.in_app_events as f64 / avg).min(0.99) / total;
        }
        p.clamp(0.0, 1.0)
    }

    fn status(&self, id: JobId) -> JobStatus {
        JobStatus {
            id,
            state: self.state.clone(),
            applications_done: self.applications_done,
            applications_total: self.spec.applications,
            events: self.events,
            fabric_time: self.fabric_time,
            progress: self.progress(),
            stats: self.stats,
            cache_hit: self.cache_hit,
            setup_nanos: self.setup_nanos,
            checkpoints: self.checkpoints,
        }
    }

    /// Appends a line to the flight recorder, stamped with the job's
    /// deterministic coordinates (fabric time + cumulative events).
    fn record(&mut self, what: &str) {
        let line = format!("t={} ev={} {what}", self.fabric_time, self.events);
        self.flight.push(line);
    }

    /// Sends the current progress to every live subscriber, pruning the
    /// ones whose receiver is gone. `final_update` additionally drops all
    /// subscriptions so receivers observe disconnection.
    fn notify_subscribers(&mut self, final_update: bool) {
        if self.subscribers.is_empty() {
            return;
        }
        let progress = self.progress();
        let eta_seconds = match (self.run_started, progress) {
            (Some(t0), p) if p > 1e-6 && !final_update => {
                Some(t0.elapsed().as_secs_f64() * (1.0 - p) / p)
            }
            _ => None,
        };
        let update = ProgressUpdate {
            applications_done: self.applications_done,
            events: self.events,
            fabric_time: self.fabric_time,
            progress,
            eta_seconds,
        };
        self.subscribers.retain(|s| s.send(update.clone()).is_ok());
        if final_update {
            self.subscribers.clear();
        }
    }
}

#[derive(Default)]
struct ServerState {
    queue: VecDeque<JobId>,
    jobs: HashMap<JobId, Job>,
    next_id: u64,
    /// Workers currently driving a job (the busy gauge's source of truth;
    /// maintained under the state lock, so claim/finish cannot race it).
    busy: usize,
}

/// Preregistered `serve_*` telemetry handles. All no-ops when the server
/// was configured with a null hub.
struct ServerMetrics {
    queue_depth: Gauge,
    workers_busy: Gauge,
    jobs_submitted: Counter,
    jobs_done: Counter,
    jobs_failed: Counter,
    preempts: Counter,
    resumes: Counter,
    cancels: Counter,
    queue_rejections: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    job_latency_ns: Histogram,
    wait_wakeups: Counter,
    ckpt_capture_ns: Histogram,
    ckpt_restore_ns: Histogram,
}

impl ServerMetrics {
    fn new(hub: &MetricsHub) -> Self {
        let l: &[(&str, &str)] = &[];
        Self {
            queue_depth: hub.gauge("serve_queue_depth", "Jobs queued and not yet claimed by a worker", l),
            workers_busy: hub.gauge("serve_workers_busy", "Workers currently driving a job", l),
            jobs_submitted: hub.counter("serve_jobs_submitted_total", "Jobs accepted by submit", l),
            jobs_done: hub.counter("serve_jobs_done_total", "Jobs that finished with a residual", l),
            jobs_failed: hub.counter("serve_jobs_failed_total", "Jobs that ended without a residual (fault, build error, cancel)", l),
            preempts: hub.counter("serve_preempts_total", "Accepted preemption requests", l),
            resumes: hub.counter("serve_resumes_total", "Accepted resume requests", l),
            cancels: hub.counter("serve_cancels_total", "Accepted cancel requests", l),
            queue_rejections: hub.counter("serve_queue_rejections_total", "Submissions rejected because the bounded queue was full", l),
            cache_hits: hub.counter("serve_cache_hits_total", "Compiled-problem cache hits", l),
            cache_misses: hub.counter("serve_cache_misses_total", "Compiled-problem cache misses (full compiles)", l),
            job_latency_ns: hub.histogram("serve_job_latency_ns", "Submit-to-done wall-clock latency per completed job, nanoseconds", l),
            wait_wakeups: hub.counter("serve_wait_wakeups_total", "Condvar wakeups observed inside JobServer::wait (each is one state-change signal, not a poll — this stays small)", l),
            ckpt_capture_ns: hub.histogram("serve_checkpoint_capture_ns", "Wall-clock nanoseconds per checkpoint capture (fabric snapshot)", l),
            ckpt_restore_ns: hub.histogram("serve_checkpoint_restore_ns", "Wall-clock nanoseconds per checkpoint restore into a fresh simulator", l),
        }
    }
}

struct Inner {
    state: Mutex<ServerState>,
    /// Wakes workers when the queue grows or shutdown begins.
    work_cv: Condvar,
    /// Wakes [`JobServer::wait`]ers on any job state change.
    change_cv: Condvar,
    cache: Mutex<HashMap<u64, Arc<CompiledProblem>>>,
    config: ServerConfig,
    shutdown: AtomicBool,
    metrics: ServerMetrics,
}

/// The job server. Dropping it shuts the workers down (running jobs
/// finish their current chunk and are checkpointed).
pub struct JobServer {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl JobServer {
    /// Starts the worker pool.
    pub fn start(config: ServerConfig) -> Self {
        assert!(config.workers >= 1, "need at least one worker");
        let worker_count = config.workers;
        let metrics = ServerMetrics::new(&config.metrics);
        let inner = Arc::new(Inner {
            state: Mutex::new(ServerState::default()),
            work_cv: Condvar::new(),
            change_cv: Condvar::new(),
            cache: Mutex::new(HashMap::new()),
            config,
            shutdown: AtomicBool::new(false),
            metrics,
        });
        let workers = (0..worker_count)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("wse-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// Submits a job; rejected when its problem has a zero extent or the
    /// queue is at capacity.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let ProblemSpec { nx, ny, nz, .. } = spec.problem;
        if nx == 0 || ny == 0 || nz == 0 {
            return Err(SubmitError::EmptyProblem(spec.problem));
        }
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let mut st = self.inner.state.lock().unwrap();
        if st.queue.len() >= self.inner.config.queue_capacity {
            self.inner.metrics.queue_rejections.inc();
            return Err(SubmitError::QueueFull {
                capacity: self.inner.config.queue_capacity,
            });
        }
        let id = JobId(st.next_id);
        st.next_id += 1;
        let mut job = Job {
            spec,
            state: JobState::Queued,
            applications_done: 0,
            events: 0,
            fabric_time: 0,
            in_app_events: 0,
            stats: FabricStats::default(),
            cache_hit: None,
            setup_nanos: None,
            checkpoints: 0,
            preempt_requested: false,
            cancel_requested: false,
            checkpoint: None,
            result: None,
            submitted_at: Instant::now(),
            run_started: None,
            subscribers: Vec::new(),
            flight: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
        };
        job.record("submitted");
        st.jobs.insert(id, job);
        st.queue.push_back(id);
        self.inner.metrics.jobs_submitted.inc();
        self.inner
            .metrics
            .queue_depth
            .set_u64(st.queue.len() as u64);
        drop(st);
        self.inner.work_cv.notify_one();
        Ok(id)
    }

    /// Point-in-time view of a job; `None` for unknown ids.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let st = self.inner.state.lock().unwrap();
        st.jobs.get(&id).map(|j| j.status(id))
    }

    /// Requests preemption. A queued job parks immediately; a running job
    /// parks at its next chunk boundary with a captured checkpoint.
    /// Returns false for unknown ids and jobs already terminal.
    pub fn preempt(&self, id: JobId) -> bool {
        let mut st = self.inner.state.lock().unwrap();
        let Some(job) = st.jobs.get_mut(&id) else {
            return false;
        };
        match job.state {
            JobState::Queued => {
                job.state = JobState::Checkpointed;
                job.record("preempted while queued");
                job.notify_subscribers(true);
                st.queue.retain(|&q| q != id);
                self.inner.metrics.preempts.inc();
                self.inner
                    .metrics
                    .queue_depth
                    .set_u64(st.queue.len() as u64);
                self.inner.change_cv.notify_all();
                true
            }
            JobState::Running => {
                job.preempt_requested = true;
                job.record("preempt requested");
                self.inner.metrics.preempts.inc();
                true
            }
            _ => false,
        }
    }

    /// Re-enqueues a checkpointed job; any worker may pick it up and it
    /// continues from its checkpoint bit-identically. Returns false
    /// unless the job is currently [`JobState::Checkpointed`].
    pub fn resume(&self, id: JobId) -> bool {
        let mut st = self.inner.state.lock().unwrap();
        let Some(job) = st.jobs.get_mut(&id) else {
            return false;
        };
        if job.state != JobState::Checkpointed {
            return false;
        }
        job.state = JobState::Queued;
        job.preempt_requested = false;
        job.record("resumed (re-enqueued)");
        st.queue.push_back(id);
        self.inner.metrics.resumes.inc();
        self.inner
            .metrics
            .queue_depth
            .set_u64(st.queue.len() as u64);
        drop(st);
        self.inner.work_cv.notify_one();
        true
    }

    /// Cancels a job: queued and checkpointed jobs fail immediately;
    /// running jobs stop at their next chunk boundary. Returns false for
    /// unknown ids and jobs already terminal.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.inner.state.lock().unwrap();
        let Some(job) = st.jobs.get_mut(&id) else {
            return false;
        };
        match job.state {
            JobState::Queued | JobState::Checkpointed => {
                job.state = JobState::Failed(JobFailure::Canceled);
                job.checkpoint = None;
                job.record("canceled before running");
                job.notify_subscribers(true);
                st.queue.retain(|&q| q != id);
                self.inner.metrics.cancels.inc();
                self.inner.metrics.jobs_failed.inc();
                self.inner
                    .metrics
                    .queue_depth
                    .set_u64(st.queue.len() as u64);
                self.inner.change_cv.notify_all();
                true
            }
            JobState::Running => {
                job.cancel_requested = true;
                job.record("cancel requested");
                self.inner.metrics.cancels.inc();
                true
            }
            _ => false,
        }
    }

    /// Blocks until the job leaves the Queued/Running states, returning
    /// its status (`None` for unknown ids). A checkpointed job counts as
    /// settled — it will not progress without [`JobServer::resume`]. A
    /// queued job also counts as settled once shutdown has begun (no
    /// worker will ever claim it).
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            match st.jobs.get(&id) {
                None => return None,
                Some(job) => {
                    let settled = !matches!(job.state, JobState::Queued | JobState::Running)
                        || (job.state == JobState::Queued
                            && self.inner.shutdown.load(Ordering::SeqCst));
                    if settled {
                        return Some(job.status(id));
                    }
                }
            }
            st = self.inner.change_cv.wait(st).unwrap();
            // Each pass through here is one condvar signal, not a poll:
            // the counter's smallness is the no-busy-wait proof the tests
            // pin (`wait_blocks_without_busy_waiting`).
            self.inner.metrics.wait_wakeups.inc();
        }
    }

    /// Subscribes to a job's progress: the returned receiver yields one
    /// [`ProgressUpdate`] per completed chunk plus a final update at every
    /// settling transition (done, failed, checkpointed), after which the
    /// sender side is dropped and the channel disconnects. The first
    /// update (the job's current state) is delivered immediately, so
    /// subscribing to an already-settled job still yields one snapshot.
    /// `None` for unknown ids. Receivers that fall behind simply buffer —
    /// the channel is unbounded and updates are small; dropping the
    /// receiver unsubscribes at the next send.
    pub fn subscribe(&self, id: JobId) -> Option<mpsc::Receiver<ProgressUpdate>> {
        let mut st = self.inner.state.lock().unwrap();
        let job = st.jobs.get_mut(&id)?;
        let (tx, rx) = mpsc::channel();
        job.subscribers.push(tx);
        let settled = !matches!(job.state, JobState::Queued | JobState::Running);
        job.notify_subscribers(settled);
        Some(rx)
    }

    /// The job's flight-recorder tail: its last-N control/progress events,
    /// oldest first. Most useful on a failed job, where it is the context
    /// that arrived with the typed error; available for any known id.
    pub fn flight_of(&self, id: JobId) -> Option<Vec<String>> {
        let st = self.inner.state.lock().unwrap();
        st.jobs.get(&id).map(|j| j.flight.to_vec())
    }

    /// The failure with its flight-recorder context attached: `(why, last
    /// N events)`. `None` unless the job is [`JobState::Failed`].
    pub fn failure_of(&self, id: JobId) -> Option<(JobFailure, Vec<String>)> {
        let st = self.inner.state.lock().unwrap();
        st.jobs.get(&id).and_then(|j| match &j.state {
            JobState::Failed(f) => Some((f.clone(), j.flight.to_vec())),
            _ => None,
        })
    }

    /// The telemetry hub this server was configured with (null unless
    /// [`ServerConfig::metrics`] installed a live one) — e.g. to render
    /// [`MetricsHub::prometheus_text`] after a run.
    pub fn metrics(&self) -> &MetricsHub {
        &self.inner.config.metrics
    }

    /// The finished job's residual (mesh linear order); `None` unless the
    /// job is [`JobState::Done`].
    pub fn result(&self, id: JobId) -> Option<Vec<f32>> {
        let st = self.inner.state.lock().unwrap();
        st.jobs.get(&id).and_then(|j| j.result.clone())
    }

    /// Compiled problems currently cached.
    pub fn cached_problems(&self) -> usize {
        self.inner.cache.lock().unwrap().len()
    }

    /// Stops accepting work and joins the workers. Running jobs are
    /// checkpointed at their next chunk boundary; queued jobs stay queued
    /// (their state is preserved until the server is dropped).
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn begin_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.work_cv.notify_all();
        self.inner.change_cv.notify_all();
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Obtains the compiled problem, recording whether it was a cache hit and
/// how long the acquisition took.
fn obtain_problem(inner: &Inner, spec: ProblemSpec) -> (Arc<CompiledProblem>, bool, u64) {
    let key = spec.content_hash();
    let start = Instant::now();
    if let Some(hit) = inner.cache.lock().unwrap().get(&key) {
        return (Arc::clone(hit), true, start.elapsed().as_nanos() as u64);
    }
    // Compile outside the cache lock: a slow compile must not serialize
    // unrelated workers. A concurrent duplicate compile is possible and
    // harmless — last insert wins, both Arcs are equivalent.
    let compiled = Arc::new(CompiledProblem::compile(spec));
    inner
        .cache
        .lock()
        .unwrap()
        .insert(key, Arc::clone(&compiled));
    (compiled, false, start.elapsed().as_nanos() as u64)
}

fn build_simulator(
    problem: &CompiledProblem,
    spec: &JobSpec,
    metrics: &MetricsHub,
) -> Result<DataflowFluxSimulator, String> {
    DataflowFluxSimulator::builder(&problem.mesh)
        .fluid(&problem.fluid)
        .transmissibilities(&problem.trans)
        .execution(spec.execution)
        .fast_forward(spec.fast_forward)
        .fault_plan(spec.fault_plan.clone())
        .metrics(metrics.clone())
        .build()
        .map_err(|e| e.to_string())
}

fn pressure_for(problem: &CompiledProblem, spec: &JobSpec, application: usize) -> Vec<f32> {
    FlowState::<f32>::varied(
        &problem.mesh,
        1.0e7,
        1.2e7,
        spec.pressure_seed + application as u64,
    )
    .pressure()
    .to_vec()
}

enum ChunkOutcome {
    Continue,
    Preempt,
    Cancel,
}

fn worker_loop(inner: &Inner) {
    loop {
        let id = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    st.busy += 1;
                    inner.metrics.queue_depth.set_u64(st.queue.len() as u64);
                    inner.metrics.workers_busy.set_u64(st.busy as u64);
                    break id;
                }
                st = inner.work_cv.wait(st).unwrap();
            }
        };
        run_job(inner, id);
        {
            let mut st = inner.state.lock().unwrap();
            st.busy -= 1;
            inner.metrics.workers_busy.set_u64(st.busy as u64);
        }
        inner.change_cv.notify_all();
    }
}

/// Drives one job until it finishes, fails, or parks on a checkpoint.
fn run_job(inner: &Inner, id: JobId) {
    // Claim the job and take its resume checkpoint, if any.
    let (spec, resume_from) = {
        let mut st = inner.state.lock().unwrap();
        let Some(job) = st.jobs.get_mut(&id) else {
            return;
        };
        if job.state != JobState::Queued {
            return; // canceled between dequeue and claim
        }
        job.state = JobState::Running;
        if job.run_started.is_none() {
            job.run_started = Some(Instant::now());
        }
        job.record("claimed by worker");
        (job.spec.clone(), job.checkpoint.take())
    };

    let (problem, cache_hit, setup_nanos) = obtain_problem(inner, spec.problem);
    if cache_hit {
        inner.metrics.cache_hits.inc();
    } else {
        inner.metrics.cache_misses.inc();
    }
    {
        let mut st = inner.state.lock().unwrap();
        if let Some(job) = st.jobs.get_mut(&id) {
            // First pickup wins: a resumed job keeps its original figures.
            if job.cache_hit.is_none() {
                job.cache_hit = Some(cache_hit);
                job.setup_nanos = Some(setup_nanos);
            }
            job.record(if cache_hit {
                "compiled problem from cache"
            } else {
                "compiled problem (cache miss)"
            });
        }
    }

    let mut sim = match build_simulator(&problem, &spec, &inner.config.metrics) {
        Ok(sim) => sim,
        Err(e) => return fail_job(inner, id, JobFailure::Build(e)),
    };
    if let Some(ckpt) = resume_from {
        let t0 = Instant::now();
        if let Err(e) = ckpt.restore_into(&mut sim) {
            return fail_job(inner, id, JobFailure::Build(e.to_string()));
        }
        inner
            .metrics
            .ckpt_restore_ns
            .observe(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        let mut st = inner.state.lock().unwrap();
        if let Some(job) = st.jobs.get_mut(&id) {
            job.record("checkpoint restored");
        }
    }

    let chunk = spec.checkpoint_every.unwrap_or(DEFAULT_CHUNK_EVENTS).max(1);
    let mut last_residual: Option<Vec<f32>> = None;
    // Events inside the current application (the in-app progress
    // numerator). A mid-application resume restarts it at zero — the
    // fraction is an estimate and recovers within one application.
    let mut in_app: u64 = 0;
    // `applications()` survives the checkpoint round-trip, so a resumed
    // job continues exactly where it parked — mid-application included
    // (`in_flight` skips the re-inject).
    while sim.applications() < spec.applications {
        if !sim.in_flight() {
            let pressure = pressure_for(&problem, &spec, sim.applications());
            sim.begin_apply(&pressure);
            in_app = 0;
        }
        loop {
            let step = match sim.step_events(chunk) {
                Ok(step) => step,
                Err(e) => return fail_job(inner, id, JobFailure::Fabric(e)),
            };
            in_app += step.events;
            match note_progress(inner, id, step.events, step.fabric_time, in_app, &sim) {
                ChunkOutcome::Continue => {}
                ChunkOutcome::Preempt => return park_job(inner, id, &sim),
                ChunkOutcome::Cancel => return fail_job(inner, id, JobFailure::Canceled),
            }
            if step.complete {
                break;
            }
        }
        match sim.finish_apply() {
            Ok(residual) => last_residual = Some(residual),
            Err(e) => return fail_job(inner, id, JobFailure::Fabric(e)),
        }
        in_app = 0;
        let mut st = inner.state.lock().unwrap();
        if let Some(job) = st.jobs.get_mut(&id) {
            job.applications_done = sim.applications();
            job.in_app_events = 0;
            job.stats = sim.stats();
            job.record("application complete");
        }
    }

    let mut st = inner.state.lock().unwrap();
    if let Some(job) = st.jobs.get_mut(&id) {
        job.applications_done = sim.applications();
        job.stats = sim.stats();
        job.result = last_residual;
        job.state = JobState::Done;
        job.record("done");
        job.notify_subscribers(true);
        inner.metrics.jobs_done.inc();
        inner
            .metrics
            .job_latency_ns
            .observe(job.submitted_at.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
}

/// Records chunk progress and reports any pending control request.
/// Shutdown counts as preemption so in-flight work parks restorably.
fn note_progress(
    inner: &Inner,
    id: JobId,
    events: u64,
    fabric_time: u64,
    in_app: u64,
    sim: &DataflowFluxSimulator,
) -> ChunkOutcome {
    let mut st = inner.state.lock().unwrap();
    let Some(job) = st.jobs.get_mut(&id) else {
        return ChunkOutcome::Cancel;
    };
    job.events += events;
    job.fabric_time = fabric_time;
    job.in_app_events = in_app;
    job.applications_done = sim.applications();
    job.stats = sim.stats();
    job.notify_subscribers(false);
    if job.cancel_requested {
        ChunkOutcome::Cancel
    } else if job.preempt_requested || inner.shutdown.load(Ordering::SeqCst) {
        ChunkOutcome::Preempt
    } else {
        ChunkOutcome::Continue
    }
}

fn park_job(inner: &Inner, id: JobId, sim: &DataflowFluxSimulator) {
    let t0 = Instant::now();
    let ckpt = Checkpoint::capture(sim);
    inner
        .metrics
        .ckpt_capture_ns
        .observe(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    let mut st = inner.state.lock().unwrap();
    if let Some(job) = st.jobs.get_mut(&id) {
        job.applications_done = sim.applications();
        job.checkpoint = Some(ckpt);
        job.checkpoints += 1;
        job.preempt_requested = false;
        job.state = JobState::Checkpointed;
        job.record("checkpoint captured (parked)");
        job.notify_subscribers(true);
    }
}

fn fail_job(inner: &Inner, id: JobId, failure: JobFailure) {
    let mut st = inner.state.lock().unwrap();
    if let Some(job) = st.jobs.get_mut(&id) {
        job.record(&format!("failed: {failure:?}"));
        job.state = JobState::Failed(failure);
        job.cancel_requested = false;
        job.notify_subscribers(true);
        inner.metrics.jobs_failed.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_problem() -> ProblemSpec {
        ProblemSpec {
            nx: 5,
            ny: 4,
            nz: 3,
            perm_seed: 11,
        }
    }

    fn direct_residual(spec: &JobSpec) -> Vec<f32> {
        let problem = CompiledProblem::compile(spec.problem);
        let mut sim = build_simulator(&problem, spec, &MetricsHub::Null).unwrap();
        let mut last = Vec::new();
        for i in 0..spec.applications {
            last = sim.apply(&pressure_for(&problem, spec, i)).unwrap();
        }
        last
    }

    #[test]
    fn job_runs_to_done_and_matches_direct_run() {
        let server = JobServer::start(ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        });
        let spec = JobSpec::new(small_problem(), 3);
        let expected = direct_residual(&spec);
        let id = server.submit(spec).unwrap();
        let status = server.wait(id).unwrap();
        assert_eq!(status.state, JobState::Done);
        assert_eq!(status.applications_done, 3);
        assert!(status.events > 0);
        assert_eq!(server.result(id).unwrap(), expected);
        server.shutdown();
    }

    #[test]
    fn a_zero_extent_is_refused_at_submit_and_the_worker_survives() {
        let server = JobServer::start(ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        });
        for empty in [
            ProblemSpec {
                nx: 0,
                ..small_problem()
            },
            ProblemSpec {
                ny: 0,
                ..small_problem()
            },
            ProblemSpec {
                nz: 0,
                ..small_problem()
            },
        ] {
            assert_eq!(
                server.submit(JobSpec::new(empty, 1)),
                Err(SubmitError::EmptyProblem(empty))
            );
        }
        // The lone worker is still there to run the next job.
        let id = server.submit(JobSpec::new(small_problem(), 1)).unwrap();
        assert_eq!(server.wait(id).unwrap().state, JobState::Done);
        server.shutdown();
    }

    #[test]
    fn repeat_submission_hits_the_compiled_layout_cache() {
        let server = JobServer::start(ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        });
        let first = server.submit(JobSpec::new(small_problem(), 1)).unwrap();
        let s1 = server.wait(first).unwrap();
        assert_eq!(s1.cache_hit, Some(false));
        let second = server.submit(JobSpec::new(small_problem(), 1)).unwrap();
        let s2 = server.wait(second).unwrap();
        assert_eq!(s2.cache_hit, Some(true));
        assert_eq!(server.result(first), server.result(second));
        assert_eq!(server.cached_problems(), 1);
        // The hit skips the compile: acquiring the Arc must be faster
        // than building transmissibilities was. Guard loosely (10x) so a
        // noisy scheduler cannot flake the assertion.
        assert!(
            s2.setup_nanos.unwrap() < s1.setup_nanos.unwrap() / 10 + 1_000_000,
            "hit {}ns vs miss {}ns",
            s2.setup_nanos.unwrap(),
            s1.setup_nanos.unwrap()
        );
        server.shutdown();
    }

    #[test]
    fn preempt_resume_is_bit_identical() {
        let server = JobServer::start(ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        });
        let mut spec = JobSpec::new(small_problem(), 3);
        spec.checkpoint_every = Some(16); // hundreds of park opportunities
        let expected = direct_residual(&spec);
        // Park the lone worker behind a long blocker so the target is
        // preempted while still Queued — deterministic even on a
        // one-core host, where the worker thread can otherwise run a
        // tiny job to completion before this thread is scheduled again.
        let mut blocker = JobSpec::new(small_problem(), 10_000);
        blocker.checkpoint_every = Some(16);
        let blocker = server.submit(blocker).unwrap();
        let id = server.submit(spec).unwrap();
        assert!(server.preempt(id), "a queued job accepts preempt");
        assert_eq!(server.status(id).unwrap().state, JobState::Checkpointed);
        assert!(server.cancel(blocker), "blocker is live");
        let mut preemptions = 0u32;
        loop {
            let status = server.wait(id).unwrap();
            match status.state {
                JobState::Checkpointed => {
                    preemptions += 1;
                    assert!(server.resume(id));
                    if preemptions < 3 {
                        // Best effort: the tiny job can settle before
                        // the request lands; wait() then reports Done
                        // and both outcomes are covered below.
                        server.preempt(id);
                    }
                }
                JobState::Done => break,
                other => panic!("unexpected state {other:?}"),
            }
        }
        assert!(preemptions >= 1, "preemption never landed");
        assert_eq!(server.result(id).unwrap(), expected);
        server.shutdown();
    }

    #[test]
    fn preempt_parks_and_cancel_is_terminal() {
        let server = JobServer::start(ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        });
        let mut spec = JobSpec::new(small_problem(), 50);
        spec.checkpoint_every = Some(32);
        let id = server.submit(spec).unwrap();
        assert!(server.preempt(id));
        let status = server.wait(id).unwrap();
        if status.state == JobState::Checkpointed {
            assert!(server.cancel(id));
            let s = server.wait(id).unwrap();
            assert_eq!(s.state, JobState::Failed(JobFailure::Canceled));
        } else {
            // The job finished before the preempt landed — fine; cancel
            // of a terminal job must then be refused.
            assert!(!server.cancel(id));
        }
        assert!(!server.resume(id), "cannot resume a terminal job");
        server.shutdown();
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        let server = JobServer::start(ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        });
        // A long job occupies the worker; fill the queue behind it.
        let mut long = JobSpec::new(small_problem(), 100);
        long.checkpoint_every = Some(32);
        let running = server.submit(long.clone()).unwrap();
        // Give the worker a moment to claim the first job, then fill the
        // single queue slot and overflow it. Claiming is quick, but don't
        // race: retry until the queue has drained the first entry.
        let queued = loop {
            match server.submit(long.clone()) {
                Ok(id) => break id,
                Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                Err(e) => panic!("{e}"),
            }
        };
        let overflow = loop {
            match server.submit(long.clone()) {
                Err(SubmitError::QueueFull { capacity }) => break capacity,
                Ok(extra) => {
                    // Queue drained faster than we filled it; park this
                    // one and retry.
                    server.cancel(extra);
                    std::thread::yield_now();
                }
                Err(e) => panic!("{e}"),
            }
        };
        assert_eq!(overflow, 1);
        server.cancel(running);
        server.cancel(queued);
        server.shutdown();
    }

    #[test]
    fn wait_blocks_without_busy_waiting() {
        let hub = MetricsHub::new_live();
        let server = JobServer::start(ServerConfig {
            workers: 1,
            queue_capacity: 8,
            metrics: hub.clone(),
        });
        // Small chunks force hundreds of chunk boundaries: a polling wait
        // would spin through thousands of loop iterations over this job's
        // wall time. The condvar wait only wakes on actual state-change
        // signals, and the registry counts every wakeup.
        let mut spec = JobSpec::new(small_problem(), 2);
        spec.checkpoint_every = Some(64);
        let id = server.submit(spec).unwrap();
        let status = server.wait(id).unwrap();
        assert_eq!(status.state, JobState::Done);
        let wakeups = hub.counter("serve_wait_wakeups_total", "", &[]).get();
        assert!(
            wakeups < 50,
            "wait() woke {wakeups} times — that is polling, not blocking"
        );
        server.shutdown();
    }

    #[test]
    fn subscribers_stream_progress_to_completion() {
        let server = JobServer::start(ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        });
        let mut spec = JobSpec::new(small_problem(), 2);
        spec.checkpoint_every = Some(64); // many chunk-boundary updates
        let id = server.submit(spec).unwrap();
        let rx = server.subscribe(id).expect("known id");
        assert!(server.subscribe(JobId(9999)).is_none());
        // Drain until the final update drops the sender (job settled).
        let updates: Vec<ProgressUpdate> = rx.iter().collect();
        assert!(!updates.is_empty(), "at least the immediate snapshot");
        for w in updates.windows(2) {
            assert!(w[1].events >= w[0].events, "events are monotone");
        }
        let last = updates.last().unwrap();
        assert_eq!(last.applications_done, 2);
        assert!((last.progress - 1.0).abs() < 1e-12, "final progress is 1.0");
        assert_eq!(server.status(id).unwrap().state, JobState::Done);
        server.shutdown();
    }

    #[test]
    fn failure_carries_flight_recorder_context() {
        let server = JobServer::start(ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        });
        // Park the worker behind a blocker so the target stays queued and
        // the cancel lands deterministically.
        let mut blocker = JobSpec::new(small_problem(), 10_000);
        blocker.checkpoint_every = Some(16);
        let blocker = server.submit(blocker).unwrap();
        let id = server.submit(JobSpec::new(small_problem(), 1)).unwrap();
        assert!(server.cancel(id));
        let status = server.wait(id).unwrap();
        assert_eq!(status.state, JobState::Failed(JobFailure::Canceled));
        let (failure, flight) = server.failure_of(id).expect("failed job");
        assert_eq!(failure, JobFailure::Canceled);
        assert!(!flight.is_empty(), "failure arrives with flight context");
        assert!(
            flight.iter().any(|l| l.contains("canceled")),
            "tail names the terminal transition: {flight:?}"
        );
        // Non-failed jobs expose no failure, but their flight is readable.
        assert!(server.failure_of(blocker).is_none());
        assert!(!server.flight_of(blocker).unwrap().is_empty());
        server.cancel(blocker);
        server.shutdown();
    }

    #[test]
    fn server_metrics_capture_lifecycle_counters() {
        let hub = MetricsHub::new_live();
        let server = JobServer::start(ServerConfig {
            workers: 1,
            queue_capacity: 8,
            metrics: hub.clone(),
        });
        let a = server.submit(JobSpec::new(small_problem(), 1)).unwrap();
        server.wait(a).unwrap();
        let b = server.submit(JobSpec::new(small_problem(), 1)).unwrap();
        let sb = server.wait(b).unwrap();
        assert!((sb.progress - 1.0).abs() < 1e-12);
        assert_eq!(sb.stats.num_pes, 5 * 4, "stats are populated");
        server.shutdown();
        assert_eq!(hub.counter("serve_jobs_submitted_total", "", &[]).get(), 2);
        assert_eq!(hub.counter("serve_jobs_done_total", "", &[]).get(), 2);
        assert_eq!(hub.counter("serve_jobs_failed_total", "", &[]).get(), 0);
        assert_eq!(hub.counter("serve_cache_misses_total", "", &[]).get(), 1);
        assert_eq!(hub.counter("serve_cache_hits_total", "", &[]).get(), 1);
        let text = hub.prometheus_text();
        assert!(text.contains("serve_jobs_done_total 2"));
        assert!(text.contains("serve_job_latency_ns_count 2"));
        // The drivers published their fabric series through the same hub.
        assert!(text.contains("fabric_events_total{engine=\"sequential\"}"));
    }

    #[test]
    fn problem_hash_distinguishes_specs() {
        let a = small_problem();
        let mut b = a;
        b.perm_seed += 1;
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash(), small_problem().content_hash());
    }
}
