//! Host-side driver: loads an `fv-core` problem onto the fabric, applies
//! Algorithm 1, and extracts residuals.
//!
//! Mirrors the paper's experimental setup: the host only schedules work and
//! moves data in and out ("the \[host\] is only used to schedule the workload,
//! and no computations take place on the \[host\] machine during the
//! experiments", §7.1). Algorithm 1 is applied repeatedly — 1000 times in
//! the paper — "with a different pressure vector at every call".
//!
//! # Construction
//!
//! Simulators are built with the fluent [`SimulatorBuilder`]
//! ([`DataflowFluxSimulator::builder`]), which validates the whole problem
//! *before* fabric construction: a full-stencil transmissibility set with
//! the diagonal exchange disabled is rejected (instead of silently missing
//! fluxes), a mesh whose per-PE footprint exceeds the PE memory is rejected
//! with the maximum feasible `nz`, and a [`FaultPlan`] is bounds-checked.
//!
//! # Fault recovery
//!
//! When a [`FaultPlan`] is installed, the fabric detects faults (checksum
//! verification, typed errors) and the driver adds a progress watchdog:
//! after every run it compares each PE's completed-iteration counter
//! against the number of runs launched on the current fabric, so *silent*
//! omission faults (a dropped wavelet that leaves a PE incomplete without
//! any protocol error) are caught too. [`DataflowFluxSimulator::apply`]
//! honors the configured [`RecoveryPolicy`]:
//!
//! * [`RecoveryPolicy::Fail`] — surface the typed error (the default).
//! * [`RecoveryPolicy::Retry`] — rebuild the fabric, re-upload the static
//!   data, and re-inject the pressure vector; transient faults
//!   ([`Fault::persistent`](wse_sim::fault::Fault::persistent)` == false`) do not re-fire, so the retry
//!   recovers **bit-identically** to the fault-free residual. Persistent
//!   faults re-fire every attempt and exhaust the budget into the typed
//!   error. A rebuild resets fabric time and counters, so cumulative
//!   statistics are not continuous across a retry.
//! * [`RecoveryPolicy::Degrade`] — return the partial residual plus a
//!   per-PE validity bitmap ([`Recovered::valid`]). Omission faults
//!   invalidate the tainted/stalled PEs dilated by a Chebyshev radius of
//!   2 (the reach of one halo exchange, diagonals included, with margin);
//!   timing/routing faults (`PeSlow`, effective `RouterFlip`) have an
//!   unbounded blast radius and invalidate everything.

use crate::kernel::FluidParams;
use crate::workload::{TpfaWorkload, Workload};
use fv_core::eos::Fluid;
use fv_core::mesh::{CartesianMesh3, ALL_NEIGHBORS};
use fv_core::trans::Transmissibilities;
use std::sync::Arc;
use std::time::Instant;
use wse_metrics::{Counter, Gauge, Histogram, MetricsHub};
use wse_sim::fabric::{Execution, Fabric, FabricConfig, FabricError, RunReport};
use wse_sim::fault::{FaultClass, FaultEvent, FaultPlan};
use wse_sim::geometry::{FabricDims, PeCoord};
use wse_sim::hash::ContentHasher;
use wse_sim::snapshot::{FabricSnapshot, RestoreError};
use wse_sim::stats::FabricStats;
use wse_sim::trace::{Trace, TraceSpec};
use wse_stencil::CompileError;

/// What [`DataflowFluxSimulator::apply`] does when a fault is detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Surface the typed [`FabricError`] (previous behavior).
    #[default]
    Fail,
    /// Rebuild the fabric, re-upload static data, and re-inject the
    /// pressure vector. Transient faults do not re-fire on later attempts,
    /// so a successful retry is bit-identical to the fault-free run;
    /// persistent faults exhaust the attempts into the typed error.
    Retry {
        /// Total attempts, including the first (≥ 1; `build()` rejects 0
        /// with [`BuildError::ZeroRetryAttempts`]).
        max_attempts: u32,
        /// Simulated backoff cycles added before retry `n` as
        /// `backoff · 2^(n−1)`, accumulated in
        /// [`Recovered::backoff_cycles`].
        backoff: u64,
    },
    /// Return the partial residual with a per-PE validity bitmap instead of
    /// failing (see [`Recovered`]).
    Degrade,
}

impl RecoveryPolicy {
    /// Parses `fail`, `retry[:attempts[:backoff]]`, or `degrade`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        let policy = match head {
            "fail" => Self::Fail,
            "degrade" => Self::Degrade,
            "retry" => {
                let max_attempts = match parts.next() {
                    Some(v) => v
                        .parse::<u32>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("bad retry attempt count {v:?}"))?,
                    None => 3,
                };
                let backoff = match parts.next() {
                    Some(v) => v
                        .parse::<u64>()
                        .map_err(|_| format!("bad retry backoff {v:?}"))?,
                    None => 0,
                };
                Self::Retry {
                    max_attempts,
                    backoff,
                }
            }
            other => return Err(format!("unknown recovery policy {other:?}")),
        };
        if parts.next().is_some() {
            return Err(format!("trailing fields in recovery policy {s:?}"));
        }
        Ok(policy)
    }
}

/// A residual produced under a [`RecoveryPolicy`], with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered {
    /// The flux residual in mesh linear order. When `degraded`, only cells
    /// whose PE is marked valid are trustworthy.
    pub residual: Vec<f32>,
    /// Per-PE validity in linear (row-major) order; all-true unless
    /// `degraded`. Validity is per PE, i.e. per whole `(x, y)` column.
    pub valid: Vec<bool>,
    /// True when the residual is partial ([`RecoveryPolicy::Degrade`] after
    /// a detected fault).
    pub degraded: bool,
    /// Attempts used, including the successful one.
    pub attempts: u32,
    /// Simulated backoff cycles spent between attempts.
    pub backoff_cycles: u64,
    /// Every fault injection/detection logged on the final fabric, in
    /// engine-independent order.
    pub faults: Vec<FaultEvent>,
}

/// A problem [`SimulatorBuilder::build`] rejected before fabric
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// No fluid was supplied ([`SimulatorBuilder::fluid`]).
    MissingFluid,
    /// No transmissibilities were supplied
    /// ([`SimulatorBuilder::transmissibilities`]).
    MissingTransmissibilities,
    /// The diagonal exchange is disabled but the transmissibility set has
    /// nonzero diagonal entries — the fabric would silently drop those
    /// fluxes. Use a `StencilKind::Cardinal` set or enable diagonals.
    MissingDiagonalFluxes {
        /// Nonzero diagonal transmissibility entries found.
        nonzero_entries: usize,
    },
    /// The per-PE memory footprint of an `nz`-cell column exceeds the
    /// configured PE memory.
    PeMemoryExceeded {
        /// Words needed for this `nz`.
        needed_words: usize,
        /// Words available per PE.
        available_words: usize,
        /// Largest `nz` that fits the configured memory.
        max_nz: usize,
    },
    /// The fault plan references a PE or link outside this fabric, or has
    /// degenerate parameters.
    InvalidFaultPlan(
        /// Description of the first offending fault.
        String,
    ),
    /// The stencil compiler rejected a spec: the typed diagnostic carries
    /// the offending fragment (offset outside the halo radius, color
    /// budget exceeded, phase cycle too short, …). Produced whenever a
    /// builder path compiles a [`wse_stencil::StencilSpec`]; also
    /// convertible from [`CompileError`] with `?` so workload
    /// constructors can bubble compiler diagnostics straight into the
    /// build result.
    Stencil(CompileError),
    /// Both a generic workload ([`SimulatorBuilder::workload`]) and TPFA
    /// problem inputs were supplied: `fluid`/`transmissibilities` (the
    /// builder cannot tell which problem to run), or
    /// `compute_enabled(false)`/`diagonals_enabled(false)` (TPFA ablations
    /// an installed workload would silently ignore).
    ConflictingWorkload,
    /// The workload-builder path ([`DataflowFluxSimulator::workload_builder`])
    /// was used without installing a workload.
    MissingWorkload,
    /// [`RecoveryPolicy::Retry`] with `max_attempts: 0`: the count includes
    /// the first attempt, so not even that would run.
    ZeroRetryAttempts,
    /// A PE's `init` failed at load ([`Fabric::load_error`]): it ran out
    /// of PE memory, or accessed memory before the layout existed.
    Load(FabricError),
    /// A PE's `init` allocated more words than the workload declares
    /// ([`Workload::words_per_pe`]): a memory plan that under-counts.
    UnderDeclaredMemory {
        /// The first such PE, in PE order.
        pe: PeCoord,
        /// Words its `init` allocated.
        allocated: usize,
        /// Words the workload declares per PE.
        declared: usize,
    },
}

impl From<CompileError> for BuildError {
    fn from(e: CompileError) -> Self {
        BuildError::Stencil(e)
    }
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::MissingFluid => write!(f, "no fluid supplied (builder.fluid(..))"),
            BuildError::MissingTransmissibilities => {
                write!(
                    f,
                    "no transmissibilities supplied (builder.transmissibilities(..))"
                )
            }
            BuildError::MissingDiagonalFluxes { nonzero_entries } => write!(
                f,
                "diagonal exchange disabled but {nonzero_entries} nonzero diagonal \
                 transmissibility entries exist — their fluxes would be silently dropped"
            ),
            BuildError::PeMemoryExceeded {
                needed_words,
                available_words,
                max_nz,
            } => write!(
                f,
                "per-PE footprint {needed_words} words exceeds {available_words} available \
                 (largest nz that fits: {max_nz})"
            ),
            BuildError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            BuildError::Stencil(e) => write!(f, "stencil spec rejected: {e}"),
            BuildError::ConflictingWorkload => write!(
                f,
                "both a workload and TPFA inputs (fluid/transmissibilities, or the \
                 compute_enabled/diagonals_enabled ablations) were supplied — use either \
                 builder.workload(..) or the fluid()/transmissibilities() path"
            ),
            BuildError::MissingWorkload => {
                write!(f, "no workload supplied (builder.workload(..))")
            }
            BuildError::ZeroRetryAttempts => write!(
                f,
                "RecoveryPolicy::Retry needs max_attempts >= 1 (the first attempt counts)"
            ),
            BuildError::Load(e) => write!(f, "fabric load failed: {e}"),
            BuildError::UnderDeclaredMemory {
                pe,
                allocated,
                declared,
            } => write!(
                f,
                "PE ({}, {}) allocated {allocated} words at load, more than the {declared} \
                 words per PE the workload declares",
                pe.col, pe.row
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Everything needed to (re)build the fabric — kept by the simulator so
/// [`RecoveryPolicy::Retry`] can reconstruct and re-upload without
/// borrowing the original problem. The workload owns all problem data
/// (programs, static fields, inject/collect protocol); the spec adds the
/// fabric configuration and the fault plan.
struct SimSpec {
    nx: usize,
    ny: usize,
    nz: usize,
    workload: Arc<dyn Workload>,
    config: FabricConfig,
    fault_plan: FaultPlan,
}

impl SimSpec {
    /// The content hash ([`wse_sim::hash`]) of everything that determines
    /// snapshot compatibility: geometry, the stencil spec's canonical
    /// bytes, the workload's own content (parameters, static field bits),
    /// the fabric configuration and the fault plan. Two different
    /// workloads — even with the same geometry — hash differently, so
    /// cross-workload restores are refused with a typed mismatch instead of
    /// misread PE memory.
    ///
    /// Deliberately excludes the event-loop engine, fast-forwarding, and
    /// the trace spec: those choose *how* the fabric is driven, not *what*
    /// state it holds — snapshots are portable across them (and the
    /// checkpoint equivalence tests restore Sequential snapshots into
    /// Sharded simulators and vice versa).
    fn content_hash(&self) -> u64 {
        let mut h = ContentHasher::new();
        for v in [self.nx as u64, self.ny as u64, self.nz as u64] {
            h.write_u64(v);
        }
        h.write(self.workload.name().as_bytes());
        h.write(&self.workload.compiled().spec.content_bytes());
        self.workload.hash_content(&mut h);
        for v in [
            self.config.pe_memory_bytes as u64,
            self.config.hop_latency,
            self.config.max_events,
        ] {
            h.write_u64(v);
        }
        self.fault_plan.hash_into(&mut h);
        h.finish()
    }
}

fn build_fabric(spec: &SimSpec, plan: &FaultPlan) -> Fabric {
    let dims = FabricDims::new(spec.nx, spec.ny);
    let mut fabric = Fabric::new(dims, spec.config, |_| spec.workload.make_program());
    fabric.load();
    // Static data (e.g. TPFA's ten transmissibility columns per PE),
    // uploaded once like the paper's mesh load.
    spec.workload.upload_static(&mut fabric);
    if !plan.is_empty() {
        fabric.set_fault_plan(plan);
    }
    fabric
}

/// Fluent, validating constructor for [`DataflowFluxSimulator`] — see
/// [`DataflowFluxSimulator::builder`] (TPFA on a mesh) and
/// [`DataflowFluxSimulator::workload_builder`] (any compiled workload).
pub struct SimulatorBuilder<'a> {
    mesh: Option<&'a CartesianMesh3>,
    workload: Option<Arc<dyn Workload>>,
    fluid: Option<&'a Fluid>,
    trans: Option<&'a Transmissibilities>,
    compute_enabled: bool,
    diagonals_enabled: bool,
    pe_memory_bytes: usize,
    max_events: u64,
    execution: Execution,
    fast_forward: bool,
    trace: TraceSpec,
    fault_plan: FaultPlan,
    recovery: RecoveryPolicy,
    metrics: MetricsHub,
}

impl<'a> SimulatorBuilder<'a> {
    fn new(mesh: Option<&'a CartesianMesh3>) -> Self {
        Self {
            mesh,
            workload: None,
            fluid: None,
            trans: None,
            compute_enabled: true,
            diagonals_enabled: true,
            pe_memory_bytes: wse_sim::memory::WSE2_PE_MEMORY_BYTES,
            max_events: 1_000_000_000,
            execution: Execution::Sequential,
            fast_forward: true,
            trace: TraceSpec::OFF,
            fault_plan: FaultPlan::new(),
            recovery: RecoveryPolicy::Fail,
            metrics: MetricsHub::Null,
        }
    }

    /// Installs a complete fabric workload (a compiled stencil plus its
    /// host protocol) — the generic entry point of the simulator. The
    /// classic [`SimulatorBuilder::fluid`] /
    /// [`SimulatorBuilder::transmissibilities`] pair is a thin TPFA
    /// wrapper that assembles a [`TpfaWorkload`] and flows through this
    /// same path; supplying both — or a workload together with the TPFA
    /// ablation switches [`SimulatorBuilder::compute_enabled`] /
    /// [`SimulatorBuilder::diagonals_enabled`] — is rejected with
    /// [`BuildError::ConflictingWorkload`].
    pub fn workload<W: Workload + 'static>(mut self, workload: W) -> Self {
        self.workload = Some(Arc::new(workload));
        self
    }

    /// The working fluid (required).
    pub fn fluid(mut self, fluid: &'a Fluid) -> Self {
        self.fluid = Some(fluid);
        self
    }

    /// The transmissibility set (required).
    pub fn transmissibilities(mut self, trans: &'a Transmissibilities) -> Self {
        self.trans = Some(trans);
        self
    }

    /// `false` strips all flux computation (the paper's Table 3
    /// communication-cost experiment). Default `true`.
    pub fn compute_enabled(mut self, enabled: bool) -> Self {
        self.compute_enabled = enabled;
        self
    }

    /// `false` disables the diagonal exchange (the §5.2.2 ablation).
    /// `build()` then rejects transmissibility sets with nonzero diagonal
    /// entries. Default `true`.
    pub fn diagonals_enabled(mut self, enabled: bool) -> Self {
        self.diagonals_enabled = enabled;
        self
    }

    /// Per-PE memory in bytes (default WSE-2: 48 kB). `build()` rejects
    /// meshes whose column footprint does not fit.
    pub fn pe_memory_bytes(mut self, bytes: usize) -> Self {
        self.pe_memory_bytes = bytes;
        self
    }

    /// Event budget per run (safety; default 10⁹).
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Fabric event-loop engine (default [`Execution::Sequential`]).
    pub fn execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Static-route fast-forwarding in the fabric event engine (default
    /// on; automatically disabled while tracing or fault injection is
    /// active, see [`FabricConfig::fast_forward`]). Turning it off forces
    /// per-hop event semantics — results are bit-identical either way.
    pub fn fast_forward(mut self, enabled: bool) -> Self {
        self.fast_forward = enabled;
        self
    }

    /// Event tracing (default off).
    pub fn trace(mut self, trace: TraceSpec) -> Self {
        self.trace = trace;
        self
    }

    /// Installs a fault-injection plan (default: empty — the fault-free
    /// fast path).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// What `apply` does when a fault is detected (default
    /// [`RecoveryPolicy::Fail`]).
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Telemetry hub the driver publishes into after each application
    /// (default [`MetricsHub::Null`] — every probe compiles to a no-op).
    /// Like tracing and the engine choice, the hub is *not* part of the
    /// simulation specification: it never influences results, is excluded
    /// from `SimSpec::content_hash`, and deterministic counters are
    /// published from the engines' already-bit-identical aggregates.
    pub fn metrics(mut self, hub: MetricsHub) -> Self {
        self.metrics = hub;
        self
    }

    /// Assembles the TPFA workload of the classic builder path: validates
    /// the problem, flattens the transmissibilities in upload order (so
    /// retry rebuilds never need the original problem back).
    fn tpfa_workload(&self) -> Result<TpfaWorkload, BuildError> {
        let mesh = self.mesh.ok_or(BuildError::MissingWorkload)?;
        let fluid = self.fluid.ok_or(BuildError::MissingFluid)?;
        let trans = self.trans.ok_or(BuildError::MissingTransmissibilities)?;
        let (nx, ny, nz) = (mesh.nx(), mesh.ny(), mesh.nz());

        // A cardinal-only fabric with diagonal transmissibilities would
        // silently drop those fluxes — reject instead.
        if !self.diagonals_enabled {
            let nonzero_entries = (0..mesh.num_cells())
                .flat_map(|idx| {
                    ALL_NEIGHBORS
                        .iter()
                        .filter(move |nb| nb.is_diagonal() && trans.t(idx, **nb) != 0.0)
                })
                .count();
            if nonzero_entries > 0 {
                return Err(BuildError::MissingDiagonalFluxes { nonzero_entries });
            }
        }

        let mut trans_cols = Vec::with_capacity(nx * ny * ALL_NEIGHBORS.len() * nz);
        for y in 0..ny {
            for x in 0..nx {
                for nb in ALL_NEIGHBORS {
                    for z in 0..nz {
                        trans_cols.push(trans.t(mesh.linear(x, y, z), nb) as f32);
                    }
                }
            }
        }

        Ok(TpfaWorkload::new(
            nx,
            ny,
            nz,
            FluidParams::from_fluid(fluid, mesh.spacing().dz),
            self.compute_enabled,
            self.diagonals_enabled,
            trans_cols,
        ))
    }

    /// Validates the assembled problem and constructs the simulator.
    pub fn build(self) -> Result<DataflowFluxSimulator, BuildError> {
        let tpfa_inputs = self.fluid.is_some()
            || self.trans.is_some()
            || !self.compute_enabled
            || !self.diagonals_enabled;
        if self.workload.is_some() && tpfa_inputs {
            return Err(BuildError::ConflictingWorkload);
        }
        let workload: Arc<dyn Workload> = match &self.workload {
            Some(w) => w.clone(),
            None => Arc::new(self.tpfa_workload()?),
        };
        let (nx, ny) = workload.grid();
        let nz = workload.nz();
        let dims = FabricDims::new(nx, ny);

        // Column footprint must fit the PE before any fabric is built.
        let available_words = self.pe_memory_bytes / 4;
        let needed_words = workload.words_per_pe(nz);
        if needed_words > available_words {
            return Err(BuildError::PeMemoryExceeded {
                needed_words,
                available_words,
                max_nz: workload.max_nz(available_words),
            });
        }

        self.fault_plan
            .validate(dims)
            .map_err(BuildError::InvalidFaultPlan)?;
        if matches!(
            self.recovery,
            RecoveryPolicy::Retry {
                max_attempts: 0,
                ..
            }
        ) {
            return Err(BuildError::ZeroRetryAttempts);
        }

        let spec = SimSpec {
            nx,
            ny,
            nz,
            workload,
            config: FabricConfig {
                pe_memory_bytes: self.pe_memory_bytes,
                max_events: self.max_events,
                execution: self.execution,
                fast_forward: self.fast_forward,
                trace: self.trace,
                ..FabricConfig::default()
            },
            fault_plan: self.fault_plan,
        };
        let fabric = build_fabric(&spec, &spec.fault_plan.clone());
        if let Some(error) = fabric.load_error() {
            return Err(BuildError::Load(error.clone()));
        }
        let allocated = |&pe: &PeCoord| fabric.memory(pe).len();
        if let Some(pe) = dims.iter().find(|pe| allocated(pe) > needed_words) {
            return Err(BuildError::UnderDeclaredMemory {
                pe,
                allocated: allocated(&pe),
                declared: needed_words,
            });
        }
        let metrics = DriverMetrics::new(&self.metrics, self.execution);
        Ok(DataflowFluxSimulator {
            fabric,
            nx,
            ny,
            nz,
            applications: 0,
            fabric_applications: 0,
            spec,
            recovery: self.recovery,
            last_run: None,
            pending: None,
            metrics,
        })
    }
}

/// Host-phase code for pressure injection (start of [`DataflowFluxSimulator::apply`]).
pub const HOST_PHASE_INJECT: u8 = 0;
/// Host-phase code for residual collection (end of [`DataflowFluxSimulator::apply`]).
pub const HOST_PHASE_COLLECT: u8 = 1;

/// Accumulated totals of an in-flight stepped application (the state
/// between [`DataflowFluxSimulator::begin_apply`] and
/// [`DataflowFluxSimulator::finish_apply`]), carried by
/// [`DriverSnapshot`] so a mid-application checkpoint resumes with the
/// same [`RunReport`] arithmetic as the uninterrupted run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTotals {
    /// Events processed so far in this application.
    pub events: u64,
    /// Fabric time after the most recent step.
    pub final_time: u64,
    /// Edge drops accumulated so far in this application.
    pub edge_drops: u64,
    /// Fault events logged so far in this application.
    pub faults: u64,
    /// Whether the fabric already reached quiescence.
    pub complete: bool,
}

/// Outcome of one [`DataflowFluxSimulator::step_events`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// The application reached quiescence — call
    /// [`DataflowFluxSimulator::finish_apply`] to collect the residual.
    pub complete: bool,
    /// Events processed by this step.
    pub events: u64,
    /// Fabric time after this step.
    pub fabric_time: u64,
}

/// Complete driver state as plain data: the fabric snapshot plus the
/// host-side application counters. Captured by
/// [`DataflowFluxSimulator::snapshot`] at any event boundary (between
/// `apply` calls or between `step_events` calls) and restored with
/// [`DataflowFluxSimulator::restore_snapshot`] into a freshly built
/// simulator of the same specification. The binary on-disk encoding lives
/// in `wse-serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverSnapshot {
    /// The underlying fabric state.
    pub fabric: FabricSnapshot,
    /// Completed applications of Algorithm 1.
    pub applications: u64,
    /// Runs launched on the current fabric instance (the watchdog's
    /// expected progress).
    pub fabric_applications: u64,
    /// The in-flight stepped application, if one was open.
    pub in_flight: Option<StepTotals>,
    /// Report of the most recent completed run, for
    /// [`DataflowFluxSimulator::last_run`] continuity.
    pub last_run: Option<RunReport>,
}

/// Preregistered telemetry handles plus the cumulative values already
/// published, so each `finish_apply` adds exact deltas. All handles are
/// `Null` (no-ops) when the builder was given no live hub.
///
/// Naming discipline: `fabric_*`/`driver_*` series are **deterministic** —
/// published from the engines' bit-identical aggregates, so their values
/// are engine-invariant and reproducible. `wall_*` series are wall-clock
/// measurements and are never mixed into the deterministic ones.
struct DriverMetrics {
    live: bool,
    events: Counter,
    applications: Counter,
    flow_stalls: Counter,
    edge_drops: Counter,
    fault_drops: Counter,
    checksum_drops: Counter,
    fault_events: Counter,
    ff_hops: Counter,
    ff_jumps: Counter,
    region_ff_jumps: Counter,
    eq_classes: Gauge,
    fabric_time: Gauge,
    queue_wheel: Gauge,
    queue_overflow: Gauge,
    wall_apply_ns: Histogram,
    wall_events_per_sec: Gauge,
    /// Cumulative fabric-side values already published. The fabric's own
    /// counters restart from zero on a retry rebuild, so publication takes
    /// `saturating_sub` deltas against these (and
    /// [`DataflowFluxSimulator::rebuild_for_attempt`] zeroes them).
    pub_stalls: u64,
    pub_fault_drops: u64,
    pub_checksum_drops: u64,
    pub_ff_hops: u64,
    pub_ff_jumps: u64,
    pub_region_ff_jumps: u64,
    /// Wall-clock start of the in-flight application (live hubs only).
    apply_started: Option<Instant>,
}

/// The `engine` label of the driver's `fabric_*` / `wall_*` metric series:
/// `sequential`, or `sharded{n}` for `n` requested strips.
pub fn engine_label(execution: Execution) -> String {
    match execution {
        Execution::Sequential => "sequential".to_string(),
        Execution::Sharded { shards, .. } => format!("sharded{shards}"),
    }
}

impl DriverMetrics {
    fn new(hub: &MetricsHub, execution: Execution) -> Self {
        let engine = engine_label(execution);
        let l: &[(&str, &str)] = &[("engine", &engine)];
        Self {
            live: hub.is_live(),
            events: hub.counter("fabric_events_total", "Fabric events processed (deterministic: bit-identical across engines and fast-forward settings)", l),
            applications: hub.counter("driver_applications_total", "Completed applications of Algorithm 1", l),
            flow_stalls: hub.counter("fabric_flow_stalls_total", "Backpressure stalls across all PEs (deterministic)", l),
            edge_drops: hub.counter("fabric_edge_drops_total", "Wavelets dropped at fabric edges (deterministic)", l),
            fault_drops: hub.counter("fabric_fault_drops_total", "Wavelets dropped by injected link/PE faults (deterministic)", l),
            checksum_drops: hub.counter("fabric_checksum_drops_total", "Wavelets dropped on checksum mismatch (deterministic)", l),
            fault_events: hub.counter("fabric_fault_events_total", "Fault events logged by the injection machinery (deterministic)", l),
            ff_hops: hub.counter("fabric_ff_hops_total", "Hops covered by static-route fast-forwarding (deterministic and engine-invariant; 0 with fast-forward off)", l),
            ff_jumps: hub.counter("fabric_ff_jumps_total", "Fast-forward jumps taken (engine-DEPENDENT: per chain sequentially, per segment sharded)", l),
            region_ff_jumps: hub.counter("fabric_region_ff_jumps_total", "Region fast-forward jumps: jumps crossing >= 2 identical PEs in one event (engine-DEPENDENT, like ff_jumps)", l),
            eq_classes: hub.gauge("fabric_eq_classes", "Route-table equivalence classes after load (O(1) for SPMD programs)", l),
            fabric_time: hub.gauge("fabric_time_cycles", "Simulated fabric time after the last application (deterministic)", l),
            queue_wheel: hub.gauge("fabric_queue_wheel_occupancy", "Host event-queue items inside the timing wheel's 2^20-cycle horizon", l),
            queue_overflow: hub.gauge("fabric_queue_overflow_occupancy", "Host event-queue items parked in the comparison heap beyond the wheel's horizon", l),
            wall_apply_ns: hub.histogram("wall_apply_ns", "Wall-clock nanoseconds per application (host measurement; NOT deterministic)", l),
            wall_events_per_sec: hub.gauge("wall_events_per_sec", "Fabric events drained per wall-clock second over the last application (NOT deterministic)", l),
            pub_stalls: 0,
            pub_fault_drops: 0,
            pub_checksum_drops: 0,
            pub_ff_hops: 0,
            pub_ff_jumps: 0,
            pub_region_ff_jumps: 0,
            apply_started: None,
        }
    }

    /// Marks the wall-clock start of an application. Only a live hub pays
    /// for the `Instant::now()`.
    fn on_begin(&mut self) {
        if self.live {
            self.apply_started = Some(Instant::now());
        }
    }

    /// Publishes one completed application: deterministic counters as exact
    /// deltas from the fabric's cumulative aggregates, wall-clock series
    /// from the host clock. No-op for null hubs.
    fn on_finish(&mut self, fabric: &Fabric, report: &RunReport) {
        if !self.live {
            return;
        }
        self.events.add(report.events);
        self.edge_drops.add(report.edge_drops);
        self.fault_events.add(report.faults);
        self.applications.inc();
        self.fabric_time.set_u64(report.final_time);

        let stats = fabric.stats();
        let delta = |cur: u64, last: &mut u64| {
            let d = cur.saturating_sub(*last);
            *last = cur;
            d
        };
        let stall_d = delta(stats.flow_stalls, &mut self.pub_stalls);
        let fault_d = delta(stats.fault_drops, &mut self.pub_fault_drops);
        let cks_d = delta(stats.checksum_drops, &mut self.pub_checksum_drops);
        let hops_d = delta(fabric.ff_hops(), &mut self.pub_ff_hops);
        let jumps_d = delta(fabric.ff_jumps(), &mut self.pub_ff_jumps);
        let region_d = delta(fabric.region_ff_jumps(), &mut self.pub_region_ff_jumps);
        self.flow_stalls.add(stall_d);
        self.fault_drops.add(fault_d);
        self.checksum_drops.add(cks_d);
        self.ff_hops.add(hops_d);
        self.ff_jumps.add(jumps_d);
        self.region_ff_jumps.add(region_d);
        self.eq_classes.set_u64(fabric.eq_classes() as u64);

        let (wheel, overflow) = fabric.queue_occupancy();
        self.queue_wheel.set_u64(wheel as u64);
        self.queue_overflow.set_u64(overflow as u64);

        if let Some(started) = self.apply_started.take() {
            let elapsed = started.elapsed();
            let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
            self.wall_apply_ns.observe(ns);
            if ns > 0 {
                self.wall_events_per_sec
                    .set(report.events as f64 / (ns as f64 / 1e9));
            }
        }
    }
}

/// The host-side simulator: fabric + workload.
pub struct DataflowFluxSimulator {
    fabric: Fabric,
    nx: usize,
    ny: usize,
    nz: usize,
    applications: usize,
    /// Runs launched on the *current* fabric instance (reset by a retry
    /// rebuild) — the progress the watchdog expects of every PE.
    fabric_applications: usize,
    spec: SimSpec,
    recovery: RecoveryPolicy,
    last_run: Option<RunReport>,
    /// In-flight stepped application ([`DataflowFluxSimulator::begin_apply`]).
    pending: Option<StepTotals>,
    /// Telemetry handles (all no-ops unless the builder installed a live
    /// hub). Never consulted by the simulation itself.
    metrics: DriverMetrics,
}

impl DataflowFluxSimulator {
    /// Starts a fluent, validating builder for `mesh` (PE grid = `Nx × Ny`,
    /// Z in PE memory).
    ///
    /// ```ignore
    /// let mut sim = DataflowFluxSimulator::builder(&mesh)
    ///     .fluid(&fluid)
    ///     .transmissibilities(&trans)
    ///     .execution(Execution::Sharded { shards: 4, threads: 2 })
    ///     .build()?;
    /// ```
    pub fn builder(mesh: &CartesianMesh3) -> SimulatorBuilder<'_> {
        SimulatorBuilder::new(Some(mesh))
    }

    /// Starts a builder for a pre-assembled [`Workload`] (a compiled
    /// stencil plus its host protocol) — the workload carries its own
    /// geometry, so no mesh is needed:
    ///
    /// ```ignore
    /// let mut sim = DataflowFluxSimulator::workload_builder()
    ///     .workload(WaveWorkload::new(64, 64, 8, params)?)
    ///     .build()?;
    /// ```
    pub fn workload_builder() -> SimulatorBuilder<'static> {
        SimulatorBuilder::new(None)
    }

    /// Uploads `pressure`, launches one application of Algorithm 1, runs to
    /// quiescence, and — when a fault plan is active — runs the progress
    /// watchdog. Does not apply the recovery policy.
    fn apply_attempt(&mut self, pressure: &[f32]) -> Result<Vec<f32>, FabricError> {
        self.begin_apply(pressure);
        self.finish_apply()
    }

    /// Host-loads the input field through the workload's inject phase
    /// (for TPFA: pressures with ghost duplication, residuals zeroed)
    /// without launching a step. Stateful workloads use this to set
    /// initial conditions and then run with
    /// [`DataflowFluxSimulator::advance`].
    pub fn inject(&mut self, input: &[f32]) {
        self.spec.workload.inject(&mut self.fabric, input);
    }

    /// Reads the workload's output field (for TPFA: the residual) without
    /// stepping the fabric.
    pub fn read_output(&self) -> Vec<f32> {
        self.spec.workload.collect(&self.fabric)
    }

    /// Launches one step on the *current* fabric state — no injection —
    /// and runs it to quiescence: the drumbeat of stateful workloads
    /// whose fields live in PE memory across steps (wave propagation).
    /// Honors the watchdog, metrics and counters exactly like
    /// [`DataflowFluxSimulator::apply`]; returns the collected output.
    ///
    /// # Panics
    ///
    /// If a stepped application is in flight.
    pub fn advance(&mut self) -> Result<Vec<f32>, FabricError> {
        assert!(
            self.pending.is_none(),
            "an application is already in flight — call finish_apply first"
        );
        self.fabric
            .trace_host(HOST_PHASE_INJECT, self.applications as u32);
        self.fabric
            .activate_all(self.spec.workload.start_color(), 0);
        self.pending = Some(StepTotals::default());
        self.metrics.on_begin();
        self.finish_apply()
    }

    /// Uploads `pressure` and launches one application of Algorithm 1
    /// without running the fabric: the stepped counterpart of
    /// [`DataflowFluxSimulator::apply`]. Drive the fabric with
    /// [`DataflowFluxSimulator::step_events`] (checkpointing between steps
    /// if desired via [`DataflowFluxSimulator::snapshot`]) and collect the
    /// residual with [`DataflowFluxSimulator::finish_apply`]. The stepped
    /// path does not apply the [`RecoveryPolicy`] — faults surface as
    /// typed errors ([`RecoveryPolicy::Fail`] semantics).
    ///
    /// # Panics
    ///
    /// If an application is already in flight.
    pub fn begin_apply(&mut self, pressure: &[f32]) {
        assert!(
            self.pending.is_none(),
            "an application is already in flight — call finish_apply first"
        );
        self.inject(pressure);
        self.fabric
            .trace_host(HOST_PHASE_INJECT, self.applications as u32);
        self.fabric
            .activate_all(self.spec.workload.start_color(), 0);
        self.pending = Some(StepTotals::default());
        self.metrics.on_begin();
    }

    /// Processes about `max_events` fabric events of the in-flight
    /// application: the pause ends the simulated cycle in which the limit
    /// was reached (see [`Fabric::run_until`]), on every engine, so nothing
    /// left pending is at or before the reported `fabric_time`. Returns
    /// whether the fabric reached quiescence; calling again after
    /// completion is a no-op. On `Err` the fabric is in a failed state —
    /// discard or restore the simulator.
    ///
    /// # Panics
    ///
    /// If no application is in flight.
    pub fn step_events(&mut self, max_events: u64) -> Result<StepReport, FabricError> {
        assert!(
            self.pending.is_some(),
            "no application in flight — call begin_apply first"
        );
        let done = self.pending.as_ref().is_some_and(|p| p.complete);
        if done {
            let p = self.pending.as_ref().unwrap();
            return Ok(StepReport {
                complete: true,
                events: 0,
                fabric_time: p.final_time,
            });
        }
        let pause = self.fabric.run_until(max_events)?;
        let p = self.pending.as_mut().unwrap();
        p.events += pause.report.events;
        p.final_time = pause.report.final_time;
        p.edge_drops += pause.report.edge_drops;
        p.faults += pause.report.faults;
        p.complete = !pause.paused;
        Ok(StepReport {
            complete: p.complete,
            events: pause.report.events,
            fabric_time: pause.report.final_time,
        })
    }

    /// Whether a stepped application is in flight (between
    /// [`DataflowFluxSimulator::begin_apply`] and
    /// [`DataflowFluxSimulator::finish_apply`]).
    pub fn in_flight(&self) -> bool {
        self.pending.is_some()
    }

    /// Runs the in-flight application to quiescence (a no-op when
    /// [`DataflowFluxSimulator::step_events`] already completed it), runs
    /// the fault watchdog, and collects the residual. The accumulated
    /// [`RunReport`] is component-wise identical to the uninterrupted
    /// [`DataflowFluxSimulator::apply`] run's.
    ///
    /// # Panics
    ///
    /// If no application is in flight.
    pub fn finish_apply(&mut self) -> Result<Vec<f32>, FabricError> {
        let pending = self
            .pending
            .take()
            .expect("no application in flight — call begin_apply first");
        let result = if pending.complete {
            Ok(RunReport {
                events: 0,
                final_time: pending.final_time,
                edge_drops: 0,
                faults: 0,
            })
        } else {
            self.fabric.run()
        };
        self.fabric_applications += 1;
        // Progress watchdog: every PE must have completed as many
        // iterations as this fabric has launched; a laggard lost wavelets
        // to a fault without tripping any protocol error. Reported before
        // propagating `result` so `Degrade` sees the complete taint set.
        if !self.spec.fault_plan.is_empty() {
            let expected = self.fabric_applications as u64;
            let dims = self.fabric.dims();
            for (i, p) in self.fabric.progress_by_pe().into_iter().enumerate() {
                if let Some(p) = p {
                    if p < expected {
                        self.fabric.report_watchdog_stall(dims.coord(i), p);
                    }
                }
            }
        }
        let tail = result?;
        if let Some(error) = self.fabric.first_fault_error() {
            // The run itself was clean, but the watchdog found silent
            // stalls (or earlier benign-looking damage) — same typed error.
            return Err(error);
        }
        self.fabric
            .trace_host(HOST_PHASE_COLLECT, self.applications as u32);
        let report = RunReport {
            events: pending.events + tail.events,
            final_time: tail.final_time,
            edge_drops: pending.edge_drops + tail.edge_drops,
            faults: pending.faults + tail.faults,
        };
        self.metrics.on_finish(&self.fabric, &report);
        self.last_run = Some(report);
        self.applications += 1;
        Ok(self.collect_residual())
    }

    fn collect_residual(&self) -> Vec<f32> {
        self.spec.workload.collect(&self.fabric)
    }

    /// Rebuilds the fabric for retry attempt `attempt` (non-persistent
    /// faults are filtered out) and re-uploads the static data. Fabric
    /// time and counters restart from zero.
    fn rebuild_for_attempt(&mut self, attempt: u32) {
        let plan = self.spec.fault_plan.for_attempt(attempt);
        self.fabric = build_fabric(&self.spec, &plan);
        self.fabric_applications = 0;
        self.last_run = None;
        self.pending = None;
        // The fresh fabric's cumulative counters restart at zero; re-anchor
        // the published baselines so the next delta is exact.
        self.metrics.pub_stalls = 0;
        self.metrics.pub_fault_drops = 0;
        self.metrics.pub_checksum_drops = 0;
        self.metrics.pub_ff_hops = 0;
        self.metrics.pub_ff_jumps = 0;
        self.metrics.pub_region_ff_jumps = 0;
    }

    /// Captures the complete driver + fabric state as plain data. Valid at
    /// any event boundary: between `apply` calls, or between
    /// [`DataflowFluxSimulator::step_events`] calls of an in-flight
    /// application. Trace ring contents are not captured (sequence
    /// counters are) — checkpoint with tracing off for bit-identical
    /// resumed traces.
    pub fn snapshot(&self) -> DriverSnapshot {
        DriverSnapshot {
            fabric: self.fabric.snapshot(),
            applications: self.applications as u64,
            fabric_applications: self.fabric_applications as u64,
            in_flight: self.pending,
            last_run: self.last_run,
        }
    }

    /// Restores state captured by [`DataflowFluxSimulator::snapshot`].
    /// The target must have been built from the same problem specification
    /// (same mesh, fluid, transmissibilities, fabric configuration and
    /// fault plan — compare [`DataflowFluxSimulator::spec_hash`]); the
    /// engine (`Sequential` vs `Sharded`) may differ, snapshots are
    /// engine-portable. On `Err` the simulator may be partially
    /// overwritten and must be discarded.
    pub fn restore_snapshot(&mut self, snap: &DriverSnapshot) -> Result<(), RestoreError> {
        self.fabric.restore(&snap.fabric)?;
        self.applications = snap.applications as usize;
        self.fabric_applications = snap.fabric_applications as usize;
        self.pending = snap.in_flight;
        self.last_run = snap.last_run;
        Ok(())
    }

    /// Content hash ([`wse_sim::hash`]) of the full problem specification:
    /// geometry, fluid constants, ablation flags, fabric configuration,
    /// fault plan, and every transmissibility bit. Two simulators with
    /// equal hashes accept each other's snapshots; `wse-serve` writes it
    /// into every checkpoint header and checks it on restore. Computed on
    /// each call, not cached at build.
    pub fn spec_hash(&self) -> u64 {
        self.spec.content_hash()
    }

    fn all_valid(&self) -> Vec<bool> {
        vec![true; self.nx * self.ny]
    }

    /// The per-PE validity map after a detected fault: invalid = within
    /// Chebyshev distance 2 of any tainted PE. Timing/routing faults
    /// (`PeSlow`, effective `RouterFlip`) and route/budget errors have an
    /// unbounded blast radius — everything is invalidated.
    fn degrade_validity(&self, error: &FabricError, faults: &[FaultEvent]) -> Vec<bool> {
        let unbounded = matches!(
            error,
            FabricError::Route { .. } | FabricError::EventBudgetExceeded { .. }
        ) || faults
            .iter()
            .any(|f| !f.benign && matches!(f.class, FaultClass::PeSlow | FaultClass::RouterFlip));
        if unbounded {
            return vec![false; self.nx * self.ny];
        }
        let tainted = self.fabric.tainted_pes();
        let mut valid = vec![true; self.nx * self.ny];
        for (i, &t) in tainted.iter().enumerate() {
            if !t {
                continue;
            }
            let (cx, cy) = (i % self.nx, i / self.nx);
            for y in cy.saturating_sub(2)..(cy + 3).min(self.ny) {
                for x in cx.saturating_sub(2)..(cx + 3).min(self.nx) {
                    valid[y * self.nx + x] = false;
                }
            }
        }
        valid
    }

    /// Applies Algorithm 1 once to `pressure` (mesh linear order, f32) and
    /// returns the flux residual in mesh linear order, honoring the
    /// configured [`RecoveryPolicy`]. Use
    /// [`DataflowFluxSimulator::apply_recovering`] to also receive the
    /// validity bitmap and fault provenance.
    pub fn apply(&mut self, pressure: &[f32]) -> Result<Vec<f32>, FabricError> {
        Ok(self.apply_recovering(pressure)?.residual)
    }

    /// [`DataflowFluxSimulator::apply`] with full recovery provenance:
    /// attempts used, simulated backoff, per-PE validity, and the fault
    /// log. `Err` is returned exactly when the policy could not produce a
    /// usable residual — never silently wrong data.
    pub fn apply_recovering(&mut self, pressure: &[f32]) -> Result<Recovered, FabricError> {
        match self.recovery {
            RecoveryPolicy::Fail => {
                let residual = self.apply_attempt(pressure)?;
                Ok(Recovered {
                    residual,
                    valid: self.all_valid(),
                    degraded: false,
                    attempts: 1,
                    backoff_cycles: 0,
                    faults: self.fabric.fault_log(),
                })
            }
            RecoveryPolicy::Retry {
                max_attempts,
                backoff,
            } => {
                let mut backoff_cycles = 0u64;
                let mut attempt = 0u32;
                loop {
                    match self.apply_attempt(pressure) {
                        Ok(residual) => {
                            return Ok(Recovered {
                                residual,
                                valid: self.all_valid(),
                                degraded: false,
                                attempts: attempt + 1,
                                backoff_cycles,
                                faults: self.fabric.fault_log(),
                            })
                        }
                        Err(error) => {
                            attempt += 1;
                            // Only detected faults are recoverable; genuine
                            // program bugs propagate immediately.
                            let recoverable = matches!(error, FabricError::Fault { .. });
                            if !recoverable || attempt >= max_attempts {
                                return Err(error);
                            }
                            backoff_cycles = backoff_cycles.saturating_add(
                                backoff.saturating_mul(1u64 << (attempt - 1).min(32)),
                            );
                            self.rebuild_for_attempt(attempt);
                        }
                    }
                }
            }
            RecoveryPolicy::Degrade => match self.apply_attempt(pressure) {
                Ok(residual) => Ok(Recovered {
                    residual,
                    valid: self.all_valid(),
                    degraded: false,
                    attempts: 1,
                    backoff_cycles: 0,
                    faults: self.fabric.fault_log(),
                }),
                Err(error) => {
                    let faults = self.fabric.fault_log();
                    if faults.iter().all(|f| f.benign) {
                        // No fault was involved — a genuine program bug;
                        // there is nothing sound to degrade around.
                        return Err(error);
                    }
                    let valid = self.degrade_validity(&error, &faults);
                    Ok(Recovered {
                        residual: self.collect_residual(),
                        valid,
                        degraded: true,
                        attempts: 1,
                        backoff_cycles: 0,
                        faults,
                    })
                }
            },
        }
    }

    /// Applies Algorithm 1 `n` times with a fresh pressure vector per call
    /// (the paper's driver), returning the final residual.
    pub fn apply_many(
        &mut self,
        n: usize,
        mut pressure_for: impl FnMut(usize) -> Vec<f32>,
    ) -> Result<Vec<f32>, FabricError> {
        let mut last = Vec::new();
        for i in 0..n {
            last = self.apply(&pressure_for(i))?;
        }
        Ok(last)
    }

    /// Applications of Algorithm 1 so far (successful ones).
    pub fn applications(&self) -> usize {
        self.applications
    }

    /// The workload this simulator runs.
    pub fn workload(&self) -> &Arc<dyn Workload> {
        &self.spec.workload
    }

    /// The configured recovery policy.
    pub fn recovery(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// The installed fault plan (empty when fault injection is off).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.spec.fault_plan
    }

    /// Every fault injection/detection logged on the current fabric, in
    /// engine-independent `(time, PE, log position)` order.
    pub fn fault_log(&self) -> Vec<FaultEvent> {
        self.fabric.fault_log()
    }

    /// Per-PE completed-iteration counters in linear order (the watchdog's
    /// input).
    pub fn progress_by_pe(&self) -> Vec<Option<u64>> {
        self.fabric.progress_by_pe()
    }

    /// Aggregated fabric statistics (instruction counters, traffic).
    pub fn stats(&self) -> FabricStats {
        self.fabric.stats()
    }

    /// Per-strip statistics with the fabric cut into `strips` row strips
    /// (see [`Fabric::shard_stats`]).
    pub fn shard_stats(&self, strips: usize) -> Vec<FabricStats> {
        self.fabric.shard_stats(strips)
    }

    /// One PE's statistics (see [`Fabric::pe_stats`]).
    pub fn pe_stats(&self, x: usize, y: usize) -> FabricStats {
        self.fabric.pe_stats(PeCoord::new(x, y))
    }

    /// Route-table equivalence classes after program load (see
    /// [`Fabric::eq_classes`]): the number of distinct route programs —
    /// O(1) for SPMD workloads regardless of fabric size.
    pub fn eq_classes(&self) -> usize {
        self.fabric.eq_classes()
    }

    /// Fast-forward jumps that crossed >= 2 identical PEs in one event
    /// (see [`Fabric::region_ff_jumps`]). Engine-DEPENDENT, like
    /// `ff_jumps`: excluded from the determinism contract.
    pub fn region_ff_jumps(&self) -> u64 {
        self.fabric.region_ff_jumps()
    }

    /// Total cycles wavelets spent queued behind busy PEs (see
    /// [`Fabric::queue_wait_cycles`]); bit-identical across engines.
    pub fn queue_wait_cycles(&self) -> u64 {
        self.fabric.queue_wait_cycles()
    }

    /// Per-PE queue-wait cycles (see [`Fabric::queue_wait_by_pe`]).
    pub fn queue_wait_by_pe(&self) -> Vec<u64> {
        self.fabric.queue_wait_by_pe()
    }

    /// Host event-queue occupancy `(wheel, overflow)` (see
    /// [`Fabric::queue_occupancy`]). Host-side telemetry, not part of the
    /// determinism contract.
    pub fn queue_occupancy(&self) -> (usize, usize) {
        self.fabric.queue_occupancy()
    }

    /// The report of the most recent run.
    pub fn last_run(&self) -> Option<RunReport> {
        self.last_run
    }

    /// Whether event tracing is enabled for this simulator.
    pub fn trace_enabled(&self) -> bool {
        self.fabric.trace_enabled()
    }

    /// Snapshot of the recorded trace (see [`Fabric::trace`]); `None` when
    /// tracing is off.
    pub fn trace(&self) -> Option<Trace> {
        self.fabric.trace()
    }

    /// Zeroes all counters (e.g. between warm-up and measurement).
    pub fn reset_counters(&mut self) {
        self.fabric.reset_counters();
    }

    /// Per-PE counters (diagnostics / Table 4 extraction).
    pub fn pe_counters(&self, x: usize, y: usize) -> &wse_sim::stats::OpCounters {
        self.fabric.counters(PeCoord::new(x, y))
    }

    /// Number of mesh cells.
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Z extent.
    pub fn nz(&self) -> usize {
        self.nz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplace::{LaplaceParams, LaplaceWorkload};
    use fv_core::fields::PermeabilityField;
    use fv_core::mesh::{Extents, Spacing};
    use fv_core::residual::assemble_flux_residual;
    use fv_core::state::FlowState;
    use fv_core::trans::StencilKind;
    use fv_core::validate::rel_max_diff_vs_reference;
    use wse_sim::fault::{Fault, FaultKind};

    fn problem(
        nx: usize,
        ny: usize,
        nz: usize,
        kind: StencilKind,
    ) -> (CartesianMesh3, Fluid, Transmissibilities) {
        let mesh = CartesianMesh3::new(Extents::new(nx, ny, nz), Spacing::new(10.0, 10.0, 4.0));
        let fluid = Fluid::water_like();
        let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 99);
        let trans = Transmissibilities::tpfa(&mesh, &perm, kind);
        (mesh, fluid, trans)
    }

    fn simulator(
        mesh: &CartesianMesh3,
        fluid: &Fluid,
        trans: &Transmissibilities,
    ) -> DataflowFluxSimulator {
        DataflowFluxSimulator::builder(mesh)
            .fluid(fluid)
            .transmissibilities(trans)
            .build()
            .expect("valid problem")
    }

    fn serial_reference(
        mesh: &CartesianMesh3,
        fluid: &Fluid,
        trans: &Transmissibilities,
        p: &[f32],
    ) -> Vec<f64> {
        let p64: Vec<f64> = p.iter().map(|&v| v as f64).collect();
        let mut r = vec![0.0_f64; mesh.num_cells()];
        assemble_flux_residual(mesh, fluid, trans, &p64, &mut r);
        r
    }

    #[test]
    fn dataflow_matches_serial_reference_ten_point() {
        let (mesh, fluid, trans) = problem(5, 4, 3, StencilKind::TenPoint);
        let state = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, 7);
        let mut sim = simulator(&mesh, &fluid, &trans);
        let r = sim.apply(state.pressure()).unwrap();
        let reference = serial_reference(&mesh, &fluid, &trans, state.pressure());
        let diff = rel_max_diff_vs_reference(&reference, &r);
        assert!(diff < 2e-4, "dataflow vs serial rel max diff {diff}");
    }

    #[test]
    fn dataflow_matches_serial_reference_with_gravity_column() {
        // Tall column: exercises the Z faces and gravity heads hard.
        let (mesh, fluid, trans) = problem(3, 3, 8, StencilKind::TenPoint);
        let state = FlowState::<f32>::hydrostatic(&mesh, &fluid, 2.0e7);
        let mut sim = simulator(&mesh, &fluid, &trans);
        let r = sim.apply(state.pressure()).unwrap();
        let reference = serial_reference(&mesh, &fluid, &trans, state.pressure());
        // hydrostatic: residuals are tiny; compare against the pulse scale
        let pulse = FlowState::<f32>::gaussian_pulse(&mesh, 2.0e7, 1.0e6, 2.0);
        let ref_pulse = serial_reference(&mesh, &fluid, &trans, pulse.pressure());
        let scale = ref_pulse.iter().map(|v| v.abs()).fold(0.0_f64, f64::max);
        for i in 0..r.len() {
            assert!(
                (r[i] as f64 - reference[i]).abs() < 1e-3 * scale,
                "cell {i}: {} vs {}",
                r[i],
                reference[i]
            );
        }
    }

    #[test]
    fn dataflow_matches_serial_cardinal_stencil() {
        let (mesh, fluid, trans) = problem(4, 5, 2, StencilKind::Cardinal);
        let state = FlowState::<f32>::gaussian_pulse(&mesh, 1.0e7, 2.0e6, 1.5);
        let mut sim = simulator(&mesh, &fluid, &trans);
        let r = sim.apply(state.pressure()).unwrap();
        let reference = serial_reference(&mesh, &fluid, &trans, state.pressure());
        let diff = rel_max_diff_vs_reference(&reference, &r);
        assert!(diff < 2e-4, "rel max diff {diff}");
    }

    #[test]
    fn interior_pe_counts_match_table_4_per_cell() {
        let (mesh, fluid, trans) = problem(5, 5, 4, StencilKind::TenPoint);
        let state = FlowState::<f32>::varied(&mesh, 1.0e7, 1.1e7, 1);
        let mut sim = simulator(&mesh, &fluid, &trans);
        sim.apply(state.pressure()).unwrap();
        let nz = 4u64;
        let c = sim.pe_counters(2, 2); // interior PE
        assert_eq!(c.fmul, 60 * nz, "60 FMUL per cell");
        assert_eq!(c.fsub, 40 * nz, "40 FSUB per cell");
        assert_eq!(c.fneg, 10 * nz, "10 FNEG per cell");
        assert_eq!(c.fadd, 10 * nz, "10 FADD per cell");
        assert_eq!(c.fma, 10 * nz, "10 FMA per cell");
        assert_eq!(c.fmov_in, 16 * nz, "16 FMOV (fabric loads) per cell");
        assert_eq!(c.fabric_loads, 16 * nz);
        assert_eq!(c.flops(), 140 * nz, "140 FLOPs per cell");
        assert_eq!(
            c.mem_loads + c.mem_stores,
            406 * nz,
            "406 loads+stores per cell"
        );
    }

    #[test]
    fn comm_only_mode_moves_data_but_computes_nothing() {
        let (mesh, fluid, trans) = problem(4, 4, 3, StencilKind::TenPoint);
        let state = FlowState::<f32>::varied(&mesh, 1.0e7, 1.1e7, 2);
        let mut sim = DataflowFluxSimulator::builder(&mesh)
            .fluid(&fluid)
            .transmissibilities(&trans)
            .compute_enabled(false)
            .build()
            .unwrap();
        let r = sim.apply(state.pressure()).unwrap();
        assert!(r.iter().all(|&v| v == 0.0), "no fluxes in comm-only mode");
        let stats = sim.stats();
        assert_eq!(stats.total.flops(), 0);
        assert!(stats.total.fabric_loads > 0, "data still moved");
        assert!(stats.total.comm_cycles > 0);
        assert_eq!(stats.total.compute_cycles, stats.total.eos_evals * 4);
    }

    #[test]
    fn repeated_applications_accumulate_counters_linearly() {
        let (mesh, fluid, trans) = problem(3, 3, 2, StencilKind::TenPoint);
        let mut sim = simulator(&mesh, &fluid, &trans);
        let p = FlowState::<f32>::varied(&mesh, 1.0e7, 1.1e7, 0);
        sim.apply(p.pressure()).unwrap();
        let one = sim.stats().total;
        sim.apply(p.pressure()).unwrap();
        let two = sim.stats().total;
        assert_eq!(two.flops(), 2 * one.flops());
        assert_eq!(two.fabric_loads, 2 * one.fabric_loads);
        assert_eq!(sim.applications(), 2);
    }

    #[test]
    fn apply_many_cycles_pressure_vectors() {
        let (mesh, fluid, trans) = problem(3, 3, 2, StencilKind::TenPoint);
        let mut sim = simulator(&mesh, &fluid, &trans);
        let final_r = sim
            .apply_many(3, |i| {
                FlowState::<f32>::varied(&mesh, 1.0e7, 1.1e7, i as u64)
                    .pressure()
                    .to_vec()
            })
            .unwrap();
        assert_eq!(sim.applications(), 3);
        // final residual corresponds to the last pressure vector
        let last = FlowState::<f32>::varied(&mesh, 1.0e7, 1.1e7, 2);
        let reference = serial_reference(&mesh, &fluid, &trans, last.pressure());
        let diff = rel_max_diff_vs_reference(&reference, &final_r);
        assert!(diff < 2e-4);
    }

    #[test]
    fn deterministic_residuals_across_rebuilds() {
        let (mesh, fluid, trans) = problem(4, 3, 3, StencilKind::TenPoint);
        let p = FlowState::<f32>::varied(&mesh, 1.0e7, 1.15e7, 5);
        let run = || {
            let mut sim = simulator(&mesh, &fluid, &trans);
            sim.apply(p.pressure()).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "bit-exact determinism");
    }

    #[test]
    fn cardinal_only_ablation_matches_serial_on_cardinal_stencil() {
        // §5.2.2: the diagonal exchange "is not mandatory for evaluating
        // the mathematical scheme" — with diagonal transmissibilities zero,
        // the cardinal-only fabric must still match the serial reference.
        let (mesh, fluid, trans) = problem(5, 4, 3, StencilKind::Cardinal);
        let state = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, 4);
        let mut sim = DataflowFluxSimulator::builder(&mesh)
            .fluid(&fluid)
            .transmissibilities(&trans)
            .diagonals_enabled(false)
            .build()
            .unwrap();
        let r = sim.apply(state.pressure()).unwrap();
        let reference = serial_reference(&mesh, &fluid, &trans, state.pressure());
        let diff = rel_max_diff_vs_reference(&reference, &r);
        assert!(diff < 2e-4, "cardinal-only rel max diff {diff}");
        // and it moves half the data of the full pattern on interior PEs
        let c = sim.pe_counters(2, 2);
        assert_eq!(c.fabric_loads, 4 * 2 * 3, "4 cardinal streams x 2 x nz");
    }

    #[test]
    fn single_pe_column_has_no_fabric_traffic() {
        // 1×1 fabric: only the Z faces exist; everything is local.
        let (mesh, fluid, trans) = problem(1, 1, 6, StencilKind::TenPoint);
        let p = FlowState::<f32>::hydrostatic(&mesh, &fluid, 3.0e7);
        let mut sim = simulator(&mesh, &fluid, &trans);
        let r = sim.apply(p.pressure()).unwrap();
        let stats = sim.stats();
        assert_eq!(
            stats.total.fabric_loads, 0,
            "Z faces never touch the fabric"
        );
        let reference = serial_reference(&mesh, &fluid, &trans, p.pressure());
        let pulse_scale = reference.iter().map(|v| v.abs()).fold(1e-20, f64::max);
        for i in 0..r.len() {
            assert!((r[i] as f64 - reference[i]).abs() <= 1e-3 * pulse_scale.max(1e-10));
        }
    }

    #[test]
    fn builder_rejects_disabled_diagonals_with_full_stencil() {
        let (mesh, fluid, trans) = problem(4, 4, 2, StencilKind::TenPoint);
        let err = DataflowFluxSimulator::builder(&mesh)
            .fluid(&fluid)
            .transmissibilities(&trans)
            .diagonals_enabled(false)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, BuildError::MissingDiagonalFluxes { nonzero_entries } if nonzero_entries > 0),
            "got {err:?}"
        );
    }

    #[test]
    fn builder_rejects_oversized_columns() {
        let (mesh, fluid, trans) = problem(2, 2, 64, StencilKind::TenPoint);
        let err = DataflowFluxSimulator::builder(&mesh)
            .fluid(&fluid)
            .transmissibilities(&trans)
            .pe_memory_bytes(4 * 1024)
            .build()
            .map(|_| ())
            .unwrap_err();
        match err {
            BuildError::PeMemoryExceeded {
                needed_words,
                available_words,
                max_nz,
            } => {
                assert!(needed_words > available_words);
                assert!(max_nz < 64);
            }
            other => panic!("expected PeMemoryExceeded, got {other:?}"),
        }
    }

    #[test]
    fn builder_rejects_missing_inputs_and_bad_fault_plans() {
        let (mesh, fluid, trans) = problem(3, 3, 2, StencilKind::TenPoint);
        assert_eq!(
            DataflowFluxSimulator::builder(&mesh)
                .transmissibilities(&trans)
                .build()
                .map(|_| ())
                .unwrap_err(),
            BuildError::MissingFluid
        );
        assert_eq!(
            DataflowFluxSimulator::builder(&mesh)
                .fluid(&fluid)
                .build()
                .map(|_| ())
                .unwrap_err(),
            BuildError::MissingTransmissibilities
        );
        // A fault site outside the 3×3 fabric is rejected before build.
        let plan = FaultPlan::new().with(Fault {
            pe: PeCoord::new(7, 0),
            at: 10,
            kind: FaultKind::PeHalt,
            persistent: true,
        });
        let err = DataflowFluxSimulator::builder(&mesh)
            .fluid(&fluid)
            .transmissibilities(&trans)
            .fault_plan(plan)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, BuildError::InvalidFaultPlan(_)), "{err:?}");
        // A retry budget without even the first attempt is refused here,
        // not on the first apply.
        let err = DataflowFluxSimulator::builder(&mesh)
            .fluid(&fluid)
            .transmissibilities(&trans)
            .recovery(RecoveryPolicy::Retry {
                max_attempts: 0,
                backoff: 0,
            })
            .build()
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, BuildError::ZeroRetryAttempts);
    }

    #[test]
    fn builder_rejects_a_workload_combined_with_tpfa_inputs_or_ablations() {
        // A generic workload would silently ignore the TPFA-only switches.
        let (mesh, fluid, _) = problem(3, 3, 2, StencilKind::TenPoint);
        let laplace = || {
            let params = crate::laplace::LaplaceParams::from_spacing(1.0, 1.0, 1.0);
            DataflowFluxSimulator::builder(&mesh)
                .workload(crate::laplace::LaplaceWorkload::new(3, 3, 2, params).unwrap())
        };
        assert!(laplace().build().is_ok());
        for conflicting in [
            laplace().fluid(&fluid),
            laplace().compute_enabled(false),
            laplace().diagonals_enabled(false),
        ] {
            assert_eq!(
                conflicting.build().map(|_| ()).unwrap_err(),
                BuildError::ConflictingWorkload
            );
        }
    }

    #[test]
    fn recovery_policy_parses() {
        assert_eq!(RecoveryPolicy::parse("fail"), Ok(RecoveryPolicy::Fail));
        assert_eq!(
            RecoveryPolicy::parse("degrade"),
            Ok(RecoveryPolicy::Degrade)
        );
        assert_eq!(
            RecoveryPolicy::parse("retry"),
            Ok(RecoveryPolicy::Retry {
                max_attempts: 3,
                backoff: 0
            })
        );
        assert_eq!(
            RecoveryPolicy::parse("retry:5:100"),
            Ok(RecoveryPolicy::Retry {
                max_attempts: 5,
                backoff: 100
            })
        );
        assert!(RecoveryPolicy::parse("retry:0").is_err());
        assert!(RecoveryPolicy::parse("bogus").is_err());
        assert!(RecoveryPolicy::parse("fail:1").is_err());
    }

    #[test]
    fn stepped_apply_matches_uninterrupted() {
        let (mesh, fluid, trans) = problem(5, 4, 3, StencilKind::TenPoint);
        let state = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, 7);
        let mut whole = simulator(&mesh, &fluid, &trans);
        let r_whole = whole.apply(state.pressure()).unwrap();

        let mut stepped = simulator(&mesh, &fluid, &trans);
        stepped.begin_apply(state.pressure());
        assert!(stepped.in_flight());
        let mut steps = 0u32;
        while !stepped.step_events(64).unwrap().complete {
            steps += 1;
            assert!(steps < 100_000, "stepped run failed to converge");
        }
        let r_stepped = stepped.finish_apply().unwrap();
        assert!(!stepped.in_flight());
        assert!(steps > 2, "problem too small to exercise pausing");
        assert_eq!(r_whole, r_stepped);
        assert_eq!(whole.last_run().unwrap(), stepped.last_run().unwrap());
    }

    #[test]
    fn snapshot_restores_mid_application_into_a_fresh_simulator() {
        let (mesh, fluid, trans) = problem(5, 4, 3, StencilKind::TenPoint);
        let state = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, 7);
        let mut whole = simulator(&mesh, &fluid, &trans);
        let r_whole = whole.apply(state.pressure()).unwrap();

        let mut first = simulator(&mesh, &fluid, &trans);
        let hash = first.spec_hash();
        first.begin_apply(state.pressure());
        let step = first.step_events(100).unwrap();
        assert!(!step.complete, "checkpoint must land mid-application");
        let snap = first.snapshot();
        drop(first); // the "kill" half of kill/restore

        let mut resumed = simulator(&mesh, &fluid, &trans);
        assert_eq!(resumed.spec_hash(), hash);
        resumed.restore_snapshot(&snap).unwrap();
        assert!(resumed.in_flight());
        let r_resumed = resumed.finish_apply().unwrap();
        assert_eq!(r_whole, r_resumed);
        assert_eq!(whole.last_run().unwrap(), resumed.last_run().unwrap());
        assert_eq!(whole.applications(), resumed.applications());
    }

    #[test]
    fn snapshot_between_applications_preserves_counters() {
        let (mesh, fluid, trans) = problem(4, 4, 3, StencilKind::TenPoint);
        let p0 = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, 1);
        let p1 = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, 2);
        let mut whole = simulator(&mesh, &fluid, &trans);
        whole.apply(p0.pressure()).unwrap();
        let r_whole = whole.apply(p1.pressure()).unwrap();

        let mut first = simulator(&mesh, &fluid, &trans);
        first.apply(p0.pressure()).unwrap();
        let snap = first.snapshot();
        drop(first);

        let mut resumed = simulator(&mesh, &fluid, &trans);
        resumed.restore_snapshot(&snap).unwrap();
        assert_eq!(resumed.applications(), 1);
        let r_resumed = resumed.apply(p1.pressure()).unwrap();
        assert_eq!(r_whole, r_resumed);
        assert_eq!(whole.stats(), resumed.stats());
        assert_eq!(whole.last_run().unwrap(), resumed.last_run().unwrap());
    }

    #[test]
    fn spec_hash_tracks_the_problem_not_the_engine() {
        let (mesh, fluid, trans) = problem(4, 4, 3, StencilKind::TenPoint);
        let seq = simulator(&mesh, &fluid, &trans);
        let sharded = DataflowFluxSimulator::builder(&mesh)
            .fluid(&fluid)
            .transmissibilities(&trans)
            .execution(Execution::Sharded {
                shards: 4,
                threads: 2,
            })
            .fast_forward(false)
            .build()
            .unwrap();
        assert_eq!(seq.spec_hash(), sharded.spec_hash());

        let (mesh2, fluid2, trans2) = problem(4, 4, 4, StencilKind::TenPoint);
        let other = simulator(&mesh2, &fluid2, &trans2);
        assert_ne!(seq.spec_hash(), other.spec_hash());
    }

    fn laplace() -> LaplaceWorkload {
        LaplaceWorkload::new(3, 2, 4, LaplaceParams::from_spacing(1.0, 2.0, 3.0)).unwrap()
    }

    /// A spec hash change moves every checkpoint header: the encoding of a
    /// fixed spec with a two-fault plan is pinned.
    #[test]
    fn spec_hash_of_a_fixed_spec_with_faults_is_pinned() {
        let plan = FaultPlan::new()
            .with(Fault {
                pe: PeCoord::new(1, 0),
                at: 5,
                kind: FaultKind::PeSlow {
                    factor: 3,
                    until: 9,
                },
                persistent: true,
            })
            .with(Fault {
                pe: PeCoord::new(2, 1),
                at: 7,
                kind: FaultKind::RouterFlip {
                    color: wse_sim::wavelet::Color::new(4),
                },
                persistent: false,
            });
        let sim = DataflowFluxSimulator::workload_builder()
            .workload(laplace())
            .fault_plan(plan)
            .build()
            .unwrap();
        assert_eq!(sim.spec_hash(), 0xaeef_1632_3227_a00e);
    }

    /// A Laplacian that declares one word per PE fewer than its `init`
    /// allocates.
    struct UnderDeclared(LaplaceWorkload);

    impl Workload for UnderDeclared {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn compiled(&self) -> &wse_stencil::CompiledStencil {
            self.0.compiled()
        }
        fn pattern(&self) -> Arc<wse_stencil::CommPattern> {
            self.0.pattern()
        }
        fn grid(&self) -> (usize, usize) {
            self.0.grid()
        }
        fn nz(&self) -> usize {
            self.0.nz()
        }
        fn words_per_pe(&self, nz: usize) -> usize {
            self.0.words_per_pe(nz) - 1
        }
        fn make_program(&self) -> Box<dyn wse_sim::pe::PeProgram> {
            self.0.make_program()
        }
        fn inject(&self, fabric: &mut Fabric, input: &[f32]) {
            self.0.inject(fabric, input)
        }
        fn collect(&self, fabric: &Fabric) -> Vec<f32> {
            self.0.collect(fabric)
        }
        fn hash_content(&self, h: &mut ContentHasher) {
            self.0.hash_content(h)
        }
    }

    #[test]
    fn builder_refuses_a_workload_that_allocates_more_than_it_declares() {
        let declared = UnderDeclared(laplace()).words_per_pe(4);
        let build = |bytes: usize| {
            DataflowFluxSimulator::workload_builder()
                .workload(UnderDeclared(laplace()))
                .pe_memory_bytes(bytes)
                .build()
                .map(|_| ())
                .unwrap_err()
        };
        let err = build(wse_sim::memory::WSE2_PE_MEMORY_BYTES);
        let expected = BuildError::UnderDeclaredMemory {
            pe: PeCoord::new(0, 0),
            allocated: declared + 1,
            declared,
        };
        assert_eq!(err, expected);
        assert!(err.to_string().contains("(0, 0)"), "{err}");
        // With exactly the declared words of memory, `init` runs out first.
        match build(4 * declared) {
            BuildError::Load(FabricError::Memory {
                pe,
                error:
                    wse_sim::memory::MemoryError::Exhausted {
                        requested,
                        available,
                    },
            }) => {
                assert_eq!(pe, PeCoord::new(0, 0));
                assert_eq!(requested, available + 1);
            }
            other => panic!("expected an exhausted load, got {other:?}"),
        }
    }
}
