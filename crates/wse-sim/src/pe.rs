//! The PE programming model: color-activated tasks over private memory.
//!
//! A [`PeProgram`] is the per-PE half of an SPMD fabric program, mirroring
//! the CSL model the paper's implementation is written in: handlers run when
//! a wavelet of some color reaches the PE's ramp, operate on the PE's
//! private memory through DSD vector ops, and send wavelets back into the
//! fabric through the router.

use crate::dsd::{self, Dsd, Operand};
use crate::geometry::{FabricDims, PeCoord};
use crate::memory::{MemRange, MemoryError, PeMemory};
use crate::route::{ColorConfig, RouteError, RouteTable, Router};
use crate::stats::OpCounters;
use crate::wavelet::{Color, Wavelet};
use wse_trace::{PeTracer, TraceRegion};

/// Everything a handler may touch: the PE's own memory, counters, router,
/// and an outbox of wavelets to inject after the handler returns.
pub struct PeContext<'a> {
    /// This PE's fabric coordinate.
    pub coord: PeCoord,
    /// Fabric dimensions (for boundary awareness).
    pub dims: FabricDims,
    /// The PE's private memory: its allocation, frozen at load. While
    /// `init` runs there is none yet — `init` lays it out.
    pub memory: PeMemory<'a>,
    /// The PE's instruction counters.
    pub counters: &'a mut OpCounters,
    /// The PE's trace sink — a no-op unless tracing is enabled in
    /// [`crate::fabric::FabricConfig::trace`]. DSD ops record through it;
    /// pass it to [`crate::dsd`] free functions called directly.
    pub tracer: &'a mut PeTracer,
    phase: Phase<'a>,
    outbox: &'a mut Vec<Wavelet>,
    activations: &'a mut Vec<(Color, u32)>,
    /// Words allocated: so far while `init` runs, the whole allocation
    /// once loaded.
    pub(crate) allocated: usize,
    /// The first reconfiguration this handler was refused, for the fabric
    /// to report as the PE's routing error.
    pub(crate) refused: Option<RouteError>,
}

/// Where a handler's routes go and whether it may allocate.
pub(crate) enum Phase<'a> {
    /// `init` runs: routes are staged in a plain table the fabric's load
    /// interns afterwards, and up to `capacity` words may be allocated.
    Init {
        /// The PE's staged routes.
        routes: &'a mut RouteTable,
        /// The PE's capacity in words.
        capacity: usize,
    },
    /// The fabric is loaded: the PE's own router, whose configured routes
    /// and memory layout are frozen.
    Loaded(&'a mut Router),
}

impl<'a> PeContext<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        coord: PeCoord,
        dims: FabricDims,
        memory: PeMemory<'a>,
        counters: &'a mut OpCounters,
        tracer: &'a mut PeTracer,
        phase: Phase<'a>,
        outbox: &'a mut Vec<Wavelet>,
        activations: &'a mut Vec<(Color, u32)>,
    ) -> Self {
        Self {
            coord,
            dims,
            allocated: memory.words().len(),
            memory,
            counters,
            tracer,
            phase,
            outbox,
            activations,
            refused: None,
        }
    }

    /// Installs a router configuration for `color`. Program-load time
    /// (`init`) may configure freely. A task handler may still add a color
    /// its router does not have, but routes loaded fabric-wide are frozen:
    /// re-configuring a configured color is refused — the route stands and
    /// the run fails with [`RouteError::Frozen`] at this PE — because
    /// wavelets already fast-forwarded past this router could not see it.
    pub fn configure_color(&mut self, color: Color, config: ColorConfig) {
        match &mut self.phase {
            Phase::Init { routes, .. } => routes.set(color, config),
            Phase::Loaded(router) if router.position_index(color).is_some() => {
                self.refused.get_or_insert(RouteError::Frozen(color));
            }
            Phase::Loaded(router) => router.configure(color, config),
        }
    }

    /// The active switch position of `color` on this PE's router.
    pub fn switch_position(&self, color: Color) -> Option<usize> {
        match &self.phase {
            Phase::Init { routes, .. } => routes.config(color).map(|c| c.current_index()),
            Phase::Loaded(router) => router.position_index(color),
        }
    }

    /// Allocates `len` words of PE memory. Only `init` may allocate: an
    /// allocation past the PE's capacity, or one from a task handler after
    /// load, is refused with a [`MemoryError`] the fabric reports for this
    /// PE (a load failure from `init`, a run error from a handler). The
    /// refused range lies past the allocation, so accesses to it are
    /// refused too.
    pub fn alloc(&mut self, len: usize) -> MemRange {
        let range = MemRange {
            offset: self.allocated,
            len,
        };
        let error = match self.phase {
            Phase::Init { capacity, .. } if len <= capacity - self.allocated => {
                self.allocated += len;
                return range;
            }
            Phase::Init { capacity, .. } => MemoryError::Exhausted {
                requested: len,
                available: capacity - self.allocated,
            },
            Phase::Loaded(_) => MemoryError::Frozen {
                addr: range.offset,
                len,
            },
        };
        self.memory.refuse(error);
        range
    }

    /// Sends one data wavelet into the fabric through this PE's router.
    pub fn send_f32(&mut self, color: Color, value: f32) {
        self.outbox.push(Wavelet::data_f32(color, value));
    }

    /// Sends a whole memory vector as consecutive wavelets (an FMOV-out
    /// per element, with fabric-traffic accounting).
    pub fn send_vector(&mut self, color: Color, src: Dsd) {
        let values = dsd::fmov_send(&self.memory, self.counters, self.tracer, src);
        self.outbox
            .extend(values.map(|v| Wavelet::data_f32(color, v)));
    }

    /// Sends a control wavelet (toggles switch positions along its route).
    pub fn send_control(&mut self, color: Color, payload: u32) {
        self.outbox.push(Wavelet::control(color, payload));
    }

    /// Activates a local task: the handler for `color` runs on this PE
    /// without touching the fabric (CSL's local task activation).
    pub fn activate(&mut self, color: Color, payload: u32) {
        self.activations.push((color, payload));
    }

    /// Stores a received wavelet payload (FMOV-in accounting).
    pub fn recv_store(&mut self, addr: usize, value: f32) {
        dsd::fmov_recv(&mut self.memory, self.counters, self.tracer, addr, value);
    }

    /// Opens a named profiling region, timestamped from the PE's current
    /// cycle counter. A no-op (single predicted branch) with tracing off;
    /// region markers are recorded inside the task handler, so they land in
    /// the per-PE stream identically on both engines.
    pub fn region_begin(&mut self, region: TraceRegion) {
        self.tracer.region_begin(self.counters.cycles(), region);
    }

    /// Closes the matching profiling region (see
    /// [`PeContext::region_begin`]).
    pub fn region_end(&mut self, region: TraceRegion) {
        self.tracer.region_end(self.counters.cycles(), region);
    }

    // --- vector-op sugar, delegating to the DSD engine ------------------

    /// `dst = a * b`.
    pub fn fmuls(&mut self, dst: Dsd, a: Operand, b: Operand) {
        dsd::fmuls(&mut self.memory, self.counters, self.tracer, dst, a, b);
    }

    /// `dst = a * H(gate > 0)` — predicated multiply (upwind selection).
    pub fn fmuls_gate(&mut self, dst: Dsd, a: Operand, gate: Operand) {
        dsd::fmuls_gate(&mut self.memory, self.counters, self.tracer, dst, a, gate);
    }

    /// `dst = a - b`.
    pub fn fsubs(&mut self, dst: Dsd, a: Operand, b: Operand) {
        dsd::fsubs(&mut self.memory, self.counters, self.tracer, dst, a, b);
    }

    /// `dst = a + b`.
    pub fn fadds(&mut self, dst: Dsd, a: Operand, b: Operand) {
        dsd::fadds(&mut self.memory, self.counters, self.tracer, dst, a, b);
    }

    /// `dst += a * b`.
    pub fn fmacs(&mut self, dst: Dsd, a: Operand, b: Operand) {
        dsd::fmacs(&mut self.memory, self.counters, self.tracer, dst, a, b);
    }

    /// `dst = -a`.
    pub fn fnegs(&mut self, dst: Dsd, a: Operand) {
        dsd::fnegs(&mut self.memory, self.counters, self.tracer, dst, a);
    }

    /// Vector EOS density evaluation (Eq. 5) — outside Table-4 accounting.
    pub fn eos_density(&mut self, dst: Dsd, p: Dsd, rho_ref: f32, c_f: f32, p_ref: f32) {
        dsd::eos_density(
            &mut self.memory,
            self.counters,
            self.tracer,
            dst,
            p,
            rho_ref,
            c_f,
            p_ref,
        );
    }
}

/// The per-PE half of an SPMD fabric program.
///
/// One instance exists per PE (constructed by the program factory passed to
/// [`crate::fabric::Fabric::new`]). Handlers must be deterministic; all
/// cross-PE communication goes through wavelets.
///
/// Everything a program changes after `init` lives in its PE's memory, as
/// on the hardware — the fabric checkpoints that memory and nothing of the
/// program object, which therefore holds only static configuration.
pub trait PeProgram: Send {
    /// Runs once at load time: allocate memory, configure router colors.
    /// The memory itself is laid out after every PE's `init` — zero-filled,
    /// for the host to upload into — so `init` cannot read or write it: an
    /// access is refused like one outside the allocation, and the load
    /// fails.
    fn init(&mut self, ctx: &mut PeContext);

    /// A data wavelet of some color reached this PE's ramp (either from the
    /// fabric or via local activation).
    fn on_data(&mut self, ctx: &mut PeContext, wavelet: Wavelet);

    /// A control wavelet reached this PE's ramp (after toggling the routers
    /// on its path, including this PE's).
    fn on_control(&mut self, ctx: &mut PeContext, wavelet: Wavelet) {
        let _ = (ctx, wavelet);
    }

    /// A monotone progress counter read from the PE's `memory` (its
    /// allocated words), if the
    /// program keeps one (e.g. the number of completed iterations). The
    /// host-side progress watchdog compares this across PEs after a run
    /// to localize silent stalls — a PE whose counter lags its peers lost
    /// wavelets to a fault.
    fn progress(&self, memory: &[u32]) -> Option<u64> {
        let _ = memory;
        None
    }

    /// Checks the program's state words in a restored `memory` (its
    /// allocated words). A
    /// fabric restore refuses the checkpoint with
    /// [`crate::snapshot::RestoreError::Program`] on an error, before a
    /// handler could act on an out-of-range word.
    fn check_state(&self, memory: &[u32]) -> Result<(), String> {
        let _ = memory;
        Ok(())
    }
}
