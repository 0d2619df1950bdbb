//! The workload-generic PE program: a compiled [`CommPattern`] plus a
//! [`StencilKernel`] makes a complete [`PeProgram`] that runs on both
//! fabric engines and flows through fault, trace, checkpoint and
//! metrics layers unchanged.
//!
//! The program owns the protocol skeleton — launch on the pattern's
//! start color, halo exchange, per-stream completion callbacks, a
//! once-per-step finish hook and the progress counter the fault watchdog
//! reads. The kernel owns the math: its memory layout, what to send, and
//! what to compute when streams land.
//!
//! Like a CSL program, the PE keeps its program state in its own memory:
//! [`state_words`] words right after the kernel's, holding the step
//! counter, the step's pending hooks and the exchange's protocol state.
//! A fabric checkpoint therefore captures them with the arena. Everything
//! else is static and shared: one [`StencilProgram`] per fabric, and per
//! PE only the [`PeLanes`] its position on the fabric implies.
//!
//! Profiling regions split the same way: the program brackets its
//! exchange calls in [`TraceRegion::HaloExchange`]; each kernel marks its
//! own compute regions, so a kernel whose hook does nothing emits nothing.

use crate::exchange::{ColumnExchange, ExchangeEvent, PeLanes};
use crate::pattern::CommPattern;
use std::sync::Arc;
use wse_sim::dsd::Dsd;
use wse_sim::memory::MemRange;
use wse_sim::pe::{PeContext, PeProgram};
use wse_sim::trace::TraceRegion;
use wse_sim::wavelet::Wavelet;

/// Offset of the completed-step counter in the state words — the
/// progress counter read by the host-side fault watchdog.
const STEPS: usize = 0;
/// Offset of the pending-hook word: [`COUNT_PENDING`] | [`FINISH_PENDING`].
const PENDING: usize = 1;
/// The current step has not been counted yet.
const COUNT_PENDING: u32 = 1;
/// The finish hook has not run for the current step yet.
const FINISH_PENDING: u32 = 2;
/// Offset of the exchange's protocol state words.
const EXCHANGE: usize = 2;

/// Words of program state a PE keeps after its kernel's, for a pattern
/// of `streams` receive streams. Workloads count them in their memory
/// footprint.
pub const fn state_words(streams: usize) -> usize {
    EXCHANGE + ColumnExchange::state_words(streams)
}

/// A kernel's memory layout, the same on every PE.
pub struct KernelLayout {
    /// Words the kernel owns, from word 0.
    pub words: usize,
    /// Receive buffers per quantity per stream: `recv[q][stream]`, each
    /// range `nz` words.
    pub recv: Vec<Vec<MemRange>>,
    /// Send views, one `nz`-element view per quantity, sent in order on
    /// every stream every step.
    pub send: Vec<Dsd>,
}

/// The compute half of a compiled stencil program. Kernels are
/// stateless: one instance serves every PE of a fabric, and everything
/// that changes lives in PE memory.
///
/// Per step the program calls `on_start`, then `on_stream_complete` for
/// each arriving stream, then `on_step_complete` exactly once when every
/// expected stream has arrived *and* every outgoing cardinal send has
/// left (safe to overwrite send buffers).
pub trait StencilKernel: Send + Sync {
    /// The kernel's layout for a pattern of `streams` receive streams
    /// (`streams` buffers per quantity, `nz` words each).
    fn layout(&self, streams: usize) -> KernelLayout;

    /// Starts one step: local (vertical) faces, before the exchange
    /// sends the layout's send views.
    fn on_start(&self, ctx: &mut PeContext);

    /// Stream `stream` has fully arrived;
    /// [`ColumnExchange::recv_view`] addresses its buffers.
    fn on_stream_complete(&self, ctx: &mut PeContext, stream: usize, exchange: &ColumnExchange);

    /// Every expected stream arrived and every cardinal send left.
    fn on_step_complete(&self, ctx: &mut PeContext);
}

/// The fabric-wide half of a stencil program: kernel, exchange schedule
/// and memory layout, built once and shared by every PE.
pub struct StencilProgram {
    kernel: Box<dyn StencilKernel>,
    exchange: ColumnExchange,
    /// Words the kernel owns; the state words start here.
    state: usize,
}

impl StencilProgram {
    /// Pairs `kernel` with `pattern` for columns of `nz` cells.
    pub fn new(nz: usize, pattern: Arc<CommPattern>, kernel: impl StencilKernel + 'static) -> Self {
        let layout = kernel.layout(pattern.streams);
        let state = layout.words;
        let exchange = ColumnExchange::new(nz, pattern, layout.recv, layout.send, state + EXCHANGE);
        Self {
            kernel: Box::new(kernel),
            exchange,
            state,
        }
    }

    /// The compiled pattern this program runs.
    pub fn pattern(&self) -> &CommPattern {
        self.exchange.pattern()
    }

    fn start_step(&self, ctx: &mut PeContext) {
        ctx.memory
            .write_u32(self.state + PENDING, COUNT_PENDING | FINISH_PENDING);
        self.kernel.on_start(ctx);
        ctx.region_begin(TraceRegion::HaloExchange);
        self.exchange.begin(ctx);
        ctx.region_end(TraceRegion::HaloExchange);
    }

    /// Bumps the progress counter and fires the finish hook when the
    /// step is done. Called wherever completion can change — at launch
    /// (the degenerate 1×1 fabric is complete immediately), when a
    /// stream completes and on control (a late cardinal send) — so both
    /// advance the moment the step is done, without a check per stored
    /// wavelet.
    fn note_progress(&self, lanes: &PeLanes, ctx: &mut PeContext) {
        let pending = ctx.memory.read_u32(self.state + PENDING);
        if pending == 0 || !self.exchange.is_complete(lanes, ctx.memory.words()) {
            return;
        }
        let mut left = pending;
        if pending & COUNT_PENDING != 0 {
            let steps = ctx.memory.read_u32(self.state + STEPS);
            ctx.memory.write_u32(self.state + STEPS, steps + 1);
            left &= !COUNT_PENDING;
        }
        let finish = pending & FINISH_PENDING != 0 && self.exchange.all_sent(ctx.memory.words());
        if finish {
            left &= !FINISH_PENDING;
        }
        ctx.memory.write_u32(self.state + PENDING, left);
        if finish {
            self.kernel.on_step_complete(ctx);
        }
    }
}

/// One PE's program: the shared [`StencilProgram`] plus the PE's view of
/// the exchange lanes.
pub struct StencilPeProgram {
    program: Arc<StencilProgram>,
    lanes: PeLanes,
}

impl StencilPeProgram {
    /// Creates a PE's program over the fabric's shared one.
    pub fn new(program: Arc<StencilProgram>) -> Self {
        Self {
            program,
            lanes: PeLanes::default(),
        }
    }
}

impl PeProgram for StencilPeProgram {
    fn init(&mut self, ctx: &mut PeContext) {
        let p = &*self.program;
        let kernel = ctx.alloc(p.state);
        assert_eq!(kernel.offset, 0, "the kernel owns the PE from word 0");
        ctx.alloc(state_words(p.pattern().streams));
        self.lanes = p.exchange.configure(ctx);
    }

    fn on_data(&mut self, ctx: &mut PeContext, w: Wavelet) {
        let p = &*self.program;
        if w.color == p.pattern().start {
            p.start_step(ctx);
            p.note_progress(&self.lanes, ctx);
            return;
        }
        ctx.region_begin(TraceRegion::HaloExchange);
        let event = p.exchange.on_data(&self.lanes, ctx, w);
        ctx.region_end(TraceRegion::HaloExchange);
        match event {
            ExchangeEvent::Stored => {}
            ExchangeEvent::StreamComplete(stream) => {
                p.kernel.on_stream_complete(ctx, stream, &p.exchange);
                p.note_progress(&self.lanes, ctx);
            }
            ExchangeEvent::NotMine => panic!(
                "PE ({}, {}): wavelet on unexpected color {}",
                ctx.coord.col,
                ctx.coord.row,
                w.color.id()
            ),
        }
    }

    fn on_control(&mut self, ctx: &mut PeContext, w: Wavelet) {
        let p = &*self.program;
        ctx.region_begin(TraceRegion::HaloExchange);
        p.exchange.on_control(ctx, w);
        ctx.region_end(TraceRegion::HaloExchange);
        p.note_progress(&self.lanes, ctx);
    }

    fn progress(&self, memory: &[u32]) -> Option<u64> {
        Some(u64::from(memory[self.program.state + STEPS]))
    }

    fn check_state(&self, memory: &[u32]) -> Result<(), String> {
        let pending = memory[self.program.state + PENDING];
        if pending & !(COUNT_PENDING | FINISH_PENDING) != 0 {
            return Err(format!("unknown pending flags {pending:#x}"));
        }
        self.program.exchange.check_state(memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::spec::StencilSpec;
    use wse_sim::memory::WSE2_PE_MEMORY_BYTES;

    struct NullKernel;

    impl StencilKernel for NullKernel {
        fn layout(&self, streams: usize) -> KernelLayout {
            let nz = 4;
            let recv = (0..streams)
                .map(|s| MemRange {
                    offset: s * nz,
                    len: nz,
                })
                .collect();
            KernelLayout {
                words: (streams + 1) * nz,
                recv: vec![recv],
                send: vec![Dsd::contiguous(streams * nz, nz)],
            }
        }

        fn on_start(&self, _ctx: &mut PeContext) {}

        fn on_stream_complete(&self, _: &mut PeContext, _: usize, _: &ColumnExchange) {}

        fn on_step_complete(&self, _ctx: &mut PeContext) {}
    }

    #[test]
    fn fresh_program_reports_zero_progress() {
        let pattern = Arc::new(compile(&StencilSpec::laplace7(1.0, 1.0)).unwrap().pattern);
        let p = StencilPeProgram::new(Arc::new(StencilProgram::new(4, pattern, NullKernel)));
        let memory = vec![0; WSE2_PE_MEMORY_BYTES / 4];
        assert_eq!(p.progress(&memory), Some(0));
        assert_eq!(p.check_state(&memory), Ok(()));
    }
}
