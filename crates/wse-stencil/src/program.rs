//! The workload-generic PE program: a compiled [`CommPattern`] plus a
//! [`StencilKernel`] makes a complete [`PeProgram`] that runs on both
//! fabric engines and flows through fault, trace, checkpoint and
//! metrics layers unchanged.
//!
//! The program owns the protocol skeleton — launch on the pattern's
//! start color, halo exchange, per-stream completion callbacks, a
//! once-per-step finish hook, the progress counter the fault watchdog
//! reads, and checkpoint serialization. The kernel owns the math: what
//! to allocate, what to send, and what to compute when streams land.
//!
//! Profiling regions split the same way: the program brackets its
//! exchange calls in [`TraceRegion::HaloExchange`]; each kernel marks its
//! own compute regions, so a kernel whose hook does nothing emits nothing.

use crate::exchange::{ColumnExchange, ExchangeEvent};
use crate::pattern::CommPattern;
use std::sync::Arc;
use wse_sim::dsd::Dsd;
use wse_sim::memory::MemRange;
use wse_sim::pe::{PeContext, PeProgram};
use wse_sim::trace::TraceRegion;
use wse_sim::wavelet::Wavelet;

/// Receive-buffer layout a kernel hands back from
/// [`StencilKernel::init`]: `recv[q][stream]`, each range `nz` words.
pub struct KernelLayout {
    /// Receive buffers per quantity per stream.
    pub recv: Vec<Vec<MemRange>>,
}

/// The compute half of a compiled stencil program.
///
/// Methods are called single-threaded per PE in a fixed order: `init`
/// once at load; then per step `on_start` (return the send views),
/// `on_stream_complete` for each arriving stream, and
/// `on_step_complete` exactly once when every expected stream has
/// arrived *and* every outgoing cardinal send has left (safe to
/// overwrite send buffers).
pub trait StencilKernel: Send {
    /// Allocates PE memory and returns the receive-buffer layout
    /// (`streams` buffers per quantity, `nz` words each).
    fn init(&mut self, ctx: &mut PeContext, streams: usize) -> KernelLayout;

    /// Starts one step: local (vertical) faces, then return the send
    /// views — one `nz`-element view per quantity.
    fn on_start(&mut self, ctx: &mut PeContext) -> Vec<Dsd>;

    /// Stream `stream` has fully arrived;
    /// [`ColumnExchange::recv_view`] addresses its buffers.
    fn on_stream_complete(&mut self, ctx: &mut PeContext, stream: usize, exchange: &ColumnExchange);

    /// Every expected stream arrived and every cardinal send left.
    fn on_step_complete(&mut self, ctx: &mut PeContext);

    /// Kernel-private dynamic state for checkpointing (PE memory is
    /// snapshotted separately by the fabric).
    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state captured by [`StencilKernel::save_state`].
    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(format!("{} unexpected kernel state bytes", state.len()))
        }
    }
}

/// The generic per-PE program: compiled pattern + kernel.
pub struct StencilPeProgram {
    nz: usize,
    pattern: Arc<CommPattern>,
    kernel: Box<dyn StencilKernel>,
    exchange: Option<ColumnExchange>,
    /// Completed steps — the progress counter read by the host-side
    /// fault watchdog.
    steps_done: u64,
    /// Whether the current step has been counted. Starts true (nothing
    /// in flight); cleared at the top of each step.
    step_counted: bool,
    /// Whether the finish hook has run for the current step.
    step_finished: bool,
}

impl StencilPeProgram {
    /// Creates the program for columns of `nz` cells.
    pub fn new(nz: usize, pattern: Arc<CommPattern>, kernel: Box<dyn StencilKernel>) -> Self {
        Self {
            nz,
            pattern,
            kernel,
            exchange: None,
            steps_done: 0,
            step_counted: true,
            step_finished: true,
        }
    }

    /// The compiled pattern this program runs.
    pub fn pattern(&self) -> &CommPattern {
        &self.pattern
    }

    fn exchange(&mut self) -> &mut ColumnExchange {
        self.exchange.as_mut().expect("init not run")
    }

    fn start_step(&mut self, ctx: &mut PeContext) {
        self.step_counted = false;
        self.step_finished = false;
        let views = self.kernel.on_start(ctx);
        ctx.region_begin(TraceRegion::HaloExchange);
        self.exchange().begin(ctx, &views);
        ctx.region_end(TraceRegion::HaloExchange);
    }

    /// Bumps the progress counter and fires the finish hook when the
    /// step is done. Called wherever completion can change — at launch
    /// (the degenerate 1×1 fabric is complete immediately), when a
    /// stream completes and on control (a late cardinal send) — so both
    /// advance the moment the step is done, without a check per stored
    /// wavelet.
    fn note_progress(&mut self, ctx: &mut PeContext) {
        let Some(ex) = self.exchange.as_ref() else {
            return;
        };
        if !self.step_counted && ex.is_complete() {
            self.steps_done += 1;
            self.step_counted = true;
        }
        if !self.step_finished && ex.is_complete() && ex.all_sent() {
            self.step_finished = true;
            self.kernel.on_step_complete(ctx);
        }
    }
}

impl PeProgram for StencilPeProgram {
    fn init(&mut self, ctx: &mut PeContext) {
        let layout = self.kernel.init(ctx, self.pattern.streams);
        let mut exchange = ColumnExchange::new(self.nz, self.pattern.clone(), layout.recv);
        exchange.configure(ctx);
        self.exchange = Some(exchange);
    }

    fn on_data(&mut self, ctx: &mut PeContext, w: Wavelet) {
        if w.color == self.pattern.start {
            self.start_step(ctx);
            self.note_progress(ctx);
            return;
        }
        ctx.region_begin(TraceRegion::HaloExchange);
        let event = self.exchange().on_data(ctx, w);
        ctx.region_end(TraceRegion::HaloExchange);
        match event {
            ExchangeEvent::Stored => {}
            ExchangeEvent::StreamComplete(stream) => {
                let ex = self.exchange.as_ref().expect("init not run");
                self.kernel.on_stream_complete(ctx, stream, ex);
                self.note_progress(ctx);
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
        ctx.region_begin(TraceRegion::HaloExchange);
        self.exchange().on_control(ctx, w);
        ctx.region_end(TraceRegion::HaloExchange);
        self.note_progress(ctx);
    }

    fn progress(&self) -> Option<u64> {
        Some(self.steps_done)
    }

    fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.steps_done.to_le_bytes());
        out.push(self.step_counted as u8);
        out.push(self.step_finished as u8);
        match &self.exchange {
            None => out.push(0),
            Some(ex) => {
                out.push(1);
                let (recv_count, sent, send_views) = ex.dynamic_state();
                out.extend_from_slice(&(recv_count.len() as u64).to_le_bytes());
                for c in recv_count {
                    out.extend_from_slice(&(c as u64).to_le_bytes());
                }
                out.extend_from_slice(&(sent.len() as u64).to_le_bytes());
                for s in sent {
                    out.push(s as u8);
                }
                out.extend_from_slice(&(send_views.len() as u64).to_le_bytes());
                for v in send_views {
                    out.extend_from_slice(&(v.base as u64).to_le_bytes());
                    out.extend_from_slice(&(v.len as u64).to_le_bytes());
                    out.extend_from_slice(&(v.stride as u64).to_le_bytes());
                }
            }
        }
        let kernel = self.kernel.save_state();
        out.extend_from_slice(&(kernel.len() as u64).to_le_bytes());
        out.extend_from_slice(&kernel);
        out
    }

    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        let mut cur = StateCursor::new(state);
        self.steps_done = cur.u64()?;
        self.step_counted = cur.u8()? != 0;
        self.step_finished = cur.u8()? != 0;
        let has_exchange = cur.u8()? != 0;
        if has_exchange {
            let n_streams = cur.u64()? as usize;
            if n_streams > 64 {
                return Err(format!("implausible stream count {n_streams}"));
            }
            let mut recv_count = vec![0usize; n_streams];
            for c in &mut recv_count {
                *c = cur.u64()? as usize;
            }
            let n_sent = cur.u64()? as usize;
            if n_sent > 64 {
                return Err(format!("implausible cardinal lane count {n_sent}"));
            }
            let mut sent = vec![false; n_sent];
            for s in &mut sent {
                *s = cur.u8()? != 0;
            }
            let n_views = cur.u64()? as usize;
            if n_views > 64 {
                return Err(format!("implausible send-view count {n_views}"));
            }
            let mut send_views = Vec::with_capacity(n_views);
            for _ in 0..n_views {
                let base = cur.u64()? as usize;
                let len = cur.u64()? as usize;
                let stride = cur.u64()? as usize;
                if stride == 0 {
                    return Err("send view with zero stride".to_string());
                }
                send_views.push(Dsd::strided(base, len, stride));
            }
            let ex = self
                .exchange
                .as_mut()
                .ok_or("saved state has exchange but program is uninitialized")?;
            ex.restore_dynamic_state(recv_count, sent, send_views)?;
        } else if self.exchange.is_some() {
            return Err("saved state predates init but program is initialized".to_string());
        }
        let n_kernel = cur.u64()? as usize;
        let kernel = cur.take(n_kernel)?.to_vec();
        self.kernel.load_state(&kernel)?;
        cur.finish()
    }
}

/// Little-endian byte-slice reader for [`PeProgram::load_state`]: every
/// read is bounds-checked and reported as a typed message, and
/// [`StateCursor::finish`] rejects trailing bytes.
struct StateCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> StateCursor<'a> {
    /// Starts reading at the first byte of `bytes`.
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// The next `n` bytes, or an error when fewer remain.
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(format!(
                "truncated program state: need {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            ));
        };
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// The next byte.
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u64`.
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Ends the read; an error when bytes are left over.
    fn finish(self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes in program state",
                self.bytes.len() - self.pos
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::spec::StencilSpec;

    struct NullKernel;

    impl StencilKernel for NullKernel {
        fn init(&mut self, ctx: &mut PeContext, streams: usize) -> KernelLayout {
            let nz = 4;
            let recv = (0..streams).map(|_| ctx.alloc(nz)).collect();
            let _send = ctx.alloc(nz);
            KernelLayout { recv: vec![recv] }
        }

        fn on_start(&mut self, _ctx: &mut PeContext) -> Vec<Dsd> {
            vec![Dsd::contiguous(0, 4)]
        }

        fn on_stream_complete(
            &mut self,
            _ctx: &mut PeContext,
            _stream: usize,
            _exchange: &ColumnExchange,
        ) {
        }

        fn on_step_complete(&mut self, _ctx: &mut PeContext) {}
    }

    #[test]
    fn fresh_program_reports_zero_progress() {
        let pattern = Arc::new(compile(&StencilSpec::laplace7(1.0, 1.0)).unwrap().pattern);
        let p = StencilPeProgram::new(4, pattern, Box::new(NullKernel));
        assert_eq!(p.progress(), Some(0));
    }

    #[test]
    fn state_round_trips_before_init() {
        let pattern = Arc::new(compile(&StencilSpec::laplace7(1.0, 1.0)).unwrap().pattern);
        let p = StencilPeProgram::new(4, pattern.clone(), Box::new(NullKernel));
        let bytes = p.save_state();
        let mut q = StencilPeProgram::new(4, pattern, Box::new(NullKernel));
        q.load_state(&bytes).unwrap();
        assert_eq!(q.progress(), Some(0));
    }

    #[test]
    fn truncated_state_is_rejected() {
        let pattern = Arc::new(compile(&StencilSpec::laplace7(1.0, 1.0)).unwrap().pattern);
        let p = StencilPeProgram::new(4, pattern.clone(), Box::new(NullKernel));
        let bytes = p.save_state();
        let mut q = StencilPeProgram::new(4, pattern, Box::new(NullKernel));
        assert!(q.load_state(&bytes[..bytes.len() - 1]).is_err());
    }
}
