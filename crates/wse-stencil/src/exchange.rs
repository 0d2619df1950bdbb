//! The compiled exchange schedule: one halo exchange per step over a
//! [`CommPattern`], with its protocol state in PE memory.
//!
//! An exchange moves `quantities` same-length columns from every PE to
//! each in-plane neighbor the pattern routes. [`ColumnExchange`] is the
//! fabric-wide half — pattern, receive buffers, send views and where the
//! protocol state lives — shared by every PE; [`PeLanes`] is one PE's
//! static view of it (which streams have a sender, which color delivers
//! which stream). The protocol state itself, a receive cursor per stream
//! and a sent flag per cardinal lane, is a few words of the PE's own
//! memory, so a fabric checkpoint captures it with the rest of the arena.
//! Those words are host bookkeeping: they are read and written directly,
//! billing no counters, no cycles and no trace record.
//!
//! Injection order is part of the compiled schedule and is canonical:
//! diagonal sources first (static routes, everyone sources
//! immediately), then the cardinal first-senders; late cardinal lanes
//! fire on the Fig. 6 control hand-over.

use crate::pattern::CommPattern;
use std::sync::Arc;
use wse_sim::dsd::Dsd;
use wse_sim::memory::MemRange;
use wse_sim::pe::PeContext;
use wse_sim::wavelet::{Color, Wavelet, MAX_COLORS};

/// Offset of the sent-flag word in the exchange's state words: bit `i`
/// is set once cardinal lane `i` has sent this step.
const SENT: usize = 0;
/// Offset of the first receive cursor: one word per stream, counting the
/// wavelets stored on it this step.
const CURSORS: usize = 1;

/// What happened when a data wavelet was absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeEvent {
    /// Stored; the stream is still incomplete.
    Stored,
    /// This wavelet completed the given receive stream.
    StreamComplete(usize),
    /// The wavelet's color does not belong to this exchange.
    NotMine,
}

/// The exchange engine for one compiled pattern, shared by every PE.
pub struct ColumnExchange {
    nz: usize,
    pattern: Arc<CommPattern>,
    /// `recv[q][stream]`: receive buffer for quantity `q` from stream
    /// `stream`.
    recv: Vec<Vec<MemRange>>,
    /// Send views, one per quantity, the same every step.
    send: Vec<Dsd>,
    /// Address of the first protocol state word.
    state: usize,
}

/// One PE's static view of the exchange, set by
/// [`ColumnExchange::configure`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PeLanes {
    /// Bit `stream` is set when the stream has a sender on the fabric.
    expected: u32,
    /// The stream each color delivers here.
    color_stream: [Option<u8>; MAX_COLORS],
}

impl PeLanes {
    /// Whether a stream is expected (its sender exists on the fabric).
    pub fn expects(&self, stream: usize) -> bool {
        self.expected & (1 << stream) != 0
    }
}

impl ColumnExchange {
    /// Words of protocol state an exchange over `streams` streams keeps
    /// in PE memory.
    pub const fn state_words(streams: usize) -> usize {
        CURSORS + streams
    }

    /// Creates the engine for columns of `nz` cells over `pattern`, with
    /// the given receive buffers (`recv[q][stream]`, each of `nz` words),
    /// send views (one `nz`-element view per quantity) and protocol state
    /// at `state` ([`ColumnExchange::state_words`] words).
    pub fn new(
        nz: usize,
        pattern: Arc<CommPattern>,
        recv: Vec<Vec<MemRange>>,
        send: Vec<Dsd>,
        state: usize,
    ) -> Self {
        assert!(pattern.quantities >= 1);
        assert!(pattern.streams <= 32, "one expected bit per stream");
        assert!(pattern.cardinals.len() < 32, "one sent bit per lane");
        assert_eq!(recv.len(), pattern.quantities);
        for per_q in &recv {
            assert_eq!(per_q.len(), pattern.streams, "one buffer per stream");
            for r in per_q {
                assert!(r.len >= nz, "receive buffer too small");
            }
        }
        assert_eq!(send.len(), pattern.quantities, "one send view per quantity");
        for v in &send {
            assert_eq!(v.len, nz);
        }
        Self {
            nz,
            pattern,
            recv,
            send,
            state,
        }
    }

    /// The pattern this engine runs.
    pub fn pattern(&self) -> &CommPattern {
        &self.pattern
    }

    /// Wavelets per stream per step.
    fn stream_len(&self) -> usize {
        self.pattern.quantities * self.nz
    }

    /// The sent-flag word with every cardinal lane sent.
    fn all_lanes(&self) -> u32 {
        (1 << self.pattern.cardinals.len()) - 1
    }

    fn cursor(&self, memory: &[u32], stream: usize) -> usize {
        memory[self.state + CURSORS + stream] as usize
    }

    /// Installs the router configuration on this PE (call from `init`)
    /// and returns the PE's view of the lanes.
    pub fn configure(&self, ctx: &mut PeContext) -> PeLanes {
        let mut lanes = PeLanes::default();
        let mut expect = |stream: usize, color: Color, has_sender: bool| {
            lanes.expected |= (has_sender as u32) << stream;
            lanes.color_stream[color.index()] = Some(stream as u8);
        };
        for lane in &self.pattern.cardinals {
            ctx.configure_color(lane.color, lane.router_config(ctx.dims, ctx.coord));
            expect(
                lane.stream,
                lane.color,
                lane.has_sender(ctx.dims, ctx.coord),
            );
        }
        for lane in &self.pattern.diagonals {
            for (color, cfg) in lane.router_configs(ctx.coord) {
                ctx.configure_color(color, cfg);
            }
            let color = lane.receive_color(ctx.coord);
            expect(lane.stream, color, lane.has_sender(ctx.dims, ctx.coord));
        }
        lanes
    }

    /// Starts an iteration: resets cursors and sent flags and injects the
    /// outgoing streams in the compiled schedule order.
    pub fn begin(&self, ctx: &mut PeContext) {
        for word in 0..Self::state_words(self.pattern.streams) {
            ctx.memory.write_u32(self.state + word, 0);
        }
        // Diagonal streams: static routes, everyone sources immediately.
        for lane in &self.pattern.diagonals {
            self.send_streams(ctx, lane.source_color(ctx.coord));
        }
        // Cardinal streams: first-senders now, the rest on hand-over.
        for (idx, lane) in self.pattern.cardinals.iter().enumerate() {
            if lane.is_first_sender(ctx.dims, ctx.coord) {
                self.send_cardinal(ctx, idx);
            }
        }
    }

    fn send_streams(&self, ctx: &mut PeContext, color: Color) {
        for v in &self.send {
            ctx.send_vector(color, *v);
        }
    }

    fn send_cardinal(&self, ctx: &mut PeContext, idx: usize) {
        let sent = ctx.memory.read_u32(self.state + SENT);
        if sent & (1 << idx) != 0 {
            return;
        }
        ctx.memory.write_u32(self.state + SENT, sent | (1 << idx));
        let color = self.pattern.cardinals[idx].color;
        self.send_streams(ctx, color);
        ctx.send_control(color, 0);
    }

    /// Handles a data wavelet. Stores it (with FMOV accounting) and
    /// reports whether a stream completed.
    pub fn on_data(&self, lanes: &PeLanes, ctx: &mut PeContext, w: Wavelet) -> ExchangeEvent {
        let Some(stream) = lanes.color_stream[w.color.index()] else {
            return ExchangeEvent::NotMine;
        };
        let stream = stream as usize;
        let cursor = self.cursor(ctx.memory.words(), stream);
        let total = self.stream_len();
        debug_assert!(
            cursor < total,
            "stream overflow on stream {stream} at PE ({}, {})",
            ctx.coord.col,
            ctx.coord.row
        );
        let addr = self.recv[cursor / self.nz][stream].at(cursor % self.nz);
        ctx.recv_store(addr, w.as_f32());
        ctx.memory
            .write_u32(self.state + CURSORS + stream, (cursor + 1) as u32);
        if cursor + 1 == total {
            ExchangeEvent::StreamComplete(stream)
        } else {
            ExchangeEvent::Stored
        }
    }

    /// Handles a control wavelet: our router already flipped to Sending;
    /// if this lane has not been sent yet, do it now (Fig. 6 hand-over).
    pub fn on_control(&self, ctx: &mut PeContext, w: Wavelet) {
        let lanes = &self.pattern.cardinals;
        if let Some(idx) = lanes.iter().position(|lane| lane.color == w.color) {
            self.send_cardinal(ctx, idx);
        }
    }

    /// True once this PE has sent on every cardinal lane (its own
    /// columns have been safely copied to the fabric). Programs that
    /// *overwrite* their send buffers at the end of an iteration (e.g.
    /// the wave time update) must wait for this in addition to
    /// [`ColumnExchange::is_complete`], or late hand-over sends would
    /// ship updated values — a write-after-read hazard.
    pub fn all_sent(&self, memory: &[u32]) -> bool {
        memory[self.state + SENT] == self.all_lanes()
    }

    /// True once every stream `lanes` expects has fully arrived.
    pub fn is_complete(&self, lanes: &PeLanes, memory: &[u32]) -> bool {
        (0..self.pattern.streams)
            .all(|s| !lanes.expects(s) || self.cursor(memory, s) == self.stream_len())
    }

    /// Checks restored protocol state words: no cursor past the stream
    /// length and no sent flag for a lane the pattern lacks.
    pub fn check_state(&self, memory: &[u32]) -> Result<(), String> {
        let sent = memory[self.state + SENT];
        if sent & !self.all_lanes() != 0 {
            return Err(format!("unknown sent flags {sent:#x}"));
        }
        let total = self.stream_len();
        for stream in 0..self.pattern.streams {
            let cursor = self.cursor(memory, stream);
            if cursor > total {
                return Err(format!(
                    "receive cursor {cursor} on stream {stream} exceeds stream length {total}"
                ));
            }
        }
        Ok(())
    }

    /// Receive buffer of quantity `q` from `stream`, as a DSD view.
    pub fn recv_view(&self, q: usize, stream: usize) -> Dsd {
        let r = self.recv[q][stream];
        Dsd::contiguous(r.offset, self.nz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::spec::StencilSpec;

    fn ranges(n: usize, count: usize, start: usize) -> Vec<MemRange> {
        (0..count)
            .map(|i| MemRange {
                offset: start + i * n,
                len: n,
            })
            .collect()
    }

    /// State words at 300.
    fn tpfa_exchange(nz: usize) -> ColumnExchange {
        let p = Arc::new(compile(&StencilSpec::tpfa()).unwrap().pattern);
        let send = vec![Dsd::contiguous(200, 4), Dsd::contiguous(204, 4)];
        ColumnExchange::new(nz, p, vec![ranges(4, 8, 0), ranges(4, 8, 100)], send, 300)
    }

    #[test]
    fn completion_tracking() {
        let ex = tpfa_exchange(4);
        let mut mem = vec![0; 300 + ColumnExchange::state_words(ex.pattern().streams)];
        let mut lanes = PeLanes::default();
        assert!(ex.is_complete(&lanes, &mem), "nothing expected yet");
        lanes.expected |= 1 << 3;
        assert!(!ex.is_complete(&lanes, &mem));
        mem[300 + CURSORS + 3] = 8;
        assert!(ex.is_complete(&lanes, &mem));
        assert!(lanes.expects(3));
        assert!(!lanes.expects(2));
    }

    #[test]
    fn recv_view_addresses_the_right_buffer() {
        let ex = tpfa_exchange(4);
        let v = ex.recv_view(1, 2);
        assert_eq!(v.base, 108);
        assert_eq!(v.len, 4);
    }

    #[test]
    #[should_panic]
    fn undersized_receive_buffer_rejected() {
        let _ = tpfa_exchange(8);
    }
}
