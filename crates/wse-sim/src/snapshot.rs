//! Plain-data snapshots of complete fabric state.
//!
//! A [`FabricSnapshot`] captures everything the simulator needs to resume a
//! run bit-identically: the pending event list in the engine's own pop
//! order `(time, pe, seq, src)`, every PE's memory arena (which holds its
//! program state), counters, router switch positions, fault-plan progress
//! and trace sequence counters, plus the host-side clock and sequence
//! state. The parallel engine needs no extra fields: a run ends (or
//! pauses) between simulated cycles with every cross-strip mailbox taken
//! in, so each pending event is in its owner strip's wheel, and as strips
//! own contiguous, ascending PE ranges the pop-ordered list is
//! engine-independent.
//!
//! These types are deliberately plain data with public fields — the binary
//! encoding (versioned header, payload checksum) lives in `wse-serve`,
//! which consumes them; tests and embedders can also inspect or build them
//! directly. Trace ring *contents* are not captured: traces are
//! observability, not simulation state. Their sequence counters are,
//! so post-restore trace events continue each PE's causal chain.

use crate::fault::FaultEvent;
use crate::geometry::Direction;
use crate::stats::OpCounters;
use crate::wavelet::Wavelet;

/// One pending event, as the engine pops it.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Fabric time the event fires.
    pub time: u64,
    /// Tie-breaking sequence number (private to the creating PE).
    pub seq: u64,
    /// Linear index of the creating PE, or `u32::MAX` for host events.
    pub src: u32,
    /// Linear index of the PE the event targets.
    pub pe: u32,
    /// `Some(input link)` for a router hop, `None` for a ramp delivery.
    pub route_input: Option<Direction>,
    /// The wavelet in flight, checksum word included verbatim (a stale
    /// checksum on a corrupted-in-flight wavelet must survive the
    /// round-trip or fault detection would change).
    pub wavelet: Wavelet,
}

const _: () = assert!(std::mem::size_of::<EventRecord>() <= 40);

/// A PE's fault-injection state: both the schedule slice assigned to this
/// PE and the progress already made through it (logged events, consumed
/// one-shot faults, taint). The fabric keeps one per PE that has any — the
/// same type, so a snapshot is a clone and a fault-free PE snapshots as
/// the default record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultRecord {
    /// Whether any fault targets this PE: the fast-path gate.
    pub active: bool,
    /// Whether wavelets are sealed/verified at this PE's ramp — set on
    /// every PE whenever a plan is installed, since corruption may be
    /// injected at a different PE than the receiver.
    pub verify_checksums: bool,
    /// Downed outgoing links as `(link, from, until)`: drops in
    /// `[from, until)`.
    pub link_down: Vec<(Direction, u64, u64)>,
    /// The PE swallows every delivery at time ≥ this, if scheduled.
    pub halt_at: Option<u64>,
    /// Slow-down windows as `(from, until, factor)`, sorted; the first
    /// match wins.
    pub slow: Vec<(u64, u64, u32)>,
    /// Which slow windows have already logged their onset.
    pub slow_logged: Vec<bool>,
    /// Pending payload corruptions as `(time, xor mask)`, sorted; each
    /// fires on the first wavelet routed here at or after its time, then
    /// is consumed.
    pub corrupt: Vec<(u64, u32)>,
    /// Pending router flips as `(time, color)`, sorted; each fires at the
    /// first route event at or after its time, then is consumed.
    pub flips: Vec<(u64, crate::wavelet::Color)>,
    /// Every injection/detection at this PE so far, in processing order
    /// (times are non-decreasing: each PE processes events in key order).
    pub log: Vec<FaultEvent>,
    /// Whether a non-benign fault touched this PE's data (drives `Degrade`
    /// validity maps).
    pub tainted: bool,
}

/// Trace sequence counters for one tracer (all zeros when tracing is off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSeqRecord {
    /// Next per-PE trace sequence number.
    pub next_seq: u32,
    /// Events dropped by the bounded ring so far.
    pub dropped: u64,
    /// Fabric-time base of the current task.
    pub base_time: u64,
    /// Cycle-counter base of the current task.
    pub base_cycles: u64,
}

impl TraceSeqRecord {
    /// Packs the `(next_seq, dropped, base_time, base_cycles)` tuple
    /// returned by the tracer accessors.
    pub fn from_tuple(t: (u32, u64, u64, u64)) -> Self {
        Self {
            next_seq: t.0,
            dropped: t.1,
            base_time: t.2,
            base_cycles: t.3,
        }
    }
}

/// Complete dynamic state of one PE slot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PeRecord {
    /// The PE's allocated words, trailing zeros trimmed (see
    /// [`crate::memory::trimmed`]); the program's state words are among
    /// them.
    pub memory_words: Vec<u32>,
    /// Words the PE allocated: its memory's size in the loaded layout.
    pub memory_allocated: usize,
    /// Instruction/traffic counters.
    pub counters: OpCounters,
    /// Router switch positions as `(color id, active position)` pairs.
    pub router_positions: Vec<(u8, u8)>,
    /// Wavelets forwarded per fabric link by this router.
    pub fabric_hops: u64,
    /// Wavelets delivered up this router's ramp.
    pub ramp_deliveries: u64,
    /// The PE is busy (computing) until this fabric time.
    pub busy_until: u64,
    /// Wavelets parked behind a busy PE as `(input link, wavelet)`.
    pub parked: Vec<(Direction, Wavelet)>,
    /// This PE's private event sequence counter.
    pub seq: u64,
    /// Wavelets dropped at fabric edges so far.
    pub edge_drops: u64,
    /// Deliveries that waited behind a busy PE.
    pub flow_stalls: u64,
    /// Total cycles deliveries spent waiting.
    pub queue_wait_cycles: u64,
    /// Wavelets dropped by injected faults.
    pub fault_drops: u64,
    /// Wavelets rejected by checksum verification.
    pub checksum_drops: u64,
    /// Fault schedule + progress.
    pub faults: FaultRecord,
    /// Trace sequence counters.
    pub trace_seq: TraceSeqRecord,
}

/// Complete fabric state between `run()` calls, as plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricSnapshot {
    /// Fabric width in PEs.
    pub cols: usize,
    /// Fabric height in PEs.
    pub rows: usize,
    /// Fabric clock.
    pub time: u64,
    /// Host event sequence counter.
    pub host_seq: u64,
    /// Host/meta tracer sequence counters.
    pub host_trace_seq: TraceSeqRecord,
    /// Pending events in pop order `(time, pe, seq, src)`.
    pub events: Vec<EventRecord>,
    /// Per-PE state, in linear (row-major) order.
    pub pes: Vec<PeRecord>,
}

/// Why a snapshot was refused by [`crate::fabric::Fabric::restore`].
///
/// On any error the target fabric may be left partially overwritten and
/// must be discarded — restore validates shape up front but applies
/// per-PE state incrementally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The target fabric has not been loaded (`Fabric::load`) — restore
    /// needs the static program structure (allocations, router configs)
    /// already in place.
    NotLoaded,
    /// The snapshot's fabric geometry or PE count does not match.
    DimsMismatch {
        /// Geometry recorded in the snapshot.
        snapshot: (usize, usize),
        /// Geometry of the restore target.
        fabric: (usize, usize),
    },
    /// A PE's memory does not match the snapshot: its allocation differs
    /// from the loaded layout, or its image is longer.
    Memory {
        /// Linear PE index.
        pe: usize,
        /// What mismatched.
        detail: String,
    },
    /// A PE's router refused the recorded switch positions.
    Router {
        /// Linear PE index.
        pe: usize,
        /// What mismatched.
        detail: String,
    },
    /// A PE's program refused the state words of its restored memory
    /// ([`crate::pe::PeProgram::check_state`]).
    Program {
        /// Linear PE index.
        pe: usize,
        /// The program's error.
        detail: String,
    },
    /// A pending event references a PE outside the fabric.
    Event {
        /// Index into [`FabricSnapshot::events`].
        index: usize,
        /// What was out of range.
        detail: String,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::NotLoaded => {
                write!(f, "restore target must be loaded (Fabric::load) first")
            }
            RestoreError::DimsMismatch { snapshot, fabric } => write!(
                f,
                "snapshot is for a {}x{} fabric, target is {}x{}",
                snapshot.0, snapshot.1, fabric.0, fabric.1
            ),
            RestoreError::Memory { pe, detail } => write!(f, "PE {pe} memory: {detail}"),
            RestoreError::Router { pe, detail } => write!(f, "PE {pe} router: {detail}"),
            RestoreError::Program { pe, detail } => write!(f, "PE {pe} program: {detail}"),
            RestoreError::Event { index, detail } => write!(f, "event {index}: {detail}"),
        }
    }
}

impl std::error::Error for RestoreError {}
