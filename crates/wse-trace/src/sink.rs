//! Where events go at record time.
//!
//! The simulator's hot path holds a [`PeTracer`] per PE — an enum whose
//! `Null` arm is tracing off (every record is a no-op the optimizer deletes)
//! and whose `Ring` arm is a bounded drop-oldest [`EventRing`]. Enum
//! dispatch keeps the off path free of virtual calls and lets the whole
//! record body inline away.

use crate::event::{TraceEvent, TraceEventKind, TraceOp, TraceRegion};

/// Default per-PE ring capacity (events). At ≤ 32 bytes per event this is
/// ≤ 128 KiB per PE.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Tracing request carried through `FabricConfig` / `DataflowOptions`.
///
/// The default is off; an off spec costs one predictable branch per
/// instrumentation site and zero memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpec {
    /// Record events into per-PE ring buffers?
    pub enabled: bool,
    /// Ring capacity per PE in events (drop-oldest once full). Clamped to a
    /// minimum of 1.
    pub per_pe_capacity: usize,
}

impl TraceSpec {
    /// Tracing disabled (the default).
    pub const OFF: Self = Self {
        enabled: false,
        per_pe_capacity: DEFAULT_RING_CAPACITY,
    };

    /// Tracing enabled with the given per-PE ring capacity.
    pub fn ring(per_pe_capacity: usize) -> Self {
        Self {
            enabled: true,
            per_pe_capacity,
        }
    }
}

impl Default for TraceSpec {
    fn default() -> Self {
        Self::OFF
    }
}

/// Bounded drop-oldest ring buffer of [`TraceEvent`]s for one PE.
///
/// The ring also owns the PE's trace `seq` counter and the task time base
/// used to timestamp DSD ops (see [`EventRing::task_begin`]). `seq`
/// increments on every record attempt — even when the ring is full and the
/// oldest event is evicted — so a capped ring's contents are always exactly
/// the tail of what an uncapped ring would hold.
#[derive(Debug, Clone)]
pub struct EventRing {
    pe: u32,
    capacity: usize,
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the ring is full (next eviction slot).
    head: usize,
    next_seq: u32,
    dropped: u64,
    /// Fabric time at which the current task started.
    base_time: u64,
    /// The PE's cycle counter at task start; DSD op time is
    /// `base_time + (cycles_now − base_cycles)`.
    base_cycles: u64,
}

impl EventRing {
    /// New empty ring for linear PE index `pe` holding up to `capacity`
    /// events (clamped to ≥ 1).
    pub fn new(pe: u32, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            pe,
            capacity,
            // Lazily grown up to `capacity` so huge caps only cost what is
            // actually recorded.
            buf: Vec::new(),
            head: 0,
            next_seq: 0,
            dropped: 0,
            base_time: 0,
            base_cycles: 0,
        }
    }

    /// Linear PE index this ring records for.
    #[inline]
    pub fn pe(&self) -> u32 {
        self.pe
    }

    /// Configured capacity in events.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (≤ capacity).
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted so far because the ring was full.
    #[inline]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Set the time base for the task now starting: `start` is the fabric
    /// time the task begins, `cycles` the PE cycle counter at that instant.
    #[inline]
    pub fn task_begin(&mut self, start: u64, cycles: u64) {
        self.base_time = start;
        self.base_cycles = cycles;
    }

    /// Fabric-time estimate for "now" inside the current task, given the
    /// PE's current cycle counter.
    #[inline]
    pub fn now(&self, cycles: u64) -> u64 {
        self.base_time + cycles.saturating_sub(self.base_cycles)
    }

    /// Record an event at `time`, assigning this ring's PE index and next
    /// sequence number.
    #[inline]
    pub fn record_at(&mut self, time: u64, kind: TraceEventKind, a: u8, b: u16, payload: u32) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.push(TraceEvent {
            time,
            seq,
            pe: self.pe,
            payload,
            kind,
            a,
            b,
        });
    }

    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Retained events oldest-first (causal `seq` order for this PE).
    pub fn ordered(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Sequence/base counters as `(next_seq, dropped, base_time,
    /// base_cycles)` — the part of a ring a fabric checkpoint preserves so
    /// post-restore events continue the per-PE causal `seq` chain. Ring
    /// *contents* are observability, not simulation state, and are not
    /// captured.
    pub fn seq_state(&self) -> (u32, u64, u64, u64) {
        (
            self.next_seq,
            self.dropped,
            self.base_time,
            self.base_cycles,
        )
    }

    /// Restores counters captured by [`EventRing::seq_state`]. Retained
    /// events are left alone: a restored ring keeps whatever it recorded
    /// since construction and merely resumes numbering where the snapshot
    /// left off.
    pub fn restore_seq_state(
        &mut self,
        next_seq: u32,
        dropped: u64,
        base_time: u64,
        base_cycles: u64,
    ) {
        self.next_seq = next_seq;
        self.dropped = dropped;
        self.base_time = base_time;
        self.base_cycles = base_cycles;
    }
}

/// Per-PE tracer held on the simulator hot path: either a no-op or a ring.
///
/// Every method is `#[inline]` and starts with the enum match, so with
/// tracing off each instrumentation site costs a single well-predicted
/// branch and the argument computation folds away.
#[derive(Debug, Clone, Default)]
pub enum PeTracer {
    /// Tracing off — all records are no-ops.
    #[default]
    Null,
    /// Tracing on — records land in this PE's bounded ring.
    Ring(Box<EventRing>),
}

impl PeTracer {
    /// Build from a [`TraceSpec`] for linear PE index `pe`.
    pub fn for_spec(spec: TraceSpec, pe: u32) -> Self {
        if spec.enabled {
            Self::Ring(Box::new(EventRing::new(pe, spec.per_pe_capacity)))
        } else {
            Self::Null
        }
    }

    /// Is this tracer recording?
    #[inline]
    pub fn enabled(&self) -> bool {
        matches!(self, Self::Ring(_))
    }

    /// The ring, if tracing is on.
    pub fn ring(&self) -> Option<&EventRing> {
        match self {
            Self::Null => None,
            Self::Ring(r) => Some(r),
        }
    }

    /// Record an event at fabric time `time`.
    #[inline]
    pub fn record_at(&mut self, time: u64, kind: TraceEventKind, a: u8, b: u16, payload: u32) {
        match self {
            Self::Null => {}
            Self::Ring(r) => r.record_at(time, kind, a, b, payload),
        }
    }

    /// Mark the start of a task: `start` is fabric time, `cycles` the PE's
    /// cycle counter at that instant (see [`EventRing::task_begin`]).
    #[inline]
    pub fn task_begin(&mut self, start: u64, cycles: u64) {
        match self {
            Self::Null => {}
            Self::Ring(r) => r.task_begin(start, cycles),
        }
    }

    /// Record one DSD vector instruction of length `len`, timestamped from
    /// the current task base and the PE's cycle counter *before* the
    /// instruction's cost is added.
    #[inline]
    pub fn dsd(&mut self, cycles_before: u64, op: TraceOp, len: u32) {
        match self {
            Self::Null => {}
            Self::Ring(r) => {
                let t = r.now(cycles_before);
                r.record_at(t, TraceEventKind::DsdOp, op.code(), 0, len);
            }
        }
    }

    /// Open a named profiling region, timestamped from the current task base
    /// and the PE's current cycle counter (like [`PeTracer::dsd`]). With
    /// tracing off this is a single predicted branch.
    #[inline]
    pub fn region_begin(&mut self, cycles_now: u64, region: TraceRegion) {
        match self {
            Self::Null => {}
            Self::Ring(r) => {
                let t = r.now(cycles_now);
                r.record_at(t, TraceEventKind::RegionStart, region.code(), 0, 0);
            }
        }
    }

    /// Close the matching profiling region (same timestamping rule as
    /// [`PeTracer::region_begin`]).
    #[inline]
    pub fn region_end(&mut self, cycles_now: u64, region: TraceRegion) {
        match self {
            Self::Null => {}
            Self::Ring(r) => {
                let t = r.now(cycles_now);
                r.record_at(t, TraceEventKind::RegionEnd, region.code(), 0, 0);
            }
        }
    }

    /// Events dropped by this tracer's ring (0 when off).
    #[inline]
    pub fn dropped(&self) -> u64 {
        match self {
            Self::Null => 0,
            Self::Ring(r) => r.dropped,
        }
    }

    /// [`EventRing::seq_state`] of the ring, or all zeros when tracing is
    /// off (zeros restore as a no-op, so off-tracer snapshots round-trip).
    pub fn seq_state(&self) -> (u32, u64, u64, u64) {
        match self {
            Self::Null => (0, 0, 0, 0),
            Self::Ring(r) => r.seq_state(),
        }
    }

    /// Restores [`EventRing::restore_seq_state`] counters; no-op when
    /// tracing is off.
    pub fn restore_seq_state(
        &mut self,
        next_seq: u32,
        dropped: u64,
        base_time: u64,
        base_cycles: u64,
    ) {
        match self {
            Self::Null => {}
            Self::Ring(r) => r.restore_seq_state(next_seq, dropped, base_time, base_cycles),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_kinds(ring: &EventRing) -> Vec<u32> {
        ring.ordered().iter().map(|e| e.payload).collect()
    }

    #[test]
    fn ring_drop_oldest_keeps_tail_and_counts_drops() {
        let mut ring = EventRing::new(7, 4);
        for i in 0..10u32 {
            ring.record_at(i as u64, TraceEventKind::TaskStart, 0, 0, i);
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped, 6);
        assert_eq!(drain_kinds(&ring), vec![6, 7, 8, 9]);
        // seq keeps counting through drops: the retained tail carries the
        // original sequence numbers.
        let seqs: Vec<_> = ring.ordered().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert!(ring.ordered().iter().all(|e| e.pe == 7));
    }

    #[test]
    fn capped_ring_matches_tail_of_uncapped() {
        let mut big = EventRing::new(0, 1000);
        let mut small = EventRing::new(0, 8);
        for i in 0..37u32 {
            big.record_at(i as u64, TraceEventKind::WaveletSend, 1, 2, i);
            small.record_at(i as u64, TraceEventKind::WaveletSend, 1, 2, i);
        }
        let all = big.ordered();
        assert_eq!(small.ordered(), all[all.len() - 8..].to_vec());
        assert_eq!(small.dropped, 37 - 8);
        assert_eq!(big.dropped, 0);
    }

    #[test]
    fn capacity_zero_clamps_to_one() {
        let mut ring = EventRing::new(0, 0);
        ring.record_at(0, TraceEventKind::TaskStart, 0, 0, 1);
        ring.record_at(1, TraceEventKind::TaskStart, 0, 0, 2);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped, 1);
        assert_eq!(drain_kinds(&ring), vec![2]);
    }

    #[test]
    fn null_tracer_records_nothing() {
        let mut t = PeTracer::Null;
        t.task_begin(5, 10);
        t.record_at(6, TraceEventKind::Error, 1, 0, 0);
        t.dsd(11, TraceOp::Fmul, 8);
        t.region_begin(11, TraceRegion::FluxCompute);
        t.region_end(12, TraceRegion::FluxCompute);
        assert!(!t.enabled());
        assert_eq!(t.dropped(), 0);
        assert!(t.ring().is_none());
    }

    #[test]
    fn region_markers_time_like_dsd_ops() {
        let mut t = PeTracer::for_spec(TraceSpec::ring(16), 3);
        t.task_begin(100, 40);
        t.region_begin(40, TraceRegion::HaloExchange); // at task start → 100
        t.dsd(44, TraceOp::FmovOut, 4); // 4 cycles in → 104
        t.region_end(52, TraceRegion::HaloExchange); // 12 cycles in → 112
        let evs = t.ring().unwrap().ordered();
        assert_eq!(
            evs.iter().map(|e| (e.kind, e.time)).collect::<Vec<_>>(),
            vec![
                (TraceEventKind::RegionStart, 100),
                (TraceEventKind::DsdOp, 104),
                (TraceEventKind::RegionEnd, 112),
            ]
        );
        assert!(evs
            .iter()
            .filter(|e| e.kind != TraceEventKind::DsdOp)
            .all(|e| e.a == TraceRegion::HaloExchange.code()));
    }

    #[test]
    fn dsd_times_offset_from_task_base() {
        let mut t = PeTracer::for_spec(TraceSpec::ring(16), 3);
        t.task_begin(100, 40);
        t.dsd(40, TraceOp::Fmul, 8); // at task start → time 100
        t.dsd(48, TraceOp::Fadd, 8); // 8 cycles in → time 108
        let ring = t.ring().unwrap();
        let times: Vec<_> = ring.ordered().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![100, 108]);
        assert_eq!(ring.ordered()[1].a, TraceOp::Fadd.code());
    }
}
