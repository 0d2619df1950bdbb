//! An assembled, sorted trace of one fabric run, and its per-PE grouping.

use crate::event::TraceEvent;
use crate::sink::EventRing;

/// Everything the per-PE rings held, merged into one deterministically
/// sorted stream plus a side channel of engine/host meta events.
///
/// `events` is sorted by [`TraceEvent::key`] = `(time, pe, seq)`. Because
/// each PE's events are recorded in the same causal order by the sequential
/// and sharded engines, this sorted stream is **bit-identical across
/// engines** for the same program — a much stronger determinism probe than
/// comparing residuals. Engine-specific observations (superstep barriers,
/// host phases, budget errors) go to `meta`, which is *excluded* from that
/// guarantee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Fabric width in PEs.
    pub cols: usize,
    /// Fabric height in PEs.
    pub rows: usize,
    /// Number of shards the run was partitioned into (1 for sequential).
    pub num_shards: usize,
    /// Shard owning each linear PE index (all 0 for sequential).
    pub shard_of: Vec<u32>,
    /// Fabric time when the run finished.
    pub final_time: u64,
    /// All retained per-PE events, sorted by `(time, pe, seq)`.
    pub events: Vec<TraceEvent>,
    /// Engine/host meta events (barriers, host phases, run-level errors),
    /// sorted by the same key. Not engine-invariant.
    pub meta: Vec<TraceEvent>,
    /// Total events dropped across all per-PE rings (drop-oldest).
    pub dropped: u64,
    /// Events dropped per linear PE index.
    pub dropped_by_pe: Vec<u64>,
}

impl Trace {
    /// Merge per-PE rings (in linear PE order) and the host ring into a
    /// sorted trace.
    pub fn from_rings(
        cols: usize,
        rows: usize,
        num_shards: usize,
        shard_of: Vec<u32>,
        final_time: u64,
        rings: &[&EventRing],
        host: &EventRing,
    ) -> Self {
        let mut events = Vec::with_capacity(rings.iter().map(|r| r.len()).sum());
        let mut dropped_by_pe = Vec::with_capacity(rings.len());
        for ring in rings {
            events.extend(ring.ordered());
            dropped_by_pe.push(ring.dropped());
        }
        events.sort_unstable_by_key(TraceEvent::key);
        let mut meta = host.ordered();
        meta.sort_unstable_by_key(TraceEvent::key);
        let dropped = dropped_by_pe.iter().sum::<u64>() + host.dropped();
        Self {
            cols,
            rows,
            num_shards,
            shard_of,
            final_time,
            events,
            meta,
            dropped,
            dropped_by_pe,
        }
    }

    /// Total number of PEs.
    pub fn num_pes(&self) -> usize {
        self.cols * self.rows
    }

    /// Every PE's retained events grouped by PE, each PE's in causal
    /// (`seq`) order — the entry point profilers iterate from. One counting
    /// pass sizes each PE's run of one buffer and a second fills it. A PE's
    /// retained `seq`s are consecutive (its ring drops the oldest first and
    /// numbers gaplessly), so each event goes straight to its run's slot
    /// `seq − lowest seq`; a run whose `seq`s do not span exactly its length
    /// (events removed from `events`) is filled in `events` order and
    /// sorted. Events of a PE outside the fabric are left out.
    pub fn streams(&self) -> PeStreams {
        let n = self.num_pes();
        // Per PE: events, lowest and highest `seq`.
        let mut runs = vec![(0usize, u32::MAX, 0u32); n];
        for ev in &self.events {
            if let Some((len, lo, hi)) = runs.get_mut(ev.pe as usize) {
                *len += 1;
                *lo = (*lo).min(ev.seq);
                *hi = (*hi).max(ev.seq);
            }
        }
        let consecutive = |&(len, lo, hi): &(usize, u32, u32)| (hi - lo) as usize + 1 == len;
        let mut starts = vec![0; n + 1];
        for (pe, &(len, ..)) in runs.iter().enumerate() {
            starts[pe + 1] = starts[pe] + len;
        }
        let Some(&fill) = self.events.first() else {
            return PeStreams {
                events: Vec::new(),
                starts,
            };
        };
        let mut events = vec![fill; starts[n]];
        // Per PE, where a run filled in `events` order continues.
        let mut next = starts[..n].to_vec();
        for ev in &self.events {
            let pe = ev.pe as usize;
            let Some(run) = runs.get(pe) else { continue };
            let at = if consecutive(run) {
                starts[pe] + (ev.seq - run.1) as usize
            } else {
                next[pe] += 1;
                next[pe] - 1
            };
            events[at] = *ev;
        }
        for (pe, run) in runs.iter().enumerate() {
            if run.0 > 0 && !consecutive(run) {
                events[starts[pe]..starts[pe + 1]].sort_unstable_by_key(|e| e.seq);
            }
        }
        PeStreams { events, starts }
    }

    /// [`Trace::streams`] as one owned vector per PE: `result[pe]` holds PE
    /// `pe`'s retained events in causal (`seq`) order.
    pub fn by_pe(&self) -> Vec<Vec<TraceEvent>> {
        self.streams().iter().map(<[TraceEvent]>::to_vec).collect()
    }
}

/// Every PE's retained events in one buffer, grouped by PE in PE order,
/// each PE's run in causal (`seq`) order ([`Trace::streams`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeStreams {
    events: Vec<TraceEvent>,
    /// PE `pe`'s run is `events[starts[pe]..starts[pe + 1]]`.
    starts: Vec<usize>,
}

impl PeStreams {
    /// Number of PEs.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// True for a fabric of no PEs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// PE `pe`'s stream.
    pub fn get(&self, pe: usize) -> &[TraceEvent] {
        &self.events[self.starts[pe]..self.starts[pe + 1]]
    }

    /// Every PE's stream, in PE order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[TraceEvent]> {
        self.starts
            .windows(2)
            .map(|run| &self.events[run[0]..run[1]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEventKind;
    use crate::sink::EventRing;

    #[test]
    fn from_rings_sorts_and_sums_drops() {
        let mut r0 = EventRing::new(0, 2);
        let mut r1 = EventRing::new(1, 8);
        let mut host = EventRing::new(crate::HOST_PE, 8);
        r0.record_at(5, TraceEventKind::TaskStart, 0, 0, 0);
        r0.record_at(1, TraceEventKind::TaskStart, 0, 0, 0);
        r0.record_at(9, TraceEventKind::TaskStart, 0, 0, 0); // evicts time=5
        r1.record_at(1, TraceEventKind::WaveletSend, 0, 0, 0);
        host.record_at(0, TraceEventKind::HostPhase, 0, 0, 0);
        let t = Trace::from_rings(2, 1, 1, vec![0, 0], 9, &[&r0, &r1], &host);
        let keys: Vec<_> = t.events.iter().map(TraceEvent::key).collect();
        assert_eq!(keys, vec![(1, 0, 1), (1, 1, 0), (9, 0, 2)]);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.dropped_by_pe, vec![1, 0]);
        assert_eq!(t.meta.len(), 1);
        assert_eq!(t.by_pe()[0].len(), 2);
    }

    #[test]
    fn by_pe_matches_events_for_pe() {
        let mut r0 = EventRing::new(0, 8);
        let mut r1 = EventRing::new(1, 8);
        let host = EventRing::new(crate::HOST_PE, 1);
        r0.record_at(5, TraceEventKind::TaskStart, 0, 0, 0);
        r0.record_at(1, TraceEventKind::WaveletSend, 0, 0, 0);
        r1.record_at(3, TraceEventKind::TaskStart, 0, 0, 0);
        let t = Trace::from_rings(2, 1, 1, vec![0, 0], 5, &[&r0, &r1], &host);
        let streams = t.by_pe();
        assert_eq!(streams.len(), 2);
        let grouped = t.streams();
        assert_eq!(grouped.len(), 2);
        for (pe, stream) in streams.iter().enumerate() {
            assert_eq!(grouped.get(pe), stream.as_slice());
            let mut own: Vec<TraceEvent> = t
                .events
                .iter()
                .filter(|e| e.pe == pe as u32)
                .copied()
                .collect();
            own.sort_unstable_by_key(|e| e.seq);
            assert_eq!(*stream, own);
        }
        // seq order, not time order.
        assert_eq!(
            streams[0].iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn streams_with_a_gap_in_seq_are_sorted() {
        let mut r0 = EventRing::new(0, 8);
        let host = EventRing::new(crate::HOST_PE, 1);
        for time in [7, 3, 9, 1] {
            r0.record_at(time, TraceEventKind::TaskStart, 0, 0, 0);
        }
        let mut t = Trace::from_rings(1, 1, 1, vec![0], 9, &[&r0], &host);
        let seqs = |t: &Trace| t.streams().get(0).iter().map(|e| e.seq).collect::<Vec<_>>();
        assert_eq!(seqs(&t), [0, 1, 2, 3], "placed by seq");
        // Without seq 2 the run no longer spans its length.
        t.events.retain(|e| e.seq != 2);
        assert_eq!(seqs(&t), [0, 1, 3], "filled in time order, then sorted");
    }
}
