//! The one trace replay: per-region cycle attribution, per-PE counters,
//! busy time, traffic and marker pairing in a single pass per PE stream.
//!
//! A PE's cycle cost is entirely determined by its [`TraceEventKind::DsdOp`]
//! events (the simulator's cost model charges cycles only for vector ops),
//! so replaying them rebuilds each PE's [`OpCounters`] — and
//! [`Profile::stats`] the simulator's own [`FabricStats`] — exactly.
//! Region markers ([`TraceEventKind::RegionStart`]/[`RegionEnd`]) bracket
//! stretches of a task, so replaying each PE's stream with a region *stack*
//! attributes every DSD op — and therefore every cycle — to the innermost
//! open region. Ops outside any region land in the synthetic
//! [`OTHER_REGION`] bucket.
//!
//! [`TraceRegion::RouterSwitch`] is special: no kernel marks it (switching
//! happens in the router, not in a task), so its bucket counts
//! `RouterSwitch` and `FlowStall` *events* instead of cycles.
//!
//! The same pass sums each PE's `TaskEnd` costs (busy cycles, also spread
//! over a [`TIMELINE_BUCKETS`]-slice timeline of the horizon), counts
//! wavelets per color and the stall, drop and fault events, and pairs task
//! and region markers. Everything it records is a function of the per-PE
//! streams alone, so a profile is bit-identical across engines; the shard
//! layout enters only in the [`summary`](crate::summary) view.
//!
//! [`RegionEnd`]: TraceEventKind::RegionEnd

use std::fmt;

use wse_sim::fault::FaultClass;
use wse_sim::stats::{apply_traced_op, FabricStats, OpCounters};
use wse_trace::{Trace, TraceEventKind, TraceOp, TraceRegion, NUM_REGIONS};

/// Index of the synthetic bucket for cycles outside any marked region.
pub const OTHER_REGION: usize = NUM_REGIONS;

/// Number of attribution buckets: the named regions plus [`OTHER_REGION`].
pub const PROFILE_BUCKETS: usize = NUM_REGIONS + 1;

/// Number of equal slices of the horizon in each PE's busy timeline.
pub const TIMELINE_BUCKETS: usize = 48;

/// Human-readable name of attribution bucket `i`.
pub fn bucket_name(i: usize) -> &'static str {
    match u8::try_from(i).ok().and_then(TraceRegion::from_code) {
        Some(r) => r.name(),
        None => "other",
    }
}

/// Cycle and event totals attributed to one region bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionBreakdown {
    /// Op counters reconstructed from the DSD ops attributed here.
    pub counters: OpCounters,
    /// Number of DSD-op events attributed here.
    pub dsd_ops: u64,
    /// For [`TraceRegion::RouterSwitch`]: router switch + flow-stall event
    /// count. Zero for the marker-driven buckets.
    pub marker_events: u64,
}

impl RegionBreakdown {
    /// Total cycles (compute + fabric) attributed to this bucket.
    pub fn cycles(&self) -> u64 {
        self.counters.cycles()
    }
}

/// Everything one replay of a trace yields.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// The run's final fabric time extended to its last retained event (a
    /// task's end is recorded at its busy-until time, which may pass the
    /// last event the engine popped). Utilization, idle time and the busy
    /// timelines are measured against it.
    pub horizon: u64,
    /// Fabric-wide per-bucket totals (index [`OTHER_REGION`] = unmarked).
    pub regions: [RegionBreakdown; PROFILE_BUCKETS],
    /// The PE with the most reconstructed cycles (the pacing PE; ties go to
    /// the lowest linear index).
    pub max_pe: u32,
    /// Per-bucket breakdown of [`Self::max_pe`] alone — this is what feeds
    /// the CS-2 timing model (the fabric runs at the pace of its slowest PE).
    pub max_pe_regions: [RegionBreakdown; PROFILE_BUCKETS],
    /// Counters rebuilt from each PE's DSD ops (linear index).
    pub per_pe: Vec<OpCounters>,
    /// Busy cycles per PE: the sum of its `TaskEnd` costs. Differs from the
    /// DSD-replayed [`OpCounters::cycles`] where a slow-down fault window
    /// multiplied a task's timing cost (the counters stay truthful).
    pub busy_by_pe: Vec<u64>,
    /// Per PE, its busy cycles falling in each of [`TIMELINE_BUCKETS`] equal
    /// slices of the horizon.
    pub busy_timeline: Vec<[u64; TIMELINE_BUCKETS]>,
    /// `(color, sends, receives)` rows, descending by `sends + receives`
    /// (ties by color).
    pub wavelets_by_color: Vec<(u8, u64, u64)>,
    /// Flow-stall events.
    pub flow_stalls: u64,
    /// Wavelets dropped at the fabric edge.
    pub edge_drops: u64,
    /// Fault events of every class (injections and detections).
    pub faults: u64,
    /// Wavelets lost to a failed link or a halted PE.
    pub fault_drops: u64,
    /// Corrupted wavelets caught by a ramp checksum.
    pub checksum_drops: u64,
    /// `TaskEnd` / `RegionEnd` markers with no open partner in the retained
    /// stream — the drop-oldest ring evicted the start but kept the end.
    pub unpaired_ends: u64,
    /// `TaskStart` / `RegionStart` markers never closed within the retained
    /// stream (still open when recording stopped, or evicted ends).
    pub unclosed_starts: u64,
}

impl Profile {
    /// Replays every PE stream of `trace` once.
    pub fn from_trace(trace: &Trace) -> Self {
        let horizon = trace
            .final_time
            .max(trace.events.last().map_or(0, |e| e.time))
            .max(1);
        let streams = trace.streams();
        let n = streams.len();
        let mut p = Self {
            horizon,
            per_pe: vec![OpCounters::default(); n],
            busy_by_pe: vec![0; n],
            busy_timeline: vec![[0; TIMELINE_BUCKETS]; n],
            ..Self::default()
        };
        let mut sends = [0u64; 256];
        let mut recvs = [0u64; 256];
        let mut max_cycles = 0;
        let buckets = TIMELINE_BUCKETS as u64;

        for (pe, stream) in streams.iter().enumerate() {
            let mut local = [RegionBreakdown::default(); PROFILE_BUCKETS];
            let total = &mut p.per_pe[pe];
            let timeline = &mut p.busy_timeline[pe];
            let mut in_task = false;
            // Innermost open region is the top of this stack.
            let mut stack: Vec<u8> = Vec::new();
            for ev in stream {
                match ev.kind {
                    TraceEventKind::DsdOp => {
                        if let Some(op) = TraceOp::from_code(ev.a) {
                            let len = u64::from(ev.payload);
                            let bucket = stack.last().map_or(OTHER_REGION, |&code| code as usize);
                            apply_traced_op(&mut local[bucket].counters, op, len);
                            local[bucket].dsd_ops += 1;
                            apply_traced_op(total, op, len);
                        }
                    }
                    TraceEventKind::TaskStart => {
                        p.unclosed_starts += u64::from(in_task);
                        in_task = true;
                    }
                    TraceEventKind::TaskEnd => {
                        p.unpaired_ends += u64::from(!in_task);
                        in_task = false;
                        let cost = u64::from(ev.payload);
                        p.busy_by_pe[pe] += cost;
                        // Spread the task's busy interval over the timeline
                        // slices it overlaps.
                        let mut t = ev.time.saturating_sub(cost);
                        while t < ev.time {
                            let bucket = ((t * buckets) / horizon).min(buckets - 1);
                            let bucket_end = ((bucket + 1) * horizon).div_ceil(buckets);
                            let step = bucket_end.min(ev.time).max(t + 1);
                            timeline[bucket as usize] += step - t;
                            t = step;
                        }
                    }
                    TraceEventKind::RegionStart => stack.push(ev.a),
                    TraceEventKind::RegionEnd => {
                        if stack.last() == Some(&ev.a) {
                            stack.pop();
                        } else {
                            p.unpaired_ends += 1;
                        }
                    }
                    TraceEventKind::RouterSwitch => {
                        local[TraceRegion::RouterSwitch.code() as usize].marker_events += 1;
                    }
                    TraceEventKind::FlowStall => {
                        local[TraceRegion::RouterSwitch.code() as usize].marker_events += 1;
                        p.flow_stalls += 1;
                    }
                    TraceEventKind::WaveletSend => sends[ev.a as usize] += 1,
                    TraceEventKind::WaveletRecv => recvs[ev.a as usize] += 1,
                    TraceEventKind::EdgeDrop => p.edge_drops += 1,
                    TraceEventKind::Fault => {
                        p.faults += 1;
                        match FaultClass::from_code(ev.a) {
                            Some(FaultClass::LinkDown | FaultClass::PeHalt) => p.fault_drops += 1,
                            Some(FaultClass::CorruptDetected) => p.checksum_drops += 1,
                            _ => {}
                        }
                    }
                    _ => {}
                }
            }
            p.unclosed_starts += u64::from(in_task) + stack.len() as u64;
            if total.cycles() > max_cycles {
                max_cycles = total.cycles();
                p.max_pe = pe as u32;
                p.max_pe_regions = local;
            }
            for (agg, l) in p.regions.iter_mut().zip(local.iter()) {
                agg.counters.merge(&l.counters);
                agg.dsd_ops += l.dsd_ops;
                agg.marker_events += l.marker_events;
            }
        }

        p.wavelets_by_color = (0..=u8::MAX)
            .map(|c| (c, sends[c as usize], recvs[c as usize]))
            .filter(|&(_, s, r)| s + r > 0)
            .collect();
        p.wavelets_by_color
            .sort_by(|x, y| (y.1 + y.2).cmp(&(x.1 + x.2)).then(x.0.cmp(&y.0)));
        p
    }

    /// The simulator's aggregate statistics, rebuilt from the trace. Equals
    /// `Fabric::stats` exactly for a complete trace (`trace.dropped == 0`)
    /// — the check that the trace is a lossless account of the run; with
    /// drops it is a lower bound.
    pub fn stats(&self) -> FabricStats {
        let mut stats = FabricStats {
            num_pes: self.per_pe.len(),
            fabric_hops: self.wavelets_by_color.iter().map(|w| w.1).sum(),
            ramp_deliveries: self.wavelets_by_color.iter().map(|w| w.2).sum(),
            edge_drops: self.edge_drops,
            flow_stalls: self.flow_stalls,
            fault_drops: self.fault_drops,
            checksum_drops: self.checksum_drops,
            ..FabricStats::default()
        };
        for ctr in &self.per_pe {
            stats.total.merge(ctr);
            stats.max_pe_cycles = stats.max_pe_cycles.max(ctr.cycles());
            stats.max_pe_compute_cycles = stats.max_pe_compute_cycles.max(ctr.compute_cycles);
            stats.max_pe_comm_cycles = stats.max_pe_comm_cycles.max(ctr.comm_cycles);
        }
        stats
    }

    /// Rebuilt counters of the pacing PE [`Self::max_pe`].
    pub fn max_pe_counters(&self) -> OpCounters {
        self.per_pe
            .get(self.max_pe as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Task or region markers the replay could not pair (ring eviction or
    /// unbalanced instrumentation). Non-zero means busy time and the
    /// attribution cover only the retained tail of each stream.
    pub fn unpaired_markers(&self) -> u64 {
        self.unpaired_ends + self.unclosed_starts
    }

    /// Total cycles attributed across all buckets (equals the fabric-wide
    /// reconstructed cycle total).
    pub fn attributed_cycles(&self) -> u64 {
        self.regions.iter().map(RegionBreakdown::cycles).sum()
    }

    /// Fraction of attributed cycles in bucket `i` (0 when nothing ran).
    pub fn share(&self, i: usize) -> f64 {
        let total = self.attributed_cycles();
        if total == 0 {
            return 0.0;
        }
        self.regions.get(i).map_or(0.0, |r| r.cycles() as f64) / total as f64
    }

    /// Idle cycles of PE `pe`: horizon minus its reconstructed busy cycles.
    pub fn idle_cycles(&self, pe: usize) -> u64 {
        self.horizon
            .saturating_sub(self.per_pe.get(pe).map_or(0, OpCounters::cycles))
    }

    /// Halo-exchange fabric cycles of the pacing PE — the profile-derived
    /// "communication" term of the paper's Table 3 breakdown.
    pub fn pacing_comm_cycles(&self) -> u64 {
        self.max_pe_regions
            .iter()
            .map(|r| r.counters.comm_cycles)
            .sum()
    }

    /// Compute cycles of the pacing PE (everything that is not fabric I/O).
    pub fn pacing_compute_cycles(&self) -> u64 {
        self.max_pe_counters().compute_cycles
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.attributed_cycles().max(1);
        writeln!(
            f,
            "cycle attribution over {} PEs, horizon {} cycles:",
            self.per_pe.len(),
            self.horizon
        )?;
        writeln!(
            f,
            "  {:<20} {:>12} {:>12} {:>12} {:>7}",
            "region", "compute", "fabric", "total", "share"
        )?;
        for (i, r) in self.regions.iter().enumerate() {
            if r.cycles() == 0 && r.marker_events == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<20} {:>12} {:>12} {:>12} {:>6.1}%",
                bucket_name(i),
                r.counters.compute_cycles,
                r.counters.comm_cycles,
                r.cycles(),
                100.0 * r.cycles() as f64 / total as f64,
            )?;
            if i == TraceRegion::RouterSwitch.code() as usize && r.marker_events > 0 {
                writeln!(f, "  {:<20} {} switch/stall events", "", r.marker_events)?;
            }
        }
        writeln!(
            f,
            "  pacing PE {}: {} cycles busy, {} idle ({} compute, {} fabric)",
            self.max_pe,
            self.max_pe_counters().cycles(),
            self.idle_cycles(self.max_pe as usize),
            self.pacing_compute_cycles(),
            self.pacing_comm_cycles(),
        )?;
        if self.unpaired_markers() > 0 {
            writeln!(
                f,
                "  WARNING: {} unpaired task/region markers — attribution covers the retained tail only",
                self.unpaired_markers()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wse_trace::EventRing;

    /// (time, pe, kind, a, b, payload) — recorded in list order per PE, so
    /// sequence numbers follow list position.
    type Rec = (u64, u32, TraceEventKind, u8, u16, u32);

    fn trace_from(events: &[Rec], pes: u32) -> Trace {
        let mut rings: Vec<EventRing> = (0..pes).map(|p| EventRing::new(p, 64)).collect();
        let mut final_time = 0;
        for &(time, pe, kind, a, b, payload) in events {
            final_time = final_time.max(time);
            rings[pe as usize].record_at(time, kind, a, b, payload);
        }
        let refs: Vec<&EventRing> = rings.iter().collect();
        let host = EventRing::new(u32::MAX, 1);
        Trace::from_rings(
            pes as usize,
            1,
            1,
            vec![0; pes as usize],
            final_time,
            &refs,
            &host,
        )
    }

    #[test]
    fn dsd_ops_split_by_region_stack() {
        let flux = TraceRegion::FluxCompute.code();
        let halo = TraceRegion::HaloExchange.code();
        let events = [
            // unmarked op → other
            (0, 0, TraceEventKind::DsdOp, TraceOp::Fmul.code(), 0, 4),
            (1, 0, TraceEventKind::RegionStart, flux, 0, 0),
            (2, 0, TraceEventKind::DsdOp, TraceOp::Fadd.code(), 0, 8),
            // nested halo inside flux: innermost wins
            (3, 0, TraceEventKind::RegionStart, halo, 0, 0),
            (4, 0, TraceEventKind::DsdOp, TraceOp::FmovIn.code(), 0, 2),
            (5, 0, TraceEventKind::RegionEnd, halo, 0, 0),
            (6, 0, TraceEventKind::RegionEnd, flux, 0, 0),
        ];
        let p = Profile::from_trace(&trace_from(&events, 1));
        assert_eq!(p.unpaired_markers(), 0);
        assert_eq!(p.regions[OTHER_REGION].counters.compute_cycles, 4);
        assert_eq!(p.regions[flux as usize].counters.compute_cycles, 8);
        assert_eq!(p.regions[halo as usize].counters.comm_cycles, 2);
        assert_eq!(p.attributed_cycles(), 14);
        assert_eq!(p.per_pe[0].cycles(), 14);
        assert_eq!(p.max_pe, 0);
    }

    #[test]
    fn router_events_count_into_switch_bucket() {
        let events = [
            (0, 0, TraceEventKind::RouterSwitch, 3, 1, 0),
            (1, 0, TraceEventKind::FlowStall, 3, 0, 0),
        ];
        let p = Profile::from_trace(&trace_from(&events, 1));
        let sw = TraceRegion::RouterSwitch.code() as usize;
        assert_eq!(p.regions[sw].marker_events, 2);
        assert_eq!(p.regions[sw].cycles(), 0);
    }

    #[test]
    fn unbalanced_markers_are_counted_not_fatal() {
        let flux = TraceRegion::FluxCompute.code();
        let halo = TraceRegion::HaloExchange.code();
        let events = [
            // end without start, and a start never closed
            (0, 0, TraceEventKind::RegionEnd, flux, 0, 0),
            (1, 0, TraceEventKind::RegionStart, halo, 0, 0),
        ];
        let p = Profile::from_trace(&trace_from(&events, 1));
        assert_eq!(p.unpaired_markers(), 2);
    }

    #[test]
    fn max_pe_ties_go_to_lowest_index() {
        let op = TraceOp::Fmul.code();
        let events = [
            (0, 0, TraceEventKind::DsdOp, op, 0, 5),
            (0, 1, TraceEventKind::DsdOp, op, 0, 5),
        ];
        let p = Profile::from_trace(&trace_from(&events, 2));
        assert_eq!(p.max_pe, 0);
        assert_eq!(
            p.per_pe.iter().map(OpCounters::cycles).collect::<Vec<_>>(),
            vec![5, 5]
        );
    }
}
