//! The load summary view of a [`Profile`]: mean utilization, per-shard
//! busy/idle timelines, per-color wavelet counts and the hottest PEs.
//!
//! This is the tool for diagnosing shard load imbalance: the per-shard
//! lines show each shard's mean utilization and an ASCII busy-density
//! timeline, so a shard that is starved (or saturated) relative to its
//! peers is visible at a glance. The profile itself is engine-invariant;
//! the shard layout comes from the trace it was replayed from.

use std::fmt;

use wse_trace::Trace;

use crate::attribution::{Profile, TIMELINE_BUCKETS};

/// Density glyphs from idle to fully busy.
const DENSITY: &[u8] = b" .:-=+*#%@";

/// Colors listed before the rest are elided.
const SHOWN_COLORS: usize = 12;

/// [`Profile::summary`]: a profile displayed against its trace's layout.
pub struct Summary<'a> {
    profile: &'a Profile,
    trace: &'a Trace,
    top_k: usize,
}

impl Profile {
    /// The load summary of this profile, which was replayed from `trace`,
    /// listing the `top_k` busiest PEs.
    pub fn summary<'a>(&'a self, trace: &'a Trace, top_k: usize) -> Summary<'a> {
        Summary {
            profile: self,
            trace,
            top_k,
        }
    }

    /// Mean `TaskEnd` busy fraction of all PEs over the horizon, in [0, 1].
    fn mean_utilization(&self) -> f64 {
        let total: u64 = self.busy_by_pe.iter().sum();
        total as f64 / (self.horizon as f64 * self.busy_by_pe.len().max(1) as f64)
    }

    /// The `top_k` busiest PEs as `(linear pe, busy cycles)`, descending
    /// (ties by index).
    fn hottest(&self, top_k: usize) -> Vec<(u32, u64)> {
        let mut hottest: Vec<(u32, u64)> = (0..).zip(self.busy_by_pe.iter().copied()).collect();
        hottest.sort_unstable_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        hottest.truncate(top_k);
        hottest
    }

    /// Per-shard `(busy cycles, PE count, timeline)` of `trace`'s shard
    /// layout, where `timeline` holds the shard's mean utilization per
    /// horizon slice in [0, 1].
    fn shard_load(&self, trace: &Trace) -> Vec<(u64, usize, Vec<f64>)> {
        let mut load: Vec<(u64, usize, [u64; TIMELINE_BUCKETS])> =
            vec![(0, 0, [0; TIMELINE_BUCKETS]); trace.num_shards.max(1)];
        for &shard in &trace.shard_of {
            if let Some(entry) = load.get_mut(shard as usize) {
                entry.1 += 1;
            }
        }
        for (pe, (&busy, timeline)) in self.busy_by_pe.iter().zip(&self.busy_timeline).enumerate() {
            let shard = trace.shard_of.get(pe).copied().unwrap_or(0) as usize;
            if let Some(entry) = load.get_mut(shard) {
                entry.0 += busy;
                for (sum, &cycles) in entry.2.iter_mut().zip(timeline) {
                    *sum += cycles;
                }
            }
        }
        // Busy cycles per slice → mean utilization of the shard's PEs
        // across the slice's span.
        let span = (self.horizon as f64 / TIMELINE_BUCKETS as f64).max(1.0);
        load.into_iter()
            .map(|(busy, pes, timeline)| {
                let scale = pes.max(1) as f64 * span;
                let timeline = timeline
                    .iter()
                    .map(|&c| (c as f64 / scale).min(1.0))
                    .collect();
                (busy, pes, timeline)
            })
            .collect()
    }
}

impl fmt::Display for Summary<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (p, t) = (self.profile, self.trace);
        writeln!(
            f,
            "trace summary: {}x{} fabric, {} shard(s), final_time={} cycles, {} events ({} dropped)",
            t.cols,
            t.rows,
            t.num_shards,
            t.final_time,
            t.events.len(),
            t.dropped
        )?;
        writeln!(
            f,
            "  mean PE utilization: {:5.1}%   flow stalls: {}   edge drops: {}   faults: {}",
            100.0 * p.mean_utilization(),
            p.flow_stalls,
            p.edge_drops,
            p.faults
        )?;
        if p.unpaired_markers() > 0 {
            writeln!(
                f,
                "  WARNING: {} unpaired end marker(s), {} unclosed start marker(s) — \
                 ring eviction truncated task/region pairs; busy and region \
                 figures cover the retained tail only, not the full run",
                p.unpaired_ends, p.unclosed_starts
            )?;
        }
        writeln!(
            f,
            "  per-shard load (utilization timeline, {TIMELINE_BUCKETS} buckets):"
        )?;
        for (shard, (busy, pes, timeline)) in p.shard_load(t).iter().enumerate() {
            let util = 100.0 * *busy as f64 / (p.horizon as f64 * (*pes).max(1) as f64);
            let bar: String = timeline
                .iter()
                .map(|&v| {
                    let idx =
                        ((v * (DENSITY.len() - 1) as f64).round() as usize).min(DENSITY.len() - 1);
                    DENSITY[idx] as char
                })
                .collect();
            writeln!(
                f,
                "    shard {shard:>3} ({pes:>4} PEs): {util:5.1}% |{bar}|"
            )?;
        }
        writeln!(f, "  wavelets by color (sends/recvs):")?;
        for &(color, sends, recvs) in p.wavelets_by_color.iter().take(SHOWN_COLORS) {
            writeln!(
                f,
                "    color {color:>3}: {sends:>8} sent {recvs:>8} delivered"
            )?;
        }
        if p.wavelets_by_color.len() > SHOWN_COLORS {
            writeln!(
                f,
                "    … {} more colors",
                p.wavelets_by_color.len() - SHOWN_COLORS
            )?;
        }
        writeln!(f, "  hottest PEs (busy cycles):")?;
        let cols = t.cols.max(1);
        for (pe, busy) in p.hottest(self.top_k) {
            let (col, row) = (pe as usize % cols, pe as usize / cols);
            let util = 100.0 * busy as f64 / p.horizon as f64;
            writeln!(f, "    PE ({col},{row}): {busy:>10} cycles  {util:5.1}%")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wse_trace::{EventRing, TraceEventKind, TraceRegion};

    #[test]
    fn summary_aggregates_busy_and_colors() {
        let mut r0 = EventRing::new(0, 64);
        let mut r1 = EventRing::new(1, 64);
        let host = EventRing::new(wse_trace::HOST_PE, 4);
        r0.record_at(240, TraceEventKind::TaskEnd, 5, 0, 240);
        r0.record_at(480, TraceEventKind::TaskEnd, 5, 0, 120);
        r0.record_at(1, TraceEventKind::WaveletSend, 5, 1, 0);
        r1.record_at(480, TraceEventKind::TaskEnd, 7, 0, 480);
        r1.record_at(2, TraceEventKind::WaveletRecv, 5, 4, 0);
        r1.record_at(3, TraceEventKind::FlowStall, 7, 0, 0);
        let t = Trace::from_rings(2, 1, 2, vec![0, 1], 480, &[&r0, &r1], &host);
        let p = Profile::from_trace(&t);
        assert_eq!(p.busy_by_pe, vec![360, 480]);
        assert_eq!(p.hottest(2), vec![(1, 480), (0, 360)]);
        assert_eq!(p.wavelets_by_color, vec![(5, 1, 1)]);
        assert_eq!(p.flow_stalls, 1);
        // PE1 busy the whole run, PE0 busy 75% → mean 87.5%.
        assert!((p.mean_utilization() - 0.875).abs() < 1e-12);
        // Shard 1's timeline is fully busy.
        assert!(p.shard_load(&t)[1].2.iter().all(|&v| v > 0.99));
        let text = p.summary(&t, 2).to_string();
        assert!(text.contains("shard   0"));
        assert!(text.contains("hottest PEs"));
        // The bare TaskEnds above have no retained TaskStart: reported, not
        // silently folded into the busy horizon.
        assert_eq!(p.unpaired_ends, 3);
    }

    #[test]
    fn eviction_that_splits_marker_pairs_is_reported() {
        use TraceEventKind as K;
        // Capacity 3: recording start/end pairs for two tasks (with a region
        // inside the second) evicts the older events, leaving end markers
        // whose starts are gone.
        let mut ring = EventRing::new(0, 3);
        let host = EventRing::new(wse_trace::HOST_PE, 1);
        ring.record_at(0, K::TaskStart, 1, 0, 0);
        ring.record_at(10, K::TaskEnd, 1, 0, 10);
        ring.record_at(20, K::TaskStart, 1, 0, 0);
        ring.record_at(21, K::RegionStart, TraceRegion::FluxCompute.code(), 0, 0);
        ring.record_at(29, K::RegionEnd, TraceRegion::FluxCompute.code(), 0, 0);
        ring.record_at(30, K::TaskEnd, 1, 0, 10);
        let t = Trace::from_rings(1, 1, 1, vec![0], 30, &[&ring], &host);
        assert!(t.dropped > 0);
        let p = Profile::from_trace(&t);
        // Retained tail: RegionStart, RegionEnd, TaskEnd — the TaskEnd's
        // start was evicted.
        assert_eq!(p.unpaired_ends, 1);
        assert_eq!(p.unclosed_starts, 0);
        assert!(p.summary(&t, 1).to_string().contains("WARNING"));
        // The attribution view reports the same count.
        assert_eq!(p.unpaired_markers(), 1);
        assert!(p.to_string().contains("WARNING"));

        // An uncapped ring pairs cleanly.
        let mut full = EventRing::new(0, 64);
        full.record_at(0, K::TaskStart, 1, 0, 0);
        full.record_at(5, K::RegionStart, TraceRegion::HaloExchange.code(), 0, 0);
        full.record_at(8, K::RegionEnd, TraceRegion::HaloExchange.code(), 0, 0);
        full.record_at(10, K::TaskEnd, 1, 0, 10);
        let t2 = Trace::from_rings(1, 1, 1, vec![0], 10, &[&full], &host);
        let p2 = Profile::from_trace(&t2);
        assert_eq!(p2.unpaired_ends, 0);
        assert_eq!(p2.unclosed_starts, 0);
        assert!(!p2.summary(&t2, 1).to_string().contains("WARNING"));
    }
}
