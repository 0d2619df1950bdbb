//! Critical-path recovery from a fabric trace.
//!
//! The makespan of a dataflow run is bounded by one chain of dependencies:
//!
//! ```text
//! inject → task → (serialize) → send → hop → … → recv → task → … → last end
//! ```
//!
//! This module walks that chain *backwards* from the last task to finish,
//! using only the per-PE trace streams (which are bit-identical between the
//! sequential and sharded engines — so the recovered path is too):
//!
//! * **Busy chain** — if the previous task on the same PE ended exactly when
//!   this one started, the PE itself was the constraint (the wavelet sat in
//!   the queue; this also covers local activations, which deliver at the
//!   previous task's end and leave no `WaveletRecv`). Checked *first*: a
//!   queued delivery's `TaskStart` time is the predecessor's end, not the
//!   arrival time.
//! * **Wavelet arrival** — otherwise the task started the moment its wavelet
//!   reached the ramp: find the `WaveletRecv` at exactly the start time and
//!   chase it link by link (`recv` at time *t* on side *d* ⇔ neighbor's
//!   `WaveletSend` at *t − hop_latency* on the opposite link), through any
//!   forwarding routers, back to the task that originated the send (or to a
//!   host injection).
//!
//! Everything not on the path gets a *slack* — makespan minus its own end
//! time — summarized as a log₂ histogram: a tall zero-bucket means the run
//! is tightly balanced; a fat tail means most PEs idle behind one chain.

use std::collections::HashMap;
use std::fmt;

use wse_sim::geometry::{Direction, FabricDims};
use wse_trace::{link_name, Trace, TraceEvent, TraceEventKind, LINK_CONTROL_BIT};

/// One link of the recovered chain, in chronological order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathStep {
    /// A host injection (activation wavelet with no traced origin).
    Inject {
        /// Linear PE index the wavelet was injected at.
        pe: u32,
        /// Injection (delivery) time.
        time: u64,
    },
    /// A task occupying its PE from `start` to `end`.
    Task {
        /// Linear PE index.
        pe: u32,
        /// Activating color.
        color: u8,
        /// Start cycle.
        start: u64,
        /// End cycle.
        end: u64,
    },
    /// A wavelet traversing one fabric link.
    Hop {
        /// Sending PE (linear index).
        from_pe: u32,
        /// Receiving PE (linear index).
        to_pe: u32,
        /// Wavelet color.
        color: u8,
        /// Link code at the sender (0=N 1=E 2=S 3=W, control bit included).
        link: u16,
        /// Send time.
        depart: u64,
        /// Arrival time (`depart + hop_latency`).
        arrive: u64,
    },
}

/// The recovered critical path plus the aggregate accounting around it.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// End time of the last task — the quantity the path explains.
    pub makespan: u64,
    /// Time of the chain's origin (injection or first task start).
    pub origin_time: u64,
    /// The chain in chronological order.
    pub steps: Vec<PathStep>,
    /// Cycles spent inside on-path tasks.
    pub task_cycles: u64,
    /// Cycles spent on fabric links (`hops × hop_latency`).
    pub hop_cycles: u64,
    /// Everything else between origin and makespan: output serialization
    /// and ramp queueing along the path.
    pub wait_cycles: u64,
    /// On-path busy cycles per PE, descending — the bounding PEs.
    pub pe_cycles: Vec<(u32, u64)>,
    /// On-path task cycles per activating color, descending.
    pub color_cycles: Vec<(u8, u64)>,
    /// On-path hops per link code (0=N 1=E 2=S 3=W 4=ramp).
    pub link_hops: [u64; 5],
    /// Number of tasks on the path.
    pub on_path_tasks: u64,
    /// Number of tasks not on the path.
    pub off_path_tasks: u64,
    /// Log₂ histogram of off-path slack: entry `(b, n)` counts `n` tasks
    /// whose `makespan − end` lies in `[2^b, 2^(b+1))` (bucket 0 also
    /// holds zero slack).
    pub slack_histogram: Vec<(u32, u64)>,
    /// Hop latency used for superstep labeling in the display.
    pub hop_latency: u64,
}

/// A paired task reconstructed from a `TaskStart`/`TaskEnd` couple.
#[derive(Debug, Clone, Copy)]
struct Task {
    start: u64,
    end: u64,
    color: u8,
    payload: u32,
    control: bool,
    start_seq: u32,
}

/// Per-PE index of the events the walk needs.
#[derive(Default)]
struct PeIndex {
    tasks: Vec<Task>,
    recvs: Vec<TraceEvent>,
    sends: Vec<TraceEvent>,
}

fn index_streams(trace: &Trace) -> Vec<PeIndex> {
    trace
        .streams()
        .iter()
        .map(|stream| {
            let mut idx = PeIndex::default();
            let mut pending: Option<(u64, u8, u32, bool, u32)> = None;
            for ev in stream {
                match ev.kind {
                    TraceEventKind::TaskStart => {
                        pending = Some((ev.time, ev.a, ev.payload, ev.b != 0, ev.seq));
                    }
                    TraceEventKind::TaskEnd => {
                        // An unpaired end (opener evicted from the ring) is
                        // skipped: its start time is unknown.
                        if let Some((start, color, payload, control, start_seq)) = pending.take() {
                            idx.tasks.push(Task {
                                start,
                                end: ev.time,
                                color,
                                payload,
                                control,
                                start_seq,
                            });
                        }
                    }
                    TraceEventKind::WaveletRecv => idx.recvs.push(*ev),
                    TraceEventKind::WaveletSend => idx.sends.push(*ev),
                    _ => {}
                }
            }
            idx
        })
        .collect()
}

/// The latest task on `pe` that ended at or before `t` (the candidate
/// originator of a send observed at `t`).
fn latest_task_ending_by(idx: &PeIndex, t: u64) -> Option<usize> {
    idx.tasks
        .iter()
        .enumerate()
        .rev()
        .find(|(_, task)| task.end <= t)
        .map(|(i, _)| i)
}

/// Recovers the critical path of `trace`, or `None` if it has no completed
/// task. `hop_latency` must match the `FabricConfig` the trace was recorded
/// under (default 1).
pub fn critical_path(trace: &Trace, hop_latency: u64) -> Option<CriticalPath> {
    let dims = FabricDims::new(trace.cols, trace.rows);
    let index = index_streams(trace);

    // Start from the last task to end; ties → lowest PE, then the latest
    // task in that PE's stream (all deterministic over engine-invariant
    // per-PE streams).
    let (mut pe, mut task_i) = {
        let mut best: Option<(u64, usize, usize)> = None;
        for (p, idx) in index.iter().enumerate() {
            for (i, t) in idx.tasks.iter().enumerate() {
                let cand = (t.end, p, i);
                best = Some(match best {
                    None => cand,
                    Some(b) => {
                        if cand.0 > b.0 || (cand.0 == b.0 && p < b.1) {
                            cand
                        } else {
                            b
                        }
                    }
                });
            }
        }
        let (_, p, i) = best?;
        (p, i)
    };

    let makespan = index[pe].tasks[task_i].end;
    let mut steps_rev: Vec<PathStep> = Vec::new();
    // Bounded by construction, but a cyclic match (malformed trace) must
    // not hang the profiler.
    let mut budget = trace.events.len() * 4 + 16;

    'walk: loop {
        let task = index[pe].tasks[task_i];
        steps_rev.push(PathStep::Task {
            pe: pe as u32,
            color: task.color,
            start: task.start,
            end: task.end,
        });
        if budget == 0 {
            break;
        }
        budget -= 1;

        // 1. Busy chain: the previous task on this PE ended exactly when
        //    this one started → the PE, not the fabric, was the constraint.
        if task_i > 0 && index[pe].tasks[task_i - 1].end == task.start {
            task_i -= 1;
            continue;
        }

        // 2. Wavelet arrival at exactly the start time.
        let recv = index[pe]
            .recvs
            .iter()
            .rev()
            .find(|r| {
                r.time == task.start
                    && r.a == task.color
                    && r.payload == task.payload
                    && ((r.b & LINK_CONTROL_BIT != 0) == task.control)
                    && r.seq < task.start_seq
            })
            .copied();
        let Some(recv) = recv else {
            // No recv and no busy chain: a host injection started this task.
            steps_rev.push(PathStep::Inject {
                pe: pe as u32,
                time: task.start,
            });
            break;
        };

        // Chase the wavelet backwards link by link.
        let mut hop_pe = pe;
        let mut at_time = recv.time;
        let mut link = recv.b;
        loop {
            if budget == 0 {
                break 'walk;
            }
            budget -= 1;
            let side = (link & !LINK_CONTROL_BIT) as u8;
            if side == Direction::Ramp as u8 {
                // Ramp arrival: sent by this very PE (self-delivery through
                // its own router). Its originator is the latest local task.
                match latest_task_ending_by(&index[hop_pe], at_time) {
                    Some(i) => {
                        pe = hop_pe;
                        task_i = i;
                        continue 'walk;
                    }
                    None => {
                        steps_rev.push(PathStep::Inject {
                            pe: hop_pe as u32,
                            time: at_time,
                        });
                        break 'walk;
                    }
                }
            }
            // Arrived on side `d` ⇒ sent by neighbor(pe, d) on the opposite
            // link, hop_latency earlier.
            let d = match side {
                0 => Direction::North,
                1 => Direction::East,
                2 => Direction::South,
                _ => Direction::West,
            };
            let Some(nb) = dims.neighbor(dims.coord(hop_pe), d) else {
                break 'walk; // malformed trace: arrival from off-fabric
            };
            let sender = dims.linear(nb);
            let depart = at_time - hop_latency;
            let control_bit = link & LINK_CONTROL_BIT;
            let send_link = (d.arrival_side() as u16) | control_bit;
            let found = index[sender].sends.iter().rev().any(|s| {
                s.time == depart && s.a == recv.a && s.payload == recv.payload && s.b == send_link
            });
            if !found {
                break 'walk; // malformed trace: send was evicted
            }
            steps_rev.push(PathStep::Hop {
                from_pe: sender as u32,
                to_pe: hop_pe as u32,
                color: recv.a,
                link: send_link,
                depart,
                arrive: at_time,
            });

            // Was the sender itself forwarding? Look one link further: a
            // matching send at one of *its* neighbors, hop_latency earlier.
            // Forwarding is checked before own-origination — a router can
            // forward a color its own PE also uses. On a hit the next inner
            // iteration re-derives (and pushes) that hop from the updated
            // arrival side.
            let mut forwarded = false;
            for d2 in [
                Direction::North,
                Direction::East,
                Direction::South,
                Direction::West,
            ] {
                let Some(nb2) = dims.neighbor(dims.coord(sender), d2) else {
                    continue;
                };
                let prev = dims.linear(nb2);
                let prev_link = (d2.arrival_side() as u16) | control_bit;
                let hit = depart.checked_sub(hop_latency).is_some_and(|pt| {
                    index[prev].sends.iter().rev().any(|s| {
                        s.time == pt
                            && s.a == recv.a
                            && s.payload == recv.payload
                            && s.b == prev_link
                    })
                });
                if hit {
                    hop_pe = sender;
                    at_time = depart;
                    link = (d2 as u16) | control_bit;
                    forwarded = true;
                    break;
                }
            }
            if forwarded {
                continue;
            }

            // The sender originated it: bind to its latest finished task.
            match latest_task_ending_by(&index[sender], depart) {
                Some(i) => {
                    pe = sender;
                    task_i = i;
                    continue 'walk;
                }
                None => {
                    steps_rev.push(PathStep::Inject {
                        pe: sender as u32,
                        time: depart,
                    });
                    break 'walk;
                }
            }
        }
    }

    steps_rev.reverse();
    let steps = steps_rev;
    let origin_time = match steps.first() {
        Some(PathStep::Inject { time, .. }) => *time,
        Some(PathStep::Task { start, .. }) => *start,
        Some(PathStep::Hop { depart, .. }) => *depart,
        None => 0,
    };

    // Aggregate accounting.
    let mut task_cycles = 0u64;
    let mut hop_cycles = 0u64;
    let mut link_hops = [0u64; 5];
    let mut per_pe: HashMap<u32, u64> = HashMap::new();
    let mut per_color: HashMap<u8, u64> = HashMap::new();
    let mut on_path_keys: Vec<(u32, u64)> = Vec::new();
    for s in &steps {
        match *s {
            PathStep::Task {
                pe,
                color,
                start,
                end,
            } => {
                task_cycles += end - start;
                *per_pe.entry(pe).or_default() += end - start;
                *per_color.entry(color).or_default() += end - start;
                on_path_keys.push((pe, start));
            }
            PathStep::Hop {
                link,
                arrive,
                depart,
                ..
            } => {
                hop_cycles += arrive - depart;
                let code = ((link & !LINK_CONTROL_BIT) as usize).min(4);
                link_hops[code] += 1;
            }
            PathStep::Inject { .. } => {}
        }
    }
    let mut pe_cycles: Vec<(u32, u64)> = per_pe.into_iter().collect();
    pe_cycles.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut color_cycles: Vec<(u8, u64)> = per_color.into_iter().collect();
    color_cycles.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // Slack histogram over off-path tasks.
    let on_path: std::collections::HashSet<(u32, u64)> = on_path_keys.into_iter().collect();
    let mut buckets: HashMap<u32, u64> = HashMap::new();
    let mut on_count = 0u64;
    let mut off_count = 0u64;
    for (p, idx) in index.iter().enumerate() {
        for t in &idx.tasks {
            if on_path.contains(&(p as u32, t.start)) {
                on_count += 1;
            } else {
                off_count += 1;
                let slack = makespan.saturating_sub(t.end);
                let b = if slack == 0 { 0 } else { slack.ilog2() };
                *buckets.entry(b).or_default() += 1;
            }
        }
    }
    let mut slack_histogram: Vec<(u32, u64)> = buckets.into_iter().collect();
    slack_histogram.sort_by_key(|&(b, _)| b);

    let wait_cycles = makespan
        .saturating_sub(origin_time)
        .saturating_sub(task_cycles)
        .saturating_sub(hop_cycles);

    Some(CriticalPath {
        makespan,
        origin_time,
        steps,
        task_cycles,
        hop_cycles,
        wait_cycles,
        pe_cycles,
        color_cycles,
        link_hops,
        on_path_tasks: on_count,
        off_path_tasks: off_count,
        slack_histogram,
        hop_latency: hop_latency.max(1),
    })
}

impl CriticalPath {
    /// Number of fabric hops on the path.
    pub fn hops(&self) -> u64 {
        self.link_hops.iter().sum()
    }
}

fn fmt_step(f: &mut fmt::Formatter<'_>, step: &PathStep, hop_latency: u64) -> fmt::Result {
    match *step {
        PathStep::Inject { pe, time } => {
            writeln!(
                f,
                "    [ss {:>5}] inject      pe {pe} @ {time}",
                time / hop_latency
            )
        }
        PathStep::Task {
            pe,
            color,
            start,
            end,
        } => writeln!(
            f,
            "    [ss {:>5}] task        pe {pe} color {color} {start}..{end} ({} cy)",
            start / hop_latency,
            end - start
        ),
        PathStep::Hop {
            from_pe,
            to_pe,
            color,
            link,
            depart,
            arrive,
        } => writeln!(
            f,
            "    [ss {:>5}] hop {:<7} pe {from_pe} -> pe {to_pe} color {color} {depart}..{arrive}",
            depart / hop_latency,
            link_name((link & !LINK_CONTROL_BIT) as u8),
        ),
    }
}

impl fmt::Display for CriticalPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let span = self.makespan.saturating_sub(self.origin_time).max(1);
        writeln!(
            f,
            "critical path: makespan {} cycles ({} steps, {} tasks on path, {} off)",
            self.makespan,
            self.steps.len(),
            self.on_path_tasks,
            self.off_path_tasks
        )?;
        writeln!(
            f,
            "  task {} cy ({:.1}%) + hop {} cy ({:.1}%) + wait {} cy ({:.1}%) from origin @ {}",
            self.task_cycles,
            100.0 * self.task_cycles as f64 / span as f64,
            self.hop_cycles,
            100.0 * self.hop_cycles as f64 / span as f64,
            self.wait_cycles,
            100.0 * self.wait_cycles as f64 / span as f64,
            self.origin_time
        )?;
        if !self.pe_cycles.is_empty() {
            write!(f, "  bounding PEs:")?;
            for (pe, cy) in self.pe_cycles.iter().take(5) {
                write!(f, " pe{pe}={cy}cy")?;
            }
            writeln!(f)?;
        }
        if !self.color_cycles.is_empty() {
            write!(f, "  bounding colors:")?;
            for (c, cy) in self.color_cycles.iter().take(5) {
                write!(f, " c{c}={cy}cy")?;
            }
            writeln!(f)?;
        }
        write!(f, "  link hops:")?;
        for (code, n) in self.link_hops.iter().enumerate() {
            if *n > 0 {
                write!(f, " {}={n}", link_name(code as u8))?;
            }
        }
        writeln!(f)?;
        if !self.slack_histogram.is_empty() {
            writeln!(f, "  off-path slack (log2 buckets, cycles -> tasks):")?;
            for (b, n) in &self.slack_histogram {
                writeln!(f, "    [2^{b:<2}, 2^{:<2}) {n}", b + 1)?;
            }
        }
        // The full path can be thousands of steps; show both ends.
        const SHOW: usize = 6;
        if self.steps.len() <= 2 * SHOW {
            for s in &self.steps {
                fmt_step(f, s, self.hop_latency)?;
            }
        } else {
            for s in &self.steps[..SHOW] {
                fmt_step(f, s, self.hop_latency)?;
            }
            writeln!(
                f,
                "    ... {} steps elided ...",
                self.steps.len() - 2 * SHOW
            )?;
            for s in &self.steps[self.steps.len() - SHOW..] {
                fmt_step(f, s, self.hop_latency)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wse_trace::EventRing;

    /// Build a trace over a `cols × 1` fabric from (time, pe, kind, a, b,
    /// payload) records, recorded in list order per PE.
    fn trace_from(events: &[(u64, u32, TraceEventKind, u8, u16, u32)], cols: usize) -> Trace {
        let mut rings: Vec<EventRing> = (0..cols as u32).map(|p| EventRing::new(p, 64)).collect();
        let mut final_time = 0;
        for &(time, pe, kind, a, b, payload) in events {
            final_time = final_time.max(time);
            rings[pe as usize].record_at(time, kind, a, b, payload);
        }
        let refs: Vec<&EventRing> = rings.iter().collect();
        let host = EventRing::new(u32::MAX, 1);
        Trace::from_rings(cols, 1, 1, vec![0; cols], final_time, &refs, &host)
    }

    const TS: TraceEventKind = TraceEventKind::TaskStart;
    const TE: TraceEventKind = TraceEventKind::TaskEnd;
    const WS: TraceEventKind = TraceEventKind::WaveletSend;
    const WR: TraceEventKind = TraceEventKind::WaveletRecv;

    #[test]
    fn empty_trace_has_no_path() {
        let t = trace_from(&[], 1);
        assert!(critical_path(&t, 1).is_none());
    }

    #[test]
    fn single_injected_task() {
        // Host injects at 0; one task of 10 cycles.
        let t = trace_from(&[(0, 0, TS, 1, 0, 7), (10, 0, TE, 1, 0, 10)], 1);
        let cp = critical_path(&t, 1).unwrap();
        assert_eq!(cp.makespan, 10);
        assert_eq!(cp.task_cycles, 10);
        assert_eq!(cp.hop_cycles, 0);
        assert_eq!(cp.wait_cycles, 0);
        assert_eq!(cp.steps.len(), 2); // inject + task
        assert!(matches!(cp.steps[0], PathStep::Inject { pe: 0, time: 0 }));
        assert_eq!(cp.on_path_tasks, 1);
        assert_eq!(cp.off_path_tasks, 0);
    }

    #[test]
    fn busy_chain_binds_before_recv() {
        // PE0: task A [0,10), then task B [10,14) whose wavelet arrived at 4
        // (queued). The path must bind B to A through the busy chain, not to
        // the recv at time 4 (no recv exists at exactly time 10).
        let t = trace_from(
            &[
                (0, 0, TS, 1, 0, 7),
                (10, 0, TE, 1, 0, 10),
                (4, 0, WR, 2, 4, 9), // ramp arrival while busy
                (10, 0, TS, 2, 0, 9),
                (14, 0, TE, 2, 0, 4),
            ],
            1,
        );
        let cp = critical_path(&t, 1).unwrap();
        assert_eq!(cp.makespan, 14);
        assert_eq!(cp.on_path_tasks, 2);
        assert_eq!(cp.task_cycles, 14);
        assert_eq!(cp.wait_cycles, 0);
    }

    #[test]
    fn one_hop_chain_across_two_pes() {
        // PE0 (col 0) task [0,5) sends east at 5; PE1 receives on its west
        // side at 6 and runs [6,9). link codes: East=1, West=3.
        let t = trace_from(
            &[
                (0, 0, TS, 1, 0, 7),
                (5, 0, TE, 1, 0, 5),
                (5, 0, WS, 2, 1, 42),
                (6, 1, WR, 2, 3, 42),
                (6, 1, TS, 2, 0, 42),
                (9, 1, TE, 2, 0, 3),
            ],
            2,
        );
        let cp = critical_path(&t, 1).unwrap();
        assert_eq!(cp.makespan, 9);
        assert_eq!(cp.task_cycles, 8);
        assert_eq!(cp.hop_cycles, 1);
        assert_eq!(cp.wait_cycles, 0);
        assert_eq!(cp.link_hops, [0, 1, 0, 0, 0]);
        assert_eq!(cp.on_path_tasks, 2);
        assert!(matches!(cp.steps[0], PathStep::Inject { pe: 0, .. }));
        assert!(matches!(
            cp.steps[2],
            PathStep::Hop {
                from_pe: 0,
                to_pe: 1,
                ..
            }
        ));
    }

    #[test]
    fn forwarded_wavelet_chases_through_router() {
        // 3 PEs in a row. PE0 task [0,5) sends east at 5; PE1's router
        // forwards (send at 6, no recv/task); PE2 receives at 7, task [7,9).
        let t = trace_from(
            &[
                (0, 0, TS, 1, 0, 7),
                (5, 0, TE, 1, 0, 5),
                (5, 0, WS, 2, 1, 42),
                (6, 1, WS, 2, 1, 42), // forwarding hop at PE1
                (7, 2, WR, 2, 3, 42),
                (7, 2, TS, 2, 0, 42),
                (9, 2, TE, 2, 0, 2),
            ],
            3,
        );
        let cp = critical_path(&t, 1).unwrap();
        assert_eq!(cp.makespan, 9);
        assert_eq!(cp.hop_cycles, 2);
        assert_eq!(cp.link_hops, [0, 2, 0, 0, 0]);
        assert_eq!(cp.task_cycles, 7);
        assert_eq!(cp.on_path_tasks, 2);
        // chronological: inject, task(pe0), hop(0→1), hop(1→2), task(pe2)
        assert_eq!(cp.steps.len(), 5);
        assert!(matches!(
            cp.steps[2],
            PathStep::Hop {
                from_pe: 0,
                to_pe: 1,
                ..
            }
        ));
        assert!(matches!(
            cp.steps[3],
            PathStep::Hop {
                from_pe: 1,
                to_pe: 2,
                ..
            }
        ));
    }

    #[test]
    fn serialization_gap_shows_as_wait() {
        // PE0 task [0,5) but the send leaves the router only at 8 (outbox
        // serialization): 3 cycles of wait on the path.
        let t = trace_from(
            &[
                (0, 0, TS, 1, 0, 7),
                (5, 0, TE, 1, 0, 5),
                (8, 0, WS, 2, 1, 42),
                (9, 1, WR, 2, 3, 42),
                (9, 1, TS, 2, 0, 42),
                (12, 1, TE, 2, 0, 3),
            ],
            2,
        );
        let cp = critical_path(&t, 1).unwrap();
        assert_eq!(cp.makespan, 12);
        assert_eq!(cp.task_cycles, 8);
        assert_eq!(cp.hop_cycles, 1);
        assert_eq!(cp.wait_cycles, 3);
    }

    #[test]
    fn off_path_tasks_get_slack_buckets() {
        // Two independent injected tasks: [0,100) on PE0 and [0,4) on PE1.
        // PE1's task has slack 96 → bucket ilog2(96)=6.
        let t = trace_from(
            &[
                (0, 0, TS, 1, 0, 7),
                (100, 0, TE, 1, 0, 100),
                (0, 1, TS, 1, 0, 7),
                (4, 1, TE, 1, 0, 4),
            ],
            2,
        );
        let cp = critical_path(&t, 1).unwrap();
        assert_eq!(cp.makespan, 100);
        assert_eq!(cp.on_path_tasks, 1);
        assert_eq!(cp.off_path_tasks, 1);
        assert_eq!(cp.slack_histogram, vec![(6, 1)]);
    }

    #[test]
    fn display_is_nonempty() {
        let t = trace_from(&[(0, 0, TS, 1, 0, 7), (10, 0, TE, 1, 0, 10)], 1);
        let cp = critical_path(&t, 1).unwrap();
        let s = format!("{cp}");
        assert!(s.contains("critical path"));
        assert!(s.contains("makespan 10"));
    }
}
