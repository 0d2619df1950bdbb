//! Microbenchmarks for the event-queue engines and the static-route
//! fast-forwarding toggle.
//!
//! `event_queue/*` pits a plain `BinaryHeap` (the oracle of
//! `wse-sim/tests/queue_properties.rs`) against the timing-wheel
//! `CalendarQueue` on a synthetic push/pop workload shaped like a shallow
//! column's (hop-quantized times, heavy same-cycle ties, a sprinkle of
//! events a few thousand cycles out) at 1k/100k/1M events.
//! `event_queue/train-burst/*` is the deep-column shape: every launch pop
//! schedules a 1,000-slot one-cycle-apart train 2,000 cycles ahead, so
//! nearly every event is pushed beyond level 0 of the wheel.
//! `event_queue/dense-cycle/*` prices activation: 650, 1,700 and 21,000
//! items in every cycle — the dense-cycle sizes of the 32×32×64, 64×64×6
//! and 256×256×2 TPFA applies, whose activated buckets average 441, 1,755
//! and 26,886 — on 1,024, 4,096 and 65,536 PE lanes, each pop scheduling
//! its successor at a neighbouring PE one cycle later.
//! `fast_forward/*` runs the real 64×64×6 TPFA apply with fast-forwarding
//! on and off — the delta is what eliding per-hop events on the fixed
//! diagonal routes buys end to end.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bench::{pressure_for_iteration, standard_problem};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_sim::queue::{CalendarQueue, EventQueue, Timestamped};

/// The comparison baseline: a binary heap of reversed items.
struct HeapQueue<T: Ord> {
    heap: BinaryHeap<Reverse<T>>,
}

impl<T: Ord> HeapQueue<T> {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T: Timestamped + Ord> EventQueue<T> for HeapQueue<T> {
    fn push(&mut self, item: T) {
        self.heap.push(Reverse(item));
    }

    fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.time())
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn drain_unordered(&mut self) -> Vec<T> {
        self.heap.drain().map(|Reverse(e)| e).collect()
    }
}

/// The fabric's event order, `(time, pe, seq, src)`, with the PE as lane.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: u64,
    lane: u32,
    seq: u64,
    src: usize,
}

impl Key {
    /// A key whose lane is its source.
    fn new(time: u64, seq: u64, src: usize) -> Self {
        Self {
            time,
            lane: src as u32,
            seq,
            src,
        }
    }
}

impl Timestamped for Key {
    fn time(&self) -> u64 {
        self.time
    }
    fn lane(&self) -> u32 {
        self.lane
    }
}

/// A fabric-shaped schedule: each popped event spawns a successor one hop
/// later (sometimes same-cycle, rarely far in the future), so the queue
/// stays at a steady occupancy with dense ties — the pattern a lockstep
/// stencil produces.
fn churn<Q: EventQueue<Key>>(queue: &mut Q, n: u64) -> u64 {
    let mut seq = 0u64;
    for i in 0..4096 {
        queue.push(Key::new(0, seq, i));
        seq += 1;
    }
    let mut popped = 0u64;
    while let Some(k) = queue.pop() {
        popped += 1;
        if seq < n {
            // xorshift for a deterministic, cheap pseudo-random spread
            let mut x = seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            x ^= x >> 33;
            let dt = match x % 16 {
                0..=3 => 0,  // same cycle (ramp deliveries): side-heap path
                15 => 5_000, // a few epochs out: level 1 of the wheel
                _ => 1,      // the common hop-quantized case
            };
            queue.push(Key::new(k.time + dt, seq, (x % 4096) as usize));
            seq += 1;
        }
    }
    popped
}

/// Ramp slots per launch in [`train_burst`].
const TRAIN_SLOTS: u64 = 1_000;

/// A deep-column schedule: `launches` launch events one hop apart, each of
/// which — when popped — flushes a `TRAIN_SLOTS`-slot ramp train starting
/// `TRAIN_LEAD` cycles later. Returns the number of events popped.
fn train_burst<Q: EventQueue<Key>>(queue: &mut Q, launches: u64) -> u64 {
    const TRAIN_LEAD: u64 = 2_000;
    /// Marks a launch; train events carry their launch's index as `src`.
    /// Both take the launch index as lane, as a PE's events take its index.
    const LAUNCH: usize = usize::MAX;
    let mut seq = 0u64;
    for i in 0..launches {
        queue.push(Key {
            time: i,
            lane: i as u32,
            seq,
            src: LAUNCH,
        });
        seq += 1;
    }
    let mut popped = 0u64;
    while let Some(k) = queue.pop() {
        popped += 1;
        if k.src == LAUNCH {
            for slot in 0..TRAIN_SLOTS {
                queue.push(Key::new(k.time + TRAIN_LEAD + slot, seq, k.time as usize));
                seq += 1;
            }
        }
    }
    popped
}

/// Items pushed per dense cycle and the PEs (lanes) of the fabric shape
/// they come from: 32×32×64, 64×64×6 and 256×256×2.
const DENSE_SHAPES: [(u64, u32); 3] = [(650, 1_024), (1_700, 4_096), (21_000, 65_536)];

/// Items popped per dense-cycle measurement, whatever the cycle size.
const DENSE_ITEMS: u64 = 420_000;

/// A lockstep schedule of `per_cycle` items in every cycle, spread over
/// `pes` lanes: each pop — PE-major, so in lane order — schedules one
/// successor a cycle later at the same PE or a neighbour (east, west, or a
/// row down on a square fabric), so every bucket is filled by a few nearly
/// ascending runs, as the fabric fills them. Returns the number popped.
fn dense_cycles<Q: EventQueue<Key>>(queue: &mut Q, per_cycle: u64, pes: u32) -> u64 {
    let cols = (pes as f64).sqrt() as u32;
    let neighbours = [0, 1, pes - 1, cols];
    let cycles = DENSE_ITEMS / per_cycle;
    let mut seq = 0u64;
    for i in 0..per_cycle {
        let lane = (i * u64::from(pes) / per_cycle) as u32;
        queue.push(Key {
            time: 0,
            lane,
            seq,
            src: lane as usize,
        });
        seq += 1;
    }
    let mut popped = 0u64;
    while let Some(k) = queue.pop() {
        popped += 1;
        if k.time + 1 < cycles {
            let lane = (k.lane + neighbours[(seq % 4) as usize]) % pes;
            queue.push(Key {
                time: k.time + 1,
                lane,
                seq,
                src: k.lane as usize,
            });
            seq += 1;
        }
    }
    popped
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.sample_size(10);
    for n in [1_000u64, 100_000, 1_000_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::new("binary-heap", n), &n, |b, &n| {
            b.iter(|| churn(&mut HeapQueue::new(), n));
        });
        g.bench_with_input(BenchmarkId::new("calendar", n), &n, |b, &n| {
            b.iter(|| churn(&mut CalendarQueue::new(), n));
        });
    }
    g.finish();

    let mut g = c.benchmark_group("event_queue/train-burst");
    g.sample_size(10);
    for launches in [64u64, 1024] {
        g.throughput(Throughput::Elements(launches * (TRAIN_SLOTS + 1)));
        g.bench_with_input(
            BenchmarkId::new("binary-heap", launches),
            &launches,
            |b, &n| b.iter(|| train_burst(&mut HeapQueue::new(), n)),
        );
        g.bench_with_input(
            BenchmarkId::new("calendar", launches),
            &launches,
            |b, &n| b.iter(|| train_burst(&mut CalendarQueue::new(), n)),
        );
    }
    g.finish();

    let mut g = c.benchmark_group("event_queue/dense-cycle");
    g.sample_size(10);
    for (per_cycle, pes) in DENSE_SHAPES {
        g.throughput(Throughput::Elements(DENSE_ITEMS / per_cycle * per_cycle));
        g.bench_with_input(
            BenchmarkId::new("binary-heap", per_cycle),
            &per_cycle,
            |b, &n| b.iter(|| dense_cycles(&mut HeapQueue::new(), n, pes)),
        );
        g.bench_with_input(
            BenchmarkId::new("calendar", per_cycle),
            &per_cycle,
            |b, &n| b.iter(|| dense_cycles(&mut CalendarQueue::new(), n, pes)),
        );
    }
    g.finish();
}

fn bench_fast_forward(c: &mut Criterion) {
    let mut g = c.benchmark_group("fast_forward");
    g.sample_size(10);
    let n = 64usize;
    let (mesh, fluid, trans) = standard_problem(n, n, 6, 2);
    let p = pressure_for_iteration(&mesh, 0);
    for (label, enabled) in [("on", true), ("off", false)] {
        let mut sim = DataflowFluxSimulator::builder(&mesh)
            .fluid(&fluid)
            .transmissibilities(&trans)
            .fast_forward(enabled)
            .build()
            .unwrap();
        g.throughput(Throughput::Elements(mesh.num_cells() as u64));
        g.bench_with_input(BenchmarkId::new(label, n * n), &n, |b, _| {
            b.iter(|| sim.apply(&p).unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_event_queue, bench_fast_forward);
criterion_main!(benches);
