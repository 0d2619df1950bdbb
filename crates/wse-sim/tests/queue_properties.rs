//! Property tests of the event-queue contract: under randomized schedules
//! the [`CalendarQueue`] must pop items in the *exact* order a
//! `BinaryHeap<Reverse<T>>` (the [`HeapQueue`] oracle below) produces —
//! including same-cycle ties broken by `(lane, seq, src)`, items far enough
//! in the future to sit in level 1 or the overflow heap and move inward as
//! the cursor advances, pushes interleaved with pops (the fabric pushes new
//! events for the cycle it is currently draining), and every lane
//! distribution the activation scatter has to cut into blocks. The queue's
//! in-order walk (`visit_in_order`) must list what is pending in that same
//! order at every point of those schedules.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use wse_sim::queue::{advance_time, CalendarQueue, EventQueue, Timestamped};

/// The reference queue: a binary heap of reversed items.
#[derive(Debug)]
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

/// A stand-in for the fabric's `Event` order `(time, pe, seq, src)`: the
/// lane is the second component of `Ord`, as the queue's contract asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: u64,
    lane: u32,
    seq: u64,
    src: usize,
}

impl Key {
    /// A key whose lane is its source — few lanes, many ties on each.
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

/// A stand-in for the fabric's `hop_latency`.
const HOP: u64 = 2;

/// Asserts that the calendar queue's in-order walk lists exactly the
/// oracle's pending items in pop order, without removing any.
fn assert_walk_in_pop_order(cal: &CalendarQueue<Key>, heap: &HeapQueue<Key>) {
    let mut walked = Vec::new();
    cal.visit_in_order(|k| walked.push(*k));
    let mut pending: Vec<Key> = heap.heap.iter().map(|Reverse(k)| *k).collect();
    pending.sort();
    assert_eq!(walked, pending, "the walk is not the pop order");
    assert_eq!(cal.len(), pending.len());
}

/// Pops everything from both queues, asserting identical sequences.
fn assert_same_drain(cal: &mut CalendarQueue<Key>, heap: &mut HeapQueue<Key>) {
    loop {
        let (a, b) = (cal.pop(), heap.pop());
        assert_eq!(a, b, "calendar and heap queues diverged");
        if a.is_none() {
            break;
        }
    }
}

/// The fabric guarantees pending keys are unique; mirror that here so the
/// pop order is a total order with no ambiguous ties.
fn unique_keys(raw: Vec<(u64, usize)>) -> Vec<Key> {
    raw.into_iter()
        .enumerate()
        .map(|(seq, (time, src))| Key::new(time, seq as u64, src))
        .collect()
}

proptest! {
    /// Bulk push then bulk pop: same-cycle ties (times drawn from a tiny
    /// range) must come out in `(time, lane, seq, src)` order.
    #[test]
    fn dense_tied_schedules_pop_identically(raw in proptest::collection::vec((0u64..16, 0usize..4), 0..512)) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        for k in unique_keys(raw) {
            cal.push(k);
            heap.push(k);
        }
        prop_assert_eq!(cal.len(), heap.len());
        assert_same_drain(&mut cal, &mut heap);
    }

    /// Times spanning many epochs: items start in level 1 and are dealt
    /// into level 0 as the cursor enters their epoch.
    #[test]
    fn overflow_migration_preserves_order(raw in proptest::collection::vec((0u64..1_000_000, 0usize..4), 0..512)) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        for k in unique_keys(raw) {
            cal.push(k);
            heap.push(k);
        }
        assert_same_drain(&mut cal, &mut heap);
    }

    /// Interleaved push/pop in the fabric's access pattern: each popped
    /// item may spawn successors at `t` (same cycle — lands in the active
    /// drain's side heap), `t + 1`, or far in the future.
    #[test]
    fn interleaved_push_pop_matches_heap(
        seed in proptest::collection::vec((0u64..64, 0usize..4), 1..64),
        spawns in proptest::collection::vec((0u64..3, 0u64..5000, 0usize..4), 0..512),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut seq = 0u64;
        for (time, src) in seed {
            let k = Key::new(time, seq, src);
            seq += 1;
            cal.push(k);
            heap.push(k);
        }
        let mut spawns = spawns.into_iter();
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            let Some(popped) = a else { break };
            if let Some((kind, dt, src)) = spawns.next() {
                let time = match kind {
                    0 => popped.time,                     // same-cycle (side heap)
                    1 => advance_time(popped.time, 1),    // next cycle
                    _ => advance_time(popped.time, dt),   // far future
                };
                let k = Key::new(time, seq, src);
                seq += 1;
                cal.push(k);
                heap.push(k);
            }
        }
        prop_assert!(cal.is_empty() && heap.is_empty());
    }

    /// The strip engine's drain — pop while `next_time` is the agreed
    /// cycle, take in a neighbour's mail for later cycles, move to the
    /// earliest pending cycle — agrees with the heap's order and never
    /// returns an item of another cycle.
    #[test]
    fn cycle_drains_match(
        raw in proptest::collection::vec((0u64..256, 0usize..4), 0..256),
        mail in proptest::collection::vec((1u64..40, 0usize..4), 0..64),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        for k in unique_keys(raw) {
            cal.push(k);
            heap.push(k);
        }
        let mut mail = mail.into_iter();
        let mut seq = 1 << 32;
        while let Some(cycle) = heap.next_time() {
            prop_assert_eq!(cal.next_time(), Some(cycle));
            while cal.next_time() == Some(cycle) {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(a, b);
                prop_assert_eq!(a.map(|k| k.time), Some(cycle));
            }
            prop_assert!(heap.next_time() != Some(cycle));
            if let Some((dt, src)) = mail.next() {
                let k = Key::new(advance_time(cycle, dt), seq, src);
                seq += 1;
                cal.push(k);
                heap.push(k);
            }
        }
        prop_assert!(cal.is_empty());
    }

    /// A cleared queue behaves like a fresh one. Before the clear, items
    /// sit in both levels, the overflow heap, a partly popped active cycle
    /// and its side heap; after it, pushes at any time, earlier than the
    /// old cursor too, pop like the oracle's.
    #[test]
    fn cleared_queue_pops_like_a_fresh_one(
        before in proptest::collection::vec((0u64..3_000_000, 0usize..4), 1..256),
        pops in 1usize..64,
        after in proptest::collection::vec((0u64..3_000_000, 0usize..4), 0..256),
    ) {
        let mut cal = CalendarQueue::new();
        let keys = unique_keys(before);
        let mut seq = keys.len() as u64;
        for k in keys {
            cal.push(k);
        }
        for _ in 0..pops {
            if let Some(k) = cal.pop() {
                cal.push(Key::new(k.time, seq, 3));
                seq += 1;
            }
        }
        cal.clear();
        prop_assert!(cal.is_empty());
        prop_assert_eq!(cal.next_time(), None);
        prop_assert_eq!(cal.iter().count(), 0);
        let mut heap = HeapQueue::new();
        for (time, src) in after {
            let k = Key::new(time, seq, src);
            seq += 1;
            cal.push(k);
            heap.push(k);
        }
        prop_assert_eq!(cal.len(), heap.len());
        prop_assert_eq!(cal.next_time(), heap.next_time());
        assert_same_drain(&mut cal, &mut heap);
    }

    /// The far-horizon walk: every queue operation interleaved, with
    /// pushes anywhere from the active cycle to beyond the wheel, checking
    /// `len` and `next_time` against the oracle after every step.
    #[test]
    fn far_horizon_walk_matches_heap(
        steps in proptest::collection::vec((0u8..16, 0u8..7, 0u64..49_000, 0usize..4), 1..400),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut seq = 0u64;
        // The time of the last pop: in-contract pushes are at or after it.
        // A saturated pop does not move it — the walk would be stuck at the
        // end of time — so what follows one is a rewind, like op 15.
        let mut now = 0u64;
        let after = |now: u64, popped: Option<Key>| match popped {
            Some(k) if k.time != u64::MAX => k.time,
            _ => now,
        };
        let mut key = |time: u64, src: usize| {
            seq += 1;
            Key::new(time, seq, src)
        };
        for (op, dt_kind, jitter, src) in steps {
            let dt = match dt_kind {
                0 => 0,                           // the active cycle (side heap)
                1 => 1,                           // next cycle
                2 => HOP,                         // one hop
                3 => 1_000 + jitter,              // a deep column's ramp train
                4 => (1 << 20) - 2 + jitter % 5,  // the wheel's horizon ± 2
                5 => (1 << 20) + 1024 + jitter % 2048, // just beyond: overflow, soon admitted
                _ => u64::MAX,                    // saturates
            };
            let time = advance_time(now, dt);
            match op {
                0..=5 => {
                    let k = key(time, src);
                    cal.push(k);
                    heap.push(k);
                }
                6..=10 => {
                    // A short burst, so the walk keeps up with its pushes
                    // and the cursor does reach the far items.
                    for _ in 0..1 + jitter % 4 {
                        let (a, b) = (cal.pop(), heap.pop());
                        prop_assert_eq!(a, b);
                        now = after(now, a);
                    }
                }
                11 | 12 => {
                    // The strip engine's bounded pop: only below `time`.
                    prop_assert_eq!(cal.next_time(), heap.next_time());
                    if cal.next_time().is_some_and(|t| t < time) {
                        let (a, b) = (cal.pop(), heap.pop());
                        prop_assert_eq!(a, b);
                        now = after(now, a);
                    }
                }
                13 => {
                    // A mailbox's worth of pushes in one go.
                    for i in 0..1 + jitter % 8 {
                        let k = key(advance_time(time, i * HOP), src);
                        cal.push(k);
                        heap.push(k);
                    }
                }
                14 => {
                    // Drain and re-seed in whatever order the drain gave:
                    // earlier-than-cursor pushes with items pending.
                    let drained = cal.drain_unordered();
                    prop_assert!(cal.is_empty());
                    let mut a = drained.clone();
                    let mut b = heap.drain_unordered();
                    a.sort();
                    b.sort();
                    prop_assert_eq!(a, b);
                    for k in drained {
                        cal.push(k);
                        heap.push(k);
                    }
                }
                _ => {
                    // Out of contract: before the last popped time.
                    let k = key(now.saturating_sub(jitter), src);
                    cal.push(k);
                    heap.push(k);
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
            prop_assert_eq!(cal.next_time(), heap.next_time());
            prop_assert_eq!(cal.iter().count(), heap.len());
            assert_walk_in_pop_order(&cal, &heap);
        }
        assert_same_drain(&mut cal, &mut heap);
    }
}

/// How a cycle's lanes are distributed: what the activation scatter cuts
/// into blocks.
#[derive(Debug, Clone, Copy)]
enum Lanes {
    /// Every item on one lane: one block, past the insertion-sort length.
    Equal,
    /// One item per lane, densely numbered.
    Distinct,
    /// Few items over a wide range above a large non-zero minimum — a
    /// strip's wheel, whose PEs start at the strip's offset.
    Sparse,
    /// Anywhere up to `u32::MAX − 1`, the largest PE index there is.
    Full,
}

/// Lane of the `i`-th item of a cycle, `r` a pseudo-random word.
fn lane(shape: Lanes, i: u64, r: u64) -> u32 {
    match shape {
        Lanes::Equal => 4_242,
        Lanes::Distinct => i as u32,
        Lanes::Sparse => 3_000_000 + (r % 200_000) as u32,
        Lanes::Full => (r % u64::from(u32::MAX)) as u32,
    }
}

/// SplitMix64: a cheap deterministic word per `(seed, i)`.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const SHAPES: [Lanes; 4] = [Lanes::Equal, Lanes::Distinct, Lanes::Sparse, Lanes::Full];

fn lanes() -> impl Strategy<Value = Lanes> {
    (0..SHAPES.len()).prop_map(|k| SHAPES[k])
}

/// Items in a cycle: fewer than 128 or more, half the time each.
fn cycle_size() -> impl Strategy<Value = u64> {
    (0u8..2, 1u64..128, 128u64..2_000)
        .prop_map(|(big, few, many)| if big == 1 { many } else { few })
}

proptest! {
    /// Dense cycles, shaped like the fabric's: each cycle's items pushed in
    /// runs that ascend by lane (one run per earlier cycle that fed it),
    /// cycles of fewer than 128 items and of more, every lane shape — and,
    /// while a cycle drains, same-cycle pushes (the side heap), pushes for
    /// later cycles with other lanes, and now and then a push before the
    /// cursor (a rebase).
    #[test]
    fn lane_blocks_pop_like_the_heap(
        cycles in proptest::collection::vec(
            (lanes(), cycle_size(), 1u64..4, 0u64..3),
            1..5,
        ),
        spawns in proptest::collection::vec((0u8..8, 0u64..3_000), 0..200),
        seed in 0u64..u64::MAX,
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut seq = 0u64;
        let mut time = 0u64;
        let mut push = |cal: &mut CalendarQueue<Key>, heap: &mut HeapQueue<Key>, time, lane| {
            seq += 1;
            let k = Key { time, lane, seq, src: (seq % 5) as usize };
            cal.push(k);
            heap.push(k);
        };
        for &(shape, n, runs, gap) in &cycles {
            time += 1 + gap * 700;
            for run in 0..runs {
                let mut run_lanes: Vec<u32> = (0..n / runs + 1)
                    .map(|i| lane(shape, run * n + i, mix(seed, time ^ (run << 32) ^ i)))
                    .collect();
                run_lanes.sort_unstable();
                for l in run_lanes {
                    push(&mut cal, &mut heap, time, l);
                }
            }
        }
        assert_walk_in_pop_order(&cal, &heap);
        let shapes: Vec<Lanes> = cycles.iter().map(|c| c.0).collect();
        let mut spawns = spawns.into_iter();
        let mut i = 0u64;
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            let Some(popped) = a else { break };
            i += 1;
            if let Some((op, r)) = spawns.next() {
                let shape = shapes[(r % shapes.len() as u64) as usize];
                let l = lane(shape, i, mix(seed, r));
                match op {
                    0..=2 => push(&mut cal, &mut heap, popped.time, l),
                    3..=5 => push(&mut cal, &mut heap, popped.time + 1 + r % 1_500, l),
                    6 => push(&mut cal, &mut heap, popped.time.saturating_sub(1 + r % 900), l),
                    _ => {}
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
            if i % 97 == 1 {
                // Mid-cycle: a partly popped drain and its side heap.
                assert_walk_in_pop_order(&cal, &heap);
            }
        }
        prop_assert!(cal.is_empty());
    }
}

/// One large cycle of each lane shape, bulk-pushed in descending order (the
/// worst case for the blocks' insertion sorts), then one more cycle after a
/// rebase, with the queue's lane range already as wide as the shapes make it.
#[test]
fn every_lane_shape_in_one_large_cycle() {
    let mut cal = CalendarQueue::new();
    let mut heap = HeapQueue::new();
    let mut seq = 0;
    for (c, shape) in SHAPES.into_iter().enumerate() {
        let time = 10 + c as u64;
        for i in (0..3_000u64).rev() {
            seq += 1;
            let k = Key {
                time,
                lane: lane(shape, i, mix(7, i)),
                seq,
                src: 0,
            };
            cal.push(k);
            heap.push(k);
        }
        assert_eq!(cal.pop(), heap.pop());
        // A push before the cursor with thousands pending: a rebase.
        seq += 1;
        let early = Key {
            time: 1,
            lane: u32::MAX - 1,
            seq,
            src: 0,
        };
        cal.push(early);
        heap.push(early);
        assert_eq!(cal.pop(), heap.pop());
    }
    assert_same_drain(&mut cal, &mut heap);
}

/// Event times right at the edge of the representable range: these items
/// wait in the overflow heap until the cursor jumps to within the wheel's
/// reach of them, and must still pop in exact key order.
#[test]
fn near_u64_max_times_pop_in_order() {
    let mut cal = CalendarQueue::new();
    let mut heap = HeapQueue::new();
    let times = [
        u64::MAX,
        u64::MAX - 1,
        u64::MAX - 1500, // the last epochs before the end of time
        0,
        1,
        u64::MAX / 2,
        u64::MAX,
    ];
    for (seq, &time) in times.iter().enumerate() {
        let k = Key::new(time, seq as u64, 0);
        cal.push(k);
        heap.push(k);
    }
    assert_same_drain(&mut cal, &mut heap);
    // `advance_time` saturates rather than wrapping past the end of time.
    assert_eq!(advance_time(u64::MAX - 1, 5), u64::MAX);
    assert_eq!(advance_time(u64::MAX, u64::MAX), u64::MAX);
}

/// Re-seeding a queue in arbitrary (unsorted) order after a drain — the
/// fabric does this when resealing wavelets on fault-plan installation —
/// must rebase the wheel correctly.
#[test]
fn out_of_contract_reseed_rebases() {
    let mut cal = CalendarQueue::new();
    let mut heap = HeapQueue::new();
    for (seq, time) in [5000u64, 10, 99_999, 0, 5000, 1024, 2048]
        .into_iter()
        .enumerate()
    {
        let k = Key::new(time, seq as u64, 1);
        cal.push(k);
        heap.push(k);
    }
    // Drain past the first few, then push an *earlier* time than the
    // cursor while items are still pending.
    for _ in 0..3 {
        assert_eq!(cal.pop(), heap.pop());
    }
    let k = Key::new(1, 100, 2);
    cal.push(k);
    heap.push(k);
    assert_same_drain(&mut cal, &mut heap);
}

/// The queue's storage follows the number of *pending* events, not the
/// number of buckets the cursor has swept: a lockstep schedule with 4,096
/// events in every cycle (each pop spawning its successor one cycle later,
/// every eighth also a same-cycle delivery) must not leave a 4,096-item
/// buffer behind in each of the 1024 buckets it passes through.
#[test]
fn reserved_memory_tracks_pending_items() {
    const PER_CYCLE: usize = 4_096;
    const CYCLES: u64 = 5_000;
    /// Partly filled chunks of the few occupied buckets, table headers.
    const SLACK_BYTES: usize = 64 * 1024;

    let mut cal = CalendarQueue::new();
    let mut seq = 0u64;
    let mut key = |time: u64, src: usize| {
        seq += 1;
        Key::new(time, seq, src)
    };
    for src in 0..PER_CYCLE {
        cal.push(key(0, src));
    }
    let mut peak_pending = cal.len();
    while let Some(k) = cal.pop() {
        if k.src >= PER_CYCLE {
            continue; // a same-cycle delivery: no successor
        }
        if k.time + 1 < CYCLES {
            cal.push(key(k.time + 1, k.src));
        }
        if k.src % 8 == 0 {
            cal.push(key(k.time, PER_CYCLE + k.src));
        }
        peak_pending = peak_pending.max(cal.len());
    }
    // Nothing in this walk releases storage, so the final figure is the peak.
    let reserved = cal.reserved_bytes();
    let bound = 4 * peak_pending * std::mem::size_of::<Key>() + SLACK_BYTES;
    assert!(
        reserved <= bound,
        "queue reserved {reserved} B for at most {peak_pending} pending items (bound {bound} B)"
    );
}
