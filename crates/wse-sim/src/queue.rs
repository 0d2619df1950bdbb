//! The event queue of the discrete-event engines.
//!
//! The queue pops items in their `Ord`: time first, then whatever the item
//! type says — the fabric's events sort PE-major, `(time, pe, seq, src)`,
//! and `crate::fabric`'s module docs say why only each PE's own order is
//! observable. Event times are integer cycles, so the container is a
//! **two-level timing wheel** ([`CalendarQueue`]) whose pop sequence is
//! *identical* to that of a `BinaryHeap<Reverse<T>>` (asserted by
//! `tests/queue_properties.rs`, which keeps that heap as its oracle):
//!
//! * **Level 0** — 1024 one-cycle buckets covering the rest of the cursor's
//!   *epoch* (an aligned 1024-cycle block). A push is an unsorted append;
//!   a bucket is ordered exactly once, when the cursor reaches its cycle,
//!   by a block scatter on the items' *lanes* (see [`Timestamped::lane`])
//!   rather than a comparison sort.
//! * **Level 1** — 1024 unsorted epoch buckets covering the next 1024
//!   epochs, so everything less than 2²⁰ cycles ahead is an O(1) push. An
//!   epoch's bucket is dealt into level 0 when the cursor enters it; an
//!   item is therefore moved at most once after its push.
//! * **Overflow** — a comparison heap for what lies beyond the wheel
//!   (fault schedules, back-offs, saturated `u64::MAX` times); its items
//!   migrate into the wheel as epochs roll over.
//!
//! The horizon matters because of deep columns: a column's launch task
//! costs ≈ 30·nz cycles (EOS plus two Z faces) before its outbox flushes up
//! to 16·nz one-cycle-apart ramp slots, so ramp events are pushed ≈ 46·nz
//! cycles ahead — under 300 cycles at nz = 6 (mostly still level 0),
//! ≈ 3,000 at nz = 64 and ≈ 11,300 at the paper's nz = 246 (level 1).
//!
//! Buckets of both levels keep their items in fixed-size contiguous chunks
//! drawn from one free list and returned when the bucket empties, so the
//! memory the queue holds follows the number of *pending* events rather
//! than 1024 × the largest population any single cycle ever had.
//!
//! **Activation.** A dense cycle holds hundreds to tens of thousands of
//! items (an activated bucket holds 441 on average on 32×32×64 TPFA, 1,755
//! on 64×64×6 and 26,886 on 256×256×2), and ordering them is most of what
//! the queue costs. Among items of one time, `Ord` compares the lane first —
//! the destination PE, for the fabric — so the bucket is split into about
//! n/4 contiguous *lane blocks* over the lowest to highest lane the queue
//! has held: one walk of the bucket's chunks counts each block, a second
//! writes every item straight from its chunk to its final slot in the
//! drain, and each block of a few items is then insertion-sorted by the
//! full `Ord`. No comparison sort over the bucket, no gather copy, no
//! scratch allocation per activation.
//!
//! **In-order walk.** [`CalendarQueue::visit_in_order`] lists what is
//! pending in pop order without popping: the same lane-block scatter lays
//! each bucket out in a scratch buffer (a level-1 bucket is first dealt by
//! cycle), which is how the fabric's snapshot lists its pending events.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Items a queue can order by simulated time. The full `Ord` on the item
/// must sort by time first, then — among items of equal time — by
/// [`lane`](Timestamped::lane); the rest of it breaks the remaining ties.
pub trait Timestamped {
    /// The item's simulated time in cycles.
    fn time(&self) -> u64;
    /// The item's lane: the component of its `Ord` after the time (the
    /// fabric's destination PE), by which activation cuts a cycle into
    /// blocks.
    fn lane(&self) -> u32;
}

/// A min-queue over [`Timestamped`] items, popped in full `Ord` order.
///
/// Contract: after the first pop, pushed items must not be earlier than the
/// last popped time (simulated time never rewinds while events are
/// pending). Pushing earlier items is only supported while the queue is
/// empty — the fabric re-seeds queues between runs this way.
pub trait EventQueue<T: Timestamped + Ord> {
    /// Inserts an item.
    fn push(&mut self, item: T);
    /// Removes and returns the minimum item.
    fn pop(&mut self) -> Option<T>;
    /// The minimum pending time, if any.
    fn next_time(&self) -> Option<u64>;
    /// Number of pending items.
    fn len(&self) -> usize;
    /// True when nothing is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Removes all items in no particular order.
    fn drain_unordered(&mut self) -> Vec<T>;
}

/// Buckets per wheel level. Power of two so slot lookup is a mask; level 0
/// has one bucket per cycle of an epoch, level 1 one bucket per epoch.
const WHEEL_BUCKETS: usize = 1024;
const WHEEL_MASK: u64 = (WHEEL_BUCKETS - 1) as u64;
/// `time >> EPOCH_SHIFT` is the time's epoch.
const EPOCH_SHIFT: u32 = WHEEL_BUCKETS.trailing_zeros();
const BITMAP_WORDS: usize = WHEEL_BUCKETS / 64;
/// Items per storage chunk: large enough that a dense cycle's bucket is a
/// few long contiguous runs, small enough that the ≤ 2 × 1024 partly
/// filled chunks of a sparse schedule stay a few megabytes.
const CHUNK_ITEMS: usize = 64;
/// "No chunk": an empty bucket, or the end of a chunk chain.
const NIL: u32 = u32::MAX;
/// Items per lane block the activation scatter aims for.
const ITEMS_PER_BLOCK: usize = 4;
/// Most lane blocks one activation uses, which bounds the histogram.
const MAX_BLOCKS: usize = 1 << 16;
/// Longest block sorted by insertion. A fuller block — every item on one
/// lane, or lanes far narrower than the range the queue has seen — goes to
/// the library sort, so no lane distribution makes activation quadratic.
const INSERTION_MAX: usize = 32;

/// One fixed-capacity run of a bucket's items, linked to the bucket's
/// earlier (full) chunks — or, when free, to the next free chunk.
struct Chunk<T> {
    items: Vec<T>,
    next: u32,
}

/// An occupancy bitmap over one wheel level (bit = bucket non-empty).
#[derive(Default)]
struct Occupancy([u64; BITMAP_WORDS]);

impl Occupancy {
    #[inline]
    fn set(&mut self, slot: usize) {
        self.0[slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    fn clear(&mut self, slot: usize) {
        self.0[slot / 64] &= !(1 << (slot % 64));
    }

    /// Circular distance from `start` to the first occupied slot at or
    /// after it, wrapping around the level once.
    fn first_from(&self, start: usize) -> Option<usize> {
        let (w0, b0) = (start / 64, start % 64);
        let high = !0u64 << b0;
        let found = (0..=BITMAP_WORDS).find_map(|i| {
            let w = (w0 + i) % BITMAP_WORDS;
            let bits = match i {
                0 => self.0[w] & high,
                // back at the first word: only the wrapped-around low bits
                BITMAP_WORDS => self.0[w] & !high,
                _ => self.0[w],
            };
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })?;
        Some((found + WHEEL_BUCKETS - start) % WHEEL_BUCKETS)
    }
}

/// A two-level timing wheel over pooled chunk storage: O(1) push for
/// anything less than 2²⁰ cycles ahead, near-O(1) pop, and the pop order of
/// a binary heap. See the module docs.
///
/// Lockstep workloads concentrate thousands of events into a handful of
/// cycles, so per-bucket ordering is the real cost. Buckets are therefore
/// *unsorted* — a push is a plain append — and a cycle's bucket is ordered
/// exactly once, when the cursor reaches it and it becomes the *drain*: a
/// descending run popped from the tail, laid out by the lane-block scatter
/// of the module docs. Items pushed for the cycle currently being drained
/// (routing emits same-cycle ramp deliveries) go to a small `side`
/// min-heap, and each pop takes the smaller of the drain tail and the side
/// head, which is exactly the global minimum. The fabric's pending events
/// are pairwise distinct under `Ord` (see its key discussion), so the
/// sorted order is unique.
///
/// Invariants, with `epoch = cursor >> EPOCH_SHIFT`:
/// * drain and side items have time = `cursor`;
/// * level-0 bucket `t & WHEEL_MASK` holds items of time `t` in
///   `[cursor, (epoch + 1) << EPOCH_SHIFT)`;
/// * level-1 bucket `e & WHEEL_MASK` holds items of the one epoch `e` in
///   `[epoch + 1, epoch + WHEEL_BUCKETS]` that maps to it (the cursor's own
///   slot is free for epoch `epoch + WHEEL_BUCKETS` once it has been dealt);
/// * overflow items have an epoch beyond `epoch + WHEEL_BUCKETS`.
///
/// So every item of an earlier tier precedes every item of a later one.
pub struct CalendarQueue<T: Ord> {
    /// Chunk storage for both levels; a free chunk has no items.
    chunks: Vec<Chunk<T>>,
    /// Head of the free-chunk chain.
    free: u32,
    /// Per bucket, the chunk being appended to (level 0 then level 1).
    heads: Vec<u32>,
    /// Per level-1 bucket, the smallest time in it (`u64::MAX` if empty),
    /// which lets `next_time` answer without scanning the bucket.
    epoch_min: Vec<u64>,
    occupied0: Occupancy,
    occupied1: Occupancy,
    cursor: u64,
    /// Items too far in the future for the wheel.
    overflow: BinaryHeap<Reverse<T>>,
    /// All pending items: both levels, drain, side and overflow.
    len: usize,
    /// `drain[..drain_len]` is the active cycle's unpopped items, sorted
    /// descending (a pop takes the last). Slots past it hold stale copies:
    /// they are the room the next activation scatters into.
    drain: Vec<T>,
    drain_len: usize,
    /// Items pushed *for* the active cycle *during* its drain.
    side: BinaryHeap<Reverse<T>>,
    /// The lowest and highest lane ever pushed (`lane_lo > lane_hi` while
    /// none has been): the range activation cuts into blocks. A strip's
    /// wheel only sees its own PEs, so its blocks start at its first PE.
    lane_lo: u32,
    lane_hi: u32,
    /// Activation's per-block histogram, then per-block write cursors.
    blocks: Vec<u32>,
}

impl<T: Timestamped + Ord + Copy> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Timestamped + Ord + Copy> CalendarQueue<T> {
    /// An empty queue with its cursor at time 0. Allocates only the two
    /// bucket-head tables; chunks are allocated as items arrive.
    pub fn new() -> Self {
        Self {
            chunks: Vec::new(),
            free: NIL,
            heads: vec![NIL; 2 * WHEEL_BUCKETS],
            epoch_min: vec![u64::MAX; WHEEL_BUCKETS],
            occupied0: Occupancy::default(),
            occupied1: Occupancy::default(),
            cursor: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            drain: Vec::new(),
            drain_len: 0,
            side: BinaryHeap::new(),
            lane_lo: u32::MAX,
            lane_hi: 0,
            blocks: Vec::new(),
        }
    }

    #[inline]
    fn epoch(&self) -> u64 {
        self.cursor >> EPOCH_SHIFT
    }

    #[inline]
    fn active_len(&self) -> usize {
        self.drain_len + self.side.len()
    }

    /// Items inside the wheel's horizon: both levels plus the active drain.
    /// Telemetry only — does not affect scheduling order.
    pub fn wheel_occupancy(&self) -> usize {
        self.len - self.overflow.len()
    }

    /// Items parked in the comparison heap beyond the wheel's horizon.
    /// Telemetry only — does not affect scheduling order.
    pub fn overflow_occupancy(&self) -> usize {
        self.overflow.len()
    }

    /// Bytes of item storage the queue currently holds on to, pending or
    /// not: every chunk, the drain buffer, both heaps and the activation
    /// histogram. Bounded by a constant × the peak number of pending items
    /// (plus the partly filled chunk of each occupied bucket). Telemetry
    /// only.
    pub fn reserved_bytes(&self) -> usize {
        let items = self.chunks.len() * CHUNK_ITEMS
            + self.drain.capacity()
            + self.side.capacity()
            + self.overflow.capacity();
        items * std::mem::size_of::<T>()
            + self.chunks.capacity() * std::mem::size_of::<Chunk<T>>()
            + self.blocks.capacity() * std::mem::size_of::<u32>()
    }

    /// Appends `item` to bucket `bucket` of the `heads` table.
    #[inline]
    fn bucket_push(&mut self, bucket: usize, item: T) {
        let mut head = self.heads[bucket];
        if head == NIL || self.chunks[head as usize].items.len() == CHUNK_ITEMS {
            head = self.grow_bucket(bucket, head);
        }
        self.chunks[head as usize].items.push(item);
    }

    /// Links a free (or new) chunk in front of bucket `bucket`'s chain.
    fn grow_bucket(&mut self, bucket: usize, old_head: u32) -> u32 {
        let head = if self.free != NIL {
            let c = self.free;
            self.free = self.chunks[c as usize].next;
            c
        } else {
            let c = u32::try_from(self.chunks.len())
                .ok()
                .filter(|&c| c != NIL)
                .expect("event-queue chunk arena exhausted");
            self.chunks.push(Chunk {
                items: Vec::with_capacity(CHUNK_ITEMS),
                next: NIL,
            });
            c
        };
        self.chunks[head as usize].next = old_head;
        self.heads[bucket] = head;
        head
    }

    /// Empties bucket `bucket`, handing each of its chunks' items to `sink`
    /// and returning the chunks to the free list.
    fn bucket_take(&mut self, bucket: usize, mut sink: impl FnMut(&mut Self, &mut Vec<T>)) {
        let mut c = std::mem::replace(&mut self.heads[bucket], NIL);
        while c != NIL {
            let chunk = &mut self.chunks[c as usize];
            let next = chunk.next;
            let mut items = std::mem::take(&mut chunk.items);
            sink(self, &mut items);
            debug_assert!(items.is_empty());
            let chunk = &mut self.chunks[c as usize];
            chunk.items = items;
            chunk.next = self.free;
            self.free = c;
            c = next;
        }
    }

    /// Files an item with time ≥ `cursor` into the tier its epoch selects.
    #[inline]
    fn place(&mut self, item: T) {
        let t = item.time();
        debug_assert!(t >= self.cursor);
        let ahead = (t >> EPOCH_SHIFT) - self.epoch();
        if ahead == 0 {
            let slot = (t & WHEEL_MASK) as usize;
            self.occupied0.set(slot);
            self.bucket_push(slot, item);
        } else if ahead <= WHEEL_BUCKETS as u64 {
            let slot = ((t >> EPOCH_SHIFT) & WHEEL_MASK) as usize;
            self.occupied1.set(slot);
            self.epoch_min[slot] = self.epoch_min[slot].min(t);
            self.bucket_push(WHEEL_BUCKETS + slot, item);
        } else {
            self.overflow.push(Reverse(item));
        }
    }

    /// The smallest pending time outside the active drain, tier by tier.
    fn next_inactive_time(&self) -> Option<u64> {
        if let Some(d) = self
            .occupied0
            .first_from((self.cursor & WHEEL_MASK) as usize)
        {
            return Some(self.cursor + d as u64);
        }
        let first = ((self.epoch() + 1) & WHEEL_MASK) as usize;
        if let Some(d) = self.occupied1.first_from(first) {
            return Some(self.epoch_min[(first + d) % WHEEL_BUCKETS]);
        }
        self.overflow.peek().map(|Reverse(e)| e.time())
    }

    /// Makes cycle `t` — the smallest pending time — the active drain. On
    /// entering a new epoch, first deals that epoch's level-1 bucket into
    /// level 0 and lets newly near overflow items into the wheel. The
    /// previous drain must be exhausted.
    fn activate(&mut self, t: u64) {
        debug_assert!(self.active_len() == 0);
        debug_assert!(t >= self.cursor);
        let entering = t >> EPOCH_SHIFT != self.epoch();
        self.cursor = t;
        if entering {
            // Level 0 is empty, or `t` would have been found there. Deal
            // before admitting: this slot is also where the overflow items
            // of epoch `epoch + WHEEL_BUCKETS` are about to land, and they
            // should not be filed twice.
            let slot = ((t >> EPOCH_SHIFT) & WHEEL_MASK) as usize;
            self.occupied1.clear(slot);
            self.epoch_min[slot] = u64::MAX;
            self.bucket_take(WHEEL_BUCKETS + slot, |q, items| {
                for item in items.drain(..) {
                    q.place(item);
                }
            });
            self.admit_overflow();
        }
        let slot = (t & WHEEL_MASK) as usize;
        self.occupied0.clear(slot);
        self.scatter(slot);
    }

    /// Lays level-0 bucket `slot` out as the drain, descending (see
    /// [`scatter_descending`]), and empties it.
    fn scatter(&mut self, slot: usize) {
        let Self {
            chunks,
            free,
            heads,
            drain,
            drain_len,
            blocks,
            lane_lo,
            lane_hi,
            ..
        } = self;
        let head = std::mem::replace(&mut heads[slot], NIL);
        debug_assert!(head != NIL, "activated an empty bucket");
        let runs = || chain_items(chunks, head).map(Vec::as_slice);
        *drain_len = scatter_descending(runs, (*lane_lo, *lane_hi), blocks, drain);
        let mut c = head;
        while c != NIL {
            let chunk = &mut chunks[c as usize];
            chunk.items.clear();
            let next = std::mem::replace(&mut chunk.next, *free);
            *free = c;
            c = next;
        }
    }

    /// Moves every overflow item the wheel now reaches into it.
    fn admit_overflow(&mut self) {
        let reach = self.epoch() + WHEEL_BUCKETS as u64;
        while self
            .overflow
            .peek()
            .is_some_and(|Reverse(e)| e.time() >> EPOCH_SHIFT <= reach)
        {
            let Reverse(e) = self.overflow.pop().expect("peeked");
            self.place(e);
        }
    }

    /// Restarts the wheel at `t` and files every pending item again — the
    /// rare out-of-contract push (time before the cursor while items are
    /// pending, e.g. re-seeding a queue in arbitrary order).
    fn rebase(&mut self, t: u64) {
        let items = self.drain_unordered();
        self.cursor = t;
        self.len = items.len();
        for item in items {
            self.place(item);
        }
    }

    /// Pops the minimum item if its time is `t`, and `None` otherwise: a
    /// run loop drains one cycle with one call per item.
    pub fn pop_at(&mut self, t: u64) -> Option<T> {
        if self.active_len() == 0 {
            if self.next_inactive_time() != Some(t) {
                return None;
            }
            self.activate(t);
        } else if self.cursor != t {
            return None;
        }
        self.pop()
    }

    /// Visits every pending item, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks
            .iter()
            .flat_map(|c| c.items.iter())
            .chain(self.drain[..self.drain_len].iter())
            .chain(self.side.iter().map(|Reverse(e)| e))
            .chain(self.overflow.iter().map(|Reverse(e)| e))
    }

    /// Hands every pending item to `visit` in pop order — the order popping
    /// the queue dry would give — without removing any: the active cycle,
    /// then level 0 cycle by cycle, level 1 epoch by epoch, then the
    /// overflow. Each bucket is ordered into a scratch buffer by the lane-block
    /// scatter activation uses; a level-1 bucket is first dealt by cycle.
    pub fn visit_in_order(&self, mut visit: impl FnMut(&T)) {
        // The active cycle (empty between the fabric's runs, which end a
        // cycle): the drain's rest and the side heap.
        let side = self.side.iter().map(|Reverse(e)| e);
        let mut active: Vec<T> = self.drain[..self.drain_len]
            .iter()
            .chain(side)
            .copied()
            .collect();
        active.sort_unstable();
        active.iter().for_each(&mut visit);
        let lanes = (self.lane_lo, self.lane_hi);
        let (mut blocks, mut out, mut dealt) = (Vec::new(), Vec::new(), Vec::new());
        for slot in (self.cursor & WHEEL_MASK) as usize..WHEEL_BUCKETS {
            let head = self.heads[slot];
            if head != NIL {
                let runs = || chain_items(&self.chunks, head).map(Vec::as_slice);
                let n = scatter_descending(runs, lanes, &mut blocks, &mut out);
                out[..n].iter().rev().for_each(&mut visit);
            }
        }
        let mut cycle_ends = vec![0u32; WHEEL_BUCKETS];
        for ahead in 1..=WHEEL_BUCKETS as u64 {
            let head = self.heads[WHEEL_BUCKETS + ((self.epoch() + ahead) & WHEEL_MASK) as usize];
            if head == NIL {
                continue;
            }
            // Deal the epoch's items by cycle, then order each cycle.
            let items = || chain_items(&self.chunks, head).flatten();
            cycle_ends.fill(0);
            for item in items() {
                cycle_ends[(item.time() & WHEEL_MASK) as usize] += 1;
            }
            let mut at = 0;
            for c in &mut cycle_ends {
                (*c, at) = (at, at + *c);
            }
            if dealt.len() < at as usize {
                let fill = *items().next().expect("a non-empty bucket");
                dealt.resize(at as usize, fill);
            }
            for item in items() {
                let cursor = &mut cycle_ends[(item.time() & WHEEL_MASK) as usize];
                dealt[*cursor as usize] = *item;
                *cursor += 1;
            }
            let mut start = 0;
            for &end in &cycle_ends {
                let run = &dealt[start..end as usize];
                if !run.is_empty() {
                    scatter_descending(|| std::iter::once(run), lanes, &mut blocks, &mut out);
                    out[..run.len()].iter().rev().for_each(&mut visit);
                }
                start = end as usize;
            }
        }
        let mut far: Vec<T> = self.overflow.iter().map(|Reverse(e)| *e).collect();
        far.sort_unstable();
        far.iter().for_each(visit);
    }

    /// Drops every pending item in place, keeping the storage: the queue
    /// then behaves like a fresh one, and its next push anchors the wheel.
    pub fn clear(&mut self) {
        // Every chunk goes back on the free list, chained in index order.
        let mut next = NIL;
        for (i, chunk) in self.chunks.iter_mut().enumerate().rev() {
            chunk.items.clear();
            chunk.next = std::mem::replace(&mut next, i as u32);
        }
        self.free = next;
        self.drain_len = 0;
        self.side.clear();
        self.overflow.clear();
        self.heads.fill(NIL);
        self.epoch_min.fill(u64::MAX);
        self.occupied0 = Occupancy::default();
        self.occupied1 = Occupancy::default();
        self.len = 0;
    }
}

/// Bucket `head`'s chunks' items, newest chunk first.
fn chain_items<T>(chunks: &[Chunk<T>], head: u32) -> impl Iterator<Item = &Vec<T>> {
    std::iter::successors(Some(head).filter(|&c| c != NIL), |&c| {
        Some(chunks[c as usize].next).filter(|&n| n != NIL)
    })
    .map(|c| &chunks[c as usize].items)
}

/// Writes the items of the `runs()` — all of one cycle — into `out`,
/// descending, growing `out` if it is shorter, and returns how many there
/// are. The lane range `(lo, hi)` is cut into about n / [`ITEMS_PER_BLOCK`]
/// blocks of `2^shift` lanes; blocks hold disjoint lane intervals, and lanes
/// order a cycle's items before anything else does, so blocks laid out
/// highest first and each sorted on its own make the whole run sorted. One
/// walk counts each block, a second writes every item straight to its final
/// slot.
fn scatter_descending<'a, T, I>(
    runs: impl Fn() -> I,
    (lo, hi): (u32, u32),
    blocks: &mut Vec<u32>,
    out: &mut Vec<T>,
) -> usize
where
    T: Timestamped + Ord + Copy + 'a,
    I: Iterator<Item = &'a [T]>,
{
    let n: usize = runs().map(<[T]>::len).sum();
    // Block cursors are `u32`: 2^32 items would be tens of gigabytes.
    assert!(u32::try_from(n).is_ok(), "{n} items in one cycle");
    let span = u64::from(hi - lo);
    let target = (n / ITEMS_PER_BLOCK).clamp(1, MAX_BLOCKS) as u64;
    let shift = (0..64).find(|&s| span >> s < target).expect("span < 2^64");
    let block = |item: &T| (u64::from(item.lane() - lo) >> shift) as usize;
    // Histogram, then each block's first slot: the highest block first.
    blocks.clear();
    blocks.resize((span >> shift) as usize + 1, 0);
    for run in runs() {
        for item in run {
            blocks[block(item)] += 1;
        }
    }
    let mut at = 0u32;
    for b in blocks.iter_mut().rev() {
        (*b, at) = (at, at + *b);
    }
    if out.len() < n {
        let fill = *runs().flatten().next().expect("n > 0");
        out.resize(n, fill);
    }
    // Each run walked backwards makes a block's items arrive in reverse push
    // order, and a PE-major engine pushes a PE's events nearly ascending, so
    // the insertion sorts below find their blocks nearly sorted.
    for run in runs() {
        for item in run.iter().rev() {
            let cursor = &mut blocks[block(item)];
            out[*cursor as usize] = *item;
            *cursor += 1;
        }
    }
    // Each cursor now ends its block, which the next-higher block's cursor
    // starts.
    let mut start = 0;
    for &end in blocks.iter().rev() {
        sort_descending(&mut out[start..end as usize]);
        start = end as usize;
    }
    n
}

/// Sorts one lane block descending: by insertion while it is as short as
/// blocks are meant to be, by the library's run-adaptive sort otherwise.
fn sort_descending<T: Ord + Copy>(block: &mut [T]) {
    if block.len() > INSERTION_MAX {
        block.sort_by(|a, b| b.cmp(a));
        return;
    }
    for i in 1..block.len() {
        let item = block[i];
        let mut j = i;
        while j > 0 && block[j - 1] < item {
            block[j] = block[j - 1];
            j -= 1;
        }
        block[j] = item;
    }
}

impl<T: Timestamped + Ord + Copy> EventQueue<T> for CalendarQueue<T> {
    fn push(&mut self, item: T) {
        let t = item.time();
        let lane = item.lane();
        self.lane_lo = self.lane_lo.min(lane);
        self.lane_hi = self.lane_hi.max(lane);
        if t == self.cursor && self.active_len() > 0 {
            // A push for the cycle currently being drained.
            self.side.push(Reverse(item));
            self.len += 1;
            return;
        }
        if self.len == 0 {
            // An empty queue re-anchors its wheel at the pushed time, in
            // *both* directions. Anchoring forward matters as much as
            // backward: a queue first used mid-simulation (a restored
            // checkpoint, a strip that sat idle while the clock ran on)
            // would otherwise file its first items by their distance from
            // wherever its cursor was left.
            self.cursor = t;
        } else if t < self.cursor {
            self.rebase(t);
        }
        self.len += 1;
        self.place(item);
    }

    fn pop(&mut self) -> Option<T> {
        // The active cycle is at the cursor — nothing pending is earlier.
        let top = self.drain_len.checked_sub(1).map(|i| &self.drain[i]);
        let item = match (top, self.side.peek()) {
            (Some(d), Some(Reverse(s))) if d > s => self.side.pop().map(|Reverse(e)| e),
            (Some(&d), _) => {
                self.drain_len -= 1;
                Some(d)
            }
            (None, Some(_)) => self.side.pop().map(|Reverse(e)| e),
            (None, None) => {
                let t = self.next_inactive_time()?;
                self.activate(t);
                self.drain_len -= 1;
                Some(self.drain[self.drain_len])
            }
        };
        debug_assert!(item.is_some());
        self.len -= 1;
        item
    }

    fn next_time(&self) -> Option<u64> {
        if self.active_len() > 0 {
            return Some(self.cursor);
        }
        self.next_inactive_time()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn drain_unordered(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.iter().copied());
        self.clear();
        out
    }
}

/// Advances a simulated time by a delta, saturating at `u64::MAX` instead
/// of wrapping — the single overflow policy for every time computation in
/// the fabric (hop advancement, ramp injection offsets, busy horizons, BSP
/// window ends). Fault schedules may place events arbitrarily late, so
/// saturation is reachable, and both engines must agree on it.
#[inline]
pub fn advance_time(t: u64, dt: u64) -> u64 {
    t.saturating_add(dt)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(time, lane)`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Item(u64, u32);

    impl Timestamped for Item {
        fn time(&self) -> u64 {
            self.0
        }
        fn lane(&self) -> u32 {
            self.1
        }
    }

    const EPOCH: u64 = WHEEL_BUCKETS as u64;
    /// The horizon the wheel guarantees: anything nearer never sees the heap.
    const HORIZON: u64 = EPOCH * EPOCH;

    fn queue_of(items: &[Item]) -> CalendarQueue<Item> {
        let mut q = CalendarQueue::new();
        for &it in items {
            q.push(it);
        }
        q
    }

    fn pop_all(q: &mut CalendarQueue<Item>) -> Vec<Item> {
        let popped: Vec<Item> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(q.len(), 0);
        assert_eq!(q.next_time(), None);
        popped
    }

    fn sorted(items: &[Item]) -> Vec<Item> {
        let mut v = items.to_vec();
        v.sort();
        v
    }

    #[test]
    fn pops_in_time_then_tie_order() {
        let items = [Item(5, 1), Item(3, 2), Item(5, 0), Item(3, 1)];
        assert_eq!(pop_all(&mut queue_of(&items)), sorted(&items));
    }

    #[test]
    fn pop_at_drains_one_cycle_only() {
        let mut q = queue_of(&[Item(5, 1), Item(3, 2), Item(5, 0)]);
        assert_eq!(q.pop_at(5), None, "cycle 3 comes first");
        assert_eq!(q.pop_at(3), Some(Item(3, 2)));
        assert_eq!(q.pop_at(3), None);
        assert_eq!(q.pop_at(5), Some(Item(5, 0)));
        assert_eq!(q.pop_at(6), None, "the drain is at 5");
        assert_eq!(q.pop_at(5), Some(Item(5, 1)));
        assert_eq!((q.pop_at(5), q.len()), (None, 0));
    }

    #[test]
    fn level_boundaries_around_the_cursor() {
        // From an unaligned cursor, 1023/1024/1025 cycles ahead straddle
        // the end of the cursor's epoch and of the next one.
        for base in [0, 7, EPOCH - 1, 5 * EPOCH + 300] {
            let items = [
                Item(base, 0),
                Item(base + 1025, 1),
                Item(base + 1023, 2),
                Item(base + 1024, 3),
                Item(base + 1, 4),
            ];
            let mut q = queue_of(&items);
            assert_eq!(q.overflow_occupancy(), 0);
            assert_eq!(q.wheel_occupancy(), items.len());
            assert_eq!(pop_all(&mut q), sorted(&items), "base {base}");
        }
    }

    #[test]
    fn epoch_roll_over_deals_level_one_into_level_zero() {
        // A train that crosses three epoch boundaries one cycle at a time,
        // pushed while the cursor follows it (so every epoch is dealt with
        // later epochs still pending in level 1).
        let start = EPOCH - 3;
        let mut q = queue_of(&[Item(start, 0)]);
        let mut expect = start;
        let mut seq = 1;
        while let Some(Item(t, _)) = q.pop() {
            assert_eq!(t, expect);
            expect += 1;
            if seq == 1 {
                for dt in 1..3 * EPOCH {
                    q.push(Item(start + dt, seq));
                    seq += 1;
                }
                assert_eq!(q.overflow_occupancy(), 0);
            }
            if t % EPOCH == 0 {
                // a same-cycle push right after entering an epoch
                q.push(Item(t, u32::MAX));
                assert_eq!(q.pop(), Some(Item(t, u32::MAX)));
            }
        }
        assert_eq!(expect, start + 3 * EPOCH);
    }

    #[test]
    fn wheel_horizon_is_at_least_two_to_the_twenty() {
        for base in [0, 1, EPOCH - 1, 3 * EPOCH + 17] {
            let mut q = queue_of(&[Item(base, 0)]);
            q.push(Item(base + HORIZON - 1, 1));
            q.push(Item(base + HORIZON, 2));
            assert_eq!(q.overflow_occupancy(), 0, "base {base}");
            // One more epoch out is always beyond the wheel.
            q.push(Item(base + HORIZON + EPOCH, 3));
            assert_eq!(q.overflow_occupancy(), 1, "base {base}");
            assert_eq!(q.wheel_occupancy(), 3);
            assert_eq!(q.pop(), Some(Item(base, 0)));
            assert_eq!(q.next_time(), Some(base + HORIZON - 1));
            assert_eq!(q.pop(), Some(Item(base + HORIZON - 1, 1)));
            // Entering that epoch brought the overflow item into the wheel.
            assert_eq!(q.overflow_occupancy(), 0);
            assert_eq!(q.pop(), Some(Item(base + HORIZON, 2)));
            assert_eq!(q.pop(), Some(Item(base + HORIZON + EPOCH, 3)));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn overflow_items_land_in_the_slot_the_entered_epoch_vacates() {
        // Epoch 1 and epoch 1 + 1024 share a level-1 slot: entering epoch 1
        // must deal its bucket before admitting the overflow item to it.
        let near = Item(EPOCH + 5, 1);
        let far = Item((1 + EPOCH) * EPOCH + 5, 2);
        let mut q = queue_of(&[Item(0, 0), near, far]);
        assert_eq!(q.overflow_occupancy(), 1);
        assert_eq!(q.pop(), Some(Item(0, 0)));
        assert_eq!(q.pop(), Some(near));
        assert_eq!(q.overflow_occupancy(), 0);
        assert_eq!(q.next_time(), Some(far.0));
        assert_eq!(q.pop(), Some(far));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn saturated_times_pop_in_order() {
        let items = [
            Item(u64::MAX, 1),
            Item(u64::MAX, 0),
            Item(u64::MAX - 3, 0),
            Item(u64::MAX - HORIZON - EPOCH, 0),
            Item(2, 0),
        ];
        assert_eq!(pop_all(&mut queue_of(&items)), sorted(&items));
    }

    #[test]
    fn empty_queue_accepts_earlier_times() {
        let mut q = queue_of(&[Item(500, 0)]);
        assert_eq!(q.pop(), Some(Item(500, 0)));
        q.push(Item(10, 0)); // empty: the cursor rewinds
        assert_eq!(q.pop(), Some(Item(10, 0)));
    }

    #[test]
    fn out_of_contract_push_rebases_with_both_levels_pending() {
        let pending = [
            Item(900, 1),         // active drain once 900 is reached
            Item(1000, 2),        // level 0
            Item(40 * EPOCH, 3),  // level 1
            Item(2 * HORIZON, 4), // overflow
        ];
        let mut q = queue_of(&[Item(900, 0)]);
        for it in pending {
            q.push(it);
        }
        assert_eq!(q.pop(), Some(Item(900, 0)));
        q.push(Item(900, 5)); // side heap
        q.push(Item(80, 6)); // before the cursor with items pending
        assert_eq!(q.len(), 6);
        assert_eq!(q.next_time(), Some(80));
        let mut expect = sorted(&pending);
        expect.insert(0, Item(80, 6));
        expect.insert(2, Item(900, 5));
        assert_eq!(pop_all(&mut q), expect);
    }

    #[test]
    fn cursor_jumps_forward_with_level_one_items_pending() {
        // Nothing in level 0: the next pop re-anchors the cursor inside a
        // level-1 epoch while later epochs stay pending, and pushes made
        // from there are filed relative to the new cursor.
        let mut q = queue_of(&[Item(3, 0)]);
        q.push(Item(200 * EPOCH + 9, 1));
        q.push(Item(200 * EPOCH + 4, 2));
        q.push(Item(900 * EPOCH, 3));
        assert_eq!(q.pop(), Some(Item(3, 0)));
        assert_eq!(q.next_time(), Some(200 * EPOCH + 4));
        assert_eq!(q.pop(), Some(Item(200 * EPOCH + 4, 2)));
        q.push(Item(200 * EPOCH + HORIZON, 4));
        assert_eq!(q.overflow_occupancy(), 0);
        assert_eq!(
            pop_all(&mut q),
            vec![
                Item(200 * EPOCH + 9, 1),
                Item(900 * EPOCH, 3),
                Item(200 * EPOCH + HORIZON, 4)
            ]
        );
    }

    #[test]
    fn empty_queue_anchors_forward_into_the_wheel() {
        // A queue first used when the clock is already far along (a fabric
        // restored from a late checkpoint) must anchor at the pushed time,
        // not file items by distance from 0.
        let mut q = CalendarQueue::new();
        let late = 40 * HORIZON + 7;
        q.push(Item(late + 2, 0));
        q.push(Item(late, 0));
        q.push(Item(late + 1, 0));
        assert_eq!(q.overflow_occupancy(), 0);
        assert_eq!(
            pop_all(&mut q),
            vec![Item(late, 0), Item(late + 1, 0), Item(late + 2, 0)]
        );
    }

    #[test]
    fn emptied_buckets_return_their_chunks() {
        // A long one-cycle-apart train reuses the chunks the cursor has
        // already passed instead of growing the arena per bucket.
        let mut q = queue_of(&[Item(0, 0)]);
        for t in 0..20 * EPOCH {
            assert_eq!(q.pop(), Some(Item(t, 0)));
            q.push(Item(t + 1, 0));
        }
        assert!(
            q.chunks.len() <= 2,
            "{} chunks for one item",
            q.chunks.len()
        );
        assert_eq!(q.iter().count(), 1);
        assert_eq!(q.drain_unordered(), vec![Item(20 * EPOCH, 0)]);
        assert_eq!(q.iter().count(), 0);
    }

    #[test]
    fn advance_time_saturates() {
        assert_eq!(advance_time(5, 3), 8);
        assert_eq!(advance_time(u64::MAX - 1, 5), u64::MAX);
        assert_eq!(advance_time(u64::MAX, u64::MAX), u64::MAX);
    }
}
