//! The calendar-queue event scheduler.
//!
//! The engine's old scheduler was one `BinaryHeap` over full event values:
//! every push and pop sifted ~100-byte payloads through `O(log n)` heap
//! levels, which goes cache-cold once the queue holds hundreds of thousands
//! of in-flight events. This module replaces it with a two-tier calendar
//! queue over compact 32-byte index entries:
//!
//! * **Event bodies live in a slab** (`Vec` + free list) and never move
//!   while queued; the ordering structures shuffle only `(time, a, b, idx)`
//!   entries.
//! * **Near-future events** (within ~4 simulated seconds) hash into a ring
//!   of 4096 one-millisecond buckets — insertion is O(1) `Vec::push`.
//! * **The current bucket** is kept as a small binary heap, so pops follow
//!   the exact `(time, a, b)` total order the engine's determinism contract
//!   requires. A bucket only pays `O(k log k)` for the `k` events that
//!   actually share its millisecond.
//! * **Far-future events** (beyond the ring's horizon) wait in an overflow
//!   heap and are re-filed into the ring when their epoch arrives — each
//!   entry is touched at most once more, so inserts stay O(1) amortized.
//!
//! The ordering key is `(time, a, b)`. The engine fills `a` and `b` with
//! its shard-count-invariant keys (destination/source lanes and per-lane
//! sequence numbers, described in `sim.rs`); the queue itself only compares
//! them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the bucket width: 1024 µs ≈ 1 ms per bucket.
const SHIFT: u32 = 10;
/// Number of buckets in the ring (power of two).
const NBUCKETS: usize = 4096;
const MASK: u64 = (NBUCKETS as u64) - 1;
/// Simulated time covered by one full ring rotation, µs (~4.2 s).
const SPAN: u64 = (NBUCKETS as u64) << SHIFT;

/// A queued entry: the full ordering key plus the slab index of the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    t: u64,
    a: u64,
    b: u64,
    idx: u32,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t, self.a, self.b).cmp(&(other.t, other.a, other.b))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic min-priority event queue keyed by `(t_us, a, b)`, with
/// event bodies of type `T` parked in a slab until their entry pops.
///
/// Exported so the micro-benchmarks can measure it head-to-head against a
/// plain `BinaryHeap`; protocol code should drive [`crate::Simulation`]
/// instead of using this directly.
#[derive(Debug)]
pub struct EventQueue<T> {
    slab: Vec<Option<T>>,
    free: Vec<u32>,
    /// The bucket ring; `buckets[i]` holds unsorted entries whose time maps
    /// to slot `i` of the current epoch window.
    buckets: Vec<Vec<Entry>>,
    /// The bucket the cursor is parked on, heapified so pops follow the
    /// exact key order. Late insertions that land at or behind the cursor
    /// also go here, which keeps every bucket strictly ahead of the heap.
    cur: BinaryHeap<Reverse<Entry>>,
    cur_bucket: usize,
    /// Exclusive end (µs) of the epoch window the ring currently covers;
    /// always SPAN-aligned.
    epoch_end: u64,
    /// Entries at or beyond `epoch_end`, waiting to be re-filed.
    far: BinaryHeap<Reverse<Entry>>,
    /// Entries currently in the ring (buckets + cur).
    ring_live: usize,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            buckets: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            cur: BinaryHeap::new(),
            cur_bucket: 0,
            epoch_end: SPAN,
            far: BinaryHeap::new(),
            ring_live: 0,
            len: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are queued (test/diagnostic convenience).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc(&mut self, body: T) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.slab[idx as usize] = Some(body);
            idx
        } else {
            let idx = self.slab.len() as u32;
            self.slab.push(Some(body));
            idx
        }
    }

    /// Inserts an event. `t_us` must not be earlier than the last popped
    /// entry's time (the engine never schedules into the past).
    pub fn push(&mut self, t_us: u64, a: u64, b: u64, body: T) {
        let idx = self.alloc(body);
        let e = Entry { t: t_us, a, b, idx };
        self.len += 1;
        if t_us >= self.epoch_end {
            self.far.push(Reverse(e));
            return;
        }
        self.ring_live += 1;
        // Absolute end (exclusive) of the bucket the cursor is parked on.
        // The comparison must be on *time*, not the mod-SPAN bucket index:
        // when an idle queue's window has jumped ahead to a far-future
        // epoch, a new entry can be earlier than the whole window, and its
        // mod-SPAN index would silently file it into a future slot where
        // it pops a full rotation late.
        let cursor_end = self.epoch_end - SPAN + (((self.cur_bucket as u64) + 1) << SHIFT);
        if t_us < cursor_end {
            // At or behind the cursor (e.g. a zero-delay timer scheduled
            // while the cursor already sits on a later bucket, or a
            // cross-shard arrival behind a jumped window): the heap absorbs
            // it so nothing is ever parked behind the cursor.
            self.cur.push(Reverse(e));
        } else {
            let bi = ((t_us >> SHIFT) & MASK) as usize;
            self.buckets[bi].push(e);
        }
    }

    /// Moves every far-heap entry whose time now falls inside the epoch
    /// window into its ring bucket.
    fn refill_from_far(&mut self) {
        while let Some(Reverse(e)) = self.far.peek() {
            if e.t >= self.epoch_end {
                break;
            }
            let Reverse(e) = self.far.pop().unwrap();
            let bi = ((e.t >> SHIFT) & MASK) as usize;
            self.ring_live += 1;
            if bi < self.cur_bucket {
                self.cur.push(Reverse(e));
            } else {
                self.buckets[bi].push(e);
            }
        }
    }

    /// Parks the cursor on the bucket holding the earliest entry, with that
    /// bucket heapified into `cur`. No-op when `cur` is already non-empty.
    fn advance(&mut self) {
        while self.cur.is_empty() && self.len > 0 {
            if self.ring_live == 0 {
                // Ring empty: jump the window straight to the far heap's
                // earliest epoch instead of rotating through empty buckets.
                let t = self.far.peek().expect("len > 0 but both tiers empty").0.t;
                self.epoch_end = (t / SPAN + 1) * SPAN;
                self.cur_bucket = ((t >> SHIFT) & MASK) as usize;
                self.refill_from_far();
            } else {
                self.cur_bucket += 1;
                if self.cur_bucket == NBUCKETS {
                    self.cur_bucket = 0;
                    self.epoch_end += SPAN;
                    self.refill_from_far();
                }
            }
            let drained = std::mem::take(&mut self.buckets[self.cur_bucket]);
            self.cur.extend(drained.into_iter().map(Reverse));
        }
    }

    /// Time of the earliest queued event (advances the internal cursor, but
    /// never pops).
    pub fn peek_time(&mut self) -> Option<u64> {
        self.advance();
        self.cur.peek().map(|Reverse(e)| e.t)
    }

    /// Full `(t, a, b)` key of the earliest queued event (advances the
    /// internal cursor, but never pops). The sharded engine's `step` uses
    /// this to pick the globally earliest event across shard queues.
    pub fn peek_key(&mut self) -> Option<(u64, u64, u64)> {
        self.advance();
        self.cur.peek().map(|Reverse(e)| (e.t, e.a, e.b))
    }

    /// Pops the earliest event in strict `(t, a, b)` order.
    pub fn pop(&mut self) -> Option<(u64, u64, u64, T)> {
        self.advance();
        let Reverse(e) = self.cur.pop()?;
        self.len -= 1;
        self.ring_live -= 1;
        let body = self.slab[e.idx as usize].take().expect("slab entry vanished");
        self.free.push(e.idx);
        Some((e.t, e.a, e.b, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops everything, asserting strict key order, returning the keys.
    fn drain_sorted(q: &mut EventQueue<u64>) -> Vec<(u64, u64, u64)> {
        let mut out: Vec<(u64, u64, u64)> = Vec::new();
        while let Some((t, a, b, body)) = q.pop() {
            assert_eq!(body, t ^ a ^ b, "body follows its key through the slab");
            if let Some(&last) = out.last() {
                assert!(last <= (t, a, b), "pop order went backwards: {last:?} then {t},{a},{b}");
            }
            out.push((t, a, b));
        }
        out
    }

    #[test]
    fn pops_follow_total_key_order() {
        let mut q = EventQueue::new();
        // A spread of near, same-bucket, same-time and far-future keys.
        let mut keys: Vec<(u64, u64, u64)> = Vec::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let t = x % 20_000_000; // 0..20 s: several epochs
            let a = (x >> 32) % 8;
            keys.push((t, a, i));
        }
        for &(t, a, b) in &keys {
            q.push(t, a, b, t ^ a ^ b);
        }
        assert_eq!(q.len(), keys.len());
        let popped = drain_sorted(&mut q);
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(popped, want);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(5_000, 0, 1, 5_000 ^ 1);
        q.push(10_000_000, 0, 2, 10_000_000 ^ 2);
        assert_eq!(q.peek_time(), Some(5_000));
        let (t, _, _, _) = q.pop().unwrap();
        assert_eq!(t, 5_000);
        // Schedule at the exact popped time (zero-delay timer): the cursor
        // already sits on that bucket.
        q.push(5_000, 0, 3, 5_000 ^ 3);
        // And behind the cursor's bucket but in the future epoch-wise.
        q.push(5_500, 0, 4, 5_500 ^ 4);
        let popped = drain_sorted(&mut q);
        assert_eq!(popped, vec![(5_000, 0, 3), (5_500, 0, 4), (10_000_000, 0, 2)]);
    }

    #[test]
    fn far_future_events_cross_epochs() {
        let mut q = EventQueue::new();
        // One event per ~SPAN so every pop jumps the window.
        for i in 0..20u64 {
            q.push(i * (SPAN + 123), 0, i, (i * (SPAN + 123)) ^ i);
        }
        let popped = drain_sorted(&mut q);
        assert_eq!(popped.len(), 20);
    }

    #[test]
    fn push_behind_a_jumped_window_stays_visible() {
        // Regression: the sharded engine can push into a queue whose window
        // jumped several epochs ahead (an idle shard whose only remaining
        // event was far-future). The new entry's time is behind the whole
        // window; filing it by mod-SPAN bucket index would park it in a
        // future slot where it pops a rotation late and out of order.
        let mut q = EventQueue::new();
        let far = 3 * SPAN + 777; // several epochs out
        q.push(far, 0, 1, far ^ 1);
        // Peeking jumps the window to the far event's epoch.
        assert_eq!(q.peek_time(), Some(far));
        // A near arrival lands behind the jumped window; it must surface
        // immediately and pop before the far event.
        q.push(10_000, 0, 2, 10_000 ^ 2);
        assert_eq!(q.peek_time(), Some(10_000));
        let popped = drain_sorted(&mut q);
        assert_eq!(popped, vec![(10_000, 0, 2), (far, 0, 1)]);
    }

    #[test]
    fn slab_reuses_slots() {
        let mut q = EventQueue::new();
        for round in 0..3u64 {
            for i in 0..100u64 {
                let t = round * 1_000 + i;
                q.push(t, 0, i, t ^ i);
            }
            while q.pop().is_some() {}
        }
        assert!(q.slab.len() <= 100, "slab grew past the high-water mark: {}", q.slab.len());
    }
}
