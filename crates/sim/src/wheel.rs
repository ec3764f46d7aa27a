//! A hierarchical timing-wheel event queue.
//!
//! [`WheelQueue`] is the simulation kernel's future-event list: events pop
//! in `(time, seq)` order, so simultaneous events fire in FIFO (scheduling)
//! order, with O(1) amortized insert and pop instead of a binary heap's
//! O(log n). The near-horizon events that
//! dominate session scheduling land in the lowest wheel level and never touch
//! a comparison-based structure.
//!
//! # Design
//!
//! The wheel has `LEVELS` levels of `SLOTS` slots each (`BITS` bits of
//! the tick count per level, covering the full `u64` tick range). A cursor
//! `now` tracks the earliest tick the wheel may still contain. An entry at
//! tick `t >= now` lives at the level of the highest 6-bit digit in which `t`
//! differs from `now`; its slot is `t`'s digit at that level. Level 0 slots
//! therefore hold **exactly one tick value each**, so popping from level 0
//! needs no comparisons and preserves insertion order within a tick.
//!
//! When a level-0 frame drains, the search advances `now` to the next
//! occupied slot (found via one occupancy bitmap word per level) and
//! *cascades*: the first occupied higher-level slot is drained and its
//! entries re-inserted relative to the new `now`, landing at strictly lower
//! levels. Each entry cascades at most `LEVELS - 1` times, giving O(1)
//! amortized pops. Slot storage is a `VecDeque` per slot which retains its
//! capacity across drains, so a steady-state simulation stops allocating.
//!
//! Pushes *before* `now` (possible because callers may schedule at times
//! already popped) go to a small overflow heap ordered by `(time, seq)`;
//! every overflow entry is strictly earlier than every wheel entry, so the
//! overflow heap always pops first and global FIFO-within-timestamp order is
//! preserved. The model-based property test in `tests/wheel_props.rs` pins
//! this order against a binary-heap reference queue.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Bits of the tick count consumed per wheel level.
const BITS: u32 = 6;
/// Slots per level (`2^BITS`).
const SLOTS: usize = 1 << BITS;
/// Levels needed to cover a full `u64` tick range (`ceil(64 / BITS)`).
const LEVELS: usize = 11;

#[derive(Debug)]
struct Entry<E> {
    ticks: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.ticks == other.ticks && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ticks, self.seq).cmp(&(other.ticks, other.seq))
    }
}

/// A deterministic future-event list backed by a hierarchical timing wheel.
///
/// See the module docs for the data-structure design.
///
/// # Examples
///
/// ```
/// use hc_sim::{SimTime, WheelQueue};
///
/// let mut q = WheelQueue::new();
/// q.push(SimTime::from_secs(2), "b");
/// q.push(SimTime::from_secs(1), "a");
/// q.push(SimTime::from_secs(2), "c"); // same instant as "b", scheduled later
///
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct WheelQueue<E> {
    /// `LEVELS * SLOTS` slot queues, row-major by level.
    slots: Vec<VecDeque<Entry<E>>>,
    /// One occupancy bit per slot, one word per level.
    occ: [u64; LEVELS],
    /// Earliest tick the wheel may still contain; after [`Self::settle`],
    /// equal to the earliest occupied tick when the wheel is non-empty.
    now: u64,
    /// Cached earliest wheel tick (`None` when the wheel part is empty).
    wheel_next: Option<u64>,
    /// Entries pushed at ticks strictly before `now`.
    past: BinaryHeap<Reverse<Entry<E>>>,
    len: usize,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for WheelQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn digit(ticks: u64, level: usize) -> usize {
    ((ticks >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
}

#[inline]
fn level_of(now: u64, ticks: u64) -> usize {
    let diff = now ^ ticks;
    if diff == 0 {
        0
    } else {
        ((63 - diff.leading_zeros()) / BITS) as usize
    }
}

impl<E> WheelQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        let mut slots = Vec::with_capacity(LEVELS * SLOTS);
        slots.resize_with(LEVELS * SLOTS, VecDeque::new);
        WheelQueue {
            slots,
            occ: [0; LEVELS],
            now: 0,
            wheel_next: None,
            past: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
            popped: 0,
        }
    }

    /// Creates an empty queue pre-sized for roughly `cap` pending events.
    ///
    /// The hint is spread over the level-0 slots (where steady-state traffic
    /// lands); slot queues retain their capacity across drains, so this
    /// mostly pre-pays the first wheel rotation's growth.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        let per_slot = cap / SLOTS;
        if per_slot > 0 {
            for slot in q.slots.iter_mut().take(SLOTS) {
                slot.reserve(per_slot);
            }
        }
        q
    }

    /// Inserts an entry relative to the current `now`; caller guarantees
    /// `ticks >= self.now`. Does not touch `len`/`seq` bookkeeping.
    fn insert_wheel(&mut self, entry: Entry<E>) {
        debug_assert!(entry.ticks >= self.now);
        let level = level_of(self.now, entry.ticks);
        let slot = digit(entry.ticks, level);
        self.occ[level] |= 1 << slot;
        self.slots[level * SLOTS + slot].push_back(entry); // hc-analyze: allow(P1): level < LEVELS and slot < SLOTS by digit extraction, so the flat index is in bounds
    }

    /// Advances `now` to the earliest occupied tick, cascading higher-level
    /// slots down as frames are entered, and refreshes `wheel_next`.
    fn settle(&mut self) {
        'outer: loop {
            // Level 0 holds exact ticks; the first occupied slot at or after
            // the cursor's digit is the wheel minimum.
            let d0 = digit(self.now, 0);
            let avail = self.occ[0] & (!0u64 << d0);
            if avail != 0 {
                let j = u64::from(avail.trailing_zeros());
                let next = (self.now & !(SLOTS as u64 - 1)) | j;
                self.now = next;
                self.wheel_next = Some(next);
                return;
            }
            // Level 0 is empty past the cursor: enter the next occupied
            // frame of the lowest occupied level and cascade it down.
            for level in 1..LEVELS {
                let dl = digit(self.now, level);
                let mask = if dl + 1 >= SLOTS {
                    0
                } else {
                    !0u64 << (dl + 1)
                };
                let avail = self.occ[level] & mask;
                if avail == 0 {
                    continue;
                }
                let j = u64::from(avail.trailing_zeros());
                let shift = BITS * level as u32;
                let high = match shift.checked_add(BITS) {
                    Some(s) if s < 64 => !0u64 << s,
                    _ => 0,
                };
                // Everything between the old cursor and this frame is empty
                // (all lower levels were), so the jump skips nothing.
                self.now = (self.now & high) | (j << shift);
                self.occ[level] &= !(1 << j);
                let drained = std::mem::take(&mut self.slots[level * SLOTS + j as usize]); // hc-analyze: allow(P1): level < LEVELS and j < SLOTS from the bitmap scan, so the flat index is in bounds
                for entry in drained {
                    self.insert_wheel(entry);
                }
                continue 'outer;
            }
            self.wheel_next = None;
            return;
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let ticks = time.ticks();
        let entry = Entry {
            ticks,
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        if self.len == 0 {
            // Empty queue: re-anchor the cursor so re-use at earlier times
            // stays on the wheel instead of accumulating in the past heap.
            self.now = ticks;
        }
        self.len += 1;
        if ticks < self.now {
            self.past.push(Reverse(entry));
        } else {
            self.insert_wheel(entry);
            self.wheel_next = Some(self.wheel_next.map_or(ticks, |w| w.min(ticks)));
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Past-heap entries are all strictly earlier than `now <= wheel_next`,
        // so they drain first; within the heap, `(ticks, seq)` order matches
        // global FIFO-within-timestamp order.
        if let Some(Reverse(entry)) = self.past.pop() {
            self.len -= 1;
            self.popped += 1;
            return Some((SimTime::from_ticks(entry.ticks), entry.event));
        }
        self.settle();
        let next = self.wheel_next?;
        let slot = digit(next, 0);
        let queue = &mut self.slots[slot];
        #[expect(
            clippy::expect_used,
            reason = "settle() leaves wheel_next pointing at a non-empty level-0 slot"
        )]
        let entry = queue.pop_front().expect("occupied level-0 slot");
        debug_assert_eq!(entry.ticks, next);
        if queue.is_empty() {
            self.occ[0] &= !(1 << slot);
        }
        self.len -= 1;
        self.popped += 1;
        self.settle();
        Some((SimTime::from_ticks(entry.ticks), entry.event))
    }

    /// The firing time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(Reverse(entry)) = self.past.peek() {
            return Some(SimTime::from_ticks(entry.ticks));
        }
        self.wheel_next.map(SimTime::from_ticks)
    }

    /// Removes and returns the earliest event only if it fires at or before
    /// `horizon`; otherwise leaves the queue untouched.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= horizon {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever scheduled.
    #[must_use]
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }

    /// Total events ever popped.
    #[must_use]
    pub fn popped_count(&self) -> u64 {
        self.popped
    }

    /// Discards all pending events (counters are retained).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
        self.occ = [0; LEVELS];
        self.past.clear();
        self.wheel_next = None;
        self.now = 0;
        self.len = 0;
    }

    /// Drains all events firing at or before `horizon`, in order.
    pub fn drain_through(&mut self, horizon: SimTime) -> Vec<(SimTime, E)> {
        let mut out = Vec::new();
        while let Some(item) = self.pop_before(horizon) {
            out.push(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = WheelQueue::new();
        for s in [5u64, 1, 4, 2, 3] {
            q.push(t(s), s);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = WheelQueue::new();
        for label in ["first", "second", "third"] {
            q.push(t(7), label);
        }
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn push_before_cursor_uses_past_heap() {
        let mut q = WheelQueue::new();
        q.push(t(100), "late");
        assert_eq!(q.pop().unwrap().1, "late");
        // The cursor now sits at t=100; earlier pushes must still pop first,
        // in (time, seq) order.
        q.push(t(200), "future");
        q.push(t(5), "past-b");
        q.push(t(3), "past-a");
        q.push(t(5), "past-c");
        assert_eq!(q.pop().unwrap(), (t(3), "past-a"));
        assert_eq!(q.pop().unwrap(), (t(5), "past-b"));
        assert_eq!(q.pop().unwrap(), (t(5), "past-c"));
        assert_eq!(q.pop().unwrap(), (t(200), "future"));
    }

    #[test]
    fn cascades_across_levels() {
        let mut q = WheelQueue::new();
        // Spread entries across several wheel levels, including the top.
        let ticks = [
            0u64,
            1,
            63,
            64,
            65,
            4095,
            4096,
            1 << 20,
            (1 << 20) + 7,
            1 << 40,
            u64::MAX - 1,
            u64::MAX,
        ];
        for (i, &tk) in ticks.iter().enumerate() {
            q.push(SimTime::from_ticks(tk), i);
        }
        let mut sorted: Vec<u64> = ticks.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(at, _)| at.ticks())).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn peek_and_pop_before_respect_horizon() {
        let mut q = WheelQueue::new();
        q.push(t(10), "late");
        q.push(t(2), "early");
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop_before(t(5)), Some((t(2), "early")));
        assert_eq!(q.pop_before(t(5)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn counters_and_clear() {
        let mut q = WheelQueue::new();
        q.push(t(1), ());
        q.push(t(2), ());
        assert_eq!(q.scheduled_count(), 2);
        q.pop();
        assert_eq!(q.popped_count(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.scheduled_count(), 2);
        q.push(t(1), ());
        assert_eq!(q.pop(), Some((t(1), ())));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: WheelQueue<()> = WheelQueue::with_capacity(256);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        assert!(q.drain_through(SimTime::MAX).is_empty());
    }

    #[test]
    fn reanchors_after_draining() {
        let mut q = WheelQueue::new();
        q.push(SimTime::from_ticks(1 << 50), "far");
        assert!(q.pop().is_some());
        // Fully drained: a much earlier push should land on the wheel again.
        q.push(t(1), "near");
        assert_eq!(q.peek_time(), Some(t(1)));
        assert_eq!(q.pop().unwrap().1, "near");
    }
}
