//! Model-based equivalence: [`WheelQueue`] vs the heap-backed
//! [`EventQueue`] it replaced, kept here as the oracle. Any observable
//! divergence — pop order, FIFO stability within a timestamp, peek,
//! horizon-bounded pops, counters — under arbitrary interleavings of
//! operations (including pushes before already-popped times) is a
//! determinism bug.

use hc_sim::{SimTime, WheelQueue};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The oracle: a binary heap keyed on `(time, seq)`, so simultaneous
/// events pop in scheduling order. The unique sequence number decides
/// every tie before the payload is ever compared.
#[derive(Debug)]
struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
    next_seq: u64,
    popped: u64,
}

impl<E: Ord> EventQueue<E> {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
        }
    }

    fn push(&mut self, time: SimTime, event: E) {
        self.heap.push(Reverse((time, self.next_seq, event)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((time, _, event)) = self.heap.pop()?;
        self.popped += 1;
        Some((time, event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((time, _, _))| *time)
    }

    fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= horizon {
            self.pop()
        } else {
            None
        }
    }

    fn drain_through(&mut self, horizon: SimTime) -> Vec<(SimTime, E)> {
        std::iter::from_fn(|| self.pop_before(horizon)).collect()
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn scheduled_count(&self) -> u64 {
        self.next_seq
    }

    fn popped_count(&self) -> u64 {
        self.popped
    }
}

/// One scripted operation against both queues. `value` parameterizes the
/// push time / horizon; tick values mix dense low ticks (forcing same-tick
/// FIFO collisions) with spread-out high ticks (forcing multi-level
/// cascades).
fn op_tick(raw: u64) -> u64 {
    match raw % 4 {
        0 => raw % 48,                // dense: same-tick collisions
        1 => (raw % 100_000) * 64,    // frame boundaries
        2 => raw % (1 << 40),         // deep levels
        _ => u64::MAX - (raw % 1000), // top of the range
    }
}

fn run_script(ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
    let mut wheel: WheelQueue<u64> = WheelQueue::new();
    let mut heap: EventQueue<u64> = EventQueue::new();
    let mut payload = 0u64;
    for &(kind, raw) in ops {
        match kind % 6 {
            // Push dominates so the structures stay populated.
            0..=2 => {
                let at = SimTime::from_ticks(op_tick(raw));
                wheel.push(at, payload);
                heap.push(at, payload);
                payload += 1;
            }
            3 => {
                prop_assert_eq!(wheel.pop(), heap.pop());
            }
            4 => {
                let horizon = SimTime::from_ticks(op_tick(raw));
                prop_assert_eq!(wheel.pop_before(horizon), heap.pop_before(horizon));
            }
            _ => {
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            }
        }
        prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        prop_assert_eq!(wheel.len(), heap.len());
        prop_assert_eq!(wheel.is_empty(), heap.is_empty());
        prop_assert_eq!(wheel.scheduled_count(), heap.scheduled_count());
        prop_assert_eq!(wheel.popped_count(), heap.popped_count());
    }
    // Drain both to the end: the full remaining order must match.
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        prop_assert_eq!(w, h);
        if h.is_none() {
            break;
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn wheel_matches_heap_model(ops in prop::collection::vec((0u8..6, 0u64..u64::MAX), 0..400)) {
        run_script(&ops)?;
    }

    #[test]
    fn wheel_matches_heap_on_dense_same_tick_bursts(
        ops in prop::collection::vec((0u8..6, 0u64..64), 0..200),
    ) {
        // All pushes land in a handful of ticks: maximal FIFO pressure.
        run_script(&ops)?;
    }

    #[test]
    fn drain_through_matches(
        ticks in prop::collection::vec(0u64..u64::MAX, 1..100),
        horizon_raw in 0u64..u64::MAX,
    ) {
        let mut wheel: WheelQueue<usize> = WheelQueue::new();
        let mut heap: EventQueue<usize> = EventQueue::new();
        for (i, &raw) in ticks.iter().enumerate() {
            let at = SimTime::from_ticks(op_tick(raw));
            wheel.push(at, i);
            heap.push(at, i);
        }
        let horizon = SimTime::from_ticks(op_tick(horizon_raw));
        prop_assert_eq!(wheel.drain_through(horizon), heap.drain_through(horizon));
        prop_assert_eq!(wheel.len(), heap.len());
    }
}
