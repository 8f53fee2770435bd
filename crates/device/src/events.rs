//! A deterministic simulated-time event queue.
//!
//! The cycle-based engine in `helios-fl` models synchronous rounds
//! directly; this queue is the substrate for *continuous-time* studies
//! (e.g. fully event-driven asynchronous arrivals, heterogeneous
//! communication delays). Events fire in timestamp order; ties break by
//! insertion order, so identically-seeded simulations replay identically.
//!
//! # Example
//!
//! ```
//! use helios_device::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_secs(5.0), "b-finishes");
//! q.schedule(SimTime::from_secs(2.0), "a-finishes");
//! q.schedule(SimTime::from_secs(5.0), "c-finishes"); // same time as b
//! let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
//! assert_eq!(order, vec!["a-finishes", "b-finishes", "c-finishes"]);
//! ```

use crate::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: reverse so the earliest time (then the
        // lowest sequence number) pops first. `total_cmp` agrees with the
        // ordinary float order on the finite non-negative values SimTime
        // guarantees, and is total, so no fallible unwrap is needed.
        other
            .time
            .as_secs_f64()
            .total_cmp(&self.time.as_secs_f64())
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-queue of `(SimTime, E)` events with deterministic FIFO
/// tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3.0), 3);
        q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule(SimTime::from_secs(2.0), 2);
        assert_eq!(q.heap.len(), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert!(q.heap.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::from_secs(7.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop_stay_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10.0), "late");
        q.schedule(SimTime::from_secs(1.0), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.schedule(SimTime::from_secs(5.0), "middle");
        assert_eq!(q.pop().unwrap().1, "middle");
        assert_eq!(q.pop().unwrap().1, "late");
        assert!(q.pop().is_none());
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<u8> = EventQueue::default();
        assert!(q.heap.is_empty());
    }
}
