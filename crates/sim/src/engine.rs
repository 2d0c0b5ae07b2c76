//! A small discrete-event simulation engine.
//!
//! This is the substrate standing in for CloudSim (§5: "The CloudSim
//! simulation framework was used in the tests"): a deterministic event
//! queue with a monotonic clock. Events carry a generic payload; ties on
//! the timestamp break by insertion order, so simulations are exactly
//! reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulated time, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Raw seconds.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

struct Scheduled<E> {
    time: f64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops
        // first, FIFO within a timestamp.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: f64,
    seq: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: 0.0,
            seq: 0,
            processed: 0,
        }
    }

    /// The current simulation time (the timestamp of the last popped
    /// event, or zero).
    pub fn now(&self) -> SimTime {
        SimTime(self.now)
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` lies in the past (events may be scheduled *at* the
    /// current instant) or is not finite.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(at.0.is_finite(), "event time must be finite, got {}", at.0);
        assert!(
            at.0 >= self.now,
            "cannot schedule into the past ({} < {})",
            at.0,
            self.now
        );
        self.heap.push(Scheduled {
            time: at.0,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.time >= self.now, "clock went backwards");
        self.now = ev.time;
        self.processed += 1;
        Some((SimTime(ev.time), ev.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(3.0), "c");
        q.schedule(SimTime(1.0), "a");
        q.schedule(SimTime(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime(3.0));
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1.0), "first");
        q.schedule(SimTime(1.0), "second");
        q.schedule(SimTime(1.0), "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(5.0));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(2.0), ());
        q.pop();
        q.schedule(SimTime(1.0), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(2.0), 1);
        q.pop();
        q.schedule(SimTime(2.0), 2);
        assert_eq!(q.pop(), Some((SimTime(2.0), 2)));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(SimTime(f64::NAN), ());
    }
}
