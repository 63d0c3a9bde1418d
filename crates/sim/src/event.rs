//! The discrete-event queue.
//!
//! Events are ordered by `(time, type priority, insertion sequence)`. The
//! type priority resolves simultaneous events deterministically and in the
//! causally sensible order: a node releasing at time `t` is visible to an
//! arrival at the same `t`, and due work runs after state changes.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rtdls_core::prelude::{NodeId, SimTime, Task, TaskId};

/// A simulation event.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A node finished computing its chunk of `task` and is free again.
    NodeRelease {
        /// The freed node.
        node: NodeId,
        /// The task whose chunk just completed.
        task: TaskId,
    },
    /// A task arrives and requests admission.
    Arrival(Task),
    /// The frontend's next timed work is due ([`Serve::next_due`]: a
    /// planned dispatch, a reservation activation, a defer deadline, a
    /// replication channel's next delivery); carries the generation it was
    /// scheduled under (stale generations are ignored). Runs after
    /// same-instant releases and arrivals, whose own turns may already
    /// have done the work.
    ///
    /// [`Serve::next_due`]: crate::serve::Serve::next_due
    Due {
        /// Plan-generation stamp at scheduling time.
        generation: u64,
    },
}

impl Event {
    /// Tie-break priority at equal timestamps (lower runs first).
    fn priority(&self) -> u8 {
        match self {
            Event::NodeRelease { .. } => 0,
            Event::Arrival(_) => 1,
            Event::Due { .. } => 2,
        }
    }
}

/// A scheduled event.
#[derive(Clone, Debug)]
struct Entry {
    time: SimTime,
    priority: u8,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest entry first.
        (other.time, other.priority, other.seq).cmp(&(self.time, self.priority, self.seq))
    }
}

/// Min-queue of timed events with deterministic tie-breaking.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time,
            priority: event.priority(),
            seq,
            event,
        });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn release(node: u32) -> Event {
        Event::NodeRelease {
            node: NodeId(node),
            task: TaskId(0),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(5.0), release(1));
        q.push(SimTime::new(1.0), release(2));
        q.push(SimTime::new(3.0), release(3));
        let times: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_f64())
            .collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn equal_times_order_by_type_priority() {
        let mut q = EventQueue::new();
        let t = SimTime::new(7.0);
        q.push(t, Event::Due { generation: 0 });
        q.push(t, Event::Arrival(Task::new(1, 7.0, 1.0, 1.0)));
        q.push(t, release(4));
        let kinds: Vec<u8> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| e.priority())
            .collect();
        assert_eq!(
            kinds,
            vec![0, 1, 2],
            "release before arrival before due work"
        );
    }

    #[test]
    fn equal_everything_orders_by_insertion() {
        let mut q = EventQueue::new();
        let t = SimTime::new(1.0);
        q.push(t, Event::Arrival(Task::new(10, 1.0, 1.0, 1.0)));
        q.push(t, Event::Arrival(Task::new(20, 1.0, 1.0, 1.0)));
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Arrival(task) => task.id.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![10, 20]);
    }

    #[test]
    fn peek_and_len_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::new(2.0), release(0));
        q.push(SimTime::new(1.0), release(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }
}
