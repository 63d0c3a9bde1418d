//! The discrete-event queue.
//!
//! Events come from three sources: the workload's **arrivals**, handed over
//! by [`EventQueue::prime`] and kept as one stream sorted by arrival time;
//! **node releases**, one per dispatched chunk; and **due work**, the
//! frontend's next due instant, re-armed after every turn. Only the last
//! two, which the run schedules itself, sit in a binary heap: a pop sifts
//! through the chunks in flight, never through the workload still to come.
//!
//! One order covers all three: `(time, kind, insertion sequence)`. At one
//! instant a release runs first (a node freed at `t` is visible to an
//! arrival at `t`), then arrivals, then due work (after the state changes
//! whose own turns may already have done it). Within a kind, ties keep
//! insertion order: arrivals as primed (one batch by task id, a later batch
//! after every arrival already queued), the rest as pushed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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

/// An event the run schedules itself, as the heap holds it. (Its `Ord`
/// never decides: the insertion sequence ahead of it is unique.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Scheduled {
    NodeRelease { node: NodeId, task: TaskId },
    Due { generation: u64 },
}

/// The kind rank of an arrival at equal times (lower runs first).
const ARRIVAL: u8 = 1;

impl Scheduled {
    /// The kind rank: a release before an [`ARRIVAL`], due work after it.
    fn priority(self) -> u8 {
        match self {
            Scheduled::NodeRelease { .. } => 0,
            Scheduled::Due { .. } => 2,
        }
    }
}

/// Min-queue of timed events with deterministic tie-breaking.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Arrivals not yet popped, sorted by arrival time.
    arrivals: VecDeque<Task>,
    /// `(time, kind, insertion sequence, event)`, earliest on top.
    heap: BinaryHeap<Reverse<(SimTime, u8, u64, Scheduled)>>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a workload's arrivals (any order; arrival times rule, ties
    /// by id). Arrivals already queued keep their order, ahead of any task
    /// of this batch at the same instant.
    pub fn prime(&mut self, tasks: impl IntoIterator<Item = Task>) {
        let queued = self.arrivals.len();
        self.arrivals.extend(tasks);
        let all = self.arrivals.make_contiguous();
        all[queued..].sort_by_key(|t| (t.arrival, t.id));
        // Two sorted runs: a stable sort merges them in one pass.
        all.sort_by_key(|t| t.arrival);
    }

    /// Schedules the release of `node` by `task`'s chunk at `time`.
    pub fn push_release(&mut self, time: SimTime, node: NodeId, task: TaskId) {
        self.push(time, Scheduled::NodeRelease { node, task });
    }

    /// Schedules due work stamped with `generation` at `time`.
    pub fn push_due(&mut self, time: SimTime, generation: u64) {
        self.push(time, Scheduled::Due { generation });
    }

    fn push(&mut self, time: SimTime, event: Scheduled) {
        self.heap
            .push(Reverse((time, event.priority(), self.next_seq, event)));
        self.next_seq += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let arrival_first = match (self.arrivals.front(), self.heap.peek()) {
            (Some(a), Some(Reverse((time, kind, ..)))) => (a.arrival, ARRIVAL) < (*time, *kind),
            (arrival, _) => arrival.is_some(),
        };
        if arrival_first {
            return self
                .arrivals
                .pop_front()
                .map(|task| (task.arrival, Event::Arrival(task)));
        }
        let Reverse((time, _, _, event)) = self.heap.pop()?;
        let event = match event {
            Scheduled::NodeRelease { node, task } => Event::NodeRelease { node, task },
            Scheduled::Due { generation } => Event::Due { generation },
        };
        Some((time, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    /// The single-heap queue the stream replaced, kept as the reference:
    /// every event, arrivals included, in one heap ordered by `(time,
    /// kind, insertion sequence)`.
    #[derive(Default)]
    struct SingleHeap {
        heap: BinaryHeap<HeapEntry>,
        next_seq: u64,
    }

    struct HeapEntry {
        time: SimTime,
        priority: u8,
        seq: u64,
        event: Event,
    }

    impl PartialEq for HeapEntry {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for HeapEntry {}

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            (other.time, other.priority, other.seq).cmp(&(self.time, self.priority, self.seq))
        }
    }

    impl SingleHeap {
        fn push(&mut self, time: SimTime, event: Event) {
            let priority = match event {
                Event::NodeRelease { .. } => 0,
                Event::Arrival(_) => 1,
                Event::Due { .. } => 2,
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(HeapEntry {
                time,
                priority,
                seq,
                event,
            });
        }

        /// What the engine's `prime` did: sort, then push one by one.
        fn prime(&mut self, mut tasks: Vec<Task>) {
            tasks.sort_by_key(|t| (t.arrival, t.id));
            for t in tasks {
                self.push(t.arrival, Event::Arrival(t));
            }
        }

        fn pop(&mut self) -> Option<(SimTime, Event)> {
            self.heap.pop().map(|e| (e.time, e.event))
        }
    }

    fn release(node: u32) -> Event {
        Event::NodeRelease {
            node: NodeId(node),
            task: TaskId(0),
        }
    }

    fn drain(q: &mut EventQueue) -> Vec<(SimTime, Event)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push_release(SimTime::new(5.0), NodeId(1), TaskId(0));
        q.push_due(SimTime::new(1.0), 0);
        q.prime([Task::new(7, 3.0, 1.0, 1.0)]);
        let times: Vec<f64> = drain(&mut q).iter().map(|(t, _)| t.as_f64()).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn equal_times_order_by_kind() {
        let mut q = EventQueue::new();
        let t = SimTime::new(7.0);
        q.push_due(t, 0);
        q.prime([Task::new(1, 7.0, 1.0, 1.0)]);
        q.push_release(t, NodeId(4), TaskId(0));
        let events: Vec<Event> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(
            events,
            vec![
                release(4),
                Event::Arrival(Task::new(1, 7.0, 1.0, 1.0)),
                Event::Due { generation: 0 }
            ],
            "release before arrival before due work"
        );
    }

    #[test]
    fn a_later_batch_queues_behind_arrivals_at_the_same_instant() {
        let mut q = EventQueue::new();
        q.prime([Task::new(20, 1.0, 1.0, 1.0), Task::new(10, 1.0, 1.0, 1.0)]);
        q.prime([Task::new(5, 1.0, 1.0, 1.0), Task::new(30, 0.5, 1.0, 1.0)]);
        let ids: Vec<u64> = drain(&mut q)
            .into_iter()
            .map(|(_, e)| match e {
                Event::Arrival(task) => task.id.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![30, 10, 20, 5]);
    }

    /// One step of a random schedule: prime a batch, push a release or due
    /// work, or pop.
    #[derive(Clone, Debug)]
    enum Op {
        Prime(Vec<(u8, u64)>),
        Release(u8, u32, u64),
        Due(u8, u64),
        Pop,
    }

    fn op() -> impl Strategy<Value = Op> {
        (
            0u8..10,
            prop::collection::vec((0u8..6, 0u64..8), 0..6),
            0u8..6,
            0u32..4,
            0u64..8,
        )
            .prop_map(|(kind, batch, at, node, key)| match kind {
                0 => Op::Prime(batch),
                1 | 2 => Op::Release(at, node, key),
                3 => Op::Due(at, key),
                _ => Op::Pop,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// The stream beside the heap pops exactly what one heap of every
        /// event pops, the same time and event, under any interleaving:
        /// batches primed before and after pops began, equal instants
        /// across all three kinds and among arrivals (few distinct times,
        /// repeated ids). Times never precede the last pop, as in a run.
        #[test]
        fn the_stream_beside_the_heap_pops_what_one_heap_pops(
            ops in prop::collection::vec(op(), 0..60),
        ) {
            let mut q = EventQueue::new();
            let mut reference = SingleHeap::default();
            let mut now = 0.0;
            let time = |now: f64, at: u8| SimTime::new(now + f64::from(at / 2));
            for op in ops.into_iter().chain(std::iter::repeat_n(Op::Pop, 400)) {
                match op {
                    Op::Prime(batch) => {
                        let tasks: Vec<Task> = batch
                            .iter()
                            .map(|&(at, id)| Task::new(id, time(now, at), 1.0, 1.0))
                            .collect();
                        q.prime(tasks.iter().copied());
                        reference.prime(tasks);
                    }
                    Op::Release(at, node, task) => {
                        q.push_release(time(now, at), NodeId(node), TaskId(task));
                        reference.push(time(now, at), Event::NodeRelease { node: NodeId(node), task: TaskId(task) });
                    }
                    Op::Due(at, generation) => {
                        q.push_due(time(now, at), generation);
                        reference.push(time(now, at), Event::Due { generation });
                    }
                    Op::Pop => {
                        let got = q.pop();
                        prop_assert_eq!(&got, &reference.pop());
                        if let Some((t, _)) = got {
                            now = t.as_f64();
                        }
                    }
                }
            }
            prop_assert!(q.pop().is_none());
        }
    }
}
