//! Deterministic network-fault model for replication links.
//!
//! The replication channel between a shard primary and its warm standby is
//! the one part of the failover story the discrete-event engine did not
//! model: real links lose, reorder, duplicate, and delay messages, and
//! whole machine-room partitions silence them for a while. [`FaultyLink`]
//! closes that gap as a *seeded, replayable* queue: a [`FaultPlan`] fixes
//! the loss/duplication probabilities, the delay range, and the netsplit
//! windows, and every draw comes from one `SmallRng` seeded from the plan
//! — the same plan over the same send sequence produces byte-identical
//! delivery schedules, so every failover scenario built on top of it
//! replays exactly from its seed.
//!
//! Delivery order is `(deliver_at, send sequence)`: random per-message
//! delays reorder messages naturally (a later send drawing a shorter delay
//! overtakes an earlier one), while ties preserve send order — the same
//! two-key determinism discipline the engine's
//! [`EventQueue`](rtdls_sim::event::EventQueue) keeps within each event kind.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rtdls_core::prelude::SimTime;

/// A seeded description of how a link misbehaves. The default plan is a
/// perfect link; each fault dimension is opted into by a builder call.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for every probabilistic draw the link makes.
    pub seed: u64,
    /// Probability a sent message is silently dropped.
    pub loss: f64,
    /// Probability a sent message is delivered twice (the copy draws its
    /// own delay, so duplicates usually arrive out of order).
    pub duplicate: f64,
    /// Minimum extra latency added to every delivery.
    pub delay_min: f64,
    /// Maximum extra latency; `delay_max > delay_min` makes delays random
    /// and therefore reorders messages.
    pub delay_max: f64,
    /// Netsplit windows `[from, until)`: a message *sent* while one is
    /// open is dropped — both directions of a real partition, modeled at
    /// the sender.
    pub splits: Vec<(SimTime, SimTime)>,
}

impl FaultPlan {
    /// A perfect link (no loss, no duplication, zero delay): the control
    /// arm every fault sweep compares against.
    pub fn clean(seed: u64) -> Self {
        FaultPlan {
            seed,
            loss: 0.0,
            duplicate: 0.0,
            delay_min: 0.0,
            delay_max: 0.0,
            splits: Vec::new(),
        }
    }

    /// Drops each message with probability `p`.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss = p;
        self
    }

    /// Duplicates each delivered message with probability `p`.
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Delays each delivery by a uniform draw from `[min, max]`.
    pub fn with_delay(mut self, min: f64, max: f64) -> Self {
        assert!(min >= 0.0 && max >= min, "delay range must be ordered");
        self.delay_min = min;
        self.delay_max = max;
        self
    }

    /// Adds a netsplit window `[from, until)`.
    pub fn with_split(mut self, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "empty split window");
        self.splits.push((from, until));
        self
    }

    /// Whether a message sent at `now` falls inside a split window.
    pub fn split_at(&self, now: SimTime) -> bool {
        self.splits
            .iter()
            .any(|&(from, until)| now >= from && now < until)
    }
}

/// What a link did to the traffic it carried, for assertions and ops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages handed to [`FaultyLink::send`].
    pub sent: u64,
    /// Messages delivered (duplicates counted individually).
    pub delivered: u64,
    /// Messages dropped by random loss.
    pub lost: u64,
    /// Messages dropped because they were sent inside a split window.
    pub split_dropped: u64,
    /// Extra deliveries created by duplication.
    pub duplicated: u64,
}

/// One direction of a lossy, reordering, duplicating, partition-prone
/// link, with all misbehavior drawn deterministically from a [`FaultPlan`].
#[derive(Clone, Debug)]
pub struct FaultyLink<M> {
    plan: FaultPlan,
    rng: SmallRng,
    /// In-flight messages: `(deliver_at, send_seq, message)`.
    queue: Vec<(SimTime, u64, M)>,
    next_seq: u64,
    stats: LinkStats,
}

impl<M: Clone> FaultyLink<M> {
    /// A link misbehaving per `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SmallRng::seed_from_u64(plan.seed);
        FaultyLink {
            plan,
            rng,
            queue: Vec::new(),
            next_seq: 0,
            stats: LinkStats::default(),
        }
    }

    fn draw_delay(&mut self) -> f64 {
        if self.plan.delay_max > self.plan.delay_min {
            self.rng.gen_range(self.plan.delay_min..self.plan.delay_max)
        } else {
            self.plan.delay_min
        }
    }

    /// Sends `msg` at sim-time `now`. It is dropped (split window, random
    /// loss), delayed, and/or duplicated per the plan; survivors join the
    /// in-flight queue until [`deliver_due`](FaultyLink::deliver_due).
    pub fn send(&mut self, now: SimTime, msg: M) {
        self.stats.sent += 1;
        if self.plan.split_at(now) {
            self.stats.split_dropped += 1;
            return;
        }
        if self.plan.loss > 0.0 && self.rng.gen_bool(self.plan.loss) {
            self.stats.lost += 1;
            return;
        }
        let deliver_at = now + SimTime::new(self.draw_delay());
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.plan.duplicate > 0.0 && self.rng.gen_bool(self.plan.duplicate) {
            self.stats.duplicated += 1;
            let dup_at = now + SimTime::new(self.draw_delay());
            let dup_seq = self.next_seq;
            self.next_seq += 1;
            self.queue.push((dup_at, dup_seq, msg.clone()));
        }
        self.queue.push((deliver_at, seq, msg));
    }

    /// Pops every message due at or before `now`, in `(deliver_at, send
    /// sequence)` order — the receiver's view of the (possibly reordered)
    /// stream.
    pub fn deliver_due(&mut self, now: SimTime) -> Vec<M> {
        let mut due: Vec<(SimTime, u64, M)> = Vec::new();
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].0 <= now {
                due.push(self.queue.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by(|a, b| a.0.as_f64().total_cmp(&b.0.as_f64()).then(a.1.cmp(&b.1)));
        self.stats.delivered += due.len() as u64;
        due.into_iter().map(|(_, _, m)| m).collect()
    }

    /// The earliest in-flight delivery instant, if anything is in flight.
    pub fn next_delivery(&self) -> Option<SimTime> {
        self.queue
            .iter()
            .map(|(t, _, _)| *t)
            .min_by(|a, b| a.as_f64().total_cmp(&b.as_f64()))
    }

    /// In-flight message count.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Traffic accounting so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(link: &mut FaultyLink<u64>) -> Vec<u64> {
        link.deliver_due(SimTime::new(f64::MAX))
    }

    #[test]
    fn clean_link_delivers_everything_in_order() {
        let mut link = FaultyLink::new(FaultPlan::clean(1));
        for i in 0..100u64 {
            link.send(SimTime::new(i as f64), i);
        }
        let got = drain_all(&mut link);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        let stats = link.stats();
        assert_eq!(stats.sent, 100);
        assert_eq!(stats.delivered, 100);
        assert_eq!(stats.lost + stats.duplicated + stats.split_dropped, 0);
    }

    #[test]
    fn same_seed_replays_the_identical_delivery_schedule() {
        let plan = FaultPlan::clean(42)
            .with_loss(0.2)
            .with_duplication(0.15)
            .with_delay(0.5, 9.5);
        let run = |plan: FaultPlan| {
            let mut link = FaultyLink::new(plan);
            for i in 0..500u64 {
                link.send(SimTime::new(i as f64 * 0.25), i);
            }
            (drain_all(&mut link), link.stats())
        };
        let (a, sa) = run(plan.clone());
        let (b, sb) = run(plan.clone());
        assert_eq!(a, b, "identical seed, identical schedule");
        assert_eq!(sa, sb);
        let (c, _) = run(FaultPlan { seed: 43, ..plan });
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn random_delay_reorders_but_never_loses() {
        let mut link = FaultyLink::new(FaultPlan::clean(7).with_delay(0.0, 50.0));
        for i in 0..200u64 {
            link.send(SimTime::new(i as f64), i);
        }
        let got = drain_all(&mut link);
        assert_eq!(got.len(), 200, "delay alone loses nothing");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200).collect::<Vec<_>>());
        assert_ne!(got, sorted, "a 50-unit jitter over 1-unit spacing reorders");
    }

    #[test]
    fn split_window_silences_the_link_and_heals_after() {
        let mut link =
            FaultyLink::new(FaultPlan::clean(3).with_split(SimTime::new(10.0), SimTime::new(20.0)));
        for i in 0..30u64 {
            link.send(SimTime::new(i as f64), i);
        }
        let got = drain_all(&mut link);
        assert_eq!(got.len(), 20, "the 10 in-window sends vanished");
        assert!(got.iter().all(|&i| !(10..20).contains(&i)));
        assert_eq!(link.stats().split_dropped, 10);
    }

    #[test]
    fn duplication_delivers_copies_and_counts_them() {
        let mut link = FaultyLink::new(FaultPlan::clean(11).with_duplication(1.0));
        for i in 0..50u64 {
            link.send(SimTime::new(i as f64), i);
        }
        let got = drain_all(&mut link);
        assert_eq!(got.len(), 100, "every message doubled");
        assert_eq!(link.stats().duplicated, 50);
    }

    #[test]
    fn partial_delivery_respects_due_times() {
        let mut link = FaultyLink::new(FaultPlan::clean(5).with_delay(10.0, 10.0));
        link.send(SimTime::new(0.0), 1u64);
        link.send(SimTime::new(5.0), 2u64);
        assert_eq!(link.deliver_due(SimTime::new(9.0)), Vec::<u64>::new());
        assert_eq!(link.next_delivery(), Some(SimTime::new(10.0)));
        assert_eq!(link.deliver_due(SimTime::new(10.0)), vec![1]);
        assert_eq!(link.in_flight(), 1);
        assert_eq!(link.deliver_due(SimTime::new(15.0)), vec![2]);
        assert_eq!(link.in_flight(), 0);
        assert_eq!(link.next_delivery(), None);
    }
}
