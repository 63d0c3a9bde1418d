//! The Defer queue: second chances for near-miss tasks.
//!
//! The paper's admission test is binary — a task that fails the Fig. 2 test
//! is gone. Online, that wastes a common case: the test failed only because
//! the cluster is momentarily saturated, and the task's deadline still
//! leaves room to start later. Such *near-miss* tasks are parked in a
//! [`DeferredQueue`] and re-tested on every admission/completion event
//! until one of three things happens:
//!
//! * **rescued** — a re-test passes and the task is admitted (its deadline
//!   guarantee is exactly the one the Fig. 2 test always gives);
//! * **expired** — the clock passes the task's *latest feasible start*
//!   (even an idle cluster could no longer meet the deadline);
//! * **evicted** — the retry budget runs out (starvation bound).
//!
//! Re-tests sweep in **age order** (oldest ticket first), so a parked task
//! is never overtaken indefinitely by younger parked tasks, and the retry
//! bound guarantees every ticket leaves the queue after a finite number of
//! sweeps — the no-starvation property the service tests pin down.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use rtdls_core::prelude::{
    AlgorithmKind, ClusterParams, Infeasible, QosClass, SimTime, Task, TenantId,
};
use rtdls_core::time::TIME_EPS;

/// Tunables for the defer queue.
///
/// The policy is part of the gateway's durable state: journals persist it in
/// every snapshot so a recovered gateway sweeps its restored tickets under
/// the *same* retry bound, capacity, and age limit it promised them under.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeferPolicy {
    /// Re-test attempts before a ticket is evicted.
    pub max_retries: u32,
    /// Queue capacity; submissions beyond it are rejected outright.
    pub max_queue: usize,
    /// Re-tests per sweep (caps the per-event admission work; the sweep
    /// resumes from the oldest ticket next time, preserving age priority).
    #[serde(with = "unlimited_as_minus_one")]
    pub retest_budget: usize,
    /// Maximum simulated-time age of a ticket: a ticket parked for longer
    /// than this expires on the next sweep even if its latest feasible start
    /// has not passed. `None` (default) leaves the latest feasible start as
    /// the only time bound.
    pub max_age: Option<f64>,
}

/// The wire form of [`DeferPolicy::retest_budget`]: `usize::MAX` (no cap,
/// the default) is `-1` in every WAL written so far — the serializer used to
/// render a `usize` through `i64` — so that one value keeps that encoding in
/// both directions. Any other negative is damage, as for every `usize`.
mod unlimited_as_minus_one {
    use serde::de::{Number, Parser};
    use serde::{Error, Serialize};

    pub fn write_json(budget: &usize, out: &mut Vec<u8>) {
        match *budget {
            usize::MAX => (-1i64).write_json(out),
            capped => capped.write_json(out),
        }
    }

    pub fn read_json(p: &mut Parser<'_>) -> Result<usize, Error> {
        match p.number()? {
            Number::Int(-1) => Ok(usize::MAX),
            other => other.to_int("usize"),
        }
    }
}

impl Default for DeferPolicy {
    fn default() -> Self {
        DeferPolicy {
            max_retries: 16,
            max_queue: 1024,
            retest_budget: usize::MAX,
            max_age: None,
        }
    }
}

/// A parked near-miss task.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeferTicket {
    /// Monotonic ticket id (issue order = age order).
    pub id: u64,
    /// The parked task.
    pub task: Task,
    /// The tenant whose quota this ticket counts against. Absent in
    /// tickets journaled before the v2 request/verdict redesign, which
    /// restore as the anonymous tenant 0.
    #[serde(default)]
    pub tenant: TenantId,
    /// The QoS class of the original request (Standard when absent, as
    /// for `tenant`).
    #[serde(default)]
    pub qos: QosClass,
    /// When the task was parked.
    pub deferred_at: SimTime,
    /// Latest instant at which planning could still meet the deadline
    /// (computed against an idle cluster; past it the ticket expires).
    pub latest_start: SimTime,
    /// The admission failure that caused the deferral.
    pub cause: Infeasible,
    /// Re-tests attempted so far.
    pub retries: u32,
}

/// Why a ticket left the queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeferOutcome {
    /// Re-test passed; the task was admitted.
    Rescued,
    /// The latest feasible start passed before a re-test succeeded.
    Expired,
    /// The retry budget ran out.
    Evicted,
    /// The stream ended with the ticket still parked.
    Flushed,
}

/// The complete serializable state of a [`DeferredQueue`]: the policy it
/// promised its tickets, the parked tickets in age order, and the id counter
/// (so ticket ids stay unique across a crash/recovery boundary).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeferState {
    /// The queue's tunables (journaled so recovery sweeps under the same
    /// retry bound and age limit).
    pub policy: DeferPolicy,
    /// Next ticket id to issue.
    pub next_id: u64,
    /// Parked tickets, oldest first.
    pub tickets: Vec<DeferTicket>,
}

/// The age-ordered, retry-bounded queue of deferred tasks.
#[derive(Clone, Debug, Default)]
pub struct DeferredQueue {
    tickets: VecDeque<DeferTicket>,
    next_id: u64,
    policy: DeferPolicy,
}

impl DeferredQueue {
    /// An empty queue under `policy`.
    pub fn new(policy: DeferPolicy) -> Self {
        DeferredQueue {
            tickets: VecDeque::new(),
            next_id: 0,
            policy,
        }
    }

    /// The queue's policy.
    pub fn policy(&self) -> &DeferPolicy {
        &self.policy
    }

    /// Currently parked tickets, oldest first.
    pub fn tickets(&self) -> impl Iterator<Item = &DeferTicket> {
        self.tickets.iter()
    }

    /// Number of parked tickets.
    pub fn len(&self) -> usize {
        self.tickets.len()
    }

    /// `true` when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }

    /// Parks a task for `tenant` at tier `qos`. Returns the ticket id, or
    /// `None` when the queue is at capacity (the caller should reject the
    /// task instead).
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        task: Task,
        tenant: TenantId,
        qos: QosClass,
        now: SimTime,
        latest_start: SimTime,
        cause: Infeasible,
    ) -> Option<u64> {
        if self.tickets.len() >= self.policy.max_queue {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.tickets.push_back(DeferTicket {
            id,
            task,
            tenant,
            qos,
            deferred_at: now,
            latest_start,
            cause,
            retries: 0,
        });
        Some(id)
    }

    /// Number of parked tickets owned by `tenant` (a quota input).
    pub fn count_for(&self, tenant: TenantId) -> u32 {
        self.tickets.iter().filter(|t| t.tenant == tenant).count() as u32
    }

    /// One re-test sweep at time `now`: tickets are visited oldest-first, up
    /// to the policy's re-test budget. `try_admit` runs the actual
    /// schedulability test (and admits on success). Returns every ticket
    /// that left the queue, with its outcome, in departure order; the second
    /// return is the number of re-tests attempted.
    pub fn sweep(
        &mut self,
        now: SimTime,
        mut try_admit: impl FnMut(&Task) -> bool,
    ) -> (Vec<(DeferTicket, DeferOutcome)>, u64) {
        let mut departed = Vec::new();
        let mut kept = VecDeque::new();
        let mut budget = self.policy.retest_budget;
        let mut retests = 0u64;
        let aged_out = |t: &DeferTicket| match self.policy.max_age {
            Some(age) => now.definitely_after(t.deferred_at + SimTime::new(age)),
            None => false,
        };
        while let Some(mut ticket) = self.tickets.pop_front() {
            if now.definitely_after(ticket.latest_start) || aged_out(&ticket) {
                // Expiry costs no budget: it is a clock check, not a test.
                departed.push((ticket, DeferOutcome::Expired));
                continue;
            }
            if !now.definitely_after(ticket.deferred_at) {
                // A re-test at the deferral instant would replay the submit
                // that just failed; skip it without burning a retry.
                kept.push_back(ticket);
                continue;
            }
            if budget == 0 {
                kept.push_back(ticket);
                continue;
            }
            budget -= 1;
            retests += 1;
            if try_admit(&ticket.task) {
                departed.push((ticket, DeferOutcome::Rescued));
            } else {
                ticket.retries += 1;
                if ticket.retries >= self.policy.max_retries {
                    departed.push((ticket, DeferOutcome::Evicted));
                } else {
                    kept.push_back(ticket);
                }
            }
        }
        self.tickets = kept;
        (departed, retests)
    }

    /// The earliest instant at which a parked ticket's fate can change
    /// with no other cluster event: the first instant [`sweep`] sees its
    /// latest feasible start, or its max-age, as passed — strictly after
    /// the bound itself, which a sweep still re-tests at. Event-driven
    /// drivers (the network edge's reactor, the simulator) use this as a
    /// sweep timer so expiries are detected — and their resolutions pushed
    /// — even on an otherwise idle gateway, and a sweep at the instant it
    /// reports always retires a ticket. `None` when nothing is parked.
    ///
    /// [`sweep`]: DeferredQueue::sweep
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.tickets
            .iter()
            .map(|t| {
                let bound = match self.policy.max_age {
                    Some(age) => t.latest_start.min(t.deferred_at + SimTime::new(age)),
                    None => t.latest_start,
                };
                first_instant_after(bound)
            })
            .min()
    }

    /// Snapshots the complete queue state for journaling.
    pub fn state(&self) -> DeferState {
        DeferState {
            policy: self.policy,
            next_id: self.next_id,
            tickets: self.tickets.iter().cloned().collect(),
        }
    }

    /// Rebuilds a queue from a journaled state (the inverse of
    /// [`state`](DeferredQueue::state)): same policy, same tickets in age
    /// order, and an id counter that never re-issues a live ticket's id.
    pub fn from_state(state: DeferState) -> Self {
        let next_id = state
            .tickets
            .iter()
            .map(|t| t.id + 1)
            .max()
            .unwrap_or(0)
            .max(state.next_id);
        DeferredQueue {
            tickets: state.tickets.into(),
            next_id,
            policy: state.policy,
        }
    }

    /// Empties the queue (stream over), marking every ticket flushed.
    pub fn flush(&mut self) -> Vec<(DeferTicket, DeferOutcome)> {
        self.tickets
            .drain(..)
            .map(|t| (t, DeferOutcome::Flushed))
            .collect()
    }
}

/// The first instant `t` with `t.definitely_after(bound)`: the clock
/// comparison [`DeferredQueue::sweep`] expires a ticket by.
fn first_instant_after(bound: SimTime) -> SimTime {
    SimTime::new((bound.as_f64() + TIME_EPS).next_up())
}

/// The latest instant at which planning could still meet `task`'s deadline,
/// assuming the whole cluster were idle from that instant on — the upper
/// bound on how long a deferral can stay alive. `None` when even an idle
/// cluster flat-out cannot meet the deadline (the task is hopeless, not a
/// near-miss).
///
/// Uses the *minimum achievable makespan* for the task's strategy — the
/// widest allocation the strategy would ever grant on an idle cluster
/// (`E(σ, N)` for the DLT/OPR family; the Eq. 15 timeline at the user's
/// requested node count for User-Split) — so `deadline − makespan` is the
/// true last-start bound, not the near-zero slack a minimum-node plan
/// leaves. A ticket past this instant can never be rescued and expires.
pub fn latest_feasible_start(
    params: &ClusterParams,
    algorithm: AlgorithmKind,
    task: &Task,
) -> Option<SimTime> {
    use rtdls_core::dlt::homogeneous;
    use rtdls_core::strategy::StrategyKind;

    let makespan = match algorithm.strategy {
        StrategyKind::UserSplit => {
            let n = task
                .user_nodes
                .filter(|&n| n >= 1 && n <= params.num_nodes)?;
            // Eq. 15 on an idle cluster: serialized transmissions, the last
            // node finishes last.
            let chunk = task.data_size / n as f64;
            let tx = chunk * params.cms;
            (n - 1) as f64 * tx + tx + chunk * params.cps
        }
        // DLT-IIT on a uniformly idle cluster with all N nodes coincides
        // with the homogeneous optimum E(σ, N); multi-round only improves on
        // it, so E(σ, N) stays a safe (at worst slightly conservative) bound.
        _ => homogeneous::exec_time(params, task.data_size, params.num_nodes),
    };
    let slack = task.rel_deadline - makespan;
    if slack <= 0.0 {
        return None;
    }
    Some(task.arrival + SimTime::new(slack))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u64, deadline: f64) -> Task {
        Task::new(id, 0.0, 100.0, deadline)
    }

    fn park(q: &mut DeferredQueue, id: u64, latest: f64) -> u64 {
        q.push(
            task(id, 1e6),
            TenantId(id as u32 % 2),
            QosClass::Standard,
            SimTime::ZERO,
            SimTime::new(latest),
            Infeasible::CompletionAfterDeadline,
        )
        .expect("capacity")
    }

    #[test]
    fn next_deadline_is_the_earliest_expiry_across_bounds() {
        let mut q = DeferredQueue::new(DeferPolicy::default());
        assert_eq!(q.next_deadline(), None);
        park(&mut q, 1, 50.0);
        park(&mut q, 2, 20.0);
        let due = q.next_deadline().expect("parked");
        assert_eq!(due, first_instant_after(SimTime::new(20.0)));
        // The timer is the first instant the sweep expires at: the bound
        // itself is still a re-test, the reported instant never is.
        assert!(due > SimTime::new(20.0) && due < SimTime::new(20.0 + 2.0 * TIME_EPS));
        let (departed, retests) = q.clone().sweep(SimTime::new(20.0), |_| false);
        assert_eq!((departed.len(), retests), (0, 2));
        let (departed, retests) = q.sweep(due, |_| false);
        assert_eq!(retests, 1, "only the later ticket is re-tested");
        assert_eq!(departed[0].0.task.id.0, 2);
        assert!(matches!(departed[0].1, DeferOutcome::Expired));
        // A max-age tighter than the latest feasible start wins.
        let mut aged = DeferredQueue::new(DeferPolicy {
            max_age: Some(5.0),
            ..Default::default()
        });
        park(&mut aged, 3, 50.0);
        assert_eq!(
            aged.next_deadline(),
            Some(first_instant_after(SimTime::new(5.0)))
        );
        // Sweeping past the deadline retires the ticket and the timer.
        let (departed, _) = aged.sweep(SimTime::new(6.0), |_| false);
        assert_eq!(departed.len(), 1);
        assert!(matches!(departed[0].1, DeferOutcome::Expired));
        assert_eq!(aged.next_deadline(), None);
    }

    #[test]
    fn sweep_visits_oldest_first_and_rescues() {
        let mut q = DeferredQueue::new(DeferPolicy::default());
        park(&mut q, 1, 1e6);
        park(&mut q, 2, 1e6);
        park(&mut q, 3, 1e6);
        // Admit only the first task offered: age order means task 1 wins.
        let mut offered = Vec::new();
        let (departed, retests) = q.sweep(SimTime::new(1.0), |t| {
            offered.push(t.id.0);
            offered.len() == 1
        });
        assert_eq!(offered, vec![1, 2, 3], "sweep must visit in age order");
        assert_eq!(retests, 3);
        assert_eq!(departed.len(), 1);
        assert_eq!(departed[0].0.task.id.0, 1);
        assert_eq!(departed[0].1, DeferOutcome::Rescued);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn retry_budget_evicts_after_max_retries() {
        let policy = DeferPolicy {
            max_retries: 3,
            ..Default::default()
        };
        let mut q = DeferredQueue::new(policy);
        park(&mut q, 1, 1e6);
        for sweep in 1..=3u32 {
            let (departed, _) = q.sweep(SimTime::new(sweep as f64), |_| false);
            if sweep < 3 {
                assert!(departed.is_empty(), "sweep {sweep}");
                assert_eq!(q.tickets().next().unwrap().retries, sweep);
            } else {
                assert_eq!(departed.len(), 1);
                assert_eq!(departed[0].1, DeferOutcome::Evicted);
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    fn expiry_beats_retesting() {
        let mut q = DeferredQueue::new(DeferPolicy::default());
        park(&mut q, 1, 10.0);
        let (departed, retests) = q.sweep(SimTime::new(11.0), |_| {
            panic!("expired tickets must not be re-tested")
        });
        assert_eq!(retests, 0);
        assert_eq!(departed[0].1, DeferOutcome::Expired);
    }

    #[test]
    fn capacity_bound_rejects_overflow() {
        let policy = DeferPolicy {
            max_queue: 2,
            ..Default::default()
        };
        let mut q = DeferredQueue::new(policy);
        assert!(park_checked(&mut q, 1).is_some());
        assert!(park_checked(&mut q, 2).is_some());
        assert!(park_checked(&mut q, 3).is_none());
    }

    fn park_checked(q: &mut DeferredQueue, id: u64) -> Option<u64> {
        q.push(
            task(id, 1e6),
            TenantId::default(),
            QosClass::default(),
            SimTime::ZERO,
            SimTime::new(1e6),
            Infeasible::NotEnoughNodes,
        )
    }

    #[test]
    fn retest_budget_preserves_age_priority_across_sweeps() {
        let policy = DeferPolicy {
            retest_budget: 1,
            ..Default::default()
        };
        let mut q = DeferredQueue::new(policy);
        park(&mut q, 1, 1e6);
        park(&mut q, 2, 1e6);
        let mut offered = Vec::new();
        let (_, retests) = q.sweep(SimTime::new(1.0), |t| {
            offered.push(t.id.0);
            false
        });
        assert_eq!(retests, 1);
        q.sweep(SimTime::new(2.0), |t| {
            offered.push(t.id.0);
            false
        });
        // With budget 1, the oldest is retried first every sweep.
        assert_eq!(offered, vec![1, 1]);
    }

    #[test]
    fn max_age_expires_old_tickets_before_their_latest_start() {
        let policy = DeferPolicy {
            max_age: Some(5.0),
            ..Default::default()
        };
        let mut q = DeferredQueue::new(policy);
        park(&mut q, 1, 1e6); // latest start far away; age is the binding limit
        let (departed, retests) = q.sweep(SimTime::new(4.0), |_| false);
        assert!(departed.is_empty(), "within age limit: keep sweeping");
        assert_eq!(retests, 1);
        let (departed, retests) = q.sweep(SimTime::new(6.0), |_| {
            panic!("aged-out tickets must not be re-tested")
        });
        assert_eq!(retests, 0);
        assert_eq!(departed.len(), 1);
        assert_eq!(departed[0].1, DeferOutcome::Expired);
        assert!(q.is_empty());
    }

    #[test]
    fn state_round_trips_through_serde() {
        let policy = DeferPolicy {
            max_retries: 7,
            max_queue: 33,
            retest_budget: 5,
            max_age: Some(1234.5),
        };
        let mut q = DeferredQueue::new(policy);
        park(&mut q, 1, 5e5);
        park(&mut q, 2, 6e5);
        q.sweep(SimTime::new(1.0), |_| false); // give tickets some retries
        let state = q.state();
        let json = serde_json::to_string(&state).unwrap();
        let back: DeferState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        let restored = DeferredQueue::from_state(back);
        assert_eq!(restored.state(), state);
        assert_eq!(restored.policy(), &policy);
        let ids: Vec<u64> = restored.tickets().map(|t| t.id).collect();
        assert_eq!(ids, vec![0, 1], "age order preserved");
        // New tickets never collide with restored ids.
        let mut restored = restored;
        let new_id = park_checked(&mut restored, 9).unwrap();
        assert_eq!(new_id, 2);
        // Tenant attribution round-tripped too.
        assert_eq!(restored.count_for(TenantId(1)), 1);
    }

    #[test]
    fn flush_empties_everything() {
        let mut q = DeferredQueue::new(DeferPolicy::default());
        park(&mut q, 1, 1e6);
        park(&mut q, 2, 1e6);
        let flushed = q.flush();
        assert_eq!(flushed.len(), 2);
        assert!(flushed.iter().all(|(_, o)| *o == DeferOutcome::Flushed));
        assert!(q.is_empty());
    }

    #[test]
    fn latest_feasible_start_matches_full_cluster_slack() {
        use rtdls_core::dlt::homogeneous;
        let params = ClusterParams::paper_baseline();
        // Plenty of slack: latest start is deadline minus E(sigma, N).
        let roomy = Task::new(1, 0.0, 200.0, 50_000.0);
        let latest = latest_feasible_start(&params, AlgorithmKind::EDF_DLT, &roomy)
            .expect("feasible when idle");
        let e_full = homogeneous::exec_time(&params, 200.0, 16);
        assert!((latest.as_f64() - (50_000.0 - e_full)).abs() < 1e-9);
        assert!(latest.definitely_after(SimTime::ZERO));
        assert!(latest < roomy.absolute_deadline());
        // Hopeless even when idle: no latest start.
        let hopeless = Task::new(2, 0.0, 200.0, 150.0);
        assert_eq!(
            latest_feasible_start(&params, AlgorithmKind::EDF_DLT, &hopeless),
            None
        );
        // User-split: bound follows the Eq. 15 timeline for the user's n.
        let us = Task::new(3, 0.0, 200.0, 50_000.0).with_user_nodes(Some(4));
        let algo = AlgorithmKind::EDF_USER_SPLIT;
        let latest_us = latest_feasible_start(&params, algo, &us).unwrap();
        let chunk = 50.0;
        let makespan = 3.0 * chunk * 1.0 + chunk * 1.0 + chunk * 100.0;
        assert!((latest_us.as_f64() - (50_000.0 - makespan)).abs() < 1e-9);
        // User-split without a request is hopeless.
        let none = Task::new(4, 0.0, 200.0, 50_000.0);
        assert_eq!(latest_feasible_start(&params, algo, &none), None);
    }
}
