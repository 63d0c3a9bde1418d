//! [`Serve`]: the one serving surface — the paper's bare head node or a
//! whole gateway stack — driven in turns by this crate's engine and by the
//! network edge's reactor alike.
//!
//! **The turn contract.** A driver works in serving turns: any number of
//! [`decide`](Serve::decide) calls, then one [`drive`](Serve::drive), which
//! dispatches what fell due, re-tests parked work, activates due
//! reservations, hands the driver the [`Turn`] and then *commits* it — a
//! durable layer makes the turn's record durable there, a shipping one
//! ships it. Nothing decided since the last turn may leave the process (a
//! verdict on a socket, a resolution counted, a frame sent to a follower)
//! before that turn's `drive` has returned. A driver drives again at
//! [`next_due`](Serve::next_due) even if nothing arrives.
//!
//! No method here shares a name with an [`Admission`] method, so a type
//! implementing both never needs a path call to say which one it means.
//!
//! [`Admission`]: rtdls_core::prelude::Admission

use rtdls_core::prelude::{
    Admission, AdmissionController, AdmissionFailure, Decision, Infeasible, SimTime, SubmitRequest,
    Task, TaskId, TaskPlan,
};

/// The engine-visible outcome of one [`Serve::decide`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SubmitOutcome {
    /// Admitted into the waiting queue; it will dispatch and complete.
    Accepted,
    /// Rejected for good, with the planning-level cause.
    Rejected(Infeasible),
    /// Neither admitted nor rejected yet (parked in a defer queue, or
    /// booked for later); the verdict arrives in a later [`Turn`].
    Pending,
}

impl From<Decision> for SubmitOutcome {
    fn from(d: Decision) -> Self {
        match d {
            Decision::Accepted => SubmitOutcome::Accepted,
            Decision::Rejected(cause) => SubmitOutcome::Rejected(cause),
        }
    }
}

/// A task an earlier [`Serve::decide`] left pending, resolved: `None` =
/// admitted, `Some(cause)` = rejected.
pub type Resolution = (Task, Option<Infeasible>);

/// What one serving turn hands its driver.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Turn {
    /// Every waiting task whose first transmission fell due, in dispatch
    /// order, node ids in the driver's (global) node space.
    pub dispatched: Vec<(Task, TaskPlan)>,
    /// Pending tasks the turn resolved (defer rescues and expiries,
    /// reservation activations).
    pub resolved: Vec<Resolution>,
}

impl Turn {
    /// `true` when the turn neither dispatched nor resolved anything.
    pub fn is_empty(&self) -> bool {
        self.dispatched.is_empty() && self.resolved.is_empty()
    }
}

/// A decision-maker driven in serving turns (see the module docs).
///
/// [`AdmissionController`] implements it directly — the paper's baseline,
/// where `decide` is the Fig. 2 test and `drive` takes the due plans —
/// and `rtdls-service` implements it for every gateway layer.
pub trait Serve {
    /// The verdict `decide` answers with.
    type Outcome: Into<SubmitOutcome>;

    /// Decides one submission at `now`. The answer is part of the current
    /// turn: it may leave the process only after the next
    /// [`drive`](Serve::drive) has returned.
    fn decide(&mut self, request: &SubmitRequest, now: SimTime) -> Self::Outcome;

    /// Runs the turn's timed work at `now` and commits the turn (see the
    /// module docs).
    fn drive(&mut self, now: SimTime) -> Turn;

    /// The earliest instant at which timed work falls due; `None` =
    /// nothing scheduled. A drive at that instant acts: after a turn at
    /// `now` that dispatched and resolved nothing, it lies after `now`.
    fn next_due(&self) -> Option<SimTime>;

    /// End of stream: resolves every task still parked (no capacity will
    /// ever free up again) and returns those resolutions.
    fn finalize(&mut self, now: SimTime) -> Vec<Resolution> {
        let _ = now;
        Vec::new()
    }

    /// Re-plans the waiting queue against the current committed releases.
    fn replan_waiting(&mut self, now: SimTime) -> Result<(), AdmissionFailure>;

    /// Committed release time of one (global) node.
    fn committed_release(&self, node: usize) -> SimTime;

    /// One (global) node actually released at `at`: overrides its
    /// committed release.
    fn node_released(&mut self, node: usize, at: SimTime);

    /// The current plan of a waiting task, if any (timing fields; node ids
    /// may be layer-local — dispatched plans are the global ones).
    fn plan_of(&self, task: TaskId) -> Option<&TaskPlan>;
}

impl Serve for AdmissionController {
    type Outcome = Decision;

    fn decide(&mut self, request: &SubmitRequest, now: SimTime) -> Decision {
        self.submit(request.task, now)
    }

    fn drive(&mut self, now: SimTime) -> Turn {
        Turn {
            dispatched: self.take_due(now),
            resolved: Vec::new(),
        }
    }

    fn next_due(&self) -> Option<SimTime> {
        self.next_dispatch_due()
    }

    fn replan_waiting(&mut self, now: SimTime) -> Result<(), AdmissionFailure> {
        self.replan(now)
    }

    fn committed_release(&self, node: usize) -> SimTime {
        self.committed_releases()[node]
    }

    fn node_released(&mut self, node: usize, at: SimTime) {
        self.set_node_release(node, at);
    }

    fn plan_of(&self, task: TaskId) -> Option<&TaskPlan> {
        self.find_plan(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdls_core::prelude::{AlgorithmKind, ClusterParams, PlanConfig};

    #[test]
    fn the_controller_serves_what_it_admits() {
        let mut ctl = AdmissionController::new(
            ClusterParams::paper_baseline(),
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
        );
        let t = Task::new(1, 0.0, 200.0, 30_000.0);
        let outcome: SubmitOutcome = ctl.decide(&SubmitRequest::new(t), SimTime::ZERO).into();
        assert_eq!(outcome, SubmitOutcome::Accepted);
        assert_eq!(ctl.queue_len(), 1);
        assert!(ctl.plan_of(t.id).is_some());
        assert_eq!(ctl.next_due(), Some(SimTime::ZERO));
        assert_eq!(ctl.committed_release(0), SimTime::ZERO);
        assert!(ctl.finalize(SimTime::ZERO).is_empty());

        let hopeless = Task::new(2, 0.0, 200.0, 100.0);
        let outcome: SubmitOutcome = ctl
            .decide(&SubmitRequest::new(hopeless), SimTime::ZERO)
            .into();
        assert_eq!(
            outcome,
            SubmitOutcome::Rejected(Infeasible::NoTimeForTransmission)
        );

        let turn = ctl.drive(SimTime::ZERO);
        assert_eq!(turn.dispatched.len(), 1);
        assert!(turn.resolved.is_empty());
        assert_eq!(ctl.next_due(), None);
    }
}
