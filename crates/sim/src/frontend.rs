//! The admission frontend abstraction.
//!
//! The paper's head node is one [`AdmissionController`]: every arrival
//! produces an immediate Accept/Reject. Online serving layers need a
//! richer protocol — a gateway may *defer* a near-miss task and admit it
//! later when capacity frees up, or fan admission out across shards. This
//! module decouples the engine from the decision-maker: the engine drives
//! any [`Frontend`], and `rtdls-service` provides gateway implementations.
//!
//! The engine's contract with a frontend:
//!
//! * every arrival is passed to [`Frontend::submit_request`], which may
//!   resolve it immediately (`Accepted` / `Rejected`) or park it
//!   (`Pending`);
//! * after **every** admission or completion event the engine calls
//!   [`Frontend::on_event`] — the re-test hook where deferred tasks get
//!   another shot — and then collects newly resolved verdicts via
//!   [`Frontend::drain_resolutions`] for metrics accounting;
//! * when the event queue drains, [`Frontend::finalize`] must resolve every
//!   still-pending task so the books close (`arrivals = accepted +
//!   rejected`).

use rtdls_core::prelude::{
    Admission, AdmissionController, AdmissionFailure, Decision, Infeasible, SimTime, SubmitRequest,
    Task, TaskId, TaskPlan,
};

/// The engine-visible outcome of submitting one task to a [`Frontend`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SubmitOutcome {
    /// Admitted into the waiting queue; it will dispatch and complete.
    Accepted,
    /// Rejected for good, with the planning-level cause.
    Rejected(Infeasible),
    /// Neither admitted nor rejected yet (e.g. parked in a defer queue); the
    /// verdict arrives later through [`Frontend::drain_resolutions`].
    Pending,
}

impl SubmitOutcome {
    /// Maps a plain controller [`Decision`].
    pub fn from_decision(d: Decision) -> Self {
        match d {
            Decision::Accepted => SubmitOutcome::Accepted,
            Decision::Rejected(cause) => SubmitOutcome::Rejected(cause),
        }
    }
}

/// An admission decision-maker the simulation engine can drive.
///
/// [`AdmissionController`] implements this trait directly (the paper's
/// baseline behavior); `rtdls-service` implements it for its gateways.
pub trait Frontend {
    /// Decides a newly arrived task carried in its [`SubmitRequest`]
    /// envelope (tenant, QoS class, reservation tolerance) at time `now`.
    /// Frontends without tenant awareness (the bare admission controllers)
    /// decide on the task alone; service gateways run the full
    /// request/verdict protocol. A reservation verdict surfaces as
    /// [`SubmitOutcome::Pending`] and resolves through
    /// [`Frontend::drain_resolutions`] once it activates (or fails).
    fn submit_request(&mut self, request: &SubmitRequest, now: SimTime) -> SubmitOutcome;

    /// Re-plans the waiting queue against current committed releases.
    fn replan(&mut self, now: SimTime) -> Result<(), AdmissionFailure>;

    /// Removes and returns every waiting task due for dispatch at `now`,
    /// with node ids in the engine's (global) node space.
    fn take_due(&mut self, now: SimTime) -> Vec<(Task, TaskPlan)>;

    /// Earliest planned first-transmission instant across the waiting queue.
    fn next_dispatch_due(&self) -> Option<SimTime>;

    /// Committed release time of one (global) node.
    fn committed_release(&self, node: usize) -> SimTime;

    /// Overrides one (global) node's committed release with an actual value.
    fn set_node_release(&mut self, node: usize, time: SimTime);

    /// Number of admitted, undispatched tasks.
    fn waiting_len(&self) -> usize;

    /// The current plan of a waiting task, if any.
    fn find_plan(&self, task: TaskId) -> Option<&TaskPlan>;

    /// Re-test hook, called after every admission/completion event. Deferred
    /// tasks are re-tested here; rescued tasks join the waiting queue.
    fn on_event(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Activation hook, called after the dispatches at the current instant
    /// have committed (unlike [`Frontend::on_event`], which runs before
    /// them). Reservation-capable frontends admit every reservation whose
    /// `start_at` has been reached here — the post-dispatch position is
    /// load-bearing, because a reservation's start instant is typically
    /// exactly a dispatch instant and the activation test must see that
    /// dispatch's releases as committed.
    fn activate(&mut self, now: SimTime) {
        let _ = now;
    }

    /// The next instant this frontend wants to be driven at even if no
    /// cluster event occurs (e.g. the earliest reservation `start_at`).
    /// The engine schedules a wakeup event for it; `None` = no wakeup.
    fn next_wakeup(&self) -> Option<SimTime> {
        None
    }

    /// Verdicts for previously [`SubmitOutcome::Pending`] tasks reached
    /// since the last call (`None` = accepted, `Some(cause)` = rejected).
    fn drain_resolutions(&mut self) -> Vec<(Task, Option<Infeasible>)> {
        Vec::new()
    }

    /// Called once when the event queue has drained: resolve every task
    /// still pending (no more capacity will ever free up).
    fn finalize(&mut self, now: SimTime) {
        let _ = now;
    }
}

// `Frontend` and `Admission` share five method names; the path calls say
// which one is meant.
impl Frontend for AdmissionController {
    fn submit_request(&mut self, request: &SubmitRequest, now: SimTime) -> SubmitOutcome {
        SubmitOutcome::from_decision(self.submit(request.task, now))
    }

    fn replan(&mut self, now: SimTime) -> Result<(), AdmissionFailure> {
        Admission::replan(self, now)
    }

    fn take_due(&mut self, now: SimTime) -> Vec<(Task, TaskPlan)> {
        Admission::take_due(self, now)
    }

    fn next_dispatch_due(&self) -> Option<SimTime> {
        Admission::next_dispatch_due(self)
    }

    fn committed_release(&self, node: usize) -> SimTime {
        self.committed_releases()[node]
    }

    fn set_node_release(&mut self, node: usize, time: SimTime) {
        Admission::set_node_release(self, node, time);
    }

    fn waiting_len(&self) -> usize {
        self.queue_len()
    }

    fn find_plan(&self, task: TaskId) -> Option<&TaskPlan> {
        Admission::find_plan(self, task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdls_core::prelude::{AlgorithmKind, ClusterParams, PlanConfig};

    #[test]
    fn controller_frontend_delegates_faithfully() {
        let mut ctl = AdmissionController::new(
            ClusterParams::paper_baseline(),
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
        );
        let t = Task::new(1, 0.0, 200.0, 30_000.0);
        let outcome = Frontend::submit_request(&mut ctl, &SubmitRequest::new(t), SimTime::ZERO);
        assert_eq!(outcome, SubmitOutcome::Accepted);
        assert_eq!(Frontend::waiting_len(&ctl), 1);
        assert!(Frontend::find_plan(&ctl, t.id).is_some());
        assert_eq!(Frontend::next_dispatch_due(&ctl), Some(SimTime::ZERO));
        assert_eq!(Frontend::committed_release(&ctl, 0), SimTime::ZERO);
        assert!(Frontend::drain_resolutions(&mut ctl).is_empty());

        let hopeless = Task::new(2, 0.0, 200.0, 100.0);
        let outcome =
            Frontend::submit_request(&mut ctl, &SubmitRequest::new(hopeless), SimTime::ZERO);
        assert_eq!(
            outcome,
            SubmitOutcome::Rejected(Infeasible::NoTimeForTransmission)
        );
    }
}
