//! The schedulability test and the admission engines (Fig. 2 of the paper).
//!
//! On each task arrival the scheduler decides, *online*, whether the new task
//! can be admitted without compromising any previously admitted task. The
//! test rebuilds a tentative schedule ("TempSchedule") for the waiting queue
//! plus the newcomer: tasks are taken in policy order, each is planned by the
//! configured strategy against the evolving node-release vector, and any
//! estimated deadline miss fails the whole test — the newcomer is rejected
//! and the previously feasible plans are kept.
//!
//! One engine serves that contract and one checks it, both behind the
//! [`Admission`] trait:
//!
//! * [`AdmissionController`] ([`incremental`]) — the engine every layer
//!   above this crate runs. It caches, per waiting task, the exact planning
//!   inputs its current plan was derived from, and on each event re-plans
//!   only the tasks whose inputs actually changed (typically the suffix
//!   after the newcomer's policy position).
//! * [`reference::ReferenceController`] — a literal whole-queue replan per
//!   event, exactly the paper's pseudocode, `O(queue)` planning calls per
//!   arrival. It is the oracle: reuse in the production engine is gated on
//!   *provable input equality*, so the two must be decision-, plan- and
//!   state-identical, and the differential suite
//!   (`tests/differential_admission.rs`) replays every scenario through
//!   both and asserts exact equality after every operation. It is public
//!   so tests and the criterion guard can name it, and in no prelude so
//!   nothing serves traffic with it by accident.
//!
//! Rejection here corresponds to the paper's deadline renegotiation footnote:
//! the cluster proxy would bounce the job back to the client with modified
//! parameters; from the scheduler's perspective the task simply leaves.
//! *Which* modified parameters would have passed is what a refusal
//! explanation searches for ([`ExplainSearch`], [`AdmissionExplanation`]):
//! dozens of what-if tests against one book, as a resumable search a fleet
//! can race shard against shard (`explain.rs`) — with the literal
//! one-test-per-probe search kept as the oracle's, like the engine itself.
//!
//! Every production walk — the engine's passes, the verdict walk and the
//! reservation search (`probe.rs`) — runs on the engine's own queue and
//! cache (the reuse invariant, stated once in [`incremental`]) and takes its
//! steps on one kernel (`walk.rs`): the release vector and its sorted
//! availability, kept sorted across steps. The oracle does not:
//! [`schedulability_test`] takes a fresh, fully sorted snapshot at each step
//! and shares nothing with the kernel but [`plan_task`].

use serde::{Deserialize, Serialize};

use crate::algorithm::AlgorithmKind;
use crate::error::{Infeasible, ModelError};
use crate::params::ClusterParams;
use crate::request::SubmitRequest;
use crate::strategy::{plan_task, NodeAvailability, PlanConfig, TaskPlan};
use crate::task::{Task, TaskId};
use crate::time::SimTime;

mod explain;
pub mod incremental;
mod probe;
pub mod reference;
mod walk;

pub use explain::{AdmissionExplanation, Bracket, ExplainSearch};
pub use incremental::AdmissionController;

/// Why (and for which task) a schedulability test failed.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct AdmissionFailure {
    /// The first task in policy order that could not be feasibly planned.
    pub task: TaskId,
    /// The planning-level reason.
    pub reason: Infeasible,
}

impl core::fmt::Display for AdmissionFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "task {:?} infeasible: {}", self.task, self.reason)
    }
}

impl std::error::Error for AdmissionFailure {}

// Hand-written for a reason a derive cannot state: `Infeasible` travels by
// display string — in results output, in journaled `cause` fields and on the
// edge wire — not by variant name.
impl Serialize for Infeasible {
    fn write_json(&self, out: &mut Vec<u8>) {
        self.as_str().write_json(out)
    }
}

impl Deserialize for Infeasible {
    fn read_json(p: &mut serde::de::Parser<'_>) -> Result<Self, serde::Error> {
        // The inverse of `Display`. The type is journaled and sent on the
        // edge wire, so a damaged or foreign cause is an error, never a
        // silently substituted one.
        let s = p.string()?;
        Infeasible::ALL
            .into_iter()
            .find(|cause| cause.as_str() == s)
            .ok_or_else(|| serde::Error::msg(format!("unknown infeasibility cause {s:?}")))
    }
}

/// Runs the Fig. 2 schedulability test.
///
/// * `now` — the planning instant (the newcomer's arrival, or the current
///   event time for a replanning pass).
/// * `committed_releases` — per-node release times of *dispatched* work only
///   (index = node id); waiting tasks are replanned from scratch.
/// * `waiting` — currently admitted but undispatched tasks, any order.
/// * `candidate` — the newly arrived task, or `None` for a replanning pass.
///
/// On success returns the feasible plans in policy (execution) order.
///
/// ```
/// use rtdls_core::prelude::*;
///
/// let params = ClusterParams::paper_baseline();
/// let idle = vec![SimTime::ZERO; params.num_nodes];
/// let task = Task::new(1, 0.0, 200.0, 30_000.0);
/// let plans = schedulability_test(
///     &params,
///     AlgorithmKind::EDF_DLT,
///     &PlanConfig::default(),
///     SimTime::ZERO,
///     &idle,
///     &[],          // empty waiting queue
///     Some(&task),
/// )
/// .unwrap();
/// assert_eq!(plans.len(), 1);
/// assert!(!plans[0].est_completion.definitely_after(task.absolute_deadline()));
/// ```
pub fn schedulability_test(
    params: &ClusterParams,
    algorithm: AlgorithmKind,
    cfg: &PlanConfig,
    now: SimTime,
    committed_releases: &[SimTime],
    waiting: &[Task],
    candidate: Option<&Task>,
) -> Result<Vec<TaskPlan>, AdmissionFailure> {
    debug_assert_eq!(committed_releases.len(), params.num_nodes);
    let mut tasks: Vec<Task> = Vec::with_capacity(waiting.len() + 1);
    tasks.extend_from_slice(waiting);
    if let Some(t) = candidate {
        tasks.push(*t);
    }
    algorithm.policy.sort(&mut tasks);

    let mut releases = committed_releases.to_vec();
    let mut plans = Vec::with_capacity(tasks.len());
    for task in &tasks {
        let avail = NodeAvailability::new(&releases, now);
        let plan = plan_task(algorithm.strategy, task, &avail, params, cfg).map_err(|reason| {
            AdmissionFailure {
                task: task.id,
                reason,
            }
        })?;
        debug_assert!(
            !plan
                .est_completion
                .definitely_after(task.absolute_deadline()),
            "strategy returned a plan missing its deadline"
        );
        for (node, &rel) in plan.nodes.iter().zip(&plan.node_release_estimates) {
            releases[node.index()] = rel;
        }
        plans.push(plan);
    }
    Ok(plans)
}

/// The outcome of submitting a task to an admission engine.
#[derive(Clone, Debug, PartialEq)]
pub enum Decision {
    /// Admitted; the waiting queue was replanned and remains feasible.
    Accepted,
    /// Rejected; previously admitted tasks keep their plans.
    Rejected(Infeasible),
}

impl Decision {
    /// `true` if the task was admitted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Decision::Accepted)
    }
}

/// The complete serializable state of an admission engine — the durable
/// "book" a persistence layer journals and a recovery path restores.
///
/// Both implementors produce and consume the same shape (the production
/// engine's reuse cache is derived state, rebuilt lazily), so a journal
/// written by the full-replan engine of earlier versions recovers under
/// this one. Round-trips through
/// the in-repo serde stand-ins ([`Admission::state`] /
/// [`Admission::from_state`]); equality of two states is equality of the
/// controllers they rebuild.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ControllerState {
    /// Cluster shape the controller plans against.
    pub params: ClusterParams,
    /// Scheduling policy × partitioning strategy.
    pub algorithm: AlgorithmKind,
    /// Planning knobs (release bookkeeping, node-count selection).
    pub cfg: PlanConfig,
    /// Committed per-node release times (index = node id).
    pub releases: Vec<SimTime>,
    /// Waiting tasks with their current plans, in execution order.
    pub queue: Vec<(Task, TaskPlan)>,
}

impl ControllerState {
    /// Structural validation shared by every engine's `from_state`: the
    /// release vector matches the cluster shape, the queue is in policy
    /// order (the production engine walks it as it stands; equal keys are a
    /// shadowed id, and legal) and each queued plan is internally consistent,
    /// has at least one chunk and belongs to its task.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.releases.len() != self.params.num_nodes {
            return Err(ModelError::InvalidParams(
                "release vector length must equal num_nodes",
            ));
        }
        let key = |(task, _): &(Task, TaskPlan)| self.algorithm.policy.key(task);
        if self.queue.windows(2).any(|w| key(&w[1]) < key(&w[0])) {
            return Err(ModelError::InvalidParams("queue is not in policy order"));
        }
        for (task, plan) in &self.queue {
            if plan.task != task.id {
                return Err(ModelError::InvalidParams(
                    "queued plan does not belong to its task",
                ));
            }
            if plan
                .nodes
                .iter()
                .any(|n| n.index() >= self.params.num_nodes)
            {
                return Err(ModelError::InvalidParams(
                    "queued plan references a node outside the cluster",
                ));
            }
            // A plan comes due at its first chunk's transmission.
            if plan.nodes.is_empty()
                || plan.nodes.len() != plan.node_release_estimates.len()
                || plan.nodes.len() != plan.start_times.len()
                || plan.nodes.len() != plan.fractions.len()
            {
                return Err(ModelError::InvalidParams(
                    "queued plan has no chunks or inconsistent chunk vectors",
                ));
            }
        }
        Ok(())
    }
}

/// The production engine's reuse counters (see
/// [`AdmissionController::profile`]): how many queue positions were
/// re-planned, how many were served from the cache, how many reuse gates
/// took a comparison, and how many refusals were answered from a
/// remembered one. Telemetry folds them into the unified metrics registry;
/// what planning *costs* is timed by the profiler's `gateway/plan` phase,
/// off the engine's hot path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Queue positions whose cached plan was reused verbatim.
    pub plans_reused: u64,
    /// Queue positions (or candidates) that went through `plan_task`.
    pub plans_computed: u64,
    /// Reuse gates decided by comparing a cached plan's release vector with
    /// the walk's, node by node; the others followed from the gate ahead of
    /// them (the lemma in [`incremental`]) or had no cached plan.
    pub gates_compared: u64,
    /// Submissions refused by a remembered refusal: the walk reached the
    /// candidate's insertion point on the inputs an earlier refusal of the
    /// same task went on from, and planned nothing further.
    pub refusals_reused: u64,
}

impl EngineProfile {
    /// Fraction of positions served from the cache (0 when nothing ran).
    pub fn reuse_rate(&self) -> f64 {
        let total = self.plans_reused + self.plans_computed;
        if total == 0 {
            0.0
        } else {
            self.plans_reused as f64 / total as f64
        }
    }
}

/// The contract the production engine and its oracle are compared under:
/// the head node's view of the waiting queue, the committed node releases,
/// and the current feasible plans. Each implementor defines every method
/// here and nowhere else, so callers bring the trait into scope (it is in
/// the prelude).
///
/// Engines are clock-agnostic — callers (the discrete-event simulator, or a
/// real dispatcher) drive them with explicit times. Invariants:
///
/// * every waiting task has a plan whose estimate meets its deadline;
/// * plans are kept in policy order (`queue()[0]` executes first);
/// * committed releases only ever refer to dispatched work;
/// * both implementors are **observably identical**: the same call
///   sequence produces the same decisions, plans, releases, and state (the
///   differential oracle suite enforces this).
pub trait Admission: Clone + core::fmt::Debug {
    /// An engine for an idle cluster (all nodes available at time zero).
    fn new(params: ClusterParams, algorithm: AlgorithmKind, cfg: PlanConfig) -> Self;

    /// Cluster parameters.
    fn params(&self) -> &ClusterParams;

    /// The algorithm this engine runs.
    fn algorithm(&self) -> AlgorithmKind;

    /// Planning knobs this engine tests with.
    fn config(&self) -> &PlanConfig;

    /// Committed per-node release times (index = node id).
    fn committed_releases(&self) -> &[SimTime];

    /// Current waiting tasks and plans, in execution order.
    fn queue(&self) -> &[(Task, TaskPlan)];

    /// Number of waiting (admitted, undispatched) tasks.
    fn queue_len(&self) -> usize {
        self.queue().len()
    }

    /// The current plan of a waiting task (first id match in execution
    /// order), if any.
    fn find_plan(&self, id: TaskId) -> Option<&TaskPlan> {
        self.queue()
            .iter()
            .find(|(t, _)| t.id == id)
            .map(|(_, p)| p)
    }

    /// Runs the schedulability test for a newly arrived task at time `now`
    /// (normally `task.arrival`). On acceptance the whole waiting queue is
    /// (logically) re-planned; on rejection nothing changes.
    fn submit(&mut self, task: Task, now: SimTime) -> Decision;

    /// Non-mutating admission probe: the same test as [`submit`] runs, but
    /// the engine state is untouched either way.
    ///
    /// [`submit`]: Admission::submit
    fn probe(&self, task: &Task, now: SimTime) -> Decision {
        match self.probe_plan(task, now) {
            Ok(_) => Decision::Accepted,
            Err(f) => Decision::Rejected(f.reason),
        }
    }

    /// Like [`probe`](Admission::probe) but returns the plan the candidate
    /// would receive (with its completion estimate, for best-fit routing)
    /// instead of a bare decision.
    fn probe_plan(&self, task: &Task, now: SimTime) -> Result<TaskPlan, AdmissionFailure>;

    /// The first dispatch instant after `now` at which `task` would pass the
    /// schedulability test against this engine's book as it will stand then,
    /// assuming no further arrivals; `None` when no dispatch of the current
    /// queue ever makes room — only an *external* change (an early release, a
    /// removal, a competing arrival rejected) could. Non-mutating. Asked once
    /// the test at `now` has failed: by the service's reservation search and
    /// by a refusal explanation.
    ///
    /// The engine's deterministic future has one kind of state change left:
    /// *dispatches*. When the clock reaches a waiting plan's first
    /// transmission start, the task leaves the queue and its release
    /// estimates become committed — after which a candidate is planned
    /// *behind* it instead of competing with it in policy order (the
    /// mechanism that lets an EDF-early candidate stop starving a
    /// later-deadline waiting task it would otherwise push past its
    /// deadline). The search tests exactly those instants,
    /// `{first_start(p) > now}`, and returns the first that passes: the
    /// earliest feasible *dispatch instant*. Between two of them the test's
    /// inputs only get worse with time (availability is `max(r, t)`,
    /// non-decreasing in `t`) — an argument, not yet a proof, that nothing
    /// strictly inside an interval is feasible when its left endpoint is
    /// not (ROADMAP item 4).
    ///
    /// An instant definitely after the task's own absolute deadline is
    /// never feasible and need not be walked: if the walk there reaches the
    /// task, every node is available no earlier than the instant, so the
    /// task's own plan fails under every strategy (no slack left before its
    /// first transmission); if a waiting task ahead of it fails first, the
    /// instant fails anyway. The production search stops there, and skips
    /// what its cache shows to be repeats ([`incremental`], "Verdicts, by
    /// the same argument"); the oracle walks every instant in full, and the
    /// differential suite compares the two.
    fn earliest_start_after(&self, task: &Task, now: SimTime) -> Option<SimTime>;

    /// The earliest feasible start `t ≥ now`, composed: `Some(now)` when the
    /// task passes the test at `now` ([`probe_plan`](Admission::probe_plan)),
    /// else [`earliest_start_after`](Admission::earliest_start_after).
    fn earliest_feasible_start(&self, task: &Task, now: SimTime) -> Option<SimTime> {
        let admissible = self.probe_plan(task, now).is_ok();
        admissible
            .then_some(now)
            .or_else(|| self.earliest_start_after(task, now))
    }

    /// Explains why `request` would fail admission at `now` — the binding
    /// rejection cause plus honest counterfactuals, every one verified by
    /// running the test against this engine's observed book
    /// ([`AdmissionExplanation`]); `None` when the request is admissible
    /// as-is. Non-mutating. The engine's is an [`ExplainSearch`] on its own
    /// book and cache, the oracle's the literal search it is checked
    /// against.
    fn explain(&self, request: &SubmitRequest, now: SimTime) -> Option<AdmissionExplanation>;

    /// Re-plans the waiting queue against the current committed releases
    /// (used when nodes free up earlier than estimated). Failure indicates
    /// the queue cannot be replanned at `now` and leaves the previous plans
    /// installed.
    fn replan(&mut self, now: SimTime) -> Result<(), AdmissionFailure>;

    /// Removes and returns every waiting task whose plan is due at `now`
    /// (first transmission start ≤ `now` within tolerance), committing its
    /// node release estimates. Returns tasks in execution order.
    fn take_due(&mut self, now: SimTime) -> Vec<(Task, TaskPlan)>;

    /// The earliest planned first-transmission instant across the waiting
    /// queue — when the next dispatch is due (if plans do not change first).
    fn next_dispatch_due(&self) -> Option<SimTime> {
        self.queue().iter().map(|(_, p)| p.first_start()).min()
    }

    /// Overrides one node's committed release time with an *actual* value
    /// (e.g. the exact completion computed at dispatch, or an early release).
    fn set_node_release(&mut self, node: usize, time: SimTime);

    /// Removes one waiting task (with its plan) from the queue without
    /// touching committed releases — a waiting plan reserves nothing until
    /// dispatch, so removal is always safe for the remaining plans.
    fn remove_waiting(&mut self, id: TaskId) -> Option<Task>;

    /// The committed work outstanding at `now`, in node-time units: the sum
    /// over nodes of how far past `now` their committed releases reach, plus
    /// the transmission+compute demand of the waiting queue. Service-layer
    /// routers use this as a cheap least-loaded signal.
    fn backlog(&self, now: SimTime) -> f64 {
        let params = *self.params();
        let committed: f64 = self
            .committed_releases()
            .iter()
            .map(|r| (r.as_f64() - now.as_f64()).max(0.0))
            .sum();
        let waiting: f64 = self
            .queue()
            .iter()
            .map(|(t, _)| t.data_size * (params.cms + params.cps))
            .sum();
        committed + waiting
    }

    /// Snapshots the complete engine state for journaling.
    fn state(&self) -> ControllerState;

    /// Rebuilds an engine from a journaled state. The inverse of
    /// [`state`](Admission::state): `from_state(c.state())` compares equal
    /// to `c` in every observable way. Errors when the state fails
    /// [`ControllerState::validate`].
    fn from_state(state: ControllerState) -> Result<Self, ModelError>
    where
        Self: Sized;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::NodeCountPolicy;

    #[test]
    fn schedulability_test_is_pure() {
        // Direct use of the free function: same inputs, same outputs, no
        // hidden state.
        let p = ClusterParams::paper_baseline();
        let releases = vec![SimTime::ZERO; 16];
        let t = Task::new(1, 0.0, 200.0, 30_000.0);
        let a = schedulability_test(
            &p,
            AlgorithmKind::EDF_DLT,
            &PlanConfig::default(),
            SimTime::ZERO,
            &releases,
            &[],
            Some(&t),
        )
        .unwrap();
        let b = schedulability_test(
            &p,
            AlgorithmKind::EDF_DLT,
            &PlanConfig::default(),
            SimTime::ZERO,
            &releases,
            &[],
            Some(&t),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn infeasible_round_trips_and_refuses_unknown_causes() {
        for cause in Infeasible::ALL {
            let json = serde_json::to_string(&cause).unwrap();
            assert_eq!(json, format!("{:?}", cause.to_string()));
            assert_eq!(serde_json::from_str::<Infeasible>(&json), Ok(cause));
        }
        let foreign = "\"estimated completion exceeds the dead1ine\"";
        assert!(serde_json::from_str::<Infeasible>(foreign).is_err());
    }

    #[test]
    fn controller_state_validate_catches_shape_errors() {
        let c = AdmissionController::new(
            ClusterParams::paper_baseline(),
            AlgorithmKind::EDF_DLT,
            PlanConfig {
                node_count: NodeCountPolicy::FixedPoint,
                ..Default::default()
            },
        );
        let mut bad = Admission::state(&c);
        bad.releases.pop();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn a_queue_out_of_policy_order_is_refused_by_both_engines() {
        // The engine walks its queue as it stands, the oracle re-sorts:
        // restored from an image with two entries exchanged they would
        // serve different orders.
        let mut c = AdmissionController::new(
            ClusterParams::paper_baseline(),
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
        );
        for id in [1, 2, 3, 3] {
            let task = Task::new(id, 0.0, 100.0, 1e5 * id as f64);
            assert!(c.submit(task, SimTime::ZERO).is_accepted());
        }
        // Equal keys are one task submitted twice, and legal.
        let mut image = c.state();
        assert_eq!(image.queue[2].0, image.queue[3].0);
        assert!(image.validate().is_ok());
        image.queue.swap(0, 1);
        assert!(image.validate().is_err());
        assert!(AdmissionController::from_state(image.clone()).is_err());
        assert!(reference::ReferenceController::from_state(image).is_err());
    }

    #[test]
    fn a_plan_with_no_chunks_is_refused_by_both_engines() {
        // Restored, it would come due at `start_times[0]`, which is not
        // there: the first `take_due` would panic.
        let mut c = AdmissionController::new(
            ClusterParams::paper_baseline(),
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
        );
        assert!(c
            .submit(Task::new(1, 0.0, 100.0, 1e5), SimTime::ZERO)
            .is_accepted());
        let mut image = c.state();
        let plan = &mut image.queue[0].1;
        plan.nodes.clear();
        plan.start_times.clear();
        plan.fractions.clear();
        plan.node_release_estimates.clear();
        assert!(image.validate().is_err());
        assert!(AdmissionController::from_state(image.clone()).is_err());
        assert!(reference::ReferenceController::from_state(image).is_err());
    }
}
