//! The reference (full-replan) admission engine and the helpers that hold
//! the production engine against it.
//!
//! [`ReferenceController`] is a literal implementation of the paper's Fig. 2
//! test: every arrival rebuilds the whole temp schedule over
//! `waiting ∪ {candidate}`, `O(queue)` planning calls per event. Nothing
//! serves traffic with it, and no shipped crate can: this crate is a
//! dev-dependency only. It exists so that the production engine
//! ([`AdmissionController`]) can be checked against an independent
//! implementation of the same contract (`differential_admission.rs` asserts
//! exact state equality after every operation, through [`pair`] and
//! [`agree`]), and so the `incremental_admission` bench can show what the
//! reuse cache saves.
//!
//! The same goes for the searches built on the test. The production
//! refusal explanation (`ExplainSearch`) and reservation search probe one
//! prepared book many times; here both are kept as first written — a
//! closure over [`schedulability_test`], the whole queue re-sorted and
//! re-planned per probe — and the differential suite asserts the two give
//! the same `AdmissionExplanation`, field for field.
//!
//! The oracle shares the planning kernel with the engine (both plan through
//! `plan_task`), so it cannot tell a wrong formula from a right one; that is
//! [`crate::independent`]'s job. [`check_invariants`] lives here for the
//! same reason: it reads a [`HeterogeneousModel`] the kernel built.

use rtdls_core::admission::{
    schedulability_test, Admission, AdmissionController, AdmissionExplanation, AdmissionFailure,
    ControllerState, Decision, EXPLAIN_TOL,
};
use rtdls_core::algorithm::AlgorithmKind;
use rtdls_core::dlt::heterogeneous::HeterogeneousModel;
use rtdls_core::error::{Infeasible, ModelError};
use rtdls_core::nmin::min_feasible_slack;
use rtdls_core::params::ClusterParams;
use rtdls_core::request::SubmitRequest;
use rtdls_core::strategy::{PlanConfig, TaskPlan};
use rtdls_core::task::{Task, TaskId};
use rtdls_core::time::SimTime;

/// The oracle and the production engine over one cluster, built alike:
/// every node's committed release is set to `releases` on both (empty: an
/// idle cluster).
pub fn pair(
    params: ClusterParams,
    algorithm: AlgorithmKind,
    cfg: PlanConfig,
    releases: &[SimTime],
) -> (ReferenceController, AdmissionController) {
    let mut oracle = ReferenceController::new(params, algorithm, cfg);
    let mut engine = AdmissionController::new(params, algorithm, cfg);
    for (node, &release) in releases.iter().enumerate() {
        oracle.set_node_release(node, release);
        engine.set_node_release(node, release);
    }
    (oracle, engine)
}

/// Whether the two engines are observably the same at `now`: the whole
/// serialized state, the backlog and the next dispatch. The error says what
/// differs.
pub fn agree(
    oracle: &ReferenceController,
    engine: &AdmissionController,
    now: SimTime,
) -> Result<(), String> {
    let (expected, found) = (oracle.state(), engine.state());
    if expected != found {
        return Err(format!(
            "ControllerState diverged\n full: {expected:?}\n incr: {found:?}"
        ));
    }
    if oracle.backlog(now) != engine.backlog(now) {
        return Err("backlog diverged".into());
    }
    if oracle.next_dispatch_due() != engine.next_dispatch_due() {
        return Err("next_dispatch_due diverged".into());
    }
    Ok(())
}

/// The heterogeneous model's defining invariants, read through its public
/// accessors: `Σα = 1`, `α` non-increasing, `Cps_i` non-decreasing up to
/// `Cps_n = Cps` (Eq. 1), equal finish inside the model (Eq. 3), `Ê ≤ E`
/// (Eq. 9) and every Theorem 4 per-node bound within the estimate.
/// `params` is the cluster the model was built for. Returns a description
/// of the first violated invariant.
pub fn check_invariants(model: &HeterogeneousModel, params: &ClusterParams) -> Result<(), String> {
    let n = model.n();
    let alphas = model.alphas();
    let sum: f64 = alphas.iter().sum();
    if (sum - 1.0).abs() > 1e-9 {
        return Err(format!("alpha sum {sum} != 1"));
    }
    for w in alphas.windows(2) {
        if w[1] >= w[0] + 1e-15 {
            return Err(format!("alphas not non-increasing: {} -> {}", w[0], w[1]));
        }
    }
    for i in 1..n {
        let (prev, next) = (model.cps_het(i - 1), model.cps_het(i));
        if next < prev - 1e-12 {
            return Err(format!("Cps_i not non-decreasing: {prev} -> {next}"));
        }
    }
    let cps_n = model.cps_het(n - 1);
    if ((cps_n - params.cps) / params.cps).abs() > 1e-12 {
        return Err(format!("Cps_n {cps_n} != Cps {}", params.cps));
    }
    let exec_time = model.exec_time();
    for i in 0..n {
        // Node i's finish inside the model, measured from `r_n`:
        // `Σ_{j≤i} α_j σ Cms + α_i σ Cps_i` (one line of Eq. 3).
        let tx = alphas[..=i].iter().sum::<f64>() * model.sigma() * params.cms;
        let f = tx + alphas[i] * model.sigma() * model.cps_het(i);
        if ((f - exec_time) / exec_time).abs() > 1e-9 {
            return Err(format!(
                "model node {i} finishes at {f}, expected Ê = {exec_time}"
            ));
        }
    }
    if exec_time > model.e_no_iit() * (1.0 + 1e-12) {
        return Err(format!("Ê {exec_time} exceeds E {}", model.e_no_iit()));
    }
    let est = model.completion_estimate().as_f64();
    for i in 0..n {
        let b = model.actual_completion_bound(i).as_f64();
        if b > est * (1.0 + 1e-9) + 1e-9 {
            return Err(format!(
                "Theorem-4 bound of node {i} ({b}) exceeds estimate {est}"
            ));
        }
    }
    Ok(())
}

/// The literal Fig. 2 engine: a whole-queue replan on every event. See the
/// module docs for why it is kept and who may use it.
#[derive(Clone, Debug)]
pub struct ReferenceController {
    params: ClusterParams,
    algorithm: AlgorithmKind,
    cfg: PlanConfig,
    /// Per-node release time of committed (dispatched) work.
    releases: Vec<SimTime>,
    /// Waiting tasks with their current plans, in policy order.
    queue: Vec<(Task, TaskPlan)>,
}

impl ReferenceController {
    /// Rebuilds the queue from plans returned in policy order.
    fn install(&mut self, plans: Vec<TaskPlan>, waiting: Vec<Task>, new_task: Option<Task>) {
        let mut by_id: Vec<(TaskId, Task)> = waiting
            .into_iter()
            .chain(new_task)
            .map(|t| (t.id, t))
            .collect();
        self.queue.clear();
        for plan in plans {
            let pos = by_id
                .iter()
                .position(|(id, _)| *id == plan.task)
                .expect("plan for unknown task");
            let (_, task) = by_id.swap_remove(pos);
            self.queue.push((task, plan));
        }
        debug_assert!(by_id.is_empty(), "every waiting task must be planned");
    }
}

/// The literal start search: the plain test at every dispatch instant of
/// `queue` after `now` against the post-dispatch book (see
/// [`Admission::earliest_start_after`] for why those are the only
/// candidates).
fn earliest_start_after_search(
    params: &ClusterParams,
    algorithm: AlgorithmKind,
    cfg: &PlanConfig,
    now: SimTime,
    committed_releases: &[SimTime],
    queue: &[(Task, TaskPlan)],
    task: &Task,
) -> Option<SimTime> {
    // The activation protocol is "dispatches at `t` commit first, then the
    // task is submitted", so each candidate instant is tested against the
    // post-dispatch book.
    let mut instants: Vec<SimTime> = queue
        .iter()
        .map(|(_, plan)| plan.first_start())
        .filter(|start| start.definitely_after(now))
        .collect();
    instants.sort_unstable();
    instants.dedup();
    for t in instants {
        // Simulate the dispatches due by `t`, exactly as `take_due` would:
        // scan in execution order, commit each due plan's release
        // estimates, keep the rest waiting.
        let mut releases = committed_releases.to_vec();
        let mut waiting: Vec<Task> = Vec::with_capacity(queue.len());
        for (w, plan) in queue {
            if plan.first_start().at_or_before_eps(t) {
                for (node, &rel) in plan.nodes.iter().zip(&plan.node_release_estimates) {
                    releases[node.index()] = rel;
                }
            } else {
                waiting.push(*w);
            }
        }
        if schedulability_test(params, algorithm, cfg, t, &releases, &waiting, Some(task)).is_ok() {
            return Some(t);
        }
    }
    None
}

/// The literal refusal explanation: the first test for the cause, the
/// deadline doubling + bisection, the σ bisection and the start search,
/// every probe a from-scratch [`schedulability_test`].
fn explain_infeasibility(
    params: &ClusterParams,
    algorithm: AlgorithmKind,
    cfg: &PlanConfig,
    now: SimTime,
    committed_releases: &[SimTime],
    queue: &[(Task, TaskPlan)],
    task: &Task,
) -> Option<AdmissionExplanation> {
    let waiting: Vec<Task> = queue.iter().map(|(t, _)| *t).collect();
    let feasible = |t: &Task| {
        schedulability_test(
            params,
            algorithm,
            cfg,
            now,
            committed_releases,
            &waiting,
            Some(t),
        )
        .is_ok()
    };
    let cause = match schedulability_test(
        params,
        algorithm,
        cfg,
        now,
        committed_releases,
        &waiting,
        Some(task),
    ) {
        Ok(_) => return None,
        Err(f) => f.reason,
    };

    // Counterfactual deadline. The original deadline is known-infeasible
    // (that is the rejection being explained), so it anchors the bracket's
    // low end once a feasible high end is found.
    let with_deadline = |d: f64| Task {
        rel_deadline: d,
        ..*task
    };
    let horizon = {
        let last_release = committed_releases.iter().copied().fold(now, SimTime::max);
        let floor = min_feasible_slack(params, task.data_size);
        (last_release.as_f64() - task.arrival.as_f64()).max(0.0) + floor
    };
    let mut hi = task.rel_deadline.max(horizon);
    let mut found = feasible(&with_deadline(hi));
    for _ in 0..64 {
        if found || !hi.is_finite() {
            break;
        }
        hi *= 2.0;
        found = hi.is_finite() && feasible(&with_deadline(hi));
    }
    let min_feasible_deadline = if found {
        let mut lo = task.rel_deadline;
        for _ in 0..64 {
            if hi - lo <= EXPLAIN_TOL * hi.max(1.0) {
                break;
            }
            let mid = 0.5 * (lo + hi);
            if feasible(&with_deadline(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    } else {
        0.0
    };

    // Counterfactual σ: near-zero is the best case; if even that fails the
    // deadline is hopeless at any size and no suggestion is made.
    let with_sigma = |s: f64| Task {
        data_size: s,
        ..*task
    };
    let tiny = task.data_size * 1e-9;
    let max_feasible_sigma = if tiny > 0.0 && feasible(&with_sigma(tiny)) {
        let mut lo = tiny;
        let mut hi_s = task.data_size;
        for _ in 0..64 {
            if hi_s - lo <= EXPLAIN_TOL * hi_s.max(1.0) {
                break;
            }
            let mid = 0.5 * (lo + hi_s);
            if feasible(&with_sigma(mid)) {
                lo = mid;
            } else {
                hi_s = mid;
            }
        }
        lo
    } else {
        0.0
    };

    // The test at `now` failed above, so only later instants are left.
    let earliest =
        earliest_start_after_search(params, algorithm, cfg, now, committed_releases, queue, task);
    Some(AdmissionExplanation {
        cause,
        at: now,
        slack_deficit: if min_feasible_deadline > 0.0 {
            min_feasible_deadline - task.rel_deadline
        } else {
            0.0
        },
        min_feasible_deadline,
        max_feasible_sigma,
        earliest_feasible_start: earliest.map(|t| t.as_f64()).unwrap_or(-1.0),
    })
}

impl Admission for ReferenceController {
    fn new(params: ClusterParams, algorithm: AlgorithmKind, cfg: PlanConfig) -> Self {
        ReferenceController {
            params,
            algorithm,
            cfg,
            releases: vec![SimTime::ZERO; params.num_nodes],
            queue: Vec::new(),
        }
    }

    fn params(&self) -> &ClusterParams {
        &self.params
    }

    fn algorithm(&self) -> AlgorithmKind {
        self.algorithm
    }

    fn config(&self) -> &PlanConfig {
        &self.cfg
    }

    fn committed_releases(&self) -> &[SimTime] {
        &self.releases
    }

    fn queue(&self) -> &[(Task, TaskPlan)] {
        &self.queue
    }

    fn submit(&mut self, task: Task, now: SimTime) -> Decision {
        let waiting: Vec<Task> = self.queue.iter().map(|(t, _)| *t).collect();
        match schedulability_test(
            &self.params,
            self.algorithm,
            &self.cfg,
            now,
            &self.releases,
            &waiting,
            Some(&task),
        ) {
            Ok(plans) => {
                self.install(plans, waiting, Some(task));
                Decision::Accepted
            }
            Err(f) => Decision::Rejected(f.reason),
        }
    }

    fn probe_plan(&self, task: &Task, now: SimTime) -> Result<TaskPlan, AdmissionFailure> {
        let waiting: Vec<Task> = self.queue.iter().map(|(t, _)| *t).collect();
        let plans = schedulability_test(
            &self.params,
            self.algorithm,
            &self.cfg,
            now,
            &self.releases,
            &waiting,
            Some(task),
        )?;
        plans
            .into_iter()
            .find(|p| p.task == task.id)
            .ok_or(AdmissionFailure {
                task: task.id,
                reason: Infeasible::CompletionAfterDeadline,
            })
    }

    fn earliest_start_after(&self, task: &Task, now: SimTime) -> Option<SimTime> {
        earliest_start_after_search(
            &self.params,
            self.algorithm,
            &self.cfg,
            now,
            &self.releases,
            &self.queue,
            task,
        )
    }

    fn explain(&self, request: &SubmitRequest, now: SimTime) -> Option<AdmissionExplanation> {
        explain_infeasibility(
            &self.params,
            self.algorithm,
            &self.cfg,
            now,
            &self.releases,
            &self.queue,
            &request.task,
        )
    }

    /// Admitted tasks were feasible under release times that can only have
    /// moved *earlier*; failure therefore indicates a broken invariant and is
    /// surfaced as an error rather than silently dropping a guarantee.
    fn replan(&mut self, now: SimTime) -> Result<(), AdmissionFailure> {
        if self.queue.is_empty() {
            return Ok(());
        }
        let waiting: Vec<Task> = self.queue.iter().map(|(t, _)| *t).collect();
        let plans = schedulability_test(
            &self.params,
            self.algorithm,
            &self.cfg,
            now,
            &self.releases,
            &waiting,
            None,
        )?;
        self.install(plans, waiting, None);
        Ok(())
    }

    fn take_due_into(&mut self, now: SimTime, due: &mut Vec<(Task, TaskPlan)>) {
        // A dispatch changes committed releases, which can only delay other
        // waiting plans' nodes — but those plans were computed against these
        // very release estimates, so plans due at `now` stay valid. Retain
        // execution order by scanning front to back.
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].1.first_start().at_or_before_eps(now) {
                let (task, plan) = self.queue.remove(i);
                for (node, &rel) in plan.nodes.iter().zip(&plan.node_release_estimates) {
                    self.releases[node.index()] = rel;
                }
                due.push((task, plan));
            } else {
                i += 1;
            }
        }
    }

    fn set_node_release(&mut self, node: usize, time: SimTime) {
        self.releases[node] = time;
    }

    fn remove_waiting(&mut self, id: TaskId) -> Option<Task> {
        let pos = self.queue.iter().position(|(t, _)| t.id == id)?;
        let (task, _) = self.queue.remove(pos);
        Some(task)
    }

    fn state(&self) -> ControllerState {
        ControllerState {
            params: self.params,
            algorithm: self.algorithm,
            cfg: self.cfg,
            releases: self.releases.clone(),
            queue: self.queue.clone(),
        }
    }

    fn from_state(state: ControllerState) -> Result<Self, ModelError> {
        state.validate()?;
        Ok(ReferenceController {
            params: state.params,
            algorithm: state.algorithm,
            cfg: state.cfg,
            releases: state.releases,
            queue: state.queue,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdls_core::dlt::homogeneous;

    fn params() -> ClusterParams {
        ClusterParams::paper_baseline()
    }

    fn ctl(algorithm: AlgorithmKind) -> ReferenceController {
        ReferenceController::new(params(), algorithm, PlanConfig::default())
    }

    fn task(id: u64, arrival: f64, sigma: f64, rel_deadline: f64) -> Task {
        Task::new(id, arrival, sigma, rel_deadline)
    }

    #[test]
    fn empty_cluster_accepts_feasible_task() {
        let mut c = ctl(AlgorithmKind::EDF_DLT);
        let t = task(1, 0.0, 200.0, 30_000.0);
        assert!(c.submit(t, SimTime::ZERO).is_accepted());
        assert_eq!(c.queue_len(), 1);
        assert_eq!(c.next_dispatch_due(), Some(SimTime::ZERO));
    }

    #[test]
    fn impossible_deadline_is_rejected_and_queue_untouched() {
        let mut c = ctl(AlgorithmKind::EDF_DLT);
        let ok = task(1, 0.0, 200.0, 30_000.0);
        assert!(c.submit(ok, SimTime::ZERO).is_accepted());
        // Deadline below the transmission time: hopeless.
        let bad = task(2, 0.0, 200.0, 100.0);
        let d = c.submit(bad, SimTime::ZERO);
        assert_eq!(d, Decision::Rejected(Infeasible::NoTimeForTransmission));
        assert_eq!(c.queue_len(), 1);
        assert_eq!(c.queue()[0].0.id, TaskId(1));
    }

    #[test]
    fn overload_rejects_newcomer_but_keeps_admitted() {
        let mut c = ctl(AlgorithmKind::EDF_DLT);
        let p = params();
        let e16 = homogeneous::exec_time(&p, 800.0, 16);
        // Fill the cluster with tasks whose deadlines are snug.
        let mut admitted = 0;
        for i in 0..50 {
            let t = task(i, 0.0, 800.0, e16 * 3.0);
            if c.submit(t, SimTime::ZERO).is_accepted() {
                admitted += 1;
            }
        }
        assert!(admitted >= 1, "at least the first task fits");
        assert!(
            admitted < 50,
            "an overloaded cluster must reject eventually"
        );
        assert_eq!(c.queue_len(), admitted as usize);
    }

    #[test]
    fn edf_admits_urgent_task_ahead_of_loose_queue() {
        let mut c = ctl(AlgorithmKind::EDF_DLT);
        let p = params();
        let e16 = homogeneous::exec_time(&p, 200.0, 16);
        // A loose task first…
        assert!(c
            .submit(task(1, 0.0, 200.0, e16 * 50.0), SimTime::ZERO)
            .is_accepted());
        // …then an urgent one; EDF must reorder so it is planned first.
        assert!(c
            .submit(task(2, 0.0, 200.0, e16 * 1.5), SimTime::ZERO)
            .is_accepted());
        assert_eq!(
            c.queue()[0].0.id,
            TaskId(2),
            "EDF puts the urgent task first"
        );
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut c = ctl(AlgorithmKind::FIFO_DLT);
        let p = params();
        let e16 = homogeneous::exec_time(&p, 200.0, 16);
        assert!(c
            .submit(task(1, 0.0, 200.0, e16 * 50.0), SimTime::ZERO)
            .is_accepted());
        assert!(c
            .submit(task(2, 1.0, 200.0, e16 * 2.0), SimTime::new(1.0))
            .is_accepted());
        assert_eq!(c.queue()[0].0.id, TaskId(1));
    }

    #[test]
    fn take_due_commits_release_estimates() {
        let mut c = ctl(AlgorithmKind::EDF_DLT);
        let t = task(1, 0.0, 200.0, 30_000.0);
        assert!(c.submit(t, SimTime::ZERO).is_accepted());
        let due = c.take_due(SimTime::ZERO);
        assert_eq!(due.len(), 1);
        assert_eq!(c.queue_len(), 0);
        let plan = &due[0].1;
        for (node, rel) in plan.nodes.iter().zip(&plan.node_release_estimates) {
            assert_eq!(c.committed_releases()[node.index()], *rel);
        }
        // Nothing else due.
        assert!(c.take_due(SimTime::new(1.0)).is_empty());
        assert_eq!(c.next_dispatch_due(), None);
    }

    #[test]
    fn replan_after_early_release_improves_start() {
        let mut c = ctl(AlgorithmKind::EDF_DLT);
        let p = params();
        // Occupy the committed releases artificially.
        for i in 0..16 {
            c.set_node_release(i, SimTime::new(1_000.0));
        }
        let t = task(1, 0.0, 200.0, 1_000_000.0);
        assert!(c.submit(t, SimTime::ZERO).is_accepted());
        let before = c.queue()[0].1.est_completion;
        // Nodes free early: releases drop to 500.
        for i in 0..16 {
            c.set_node_release(i, SimTime::new(500.0));
        }
        c.replan(SimTime::new(500.0)).unwrap();
        let after = c.queue()[0].1.est_completion;
        assert!(after < before, "earlier releases must not delay completion");
        let e = homogeneous::exec_time(&p, 200.0, c.queue()[0].1.n());
        assert!((after.as_f64() - (500.0 + e)).abs() < 1e-6);
    }

    #[test]
    fn replan_with_empty_queue_is_noop() {
        let mut c = ctl(AlgorithmKind::EDF_DLT);
        c.replan(SimTime::new(42.0)).unwrap();
        assert_eq!(c.queue_len(), 0);
    }

    #[test]
    fn probe_matches_submit_without_mutation() {
        let mut c = ctl(AlgorithmKind::EDF_DLT);
        let t1 = task(1, 0.0, 200.0, 30_000.0);
        assert!(c.probe(&t1, SimTime::ZERO).is_accepted());
        assert_eq!(c.queue_len(), 0, "probe must not install");
        assert!(c.submit(t1, SimTime::ZERO).is_accepted());
        let hopeless = task(2, 0.0, 200.0, 100.0);
        assert_eq!(
            c.probe(&hopeless, SimTime::ZERO),
            Decision::Rejected(Infeasible::NoTimeForTransmission)
        );
        // probe_plan returns the candidate's own plan.
        let t3 = task(3, 0.0, 100.0, 40_000.0);
        let plan = c.probe_plan(&t3, SimTime::ZERO).unwrap();
        assert_eq!(plan.task, t3.id);
        assert_eq!(c.queue_len(), 1);
    }

    #[test]
    fn backlog_tracks_committed_and_waiting_demand() {
        let p = params();
        let mut c = ctl(AlgorithmKind::EDF_DLT);
        assert_eq!(c.backlog(SimTime::ZERO), 0.0);
        let t1 = task(1, 0.0, 200.0, 30_000.0);
        assert!(c.submit(t1, SimTime::ZERO).is_accepted());
        let expected = 200.0 * (p.cms + p.cps);
        assert!((c.backlog(SimTime::ZERO) - expected).abs() < 1e-9);
        // Dispatch: demand moves from the waiting term to committed releases.
        let _ = c.take_due(SimTime::ZERO);
        assert!(c.backlog(SimTime::ZERO) > 0.0);
        assert_eq!(c.backlog(SimTime::new(1e9)), 0.0, "far future: all drained");
    }

    #[test]
    fn user_split_controller_respects_user_counts() {
        let mut c = ctl(AlgorithmKind::EDF_USER_SPLIT);
        let t = task(1, 0.0, 200.0, 30_000.0).with_user_nodes(Some(5));
        assert!(c.submit(t, SimTime::ZERO).is_accepted());
        assert_eq!(c.queue()[0].1.n(), 5);
        // A task whose user gave up (no feasible count) is rejected.
        let t = task(2, 0.0, 200.0, 30_000.0);
        assert_eq!(
            c.submit(t, SimTime::ZERO),
            Decision::Rejected(Infeasible::UserRequestInfeasible)
        );
    }

    #[test]
    fn state_round_trips_through_serde() {
        let mut c = ctl(AlgorithmKind::EDF_DLT);
        assert!(c
            .submit(task(1, 0.0, 200.0, 30_000.0), SimTime::ZERO)
            .is_accepted());
        assert!(c
            .submit(task(2, 5.0, 400.0, 60_000.0), SimTime::new(5.0))
            .is_accepted());
        let _ = c.take_due(SimTime::ZERO);
        let state = c.state();
        let json = serde_json::to_string(&state).unwrap();
        let back: ControllerState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        let restored = ReferenceController::from_state(back).unwrap();
        assert_eq!(restored.queue(), c.queue());
        assert_eq!(restored.committed_releases(), c.committed_releases());
        assert_eq!(restored.algorithm(), c.algorithm());
        // The restored controller keeps deciding identically.
        let probe = task(3, 10.0, 100.0, 40_000.0);
        assert_eq!(
            restored.probe(&probe, SimTime::new(10.0)),
            c.probe(&probe, SimTime::new(10.0))
        );
    }

    #[test]
    fn from_state_rejects_inconsistent_shapes() {
        let c = ctl(AlgorithmKind::EDF_DLT);
        let mut bad = c.state();
        bad.releases.pop();
        assert!(ReferenceController::from_state(bad).is_err());
        let mut c2 = ctl(AlgorithmKind::EDF_DLT);
        assert!(c2
            .submit(task(1, 0.0, 200.0, 30_000.0), SimTime::ZERO)
            .is_accepted());
        let mut bad = c2.state();
        bad.queue[0].0 = task(9, 0.0, 200.0, 30_000.0);
        assert!(ReferenceController::from_state(bad).is_err());
    }

    #[test]
    fn remove_waiting_detaches_task_and_keeps_rest_feasible() {
        let mut c = ctl(AlgorithmKind::EDF_DLT);
        assert!(c
            .submit(task(1, 0.0, 200.0, 30_000.0), SimTime::ZERO)
            .is_accepted());
        assert!(c
            .submit(task(2, 0.0, 300.0, 60_000.0), SimTime::ZERO)
            .is_accepted());
        assert_eq!(c.remove_waiting(TaskId(99)), None);
        let removed = c.remove_waiting(TaskId(1)).unwrap();
        assert_eq!(removed.id, TaskId(1));
        assert_eq!(c.queue_len(), 1);
        assert_eq!(c.queue()[0].0.id, TaskId(2));
        // The survivor replans fine (it only gained room).
        c.replan(SimTime::ZERO).unwrap();
        assert_eq!(c.queue_len(), 1);
    }
}
