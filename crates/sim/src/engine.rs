//! The discrete-event simulation engine.
//!
//! Drives an [`AdmissionController`] with a stream of task arrivals and
//! executes accepted plans on a modeled cluster:
//!
//! * **Admission** happens at each arrival (the Fig. 2 schedulability test).
//! * **Dispatch** happens when a waiting plan's first transmission is due:
//!   the task *commits* — its exact per-node timeline is realized (chunk
//!   transmissions serialized within the task, compute following transmit)
//!   and its nodes are reserved. Committed tasks are never reassigned
//!   (non-preemption, as in the paper).
//! * **Completion**: per-node completions are *observed* as events — the
//!   controller's committed release times hold the admission-time estimates
//!   until the actual (never later, by Theorem 4) completion arrives, at
//!   which point waiting tasks may be re-planned to grab the slack
//!   ([`ReplanPolicy::OnRelease`]).
//!
//! Theorem 4 and the deadline guarantee are checked at run time for every
//! completed task; under the paper's model (per-task link) violations are
//! impossible and `strict` mode turns them into panics in tests.

use std::collections::{HashMap, HashSet};

use rtdls_core::prelude::*;

use crate::config::{LinkModel, ReplanPolicy, SimConfig};
use crate::event::{Event, EventQueue};
use crate::metrics::{Metrics, MetricsCollector};
use crate::serve::{Resolution, Serve, SubmitOutcome};
use crate::trace::{ChunkRecord, TaskRecord, Trace};

/// Result of a completed simulation.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Aggregated metrics.
    pub metrics: Metrics,
    /// Execution trace when [`SimConfig::record_trace`] was set.
    pub trace: Option<Trace>,
}

/// In-flight bookkeeping for a dispatched task.
#[derive(Clone, Copy, Debug)]
struct RunningTask {
    remaining_chunks: usize,
    arrival: SimTime,
    deadline: SimTime,
    estimate: SimTime,
}

/// An arrival's admitted plan at the admission decision: its completion
/// estimate and its [`admission_gain`].
type Admitted = (SimTime, Option<f64>);

/// The simulation state machine. Construct with [`Simulation::new`] (plain
/// admission control) or [`Simulation::with_frontend`] (anything that
/// [`Serve`]s, e.g. an `rtdls-service` gateway stack), feed arrivals with
/// [`Simulation::run`].
pub struct Simulation<F: Serve = AdmissionController> {
    cfg: SimConfig,
    ctl: F,
    events: EventQueue,
    now: SimTime,
    /// Events processed so far.
    events_processed: u64,
    /// Plan-generation stamp; bumped after every turn so that previously
    /// scheduled due events are recognized as stale.
    generation: u64,
    /// Actual (exact) completion time of the last chunk dispatched per node.
    node_free_actual: Vec<SimTime>,
    /// Most recent task committed per node (release-event ownership).
    node_last_task: Vec<Option<TaskId>>,
    /// Completion time of the last committed chunk per node — a release
    /// event may only lower the node's availability once the node's final
    /// committed chunk (e.g. the last round of a multi-round plan) is done.
    node_committed_until: Vec<SimTime>,
    /// Whether a node released earlier than its committed estimate since the
    /// last replan.
    release_slack_seen: bool,
    /// End of the most recent transmission under the shared-link ablation.
    link_free: SimTime,
    running: HashMap<TaskId, RunningTask>,
    /// Every task ever physically dispatched. A promoted standby that never
    /// heard of a dispatch its dead primary made still holds that task as
    /// waiting and may offer it again; the engine dispatches each task at
    /// most once.
    ever_dispatched: HashSet<TaskId>,
    /// Re-offered dispatches the engine suppressed (see `ever_dispatched`).
    duplicate_dispatches: u64,
    metrics: MetricsCollector,
    trace: Option<Trace>,
    trace_task_idx: HashMap<TaskId, usize>,
}

impl Simulation {
    /// Creates an idle simulation for `cfg`, driving a bare
    /// [`AdmissionController`] — the paper's head node.
    pub fn new(cfg: SimConfig) -> Self {
        let ctl = AdmissionController::new(cfg.params, cfg.algorithm, cfg.plan);
        Simulation::with_frontend(cfg, ctl)
    }
}

impl<F: Serve> Simulation<F> {
    /// Creates an idle simulation whose admission decisions are delegated
    /// to `frontend`. The frontend must manage the same `cfg.params.num_nodes`
    /// node space the engine executes plans on.
    pub fn with_frontend(cfg: SimConfig, frontend: F) -> Self {
        let n = cfg.params.num_nodes;
        Simulation {
            ctl: frontend,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            events_processed: 0,
            generation: 0,
            node_free_actual: vec![SimTime::ZERO; n],
            node_last_task: vec![None; n],
            node_committed_until: vec![SimTime::ZERO; n],
            release_slack_seen: false,
            link_free: SimTime::ZERO,
            running: HashMap::new(),
            ever_dispatched: HashSet::new(),
            duplicate_dispatches: 0,
            metrics: MetricsCollector::new(),
            trace: cfg.record_trace.then(Trace::default),
            trace_task_idx: HashMap::new(),
            cfg,
        }
    }

    /// Runs the simulation over `tasks` (any order; arrival times rule) and
    /// returns the report once all events have drained.
    pub fn run(self, tasks: impl IntoIterator<Item = Task>) -> SimReport {
        self.run_returning_frontend(tasks).0
    }

    /// Like [`run`](Simulation::run), but hands the frontend back so callers
    /// can read its own accounting (e.g. a gateway's `ServiceMetrics`).
    pub fn run_returning_frontend(
        mut self,
        tasks: impl IntoIterator<Item = Task>,
    ) -> (SimReport, F) {
        self.prime(tasks);
        while self.step() {}
        self.finish()
    }

    /// Enqueues a workload's arrival events without running anything —
    /// the setup half of the stepped API ([`step`] / [`finish`]), which
    /// lets a caller pause a run mid-stream and read the frontend.
    ///
    /// [`step`]: Simulation::step
    /// [`finish`]: Simulation::finish
    pub fn prime(&mut self, tasks: impl IntoIterator<Item = Task>) {
        let mut tasks: Vec<Task> = tasks.into_iter().collect();
        tasks.sort_by_key(|t| (t.arrival, t.id));
        for t in tasks {
            self.events.push(t.arrival, Event::Arrival(t));
        }
    }

    /// Processes the next pending event. Returns `false` once the event
    /// queue has drained (call [`finish`](Simulation::finish) then).
    pub fn step(&mut self) -> bool {
        let Some((time, event)) = self.events.pop() else {
            return false;
        };
        debug_assert!(
            time >= self.now,
            "time went backwards: {time:?} < {:?}",
            self.now
        );
        self.now = time;
        self.events_processed += 1;
        match event {
            Event::Arrival(task) => self.handle_arrival(task),
            Event::NodeRelease { node, task } => self.handle_release(node, task),
            Event::Due { generation } => {
                if generation == self.generation {
                    self.settle(false, None);
                }
            }
        }
        true
    }

    /// Closes the books after the event queue has drained: finalizes the
    /// frontend (every still-deferred task resolves) and produces the
    /// report. Must only be called once [`step`](Simulation::step) has
    /// returned `false`.
    pub fn finish(mut self) -> (SimReport, F) {
        // No more capacity will ever free up: every still-deferred task must
        // resolve now so the books close.
        let resolved = self.ctl.finalize(self.now);
        self.apply_resolutions(resolved);
        debug_assert!(self.running.is_empty(), "tasks still running after drain");
        self.metrics.set_end_time(self.now);
        let metrics = self.metrics.finish();
        // Under the guarantees, every admission the frontend made was
        // dispatched: a plan whose due instant no turn reached would be
        // missing here. (A failover loses admissions by design and runs
        // non-strict.)
        debug_assert!(
            !self.cfg.strict_guarantees || metrics.accepted == self.ever_dispatched.len() as u64,
            "{} accepted, {} dispatched",
            metrics.accepted,
            self.ever_dispatched.len()
        );
        (
            SimReport {
                metrics,
                trace: self.trace,
            },
            self.ctl,
        )
    }

    /// The simulation clock (the time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far (arrivals, releases, due events).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Re-offered dispatches the engine suppressed because the task was
    /// already physically dispatched — nonzero only when a promoted
    /// standby offered a dispatch its dead primary had made unseen.
    pub fn duplicate_dispatches(&self) -> u64 {
        self.duplicate_dispatches
    }

    /// The admission frontend being driven.
    pub fn frontend(&self) -> &F {
        &self.ctl
    }

    fn handle_arrival(&mut self, task: Task) {
        let request = match self.cfg.tenant_mix {
            Some(mix) => mix.assign(task),
            None => SubmitRequest::new(task),
        };
        let outcome: SubmitOutcome = self.ctl.decide(&request, self.now).into();
        // The admitted plan as the decision left it: the turn may replan it
        // (a rescue or an activation inserted ahead of it) or dispatch it.
        let admitted = (outcome == SubmitOutcome::Accepted || self.trace.is_some())
            .then(|| self.ctl.plan_of(task.id))
            .flatten()
            .map(|p| (p.est_completion, admission_gain(&self.cfg.params, &task, p)));
        self.settle(false, Some((task, outcome, admitted)));
    }

    /// Books an arrival's outcome, once its turn has been driven: the
    /// admission metrics (a pending task is counted when it resolves) and
    /// its trace record, with the plan read at the admission decision.
    fn note_arrival(&mut self, task: Task, outcome: SubmitOutcome, admitted: Option<Admitted>) {
        let accepted = outcome == SubmitOutcome::Accepted;
        let (est, gain) = admitted.unwrap_or((task.arrival, None));
        match outcome {
            SubmitOutcome::Accepted => {
                self.metrics.on_admission(None);
                if let Some(gain) = gain {
                    self.metrics.on_admission_gain(gain);
                }
            }
            SubmitOutcome::Rejected(cause) => self.metrics.on_admission(Some(cause)),
            SubmitOutcome::Pending => {}
        }
        if let Some(trace) = &mut self.trace {
            self.trace_task_idx.insert(task.id, trace.tasks.len());
            trace.tasks.push(TaskRecord {
                task: task.id,
                arrival: task.arrival,
                deadline: task.absolute_deadline(),
                accepted,
                n_nodes: 0,
                est_completion: est,
                actual_completion: None,
            });
        }
    }

    /// Applies verdicts the frontend reached for previously pending tasks.
    /// A turn resolves after its dispatch step, so a rescued task is still
    /// waiting.
    fn apply_resolutions(&mut self, resolved: Vec<Resolution>) {
        for (task, rejection) in resolved {
            let rescued = rejection.is_none();
            self.metrics.on_admission(rejection);
            let plan = self.ctl.plan_of(task.id);
            if rescued {
                if let Some(gain) = plan.and_then(|p| admission_gain(&self.cfg.params, &task, p)) {
                    self.metrics.on_admission_gain(gain);
                }
            }
            if let Some(trace) = &mut self.trace {
                if let Some(&i) = self.trace_task_idx.get(&task.id) {
                    trace.tasks[i].accepted = rescued;
                    if let Some(plan) = plan {
                        trace.tasks[i].est_completion = plan.est_completion;
                    }
                }
            }
        }
    }

    fn handle_release(&mut self, node: NodeId, task: TaskId) {
        // Only the latest commitment on a node may lower its release time:
        // an earlier task's completion is irrelevant once the node has been
        // handed to a successor, and an earlier *round* of a multi-round
        // plan must not release the node while later rounds are committed.
        if self.node_last_task[node.index()] == Some(task)
            && self.node_committed_until[node.index()].at_or_before_eps(self.now)
        {
            if self
                .ctl
                .committed_release(node.index())
                .definitely_after(self.now)
            {
                self.release_slack_seen = true;
            }
            self.ctl.node_released(node.index(), self.now);
        }
        let finished = {
            let rt = self
                .running
                .get_mut(&task)
                .expect("release event for unknown running task");
            rt.remaining_chunks -= 1;
            rt.remaining_chunks == 0
        };
        if finished {
            let rt = self.running.remove(&task).expect("present");
            self.metrics
                .on_task_complete(rt.arrival, rt.deadline, rt.estimate, self.now);
            if let Some(trace) = &mut self.trace {
                if let Some(&i) = self.trace_task_idx.get(&task) {
                    trace.tasks[i].actual_completion = Some(self.now);
                }
            }
            if self.cfg.strict_guarantees {
                assert!(
                    !self.now.definitely_after(rt.deadline),
                    "accepted task {task:?} missed its deadline: {} > {}",
                    self.now,
                    rt.deadline
                );
                if self.cfg.link == LinkModel::PerTask {
                    assert!(
                        !self.now.definitely_after(rt.estimate),
                        "task {task:?} overran its estimate (Theorem 4 violated): {} > {}",
                        self.now,
                        rt.estimate
                    );
                }
            }
        }
        let replan = self.cfg.replan == ReplanPolicy::OnRelease && self.release_slack_seen;
        self.settle(replan, None);
    }

    /// Post-event consolidation: optionally re-plan the waiting queue, drive
    /// the frontend's turn, book what the turn produced — the event's own
    /// arrival first, then the resolutions, then the dispatches — and
    /// re-arm at the frontend's next due instant.
    fn settle(&mut self, replan: bool, arrival: Option<(Task, SubmitOutcome, Option<Admitted>)>) {
        if replan {
            match self.ctl.replan_waiting(self.now) {
                Ok(()) => self.release_slack_seen = false,
                Err(_) => {
                    // Releases only moved earlier, yet the replanned queue
                    // can still be infeasible: the FixedPoint ñ_min scan may
                    // grant a predecessor *fewer* nodes against the earlier
                    // availability (it still meets its own deadline, but
                    // finishes later), starving a successor. The controller
                    // keeps the admission-time plans on failure, and those
                    // remain executable and deadline-safe — their start
                    // times are still achievable under the earlier releases
                    // — so replanning stays a pure optimization. The slack
                    // flag stays set; the next release retries.
                }
            }
        }
        let turn = self.ctl.drive(self.now);
        let idle = turn.is_empty();
        if let Some((task, outcome, admitted)) = arrival {
            self.note_arrival(task, outcome, admitted);
        }
        self.apply_resolutions(turn.resolved);
        for (task, plan) in turn.dispatched {
            self.dispatch(task, plan);
        }
        self.generation += 1;
        // A plan admitted after the turn's dispatch step (a reservation
        // activation, a rescue) may be due at this very instant: the next
        // turn runs at once and dispatches it.
        if let Some(t) = self.ctl.next_due() {
            // A turn that did nothing yet left work due now would do nothing
            // again, forever: every due instant must be one a turn acts at.
            debug_assert!(
                !idle || t > self.now,
                "an idle turn at {} left work due at {t}",
                self.now
            );
            let generation = self.generation;
            self.events.push(t.max(self.now), Event::Due { generation });
        }
    }

    /// Realizes a committed plan: computes the exact per-chunk timeline,
    /// reserves the nodes, and schedules the completion events.
    fn dispatch(&mut self, task: Task, plan: TaskPlan) {
        if !self.ever_dispatched.insert(task.id) {
            self.duplicate_dispatches += 1;
            return;
        }
        let sigma = task.data_size;
        let params = self.cfg.params;
        let n = plan.n();
        let distinct = plan.distinct_nodes();
        self.metrics.on_dispatch(distinct);
        if let Some(&i) = self.trace_task_idx.get(&task.id) {
            if let Some(trace) = &mut self.trace {
                trace.tasks[i].n_nodes = distinct;
            }
        }

        let mut prev_tx_end = SimTime::ZERO;
        let mut last_completion = SimTime::ZERO;
        for i in 0..n {
            let node = plan.nodes[i];
            let frac = plan.fractions[i];
            // Physical constraints on the transmission start: the plan's
            // start time (node availability / OPR common start), in-task
            // link serialization, the node's true previous completion, and
            // (ablation only) the global link.
            let mut tx_start = plan.start_times[i]
                .max(self.node_free_actual[node.index()])
                .max(if i > 0 { prev_tx_end } else { SimTime::ZERO });
            if self.cfg.link == LinkModel::SharedGlobal {
                tx_start = tx_start.max(self.link_free);
            }
            let tx_end = tx_start + SimTime::new(frac * sigma * params.cms);
            let compute_end = tx_end + SimTime::new(frac * sigma * params.cps);

            if self.cfg.link == LinkModel::PerTask {
                debug_assert!(
                    compute_end.at_or_before_eps(plan.node_release_estimates[i]),
                    "chunk {i} of {:?} finishes at {compute_end:?}, past its \
                     release estimate {:?}",
                    task.id,
                    plan.node_release_estimates[i]
                );
                self.link_free = self.link_free.max(tx_end);
            } else {
                self.link_free = tx_end;
            }

            // The node idles from its true previous availability (no earlier
            // than the task's own arrival — the work did not exist before
            // that) until the chunk occupies it: that gap is the inserted
            // idle time this dispatch failed to use.
            let effective_avail = self.node_free_actual[node.index()].max(task.arrival);
            self.metrics
                .on_chunk(effective_avail, tx_start, compute_end);
            if let Some(trace) = &mut self.trace {
                trace.chunks.push(ChunkRecord {
                    task: task.id,
                    node,
                    fraction: frac,
                    available: plan.start_times[i],
                    tx_start,
                    tx_end,
                    compute_end,
                });
            }

            self.node_free_actual[node.index()] = compute_end;
            self.node_last_task[node.index()] = Some(task.id);
            self.node_committed_until[node.index()] = compute_end;
            self.events.push(
                compute_end,
                Event::NodeRelease {
                    node,
                    task: task.id,
                },
            );
            prev_tx_end = tx_end;
            last_completion = last_completion.max(compute_end);
        }

        self.running.insert(
            task.id,
            RunningTask {
                remaining_chunks: n,
                arrival: task.arrival,
                deadline: task.absolute_deadline(),
                estimate: plan.est_completion,
            },
        );
        debug_assert!(
            self.cfg.link == LinkModel::SharedGlobal
                || last_completion.at_or_before_eps(plan.est_completion),
            "task {:?} actual completion {last_completion:?} exceeds estimate {:?}",
            task.id,
            plan.est_completion
        );
    }
}

/// How much the (possibly IIT-utilizing) completion estimate beat the
/// no-IIT estimate for the same allocation, *at the admission decision*:
/// `(r_n + E(σ,n)) − e`. This is the slack that lets the DLT strategy
/// accept tasks the OPR baseline must reject. `None` for multi-round
/// plans, whose start times are replayed transmission starts, not node
/// availabilities — the single-round comparison means nothing there.
fn admission_gain(params: &ClusterParams, task: &Task, plan: &TaskPlan) -> Option<f64> {
    if matches!(plan.strategy, StrategyKind::DltMultiRound { .. }) {
        return None;
    }
    let r_n = *plan.start_times.last().expect("n >= 1");
    let e_no_iit = rtdls_core::dlt::homogeneous::exec_time(params, task.data_size, plan.n());
    Some((r_n.as_f64() + e_no_iit) - plan.est_completion.as_f64())
}

/// Convenience: build and run in one call.
pub fn run_simulation(cfg: SimConfig, tasks: impl IntoIterator<Item = Task>) -> SimReport {
    Simulation::new(cfg).run(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdls_core::dlt::homogeneous;

    fn baseline_cfg(algorithm: AlgorithmKind) -> SimConfig {
        SimConfig::new(ClusterParams::paper_baseline(), algorithm)
            .strict()
            .with_trace()
    }

    fn run(algorithm: AlgorithmKind, tasks: Vec<Task>) -> SimReport {
        run_simulation(baseline_cfg(algorithm), tasks)
    }

    #[test]
    fn empty_workload_produces_empty_report() {
        let report = run(AlgorithmKind::EDF_DLT, vec![]);
        assert_eq!(report.metrics.arrivals, 0);
        assert_eq!(report.metrics.completed, 0);
        assert_eq!(report.metrics.reject_ratio(), 0.0);
    }

    #[test]
    fn single_task_runs_exactly_as_opr_predicts() {
        // One task on an idle cluster: DLT-IIT degenerates to OPR and the
        // actual completion equals E(σ, n) exactly.
        let p = ClusterParams::paper_baseline();
        let sigma = 200.0;
        let task = Task::new(1, 0.0, sigma, 1e9);
        let report = run(AlgorithmKind::EDF_DLT, vec![task]);
        assert_eq!(report.metrics.accepted, 1);
        assert_eq!(report.metrics.completed, 1);
        assert_eq!(report.metrics.deadline_misses, 0);
        let trace = report.trace.unwrap();
        trace.check_consistency().unwrap();
        let rec = trace.task(TaskId(1)).unwrap();
        let n = rec.n_nodes;
        assert!(n >= 1);
        let e = homogeneous::exec_time(&p, sigma, n);
        let actual = rec.actual_completion.unwrap().as_f64();
        assert!(
            (actual - e).abs() < 1e-6,
            "actual {actual} vs closed-form {e} on {n} nodes"
        );
    }

    #[test]
    fn infeasible_task_is_rejected_and_never_runs() {
        let task = Task::new(1, 0.0, 200.0, 10.0); // < transmission time
        let report = run(AlgorithmKind::EDF_DLT, vec![task]);
        assert_eq!(report.metrics.rejected, 1);
        assert_eq!(report.metrics.completed, 0);
        assert!(report.trace.unwrap().chunks.is_empty());
    }

    #[test]
    fn all_algorithms_complete_accepted_tasks_within_deadline() {
        // A bursty workload that forces queueing; strict mode panics on any
        // guarantee violation, so reaching the assertions is the test.
        let mut tasks = Vec::new();
        for i in 0..40 {
            let arrival = (i / 4) as f64 * 3000.0;
            let t = Task::new(i, arrival, 100.0 + (i % 7) as f64 * 50.0, 60_000.0)
                .with_user_nodes(Some(2 + (i as usize % 8)));
            tasks.push(t);
        }
        for algorithm in AlgorithmKind::ALL {
            let report = run(algorithm, tasks.clone());
            assert_eq!(
                report.metrics.deadline_misses, 0,
                "{algorithm} missed deadlines"
            );
            assert_eq!(
                report.metrics.estimate_overruns, 0,
                "{algorithm} overran estimates"
            );
            assert_eq!(
                report.metrics.completed, report.metrics.accepted,
                "{algorithm} lost tasks"
            );
            report.trace.unwrap().check_consistency().unwrap();
        }
    }

    #[test]
    fn dlt_iit_starts_work_before_opr_mn_can() {
        // Two staggered long tasks saturate the cluster; a third task must
        // wait. Under DLT-IIT its earliest chunks begin as nodes free up;
        // under OPR-MN nothing starts until enough nodes are simultaneously
        // free, so the DLT completion is no later and the reject ratio no
        // higher over a pressured sequence.
        let mk = |id: u64, arrival: f64, sigma: f64, d: f64| Task::new(id, arrival, sigma, d);
        let tasks = vec![
            mk(1, 0.0, 800.0, 200_000.0),
            mk(2, 10.0, 800.0, 200_000.0),
            mk(3, 20.0, 400.0, 200_000.0),
        ];
        let dlt = run(AlgorithmKind::EDF_DLT, tasks.clone());
        let opr = run(AlgorithmKind::EDF_OPR_MN, tasks);
        let d_done = dlt.trace.as_ref().unwrap().task(TaskId(3)).unwrap();
        let o_done = opr.trace.as_ref().unwrap().task(TaskId(3)).unwrap();
        let d_c = d_done.actual_completion.unwrap();
        let o_c = o_done.actual_completion.unwrap();
        assert!(
            d_c <= o_c,
            "DLT-IIT completion {d_c:?} should not trail OPR-MN {o_c:?}"
        );
    }

    #[test]
    fn overload_rejects_but_never_breaks_guarantees() {
        // Heavy overload: many tight tasks arriving together.
        let p = ClusterParams::paper_baseline();
        let e16 = homogeneous::exec_time(&p, 400.0, 16);
        let tasks: Vec<Task> = (0..60)
            .map(|i| Task::new(i, (i as f64) * 10.0, 400.0, e16 * 2.5))
            .collect();
        let report = run(AlgorithmKind::EDF_DLT, tasks);
        assert!(
            report.metrics.rejected > 0,
            "overload must reject something"
        );
        assert_eq!(report.metrics.deadline_misses, 0);
        assert_eq!(report.metrics.completed, report.metrics.accepted);
    }

    #[test]
    fn trace_records_all_arrivals_and_dispatch_sizes() {
        let tasks = vec![
            Task::new(1, 0.0, 200.0, 1e6),
            Task::new(2, 5.0, 100.0, 1e6),
            Task::new(3, 9.0, 50.0, 20.0), // hopeless, rejected
        ];
        let report = run(AlgorithmKind::FIFO_DLT, tasks);
        let trace = report.trace.unwrap();
        assert_eq!(trace.tasks.len(), 3);
        assert!(trace.task(TaskId(3)).map(|t| !t.accepted).unwrap());
        for rec in trace.tasks.iter().filter(|t| t.accepted) {
            assert!(rec.n_nodes >= 1, "accepted task has no allocation");
            assert!(rec.actual_completion.is_some());
            assert!(
                rec.actual_completion
                    .unwrap()
                    .at_or_before_eps(rec.est_completion),
                "Theorem 4 violated in trace"
            );
        }
    }

    #[test]
    fn replan_on_release_is_no_worse_than_arrivals_only() {
        // The same workload under both replan policies: OnRelease must not
        // increase the reject ratio (it only ever sees earlier releases).
        let tasks: Vec<Task> = (0..50)
            .map(|i| {
                Task::new(
                    i,
                    (i as f64) * 900.0,
                    150.0 + (i % 5) as f64 * 80.0,
                    45_000.0,
                )
            })
            .collect();
        let base = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT).strict();
        let on_release = run_simulation(base, tasks.clone());
        let arrivals_only = run_simulation(base.with_replan(ReplanPolicy::ArrivalsOnly), tasks);
        assert!(on_release.metrics.rejected <= arrivals_only.metrics.rejected);
        assert_eq!(on_release.metrics.deadline_misses, 0);
        assert_eq!(arrivals_only.metrics.deadline_misses, 0);
    }

    #[test]
    fn user_split_without_annotation_is_rejected() {
        let report = run(
            AlgorithmKind::EDF_USER_SPLIT,
            vec![Task::new(1, 0.0, 100.0, 1e6)],
        );
        assert_eq!(report.metrics.rejected, 1);
    }

    #[test]
    fn multi_round_executes_with_full_guarantees() {
        // The §6 extension on a communication-heavy cluster: multi-round
        // plans dispatch several chunks per node; guarantees and physical
        // consistency must hold exactly as for single-round.
        let params = ClusterParams::new(16, 8.0, 100.0).unwrap();
        // Deadlines tight enough that tasks need several nodes — the regime
        // where installments engage (n = 1 plans gain nothing from rounds).
        let tasks: Vec<Task> = (0..30)
            .map(|i| {
                Task::new(
                    i,
                    (i as f64) * 2_000.0,
                    100.0 + (i % 5) as f64 * 50.0,
                    4_000.0,
                )
            })
            .collect();
        for rounds in [2u8, 4] {
            let algorithm = AlgorithmKind {
                policy: Policy::Edf,
                strategy: StrategyKind::DltMultiRound { rounds },
            };
            let cfg = SimConfig::new(params, algorithm).strict().with_trace();
            let report = run_simulation(cfg, tasks.clone());
            assert_eq!(report.metrics.deadline_misses, 0, "MR{rounds}");
            assert_eq!(report.metrics.estimate_overruns, 0, "MR{rounds}");
            assert_eq!(report.metrics.completed, report.metrics.accepted);
            let trace = report.trace.unwrap();
            trace.check_consistency().unwrap();
            // At least one accepted task actually ran in installments.
            let multi = trace
                .tasks
                .iter()
                .filter(|t| t.accepted)
                .any(|t| trace.task_chunks(t.task).count() > t.n_nodes);
            assert!(multi, "MR{rounds}: no task ran multi-round chunks");
        }
    }

    #[test]
    fn multi_round_is_competitive_with_single_round() {
        // The adaptive fallback makes every individual MR estimate no worse
        // than the single-round one. Aggregate acceptance can still diverge
        // slightly in either direction (an extra early acceptance changes
        // all later state), so the engine-level check is: no regression
        // beyond noise, and typically a net win in a communication-heavy
        // regime with tight deadlines.
        let params = ClusterParams::new(16, 8.0, 100.0).unwrap();
        let tasks: Vec<Task> = (0..60)
            .map(|i| {
                Task::new(
                    i,
                    (i as f64) * 1_200.0,
                    100.0 + (i % 11) as f64 * 30.0,
                    4_500.0,
                )
            })
            .collect();
        let single = run_simulation(
            SimConfig::new(params, AlgorithmKind::EDF_DLT).strict(),
            tasks.clone(),
        );
        let multi = run_simulation(
            SimConfig::new(
                params,
                AlgorithmKind {
                    policy: Policy::Edf,
                    strategy: StrategyKind::DltMultiRound { rounds: 4 },
                },
            )
            .strict(),
            tasks,
        );
        assert!(
            multi.metrics.accepted + 2 >= single.metrics.accepted,
            "MR4 accepted {} far below single-round {}",
            multi.metrics.accepted,
            single.metrics.accepted
        );
        assert_eq!(multi.metrics.deadline_misses, 0);
    }

    #[test]
    fn determinism_same_input_same_report() {
        let tasks: Vec<Task> = (0..30)
            .map(|i| {
                Task::new(
                    i,
                    (i as f64) * 700.0,
                    120.0 + (i % 9) as f64 * 40.0,
                    50_000.0,
                )
            })
            .collect();
        let a = run(AlgorithmKind::EDF_DLT, tasks.clone());
        let b = run(AlgorithmKind::EDF_DLT, tasks);
        assert_eq!(a.metrics.accepted, b.metrics.accepted);
        assert_eq!(a.metrics.rejected, b.metrics.rejected);
        assert!((a.metrics.total_response_time - b.metrics.total_response_time).abs() < 1e-9);
        assert_eq!(a.trace.unwrap().chunks, b.trace.unwrap().chunks);
    }

    /// The shape of a reservation activated at its `start_at`: the parked
    /// task is admitted in the turn at `at`, *after* that turn's dispatch
    /// step, with a plan that starts at `at` itself.
    struct LateAdmission {
        at: SimTime,
        planner: AdmissionController,
        parked: Option<Task>,
        waiting: Option<(Task, TaskPlan)>,
    }

    impl Serve for LateAdmission {
        type Outcome = SubmitOutcome;

        fn decide(&mut self, request: &SubmitRequest, _now: SimTime) -> SubmitOutcome {
            self.parked = Some(request.task);
            SubmitOutcome::Pending
        }
        fn drive(&mut self, now: SimTime) -> crate::serve::Turn {
            let mut turn = crate::serve::Turn::default();
            if self
                .waiting
                .as_ref()
                .is_some_and(|(_, p)| p.first_start() <= now)
            {
                turn.dispatched.extend(self.waiting.take());
            }
            if now >= self.at {
                if let Some(task) = self.parked.take() {
                    let plan = self.planner.probe_plan(&task, now).expect("idle cluster");
                    assert_eq!(plan.first_start(), now, "due at once");
                    self.waiting = Some((task, plan));
                    turn.resolved.push((task, None));
                }
            }
            turn
        }
        fn next_due(&self) -> Option<SimTime> {
            let start = self.waiting.as_ref().map(|(_, p)| p.first_start());
            start.or(self.parked.map(|_| self.at))
        }
        fn replan_waiting(&mut self, _now: SimTime) -> Result<(), AdmissionFailure> {
            Ok(())
        }
        fn committed_release(&self, node: usize) -> SimTime {
            self.planner.committed_releases()[node]
        }
        fn node_released(&mut self, _node: usize, _at: SimTime) {}
        fn plan_of(&self, task: TaskId) -> Option<&TaskPlan> {
            self.waiting
                .as_ref()
                .filter(|(t, _)| t.id == task)
                .map(|(_, plan)| plan)
        }
    }

    #[test]
    fn a_plan_admitted_due_at_once_dispatches_at_that_instant() {
        // A turn that admitted work re-arms the instant it ran at: the
        // admitted plan is taken by the next turn at the same instant. An
        // engine that never re-armed a same-instant event would leave it
        // waiting for an event that never comes.
        let at = SimTime::new(100.0);
        let frontend = LateAdmission {
            at,
            planner: AdmissionController::new(
                ClusterParams::paper_baseline(),
                AlgorithmKind::EDF_DLT,
                PlanConfig::default(),
            ),
            parked: None,
            waiting: None,
        };
        let task = Task::new(1, 0.0, 200.0, 1e6);
        let (report, _) = Simulation::with_frontend(baseline_cfg(AlgorithmKind::EDF_DLT), frontend)
            .run_returning_frontend(vec![task]);
        assert_eq!(report.metrics.accepted, 1);
        assert_eq!(report.metrics.completed, 1, "the admitted plan ran");
        let trace = report.trace.unwrap();
        let first = trace.task_chunks(task.id).next().expect("dispatched");
        assert_eq!(first.tx_start, at, "dispatched at the instant it fell due");
    }

    #[test]
    fn stepping_api_equals_one_shot_run() {
        let tasks: Vec<Task> = (0..30)
            .map(|i| Task::new(i, i as f64 * 900.0, 150.0 + (i % 5) as f64 * 80.0, 45_000.0))
            .collect();
        let one_shot = run(AlgorithmKind::EDF_DLT, tasks.clone());
        let mut sim = Simulation::new(baseline_cfg(AlgorithmKind::EDF_DLT));
        sim.prime(tasks.iter().copied());
        let mut steps = 0u64;
        while sim.step() {
            steps += 1;
            assert_eq!(steps, sim.events_processed());
        }
        let (stepped, _) = sim.finish();
        assert!(steps >= tasks.len() as u64);
        assert_eq!(stepped.metrics.accepted, one_shot.metrics.accepted);
        assert_eq!(stepped.metrics.rejected, one_shot.metrics.rejected);
        assert_eq!(stepped.metrics.completed, one_shot.metrics.completed);
    }
}
