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
use crate::frontend::{Frontend, SubmitOutcome};
use crate::metrics::{Metrics, MetricsCollector};
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

/// The simulation state machine. Construct with [`Simulation::new`] (plain
/// admission control) or [`Simulation::with_frontend`] (any admission
/// frontend, e.g. an `rtdls-service` gateway), feed arrivals with
/// [`Simulation::run`].
pub struct Simulation<F: Frontend = AdmissionController> {
    cfg: SimConfig,
    ctl: F,
    events: EventQueue,
    now: SimTime,
    /// Events processed so far (the fault-injection "kill index" clock).
    events_processed: u64,
    /// Plan-generation stamp; bumped whenever plans may have changed so that
    /// previously scheduled dispatch-due events are recognized as stale.
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
    /// Every task ever physically dispatched. A frontend swapped in mid-run
    /// (crash recovery, failover promotion) replays its predecessor's
    /// committed book and may re-offer a plan the cluster already executed;
    /// the engine dispatches each task at most once.
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

impl<F: Frontend> Simulation<F> {
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
    /// the setup half of the stepped API ([`step`] / [`finish`]) that
    /// fault-injection harnesses use to pause a run mid-stream.
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
            Event::DispatchDue { generation } | Event::Wakeup { generation } => {
                if generation == self.generation {
                    self.settle(false);
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
        self.ctl.finalize(self.now);
        self.apply_resolutions();
        debug_assert!(self.running.is_empty(), "tasks still running after drain");
        debug_assert_eq!(self.ctl.waiting_len(), 0, "tasks still waiting after drain");
        self.metrics.set_end_time(self.now);
        (
            SimReport {
                metrics: self.metrics.finish(),
                trace: self.trace,
            },
            self.ctl,
        )
    }

    /// The simulation clock (the time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far (arrivals, releases, dispatch-due).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Re-offered dispatches the engine suppressed because the task was
    /// already physically dispatched — nonzero only when a swapped-in
    /// frontend (crash recovery, failover promotion) replayed a committed
    /// dispatch its predecessor had executed.
    pub fn duplicate_dispatches(&self) -> u64 {
        self.duplicate_dispatches
    }

    /// The admission frontend being driven.
    pub fn frontend(&self) -> &F {
        &self.ctl
    }

    /// Swaps in a replacement frontend mid-run and returns the old one — the
    /// restart half of a crash/recovery fault injection. The engine keeps
    /// its own cluster bookkeeping (running tasks, node completions, pending
    /// release events): the modeled worker nodes survive a head-node crash.
    /// Pending dispatch-due events for the old frontend are invalidated and
    /// the next dispatch is re-armed from the replacement's queue.
    ///
    /// Note on accounting: admission metrics the engine already recorded for
    /// the old frontend are not rewritten, so engine-side accept/reject
    /// counts straddling a swap are approximate; the guarantee checks
    /// (deadline misses, Theorem 4 overruns) remain exact.
    pub fn replace_frontend(&mut self, replacement: F) -> F {
        let old = std::mem::replace(&mut self.ctl, replacement);
        self.generation += 1;
        if let Some(t) = self.ctl.next_dispatch_due() {
            self.events.push(
                t.max(self.now),
                Event::DispatchDue {
                    generation: self.generation,
                },
            );
        }
        // Re-arm the replacement's wakeup as well: a recovered reservation
        // book must get its activation instant even if no dispatch or
        // cluster event would otherwise wake the frontend.
        if let Some(t) = self.ctl.next_wakeup() {
            self.events.push(
                t.max(self.now),
                Event::Wakeup {
                    generation: self.generation,
                },
            );
        }
        old
    }

    fn handle_arrival(&mut self, task: Task) {
        let request = match self.cfg.tenant_mix {
            Some(mix) => mix.assign(task),
            None => SubmitRequest::new(task),
        };
        let outcome = self.ctl.submit_request(&request, self.now);
        match outcome {
            SubmitOutcome::Accepted => {
                self.metrics.on_admission(None);
                self.note_accepted(&task);
            }
            SubmitOutcome::Rejected(cause) => self.metrics.on_admission(Some(cause)),
            // Deferred: counted when the frontend resolves it.
            SubmitOutcome::Pending => {}
        }
        if let Some(trace) = &mut self.trace {
            let est = self
                .ctl
                .find_plan(task.id)
                .map(|p| p.est_completion)
                .unwrap_or(task.arrival);
            self.trace_task_idx.insert(task.id, trace.tasks.len());
            trace.tasks.push(TaskRecord {
                task: task.id,
                arrival: task.arrival,
                deadline: task.absolute_deadline(),
                accepted: outcome == SubmitOutcome::Accepted,
                n_nodes: 0,
                est_completion: est,
                actual_completion: None,
            });
        }
        self.settle(false);
    }

    /// Books the admission-gain metric and trace updates for a task that
    /// just entered the waiting queue (at arrival, or later when a deferred
    /// task is rescued).
    fn note_accepted(&mut self, task: &Task) {
        // How much the (possibly IIT-utilizing) completion estimate beat
        // the no-IIT estimate for the same allocation, *at the admission
        // decision*: (r_n + E(σ,n)) − e. This is the slack that lets the
        // DLT strategy accept tasks the OPR baseline must reject.
        if let Some(plan) = self.ctl.find_plan(task.id) {
            // For multi-round plans start_times are replayed transmission
            // starts, not node availabilities — the single-round baseline
            // comparison is not meaningful there.
            if !matches!(plan.strategy, StrategyKind::DltMultiRound { .. }) {
                let r_n = *plan.start_times.last().expect("n >= 1");
                let e_no_iit = rtdls_core::dlt::homogeneous::exec_time(
                    &self.cfg.params,
                    task.data_size,
                    plan.n(),
                );
                let gain = (r_n.as_f64() + e_no_iit) - plan.est_completion.as_f64();
                self.metrics.on_admission_gain(gain);
            }
        }
    }

    /// Applies verdicts the frontend reached for previously deferred tasks.
    fn apply_resolutions(&mut self) {
        for (task, rejection) in self.ctl.drain_resolutions() {
            let rescued = rejection.is_none();
            self.metrics.on_admission(rejection);
            if rescued {
                self.note_accepted(&task);
            }
            if let Some(trace) = &mut self.trace {
                if let Some(&i) = self.trace_task_idx.get(&task.id) {
                    trace.tasks[i].accepted = rescued;
                    if let Some(plan) = self.ctl.find_plan(task.id) {
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
            self.ctl.set_node_release(node.index(), self.now);
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
        self.settle(replan);
    }

    /// Post-event consolidation: optionally re-plan the waiting queue, give
    /// the frontend its re-test hook (deferred tasks may be rescued here),
    /// then dispatch everything due at the current instant and re-arm the
    /// next dispatch-due event.
    fn settle(&mut self, replan: bool) {
        if replan {
            match self.ctl.replan(self.now) {
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
        self.ctl.on_event(self.now);
        self.apply_resolutions();
        let due = self.ctl.take_due(self.now);
        for (task, plan) in due {
            self.dispatch(task, plan);
        }
        // Reservation activation runs after the dispatches at this instant
        // committed their releases — a reservation's start_at is typically
        // exactly a dispatch instant, and the activation test must see the
        // post-dispatch book. A plan admitted here that is itself already
        // due dispatches through the re-armed same-instant event below.
        self.ctl.activate(self.now);
        self.apply_resolutions();
        self.generation += 1;
        if let Some(t) = self.ctl.next_dispatch_due() {
            self.events.push(
                t.max(self.now),
                Event::DispatchDue {
                    generation: self.generation,
                },
            );
        }
        if let Some(t) = self.ctl.next_wakeup() {
            self.events.push(
                t.max(self.now),
                Event::Wakeup {
                    generation: self.generation,
                },
            );
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
}
