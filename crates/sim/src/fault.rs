//! Crash/restart fault injection for admission frontends.
//!
//! The scheduling model gives hard guarantees *per process lifetime*; this
//! module asks what survives a head-node crash. A [`run_with_crash`] run
//! drives a frontend exactly like [`Simulation::run`], but at a configurable
//! event index the frontend is **killed**: its in-memory state is discarded
//! and a caller-supplied recovery function must produce a replacement — in
//! the real deployment, from durable artifacts only (a write-ahead journal;
//! see the `rtdls-journal` crate). The modeled cluster itself survives: the
//! worker nodes keep crunching the chunks already transmitted to them, and
//! their completion events are delivered to the recovered frontend.
//!
//! The recovery function receives `&F` (the dying frontend) plus the crash
//! instant. The borrow exists so recovery code can extract the *durable*
//! artifact the frontend maintains (journal bytes, a snapshot file path);
//! a faithful recovery must rebuild from that artifact alone, never from
//! the dying instance's live state — that is precisely what the crash is
//! supposed to destroy.

use rtdls_core::prelude::{SimTime, Task};

use crate::config::SimConfig;
use crate::engine::{SimReport, Simulation};
use crate::serve::Serve;

/// When to kill the frontend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    /// Kill once this many events have been processed. An index past the
    /// end of the run means the crash never fires (the run completes
    /// normally — useful as the control arm of a fault-injection sweep).
    pub kill_at_event: u64,
}

impl CrashPlan {
    /// Kill after `kill_at_event` processed events.
    pub fn at_event(kill_at_event: u64) -> Self {
        CrashPlan { kill_at_event }
    }
}

/// A [`CrashSchedule::When`] predicate: `(frontend, now, events_processed)`.
pub type CrashPredicate<F> = Box<dyn FnMut(&F, SimTime, u64) -> bool>;

/// The generalized kill trigger: by event index, by sim-time, or by an
/// arbitrary predicate over the live frontend — e.g. "after the journal's
/// Nth append" or "on the first compacting snapshot", expressed as a
/// [`CrashSchedule::when`] closure reading the frontend's own counters.
pub enum CrashSchedule<F> {
    /// Kill once this many events have been processed
    /// ([`CrashPlan::at_event`] semantics).
    AtEvent(u64),
    /// Kill at the first processed event whose sim-time is at or past this
    /// instant.
    AtTime(SimTime),
    /// Kill the first time the predicate holds. Checked after every
    /// processed event with `(frontend, now, events_processed)`.
    When(CrashPredicate<F>),
}

impl<F> CrashSchedule<F> {
    /// Predicate form, boxed for you.
    pub fn when(pred: impl FnMut(&F, SimTime, u64) -> bool + 'static) -> Self {
        CrashSchedule::When(Box::new(pred))
    }

    fn due(&mut self, frontend: &F, now: SimTime, events: u64) -> bool {
        match self {
            CrashSchedule::AtEvent(kill_at) => events >= *kill_at,
            CrashSchedule::AtTime(at) => now >= *at,
            CrashSchedule::When(pred) => pred(frontend, now, events),
        }
    }
}

impl<F> From<CrashPlan> for CrashSchedule<F> {
    fn from(plan: CrashPlan) -> Self {
        CrashSchedule::AtEvent(plan.kill_at_event)
    }
}

impl<F> core::fmt::Debug for CrashSchedule<F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CrashSchedule::AtEvent(n) => f.debug_tuple("AtEvent").field(n).finish(),
            CrashSchedule::AtTime(t) => f.debug_tuple("AtTime").field(t).finish(),
            CrashSchedule::When(_) => f.write_str("When(<predicate>)"),
        }
    }
}

/// Runs `tasks` through `frontend` under `cfg`, killing the frontend at the
/// planned event index and swapping in `recover(&dead, crash_time)`; the
/// run then continues to completion with the replacement. Returns the final
/// report, the recovered frontend, and whether the crash actually fired.
///
/// Strict-mode configs keep all their run-time guarantee checks across the
/// crash: any admitted task (pre- or post-crash) missing its deadline still
/// panics the run.
pub fn run_with_crash<F: Serve>(
    cfg: SimConfig,
    frontend: F,
    tasks: Vec<Task>,
    plan: CrashPlan,
    recover: impl FnOnce(&F, SimTime) -> F,
) -> (SimReport, F, bool) {
    run_with_crash_schedule(cfg, frontend, tasks, plan.into(), recover)
}

/// [`run_with_crash`] under the generalized [`CrashSchedule`] trigger:
/// kill by event index, by sim-time, or on any frontend-observable
/// condition (journal append counts, snapshot counts, queue depths).
pub fn run_with_crash_schedule<F: Serve>(
    cfg: SimConfig,
    frontend: F,
    tasks: Vec<Task>,
    mut schedule: CrashSchedule<F>,
    recover: impl FnOnce(&F, SimTime) -> F,
) -> (SimReport, F, bool) {
    let mut sim = Simulation::with_frontend(cfg, frontend);
    sim.prime(tasks);
    let mut recover = Some(recover);
    let mut crashed = false;
    loop {
        if !crashed && schedule.due(sim.frontend(), sim.now(), sim.events_processed()) {
            if let Some(recover) = recover.take() {
                let crash_time = sim.now();
                let replacement = recover(sim.frontend(), crash_time);
                let _dead = sim.replace_frontend(replacement);
                crashed = true;
            }
        }
        if !sim.step() {
            break;
        }
    }
    let (report, frontend) = sim.finish();
    (report, frontend, crashed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdls_core::prelude::*;

    fn workload() -> Vec<Task> {
        (0..30)
            .map(|i| {
                Task::new(
                    i,
                    (i as f64) * 900.0,
                    150.0 + (i % 5) as f64 * 80.0,
                    45_000.0,
                )
            })
            .collect()
    }

    fn cfg() -> SimConfig {
        SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT).strict()
    }

    fn controller() -> AdmissionController {
        AdmissionController::new(
            ClusterParams::paper_baseline(),
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
        )
    }

    #[test]
    fn crash_with_perfect_recovery_matches_uncrashed_run() {
        // Recovery from a full state copy (the ideal journal): the crashed
        // run must be indistinguishable from the uncrashed one at every
        // kill index.
        let baseline = crate::engine::run_simulation(cfg(), workload());
        for kill_at in [1u64, 7, 23, 64] {
            let (report, _, crashed) = run_with_crash(
                cfg(),
                controller(),
                workload(),
                CrashPlan::at_event(kill_at),
                |dead, _now| dead.clone(),
            );
            assert!(crashed, "kill index {kill_at} within the run");
            assert_eq!(report.metrics.accepted, baseline.metrics.accepted);
            assert_eq!(report.metrics.rejected, baseline.metrics.rejected);
            assert_eq!(report.metrics.completed, baseline.metrics.completed);
            assert_eq!(report.metrics.deadline_misses, 0);
        }
    }

    #[test]
    fn crash_past_the_end_never_fires() {
        let (report, _, crashed) = run_with_crash(
            cfg(),
            controller(),
            workload(),
            CrashPlan::at_event(u64::MAX),
            |_, _| panic!("recovery must not run"),
        );
        assert!(!crashed);
        assert_eq!(report.metrics.deadline_misses, 0);
        assert_eq!(report.metrics.completed, report.metrics.accepted);
    }

    #[test]
    fn amnesiac_recovery_drops_waiting_tasks_but_keeps_the_cluster_sound() {
        // The half-journal: recovery preserves the committed node releases
        // (dispatched work is remembered — the cluster's physical state
        // stays consistent) but loses the waiting queue. Already-admitted,
        // undispatched tasks silently vanish: the engine counts them as
        // accepted yet they never complete. This is exactly the guarantee
        // leak the journal subsystem exists to close.
        let (report, recovered, crashed) = run_with_crash(
            cfg(),
            controller(),
            workload(),
            CrashPlan::at_event(10),
            |dead, _now| {
                let mut state = dead.state();
                state.queue.clear();
                AdmissionController::from_state(state).expect("consistent releases")
            },
        );
        assert!(crashed);
        let baseline = crate::engine::run_simulation(cfg(), workload());
        assert_eq!(report.metrics.arrivals, baseline.metrics.arrivals);
        assert!(report.metrics.completed <= baseline.metrics.completed);
        // Whatever did complete met its deadline (strict mode panics
        // otherwise), and the recovered frontend drained cleanly.
        assert_eq!(report.metrics.deadline_misses, 0);
        assert_eq!(recovered.queue_len(), 0);
    }

    /// A minimal frontend whose only liveness signal is its due instant:
    /// it parks the one submission it sees and resolves it (accepted) the
    /// first turn driven at or after `wake_at`. No dispatches, no cluster
    /// events — if the engine loses the due event, the task is lost.
    #[derive(Clone)]
    struct WakeupFrontend {
        wake_at: SimTime,
        pending: Option<Task>,
        woken: bool,
    }

    impl Serve for WakeupFrontend {
        type Outcome = crate::serve::SubmitOutcome;

        fn decide(&mut self, request: &SubmitRequest, _now: SimTime) -> Self::Outcome {
            self.pending = Some(request.task);
            crate::serve::SubmitOutcome::Pending
        }
        fn drive(&mut self, now: SimTime) -> crate::serve::Turn {
            let mut turn = crate::serve::Turn::default();
            if now >= self.wake_at {
                if let Some(task) = self.pending.take() {
                    self.woken = true;
                    turn.resolved.push((task, None));
                }
            }
            turn
        }
        fn next_due(&self) -> Option<SimTime> {
            self.pending.as_ref().map(|_| self.wake_at)
        }
        fn finalize(&mut self, _now: SimTime) -> Vec<crate::serve::Resolution> {
            self.pending
                .take()
                .map(|task| (task, Some(Infeasible::NotEnoughNodes)))
                .into_iter()
                .collect()
        }
        fn replan_waiting(&mut self, _now: SimTime) -> Result<(), AdmissionFailure> {
            Ok(())
        }
        fn committed_release(&self, _node: usize) -> SimTime {
            SimTime::ZERO
        }
        fn node_released(&mut self, _node: usize, _at: SimTime) {}
        fn plan_of(&self, _task: TaskId) -> Option<&TaskPlan> {
            None
        }
    }

    #[test]
    fn replace_frontend_rearms_the_pending_wakeup() {
        // Crash immediately after the arrival parks the task: the pending
        // due event is generation-invalidated by the swap, so the
        // replacement's own `next_due` must be re-armed — otherwise the
        // engine never drives it at `wake_at` and finalize rejects the task.
        let frontend = WakeupFrontend {
            wake_at: SimTime::new(100.0),
            pending: None,
            woken: false,
        };
        let (report, recovered, crashed) = run_with_crash(
            cfg(),
            frontend,
            vec![Task::new(1, 0.0, 10.0, 1e6)],
            CrashPlan::at_event(1),
            |dead, _now| dead.clone(),
        );
        assert!(crashed);
        assert!(recovered.woken, "the wakeup fired on the replacement");
        assert_eq!(report.metrics.accepted, 1, "the pending task resolved");
        assert_eq!(report.metrics.rejected, 0);
    }

    #[test]
    fn time_and_predicate_schedules_fire_where_promised() {
        // AtTime: the crash instant is the first processed event at or
        // past the requested sim-time.
        let baseline = crate::engine::run_simulation(cfg(), workload());
        let (report, _, crashed) = run_with_crash_schedule(
            cfg(),
            controller(),
            workload(),
            CrashSchedule::AtTime(SimTime::new(5_000.0)),
            |dead, now| {
                assert!(now >= SimTime::new(5_000.0), "crashed at {now}");
                dead.clone()
            },
        );
        assert!(crashed);
        assert_eq!(report.metrics.completed, baseline.metrics.completed);
        // When: an arbitrary frontend-observable condition — here "the
        // tenth admitted task just landed", the shape a journal-append or
        // snapshot trigger takes.
        let (report, _, crashed) = run_with_crash_schedule(
            cfg(),
            controller(),
            workload(),
            CrashSchedule::when(|ctl: &AdmissionController, _now, _events| ctl.queue_len() >= 3),
            |dead, _now| dead.clone(),
        );
        assert!(crashed);
        assert_eq!(report.metrics.completed, baseline.metrics.completed);
        // A predicate that never holds is the control arm.
        let (_, _, crashed) = run_with_crash_schedule(
            cfg(),
            controller(),
            workload(),
            CrashSchedule::when(|_: &AdmissionController, _, _| false),
            |_, _| panic!("recovery must not run"),
        );
        assert!(!crashed);
    }

    #[test]
    fn replayed_dispatches_from_a_recovered_frontend_run_once() {
        // A full-state recovery re-offers the committed book; the engine's
        // ever-dispatched guard must swallow any re-offered dispatch
        // instead of double-booking nodes (run_with_crash already proves
        // the report is identical; this pins the mechanism's counter).
        let mut sim = Simulation::with_frontend(cfg(), controller());
        sim.prime(workload());
        for _ in 0..10 {
            assert!(sim.step());
        }
        assert_eq!(sim.duplicate_dispatches(), 0);
        let copy = sim.frontend().clone();
        let _dead = sim.replace_frontend(copy);
        while sim.step() {}
        let dups = sim.duplicate_dispatches();
        let (report, _) = sim.finish();
        assert_eq!(report.metrics.deadline_misses, 0);
        // The guard is load-bearing only when the swap straddles an
        // undispatched-but-committed plan; either way the books close.
        assert_eq!(report.metrics.completed, report.metrics.accepted - dups);
    }

    #[test]
    fn stepping_api_equals_one_shot_run() {
        let one_shot = crate::engine::run_simulation(cfg(), workload());
        let mut sim = Simulation::with_frontend(cfg(), controller());
        sim.prime(workload());
        let mut steps = 0u64;
        while sim.step() {
            steps += 1;
            assert_eq!(steps, sim.events_processed());
        }
        let (stepped, _) = sim.finish();
        assert!(steps >= workload().len() as u64);
        assert_eq!(stepped.metrics.accepted, one_shot.metrics.accepted);
        assert_eq!(stepped.metrics.rejected, one_shot.metrics.rejected);
        assert_eq!(stepped.metrics.completed, one_shot.metrics.completed);
    }
}
