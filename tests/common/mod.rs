//! What the simulation tests share: a head node whose every dispatched plan
//! is certified before the simulator runs it.
//!
//! The strict simulator proves that no accepted task misses its deadline,
//! but it re-derives each chunk's timeline from the plan's own fractions: a
//! planner that dropped part of the load would finish early and pass. The
//! certificate ([`certify`]) re-derives the plan from the paper's formulas
//! instead, with code that shares nothing with the planner.

use rtdls::prelude::*;
use rtdls_check::independent::certify;

/// The paper's head node ([`AdmissionController`]), serving as it does on
/// its own, with every plan a turn dispatches certified against the
/// committed releases the turn started from and the plans dispatched ahead
/// of it in the turn. A plan that fails panics the run with the clause.
struct Certified {
    engine: AdmissionController,
    /// Plans certified so far.
    certified: u64,
}

impl Serve for Certified {
    type Outcome = Decision;

    fn decide(&mut self, request: &SubmitRequest, now: SimTime) -> Decision {
        self.engine.decide(request, now)
    }

    fn drive_into(&mut self, now: SimTime, turn: &mut Turn) {
        let mut releases = self.engine.committed_releases().to_vec();
        self.engine.drive_into(now, turn);
        for (task, plan) in &turn.dispatched {
            if let Err(v) = certify(self.engine.params(), task, &releases, plan) {
                panic!("dispatched at {now:?}, task {:?}: {v}\n{plan:?}", task.id);
            }
            for (node, &release) in plan.nodes.iter().zip(&plan.node_release_estimates) {
                releases[node.index()] = release;
            }
            self.certified += 1;
        }
    }

    fn next_due(&self) -> Option<SimTime> {
        self.engine.next_due()
    }

    fn replan_waiting(&mut self, now: SimTime) -> Result<(), AdmissionFailure> {
        self.engine.replan_waiting(now)
    }

    fn committed_release(&self, node: usize) -> SimTime {
        self.engine.committed_release(node)
    }

    fn node_released(&mut self, node: usize, at: SimTime) {
        self.engine.node_released(node, at);
    }

    fn plan_of(&self, task: TaskId) -> Option<&TaskPlan> {
        self.engine.plan_of(task)
    }
}

/// [`run_simulation`] with the head node [`Certified`]: every accepted
/// task's plan is certified once, when it dispatches.
pub fn run_certified(cfg: SimConfig, tasks: impl IntoIterator<Item = Task>) -> SimReport {
    let engine = Certified {
        engine: AdmissionController::new(cfg.params, cfg.algorithm, cfg.plan),
        certified: 0,
    };
    let (report, head) = Simulation::with_frontend(cfg, engine).run_returning_frontend(tasks);
    assert_eq!(
        head.certified, report.metrics.accepted,
        "every dispatch certified"
    );
    report
}
