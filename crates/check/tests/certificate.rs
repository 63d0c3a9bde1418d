//! The plan certificate on plans the kernel made, and on each of them
//! broken one clause at a time. (Here rather than beside `certify`: the
//! certificate's own file may not name the kernel, not even in a test.)

use rtdls_check::independent::{certify, solve_equal_finish, Clause};
use rtdls_core::prelude::*;

fn params() -> ClusterParams {
    ClusterParams::paper_baseline()
}

fn dlt_plan(releases: &[f64], task: &Task) -> (Vec<SimTime>, TaskPlan) {
    let releases: Vec<SimTime> = releases.iter().copied().map(SimTime::new).collect();
    let avail = NodeAvailability::new(&releases, task.arrival);
    let plan = plan_task(
        StrategyKind::DltIit,
        task,
        &avail,
        &params(),
        &PlanConfig::default(),
    )
    .expect("feasible");
    (releases, plan)
}

#[test]
fn a_planned_task_is_certified_and_each_broken_clause_is_named() {
    let task = Task::new(1, 0.0, 200.0, 4_000.0);
    let staggered: Vec<f64> = (0..16).map(|i| 10.0 * i as f64).collect();
    let (releases, plan) = dlt_plan(&staggered, &task);
    assert!(plan.n() > 1);
    assert_eq!(certify(&params(), &task, &releases, &plan), Ok(()));
    let clause = |edit: &dyn Fn(&mut TaskPlan, &mut Vec<SimTime>)| {
        let (mut plan, mut releases) = (plan.clone(), releases.clone());
        edit(&mut plan, &mut releases);
        certify(&params(), &task, &releases, &plan)
            .unwrap_err()
            .clause
    };
    // A plan that drops load.
    assert_eq!(clause(&|p, _| p.fractions[0] *= 0.9), Clause::Fractions);
    // A node released after the plan starts on it.
    let late = |p: &mut TaskPlan, r: &mut Vec<SimTime>| {
        r[p.nodes[0].index()] = p.start_times[0] + SimTime::new(1.0)
    };
    assert_eq!(clause(&late), Clause::Release);
    // A release estimate before its chunk is computed.
    let early =
        |p: &mut TaskPlan, _: &mut Vec<SimTime>| p.node_release_estimates[1] = p.start_times[1];
    assert_eq!(clause(&early), Clause::Estimate);
    // Load moved from one node to the next, every estimate loosened to
    // cover it: Σα is still 1 and the timeline still fits, but the
    // partition is no longer the equal finish.
    let moved = |p: &mut TaskPlan, _: &mut Vec<SimTime>| {
        p.fractions[0] -= 1e-3;
        p.fractions[1] += 1e-3;
        p.est_completion += SimTime::new(100.0);
        p.node_release_estimates.fill(p.est_completion);
    };
    assert_eq!(clause(&moved), Clause::Partition);
    // A plan made for a tighter deadline takes more nodes than ñ_min
    // asks for at this one.
    let tight = Task {
        rel_deadline: task.rel_deadline * 0.6,
        ..task
    };
    let (_, wider) = dlt_plan(&staggered, &tight);
    assert!(wider.n() > plan.n());
    assert_eq!(
        certify(&params(), &task, &releases, &wider)
            .unwrap_err()
            .clause,
        Clause::NodeCount
    );
    // A deadline the plan misses.
    let rushed = Task {
        rel_deadline: plan.est_completion.as_f64() * 0.5,
        ..task
    };
    assert_eq!(
        certify(&params(), &rushed, &releases, &plan)
            .unwrap_err()
            .clause,
        Clause::Deadline
    );
}

#[test]
fn the_direct_solve_is_the_homogeneous_closed_form() {
    // E(σ, n) = σ·Cms + α_n·σ·Cps with α from the geometric series.
    let (alphas, e) = solve_equal_finish(250.0, 1.0, &[100.0; 4]);
    let beta: f64 = 100.0 / 101.0;
    let alpha_1 = (1.0 - beta) / (1.0 - beta.powi(4));
    assert!((alphas[0] - alpha_1).abs() < 1e-12);
    assert!((e - (250.0 + alphas[3] * 250.0 * 100.0)).abs() < 1e-9);
}
