//! The production engine held against its oracle on hand-made books.
//!
//! Each test here builds a book, asks the engine ([`AdmissionController`])
//! and the literal Fig. 2 replan ([`ReferenceController`], in
//! `rtdls-check`) the same questions, and compares the answers — decisions,
//! plans, whole states, start searches, explanations. The scenarios come
//! from the engine's own unit tests: where one of those also reads the
//! engine's internals (its refusal ring, its cache of planning inputs, its
//! walks), the internal half stays beside the code in `src/admission/` and
//! the oracle half is here under the same name. A unit test cannot use the
//! oracle itself: `rtdls-check` depends on this crate, and a unit test
//! would see a second copy of every type. `differential_admission.rs` does
//! the same on random books.

use rtdls_check::oracle::{agree, pair, ReferenceController};
use rtdls_core::prelude::*;

fn params() -> ClusterParams {
    ClusterParams::paper_baseline()
}

fn task(id: u64, arrival: f64, sigma: f64, rel_deadline: f64) -> Task {
    Task::new(id, arrival, sigma, rel_deadline)
}

/// The oracle and the engine on an idle baseline cluster.
fn both(algorithm: AlgorithmKind) -> (ReferenceController, AdmissionController) {
    pair(params(), algorithm, PlanConfig::default(), &[])
}

/// The two under EDF-DLT, every node committed until 5 000.
fn busy(cfg: PlanConfig) -> (ReferenceController, AdmissionController) {
    pair(
        params(),
        AlgorithmKind::EDF_DLT,
        cfg,
        &[SimTime::new(5_000.0); 16],
    )
}

fn assert_same_state(full: &ReferenceController, inc: &AdmissionController) {
    if let Err(e) = agree(full, inc, SimTime::ZERO) {
        panic!("engines diverged: {e}");
    }
}

/// A two-node FIFO book with hand-made plans: `(arrival, σ, relative
/// deadline, node, first start, release)` per waiting task, ids from 1 in
/// queue order. Restored, either engine starts from it cold.
fn searched_book(committed: [f64; 2], rows: &[(f64, f64, f64, u32, f64, f64)]) -> ControllerState {
    let hand_made = |(i, &(arrival, sigma, rel_deadline, node, start, release))| {
        let task = task(i as u64 + 1, arrival, sigma, rel_deadline);
        let plan = TaskPlan {
            task: task.id,
            strategy: StrategyKind::DltIit,
            nodes: vec![NodeId(node)],
            start_times: vec![SimTime::new(start)],
            fractions: vec![1.0],
            est_completion: SimTime::new(release),
            node_release_estimates: vec![SimTime::new(release)],
        };
        (task, plan)
    };
    ControllerState {
        params: ClusterParams::new(2, 1.0, 100.0).unwrap(),
        algorithm: AlgorithmKind::FIFO_DLT,
        cfg: PlanConfig::default(),
        releases: committed.map(SimTime::new).to_vec(),
        queue: rows.iter().enumerate().map(hand_made).collect(),
    }
}

/// A book in which a ticket is refused on behalf of a waiting task two
/// positions behind it, every node committed until 500 (so instants
/// before that clamp alike): in EDF order a first task, then where
/// `ticket` goes, then `b`, then `f`, whose deadline leaves room for a
/// sliver of extra work ahead of it but not for the ticket.
struct Neighbourhood {
    inc: AdmissionController,
    ticket: Task,
    b: Task,
    f: Task,
}

fn neighbourhood(cfg: PlanConfig) -> Neighbourhood {
    let mut inc = AdmissionController::new(params(), AlgorithmKind::EDF_DLT, cfg);
    for node in 0..16 {
        inc.set_node_release(node, SimTime::new(500.0));
    }
    let a = task(1, 0.0, 100.0, 2_500.0);
    let b = task(2, 0.0, 100.0, 4_500.0);
    assert!(inc.submit(a, SimTime::ZERO).is_accepted());
    assert!(inc.submit(b, SimTime::ZERO).is_accepted());
    // The shortest deadline f can meet behind a and b, plus a little.
    let (mut failing, mut passing) = (4_500.0, 1e6);
    while passing - failing > 1.0 {
        let mid = 0.5 * (failing + passing);
        match inc.probe(&task(3, 0.0, 800.0, mid), SimTime::ZERO) {
            Decision::Accepted => passing = mid,
            Decision::Rejected(_) => failing = mid,
        }
    }
    let f = task(3, 0.0, 800.0, passing + 40.0);
    assert!(inc.submit(f, SimTime::ZERO).is_accepted());
    let ticket = task(9, 0.0, 40.0, 3_000.0);
    Neighbourhood { inc, ticket, b, f }
}

/// The neighbourhood with the ticket refused once, at time zero.
fn refused(cfg: PlanConfig) -> Neighbourhood {
    let mut n = neighbourhood(cfg);
    assert!(!n.inc.submit(n.ticket, SimTime::ZERO).is_accepted());
    n
}

/// Submits the ticket again at `now`, checks the decision and the book it
/// leaves against the oracle on the same book, and returns the decision
/// with the work it took.
fn ask_again(
    inc: &mut AdmissionController,
    ticket: Task,
    now: SimTime,
) -> (Decision, EngineProfile) {
    let mut oracle = ReferenceController::from_state(inc.state()).unwrap();
    let before = inc.profile();
    let decision = inc.submit(ticket, now);
    assert_eq!(decision, oracle.submit(ticket, now));
    assert_same_state(&oracle, inc);
    (decision, work_since(inc, before))
}

/// The work `inc` booked since its profile read `before`.
fn work_since(inc: &AdmissionController, before: EngineProfile) -> EngineProfile {
    let after = inc.profile();
    EngineProfile {
        plans_reused: after.plans_reused - before.plans_reused,
        plans_computed: after.plans_computed - before.plans_computed,
        gates_compared: after.gates_compared - before.gates_compared,
        refusals_reused: after.refusals_reused - before.refusals_reused,
    }
}

/// A re-test that must be walked: it plans, and reuses no refusal.
fn assert_walked(work: EngineProfile) {
    assert!(work.plans_computed > 0, "{work:?}");
    assert_eq!(work.refusals_reused, 0, "{work:?}");
}

// The oracle halves of tests whose other half reads the engine's internals
// in `src/admission/`: same name, same scenario, and here every answer the
// scenario asks for is held against the oracle's.

#[test]
fn start_search_replans_what_an_out_of_order_dispatch_perturbs() {
    // B's plan edited to start at 500, before A's 1000 (the warm-cache
    // half is in `incremental.rs`, and answers as the cold engine here).
    let (_, mut inc) = both(AlgorithmKind::EDF_DLT);
    for node in 0..16 {
        inc.set_node_release(node, SimTime::new(1_000.0 + 100.0 * node as f64));
    }
    let e16 = homogeneous::exec_time(&params(), 50.0, 16);
    for i in 0..4 {
        let t = task(i, 0.0, 50.0, 2_500.0 + e16 * (2.0 + 0.3 * i as f64));
        assert!(inc.submit(t, SimTime::ZERO).is_accepted());
    }
    let mut image = inc.state();
    assert_eq!(image.queue[0].1.first_start(), SimTime::new(1_000.0));
    image.queue[1].1.start_times[0] = SimTime::new(500.0);
    let full = ReferenceController::from_state(image.clone()).unwrap();
    let cold = AdmissionController::from_state(image).unwrap();
    let mut outcomes = Vec::new();
    for sigma in [20.0, 50.0, 200.0] {
        for factor in [0.3, 0.8, 1.2, 2.0, 4.0] {
            let c = task(99, 0.0, sigma, 2_500.0 + e16 * factor);
            let at = cold.earliest_feasible_start(&c, SimTime::ZERO);
            assert_eq!(at, full.earliest_feasible_start(&c, SimTime::ZERO), "{c:?}");
            outcomes.push(at);
        }
    }
    // Never, now, and the instant only B's early dispatch offers.
    for outcome in [None, Some(SimTime::ZERO), Some(SimTime::new(500.0))] {
        assert!(
            outcomes.contains(&outcome),
            "{outcome:?} not in {outcomes:?}"
        );
    }
}

#[test]
fn an_instant_whose_clamp_moves_a_release_is_walked_not_skipped() {
    // The book of the unit test, cold: no instant admits the task.
    let book = searched_book(
        [100.0, 120.0],
        &[
            (0.0, 1.0, 1e6, 0, 100.0, 140.0),
            (0.1, 1.0, 1e6, 0, 120.0, 150.0),
            (0.2, 1.0, 1e6, 1, 400.0, 500.0),
            (2.0, 10.0, 10.0, 0, 9_000.0, 9_100.0),
        ],
    );
    let inc = AdmissionController::from_state(book.clone()).unwrap();
    let oracle = ReferenceController::from_state(book).unwrap();
    let c = task(100, 1.0, 10.0, 2_999.0);
    let now = SimTime::new(1.0);
    assert_eq!(oracle.earliest_start_after(&c, now), None);
    assert_eq!(inc.earliest_start_after(&c, now), None);
}

#[test]
fn a_pass_before_a_cached_positions_planning_instant_compares_its_gate() {
    let (_, mut inc) = busy(PlanConfig::default());
    assert!(inc
        .submit(task(1, 40.0, 50.0, 1e6), SimTime::new(40.0))
        .is_accepted());
    assert!(inc
        .submit(task(2, 100.0, 50.0, 1e6), SimTime::new(100.0))
        .is_accepted());
    let (decision, _) = ask_again(&mut inc, task(3, 50.0, 50.0, 2e6), SimTime::new(50.0));
    assert!(decision.is_accepted());
    ask_again(&mut inc, task(4, 100.0, 50.0, 3e6), SimTime::new(100.0));
}

#[test]
fn a_position_closed_up_behind_is_compared_not_proved() {
    let (_, mut inc) = busy(PlanConfig::default());
    for id in 1..=3 {
        let t = task(id, 0.0, 50.0, 1e6 + id as f64 * 1e3);
        assert!(inc.submit(t, SimTime::ZERO).is_accepted());
    }
    assert!(inc.remove_waiting(TaskId(2)).is_some());
    let (decision, _) = ask_again(&mut inc, task(4, 0.0, 50.0, 2e6), SimTime::ZERO);
    assert!(decision.is_accepted());
}

#[test]
fn a_refusal_is_remembered_while_its_neighbourhood_stands() {
    let mut n = neighbourhood(PlanConfig::default());
    let walked = n.inc.probe_plan(&n.ticket, SimTime::ZERO).unwrap_err();
    assert_eq!(walked.task, n.f.id, "the scenario refuses on behalf of f");
    assert!(!n.inc.submit(n.ticket, SimTime::ZERO).is_accepted());
    for now in [0.0, 100.0, 499.0] {
        let (decision, _) = ask_again(&mut n.inc, n.ticket, SimTime::new(now));
        assert_eq!(decision, Decision::Rejected(walked.reason));
    }
}

#[test]
fn one_shot_remembers_a_refusal_for_its_own_instant_only() {
    let cfg = PlanConfig {
        node_count: NodeCountPolicy::OneShot,
        ..Default::default()
    };
    let (_, mut inc) = pair(
        params(),
        AlgorithmKind::EDF_DLT,
        cfg,
        &[SimTime::new(500.0); 16],
    );
    for i in 0..3 {
        let t = task(i, 0.0, 100.0, 1e5 + i as f64 * 1e4);
        assert!(inc.submit(t, SimTime::ZERO).is_accepted());
    }
    let ticket = task(9, 0.0, 800.0, 600.0);
    assert!(!inc.submit(ticket, SimTime::ZERO).is_accepted());
    for at in [0.0, 100.0] {
        let (decision, _) = ask_again(&mut inc, ticket, SimTime::new(at));
        assert!(!decision.is_accepted(), "at {at}");
    }
}

#[test]
fn a_restored_engine_remembers_no_refusal() {
    let n = refused(PlanConfig::default());
    let mut thawed = AdmissionController::from_state(n.inc.state()).unwrap();
    let (decision, _) = ask_again(&mut thawed, n.ticket, SimTime::ZERO);
    assert!(!decision.is_accepted());
}

#[test]
fn a_ticket_shadowing_the_failing_tasks_id_keeps_the_right_neighbourhood() {
    let mut n = neighbourhood(PlanConfig::default());
    n.ticket.id = n.f.id;
    assert!(!n.inc.submit(n.ticket, SimTime::ZERO).is_accepted());
    assert_eq!(n.inc.remove_waiting(n.f.id), Some(n.f));
    let (decision, _) = ask_again(&mut n.inc, n.ticket, SimTime::ZERO);
    assert!(decision.is_accepted());
}

#[test]
fn the_ring_keeps_the_last_refusals_one_slot_an_id() {
    let mut n = refused(PlanConfig::default());
    // As many variations as the engine's ring holds (8), and two more.
    for i in 0..10 {
        let other = Task {
            id: TaskId(100 + i),
            ..n.ticket
        };
        let (decision, _) = ask_again(&mut n.inc, other, SimTime::ZERO);
        assert!(!decision.is_accepted());
    }
    for _ in 0..2 {
        ask_again(&mut n.inc, n.ticket, SimTime::ZERO);
    }
    let reshaped = Task {
        data_size: n.ticket.data_size * 1.5,
        ..n.ticket
    };
    let (decision, _) = ask_again(&mut n.inc, reshaped, SimTime::ZERO);
    assert!(!decision.is_accepted());
}

#[test]
fn a_node_written_by_two_due_plans_keeps_the_later_one_in_the_queue() {
    // The book of the unit test in `probe.rs`: the candidate passes from
    // 200, when task 2's estimate is what the node holds.
    let params = ClusterParams::new(1, 1.0, 100.0).expect("valid params");
    let plan = |task: u64, start: f64, release: f64| TaskPlan {
        task: TaskId(task),
        strategy: StrategyKind::DltIit,
        nodes: vec![NodeId(0)],
        start_times: vec![SimTime::new(start)],
        fractions: vec![1.0],
        est_completion: SimTime::new(release),
        node_release_estimates: vec![SimTime::new(release)],
    };
    let (first, second) = (Task::new(1, 0.0, 1.0, 150.0), Task::new(2, 0.0, 1.0, 200.0));
    let state = ControllerState {
        params,
        algorithm: AlgorithmKind::EDF_DLT,
        cfg: PlanConfig::default(),
        releases: vec![SimTime::ZERO],
        queue: vec![
            (first, plan(1, 200.0, 500.0)),
            (second, plan(2, 100.0, 300.0)),
        ],
    };
    let oracle = ReferenceController::from_state(state).expect("valid state");
    let task = Task::new(3, 0.0, 1.0, 500.0);
    assert_eq!(
        oracle.earliest_start_after(&task, SimTime::ZERO),
        Some(SimTime::new(200.0))
    );
}

// Moved whole: every assertion reads only the public API.

#[test]
fn mirrors_full_engine_over_a_mixed_sequence() {
    let (mut full, mut inc) = both(AlgorithmKind::EDF_DLT);
    let p = params();
    let e16 = homogeneous::exec_time(&p, 400.0, 16);
    let seq: Vec<Task> = vec![
        task(1, 0.0, 400.0, e16 * 8.0),
        task(2, 5.0, 200.0, e16 * 6.0),
        task(3, 5.0, 200.0, 100.0), // hopeless
        task(4, 9.0, 300.0, e16 * 12.0),
    ];
    for t in &seq {
        let now = t.arrival;
        assert_eq!(full.submit(*t, now), inc.submit(*t, now), "{t:?}");
        assert_same_state(&full, &inc);
    }
    assert_eq!(
        full.take_due(SimTime::new(9.0)),
        inc.take_due(SimTime::new(9.0))
    );
    assert_same_state(&full, &inc);
    // Early release → replans diverge from cache, still identical.
    full.set_node_release(0, SimTime::new(10.0));
    inc.set_node_release(0, SimTime::new(10.0));
    assert_eq!(
        full.replan(SimTime::new(10.0)).is_ok(),
        inc.replan(SimTime::new(10.0)).is_ok()
    );
    assert_same_state(&full, &inc);
}

#[test]
fn cold_cache_after_from_state_stays_conformant() {
    let (mut full, mut inc) = both(AlgorithmKind::EDF_DLT);
    for i in 0..8 {
        let t = task(i, 0.0, 150.0, 5e5 + i as f64 * 1e4);
        full.submit(t, SimTime::ZERO);
        inc.submit(t, SimTime::ZERO);
    }
    let mut thawed = AdmissionController::from_state(inc.state()).unwrap();
    let t = task(100, 1.0, 200.0, 8e5);
    assert_eq!(
        full.submit(t, SimTime::new(1.0)),
        thawed.submit(t, SimTime::new(1.0))
    );
    assert_eq!(full.state(), thawed.state());
    // The pass after the restore re-warmed the cache: the next
    // back-of-queue submit is diff-only again.
    let before = thawed.profile();
    let t2 = task(101, 1.0, 200.0, 9e5);
    assert!(thawed.submit(t2, SimTime::new(1.0)).is_accepted());
    assert_eq!(thawed.profile().plans_computed - before.plans_computed, 1);
}

#[test]
fn rejection_keeps_state_and_cache_intact() {
    let (mut full, mut inc) = both(AlgorithmKind::EDF_DLT);
    let p = params();
    let e16 = homogeneous::exec_time(&p, 800.0, 16);
    for i in 0..4 {
        let t = task(i, 0.0, 800.0, e16 * (1.2 + i as f64));
        assert_eq!(full.submit(t, SimTime::ZERO), inc.submit(t, SimTime::ZERO));
    }
    // An overload candidate rejected by both; nothing may change.
    let bad = task(50, 0.0, 800.0, e16 * 1.1);
    assert_eq!(
        full.submit(bad, SimTime::ZERO),
        inc.submit(bad, SimTime::ZERO)
    );
    assert!(!full.submit(bad, SimTime::ZERO).is_accepted());
    assert_same_state(&full, &inc);
    // And the cache still serves the prefix on the next acceptance.
    let before = inc.profile();
    let ok = task(51, 0.0, 100.0, e16 * 40.0);
    assert_eq!(
        full.submit(ok, SimTime::ZERO),
        inc.submit(ok, SimTime::ZERO)
    );
    assert_same_state(&full, &inc);
    assert!(inc.profile().plans_reused > before.plans_reused);
}

#[test]
fn a_queue_that_cannot_replan_refuses_a_newcomer_and_keeps_its_plan() {
    // The waiting task's deadline has passed by the time the newcomer
    // arrives: the queue alone cannot be replanned, so the newcomer is
    // refused on its behalf and the installed plan stays.
    let p = params();
    let e16 = homogeneous::exec_time(&p, 400.0, 16);
    let (mut full, mut inc) = both(AlgorithmKind::EDF_DLT);
    let w = task(1, 0.0, 400.0, e16 * 1.05);
    assert_eq!(full.submit(w, SimTime::ZERO), inc.submit(w, SimTime::ZERO));
    let plan_before = inc.queue()[0].1.clone();
    let late = SimTime::new(e16 * 3.0);
    let newcomer = task(2, late.as_f64(), 50.0, 1e9);
    let decision = inc.submit(newcomer, late);
    assert!(!decision.is_accepted());
    assert_eq!(full.submit(newcomer, late), decision);
    assert_eq!(inc.queue_len(), 1);
    assert_eq!(inc.queue()[0].1, plan_before);
    assert_same_state(&full, &inc);
}

#[test]
fn probe_plan_matches_full_engine_and_does_not_mutate() {
    let (mut full, mut inc) = both(AlgorithmKind::EDF_DLT);
    for i in 0..6 {
        let t = task(i, 0.0, 150.0, 4e5 + i as f64 * 3e4);
        full.submit(t, SimTime::ZERO);
        inc.submit(t, SimTime::ZERO);
    }
    let probe = task(77, 2.0, 300.0, 6e5);
    let a = full.probe_plan(&probe, SimTime::new(2.0));
    let b = inc.probe_plan(&probe, SimTime::new(2.0));
    assert_eq!(a, b);
    assert_same_state(&full, &inc);
}

#[test]
fn probe_with_shadowed_id_matches_full_engine() {
    // A probe whose id duplicates a waiting task's must return the
    // same plan the reference engine returns (the first id match in
    // policy order — the waiting task's plan, not the candidate's).
    let (mut full, mut inc) = both(AlgorithmKind::EDF_DLT);
    for i in 0..4 {
        let t = task(i, 0.0, 150.0, 3e5 + i as f64 * 2e4);
        assert_eq!(full.submit(t, SimTime::ZERO), inc.submit(t, SimTime::ZERO));
    }
    // Same id as waiting task 1, later deadline → planned after it.
    let shadow = task(1, 0.0, 300.0, 7e5);
    let a = full.probe_plan(&shadow, SimTime::ZERO);
    let b = inc.probe_plan(&shadow, SimTime::ZERO);
    assert_eq!(a, b);
    assert_same_state(&full, &inc);
}

#[test]
fn one_shot_node_count_disables_cross_instant_reuse() {
    // OneShot evaluates ñ_min at the raw instant, so a cached plan from
    // t=0 must not be reused at t=1 even with identical availability.
    let cfg = PlanConfig {
        node_count: NodeCountPolicy::OneShot,
        ..Default::default()
    };
    let mut full = ReferenceController::new(params(), AlgorithmKind::EDF_DLT, cfg);
    let mut inc = AdmissionController::new(params(), AlgorithmKind::EDF_DLT, cfg);
    for i in 0..4 {
        let t = task(i, 0.0, 200.0, 5e5 + i as f64 * 1e4);
        assert_eq!(full.submit(t, SimTime::ZERO), inc.submit(t, SimTime::ZERO));
    }
    let t = task(10, 1.0, 200.0, 6e5);
    assert_eq!(
        full.submit(t, SimTime::new(1.0)),
        inc.submit(t, SimTime::new(1.0))
    );
    assert_eq!(full.state(), inc.state());
}

#[test]
fn start_search_commits_due_plans_in_queue_order() {
    // The due set need not be a queue prefix, and where two due plans
    // share a node the later one *in the queue* wins, even if it became
    // due at an earlier instant. Two nodes, FIFO; A waits ahead of B:
    //   A = {node 0: starts 50, released 80}
    //   B = {node 1: starts 10, released 60; node 0: starts 100,
    //        released 200}
    // At t = 10 only B is due; at t = 50 both are, and node 0 must read
    // B's 200, not A's 80 — which a search that carried its releases
    // from instant to instant and wrote A last would get wrong. C needs
    // both nodes by ≈ 100 to meet its deadline: with node 0 at 80 it
    // would be promised t = 50, with node 0 at 200 nothing ever admits
    // it.
    let params = ClusterParams::new(2, 1.0, 100.0).unwrap();
    let plan = |task: u64, chunks: &[(u32, f64, f64)]| TaskPlan {
        task: TaskId(task),
        strategy: StrategyKind::DltIit,
        nodes: chunks.iter().map(|c| NodeId(c.0)).collect(),
        start_times: chunks.iter().map(|c| SimTime::new(c.1)).collect(),
        fractions: vec![1.0 / chunks.len() as f64; chunks.len()],
        est_completion: SimTime::new(chunks.iter().map(|c| c.2).fold(0.0, f64::max)),
        node_release_estimates: chunks.iter().map(|c| SimTime::new(c.2)).collect(),
    };
    let a = task(1, 0.0, 5.0, 1e6);
    let b = task(2, 1.0, 5.0, 1e6);
    let state = ControllerState {
        params,
        algorithm: AlgorithmKind::FIFO_DLT,
        cfg: PlanConfig::default(),
        releases: vec![SimTime::ZERO; 2],
        queue: vec![
            (a, plan(1, &[(0, 50.0, 80.0)])),
            (b, plan(2, &[(1, 10.0, 60.0), (0, 100.0, 200.0)])),
        ],
    };
    let full = ReferenceController::from_state(state.clone()).unwrap();
    let inc = AdmissionController::from_state(state).unwrap();
    let now = SimTime::new(2.0);
    let c = task(3, 2.0, 10.0, 618.0);
    assert_eq!(full.earliest_feasible_start(&c, now), None);
    assert_eq!(inc.earliest_feasible_start(&c, now), None);
    // The scenario has teeth: were node 0 free at 80, t = 50 would do.
    let mut early = full.clone();
    let _ = early.take_due(SimTime::new(50.0));
    early.set_node_release(0, SimTime::new(80.0));
    assert!(early.probe(&c, SimTime::new(50.0)).is_accepted());
}

#[test]
fn a_dispatch_from_behind_the_task_is_walked_not_skipped() {
    // Two instants at which the task stands on the same vector — both
    // plans that come due commit what was committed already — but at
    // the second the heavy task behind it has been dispatched: the
    // first instant failed on that task, the second admits. Only the
    // count of positions still waiting tells them apart.
    let inc = AdmissionController::from_state(searched_book(
        [1_000.0; 2],
        &[
            (0.0, 1.0, 1e6, 0, 100.0, 1_000.0),
            (2.0, 10.0, 1_598.0, 1, 200.0, 1_000.0),
        ],
    ))
    .unwrap();
    let c = task(100, 1.0, 10.0, 2_999.0);
    let now = SimTime::new(1.0);
    let found = inc.earliest_start_after(&c, now);
    assert_eq!(found, Some(SimTime::new(200.0)));
    // The oracle agrees, and blames the heavy task until then.
    let oracle = ReferenceController::from_state(inc.state()).unwrap();
    assert_eq!(oracle.earliest_feasible_start(&c, now), found);
    assert_eq!(
        oracle.probe_plan(&c, now).unwrap_err().task,
        inc.queue()[1].0.id
    );
}

#[test]
fn a_pass_rerecords_what_it_keeps_behind_a_new_member() {
    // b leaves and comes back, planned where it was on what it was
    // planned on: c's gate holds behind it and c is kept — re-recorded
    // behind b's plan, not cloned unchained.
    let (mut full, mut inc) = busy(PlanConfig::default());
    let [a, b, c] = [1, 2, 3].map(|id| task(id, 0.0, 50.0, 1e6 + id as f64 * 1e3));
    for t in [a, b, c] {
        assert_eq!(full.submit(t, SimTime::ZERO), inc.submit(t, SimTime::ZERO));
    }
    assert_eq!(full.remove_waiting(b.id), inc.remove_waiting(b.id));
    let before = inc.profile();
    let decision = inc.submit(b, SimTime::ZERO);
    assert_eq!(full.submit(b, SimTime::ZERO), decision);
    assert_same_state(&full, &inc);
    let work = work_since(&inc, before);
    assert_eq!((work.plans_computed, work.plans_reused), (1, 2));
    // A later pass proves every gate behind the first.
    let (_, work) = ask_again(&mut inc, task(4, 10.0, 50.0, 2e6), SimTime::new(10.0));
    assert_eq!((work.gates_compared, work.plans_reused), (1, 3));
}

#[test]
fn one_shot_proves_within_an_instant_and_never_across() {
    // (iv) needs no check of its own: under OneShot the gate ahead held
    // only at its own instant, and (ii) pins the next one to it.
    let cfg = PlanConfig {
        node_count: NodeCountPolicy::OneShot,
        ..Default::default()
    };
    let (_, mut inc) = busy(cfg);
    for id in 1..=4 {
        let t = task(id, 0.0, 50.0, 1e6 + id as f64 * 1e3);
        assert!(inc.submit(t, SimTime::ZERO).is_accepted());
    }
    let (_, work) = ask_again(&mut inc, task(10, 0.0, 50.0, 2e6), SimTime::ZERO);
    assert_eq!((work.gates_compared, work.plans_reused), (1, 4));
    // Clamp-equal at 10, but ñ_min is evaluated at the raw instant: the
    // head's gate fails, and nothing behind it is proved.
    for (id, at) in [(11, 10.0), (12, 0.0)] {
        let (_, work) = ask_again(&mut inc, task(id, at, 50.0, 3e6), SimTime::new(at));
        assert_eq!(work.plans_reused, 0, "at {at}");
    }
    let (_, work) = ask_again(&mut inc, task(13, 0.0, 50.0, 4e6), SimTime::ZERO);
    assert_eq!((work.gates_compared, work.plans_reused), (1, 7));
}

#[test]
fn an_arrival_ahead_of_the_ticket_forgets_the_refusal() {
    let mut n = refused(PlanConfig::default());
    // A sliver ahead of the ticket: the vector it is inserted on moves.
    let sliver = task(20, 0.0, 1.0, 2_800.0);
    assert!(n.inc.submit(sliver, SimTime::ZERO).is_accepted());
    let (_, work) = ask_again(&mut n.inc, n.ticket, SimTime::ZERO);
    assert_walked(work);
}

#[test]
fn an_arrival_between_the_ticket_and_the_failure_forgets_the_refusal() {
    let mut n = refused(PlanConfig::default());
    // Same vector at the insertion point, one more task behind it.
    let sliver = task(20, 0.0, 1.0, 3_500.0);
    assert!(n.inc.submit(sliver, SimTime::ZERO).is_accepted());
    let at = n
        .inc
        .queue()
        .iter()
        .position(|(t, _)| *t == sliver)
        .unwrap();
    assert_eq!(n.inc.queue()[at + 1].0, n.b, "the sliver sorts ahead of b");
    let (_, work) = ask_again(&mut n.inc, n.ticket, SimTime::ZERO);
    assert_walked(work);
}

#[test]
fn removing_the_task_that_failed_admits_the_ticket() {
    let mut n = refused(PlanConfig::default());
    assert_eq!(n.inc.remove_waiting(n.f.id), Some(n.f));
    let (decision, work) = ask_again(&mut n.inc, n.ticket, SimTime::ZERO);
    assert!(decision.is_accepted());
    assert_walked(work);
}

#[test]
fn an_earlier_release_on_a_node_the_ticket_needs_admits_it() {
    let mut n = refused(PlanConfig::default());
    for node in 0..16 {
        n.inc.set_node_release(node, SimTime::ZERO);
    }
    let (decision, work) = ask_again(&mut n.inc, n.ticket, SimTime::ZERO);
    assert!(decision.is_accepted());
    assert_walked(work);
}

#[test]
fn an_instant_past_an_idle_nodes_release_forgets_the_refusal() {
    // Every node is released at 500: at 600 the clamp moves them all.
    let mut n = refused(PlanConfig::default());
    let (_, work) = ask_again(&mut n.inc, n.ticket, SimTime::new(600.0));
    assert_walked(work);
}

#[test]
fn state_round_trips_and_remove_waiting_conforms() {
    let (mut full, mut inc) = both(AlgorithmKind::EDF_DLT);
    for i in 0..5 {
        let t = task(i, 0.0, 150.0, 4e5 + i as f64 * 2e4);
        full.submit(t, SimTime::ZERO);
        inc.submit(t, SimTime::ZERO);
    }
    assert_eq!(
        full.remove_waiting(TaskId(2)),
        inc.remove_waiting(TaskId(2))
    );
    assert_eq!(
        full.remove_waiting(TaskId(99)),
        inc.remove_waiting(TaskId(99))
    );
    assert_same_state(&full, &inc);
    let json = serde_json::to_string(&inc.state()).unwrap();
    let back: ControllerState = serde_json::from_str(&json).unwrap();
    let thawed = AdmissionController::from_state(back).unwrap();
    assert_eq!(thawed.state(), inc.state());
}

#[test]
fn explain_sigma_counterfactual_is_honest() {
    let p = ClusterParams::paper_baseline();
    let c = AdmissionController::new(p, AlgorithmKind::EDF_DLT, PlanConfig::default());
    // Idle cluster, but σ is twice what the deadline can absorb.
    let sigma = 800.0;
    let e16 = homogeneous::exec_time(&p, sigma, p.num_nodes);
    let heavy = Task::new(3, 0.0, sigma, e16 * 0.5);
    let ex = c
        .explain(&SubmitRequest::new(heavy), SimTime::ZERO)
        .unwrap();
    assert!(ex.has_feasible_sigma());
    assert!(ex.max_feasible_sigma < sigma);
    let ok = Task {
        data_size: ex.max_feasible_sigma,
        ..heavy
    };
    assert!(c.probe(&ok, SimTime::ZERO).is_accepted());
    let heavier = Task {
        data_size: ex.max_feasible_sigma * 1.001,
        ..heavy
    };
    assert!(!c.probe(&heavier, SimTime::ZERO).is_accepted());
    // The oracle's literal search explains identically.
    let oracle = ReferenceController::new(p, AlgorithmKind::EDF_DLT, PlanConfig::default());
    assert_eq!(
        oracle.explain(&SubmitRequest::new(heavy), SimTime::ZERO),
        Some(ex)
    );
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
    assert!(ReferenceController::from_state(image).is_err());
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
    assert!(ReferenceController::from_state(image).is_err());
}
