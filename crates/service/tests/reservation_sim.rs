//! End-to-end reservation and tenancy tests through the discrete-event
//! engine: the reservation's `start_at` is honored by the engine's due
//! event (activation runs *after* the dispatches at that instant commit),
//! and the `SimConfig` tenant mix routes every arrival through the v2
//! request envelope. Strict mode panics on any violated deadline, so each
//! completing run is itself most of the proof.

use rtdls_core::dlt::homogeneous;
use rtdls_core::prelude::*;
use rtdls_service::prelude::*;
use rtdls_sim::prelude::*;
use rtdls_workload::prelude::*;

/// The EDF priority-inversion scenario as a pure arrival stream: a filler
/// commits all 16 nodes until exactly `e16(filler)` (DLT/OPR optimal plans
/// finish all nodes simultaneously), a snug all-node OPR task waits behind
/// it, and a small earlier-deadline task would starve the waiting one —
/// rejected at arrival, reserved for the waiting task's dispatch instant,
/// and activated by the turn the engine drives at that instant.
#[test]
fn reservation_activates_inside_a_simulation_and_meets_its_deadline() {
    let params = ClusterParams::paper_baseline();
    let algorithm = AlgorithmKind::EDF_OPR_MN;
    let e16 = homogeneous::exec_time(&params, 800.0, 16);
    let e15 = homogeneous::exec_time(&params, 800.0, 15);
    let slack_w = (e15 - e16) * 0.75;
    let slack_c = slack_w * 0.8;
    assert!(homogeneous::exec_time(&params, 10.0, 16) < slack_c);

    let filler = Task::new(0, 0.0, 800.0, e16 * 1.05);
    // Arrives at t=1: all nodes are committed until e16, so it waits there.
    let w = Task::new(1, 1.0, 800.0, (e16 - 1.0) + e16 + slack_w);
    // Arrives at t=2 with the earlier absolute deadline: planned before
    // `w` under EDF, it would starve it — reserved instead.
    let c = Task::new(2, 2.0, 10.0, (e16 - 2.0) + e16 + slack_c);

    let gateway = ShardedGateway::new(
        params,
        1,
        algorithm,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    // Every arrival travels as a v2 request; the tolerance (1× the
    // relative deadline) is ample for the earliest feasible start.
    let mix = TenantMix::uniform(1).with_max_delay_factor(1.0);
    let cfg = SimConfig::new(params, algorithm).with_tenants(mix).strict();
    let (report, gateway) =
        Simulation::with_frontend(cfg, gateway).run_returning_frontend(vec![filler, w, c]);

    let m = gateway.metrics();
    assert_eq!(m.reserved, 1, "the starved task books a reservation");
    assert_eq!(
        m.reservations_activated, 1,
        "the engine's turn at start_at activates it"
    );
    assert_eq!(m.reservation_misses, 0);
    assert_eq!(m.accepted_total(), 3);
    assert_eq!(report.metrics.accepted, 3, "engine books the activation");
    assert_eq!(report.metrics.rejected, 0);
    assert_eq!(
        report.metrics.completed, 3,
        "the reserved task actually ran"
    );
    assert_eq!(report.metrics.deadline_misses, 0);
    assert_eq!(report.metrics.estimate_overruns, 0);
}

/// The same scenario without a reservation tolerance: the legacy path can
/// only *defer* the starved task — no promised start instant, admission
/// contingent on an opportunistic re-test landing after the blocker's
/// dispatch (here one does, in the turn the blocker dispatches in; a
/// client gets no such guarantee, and a tight retry budget loses the task
/// to any re-test before that). The v2 contract difference is the upfront
/// `start_at` promise.
#[test]
fn without_reservations_the_same_task_only_gets_a_ticket() {
    let params = ClusterParams::paper_baseline();
    let algorithm = AlgorithmKind::EDF_OPR_MN;
    let e16 = homogeneous::exec_time(&params, 800.0, 16);
    let e15 = homogeneous::exec_time(&params, 800.0, 15);
    let slack_w = (e15 - e16) * 0.75;
    let slack_c = slack_w * 0.8;
    let filler = Task::new(0, 0.0, 800.0, e16 * 1.05);
    let w = Task::new(1, 1.0, 800.0, (e16 - 1.0) + e16 + slack_w);
    let c = Task::new(2, 2.0, 10.0, (e16 - 2.0) + e16 + slack_c);
    // A hopeless arrival halfway to the blocker's dispatch: rejected at
    // once, its turn re-tests the parked ticket while the blocker still
    // waits.
    let probe = Task::new(3, e16 * 0.5, 800.0, 1.0);
    let tasks = vec![filler, w, c, probe];
    let mk_gateway = |retries| {
        ShardedGateway::new(
            params,
            1,
            algorithm,
            PlanConfig::default(),
            Routing::LeastLoaded,
            DeferPolicy {
                max_retries: retries,
                ..Default::default()
            },
        )
        .unwrap()
    };
    // Default budget: the ticket is rescued, but only by the lucky
    // post-dispatch re-test — it was never promised anything.
    let cfg = SimConfig::new(params, algorithm).strict();
    let (report, gateway) =
        Simulation::with_frontend(cfg, mk_gateway(16)).run_returning_frontend(tasks.clone());
    let m = gateway.metrics();
    assert_eq!(m.reserved, 0, "no tolerance, no reservation");
    assert_eq!(m.deferred, 1, "legacy path parks the starved task");
    assert_eq!(report.metrics.deadline_misses, 0);
    // A single-retry budget evicts the ticket at the first (pre-dispatch)
    // re-test: the task is lost where a reservation would have held.
    let (report, gateway) =
        Simulation::with_frontend(cfg, mk_gateway(1)).run_returning_frontend(tasks);
    let m = gateway.metrics();
    assert_eq!(m.deferred, 1);
    assert_eq!(m.defer_evicted, 1, "the ticket burned its only retry");
    assert_eq!(m.rescued, 0);
    assert_eq!(report.metrics.accepted, 2, "the starved task is lost");
    assert_eq!(report.metrics.deadline_misses, 0);
}

/// Tenant-mix plumbing end to end: a bursty multi-tenant stream through a
/// sharded gateway with quotas; books balance, every tenant is accounted,
/// and strict mode holds every admitted deadline.
#[test]
fn tenant_mix_stream_balances_books_across_shards() {
    let params = ClusterParams::paper_baseline();
    let algorithm = AlgorithmKind::EDF_DLT;
    let mut spec = WorkloadSpec::paper_baseline(1.2);
    spec.dc_ratio = 6.0;
    spec.horizon = 50.0 * spec.mean_interarrival();
    let profile = BurstProfile {
        rate_factor: 3.0,
        ..BurstProfile::moderate(&spec)
    };
    let tasks: Vec<Task> = BurstyPoisson::new(spec, profile, 11).collect();
    let n_tasks = tasks.len();
    assert!(n_tasks > 10);

    let mix = TenantMix {
        tenants: 5,
        premium_tenants: 1,
        best_effort_tenants: 2,
        max_delay_factor: Some(0.5),
    };
    let gateway = ShardedGateway::new(
        params,
        4,
        algorithm,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap()
    .with_quota(QuotaPolicy {
        max_inflight: Some(6),
        max_reservations: Some(2),
        ..Default::default()
    });
    let cfg = SimConfig::new(params, algorithm).with_tenants(mix).strict();
    let (report, gateway) = Simulation::with_frontend(cfg, gateway).run_returning_frontend(tasks);

    let m = gateway.metrics();
    assert_eq!(m.submitted as usize, n_tasks);
    assert_eq!(report.metrics.deadline_misses, 0);
    assert_eq!(report.metrics.completed, report.metrics.accepted);
    assert_eq!(m.accepted_total(), report.metrics.accepted);
    // Every submission resolves exactly once, reservations included.
    let parked = m.deferred - (m.rescued + m.defer_evicted + m.defer_expired + m.defer_flushed);
    assert_eq!(parked, 0, "finalize flushed the defer queue");
    assert_eq!(
        m.accepted_total() + m.rejected_total(),
        m.submitted,
        "books balance"
    );
    // The tenant ledgers cover the whole population and agree with the
    // global counters.
    assert_eq!(m.tenants.len(), 5, "all five tenants submitted");
    let by_tenant: u64 = m.tenants.iter().map(|(_, c)| c.submitted).sum();
    assert_eq!(by_tenant, m.submitted);
    let accepted_by_tenant: u64 = m.tenants.iter().map(|(_, c)| c.accepted).sum();
    assert_eq!(
        accepted_by_tenant,
        m.accepted_immediate + m.rescued + m.reservations_activated
    );
    // The premium tenant (id 0) is quota-exempt: it can never be throttled.
    assert_eq!(m.tenants.get(TenantId(0)).unwrap().throttled, 0);
}

/// The engine drives a gateway at a defer ticket's deadline (it is part of
/// `next_due`): the first instant the clock is past the ticket's
/// `latest_start`, where the sweep expires it. With no capacity freed
/// since it was parked, the ticket is never re-tested in between. An
/// engine woken at `latest_start` itself, where the sweep still re-tests,
/// would find the ticket due again at the same instant and re-test it until
/// its retry budget evicted it.
#[test]
fn a_parked_ticket_expires_just_past_its_deadline_without_a_retest() {
    let params = ClusterParams::paper_baseline();
    let algorithm = AlgorithmKind::EDF_DLT;
    let e16 = homogeneous::exec_time(&params, 800.0, 16);
    // Holds every node until e16.
    let filler = Task::new(0, 0.0, 800.0, e16 * 1.05);
    // Fits an idle cluster if it starts by 2000 — long before the filler
    // lets go of a node: parked at arrival, never rescuable.
    let latest = 2_000.0;
    assert!(latest < e16);
    let e = homogeneous::exec_time(&params, 200.0, 16);
    let c = Task::new(1, 1.0, 200.0, latest - 1.0 + e);
    let gateway = ShardedGateway::new(
        params,
        1,
        algorithm,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    let cfg = SimConfig::new(params, algorithm).with_trace().strict();
    let (report, gateway) =
        Simulation::with_frontend(cfg, gateway).run_returning_frontend(vec![filler, c]);
    let m = gateway.metrics();
    assert_eq!(m.deferred, 1, "parked at arrival");
    assert_eq!(m.retests, 0, "nothing freed up to re-test it against");
    assert_eq!(m.defer_evicted, 0, "its retry budget untouched");
    assert_eq!(m.defer_expired, 1, "expired once the clock passed it");
    assert_eq!(report.metrics.accepted, 1);
    assert_eq!(report.metrics.rejected, 1);
}

/// A defer deadline falling between the last early node release and a
/// waiting plan's first start, with no event after it: the turn at the
/// deadline must not cost the waiting plan its dispatch event. The run
/// keeps the admission-time plans (`ArrivalsOnly`) under conservative
/// release estimates (`Uniform`), so the nodes free up before the plan's
/// start and nothing but the engine's due event marks that start.
#[test]
fn a_defer_deadline_before_a_waiting_plan_leaves_its_dispatch_armed() {
    let params = ClusterParams::new(4, 1.0, 10.0).unwrap();
    let algorithm = AlgorithmKind::EDF_DLT;
    let plan = PlanConfig {
        release_estimate: ReleaseEstimate::Uniform,
        ..Default::default()
    };
    let e = |size: f64, n: usize| homogeneous::exec_time(&params, size, n);
    // One node busy until 33, then a task that needs all four — that node
    // joining late — and whose chunks finish before its estimate.
    let a1 = Task::new(0, 0.0, 3.0, 1e4);
    let a2 = Task::new(1, 1.0, 40.0, 160.0);
    // Needs all four nodes, from a2's estimate on.
    let b = Task::new(2, 2.0, 40.0, 280.0);
    // Parked behind b; latest feasible start 140.
    let latest = 140.0;
    let c = Task::new(3, 3.0, 80.0, latest - 3.0 + e(80.0, 4));
    let gateway = ShardedGateway::new(
        params,
        1,
        algorithm,
        plan,
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    let cfg = SimConfig::new(params, algorithm)
        .with_plan(plan)
        .with_replan(ReplanPolicy::ArrivalsOnly)
        .with_trace()
        .strict();
    let (report, gateway) =
        Simulation::with_frontend(cfg, gateway).run_returning_frontend(vec![a1, a2, b, c]);
    let m = gateway.metrics();
    assert_eq!((m.deferred, m.defer_expired, m.defer_evicted), (1, 1, 0));
    assert_eq!(report.metrics.accepted, 3);
    assert_eq!(
        report.metrics.completed, 3,
        "b dispatched after the deadline's turn"
    );
    let trace = report.trace.unwrap();
    let a2_done = trace.task(a2.id).and_then(|r| r.actual_completion).unwrap();
    let first = trace.task_chunks(b.id).next().expect("b dispatched");
    assert!(
        a2_done.as_f64() < latest && latest < first.available.as_f64(),
        "the deadline falls between the last release ({a2_done}) and b's start ({})",
        first.available
    );
    assert_eq!(first.tx_start, first.available, "b started as planned");
}
