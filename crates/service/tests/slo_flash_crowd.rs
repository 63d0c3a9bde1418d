//! The SLO engine's acceptance story, end-to-end through the
//! discrete-event engine: a flash crowd (a deterministic step overload)
//! slams a healthy gateway, the acceptance SLO's multi-window burn-rate
//! alarm walks *healthy → burning → breached*, breach forensics are
//! captured, and once the crowd leaves the alarm recovers — while the
//! latched breach count survives as the permanent record.

use rtdls_core::prelude::*;
use rtdls_service::prelude::*;
use rtdls_sim::prelude::*;
use rtdls_workload::prelude::*;

/// The scenario: calm paper-baseline traffic, then a 12× crowd for a
/// window long enough to blow the error budget, then calm again for
/// several long windows so recovery is observable.
fn flash_crowd_tasks() -> (Vec<Task>, FlashCrowd, f64) {
    let mut spec = WorkloadSpec::paper_baseline(0.4);
    let scale = spec.mean_interarrival();
    spec.horizon = 1_200.0 * scale;
    let crowd = FlashCrowd {
        at: 300.0 * scale,
        duration: 150.0 * scale,
        rate_factor: 12.0,
    };
    let tasks: Vec<Task> = crowd.stream(spec, 4242).collect();
    (tasks, crowd, scale)
}

/// An SLO policy scaled to the workload: windows measured in mean
/// interarrivals so both fill well past `min_events` in every phase, and
/// an acceptance target set *below* the paper model's baseline guarantee
/// ratio (~85% at SystemLoad 0.4) — the calm-phase long burn sits near
/// 0.15/0.07 ≈ 2.1, under the slow-burn threshold of 3, while the
/// crowd's ≥50% rejection rate drives both burns past their thresholds.
fn scaled_policy(scale: f64) -> SloPolicy {
    SloPolicy {
        acceptance_target: 0.93,
        short_window: 30.0 * scale,
        long_window: 150.0 * scale,
        ..SloPolicy::default()
    }
}

/// A fresh one-shard gateway whose SLO tracker runs `policy`, assembled
/// the way recovery assembles one.
fn slo_gateway(
    params: ClusterParams,
    algorithm: AlgorithmKind,
    policy: SloPolicy,
) -> ShardedGateway {
    let shards = ShardedGateway::new(
        params,
        1,
        algorithm,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap()
    .shard_states();
    let book = ServiceBook::from_parts(
        DeferredQueue::new(DeferPolicy::default()),
        ReservationBook::new(),
        TenantLedger::new(),
        QuotaPolicy::default(),
        ServiceMetrics::new(),
        Vec::new(),
        SloTracker::new(policy),
    );
    ShardedGateway::from_parts(params, algorithm, Routing::LeastLoaded, 0, shards, book).unwrap()
}

#[test]
fn flash_crowd_walks_the_burn_alarm_to_breach_and_back() {
    let params = ClusterParams::paper_baseline();
    let algorithm = AlgorithmKind::EDF_DLT;
    let (tasks, crowd, scale) = flash_crowd_tasks();
    assert!(
        tasks.len() > 1_000,
        "the scenario must carry real traffic, got {}",
        tasks.len()
    );

    let gateway = slo_gateway(params, algorithm, scaled_policy(scale));

    let mix = TenantMix::uniform(1);
    let cfg = SimConfig::new(params, algorithm).with_tenants(mix);
    let (report, mut gateway) =
        Simulation::with_frontend(cfg, gateway).run_returning_frontend(tasks);

    // The crowd overwhelmed admission: real rejections happened.
    assert!(
        report.metrics.rejected > 100,
        "a 12x crowd must overload admission, rejected {}",
        report.metrics.rejected
    );

    // The acceptance alarm latched at least one breach on some scope.
    let rows = gateway.slo().rows();
    let acceptance_breaches: u64 = rows
        .iter()
        .filter(|r| r.objective == SloObjective::Acceptance)
        .map(|r| r.breaches)
        .sum();
    assert!(
        acceptance_breaches > 0,
        "the burn alarm must have breached during the crowd: {rows:?}"
    );

    // Recovery: after ~750 mean interarrivals of calm tail (five long
    // windows), no scope is still breached — the alarm is a state
    // machine, not a one-way latch.
    let crowd_end = crowd.at + crowd.duration;
    assert!(
        gateway.slo().last_now() > crowd_end + 300.0 * scale,
        "the run must extend well past the crowd"
    );
    for row in &rows {
        assert_ne!(
            row.state,
            SloHealth::Breached,
            "calm tail must clear the alarm: {row:?}"
        );
    }

    // Breach forensics were captured: versioned records carrying the
    // offending scope's status row and its recent task ids.
    let breaches = gateway.book_mut().take_breach_log();
    assert!(
        !breaches.is_empty(),
        "every breach transition dumps a forensic record"
    );
    for b in &breaches {
        assert_eq!(b.version, SLO_BREACH_VERSION);
        assert!(b.transition.is_breach());
        assert_eq!(b.transition.to, SloHealth::Breached);
        assert_eq!(b.row.state, SloHealth::Breached);
        let t = b.transition.at.as_f64();
        assert!(
            t >= crowd.at && t <= crowd_end + 200.0 * scale,
            "breaches belong to the crowd window: t={t}, crowd=[{}, {crowd_end}]",
            crowd.at
        );
        if b.transition.tenant.is_some() {
            assert!(
                !b.recent_tasks.is_empty(),
                "tenant-scoped breaches name the recent offenders"
            );
        }
    }

    // Second drain is empty: the log is a hand-off, not a view.
    assert!(gateway.book_mut().take_breach_log().is_empty());
}

#[test]
fn calm_traffic_never_breaches() {
    let params = ClusterParams::paper_baseline();
    let algorithm = AlgorithmKind::EDF_DLT;
    let mut spec = WorkloadSpec::paper_baseline(0.3);
    let scale = spec.mean_interarrival();
    spec.horizon = 600.0 * scale;
    let tasks: Vec<Task> = WorkloadGenerator::new(spec, 77).collect();

    let gateway = slo_gateway(params, algorithm, scaled_policy(scale));
    let cfg = SimConfig::new(params, algorithm).with_tenants(TenantMix::uniform(1));
    let (_report, mut gateway) =
        Simulation::with_frontend(cfg, gateway).run_returning_frontend(tasks);

    for row in gateway.slo().rows() {
        assert_eq!(row.breaches, 0, "calm load must not breach: {row:?}");
    }
    assert!(gateway.book_mut().take_breach_log().is_empty());
}
