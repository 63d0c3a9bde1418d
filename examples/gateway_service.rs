//! The online admission gateway serving a bursty multi-tenant stream
//! through the v2 request/verdict API.
//!
//! A 4-shard [`ShardedGateway`] fronts the paper's 16-node cluster while a
//! Markov-modulated Poisson source fires bursts at it. Every arrival
//! travels as a [`SubmitRequest`] envelope — tenant id, QoS class,
//! reservation tolerance — assigned by the deterministic [`TenantMix`],
//! and the gateway answers with the five-way [`Verdict`]: Accepted,
//! Reserved (admission promised at `start_at`), Deferred, Rejected, or
//! Throttled (per-tenant quota). Deferred near-misses are re-tested on
//! every completion event and — because the Fig. 2-literal `Uniform`
//! release estimates are conservative — nodes keep freeing up earlier than
//! committed, so a healthy fraction of deferred tasks is *rescued*: admitted
//! late, yet still finishing inside its deadline (the strict simulator
//! panics otherwise, so completing this run is itself the proof).
//!
//! Run with: `cargo run --release --example gateway_service`

use rtdls::prelude::*;

fn main() {
    let params = ClusterParams::paper_baseline();
    let algorithm = AlgorithmKind::EDF_DLT;
    // The Fig. 2-literal (conservative) release bookkeeping: every node of a
    // dispatched task is committed until the task's single completion
    // estimate. Actual per-node completions stagger earlier, and that slack
    // is exactly what the defer queue harvests.
    let plan = PlanConfig {
        release_estimate: ReleaseEstimate::Uniform,
        ..Default::default()
    };

    // A bursty open-loop source at high sustained load. Deadlines are
    // loosened relative to the paper's DCRatio=2 (which is calibrated to
    // the *full* 16-node cluster) so that a 4-node shard is a viable home
    // for a typical task — the regime sharding is meant for.
    let mut spec = WorkloadSpec::paper_baseline(1.2);
    spec.dc_ratio = 6.0;
    spec.horizon = 1.5e6;
    let profile = BurstProfile {
        rate_factor: 4.0,
        ..BurstProfile::moderate(&spec)
    };
    let tasks: Vec<Task> = BurstyPoisson::new(spec, profile, 42).collect();
    println!(
        "stream: {} tasks over {:.1e} time units (bursts {}x)",
        tasks.len(),
        spec.horizon,
        profile.rate_factor
    );

    let gateway = ShardedGateway::new(
        params,
        4,
        algorithm,
        plan,
        Routing::LeastLoaded,
        // Bursts are long relative to task makespans here: give parked
        // tasks a generous retry budget so eviction doesn't beat expiry.
        DeferPolicy {
            max_retries: 64,
            ..Default::default()
        },
    )
    .expect("valid shard layout")
    // Per-tenant admission quotas: each tenant may hold at most 24
    // undispatched liabilities; the premium tenant is exempt.
    .with_quota(QuotaPolicy {
        max_inflight: Some(24),
        max_reservations: Some(8),
        ..Default::default()
    });

    // Five tenants: one premium, two standard, two best-effort. Every
    // request tolerates a reservation up to half its relative deadline.
    let mix = TenantMix {
        tenants: 5,
        premium_tenants: 1,
        best_effort_tenants: 2,
        max_delay_factor: Some(0.5),
    };
    let cfg = SimConfig::new(params, algorithm)
        .with_plan(plan)
        .with_tenants(mix)
        .strict();
    let (report, gateway) = Simulation::with_frontend(cfg, gateway).run_returning_frontend(tasks);

    let m = gateway.metrics();
    println!("\n=== gateway ===\n{m}");
    println!("\n=== tenants ===");
    for (tenant, c) in m.tenants.iter() {
        println!(
            "tenant {:>2} [{:?}]: submitted {:>4} | accepted {:>4} | reserved {:>2} | \
             deferred {:>3} | rejected {:>3} | throttled {:>3} | p99 ≤ {:.1}µs",
            tenant.0,
            mix.qos_of(tenant),
            c.submitted,
            c.accepted,
            c.reserved,
            c.deferred,
            c.rejected,
            c.throttled,
            m.tenant_latency(tenant).map_or(0, |h| h.quantile_ns(0.99)) as f64 / 1e3,
        );
    }
    println!("\n=== cluster ===");
    println!(
        "accepted {} / rejected {} (reject ratio {:.3})",
        report.metrics.accepted,
        report.metrics.rejected,
        report.metrics.reject_ratio()
    );
    println!(
        "completed {} | deadline misses {} | estimate overruns {}",
        report.metrics.completed, report.metrics.deadline_misses, report.metrics.estimate_overruns
    );
    println!(
        "utilization {:.1}% | mean response {:.0}",
        report
            .metrics
            .utilization(params.num_nodes, report.metrics.end_time)
            * 100.0,
        report.metrics.mean_response_time()
    );

    assert!(
        m.deferred > 0,
        "the bursty stream should defer at least one task"
    );
    assert!(
        m.rescued > 0,
        "at least one deferred task should be rescued"
    );
    assert_eq!(
        report.metrics.deadline_misses, 0,
        "every admitted task met its deadline"
    );
    assert_eq!(report.metrics.completed, report.metrics.accepted);
    assert_eq!(
        m.accepted_total(),
        report.metrics.accepted,
        "gateway and engine agree"
    );
    assert_eq!(
        m.tenants.iter().map(|(_, c)| c.submitted).sum::<u64>(),
        m.submitted,
        "every submission is attributed to a tenant"
    );
    assert_eq!(
        m.accepted_total() + m.rejected_total(),
        m.submitted,
        "books balance across all five verdicts"
    );
    println!(
        "\n{} deferred, {} rescued (rescue rate {:.1}%), {} reserved, {} throttled — \
         all admitted tasks inside their deadlines",
        m.deferred,
        m.rescued,
        m.defer_rescue_rate() * 100.0,
        m.reserved,
        m.throttled,
    );
}
