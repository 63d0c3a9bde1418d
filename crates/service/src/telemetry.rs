//! Fold adapters: the service layer's native stats into the unified
//! telemetry [`MetricsRegistry`].
//!
//! The registry is a snapshot container (see `rtdls-telemetry`); the
//! gateway keeps counting in [`ServiceMetrics`] / [`TenantMetrics`](crate::metrics::TenantMetrics) exactly
//! as before, and an ops poll folds the current values in here. Metric
//! names are stable API surface — the README's observability section
//! catalogs them.

use rtdls_core::prelude::EngineProfile;
use rtdls_telemetry::MetricsRegistry;

use crate::metrics::ServiceMetrics;
use crate::slo::{qos_label, SloTracker};

/// Folds the gateway's cumulative counters, per-tenant books, and decision
/// latency histogram into `reg`.
pub fn fold_service_metrics(reg: &mut MetricsRegistry, metrics: &ServiceMetrics) {
    // Verdict-shaped counters under one name, keyed by the verdict label.
    let verdicts: [(&str, u64); 6] = [
        ("accepted", metrics.accepted_immediate),
        ("rejected", metrics.rejected_immediate),
        ("deferred", metrics.deferred),
        ("reserved", metrics.reserved),
        ("throttled", metrics.throttled),
        ("rescued", metrics.rescued),
    ];
    for (verdict, value) in verdicts {
        reg.counter("rtdls_gateway_verdicts", &[("verdict", verdict)], value);
    }
    // Rejection breakdown: every `Verdict::Rejected` construction, keyed
    // by its Fig. 2 cause (includes post-recovery demote-rejections).
    for (cause, value) in metrics.rejection_causes.entries() {
        reg.counter("rtdls_gateway_rejections", &[("cause", cause)], value);
    }
    reg.counter("rtdls_gateway_submitted", &[], metrics.submitted);
    reg.counter("rtdls_gateway_defer_evicted", &[], metrics.defer_evicted);
    reg.counter("rtdls_gateway_defer_expired", &[], metrics.defer_expired);
    reg.counter("rtdls_gateway_defer_flushed", &[], metrics.defer_flushed);
    reg.counter("rtdls_gateway_demoted", &[], metrics.demoted);
    reg.counter(
        "rtdls_gateway_demote_rejected",
        &[],
        metrics.demote_rejected,
    );
    reg.counter("rtdls_gateway_retests", &[], metrics.retests);
    reg.counter(
        "rtdls_gateway_reservations_activated",
        &[],
        metrics.reservations_activated,
    );
    reg.counter(
        "rtdls_gateway_reservation_misses",
        &[],
        metrics.reservation_misses,
    );
    reg.counter(
        "rtdls_gateway_reservations_flushed",
        &[],
        metrics.reservations_flushed,
    );
    reg.gauge(
        "rtdls_gateway_decisions_per_sec",
        &[],
        metrics.decisions_per_sec(),
    );
    let latency = metrics.decision_latency();
    reg.histogram(
        "rtdls_decision_latency_ns",
        &[],
        latency.occupied().collect(),
        latency.count(),
        latency.sum_ns() as f64,
    );
    // Per-tenant books: verdict-labeled counters keyed by tenant id.
    for (tenant, counters) in metrics.tenants.iter() {
        let id = tenant.0.to_string();
        let tenant_verdicts: [(&str, u64); 6] = [
            ("submitted", counters.submitted),
            ("accepted", counters.accepted),
            ("reserved", counters.reserved),
            ("deferred", counters.deferred),
            ("rejected", counters.rejected),
            ("throttled", counters.throttled),
        ];
        for (verdict, value) in tenant_verdicts {
            reg.counter(
                "rtdls_tenant_requests",
                &[("tenant", &id), ("verdict", verdict)],
                value,
            );
        }
        if counters.demoted > 0 {
            reg.counter("rtdls_tenant_demoted", &[("tenant", &id)], counters.demoted);
        }
    }
}

/// Folds the deadline-SLO status table into `reg`: per-scope burn-rate
/// gauges (`window="short"|"long"`), the numeric alarm state
/// (0 = healthy, 1 = burning, 2 = breached), and the latched breach
/// counters. Scope labels: `tenant="<id>"` for tenant rows,
/// `qos="<class>"` for QoS rows.
pub fn fold_slo(reg: &mut MetricsRegistry, slo: &SloTracker) {
    for row in slo.rows() {
        let tenant_label = row.tenant.map(|t| t.to_string());
        let mut labels: Vec<(&str, &str)> = Vec::new();
        if let Some(t) = &tenant_label {
            labels.push(("tenant", t.as_str()));
        }
        if let Some(q) = row.qos {
            labels.push(("qos", qos_label(q)));
        }
        labels.push(("objective", row.objective.label()));
        let mut with_window = labels.clone();
        with_window.push(("window", "short"));
        reg.gauge("rtdls_slo_burn", &with_window, row.short_burn);
        *with_window.last_mut().expect("pushed above") = ("window", "long");
        reg.gauge("rtdls_slo_burn", &with_window, row.long_burn);
        reg.gauge("rtdls_slo_state", &labels, row.state.severity() as f64);
        reg.counter("rtdls_slo_breaches", &labels, row.breaches);
        let mut outcome = labels.clone();
        outcome.push(("outcome", "good"));
        reg.gauge("rtdls_slo_window_events", &outcome, row.good as f64);
        *outcome.last_mut().expect("pushed above") = ("outcome", "bad");
        reg.gauge("rtdls_slo_window_events", &outcome, row.bad as f64);
    }
}

/// Folds one shard engine's reuse counters into `reg`, labeled with its
/// shard index.
pub fn fold_engine_profile(reg: &mut MetricsRegistry, profile: &EngineProfile, shard: u32) {
    let shard_label = shard.to_string();
    let labels = [("shard", shard_label.as_str())];
    reg.counter("rtdls_engine_plans_reused", &labels, profile.plans_reused);
    reg.counter(
        "rtdls_engine_plans_computed",
        &labels,
        profile.plans_computed,
    );
    reg.gauge(
        "rtdls_engine_plan_reuse_rate",
        &labels,
        profile.reuse_rate(),
    );
    reg.counter(
        "rtdls_engine_gates_compared",
        &labels,
        profile.gates_compared,
    );
    reg.counter(
        "rtdls_engine_refusals_reused",
        &labels,
        profile.refusals_reused,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdls_core::prelude::TenantId;
    use std::time::Instant;

    #[test]
    fn service_metrics_fold_covers_counters_tenants_and_latency() {
        let mut metrics = ServiceMetrics::new();
        metrics.submitted = 10;
        metrics.accepted_immediate = 6;
        metrics.reserved = 2;
        metrics.throttled = 1;
        metrics.record_decision(Instant::now(), TenantId(3));
        metrics.tenants.counters_mut(TenantId(3)).accepted = 4;
        let mut reg = MetricsRegistry::new();
        fold_service_metrics(&mut reg, &metrics);
        let text = reg.to_prometheus();
        assert!(text.contains("rtdls_gateway_submitted 10"));
        assert!(text.contains("rtdls_gateway_verdicts{verdict=\"accepted\"} 6"));
        assert!(text.contains("rtdls_gateway_verdicts{verdict=\"reserved\"} 2"));
        assert!(text.contains("rtdls_tenant_requests{tenant=\"3\",verdict=\"accepted\"} 4"));
        assert!(text.contains("rtdls_decision_latency_ns_count 1"));
    }

    #[test]
    fn engine_profile_fold_labels_the_shard() {
        let profile = EngineProfile {
            plans_reused: 30,
            plans_computed: 10,
            gates_compared: 4,
            refusals_reused: 7,
        };
        let mut reg = MetricsRegistry::new();
        fold_engine_profile(&mut reg, &profile, 2);
        let text = reg.to_prometheus();
        assert!(text.contains("rtdls_engine_plans_reused{shard=\"2\"} 30"));
        assert!(text.contains("rtdls_engine_plan_reuse_rate{shard=\"2\"} 0.75"));
        assert!(text.contains("rtdls_engine_plans_computed{shard=\"2\"} 10"));
        assert!(text.contains("rtdls_engine_gates_compared{shard=\"2\"} 4"));
        assert!(text.contains("rtdls_engine_refusals_reused{shard=\"2\"} 7"));
    }
}
