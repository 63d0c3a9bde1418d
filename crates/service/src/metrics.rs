//! Gateway observability: decision counters, defer-queue accounting, and
//! per-decision latency histograms. The counters form the serializable
//! [`MetricsSnapshot`] a journal persists, so a recovered gateway keeps
//! them instead of resetting to zero; like everything else in a snapshot,
//! they are a function of the journaled inputs alone. The wall-clock half —
//! the decision window and the latency histograms, global and per tenant —
//! is process-local: it measures this process and restarts with it. The
//! histogram is `rtdls-telemetry`'s [`LatencyHistogram`], re-exported here.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use rtdls_core::prelude::{Infeasible, TenantId};

pub use rtdls_telemetry::LatencyHistogram;

/// Cumulative per-tenant decision counters. Lives inside [`TenantMetrics`],
/// keyed by tenant id.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantCounters {
    /// Requests submitted by this tenant.
    pub submitted: u64,
    /// Requests admitted (immediately, by rescue, or by reservation
    /// activation).
    pub accepted: u64,
    /// Reservations booked for this tenant.
    pub reserved: u64,
    /// Requests parked in the defer queue.
    pub deferred: u64,
    /// Requests finally rejected (immediately or after deferral /
    /// reservation fallback, including recovery demotions past hope).
    pub rejected: u64,
    /// Requests refused over quota.
    pub throttled: u64,
    /// Previously accepted requests demoted back out of the waiting queue
    /// by a recovery re-verification (each re-enters as a deferral or a
    /// rejection — net admitted = `accepted − demoted`, mirroring
    /// [`MetricsSnapshot::accepted_total`]).
    pub demoted: u64,
}

/// Tenant-keyed decision metrics: one [`TenantCounters`] per tenant that
/// has ever submitted, id-sorted so equal books serialize identically.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantMetrics {
    /// `(tenant id, counters)` pairs, sorted by tenant id.
    entries: Vec<(u32, TenantCounters)>,
}

impl TenantMetrics {
    /// Number of tenants observed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no tenant has submitted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The counters of one tenant, if it ever submitted.
    pub fn get(&self, tenant: TenantId) -> Option<&TenantCounters> {
        self.entries
            .iter()
            .find(|(id, _)| *id == tenant.0)
            .map(|(_, c)| c)
    }

    /// The counters of one tenant, created zeroed on first touch.
    pub fn counters_mut(&mut self, tenant: TenantId) -> &mut TenantCounters {
        let pos = self.entries.partition_point(|(id, _)| *id < tenant.0);
        if self.entries.get(pos).is_none_or(|(id, _)| *id != tenant.0) {
            self.entries
                .insert(pos, (tenant.0, TenantCounters::default()));
        }
        &mut self.entries[pos].1
    }

    /// Iterates `(tenant, counters)` in tenant-id order.
    pub fn iter(&self) -> impl Iterator<Item = (TenantId, &TenantCounters)> {
        self.entries.iter().map(|(id, c)| (TenantId(*id), c))
    }
}

/// Rejection counts broken down by [`Infeasible`] cause — one named field
/// per variant so the breakdown is durable, diffable, and folds into the
/// registry as a labeled counter family (`rtdls_gateway_rejections{cause=…}`).
///
/// Counts every `Verdict::Rejected` construction (submission-time
/// rejections, defer/reservation fallbacks, and recovery demotions past
/// hope), so the per-cause sum can exceed `rejected_immediate` alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectionCauses {
    /// `Infeasible::DeadlineBeforeStart` rejections.
    pub deadline_before_start: u64,
    /// `Infeasible::NoTimeForTransmission` rejections.
    pub no_time_for_transmission: u64,
    /// `Infeasible::NotEnoughNodes` rejections.
    pub not_enough_nodes: u64,
    /// `Infeasible::UserRequestInfeasible` rejections.
    pub user_request_infeasible: u64,
    /// `Infeasible::CompletionAfterDeadline` rejections.
    pub completion_after_deadline: u64,
}

impl RejectionCauses {
    /// Books one rejection under its cause.
    pub fn record(&mut self, cause: Infeasible) {
        *self.slot(cause) += 1;
    }

    /// The count for one cause.
    pub fn get(&self, cause: Infeasible) -> u64 {
        match cause {
            Infeasible::DeadlineBeforeStart => self.deadline_before_start,
            Infeasible::NoTimeForTransmission => self.no_time_for_transmission,
            Infeasible::NotEnoughNodes => self.not_enough_nodes,
            Infeasible::UserRequestInfeasible => self.user_request_infeasible,
            Infeasible::CompletionAfterDeadline => self.completion_after_deadline,
        }
    }

    /// All rejections across causes.
    pub fn total(&self) -> u64 {
        self.deadline_before_start
            + self.no_time_for_transmission
            + self.not_enough_nodes
            + self.user_request_infeasible
            + self.completion_after_deadline
    }

    /// `(label, count)` pairs in declaration order — the exposition shape
    /// (labels match the registry's `cause` label values).
    pub fn entries(&self) -> [(&'static str, u64); 5] {
        [
            ("deadline_before_start", self.deadline_before_start),
            ("no_time_for_transmission", self.no_time_for_transmission),
            ("not_enough_nodes", self.not_enough_nodes),
            ("user_request_infeasible", self.user_request_infeasible),
            ("completion_after_deadline", self.completion_after_deadline),
        ]
    }

    fn slot(&mut self, cause: Infeasible) -> &mut u64 {
        match cause {
            Infeasible::DeadlineBeforeStart => &mut self.deadline_before_start,
            Infeasible::NoTimeForTransmission => &mut self.no_time_for_transmission,
            Infeasible::NotEnoughNodes => &mut self.not_enough_nodes,
            Infeasible::UserRequestInfeasible => &mut self.user_request_infeasible,
            Infeasible::CompletionAfterDeadline => &mut self.completion_after_deadline,
        }
    }
}

/// The durable image of the gateway's cumulative counters — everything in
/// [`ServiceMetrics`] except its process-local wall-clock half. Journals
/// persist this inside gateway snapshots, and [`ServiceMetrics`] embeds it
/// directly (reachable through `Deref`), so the two can never drift apart
/// field-wise.
///
/// The fields marked `#[serde(default)]` arrived with the v2
/// request/verdict redesign (`reserved` … `throttled`) and the explain/SLO
/// layer (`rejection_causes`, `tenants`); snapshots journaled before them
/// restore with zero/empty there.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Tasks submitted.
    pub submitted: u64,
    /// Accepted immediately at submission.
    pub accepted_immediate: u64,
    /// Rejected immediately at submission.
    pub rejected_immediate: u64,
    /// Parked in the defer queue at submission.
    pub deferred: u64,
    /// Deferred tasks later admitted by a re-test.
    pub rescued: u64,
    /// Deferred tasks dropped after exhausting their retry budget.
    pub defer_evicted: u64,
    /// Deferred tasks dropped because their latest feasible start passed.
    pub defer_expired: u64,
    /// Deferred tasks flushed when the stream ended.
    pub defer_flushed: u64,
    /// Previously accepted tasks pushed back out of the waiting queue by a
    /// post-recovery re-verification (each re-enters as a deferral, or
    /// counts under [`demote_rejected`](MetricsSnapshot::demote_rejected)
    /// when past hope — the books stay balanced either way).
    pub demoted: u64,
    /// Demoted tasks that could not re-enter the defer queue (even an idle
    /// cluster could no longer meet the deadline, or the queue was full):
    /// withdrawn guarantees, counted in
    /// [`rejected_total`](MetricsSnapshot::rejected_total) but kept apart
    /// from submission-time rejections.
    pub demote_rejected: u64,
    /// Re-test attempts performed across all defer-queue sweeps.
    pub retests: u64,
    /// Reservations booked (`Verdict::Reserved`).
    #[serde(default)]
    pub reserved: u64,
    /// Reservations whose activation admission test passed at `start_at`.
    #[serde(default)]
    pub reservations_activated: u64,
    /// Reservations whose activation test failed (the book changed under
    /// the promise); the task fell back to the defer-or-reject protocol.
    #[serde(default)]
    pub reservation_misses: u64,
    /// Reservations flushed unactivated when the stream ended.
    #[serde(default)]
    pub reservations_flushed: u64,
    /// Requests refused over tenant quota, before any admission test.
    #[serde(default)]
    pub throttled: u64,
    /// Rejections broken down by [`Infeasible`] cause.
    #[serde(default)]
    pub rejection_causes: RejectionCauses,
    /// Per-tenant decision counters.
    #[serde(default)]
    pub tenants: TenantMetrics,
}

impl MetricsSnapshot {
    /// Final admitted count: immediate accepts, rescued defers, and
    /// activated reservations, minus tasks a recovery re-verification
    /// demoted back out of the queue.
    pub fn accepted_total(&self) -> u64 {
        (self.accepted_immediate + self.rescued + self.reservations_activated)
            .saturating_sub(self.demoted)
    }

    /// Final rejected count: submission-time rejects, every way a deferred
    /// task can fall out of the queue, quota refusals, flushed
    /// reservations, and recovery demotions past hope.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_immediate
            + self.defer_evicted
            + self.defer_expired
            + self.defer_flushed
            + self.demote_rejected
            + self.throttled
            + self.reservations_flushed
    }

    /// Fraction of deferred tasks eventually admitted (0 when none were
    /// deferred) — the headline number for the Defer queue's usefulness.
    pub fn defer_rescue_rate(&self) -> f64 {
        if self.deferred == 0 {
            0.0
        } else {
            self.rescued as f64 / self.deferred as f64
        }
    }

    /// Final acceptance ratio over all submissions.
    pub fn accept_ratio(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.accepted_total() as f64 / self.submitted as f64
        }
    }
}

/// Aggregated gateway statistics: the durable [`MetricsSnapshot`] counters
/// (all reachable directly on this type through `Deref`) plus the
/// process-local wall-clock half — the decision window and the decision
/// latency histograms, global and per tenant.
///
/// Counters split decisions into their *initial* verdict (accepted /
/// deferred / rejected at submission) and the *final* fate of deferred
/// tasks (rescued / evicted after max retries / expired past the latest
/// feasible start). `accepted_total()` is the final admitted count.
#[derive(Clone, Debug, Default)]
pub struct ServiceMetrics {
    counters: MetricsSnapshot,
    decision_latency: LatencyHistogram,
    tenant_latency: BTreeMap<TenantId, LatencyHistogram>,
    first_decision: Option<Instant>,
    last_decision: Option<Instant>,
}

impl std::ops::Deref for ServiceMetrics {
    type Target = MetricsSnapshot;
    fn deref(&self) -> &MetricsSnapshot {
        &self.counters
    }
}

impl std::ops::DerefMut for ServiceMetrics {
    fn deref_mut(&mut self) -> &mut MetricsSnapshot {
        &mut self.counters
    }
}

impl ServiceMetrics {
    /// Fresh, empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Books the wall-clock half of one decision that began at `start`:
    /// stamps the decision window and records the elapsed time, globally
    /// and under `tenant`.
    pub fn record_decision(&mut self, start: Instant, tenant: TenantId) {
        let elapsed = start.elapsed();
        self.first_decision.get_or_insert(start);
        self.last_decision = Some(start);
        self.decision_latency.record(elapsed);
        self.tenant_latency
            .entry(tenant)
            .or_default()
            .record(elapsed);
    }

    /// Wall-clock latency of each admission decision this process made.
    pub fn decision_latency(&self) -> &LatencyHistogram {
        &self.decision_latency
    }

    /// Wall-clock latency of one tenant's admission decisions in this
    /// process, if it made any.
    pub fn tenant_latency(&self, tenant: TenantId) -> Option<&LatencyHistogram> {
        self.tenant_latency.get(&tenant)
    }

    /// Admission decisions per wall-clock second over this process's
    /// decision window (0 with fewer than two decisions). Counts the
    /// window's own decisions, not the restored cumulative `submitted`.
    pub fn decisions_per_sec(&self) -> f64 {
        match (self.first_decision, self.last_decision) {
            (Some(a), Some(b)) if b > a => {
                self.decision_latency.count() as f64 / (b - a).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// Serializable copy of every cumulative counter — a function of the
    /// journaled inputs alone. The wall-clock half is process-local and
    /// intentionally not captured: it restarts with the process.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.counters.clone()
    }

    /// Rebuilds metrics from a snapshot so a recovered gateway continues its
    /// cumulative counters instead of resetting to zero. The inverse of
    /// [`snapshot`](ServiceMetrics::snapshot); the wall-clock half starts
    /// empty, from this process's first decision.
    pub fn restore(snap: &MetricsSnapshot) -> Self {
        ServiceMetrics {
            counters: snap.clone(),
            ..Self::default()
        }
    }
}

impl fmt::Display for ServiceMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "submitted {} | accepted {} ({} immediate + {} rescued) | rejected {} | \
             deferred {} (rescue rate {:.1}%)",
            self.submitted,
            self.accepted_total(),
            self.accepted_immediate,
            self.rescued,
            self.rejected_total(),
            self.deferred,
            self.defer_rescue_rate() * 100.0,
        )?;
        writeln!(
            f,
            "defer outcomes: rescued {} evicted {} expired {} flushed {} | retests {} | \
             demoted {} ({} past hope)",
            self.rescued,
            self.defer_evicted,
            self.defer_expired,
            self.defer_flushed,
            self.retests,
            self.demoted,
            self.demote_rejected,
        )?;
        if self.reserved + self.throttled > 0 {
            writeln!(
                f,
                "reservations: {} booked, {} activated, {} missed, {} flushed | throttled {} \
                 | tenants {}",
                self.reserved,
                self.reservations_activated,
                self.reservation_misses,
                self.reservations_flushed,
                self.throttled,
                self.tenants.len(),
            )?;
        }
        if self.decisions_per_sec() > 0.0 {
            writeln!(
                f,
                "throughput: {:.0} decisions/s (wall)",
                self.decisions_per_sec()
            )?;
        }
        write!(f, "decision latency: {}", self.decision_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn rates_and_totals_are_consistent() {
        let mut m = ServiceMetrics::new();
        m.submitted = 10;
        m.accepted_immediate = 5;
        m.rejected_immediate = 2;
        m.deferred = 3;
        m.rescued = 2;
        m.defer_evicted = 1;
        assert_eq!(m.accepted_total(), 7);
        assert_eq!(m.rejected_total(), 3);
        assert!((m.defer_rescue_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.accept_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(m.accepted_total() + m.rejected_total(), m.submitted);
        let text = m.to_string();
        assert!(text.contains("rescue rate"));
    }

    #[test]
    fn snapshot_restore_round_trips_counters_not_latency() {
        let mut m = ServiceMetrics::new();
        m.submitted = 11;
        m.accepted_immediate = 6;
        m.deferred = 3;
        m.rescued = 2;
        m.defer_expired = 1;
        m.demoted = 1;
        m.retests = 40;
        m.tenants.counters_mut(TenantId(4)).submitted = 11;
        m.record_decision(Instant::now(), TenantId(4));
        let snap = m.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        assert!(!json.contains("latency"), "{json}");
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let restored = ServiceMetrics::restore(&back);
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.accepted_total(), m.accepted_total());
        assert_eq!(restored.rejected_total(), m.rejected_total());
        // The wall-clock half is process-local and restarts empty.
        assert_eq!(restored.decision_latency().count(), 0);
        assert!(restored.tenant_latency(TenantId(4)).is_none());
        assert_eq!(restored.decisions_per_sec(), 0.0);
    }

    #[test]
    fn a_restored_gateway_rates_only_its_own_decisions() {
        let mut m = ServiceMetrics::restore(&MetricsSnapshot {
            submitted: 10_000,
            ..MetricsSnapshot::default()
        });
        let first = Instant::now();
        let second = first + Duration::from_millis(1);
        m.record_decision(first, TenantId(0));
        m.record_decision(second, TenantId(0));
        assert_eq!(m.submitted, 10_000);
        // Two decisions in a 1 ms window: about 2 000 a second, not the
        // 10 M the restored all-time count would give.
        let rate = m.decisions_per_sec();
        assert!((1_000.0..=4_000.0).contains(&rate), "{rate} decisions/s");
    }

    #[test]
    fn demotion_keeps_totals_balanced() {
        let mut m = ServiceMetrics::new();
        m.submitted = 2;
        m.accepted_immediate = 2;
        // One accepted task is demoted at recovery and re-enters deferred…
        m.demoted = 1;
        m.deferred = 1;
        assert_eq!(m.accepted_total(), 1);
        // …and later expires: the books close.
        m.defer_expired = 1;
        assert_eq!(m.accepted_total() + m.rejected_total(), m.submitted);
    }

    #[test]
    fn empty_metrics_have_zero_rates() {
        let m = ServiceMetrics::new();
        assert_eq!(m.defer_rescue_rate(), 0.0);
        assert_eq!(m.accept_ratio(), 0.0);
        assert_eq!(m.decisions_per_sec(), 0.0);
        assert_eq!(m.decision_latency().quantile_ns(0.99), 0);
    }
}
