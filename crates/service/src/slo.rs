//! Deadline-SLO tracking: per-tenant and per-QoS-class service-level
//! objectives over sim-time rolling windows, with multi-window burn-rate
//! alarming.
//!
//! The paper's contract is a *promise*: every accepted load finishes by its
//! deadline. This module observes promise quality along the two axes the
//! related work consumes as reward/trade-off signals:
//!
//! * **Acceptance** — of the requests a tenant submitted, how many ended
//!   admitted (immediately, by rescue, or by activation) vs refused
//!   (rejected, throttled, or fallen out of the defer queue).
//! * **Attainment** — of the guarantees the gateway *issued*, how many
//!   held vs were withdrawn (recovery demotions, reservation misses).
//!
//! Each `(scope, objective)` pair runs a **fast** and a **slow**
//! [`RollingWindow`] over sim time. The *burn rate* is the windowed bad
//! fraction divided by the objective's error budget (`1 − target`); burning
//! at rate 1 consumes exactly the budget over the window. Alarm states
//! follow the SRE multi-window convention:
//!
//! * [`SloHealth::Burning`] — the short *or* long window burns over its
//!   threshold: the budget is being consumed too fast, but the damage is
//!   not yet sustained.
//! * [`SloHealth::Breached`] — *both* windows burn over threshold: the
//!   overload is sustained. Entering this state latches a breach count and
//!   emits a transition the gateway turns into forensics (flight-recorder
//!   dumps + a journaled `SloBreach` audit record).
//!
//! Everything here is driven by **sim time** and the decision stream, so
//! the tracker is deterministic: a live run and a journal replay of it
//! produce byte-identical tracker state — which is why the whole tracker
//! can live inside durable gateway snapshots.

use serde::{Deserialize, Serialize};

use rtdls_core::prelude::{QosClass, SimTime, TenantId};
use rtdls_telemetry::RollingWindow;

/// Which promise an objective guards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloObjective {
    /// Submitted requests ending admitted vs refused.
    Acceptance,
    /// Issued guarantees holding vs being withdrawn.
    Attainment,
}

impl SloObjective {
    /// Stable lowercase label (metric label values, ops rendering).
    pub fn label(&self) -> &'static str {
        match self {
            SloObjective::Acceptance => "acceptance",
            SloObjective::Attainment => "attainment",
        }
    }
}

/// The alarm state of one `(scope, objective)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloHealth {
    /// Within budget on both windows.
    Healthy,
    /// One window burns over threshold: budget consumed too fast.
    Burning,
    /// Both windows burn over threshold: sustained violation.
    Breached,
}

// Not derived: the vendored serde derive must see a plain variant list.
#[allow(clippy::derivable_impls)]
impl Default for SloHealth {
    fn default() -> Self {
        SloHealth::Healthy
    }
}

impl SloHealth {
    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            SloHealth::Healthy => "healthy",
            SloHealth::Burning => "burning",
            SloHealth::Breached => "breached",
        }
    }

    /// Numeric severity for gauge exposition (0 / 1 / 2).
    pub fn severity(&self) -> u64 {
        match self {
            SloHealth::Healthy => 0,
            SloHealth::Burning => 1,
            SloHealth::Breached => 2,
        }
    }
}

/// Serializable SLO configuration: targets, window spans, and burn-rate
/// thresholds. Part of the gateway's durable state (journal snapshots
/// carry it), so a recovered gateway alarms exactly as the live one did.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloPolicy {
    /// Acceptance-rate target in `(0, 1)`; error budget `1 − target`.
    pub acceptance_target: f64,
    /// Deadline-attainment target in `(0, 1)`.
    pub attainment_target: f64,
    /// Fast window span, sim-time units.
    pub short_window: f64,
    /// Slow window span, sim-time units.
    pub long_window: f64,
    /// Burn-rate threshold on the fast window.
    pub fast_burn: f64,
    /// Burn-rate threshold on the slow window.
    pub slow_burn: f64,
    /// Events required in a window before its burn rate can alarm —
    /// keeps a single early rejection from paging.
    pub min_events: u64,
    /// Ring resolution: buckets per window.
    pub buckets: usize,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            acceptance_target: 0.95,
            attainment_target: 0.999,
            short_window: 60.0,
            long_window: 600.0,
            fast_burn: 6.0,
            slow_burn: 3.0,
            min_events: 10,
            buckets: 12,
        }
    }
}

impl SloPolicy {
    /// The target for one objective.
    pub fn target(&self, objective: SloObjective) -> f64 {
        match objective {
            SloObjective::Acceptance => self.acceptance_target,
            SloObjective::Attainment => self.attainment_target,
        }
    }

    /// The error budget for one objective, floored away from zero so the
    /// burn-rate division is always defined.
    pub fn budget(&self, objective: SloObjective) -> f64 {
        (1.0 - self.target(objective)).max(1e-9)
    }
}

/// One objective's windows and alarm state within one scope.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveState {
    short: RollingWindow,
    long: RollingWindow,
    state: SloHealth,
    breaches: u64,
}

impl ObjectiveState {
    fn new(policy: &SloPolicy) -> Self {
        ObjectiveState {
            short: RollingWindow::new(policy.short_window, policy.buckets),
            long: RollingWindow::new(policy.long_window, policy.buckets),
            state: SloHealth::Healthy,
            breaches: 0,
        }
    }

    /// Current alarm state.
    pub fn state(&self) -> SloHealth {
        self.state
    }

    /// Times this objective has entered [`SloHealth::Breached`].
    pub fn breaches(&self) -> u64 {
        self.breaches
    }

    /// Burn rates `(short, long)` at sim-time `now`.
    pub fn burn_rates(&self, policy: &SloPolicy, objective: SloObjective, now: f64) -> (f64, f64) {
        let budget = policy.budget(objective);
        (
            self.short.bad_rate(now) / budget,
            self.long.bad_rate(now) / budget,
        )
    }

    /// Records one event and re-evaluates the alarm; returns the
    /// `(from, to)` states when they differ.
    fn observe(
        &mut self,
        policy: &SloPolicy,
        objective: SloObjective,
        good: bool,
        now: f64,
    ) -> Option<(SloHealth, SloHealth)> {
        // A window alarms once armed (`min_events` in it) and burning over
        // its threshold, judged on the totals its record just read back:
        // the same arithmetic as `burn_rates`, on one pass per window.
        let budget = policy.budget(objective);
        let burns = |(good, bad): (u64, u64), threshold: f64| {
            good + bad >= policy.min_events
                && bad as f64 / (good + bad).max(1) as f64 / budget >= threshold
        };
        let fast = burns(self.short.record(now, good), policy.fast_burn);
        let slow = burns(self.long.record(now, good), policy.slow_burn);
        let next = match (fast, slow) {
            (true, true) => SloHealth::Breached,
            (false, false) => SloHealth::Healthy,
            _ => SloHealth::Burning,
        };
        let prev = self.state;
        if next == prev {
            return None;
        }
        self.state = next;
        if next == SloHealth::Breached {
            self.breaches += 1;
        }
        Some((prev, next))
    }
}

/// Both objectives within one scope (a tenant, or a QoS class).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloKeyState {
    /// Acceptance objective state.
    pub acceptance: ObjectiveState,
    /// Attainment objective state.
    pub attainment: ObjectiveState,
}

impl SloKeyState {
    fn new(policy: &SloPolicy) -> Self {
        SloKeyState {
            acceptance: ObjectiveState::new(policy),
            attainment: ObjectiveState::new(policy),
        }
    }

    /// The state for one objective.
    pub fn objective(&self, objective: SloObjective) -> &ObjectiveState {
        match objective {
            SloObjective::Acceptance => &self.acceptance,
            SloObjective::Attainment => &self.attainment,
        }
    }

    fn objective_mut(&mut self, objective: SloObjective) -> &mut ObjectiveState {
        match objective {
            SloObjective::Acceptance => &mut self.acceptance,
            SloObjective::Attainment => &mut self.attainment,
        }
    }
}

/// One alarm-state change, emitted by [`SloTracker::record`]. A transition
/// into [`SloHealth::Breached`] is what triggers forensics.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloTransition {
    /// The tenant scope, when tenant-scoped.
    pub tenant: Option<u32>,
    /// The QoS scope, when QoS-scoped.
    pub qos: Option<QosClass>,
    /// Which objective moved.
    pub objective: SloObjective,
    /// Previous alarm state.
    pub from: SloHealth,
    /// New alarm state.
    pub to: SloHealth,
    /// Sim time of the event that tripped the change.
    pub at: SimTime,
}

impl SloTransition {
    /// `true` when this transition entered [`SloHealth::Breached`].
    pub fn is_breach(&self) -> bool {
        self.to == SloHealth::Breached
    }
}

/// One row of the SLO status table — the `Ops::Slo` wire shape and the
/// source for the Prometheus SLO gauges.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloStatusRow {
    /// The tenant scope, when tenant-scoped.
    pub tenant: Option<u32>,
    /// The QoS scope, when QoS-scoped.
    pub qos: Option<QosClass>,
    /// Which objective this row reports.
    pub objective: SloObjective,
    /// Good events in the long window at the tracker's last event time.
    pub good: u64,
    /// Bad events in the long window.
    pub bad: u64,
    /// Fast-window burn rate.
    pub short_burn: f64,
    /// Slow-window burn rate.
    pub long_burn: f64,
    /// Current alarm state.
    pub state: SloHealth,
    /// Times this scope/objective has breached.
    pub breaches: u64,
}

/// Current version of the [`SloBreach`] audit-record shape. The journal
/// persists breach records verbatim; the version field lets future shapes
/// coexist with archived ones in the same log.
pub const SLO_BREACH_VERSION: u32 = 1;

/// The forensic record cut when a scope enters [`SloHealth::Breached`]:
/// the transition itself, the scope's status row at breach time, and —
/// when the breaching scope is a tenant — that tenant's recently decided
/// tasks plus their flight-recorder timelines (rendered span lines). The
/// gateway's journal appends these as durable audit events, so the breach
/// and its evidence survive a crash.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloBreach {
    /// Record-shape version ([`SLO_BREACH_VERSION`]).
    pub version: u32,
    /// The state change that constituted the breach.
    pub transition: SloTransition,
    /// The breaching scope's status row at breach time.
    pub row: SloStatusRow,
    /// The offending tenant's most recently decided task ids (empty for
    /// QoS-scoped breaches).
    pub recent_tasks: Vec<u64>,
    /// Rendered flight-recorder timelines for `recent_tasks` (empty when
    /// tracing is disabled — the breach record itself is still cut).
    pub timelines: Vec<String>,
}

impl SloStatusRow {
    /// Human-readable scope label (`tenant 7` / `qos premium` / `global`).
    pub fn scope(&self) -> String {
        match (self.tenant, self.qos) {
            (Some(t), _) => format!("tenant {t}"),
            (None, Some(q)) => format!("qos {}", qos_label(q)),
            (None, None) => "global".to_string(),
        }
    }
}

/// Stable lowercase label for a QoS class.
pub fn qos_label(qos: QosClass) -> &'static str {
    match qos {
        QosClass::Premium => "premium",
        QosClass::Standard => "standard",
        QosClass::BestEffort => "best_effort",
    }
}

const QOS_ORDER: [QosClass; 3] = [QosClass::Premium, QosClass::Standard, QosClass::BestEffort];

/// The per-tenant + per-QoS SLO tracker. Fully serializable and
/// deterministic (sim-time driven), so it rides inside durable gateway
/// snapshots and survives kill/recover with its alarm states and breach
/// counts intact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloTracker {
    policy: SloPolicy,
    /// `(tenant id, state)` pairs, id-sorted (deterministic encoding).
    tenants: Vec<(u32, SloKeyState)>,
    /// One state per QoS class, in [`QOS_ORDER`].
    qos: Vec<(QosClass, SloKeyState)>,
    /// Sim time of the most recent recorded event (burn rates and status
    /// rows are evaluated here — the tracker's own notion of "now").
    last_now: f64,
}

impl Default for SloTracker {
    fn default() -> Self {
        SloTracker::new(SloPolicy::default())
    }
}

impl SloTracker {
    /// A fresh tracker under `policy`.
    pub fn new(policy: SloPolicy) -> Self {
        SloTracker {
            policy,
            tenants: Vec::new(),
            qos: QOS_ORDER
                .iter()
                .map(|&q| (q, SloKeyState::new(&policy)))
                .collect(),
            last_now: 0.0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// Sim time of the most recent recorded event.
    pub fn last_now(&self) -> f64 {
        self.last_now
    }

    /// One tenant's SLO state, if it has ever recorded an event.
    pub fn tenant(&self, tenant: TenantId) -> Option<&SloKeyState> {
        self.tenants
            .iter()
            .find(|(id, _)| *id == tenant.0)
            .map(|(_, s)| s)
    }

    fn tenant_mut(&mut self, tenant: TenantId) -> &mut SloKeyState {
        let pos = self.tenants.partition_point(|(id, _)| *id < tenant.0);
        if self.tenants.get(pos).is_none_or(|(id, _)| *id != tenant.0) {
            let state = SloKeyState::new(&self.policy);
            self.tenants.insert(pos, (tenant.0, state));
        }
        &mut self.tenants[pos].1
    }

    /// Records one objective event under both scopes (the tenant and the
    /// QoS class) at sim-time `now`, returning every alarm-state change it
    /// caused: at most one per scope, the tenant's first, from a slot a
    /// scope (nothing is allocated).
    pub fn record(
        &mut self,
        tenant: TenantId,
        qos: QosClass,
        objective: SloObjective,
        good: bool,
        now: SimTime,
    ) -> impl Iterator<Item = SloTransition> {
        let at = now.as_f64();
        self.last_now = self.last_now.max(at);
        let policy = self.policy;
        let observe = |state: &mut SloKeyState| {
            let state = state.objective_mut(objective);
            state.observe(&policy, objective, good, at)
        };
        let transition = |tenant, qos, (from, to)| SloTransition {
            tenant,
            qos,
            objective,
            from,
            to,
            at: now,
        };
        let by_tenant = observe(self.tenant_mut(tenant));
        let by_tenant = by_tenant.map(|moved| transition(Some(tenant.0), None, moved));
        let slot = self.qos.iter_mut().find(|(q, _)| *q == qos);
        let by_qos = slot.and_then(|(_, state)| observe(state));
        let by_qos = by_qos.map(|moved| transition(None, Some(qos), moved));
        [by_tenant, by_qos].into_iter().flatten()
    }

    /// The full status table at the tracker's last event time: one row per
    /// `(scope, objective)`, tenants first (id order), then QoS classes.
    pub fn rows(&self) -> Vec<SloStatusRow> {
        let mut out = Vec::new();
        for (id, state) in &self.tenants {
            for objective in [SloObjective::Acceptance, SloObjective::Attainment] {
                out.push(self.row(Some(*id), None, objective, state.objective(objective)));
            }
        }
        for (qos, state) in &self.qos {
            for objective in [SloObjective::Acceptance, SloObjective::Attainment] {
                out.push(self.row(None, Some(*qos), objective, state.objective(objective)));
            }
        }
        out
    }

    /// The status row for one scope/objective, if the scope exists.
    pub fn row_for(
        &self,
        tenant: Option<u32>,
        qos: Option<QosClass>,
        objective: SloObjective,
    ) -> Option<SloStatusRow> {
        let state = match (tenant, qos) {
            (Some(id), _) => self.tenant(TenantId(id))?,
            (None, Some(q)) => &self.qos.iter().find(|(qq, _)| *qq == q)?.1,
            (None, None) => return None,
        };
        Some(self.row(tenant, qos, objective, state.objective(objective)))
    }

    fn row(
        &self,
        tenant: Option<u32>,
        qos: Option<QosClass>,
        objective: SloObjective,
        state: &ObjectiveState,
    ) -> SloStatusRow {
        let (short_burn, long_burn) = state.burn_rates(&self.policy, objective, self.last_now);
        let (good, bad) = state.long.totals(self.last_now);
        SloStatusRow {
            tenant,
            qos,
            objective,
            good,
            bad,
            short_burn,
            long_burn,
            state: state.state(),
            breaches: state.breaches(),
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rtdls_telemetry::RollingWindow;

    use super::*;

    fn policy() -> SloPolicy {
        SloPolicy {
            acceptance_target: 0.9,
            short_window: 10.0,
            long_window: 100.0,
            fast_burn: 5.0,
            slow_burn: 2.0,
            min_events: 5,
            buckets: 10,
            ..Default::default()
        }
    }

    #[test]
    fn healthy_through_burning_to_breached_and_back() {
        let mut t = SloTracker::new(policy());
        let tenant = TenantId(7);
        let qos = QosClass::Standard;
        // A healthy history: 50 accepts spread over 50 time units.
        for i in 0..50 {
            let moved = t.record(
                tenant,
                qos,
                SloObjective::Acceptance,
                true,
                SimTime::new(i as f64),
            );
            assert_eq!(moved.count(), 0, "healthy stream must not alarm");
        }
        let state = |t: &SloTracker| t.tenant(tenant).unwrap().acceptance.state();
        assert_eq!(state(&t), SloHealth::Healthy);
        // Step overload: rejections from t=50 on. The fast window fills with
        // bad events quickly (Burning) while the long window still holds the
        // healthy history; sustained overload then breaches.
        let mut saw_burning = false;
        let mut breach_at = None;
        for i in 0..80 {
            let now = SimTime::new(50.0 + i as f64 * 0.5);
            let moved = t.record(tenant, qos, SloObjective::Acceptance, false, now);
            for m in moved {
                if m.tenant == Some(7) && m.to == SloHealth::Burning && m.from == SloHealth::Healthy
                {
                    saw_burning = true;
                }
                if m.tenant == Some(7) && m.is_breach() {
                    assert!(saw_burning, "breach must pass through burning first");
                    breach_at = Some(now);
                }
            }
        }
        assert!(saw_burning);
        assert!(breach_at.is_some(), "sustained overload must breach");
        assert_eq!(state(&t), SloHealth::Breached);
        assert_eq!(t.tenant(tenant).unwrap().acceptance.breaches(), 1);
        // Recovery: a long healthy stream rolls the bad events out.
        for i in 0..300 {
            let _ = t.record(
                tenant,
                qos,
                SloObjective::Acceptance,
                true,
                SimTime::new(100.0 + i as f64),
            );
        }
        assert_eq!(state(&t), SloHealth::Healthy);
        // The breach count is latched.
        assert_eq!(t.tenant(tenant).unwrap().acceptance.breaches(), 1);
    }

    #[test]
    fn min_events_gate_suppresses_early_alarms() {
        let mut t = SloTracker::new(policy());
        // 4 straight rejections: under min_events, no alarm.
        for i in 0..4 {
            let moved = t.record(
                TenantId(1),
                QosClass::Standard,
                SloObjective::Acceptance,
                false,
                SimTime::new(i as f64),
            );
            assert_eq!(moved.count(), 0, "below min_events nothing alarms");
        }
    }

    #[test]
    fn qos_scope_aggregates_across_tenants() {
        let mut t = SloTracker::new(policy());
        // Two tenants each contribute 3 rejections — below the per-tenant
        // gate, but the shared QoS scope crosses it and alarms.
        let mut qos_alarmed = false;
        for i in 0..6 {
            let tenant = TenantId(if i % 2 == 0 { 1 } else { 2 });
            let mut moved = t.record(
                tenant,
                QosClass::BestEffort,
                SloObjective::Acceptance,
                false,
                SimTime::new(i as f64),
            );
            qos_alarmed |=
                moved.any(|m| m.qos == Some(QosClass::BestEffort) && m.to != SloHealth::Healthy);
        }
        assert!(qos_alarmed);
    }

    #[test]
    fn rows_cover_tenants_and_qos_and_serde_round_trips() {
        let mut t = SloTracker::new(SloPolicy::default());
        let _ = t.record(
            TenantId(3),
            QosClass::Premium,
            SloObjective::Attainment,
            true,
            SimTime::new(1.0),
        );
        let rows = t.rows();
        // 1 tenant × 2 objectives + 3 QoS classes × 2 objectives.
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().any(|r| r.tenant == Some(3)
            && r.objective == SloObjective::Attainment
            && r.good == 1));
        assert!(rows
            .iter()
            .any(|r| r.qos == Some(QosClass::Premium) && r.scope() == "qos premium"));
        let json = serde_json::to_string(&t).unwrap();
        let back: SloTracker = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.rows(), rows);
    }

    #[test]
    fn determinism_across_identical_streams() {
        let mk = || {
            let mut t = SloTracker::new(policy());
            for i in 0..200 {
                let _ = t.record(
                    TenantId((i % 3) as u32),
                    QosClass::Standard,
                    if i % 2 == 0 {
                        SloObjective::Acceptance
                    } else {
                        SloObjective::Attainment
                    },
                    i % 5 != 0,
                    SimTime::new(i as f64 * 0.3),
                );
            }
            t
        };
        assert_eq!(mk(), mk());
    }

    /// The evaluation `observe` made before a window's record read its
    /// totals back: record both windows, then `burn_rates` (a scan of each)
    /// and each window's totals again for arming.
    fn reference_observe(
        state: &mut ObjectiveState,
        policy: &SloPolicy,
        objective: SloObjective,
        good: bool,
        now: f64,
    ) -> Option<(SloHealth, SloHealth)> {
        state.short.record(now, good);
        state.long.record(now, good);
        let (short_burn, long_burn) = state.burn_rates(policy, objective, now);
        let count = |w: &RollingWindow| {
            let (good, bad) = w.totals(now);
            good + bad
        };
        let fast = count(&state.short) >= policy.min_events && short_burn >= policy.fast_burn;
        let slow = count(&state.long) >= policy.min_events && long_burn >= policy.slow_burn;
        let next = match (fast, slow) {
            (true, true) => SloHealth::Breached,
            (false, false) => SloHealth::Healthy,
            _ => SloHealth::Burning,
        };
        let prev = state.state;
        if next == prev {
            return None;
        }
        state.state = next;
        if next == SloHealth::Breached {
            state.breaches += 1;
        }
        Some((prev, next))
    }

    /// [`SloTracker::record`] on [`reference_observe`].
    fn reference_record(
        t: &mut SloTracker,
        tenant: TenantId,
        qos: QosClass,
        objective: SloObjective,
        good: bool,
        now: SimTime,
    ) -> Vec<SloTransition> {
        let at = now.as_f64();
        t.last_now = t.last_now.max(at);
        let policy = t.policy;
        let mut out = Vec::new();
        let state = t.tenant_mut(tenant).objective_mut(objective);
        if let Some((from, to)) = reference_observe(state, &policy, objective, good, at) {
            let (tenant, qos) = (Some(tenant.0), None);
            out.push(SloTransition {
                tenant,
                qos,
                objective,
                from,
                to,
                at: now,
            });
        }
        let slot = t.qos.iter_mut().find(|(q, _)| *q == qos).unwrap();
        let state = slot.1.objective_mut(objective);
        if let Some((from, to)) = reference_observe(state, &policy, objective, good, at) {
            let (tenant, qos) = (None, Some(qos));
            out.push(SloTransition {
                tenant,
                qos,
                objective,
                from,
                to,
                at: now,
            });
        }
        out
    }

    /// A policy with small windows, so a few hundred events cross whole
    /// windows, arm, burn and recover.
    fn small_policy() -> impl Strategy<Value = SloPolicy> {
        let targets = (
            prop::sample::select(vec![0.5, 0.8, 0.9, 0.95]),
            prop::sample::select(vec![0.9, 0.99, 0.999]),
        );
        let windows = (
            prop::sample::select(vec![3.0, 5.0, 10.0]),
            prop::sample::select(vec![20.0, 50.0, 100.0]),
        );
        let burns = (0.5f64..8.0, 0.5f64..4.0);
        (targets, windows, burns, 0u64..12, 1usize..13).prop_map(
            |(
                (acceptance_target, attainment_target),
                (short_window, long_window),
                (fast_burn, slow_burn),
                min_events,
                buckets,
            )| SloPolicy {
                acceptance_target,
                attainment_target,
                short_window,
                long_window,
                fast_burn,
                slow_burn,
                min_events,
                buckets,
            },
        )
    }

    /// One event: tenant, QoS class, objective, good, and how the clock
    /// moves before it (0–5 advance a little, 6 repeats, 7 steps back, 8
    /// jumps past whole long windows, 9 goes to 0, 10 below 0, 11 to
    /// `f64::MAX`).
    fn events() -> impl Strategy<Value = Vec<(u32, QosClass, SloObjective, bool, u8, f64)>> {
        let event = (
            0u32..5,
            prop::sample::select(QOS_ORDER.to_vec()),
            prop::sample::select(vec![SloObjective::Acceptance, SloObjective::Attainment]),
            prop::sample::select(vec![true, true, false]),
            0u8..12,
            0.0f64..1.0,
        );
        prop::collection::vec(event, 1..300)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        #[test]
        fn one_pass_evaluation_matches_the_reference(policy in small_policy(), events in events()) {
            let mut fast = SloTracker::new(policy);
            let mut reference = SloTracker::new(policy);
            let mut now = 0.0f64;
            for (i, &(tenant, qos, objective, good, step, u)) in events.iter().enumerate() {
                now = match step {
                    0..=5 => now + u * 2.0,
                    6 => now,
                    7 => now - u * policy.short_window * 2.0,
                    8 => now + policy.long_window * (1.0 + 3.0 * u),
                    9 => 0.0,
                    10 => -1.0 - u * 100.0,
                    _ => f64::MAX,
                };
                let at = SimTime::new(now);
                let tenant = TenantId(tenant);
                let moved = fast.record(tenant, qos, objective, good, at);
                let expected = reference_record(&mut reference, tenant, qos, objective, good, at);
                prop_assert_eq!(moved.collect::<Vec<_>>(), expected, "event {} at {}", i, now);
            }
            prop_assert_eq!(fast.rows(), reference.rows());
            let bytes = serde_json::to_string(&fast).unwrap();
            prop_assert_eq!(bytes, serde_json::to_string(&reference).unwrap());
        }
    }
}
