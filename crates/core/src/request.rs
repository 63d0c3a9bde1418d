//! The v2 submission envelope: who is asking, at what service tier, and
//! how long they are willing to wait.
//!
//! The paper's admission test answers a bare question — "is this task
//! schedulable now?" — for an anonymous submitter. A production gateway
//! serves many *tenants* with different service expectations, and the
//! resource-sharing DLT literature (Wu/Cao/Robertazzi) treats time-varying
//! availability as a first-class input: the natural question becomes "when
//! does this task become schedulable, and is the submitter willing to wait
//! that long?". [`SubmitRequest`] carries that context:
//!
//! * [`TenantId`] — stable tenant identity, the key for quotas and
//!   per-tenant metrics in the service layer;
//! * [`QosClass`] — the service tier (quota exemptions, observability);
//! * `max_delay` — the reservation tolerance: the submitter accepts any
//!   start instant in `[now, now + max_delay]`. `None` keeps the paper's
//!   binary now-or-never semantics.
//!
//! [`TenantMix`] deterministically assigns this envelope to a bare
//! generated [`Task`] stream so simulations and benchmarks can model a
//! multi-tenant population without threading tenancy through the workload
//! distributions themselves.

use serde::{Deserialize, Serialize};

use crate::task::Task;

/// Stable tenant identifier (the quota / metrics key in the service layer).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct TenantId(pub u32);

/// Service tier of a submission.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum QosClass {
    /// Highest tier: exempt from tenant quotas when the service layer's
    /// quota policy says so.
    Premium,
    /// The default tier: quotas and reservations apply normally.
    #[default]
    Standard,
    /// Lowest tier: same admission test, but the first to be throttled
    /// under per-tenant quotas.
    BestEffort,
}

/// The v2 submission envelope: a task plus its tenant, QoS class, and
/// reservation tolerance.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// The divisible task being submitted.
    pub task: Task,
    /// Who is submitting.
    pub tenant: TenantId,
    /// The service tier of this submission.
    pub qos: QosClass,
    /// Reservation tolerance: the submitter accepts any admission instant
    /// in `[now, now + max_delay]`. `None` = now-or-never (the legacy
    /// three-way Accept/Defer/Reject protocol).
    pub max_delay: Option<f64>,
    /// Telemetry trace id riding the request through the stack; `0` =
    /// untraced (the only value in-process callers produce unless an
    /// enabled telemetry handle minted one at ingress). Not written when
    /// zero and zero when absent: an untraced request encodes as it did
    /// before tracing existed, and journals from before it still recover.
    #[serde(default, skip_serializing_if = "untraced")]
    pub trace: u64,
}

fn untraced(trace: &u64) -> bool {
    *trace == 0
}

impl SubmitRequest {
    /// The legacy envelope: anonymous tenant 0, standard tier, no
    /// reservation tolerance — exactly the paper's binary semantics. The
    /// v1 `submit(Task)` surface bridges through this.
    pub fn new(task: Task) -> Self {
        SubmitRequest {
            task,
            tenant: TenantId(0),
            qos: QosClass::default(),
            max_delay: None,
            trace: 0,
        }
    }

    /// Sets the tenant.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Sets the QoS class.
    pub fn with_qos(mut self, qos: QosClass) -> Self {
        self.qos = qos;
        self
    }

    /// Sets the reservation tolerance.
    pub fn with_max_delay(mut self, max_delay: Option<f64>) -> Self {
        debug_assert!(
            max_delay.is_none_or(|d| d.is_finite() && d >= 0.0),
            "max_delay must be finite and non-negative"
        );
        self.max_delay = max_delay;
        self
    }

    /// Sets the telemetry trace id (`0` = untraced).
    pub fn with_trace(mut self, trace: u64) -> Self {
        self.trace = trace;
        self
    }
}

/// Deterministic tenant/QoS assignment over a bare task stream.
///
/// Tenancy is a property of the *submitter*, not of the task shape, so the
/// mix is a pure function of the task id: the same stream always maps to
/// the same tenants (replay determinism for journals and benchmarks), and
/// a tenant's class never flickers between submissions.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct TenantMix {
    /// Number of tenants; tasks deal to tenants round-robin by id.
    pub tenants: u32,
    /// The leading `premium_tenants` tenant ids are [`QosClass::Premium`].
    pub premium_tenants: u32,
    /// The trailing `best_effort_tenants` tenant ids are
    /// [`QosClass::BestEffort`] (the middle band is Standard).
    pub best_effort_tenants: u32,
    /// Reservation tolerance as a fraction of the task's relative deadline
    /// (`max_delay = factor · D`). `None` disables reservations.
    pub max_delay_factor: Option<f64>,
}

impl TenantMix {
    /// A single-tenant mix with no reservations — the envelope every bare
    /// `submit(Task)` implies.
    pub fn single() -> Self {
        TenantMix {
            tenants: 1,
            premium_tenants: 0,
            best_effort_tenants: 0,
            max_delay_factor: None,
        }
    }

    /// An all-Standard mix over `tenants` tenants, no reservations.
    pub fn uniform(tenants: u32) -> Self {
        TenantMix {
            tenants: tenants.max(1),
            premium_tenants: 0,
            best_effort_tenants: 0,
            max_delay_factor: None,
        }
    }

    /// Enables reservations with tolerance `factor · rel_deadline`.
    pub fn with_max_delay_factor(mut self, factor: f64) -> Self {
        self.max_delay_factor = Some(factor);
        self
    }

    /// The tenant a task's submitter maps to.
    pub fn tenant_of(&self, task: &Task) -> TenantId {
        TenantId((task.id.0 % self.tenants.max(1) as u64) as u32)
    }

    /// The QoS class of a tenant: the leading ids are Premium, the
    /// trailing ids BestEffort, the middle band Standard.
    pub fn qos_of(&self, tenant: TenantId) -> QosClass {
        let n = self.tenants.max(1);
        let t = tenant.0 % n;
        if t < self.premium_tenants.min(n) {
            QosClass::Premium
        } else if t
            >= n.saturating_sub(
                self.best_effort_tenants
                    .min(n - self.premium_tenants.min(n)),
            )
        {
            QosClass::BestEffort
        } else {
            QosClass::Standard
        }
    }

    /// Wraps a bare task in its deterministic submission envelope.
    pub fn assign(&self, task: Task) -> SubmitRequest {
        let tenant = self.tenant_of(&task);
        SubmitRequest {
            task,
            tenant,
            qos: self.qos_of(tenant),
            max_delay: self.max_delay_factor.map(|f| f * task.rel_deadline),
            trace: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_envelope_is_anonymous_now_or_never() {
        let t = Task::new(7, 0.0, 100.0, 1000.0);
        let req = SubmitRequest::new(t);
        assert_eq!(req.tenant, TenantId(0));
        assert_eq!(req.qos, QosClass::Standard);
        assert_eq!(req.max_delay, None);
        assert_eq!(req.task, t);
    }

    #[test]
    fn builders_set_fields() {
        let t = Task::new(1, 0.0, 100.0, 1000.0);
        let req = SubmitRequest::new(t)
            .with_tenant(TenantId(3))
            .with_qos(QosClass::Premium)
            .with_max_delay(Some(250.0));
        assert_eq!(req.tenant, TenantId(3));
        assert_eq!(req.qos, QosClass::Premium);
        assert_eq!(req.max_delay, Some(250.0));
    }

    #[test]
    fn request_round_trips_through_serde() {
        let req = SubmitRequest::new(Task::new(9, 2.0, 50.0, 700.0))
            .with_tenant(TenantId(11))
            .with_qos(QosClass::BestEffort)
            .with_max_delay(Some(42.0));
        let json = serde_json::to_string(&req).unwrap();
        let back: SubmitRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
        // And the None tolerance too.
        let req = SubmitRequest::new(Task::new(1, 0.0, 10.0, 10.0));
        let json = serde_json::to_string(&req).unwrap();
        let back: SubmitRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn trace_id_is_version_compatible() {
        // Untraced requests encode without the field (byte-compatible with
        // pre-telemetry journals)...
        let untraced = SubmitRequest::new(Task::new(2, 0.0, 10.0, 10.0));
        let json = serde_json::to_string(&untraced).unwrap();
        assert!(!json.contains("trace"));
        // ...and pre-telemetry encodings (no `trace` key) parse to 0.
        let back: SubmitRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.trace, 0);
        // Traced requests round-trip the id.
        let traced = untraced.with_trace(99);
        let json = serde_json::to_string(&traced).unwrap();
        assert!(json.contains("trace"));
        let back: SubmitRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, traced);
    }

    #[test]
    fn mix_assignment_is_deterministic_and_banded() {
        let mix = TenantMix {
            tenants: 8,
            premium_tenants: 2,
            best_effort_tenants: 2,
            max_delay_factor: Some(0.5),
        };
        let t = Task::new(10, 0.0, 100.0, 2000.0);
        let a = mix.assign(t);
        let b = mix.assign(t);
        assert_eq!(a, b, "assignment is a pure function of the task");
        assert_eq!(a.tenant, TenantId(2));
        assert_eq!(a.qos, QosClass::Standard);
        assert_eq!(a.max_delay, Some(1000.0));
        // Band edges: ids 0-1 premium, 6-7 best-effort.
        assert_eq!(mix.qos_of(TenantId(0)), QosClass::Premium);
        assert_eq!(mix.qos_of(TenantId(1)), QosClass::Premium);
        assert_eq!(mix.qos_of(TenantId(5)), QosClass::Standard);
        assert_eq!(mix.qos_of(TenantId(6)), QosClass::BestEffort);
        assert_eq!(mix.qos_of(TenantId(7)), QosClass::BestEffort);
    }

    #[test]
    fn degenerate_mixes_stay_sane() {
        // Everything premium; zero-tenant input clamps to one tenant.
        let mix = TenantMix {
            tenants: 0,
            premium_tenants: 5,
            best_effort_tenants: 5,
            max_delay_factor: None,
        };
        let t = Task::new(3, 0.0, 10.0, 10.0);
        let req = mix.assign(t);
        assert_eq!(req.tenant, TenantId(0));
        assert_eq!(req.qos, QosClass::Premium);
        assert_eq!(req.max_delay, None);
        assert_eq!(TenantMix::single().assign(t).tenant, TenantId(0));
        assert_eq!(TenantMix::uniform(4).tenants, 4);
    }
}
