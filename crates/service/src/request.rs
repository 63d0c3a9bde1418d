//! The request/verdict protocol: [`Verdict`] and [`QuotaPolicy`].
//!
//! The gateway takes a full
//! [`SubmitRequest`](rtdls_core::request::SubmitRequest) envelope (task +
//! tenant + QoS class + reservation tolerance) and answers with a
//! [`Verdict`], which adds two outcomes the binary admission test cannot
//! express:
//!
//! * [`Verdict::Reserved`] — the task is not admissible *now*, but the
//!   gateway computed the earliest instant `start_at ≤ now + max_delay` at
//!   which it becomes admissible (the engine's
//!   `earliest_feasible_start`) and booked it: the reservation
//!   auto-activates when the clock reaches `start_at`.
//! * [`Verdict::Throttled`] — the tenant is over its [`QuotaPolicy`]
//!   limits; the task was never offered to the admission test.

use serde::{Deserialize, Serialize};

use rtdls_core::prelude::{AdmissionExplanation, Infeasible, QosClass, SimTime};
use rtdls_sim::serve::SubmitOutcome;

/// The gateway's admission verdict.
///
/// Unit variants render as strings, the data-bearing ones as single-key
/// objects — `"Accepted"`,
/// `{"Reserved":{"start_at":…, "ticket":…}}`, `{"Deferred":{"ticket":…}}`,
/// `{"Rejected":{"cause":…}}`, `"Throttled"` — which is the network edge's
/// wire representation, so the encoding is part of the protocol surface,
/// not an implementation detail.
///
/// `Deferred` and `Rejected` optionally carry an [`AdmissionExplanation`]
/// (the explain engine's structured account + honest counterfactuals) as
/// an **additive** wire field: the `explain` key is emitted only when
/// present, so verdicts without one encode byte-identically to the
/// pre-explain protocol, and decoders treat an absent key as `None`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// Admitted now; the deadline guarantee holds from this instant.
    Accepted,
    /// Not admissible now, but booked to be admitted at `start_at` — the
    /// earliest instant within the request's `max_delay` tolerance at
    /// which the schedulability test passes against the current book. The
    /// reservation auto-activates when the clock reaches `start_at`.
    Reserved {
        /// The promised admission instant (`now + δ`).
        start_at: SimTime,
        /// The reservation ticket id.
        ticket: u64,
    },
    /// Parked in the defer queue under the given ticket id (no promised
    /// start instant; re-tested opportunistically on every event).
    Deferred {
        /// The defer ticket id.
        ticket: u64,
        /// Why the admission test failed, when explanation is enabled.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        explain: Option<AdmissionExplanation>,
    },
    /// Rejected for good.
    Rejected {
        /// The binding infeasibility cause.
        cause: Infeasible,
        /// Why, in detail, when explanation is enabled.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        explain: Option<AdmissionExplanation>,
    },
    /// Refused before the admission test ran: the tenant is over quota.
    Throttled,
}

impl Verdict {
    /// An unexplained deferral (the common construction).
    pub fn deferred(ticket: u64) -> Self {
        Verdict::Deferred {
            ticket,
            explain: None,
        }
    }

    /// An unexplained rejection (the common construction).
    pub fn rejected(cause: Infeasible) -> Self {
        Verdict::Rejected {
            cause,
            explain: None,
        }
    }

    /// Attaches an explanation to a `Deferred`/`Rejected` verdict; other
    /// verdicts pass through unchanged.
    pub fn with_explanation(self, explain: Option<AdmissionExplanation>) -> Self {
        match self {
            Verdict::Deferred { ticket, .. } => Verdict::Deferred { ticket, explain },
            Verdict::Rejected { cause, .. } => Verdict::Rejected { cause, explain },
            other => other,
        }
    }

    /// The attached explanation, if any.
    pub fn explanation(&self) -> Option<AdmissionExplanation> {
        match self {
            Verdict::Deferred { explain, .. } | Verdict::Rejected { explain, .. } => *explain,
            _ => None,
        }
    }

    /// `true` for [`Verdict::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, Verdict::Accepted)
    }

    /// `true` for [`Verdict::Reserved`].
    pub fn is_reserved(&self) -> bool {
        matches!(self, Verdict::Reserved { .. })
    }

    /// `true` for [`Verdict::Deferred`].
    pub fn is_deferred(&self) -> bool {
        matches!(self, Verdict::Deferred { .. })
    }

    /// `true` for [`Verdict::Throttled`].
    pub fn is_throttled(&self) -> bool {
        matches!(self, Verdict::Throttled)
    }
}

impl From<Verdict> for SubmitOutcome {
    /// What the simulation engine sees of a verdict: both parked outcomes
    /// are `Pending` (they resolve later through the frontend's resolution
    /// drain), and a quota refusal surfaces as
    /// [`Infeasible::NotEnoughNodes`] — the closest planning-level cause:
    /// the cluster will not allocate nodes to this tenant right now.
    fn from(v: Verdict) -> SubmitOutcome {
        match v {
            Verdict::Accepted => SubmitOutcome::Accepted,
            Verdict::Reserved { .. } | Verdict::Deferred { .. } => SubmitOutcome::Pending,
            Verdict::Rejected { cause, .. } => SubmitOutcome::Rejected(cause),
            Verdict::Throttled => SubmitOutcome::Rejected(Infeasible::NotEnoughNodes),
        }
    }
}

/// Per-tenant admission quotas, enforced before the schedulability test.
///
/// Like [`DeferPolicy`](crate::defer::DeferPolicy), the quota policy is
/// part of the gateway's durable state: journals persist it so a recovered
/// gateway throttles exactly as the live one did.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuotaPolicy {
    /// Maximum undispatched liabilities (waiting + deferred + reserved
    /// tasks) per tenant; `None` = unlimited.
    pub max_inflight: Option<u32>,
    /// Maximum live reservations per tenant; `None` = unlimited. A request
    /// over this limit is not throttled — it just falls back to the
    /// defer-or-reject protocol instead of booking a reservation.
    pub max_reservations: Option<u32>,
    /// Maximum *waiting* tasks one tenant may hold on a single shard;
    /// `None` = unlimited. The sharded gateway's routing skips shards
    /// where the tenant is at this cap (anti-concentration: a tenant's
    /// admitted-but-undispatched work spreads across shards, so no shard
    /// failure or backlog spike lands on one tenant disproportionately).
    /// When *every* shard is at the cap the request is throttled before
    /// the admission test, like the other limits. On a one-shard gateway
    /// there is nowhere to spread to, so it simply caps the tenant's
    /// waiting tasks (still throttling before the admission test).
    /// Arrived with quota-aware routing: absent in earlier snapshots,
    /// where unlimited is what the gateway did.
    #[serde(default)]
    pub max_shard_inflight: Option<u32>,
    /// Whether [`QosClass::Premium`] submissions bypass both limits.
    pub exempt_premium: bool,
}

impl Default for QuotaPolicy {
    fn default() -> Self {
        QuotaPolicy {
            max_inflight: None,
            max_reservations: None,
            max_shard_inflight: None,
            exempt_premium: true,
        }
    }
}

impl QuotaPolicy {
    /// Whether a request at this tier is subject to the limits at all.
    pub fn applies_to(&self, qos: QosClass) -> bool {
        !(self.exempt_premium && qos == QosClass::Premium)
    }

    /// Whether a tenant with `inflight` current liabilities may submit.
    pub fn admits_inflight(&self, qos: QosClass, inflight: u32) -> bool {
        !self.applies_to(qos) || self.max_inflight.is_none_or(|cap| inflight < cap)
    }

    /// Whether a tenant with `live` current reservations may book another.
    pub fn admits_reservation(&self, qos: QosClass, live: u32) -> bool {
        !self.applies_to(qos) || self.max_reservations.is_none_or(|cap| live < cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_quota_is_unlimited() {
        let q = QuotaPolicy::default();
        assert!(q.admits_inflight(QosClass::BestEffort, u32::MAX - 1));
        assert!(q.admits_reservation(QosClass::Standard, u32::MAX - 1));
    }

    #[test]
    fn limits_bind_and_premium_is_exempt() {
        let q = QuotaPolicy {
            max_inflight: Some(2),
            max_reservations: Some(1),
            ..Default::default()
        };
        assert!(q.admits_inflight(QosClass::Standard, 1));
        assert!(!q.admits_inflight(QosClass::Standard, 2));
        assert!(!q.admits_reservation(QosClass::BestEffort, 1));
        assert!(q.admits_inflight(QosClass::Premium, 100));
        assert!(q.admits_reservation(QosClass::Premium, 100));
        let strict = QuotaPolicy {
            exempt_premium: false,
            ..q
        };
        assert!(!strict.admits_inflight(QosClass::Premium, 2));
    }
}
