//! Full-state gateway snapshots and the [`Recoverable`] trait.
//!
//! A [`GatewaySnapshot`] is the complete durable image of a gateway at one
//! instant: per-shard controller books (waiting queues with plans, committed
//! node releases), the defer queue with its policy and ticket ids, the
//! routing cursor, cumulative service counters, and any undrained defer
//! resolutions. It holds only what replay reproduces — every field is a
//! function of the journaled inputs, and wall-clock measurements (the
//! decision latency histograms, the decision window) stay process-local —
//! so restoring a snapshot and replaying the journal events appended after
//! it reproduces the pre-crash gateway's capture exactly, byte for byte.
//! [`ShardedGateway`] is the one [`Recoverable`]; a single cluster is its
//! one-shard case.

use serde::{Deserialize, Serialize};

use rtdls_core::prelude::{AlgorithmKind, ClusterParams, ControllerState, Infeasible, Task};
use rtdls_service::prelude::{
    DeferState, DeferredQueue, EdgeGateway, MetricsSnapshot, QuotaPolicy, ReservationBook,
    ReservationState, Routing, ServiceBook, ServiceMetrics, ShardedGateway, SloTracker,
    TenantLedger, TenantLedgerState,
};

/// Errors surfaced by snapshot restore and journal recovery.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalError {
    /// The log holds no intact snapshot to restore from (even the genesis
    /// snapshot was lost to tail damage).
    NoSnapshot,
    /// A checksum-valid record failed to parse or restore — a format/version
    /// bug rather than torn-write damage.
    Corrupt(String),
    /// The snapshot cannot describe a gateway (e.g. several shards but no
    /// routing policy to deal submissions between them).
    Incompatible(&'static str),
    /// An I/O error from a journal file.
    Io(String),
}

impl core::fmt::Display for JournalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            JournalError::NoSnapshot => f.write_str("journal holds no intact snapshot"),
            JournalError::Corrupt(m) => write!(f, "corrupt journal record: {m}"),
            JournalError::Incompatible(m) => write!(f, "incompatible snapshot: {m}"),
            JournalError::Io(m) => write!(f, "journal I/O error: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<serde::Error> for JournalError {
    fn from(e: serde::Error) -> Self {
        JournalError::Corrupt(e.to_string())
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e.to_string())
    }
}

impl From<rtdls_core::error::ModelError> for JournalError {
    fn from(e: rtdls_core::error::ModelError) -> Self {
        JournalError::Corrupt(e.to_string())
    }
}

/// The complete durable image of a gateway (see the module docs).
///
/// The `#[serde(default)]` fields arrived after WALs were already on
/// disk — `reservations`, `ledger` and `quota` with the v2 request/verdict
/// redesign, `slo` with the SLO engine, `epoch` with replication — and an
/// image without them restores as what the gateway did before each: an
/// empty reservation book, an empty ledger, unlimited quotas, a fresh
/// default-policy tracker, epoch 0.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GatewaySnapshot {
    /// Global cluster parameters the gateway fronts.
    pub params: ClusterParams,
    /// Scheduling policy × partitioning strategy.
    pub algorithm: AlgorithmKind,
    /// Routing policy. Always written (so a missing key is damage); `None`
    /// only in images of the retired single-cluster gateway type, which
    /// restore as one shard (where every policy routes alike).
    pub routing: Option<Routing>,
    /// Round-robin routing cursor.
    pub cursor: usize,
    /// Per-shard controller books, in shard order.
    pub shards: Vec<ControllerState>,
    /// The defer queue: policy, ticket-id counter, parked tickets.
    pub defer: DeferState,
    /// The reservation book: ticket counter plus live reservations.
    #[serde(default)]
    pub reservations: ReservationState,
    /// Waiting-task → tenant ownership pairs.
    #[serde(default)]
    pub ledger: TenantLedgerState,
    /// The per-tenant quota policy in force.
    #[serde(default)]
    pub quota: QuotaPolicy,
    /// Cumulative service counters.
    pub metrics: MetricsSnapshot,
    /// Defer/reservation verdicts reached but not yet drained by the
    /// engine.
    pub resolutions: Vec<(Task, Option<Infeasible>)>,
    /// The deadline-SLO tracker: policy, rolling windows, alarm states,
    /// and latched breach counts. Sim-time driven and deterministic, so it
    /// snapshots like any other gateway book; a recovered gateway resumes
    /// alarming exactly where the crashed one stopped.
    #[serde(default)]
    pub slo: SloTracker,
    /// Promotion epoch the snapshot was journaled under. [`capture`]
    /// (which is epoch-unaware) leaves it 0; the journaling wrapper stamps
    /// its journal's epoch before appending, and recovery carries the
    /// restored snapshot's epoch into the new journal. A follower
    /// promotion bumps it, fencing the previous primary's late appends.
    ///
    /// [`capture`]: Recoverable::capture
    #[serde(default)]
    pub epoch: u64,
}

/// A gateway the journal subsystem can persist and rebuild: the serving
/// trait plus capture and restore, and mutable access to the bare
/// [`ShardedGateway`] whose own methods are the per-event steps a turn is
/// made of — the journaling wrapper applies them one by one (each after its
/// write-ahead record) and [`apply_event`](crate::recover::apply_event)
/// replays them. Submissions, node releases and replans replay through the
/// serving trait itself.
///
/// Implementors must be *deterministic state machines* over the journal's
/// input events: same state + same inputs ⇒ same capture. The gateway
/// satisfies this (its only nondeterminism, the wall-clock half of its
/// metrics, lives outside the captured state).
pub trait Recoverable: EdgeGateway + Sized {
    /// Captures the complete durable state.
    fn capture(&self) -> GatewaySnapshot;

    /// Rebuilds a gateway from a captured state. Inverse of
    /// [`capture`](Recoverable::capture): `restore(&g.capture())` is
    /// indistinguishable from `g`.
    fn restore(snap: &GatewaySnapshot) -> Result<Self, JournalError>;

    /// The bare gateway, mutably (the mutable twin of
    /// [`EdgeGateway::bare`]).
    fn bare_mut(&mut self) -> &mut ShardedGateway;
}

impl Recoverable for ShardedGateway {
    fn capture(&self) -> GatewaySnapshot {
        GatewaySnapshot {
            params: *self.params(),
            algorithm: self.algorithm(),
            routing: Some(self.routing()),
            cursor: self.cursor(),
            shards: self.shard_states(),
            defer: self.deferred().state(),
            reservations: self.reservations().state(),
            ledger: self.ledger().state(),
            quota: *self.quota(),
            metrics: self.metrics().snapshot(),
            resolutions: self.pending_resolutions().to_vec(),
            slo: self.slo().clone(),
            epoch: 0,
        }
    }

    fn restore(snap: &GatewaySnapshot) -> Result<Self, JournalError> {
        let routing = match snap.routing {
            Some(routing) => routing,
            // A legacy single-cluster image: any policy is equivalent over
            // one shard.
            None if snap.shards.len() == 1 => Routing::LeastLoaded,
            None => {
                return Err(JournalError::Incompatible(
                    "multi-shard snapshot lacks routing",
                ))
            }
        };
        let book = ServiceBook::from_parts(
            DeferredQueue::from_state(snap.defer.clone()),
            ReservationBook::from_state(snap.reservations.clone()),
            TenantLedger::from_state(snap.ledger.clone()),
            snap.quota,
            ServiceMetrics::restore(&snap.metrics),
            snap.resolutions.clone(),
            snap.slo.clone(),
        );
        ShardedGateway::from_parts(
            snap.params,
            snap.algorithm,
            routing,
            snap.cursor,
            snap.shards.clone(),
            book,
        )
        .map_err(JournalError::from)
    }

    fn bare_mut(&mut self) -> &mut ShardedGateway {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdls_core::prelude::*;
    use rtdls_service::prelude::DeferPolicy;
    use rtdls_sim::serve::Serve;

    fn busy_sharded() -> ShardedGateway {
        let params = ClusterParams::paper_baseline();
        let mut g = ShardedGateway::new(
            params,
            4,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::LeastLoaded,
            DeferPolicy {
                max_retries: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let e4 = rtdls_core::dlt::homogeneous::exec_time(&params, 400.0, 4);
        for i in 0..6 {
            let t = Task::new(i, 0.0, 400.0, e4 * (1.05 + i as f64));
            g.submit_request(&SubmitRequest::new(t), SimTime::ZERO);
        }
        // Force at least one deferral.
        let t = Task::new(90, 0.0, 790.0, e4 * 2.0);
        g.submit_request(&SubmitRequest::new(t), SimTime::ZERO);
        g.refill_due(SimTime::ZERO, &mut Vec::new());
        g
    }

    #[test]
    fn sharded_capture_restore_round_trips_exactly() {
        let g = busy_sharded();
        let snap = g.capture();
        assert_eq!(snap.shards.len(), 4);
        let json = serde_json::to_string(&snap).unwrap();
        let back: GatewaySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let restored: ShardedGateway = ShardedGateway::restore(&back).unwrap();
        assert_eq!(restored.capture(), snap);
        assert_eq!(restored.shard_queue_lens(), g.shard_queue_lens());
        assert_eq!(restored.deferred().len(), g.deferred().len());
        assert_eq!(
            restored.metrics().accepted_total(),
            g.metrics().accepted_total()
        );
    }

    #[test]
    fn single_capture_restore_round_trips_exactly() {
        let params = ClusterParams::paper_baseline();
        let mut g = ShardedGateway::new(
            params,
            1,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::RoundRobin,
            DeferPolicy::default(),
        )
        .unwrap();
        let t = Task::new(1, 0.0, 200.0, 30_000.0);
        g.submit_request(&SubmitRequest::new(t), SimTime::ZERO);
        let snap = g.capture();
        assert_eq!(snap.routing, Some(Routing::RoundRobin));
        let restored: ShardedGateway = ShardedGateway::restore(&snap).unwrap();
        assert_eq!(restored.capture(), snap);
        // An image of the retired single-cluster type (no routing) restores
        // as one shard with the same books…
        let legacy = GatewaySnapshot {
            routing: None,
            ..snap.clone()
        };
        let restored: ShardedGateway = ShardedGateway::restore(&legacy).unwrap();
        assert_eq!(restored.capture().shards, snap.shards);
        assert_eq!(restored.capture().metrics, snap.metrics);
        // …but several shards cannot be dealt to without a policy.
        let headless = GatewaySnapshot {
            routing: None,
            ..busy_sharded().capture()
        };
        assert!(matches!(
            ShardedGateway::restore(&headless),
            Err(JournalError::Incompatible(_))
        ));
    }

    #[test]
    fn restored_gateway_keeps_deciding_identically() {
        let mut live = busy_sharded();
        let mut restored: ShardedGateway = ShardedGateway::restore(&live.capture()).unwrap();
        let probe = SubmitRequest::new(Task::new(200, 10.0, 150.0, 80_000.0));
        assert_eq!(
            live.decide(&probe, SimTime::new(10.0)),
            restored.decide(&probe, SimTime::new(10.0))
        );
        assert_eq!(live.capture(), restored.capture());
    }
}
