//! # rtdls-service
//!
//! The online serving subsystem: an admission **gateway** that turns the
//! paper's per-cluster scheduler (`rtdls-core`) into a high-throughput
//! streaming service.
//!
//! The paper evaluates its Fig. 2 schedulability test offline — a pre-built
//! task list fed to one [`AdmissionController`]. A production front door
//! needs more:
//!
//! * **Request/verdict protocol** ([`ShardedGateway::submit_request`]): a
//!   [`SubmitRequest`] envelope (task + tenant + QoS class + reservation
//!   tolerance) is answered with a five-way [`Verdict`]:
//!   `Accepted / Reserved{start_at, ticket} / Deferred(ticket) /
//!   Rejected(cause) / Throttled`. A *reservation* books the earliest
//!   instant within the tolerance at which the schedulability test passes
//!   (the engine's `earliest_feasible_start`) and auto-activates when the
//!   clock reaches it; near-miss tasks without a usable tolerance park in
//!   an age-aware, retry-bounded [`DeferredQueue`] and are re-tested on
//!   every task completion/admission event. Rescued and activated tasks
//!   carry the same hard deadline guarantee as directly admitted ones
//!   (both re-run the Fig. 2 test at admission).
//! * **Tenant awareness**: per-tenant quotas
//!   ([`QuotaPolicy`](request::QuotaPolicy)) enforced before the test,
//!   and tenant-keyed counters/latency histograms in [`ServiceMetrics`].
//! * **Sharded dispatch**: [`ShardedGateway`] is the one gateway. A large
//!   cluster is partitioned into `K` independent shards, each with its own
//!   admission controller, behind pluggable [`Routing`] (round-robin,
//!   least-loaded, best-fit by earliest estimated completion) — admission
//!   cost stays sub-linear in cluster size. A single cluster is
//!   `num_shards = 1`.
//! * **Observability** ([`ServiceMetrics`]): throughput, defer-rescue
//!   rate, and per-decision latency histograms.
//! * **One serving trait** ([`Serve`], defined by the simulator, and
//!   [`EdgeGateway`], its ops extension): what the network edge, the
//!   simulator, the journal and the replication layer drive a gateway
//!   stack through, in turns — `decide` × k, then `drive`. Each layer
//!   writes its turn once.
//!
//! Because the simulator drives the same turns the edge drives, a
//! discrete-event run routes every arrival through the service layer and
//! verifies, at run time, that every admitted task (including rescued
//! ones) meets its deadline:
//!
//! ```
//! use rtdls_core::prelude::*;
//! use rtdls_sim::prelude::*;
//! use rtdls_service::prelude::*;
//!
//! let params = ClusterParams::paper_baseline();
//! let gateway = ShardedGateway::new(
//!     params,
//!     4,
//!     AlgorithmKind::EDF_DLT,
//!     PlanConfig::default(),
//!     Routing::LeastLoaded,
//!     DeferPolicy::default(),
//! )
//! .unwrap();
//! let cfg = SimConfig::new(params, AlgorithmKind::EDF_DLT).strict();
//! let tasks = vec![
//!     Task::new(1, 0.0, 200.0, 60_000.0),
//!     Task::new(2, 10.0, 400.0, 90_000.0),
//! ];
//! let (report, gateway) = Simulation::with_frontend(cfg, gateway)
//!     .run_returning_frontend(tasks);
//! assert_eq!(report.metrics.accepted, 2);
//! assert_eq!(report.metrics.deadline_misses, 0);
//! assert_eq!(gateway.metrics().accepted_total(), 2);
//! ```
//!
//! [`AdmissionController`]: rtdls_core::admission::AdmissionController
//! [`ShardedGateway::submit_request`]: shard::ShardedGateway::submit_request
//! [`EdgeGateway`]: serve::EdgeGateway
//! [`Serve`]: rtdls_sim::serve::Serve
//! [`SubmitRequest`]: rtdls_core::request::SubmitRequest
//! [`Verdict`]: request::Verdict
//! [`ShardedGateway`]: shard::ShardedGateway
//! [`DeferredQueue`]: defer::DeferredQueue
//! [`Routing`]: shard::Routing
//! [`ServiceMetrics`]: metrics::ServiceMetrics

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod book;
pub mod defer;
pub mod metrics;
pub mod observe;
pub mod request;
pub mod reserve;
pub mod serve;
pub mod shard;
pub mod slo;
pub mod telemetry;
pub mod tenant;

/// One-stop imports for serving-layer users.
pub mod prelude {
    pub use crate::book::ServiceBook;
    pub use crate::defer::{
        latest_feasible_start, DeferOutcome, DeferPolicy, DeferState, DeferTicket, DeferredQueue,
    };
    pub use crate::metrics::{
        LatencyHistogram, MetricsSnapshot, ServiceMetrics, TenantCounters, TenantMetrics,
    };
    pub use crate::observe::DecisionUpdate;
    pub use crate::request::{QuotaPolicy, Verdict};
    pub use crate::reserve::{ActivationRecord, Reservation, ReservationBook, ReservationState};
    pub use crate::serve::EdgeGateway;
    pub use crate::shard::{Routing, ShardedGateway};
    pub use crate::slo::{
        SloBreach, SloHealth, SloObjective, SloPolicy, SloStatusRow, SloTracker, SloTransition,
        SLO_BREACH_VERSION,
    };
    pub use crate::telemetry::{fold_engine_profile, fold_service_metrics};
    pub use crate::tenant::{TenantLedger, TenantLedgerState};
    /// The turn trait every [`EdgeGateway`] extends.
    pub use rtdls_sim::serve::{Serve, Turn};
}
