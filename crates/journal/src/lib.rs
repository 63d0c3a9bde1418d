//! # rtdls-journal
//!
//! Write-ahead journaling, compacting snapshots, and crash recovery for the
//! `rtdls-service` admission gateway.
//!
//! The gateway promises hard real-time guarantees — "this task *will* meet
//! its deadline" — but (before this crate) held every promise in memory: a
//! restart silently dropped the whole book. This crate makes the promises
//! durable:
//!
//! * **[`JournaledGateway`]** wraps a [`ShardedGateway`] and
//!   write-ahead-logs every decision-relevant input (submissions, node
//!   completions, dispatch/replan/re-test instants) into an append-only,
//!   checksummed, length-prefixed [`Journal`] — plus audit records of each
//!   decision (accepted plans with their per-node chunk maps, defer
//!   tickets, rejection causes). It serves the same turns as the gateway
//!   it wraps ([`Serve`](rtdls_sim::serve::Serve)), so it drops into any
//!   driver — the edge, the simulator — unchanged, and a turn's records
//!   reach the durable sink as one write, synced before the turn's
//!   verdicts may leave the process.
//! * **Snapshots** of the full gateway state (per-shard books, defer queue
//!   with its policy, cumulative metrics), taken by
//!   [`GatewaySnapshot::capture`] and rebuilt by
//!   [`GatewaySnapshot::restore`], are appended periodically and compact
//!   the log, bounding recovery replay time.
//! * **[`recover()`]** rebuilds a gateway from nothing but journal bytes:
//!   restore the last intact snapshot, replay the input tail (the gateway
//!   is a deterministic state machine, so the replayed state equals the
//!   pre-crash state exactly), then **re-verify** every recovered plan
//!   against the strict Fig. 2 admission test at the recovery instant —
//!   demoting any now-infeasible task to the defer queue (journaled as
//!   `Demoted`) instead of carrying a guarantee the cluster can no longer
//!   honor. Torn or corrupt tail records are detected by checksum and
//!   skipped without losing earlier records.
//!
//! ```
//! use rtdls_core::prelude::*;
//! use rtdls_service::prelude::*;
//! use rtdls_journal::prelude::*;
//!
//! let gateway = ShardedGateway::new(
//!     ClusterParams::paper_baseline(),
//!     4,
//!     AlgorithmKind::EDF_DLT,
//!     PlanConfig::default(),
//!     Routing::LeastLoaded,
//!     DeferPolicy::default(),
//! )
//! .unwrap();
//! let mut journaled = JournaledGateway::new(gateway, JournalConfig::default());
//! let request = SubmitRequest::new(Task::new(1, 0.0, 200.0, 30_000.0));
//! journaled.submit_request(&request, SimTime::ZERO);
//!
//! // The process dies; only the journal bytes survive.
//! let wal = journaled.journal().bytes().to_vec();
//! drop(journaled);
//!
//! let (recovered, report) = rtdls_journal::recover(
//!     &wal,
//!     SimTime::ZERO,
//!     JournalConfig::default(),
//!     None,
//! )
//! .unwrap();
//! assert!(report.tail.is_clean());
//! assert_eq!(recovered.inner().metrics().accepted_total(), 1);
//! assert!(report.demoted.is_empty(), "nothing became infeasible");
//! ```
//!
//! [`ShardedGateway`]: rtdls_service::shard::ShardedGateway

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod disk;
pub mod event;
pub mod gateway;
pub mod journal;
pub mod recover;
pub mod snapshot;
pub mod telemetry;
pub mod wire;

pub use event::JournalEvent;
pub use gateway::JournaledGateway;
pub use journal::{FileSink, FsyncPolicy, Journal, JournalConfig, JournalSink, SinkStats};
pub use recover::{
    apply_event, recover, recover_file_on, recover_file_with_policy, replay, requalify,
    RecoveryReport,
};
pub use snapshot::{GatewaySnapshot, JournalError};
pub use telemetry::fold_journal_metrics;
pub use wire::TailStatus;

/// One-stop imports for journaling users.
pub mod prelude {
    pub use crate::event::JournalEvent;
    pub use crate::gateway::JournaledGateway;
    pub use crate::journal::{
        FileSink, FsyncPolicy, Journal, JournalConfig, JournalSink, SinkStats,
    };
    pub use crate::recover::{
        recover, recover_file_with_policy, replay, requalify, RecoveryReport,
    };
    pub use crate::snapshot::{GatewaySnapshot, JournalError};
    pub use crate::telemetry::fold_journal_metrics;
    pub use crate::wire::TailStatus;
    /// The serving traits a [`JournaledGateway`] is driven through.
    pub use rtdls_service::serve::EdgeGateway;
    pub use rtdls_sim::serve::{Serve, Turn};
}
