//! # rtdls-replica
//!
//! Shard replication and failover for the journaled admission gateway:
//! journal **shipping**, warm-standby **followers**,
//! epoch-fenced **promotion**, and a deterministic whole-system
//! **fault harness**.
//!
//! `rtdls-journal` made the gateway's promises durable across a *restart*:
//! the journal survives, the process recovers from it. This crate makes
//! them survive losing the *machine*. A [`Shipper`] streams every journal
//! frame of a shard primary to a [`Follower`] on another box, which replays
//! the frames into a warm standby gateway — the same deterministic
//! state-machine replay as crash recovery, applied incrementally as frames
//! arrive instead of all at once after the disaster. Acked ship offsets
//! tell the primary how far the standby's knowledge reaches; heartbeats
//! tell the follower the primary is alive; and monotonically increasing
//! **epochs** fence the past: when the follower stops hearing heartbeats it
//! promotes itself under `epoch + 1`, re-runs the strict re-admission pass
//! (journaling demotions under the new epoch, exactly like crash recovery),
//! and from then on discards any late frame still carrying the dead
//! primary's epoch — the classic zombie-primary split-brain hazard, closed
//! by a single integer comparison.
//!
//! The replication channel itself is modeled honestly: the
//! [`harness`] drives a primary + follower pair *inside* the discrete-event
//! simulator over `rtdls-sim`'s [`FaultyLink`] — seeded message loss,
//! reordering, duplication, delay, and netsplit windows — so an entire
//! failover (kill the primary mid-netsplit, promote the follower, fence the
//! zombie) replays bit-identically from its seed. [`net`] gives the same
//! [`ShipMsg`] protocol its byte form: the edge reactor carries a
//! [`ShippingGateway`]'s frames to a follower over its one event loop, and
//! [`FollowerServer`](net::FollowerServer) replays them on the standby.
//!
//! [`FaultyLink`]: rtdls_sim::net::FaultyLink

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod follower;
pub mod gateway;
pub mod harness;
pub mod net;
pub mod ship;
pub mod telemetry;

pub use follower::{Follower, FollowerConfig, FollowerStats, Promotion};
pub use gateway::ShippingGateway;
pub use harness::{run_failover, FailoverOutcome, FailoverPlan, ReplicaFrontend};
pub use ship::{ShipConfig, ShipMsg, Shipper};
pub use telemetry::{fold_follower_metrics, fold_replication_metrics};

/// One-stop imports for replication users.
pub mod prelude {
    pub use crate::follower::{Follower, FollowerConfig, FollowerStats, Promotion};
    pub use crate::gateway::ShippingGateway;
    pub use crate::harness::{run_failover, FailoverOutcome, FailoverPlan, ReplicaFrontend};
    pub use crate::net::FollowerServer;
    pub use crate::ship::{ShipConfig, ShipMsg, Shipper};
    pub use crate::telemetry::{fold_follower_metrics, fold_replication_metrics};
}
