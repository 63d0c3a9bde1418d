//! # rtdls-replica
//!
//! Shard replication and failover for the journaled admission gateway:
//! journal **shipping**, warm-standby **followers**,
//! and epoch-fenced **promotion**.
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
//! [`Shipper`]: rtdls_journal::Shipper
//! [`ShipMsg`]: rtdls_journal::ShipMsg
//!
//! The primary's side — the [`Shipper`], the [`ShipMsg`] protocol and its
//! `RS` byte framing — lives in `rtdls-journal`: a journaled gateway with
//! shipping on hands each committed turn's frames to its owner, and the
//! edge reactor carries them to a follower over its one event loop. This
//! crate is the other end: the [`Follower`], and
//! [`FollowerServer`](net::FollowerServer), which reads the framing off a
//! socket and replays it on the standby. The dev-only `rtdls-world` crate runs the same pair
//! over seeded lossy in-memory links, so a whole failover (kill the
//! primary mid-netsplit, promote the follower, fence the zombie) replays
//! bit-identically from its seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod follower;
pub mod net;
pub mod telemetry;

pub use follower::{Follower, FollowerConfig, FollowerStats, Promotion};
pub use telemetry::fold_follower_metrics;

/// One-stop imports for replication users.
pub mod prelude {
    pub use crate::follower::{Follower, FollowerConfig, FollowerStats, Promotion};
    pub use crate::net::FollowerServer;
    pub use crate::telemetry::fold_follower_metrics;
}
