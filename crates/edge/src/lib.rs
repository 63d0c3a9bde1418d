//! # rtdls-edge
//!
//! The network front-end for the rtdls admission gateways: epoll-driven
//! reactors over non-blocking `std::net` sockets (the offline build has
//! no tokio — the selector is raw syscalls), a length-prefixed
//! checksummed JSON wire protocol reusing the journal's framing
//! discipline, and the request/verdict serving protocol end-to-end —
//! including **streamed reservation updates**: when a
//! `Reserved{start_at, ticket}` promise later activates (or falls back to
//! defer/reject), the edge pushes the resolution to the still-connected
//! client instead of making it poll.
//!
//! The layers:
//!
//! * [`codec`] — stream framing: magic/version/direction header, u32
//!   length prefix, XXH64 checksum (FNV-1a 64 on a version-1 frame), and
//!   an incremental [`FrameDecoder`] with an oversize cap (a protocol
//!   violation closes the connection) that lends each payload out of its
//!   stream buffer (`next_frame_ref`);
//! * [`proto`] — the message vocabulary: [`ClientMsg::Submit`] →
//!   [`ServerMsg::Verdict`], plus pushed [`ServerMsg::Update`]s for parked
//!   tasks and a `Hello`/`Error`/`Bye` lifecycle;
//! * [`poll`] — the OS selector: epoll via raw `extern "C"` syscalls
//!   (Linux is the only target), with a cross-thread [`Waker`];
//! * [`server`] — the reactor ([`EdgeServer`]): accept → read → serve →
//!   drive the gateway clock → push updates → flush, with bounded
//!   per-connection write queues (overload answers `Throttled` at the
//!   edge) over the [`EdgeGateway`] bound — a `ShardedGateway`,
//!   or — for a durable edge — a `JournaledGateway` over one, whose
//!   journal gets each turn as one write and one sync at the turn's
//!   commit, before any of the turn's verdicts is flushed; plus the
//!   sharded [`EdgeCluster`] — N `EdgeServer`s behind one acceptor, each
//!   deciding only its own tenants' submits, connections bound by
//!   `Hello { tenant }` and handed to the home reactor through its mailbox.
//!
//! [`client`] provides the matching [`ReplayClient`] that plays a
//! workload-generated request stream against a live edge and reconciles
//! the verdict counts, plus the [`OpsClient`] behind `rtdls-top`.
//!
//! **Observability.** The edge is the tracing ingress: with a telemetry
//! handle attached ([`EdgeServer::set_telemetry`]) every framed submission
//! gets a trace id minted at receive, `EdgeReceive`/`PushUpdate` spans
//! bracket the gateway's own stages in one shared flight recorder, every
//! layer's hot-path phases accumulate in the same handle, and the
//! live-ops wire frames ([`ClientMsg::Ops`] → [`ServerMsg::OpsReport`])
//! answer metrics snapshots, per-trace timelines, and recent-trace listings
//! from a running server without stopping it.
//!
//! ```no_run
//! use rtdls_core::prelude::*;
//! use rtdls_service::prelude::*;
//! use rtdls_edge::prelude::*;
//! use std::sync::atomic::AtomicBool;
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
//! let server = EdgeServer::bind("127.0.0.1:0", gateway, EdgeConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let stop = AtomicBool::new(false);
//! // server.run(EdgeClock::real_time(), &stop) serves until `stop` is set;
//! // ReplayClient::connect(addr) drives it from another thread.
//! # let _ = (addr, stop);
//! ```
//!
//! [`FrameDecoder`]: codec::FrameDecoder
//! [`ClientMsg::Submit`]: proto::ClientMsg::Submit
//! [`ServerMsg::Verdict`]: proto::ServerMsg::Verdict
//! [`ServerMsg::Update`]: proto::ServerMsg::Update
//! [`EdgeServer`]: server::EdgeServer
//! [`EdgeCluster`]: server::EdgeCluster
//! [`Waker`]: poll::Waker
//! [`EdgeServer::set_telemetry`]: server::EdgeServer::set_telemetry
//! [`EdgeGateway`]: server::EdgeGateway
//! [`ReplayClient`]: client::ReplayClient
//! [`OpsClient`]: client::OpsClient
//! [`ClientMsg::Ops`]: proto::ClientMsg::Ops
//! [`ServerMsg::OpsReport`]: proto::ServerMsg::OpsReport

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod codec;
pub mod poll;
pub mod proto;
pub mod server;

pub use client::{OpsClient, ReplayClient, ReplayReport};
pub use codec::{FrameDecoder, WireError};
pub use proto::{ClientMsg, OpsQuery, OpsReport, ServerMsg, PROTOCOL_VERSION};
pub use server::{
    fold_edge_stats, reactor_for_tenant, EdgeClock, EdgeCluster, EdgeConfig, EdgeGateway,
    EdgeServer, EdgeStats,
};

/// One-stop imports for edge users.
pub mod prelude {
    pub use crate::client::{OpsClient, ReplayClient, ReplayReport};
    pub use crate::codec::{Direction, FrameDecoder, WireError};
    pub use crate::proto::{ClientMsg, OpsQuery, OpsReport, ServerMsg, PROTOCOL_VERSION};
    pub use crate::server::{
        fold_edge_stats, reactor_for_tenant, EdgeClock, EdgeCluster, EdgeConfig, EdgeGateway,
        EdgeServer, EdgeStats,
    };
}
