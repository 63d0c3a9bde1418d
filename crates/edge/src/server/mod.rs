//! The edge serving layer: epoll-driven reactors over non-blocking
//! `std::net` sockets.
//!
//! The offline build has no tokio, so the reactor is hand-rolled. Every
//! socket (listener included) is non-blocking; one reactor turn sweeps
//! accept → read → decode/serve → drive the gateway's timers → push
//! updates → flush writes, never blocking on any of them. Between turns
//! the driver blocks in an OS selector ([`crate::poll::Selector`] — epoll
//! via raw syscalls) with a timeout derived from the gateway's next due
//! instant and the earliest drain deadline, so an unloaded edge parks in
//! the kernel instead of spinning.
//!
//! The module splits along the reactor's seams:
//!
//! * [`reactor`] — the turn loop itself ([`EdgeServer`]): accept, read,
//!   serve, drive, push, flush, reap;
//! * [`conn`] — per-connection state: decoder, bounded write queue with
//!   vectored flush, recycled frame buffers, the drain lifecycle;
//! * [`registry`] — the pending-pushback map, keyed by **server-minted**
//!   task ids (`conn_id` in the high 32 bits, the client's task id in the
//!   low 32) so identical client ids on different connections never alias;
//! * [`multi`] — the sharded edge ([`EdgeCluster`]): N reactor threads,
//!   each owning its own gateway, with connections pinned by tenant hash.
//!
//! **Sharded serving.** In a cluster, a connection is accepted by reactor
//! 0 and *adopted* by its home reactor — chosen by hashing the tenant of
//! its first submission ([`reactor_for_tenant`]) — through a mutexed
//! mailbox drained once per turn, the cluster's only inter-reactor seam.
//! After adoption every submit, verdict, and pushed update for that
//! connection is served entirely by the home reactor: the hot path takes
//! no cross-thread locks, and a `DecisionUpdate` can never be misdelivered
//! across reactors because the pending entry and the socket live on the
//! same thread by construction.
//!
//! **Connection lifecycle.** Each connection is a small state machine:
//! `Open` (serving) → `Draining` (a fatal protocol error was answered, or
//! the client said `Bye`; queued replies flush, then the socket closes).
//! Reads feed a per-connection `FrameDecoder`; a framing violation
//! (corrupt/oversized frame) or an undecodable message is answered with
//! `ServerMsg::Error` and drains the connection — a byte stream that
//! lost framing cannot be resynchronized.
//!
//! **Backpressure.** Writes go through a bounded per-connection queue.
//! A submit arriving while the client's reply queue is full is answered
//! `Throttled` *without touching the gateway* — overload shedding at the
//! edge, before the admission test spends CPU. A connection that consumes
//! nothing at all — letting the queue reach twice the bound, whether from
//! unread replies or unread pushed updates — is evicted (slow-consumer
//! eviction), so the queue is a hard bound, never a suggestion.
//!
//! **Time.** The gateway lives in simulated seconds; the edge maps wall
//! clock to [`SimTime`] through an [`EdgeClock`] (offset + scale). *Every*
//! edge deadline — including how long a draining connection may dawdle —
//! is kept in sim time, so manual-clock tests exercise the full lifecycle
//! and a paused clock pauses the whole edge, reaping included. The clock's
//! base matters across restarts: a recovered gateway's book is in
//! pre-crash sim time, so the restarted edge resumes the clock at the
//! recovery instant instead of rewinding to zero.
//!
//! **Arrival stamping.** The edge overwrites each submitted task's
//! `arrival` with the server-clock receive instant: in the online model
//! the arrival time *is* when the request reaches the head node, and
//! gateway-side deadlines (`arrival + D`) must be anchored to the serving
//! clock, not whatever the client's generator used. The journal records
//! the stamped request, so replay stays deterministic.

pub(crate) mod conn;
pub mod multi;
pub mod reactor;
pub(crate) mod registry;

pub use multi::{reactor_for_tenant, EdgeCluster};
pub use reactor::EdgeServer;
/// The bound the reactor holds its gateway stack to: the serving trait
/// (`rtdls_sim::serve::Serve` — `decide` per submit, `drive` per turn,
/// `next_due` for the timed-work check) plus the ops surface —
/// implemented by `ShardedGateway`, `JournaledGateway` and
/// `ShippingGateway`, each writing its turn once.
pub use rtdls_service::serve::EdgeGateway;

use std::time::{Duration, Instant};

use rtdls_core::prelude::SimTime;
use rtdls_telemetry::MetricsRegistry;

use crate::codec::DEFAULT_MAX_FRAME;

/// Maps wall-clock time to the gateway's [`SimTime`].
#[derive(Clone, Copy, Debug)]
pub struct EdgeClock {
    origin: Instant,
    base: SimTime,
    scale: f64,
}

impl EdgeClock {
    /// A clock reading `base + scale · (wall seconds since now)`. Restarted
    /// edges pass the recovery instant as `base` so serving time never
    /// rewinds below the recovered book's.
    pub fn starting_at(base: SimTime, scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        EdgeClock {
            origin: Instant::now(),
            base,
            scale,
        }
    }

    /// Real time: one wall second = one simulated second, from zero.
    pub fn real_time() -> Self {
        Self::starting_at(SimTime::ZERO, 1.0)
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.base + SimTime::new(self.origin.elapsed().as_secs_f64() * self.scale)
    }

    /// Wall-clock time from now until the simulated instant `t` (zero if
    /// `t` has already passed; capped at an hour for far-future values so
    /// the selector timeout arithmetic stays finite). This is how the
    /// reactor converts "next due" into an epoll timeout.
    pub fn wall_until(&self, t: SimTime) -> Duration {
        let sim_dt = (t.as_f64() - self.now().as_f64()).max(0.0);
        Duration::from_secs_f64((sim_dt / self.scale).min(3600.0))
    }
}

/// Edge tunables.
#[derive(Clone, Copy, Debug)]
pub struct EdgeConfig {
    /// Per-frame payload cap handed to each connection's decoder.
    pub max_frame_len: usize,
    /// Reply-queue bound per connection: submits over it are answered
    /// `Throttled` without consulting the gateway, and a connection whose
    /// queue reaches twice this bound (a consumer reading nothing at all,
    /// whether of replies or pushed updates) is evicted — the queue can
    /// never grow past `2 × write_queue_limit + 1` frames.
    pub write_queue_limit: usize,
    /// How long a draining connection (error answered, or client `Bye`)
    /// may take to consume its final frames before being closed anyway —
    /// without this, a peer that stops reading would hold its socket and
    /// queued bytes forever. Interpreted on the edge clock: one second of
    /// timeout is one *simulated* second, so a paused manual clock also
    /// pauses reaping.
    pub drain_timeout: Duration,
    /// First connection id this edge hands out. Connection ids namespace
    /// task ids (they form the high 32 bits of every server-minted id), so
    /// a *restarted* edge recovering a journaled book must start its ids
    /// past the previous generation's — otherwise a fresh connection could
    /// mint an id that collides with a still-parked pre-crash task.
    pub first_conn_id: u64,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            max_frame_len: DEFAULT_MAX_FRAME,
            write_queue_limit: 256,
            drain_timeout: Duration::from_secs(2),
            first_conn_id: 0,
        }
    }
}

/// Counters the reactor keeps about itself (the gateway's own book is in
/// `ServiceMetrics`; these cover what happens *before* the gateway). In a
/// cluster each reactor keeps its own — sum them for edge-wide totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: u64,
    /// Connections closed (any reason).
    pub connections_closed: u64,
    /// Connections adopted from another reactor (cluster mode: the home
    /// reactor's side of a tenant-hash transfer).
    pub conns_adopted: u64,
    /// Complete frames received.
    pub frames_received: u64,
    /// Frames written out (fully).
    pub frames_sent: u64,
    /// Submits offered to the gateway.
    pub submits: u64,
    /// Submits answered `Throttled` by the edge's own backpressure gate
    /// (never reached the gateway).
    pub edge_throttled: u64,
    /// Pushed `Update` messages enqueued.
    pub updates_pushed: u64,
    /// Updates whose submitting connection was already gone.
    pub updates_dropped: u64,
    /// Connections failed for framing/decode violations.
    pub protocol_errors: u64,
    /// Connections evicted for consuming pushes too slowly.
    pub slow_consumer_evictions: u64,
    /// Pending-map entries discarded because their connection closed
    /// before the parked task resolved (the resolution would have been
    /// undeliverable anyway; without this purge the map grows forever
    /// under churning clients with parked work).
    pub pending_evicted: u64,
    /// Reactor turns counted while telemetry was attached (the divisor
    /// for the per-phase nanosecond counters below).
    pub turns: u64,
    /// Cumulative accept+read+decode+serve phase time, in nanoseconds.
    /// Only accumulated while telemetry is attached — the zero-telemetry
    /// hot path takes no clock readings.
    pub read_ns: u64,
    /// Cumulative gateway-drive + update-push phase time, in nanoseconds
    /// (telemetry-on only).
    pub drive_ns: u64,
    /// Cumulative write-flush + reap phase time, in nanoseconds
    /// (telemetry-on only).
    pub flush_ns: u64,
}

impl EdgeStats {
    /// Field-wise sum — cluster-wide totals from per-reactor stats.
    pub fn merged(stats: &[EdgeStats]) -> EdgeStats {
        let mut total = EdgeStats::default();
        for s in stats {
            total.connections_accepted += s.connections_accepted;
            total.connections_closed += s.connections_closed;
            total.conns_adopted += s.conns_adopted;
            total.frames_received += s.frames_received;
            total.frames_sent += s.frames_sent;
            total.submits += s.submits;
            total.edge_throttled += s.edge_throttled;
            total.updates_pushed += s.updates_pushed;
            total.updates_dropped += s.updates_dropped;
            total.protocol_errors += s.protocol_errors;
            total.slow_consumer_evictions += s.slow_consumer_evictions;
            total.pending_evicted += s.pending_evicted;
            total.turns += s.turns;
            total.read_ns += s.read_ns;
            total.drive_ns += s.drive_ns;
            total.flush_ns += s.flush_ns;
        }
        total
    }
}

/// Folds the reactor's self-observation counters (plus the live pending-map
/// and connection levels) into the unified registry under `rtdls_edge_*`.
pub fn fold_edge_stats(
    reg: &mut MetricsRegistry,
    stats: &EdgeStats,
    pending: usize,
    connections: usize,
) {
    reg.counter(
        "rtdls_edge_connections_accepted",
        &[],
        stats.connections_accepted,
    );
    reg.counter(
        "rtdls_edge_connections_closed",
        &[],
        stats.connections_closed,
    );
    reg.counter("rtdls_edge_conns_adopted", &[], stats.conns_adopted);
    reg.counter("rtdls_edge_frames_received", &[], stats.frames_received);
    reg.counter("rtdls_edge_frames_sent", &[], stats.frames_sent);
    reg.counter("rtdls_edge_submits", &[], stats.submits);
    reg.counter("rtdls_edge_throttled", &[], stats.edge_throttled);
    reg.counter("rtdls_edge_updates_pushed", &[], stats.updates_pushed);
    reg.counter("rtdls_edge_updates_dropped", &[], stats.updates_dropped);
    reg.counter("rtdls_edge_protocol_errors", &[], stats.protocol_errors);
    reg.counter(
        "rtdls_edge_slow_consumer_evictions",
        &[],
        stats.slow_consumer_evictions,
    );
    reg.counter("rtdls_edge_pending_evicted", &[], stats.pending_evicted);
    reg.counter("rtdls_edge_turns", &[], stats.turns);
    reg.counter("rtdls_edge_read_ns", &[], stats.read_ns);
    reg.counter("rtdls_edge_drive_ns", &[], stats.drive_ns);
    reg.counter("rtdls_edge_flush_ns", &[], stats.flush_ns);
    reg.gauge("rtdls_edge_pending", &[], pending as f64);
    reg.gauge("rtdls_edge_connections", &[], connections as f64);
}
