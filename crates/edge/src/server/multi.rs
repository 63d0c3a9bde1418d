//! The sharded edge: N [`EdgeServer`]s, one gateway (shard group) and one
//! thread each, behind one acceptor.
//!
//! Reactor 0 holds the listener and accepts every connection. The rule is
//! the lone server's: a submit is decided only on its tenant's home
//! reactor ([`reactor_for_tenant`]).
//!
//! * A `Hello { tenant }` binds a connection. Bound to a tenant homed
//!   elsewhere, the connection — socket, unread frames, queued replies —
//!   is posted to the home reactor's mailbox before any of its submits is
//!   decided, so a parked task's pending entry and its socket always live
//!   on one thread and a pushed update cannot be misdelivered.
//! * A bound connection that submits for another tenant, or an unbound one
//!   that submits for a tenant homed on another reactor, is answered
//!   `Error { seq }` (naming the home reactor, for the unbound case) and
//!   drained; no other connection notices.
//! * The mailboxes (a mutexed vector and a selector wake each, drained at
//!   the start of every turn) are the only inter-reactor seam: decode,
//!   decide and verdict touch only the home reactor's gateway.
//! * Each reactor drives and group-commits its own gateway, so a journaled
//!   cluster keeps one WAL per reactor and the single-writer crash-safety
//!   argument per file.
//!
//! Placement is deterministic (FNV-1a 64 over the tenant id), so a restart
//! with the same reactor count sends every tenant back to the reactor whose
//! recovered gateway holds its state.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::AtomicBool;

use rtdls_core::prelude::TenantId;
use rtdls_journal::wire::{fnv1a64, FNV_OFFSET};

use super::reactor::EdgeServer;
use super::{EdgeClock, EdgeConfig, EdgeGateway, EdgeStats};

/// The home reactor for `tenant` in a cluster of `reactors`.
///
/// FNV-1a 64 over the tenant id's little-endian bytes: stable across
/// runs, platforms, and restarts, so a tenant always lands on the reactor
/// whose gateway (and, if journaled, whose WAL) holds its state. Anything
/// partitioning work by tenant (capacity planning, WAL inspection) can
/// reproduce the placement.
pub fn reactor_for_tenant(tenant: TenantId, reactors: usize) -> usize {
    if reactors <= 1 {
        return 0;
    }
    let hash = fnv1a64(FNV_OFFSET, &tenant.0.to_le_bytes());
    (hash % reactors as u64) as usize
}

/// A sharded edge server: one listener, N reactor threads, each serving
/// its own [`EdgeGateway`] for the tenants hashed to it.
///
/// The gateway vector's length *is* the reactor count; index `i` serves
/// exactly the tenants with `reactor_for_tenant(t, n) == i`. A journaled
/// cluster passes one `JournaledGateway` per reactor (distinct WAL
/// files); recovery rebuilds each and re-binds with the same count.
pub struct EdgeCluster<G: EdgeGateway> {
    reactors: Vec<EdgeServer<G>>,
}

impl<G: EdgeGateway + Send> EdgeCluster<G> {
    /// Binds the shared listener and builds every reactor. `gateways` must
    /// be non-empty; its length fixes the reactor count.
    pub fn bind(addr: impl ToSocketAddrs, gateways: Vec<G>, cfg: EdgeConfig) -> io::Result<Self> {
        let reactors = EdgeServer::group(addr, gateways, cfg)?;
        Ok(EdgeCluster { reactors })
    }

    /// The bound address (the OS-chosen port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.reactors[0].local_addr()
    }

    /// The reactors, in reactor order: attach telemetry, history or a
    /// follower link to each before [`run`](EdgeCluster::run).
    pub fn reactors_mut(&mut self) -> &mut [EdgeServer<G>] {
        &mut self.reactors
    }

    /// Runs every reactor on its own thread until `stop` is set, then
    /// returns each reactor's gateway and stats, in reactor order. All
    /// reactors share `clock`, so the cluster has one notion of simulated
    /// time.
    pub fn run(self, clock: EdgeClock, stop: &AtomicBool) -> Vec<(G, EdgeStats)> {
        std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .reactors
                .into_iter()
                .map(|reactor| scope.spawn(move || reactor.run(clock, stop)))
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("reactor thread panicked"))
                .collect()
        })
    }
}
