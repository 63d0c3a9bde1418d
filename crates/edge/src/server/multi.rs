//! The sharded edge: N reactor threads, one gateway (shard group) each,
//! connections pinned by tenant hash.
//!
//! One listener serves the whole cluster; reactor 0 accepts. A new
//! connection lives on reactor 0 until its first `Submit` reveals its
//! tenant; the tenant hash ([`reactor_for_tenant`]) names its home
//! reactor, and if that is not reactor 0 the *entire connection* — socket,
//! decoder buffer, write queue, and the still-undecided submit — is staged
//! into the home reactor's adoption mailbox. Ops-only connections
//! (`rtdls-top`) never submit, so they stay on reactor 0.
//!
//! The mailbox (a mutexed vector drained once per reactor turn, paired
//! with a selector wake) is the **only** inter-reactor seam. Everything
//! else is thread-local by construction:
//!
//! * the submit hot path — decode, decide, verdict — touches only the
//!   home reactor's gateway and registry: no locks, no atomics beyond the
//!   shared connection-id counter at accept;
//! * pushed `DecisionUpdate`s cannot be misdelivered across reactors,
//!   because a parked task's pending entry and its connection's socket
//!   live on the same thread (the transfer happens *before* the submit is
//!   decided, so there is never a pending entry to migrate);
//! * each reactor drives (and group-commits) its own gateway — a
//!   journaled cluster gives every reactor its own WAL file, keeping the
//!   single-writer crash-safety argument per-file and unchanged.
//!
//! Tenant → reactor placement is deterministic (FNV-1a 64 over the tenant
//! id), so a restart with the same reactor count sends every tenant back
//! to the reactor whose recovered gateway holds its state.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rtdls_core::prelude::TenantId;
use rtdls_journal::wire::{fnv1a64, FNV_OFFSET};

use crate::poll::{Event, Selector, Waker};

use super::reactor::{listen, ConnTransfer, EdgeServer};
use super::{EdgeClock, EdgeConfig, EdgeGateway, EdgeStats};

/// The home reactor for `tenant` in a cluster of `reactors`.
///
/// FNV-1a 64 over the tenant id's little-endian bytes: stable across
/// runs, platforms, and restarts, so a tenant always lands on the reactor
/// whose gateway (and, if journaled, whose WAL) holds its state. This is
/// the cluster's pinning hash — anything partitioning work by tenant
/// (capacity planning, WAL inspection) can reproduce the placement.
pub fn reactor_for_tenant(tenant: TenantId, reactors: usize) -> usize {
    let hash = fnv1a64(FNV_OFFSET, &tenant.0.to_le_bytes());
    (hash % reactors.max(1) as u64) as usize
}

/// One reactor's adoption mailbox: connections transferred in by other
/// reactors, drained once per turn.
#[derive(Default)]
struct Mailbox {
    inbound: Mutex<Vec<ConnTransfer>>,
}

/// A sharded edge server: one listener, N reactor threads, each serving
/// its own [`EdgeGateway`] for the tenants hashed to it.
///
/// The gateway vector's length *is* the reactor count; index `i` serves
/// exactly the tenants with `reactor_for_tenant(t, n) == i`. A journaled
/// cluster passes one `JournaledGateway` per reactor (distinct WAL
/// files); recovery rebuilds each and re-binds with the same count.
pub struct EdgeCluster<G: EdgeGateway> {
    listener: TcpListener,
    cfg: EdgeConfig,
    /// One gateway and one epoll set per reactor; reactor 0's already
    /// watches the listener.
    reactors: Vec<(G, Selector)>,
}

impl<G: EdgeGateway + Send> EdgeCluster<G> {
    /// Binds the shared listener and creates every reactor's epoll set.
    /// `gateways` must be non-empty; its length fixes the reactor count.
    pub fn bind(addr: impl ToSocketAddrs, gateways: Vec<G>, cfg: EdgeConfig) -> io::Result<Self> {
        assert!(!gateways.is_empty(), "a cluster needs at least one reactor");
        let (listener, accepting) = listen(addr)?;
        let mut selectors = vec![accepting];
        for _ in 1..gateways.len() {
            selectors.push(Selector::new()?);
        }
        Ok(EdgeCluster {
            listener,
            cfg,
            reactors: gateways.into_iter().zip(selectors).collect(),
        })
    }

    /// The bound address (the OS-chosen port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// Runs every reactor until `stop` is set, then returns each
    /// reactor's gateway and stats, in reactor order. All reactors share
    /// `clock`, so the cluster has one notion of simulated time.
    pub fn run(self, clock: EdgeClock, stop: &AtomicBool) -> Vec<(G, EdgeStats)> {
        let total = self.reactors.len();
        let cfg = self.cfg;
        let ids = Arc::new(AtomicU64::new(cfg.first_conn_id));
        let mailboxes: Arc<Vec<Mailbox>> =
            Arc::new((0..total).map(|_| Mailbox::default()).collect());
        // Every reactor holds every other reactor's waker before any
        // thread starts.
        let wakers: Arc<Vec<Waker>> =
            Arc::new(self.reactors.iter().map(|(_, s)| s.waker()).collect());
        let mut listener_slot = Some(self.listener);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(total);
            for (index, (gateway, selector)) in self.reactors.into_iter().enumerate() {
                let listener = if index == 0 {
                    listener_slot.take()
                } else {
                    None
                };
                let ids = Arc::clone(&ids);
                let mailboxes = Arc::clone(&mailboxes);
                let wakers = Arc::clone(&wakers);
                handles.push(scope.spawn(move || {
                    reactor_main(
                        index, total, listener, selector, gateway, cfg, ids, mailboxes, wakers,
                        clock, stop,
                    )
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("reactor thread panicked"))
                .collect()
        })
    }
}

/// One reactor thread's life: wait for readiness (or a mailbox wake),
/// drain adoptions, run a turn, post outgoing transfers.
#[allow(clippy::too_many_arguments)]
fn reactor_main<G: EdgeGateway>(
    index: usize,
    total: usize,
    listener: Option<TcpListener>,
    selector: Selector,
    gateway: G,
    cfg: EdgeConfig,
    ids: Arc<AtomicU64>,
    mailboxes: Arc<Vec<Mailbox>>,
    wakers: Arc<Vec<Waker>>,
    clock: EdgeClock,
    stop: &AtomicBool,
) -> (G, EdgeStats) {
    let mut server = EdgeServer::for_cluster(listener, selector, gateway, cfg, ids, (index, total));
    let mut scratch: Vec<Event> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        // Phase 1: block until something happens (readiness, a mailbox
        // wake from a peer reactor, or the next timer).
        server.wait_ready(server.wait_timeout_ms(&clock), &mut scratch);
        let now = clock.now();
        // Phase 2: adopt connections transferred in — the only
        // inter-reactor seam, drained exactly once per turn.
        let adopted: Vec<ConnTransfer> = {
            let mut inbound = mailboxes[index].inbound.lock().expect("mailbox lock");
            std::mem::take(&mut *inbound)
        };
        for transfer in adopted {
            server.adopt(transfer, now);
        }
        // Phase 3: one reactor turn.
        server.poll_events(now, &scratch);
        // Phase 4: hand staged connections to their home reactors.
        for transfer in server.outbox.drain(..) {
            let target = transfer.target;
            mailboxes[target]
                .inbound
                .lock()
                .expect("mailbox lock")
                .push(transfer);
            wakers[target].wake();
        }
    }
    let _ = server.poll(clock.now());
    (server.gateway, server.stats)
}
