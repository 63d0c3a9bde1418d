//! The reactor turn loop: one [`EdgeServer`] per reactor thread.
//!
//! There is one turn — accept, read/decode/serve (timed work already due
//! runs, by `catch_up`, before the first decision), drive the gateway
//! when dirty or due, push updates, flush, reap — and readable events from
//! the selector say which sockets it accepts from and reads.
//! [`EdgeServer::run`] blocks in the epoll wait before each turn: the
//! timeout is derived from the gateway's next due instant and the earliest
//! drain deadline, and `EPOLLOUT` is armed only while a connection has
//! unflushed frames. [`EdgeServer::poll`] is the same turn after a
//! zero-timeout wait, callable inline (tests drive it with a manual clock).
//!
//! In a cluster ([`super::multi::EdgeCluster`]) the same type runs once
//! per reactor thread; only reactor 0 holds the listener, and the `home`
//! field makes the first submit on an unpinned connection either pin it
//! here or stage it for adoption by its tenant's home reactor.

use std::collections::HashSet;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rtdls_core::prelude::{SimTime, TaskId};
use rtdls_service::prelude::{Turn, Verdict};
use rtdls_telemetry::{HistoryConfig, MetricsRegistry, Stage, Telemetry, TimeSeriesStore};

use crate::codec::Direction;
use crate::poll::{Event, Selector};
use crate::proto::{decode_client, ClientMsg, OpsQuery, OpsReport, ServerMsg, PROTOCOL_VERSION};

use super::conn::Conn;
use super::multi::reactor_for_tenant;
use super::registry::{PendingEntry, PendingRegistry};
use super::{fold_edge_stats, EdgeClock, EdgeConfig, EdgeGateway, EdgeStats, LINK_QUEUE_CAP};

/// Selector token for the listener (connection ids count up from
/// `EdgeConfig::first_conn_id` and can never reach it; `u64::MAX` is the
/// wake pipe's).
pub(crate) const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Selector token (and connection id) of the follower link.
const LINK_TOKEN: u64 = u64::MAX - 2;

/// A connection staged for adoption by another reactor, together with the
/// submit that revealed its tenant (decoded but *not yet decided* — the
/// adopter serves it first, so no verdict or pending entry ever needs to
/// cross threads).
pub(crate) struct ConnTransfer {
    pub target: usize,
    pub conn: Conn,
    pub carried: ClientMsg,
}

/// Binds a non-blocking listener and a selector that already watches it.
/// Every failure — bind, `epoll_create1`, the wake pipe, registering the
/// listener — is the caller's `io::Error`: there is no second serving loop
/// to absorb it.
pub(crate) fn listen(addr: impl ToSocketAddrs) -> std::io::Result<(TcpListener, Selector)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let mut selector = Selector::new()?;
    selector.register(&listener, LISTENER_TOKEN)?;
    Ok((listener, selector))
}

/// The edge server: a listener (on reactor 0), its connections, and the
/// gateway they serve. See the module docs for the reactor's shape.
pub struct EdgeServer<G: EdgeGateway> {
    pub(crate) listener: Option<TcpListener>,
    /// This reactor's epoll set: the listener (when held) and every live
    /// connection are registered in it from the moment they exist.
    pub(crate) selector: Selector,
    pub(crate) cfg: EdgeConfig,
    pub(crate) gateway: G,
    pub(crate) conns: Vec<Conn>,
    /// Connection-id allocator — shared across a cluster's reactors so
    /// ids (and therefore minted task ids) stay globally unique.
    pub(crate) ids: Arc<AtomicU64>,
    /// Parked-task pushback registry, keyed by server-minted ids.
    pub(crate) pending: PendingRegistry,
    /// Set when a submission reached the gateway this turn — with the
    /// timed-work check (the gateway's `next_due`), the drive trigger.
    pub(crate) dirty: bool,
    pub(crate) stats: EdgeStats,
    /// Tracing and phase-timing handle (`edge/*` phases plus whatever the
    /// gateway registers); disabled (and allocation-free on the hot path)
    /// until [`EdgeServer::set_telemetry`].
    pub(crate) telemetry: Telemetry,
    /// Metrics history ring; absent until [`EdgeServer::enable_history`].
    pub(crate) history: Option<TimeSeriesStore>,
    /// `(my reactor index, reactor count)` in a cluster; `None` when
    /// single-reactor (every connection is born pinned).
    pub(crate) home: Option<(usize, usize)>,
    /// Connections staged for adoption elsewhere; the cluster loop drains
    /// this into the target reactors' mailboxes after each turn.
    pub(crate) outbox: Vec<ConnTransfer>,
    /// The follower link ([`EdgeServer::follow`]) and the bytes it read
    /// that the gateway has not taken yet (at most one torn frame).
    link: Option<Conn>,
    link_acks: Vec<u8>,
}

impl<G: EdgeGateway> EdgeServer<G> {
    /// Binds the listener, creates the epoll set with the listener in it,
    /// and takes ownership of the gateway (enabling its decision-update
    /// stream). `addr` may be `"127.0.0.1:0"` for an ephemeral port — see
    /// [`EdgeServer::local_addr`].
    pub fn bind(addr: impl ToSocketAddrs, gateway: G, cfg: EdgeConfig) -> std::io::Result<Self> {
        let (listener, selector) = listen(addr)?;
        let ids = Arc::new(AtomicU64::new(cfg.first_conn_id));
        Ok(Self::assemble(
            Some(listener),
            selector,
            gateway,
            cfg,
            ids,
            None,
        ))
    }

    /// A cluster reactor: reactor 0 carries the listener (already in its
    /// `selector`), everyone shares the id allocator, and `home` routes
    /// first submits.
    pub(crate) fn for_cluster(
        listener: Option<TcpListener>,
        selector: Selector,
        gateway: G,
        cfg: EdgeConfig,
        ids: Arc<AtomicU64>,
        home: (usize, usize),
    ) -> Self {
        Self::assemble(listener, selector, gateway, cfg, ids, Some(home))
    }

    fn assemble(
        listener: Option<TcpListener>,
        selector: Selector,
        mut gateway: G,
        cfg: EdgeConfig,
        ids: Arc<AtomicU64>,
        home: Option<(usize, usize)>,
    ) -> Self {
        gateway.enable_observation();
        gateway.enable_explanations();
        EdgeServer {
            listener,
            selector,
            cfg,
            gateway,
            conns: Vec::new(),
            ids,
            pending: PendingRegistry::default(),
            dirty: false,
            stats: EdgeStats::default(),
            telemetry: Telemetry::disabled(),
            history: None,
            home,
            outbox: Vec::new(),
            link: None,
            link_acks: Vec::new(),
        }
    }

    /// Links a follower: `stream`, connected to its standby, joins the
    /// epoll set (replacing an earlier link) and carries the bytes of
    /// [`EdgeGateway::swap_ship_bytes`]. A link over [`LINK_QUEUE_CAP`],
    /// sending anything but acks or hanging up is dropped and counted in
    /// [`EdgeStats::links_dropped`]; serving goes on.
    pub fn follow(&mut self, stream: TcpStream) -> std::io::Result<()> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        self.selector.register(&stream, LINK_TOKEN)?;
        self.link = Some(Conn::new(LINK_TOKEN, stream, 0, true));
        self.link_acks.clear();
        Ok(())
    }

    /// Attaches the observability handle and forwards it to the gateway,
    /// so every layer records into one flight recorder and one phase table.
    /// The edge mints a trace id for every framed submission at ingress and
    /// records `EdgeReceive`/`PushUpdate` spans; the reactor turn phases
    /// (`edge/read`, `edge/drive`, `edge/flush`; inside them `edge/decode`,
    /// one per frame received, and `edge/encode`, one per frame queued) and
    /// every phase the gateway stack registers (`gateway/plan`,
    /// `gateway/reserve`, `gateway/explain`, `gateway/retest`,
    /// `journal/append` (encoding a frame into the journal's image),
    /// `journal/write` (the turn's one hand-over to the sink, at commit),
    /// `journal/fsync` (the sync that follows it), `ship/poll`, …)
    /// accumulate into exponential-bucket histograms, served by
    /// [`OpsQuery::Profile`] and folded as `rtdls_profile_ns`. Until this
    /// is called each span and phase costs one `Option` check.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
        self.gateway.attach_telemetry(telemetry);
    }

    /// Turns metrics history on: once per `cfg.cadence` (edge-clock
    /// seconds) the reactor folds the full registry and records every
    /// scalar into a fixed-capacity ring, served by [`OpsQuery::History`].
    pub fn enable_history(&mut self, cfg: HistoryConfig) {
        self.history = Some(TimeSeriesStore::new(cfg));
    }

    /// The history store, when enabled.
    pub fn history(&self) -> Option<&TimeSeriesStore> {
        self.history.as_ref()
    }

    /// Parked-task pushback entries currently held (server-minted task id →
    /// submitting connection). Bounded by eviction on connection close —
    /// see [`EdgeStats::pending_evicted`].
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The bound address (the OS-chosen port for `:0` binds). Panics on a
    /// cluster reactor without the listener — ask the cluster instead.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .as_ref()
            .expect("this reactor holds no listener")
            .local_addr()
            .expect("bound listener")
    }

    /// The served gateway.
    pub fn gateway(&self) -> &G {
        &self.gateway
    }

    /// Reactor self-observation counters.
    pub fn stats(&self) -> &EdgeStats {
        &self.stats
    }

    /// Live connection count.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Tears the server down, returning the gateway (e.g. to snapshot or
    /// hand to another driver).
    pub fn into_gateway(self) -> G {
        self.gateway
    }

    /// One reactor turn at simulated instant `now` without blocking: asks
    /// the selector what is ready right now and runs the same turn
    /// [`run`](EdgeServer::run) does (the selector is level-triggered, so
    /// whatever is unread or unaccepted is reported again). The inline-test
    /// path, and the last turn of a stopping reactor.
    pub fn poll(&mut self, now: SimTime) {
        let mut events = Vec::new();
        self.wait_ready(0, &mut events);
        self.poll_events(now, &events)
    }

    /// One selector-driven turn: the listener is accepted from and a
    /// connection read only when `events` names it.
    pub(crate) fn poll_events(&mut self, now: SimTime, events: &[Event]) {
        // `timer()` is None while telemetry is disabled, so the phase
        // accounting below is free (no clock reads) on the bare path.
        let read_timer = self.telemetry.timer();
        if events
            .iter()
            .any(|e| e.token == LISTENER_TOKEN && e.readable)
        {
            self.accept_new();
        }
        self.read_and_serve(now, events);
        if self.home.is_some() {
            self.extract_transfers();
        }
        self.telemetry.phase("edge/read", read_timer);
        // Event-driven drive, mirroring the simulator: sweep the books
        // only when a submission arrived or timed work (a dispatch or an
        // activation) has come due. An idle reactor turn leaves the
        // gateway — and a journaled gateway's WAL — untouched.
        let drove = self.dirty || self.due(now);
        if drove {
            let drive_timer = self.telemetry.timer();
            self.gateway.drive(now);
            self.dirty = false;
            self.push_updates(now);
            self.telemetry.phase("edge/drive", drive_timer);
        }
        let flush_timer = self.telemetry.timer();
        self.ship(now, drove, events);
        self.flush_writes();
        self.reap(now);
        self.telemetry.phase("edge/flush", flush_timer);
        self.sample_history(now);
    }

    /// Whether the gateway's timed work has come due at `now`.
    fn due(&self, now: SimTime) -> bool {
        self.gateway
            .next_due()
            .is_some_and(|t| t.at_or_before_eps(now))
    }

    /// Records one metrics-history sample when the cadence says one is
    /// due. The fold only runs on due turns, so a second's worth of
    /// reactor turns costs exactly one registry fold.
    fn sample_history(&mut self, now: SimTime) {
        let due = self.history.as_ref().is_some_and(|s| s.due(now));
        if !due {
            return;
        }
        let reg = self.fold();
        if let Some(store) = self.history.as_mut() {
            store.sample(now, &reg);
        }
    }

    /// Every layer's metrics, the reactor's own, the phase table
    /// (`rtdls_profile_ns`) and whether a follower is linked
    /// (`rtdls_replica_connected`).
    fn fold(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        self.gateway.fold_metrics(&mut reg);
        fold_edge_stats(&mut reg, &self.stats, self.pending.len(), self.conns.len());
        self.telemetry.fold_phases(&mut reg);
        let linked = if self.link.is_some() { 1.0 } else { 0.0 };
        reg.gauge("rtdls_replica_connected", &[], linked);
        reg
    }

    /// The selector timeout: wall time until the gateway's next due
    /// instant or the earliest drain deadline, whichever is sooner,
    /// clamped to `[1, 10]` ms (0 when already due) so timed work is at
    /// most a millisecond late and a stop request is honored promptly.
    pub(crate) fn wait_timeout_ms(&self, clock: &EdgeClock) -> i32 {
        const IDLE_MS: u64 = 10;
        let drain_timeout = SimTime::new(self.cfg.drain_timeout.as_secs_f64());
        let mut due = self.gateway.next_due();
        for conn in &self.conns {
            if let Some(since) = conn.draining_since {
                let deadline = since + drain_timeout;
                due = Some(due.map_or(deadline, |d| d.min(deadline)));
            }
        }
        let Some(due) = due else {
            return IDLE_MS as i32;
        };
        let wall = clock.wall_until(due);
        if wall.is_zero() {
            0
        } else {
            (wall.as_millis() as u64).clamp(1, IDLE_MS) as i32
        }
    }

    /// Runs the reactor until `stop` is set, then returns the gateway and
    /// final stats. Blocks in the OS selector between turns, so an
    /// unloaded edge parks in the kernel instead of spinning.
    pub fn run(mut self, clock: EdgeClock, stop: &AtomicBool) -> (G, EdgeStats) {
        let mut scratch: Vec<Event> = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            self.wait_ready(self.wait_timeout_ms(&clock), &mut scratch);
            self.poll_events(clock.now(), &scratch);
        }
        // A graceful stop flushes what it can in one last turn.
        self.poll(clock.now());
        (self.gateway, self.stats)
    }

    /// Blocks in the selector for at most `timeout_ms` (readiness, a wake
    /// or the next timer) and leaves what it reported in `events`: the one
    /// place a turn's readiness comes from, `run` and `poll` alike.
    pub(crate) fn wait_ready(&mut self, timeout_ms: i32, events: &mut Vec<Event>) {
        events.clear();
        match self.selector.wait(timeout_ms) {
            Ok(ready) => events.extend_from_slice(ready),
            // A transient wait failure: the caller runs an empty-event turn
            // so timers advance, keeping all registrations intact.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }

    fn accept_new(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.ids.fetch_add(1, Ordering::Relaxed);
                    // Single-reactor edges pin at accept; cluster members
                    // wait for the first submit's tenant.
                    let pinned = self.home.is_none();
                    let mut conn = Conn::new(id, stream, self.cfg.max_frame_len, pinned);
                    let hello = ServerMsg::Hello {
                        protocol: PROTOCOL_VERSION,
                    };
                    conn.enqueue(&hello, &self.telemetry);
                    // A socket the selector will not watch would never be
                    // read: it is reaped this turn instead.
                    conn.dead = self.selector.register(&conn.stream, conn.id).is_err();
                    self.conns.push(conn);
                    self.stats.connections_accepted += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn read_and_serve(&mut self, now: SimTime, events: &[Event]) {
        // Index-based: handling a frame needs `&mut self.gateway` and the
        // connection simultaneously, so split via `take`-free indexing.
        for i in 0..self.conns.len() {
            if self.conns[i].draining || self.conns[i].dead {
                continue;
            }
            let id = self.conns[i].id;
            if !events.iter().any(|e| e.readable && e.token == id) {
                continue;
            }
            self.read_conn(i);
            self.decode_and_serve(i, now);
        }
    }

    /// Pulls everything the socket has into the connection's decoder.
    fn read_conn(&mut self, i: usize) {
        let mut buf = [0u8; 8192];
        loop {
            match self.conns[i].stream.read(&mut buf) {
                Ok(0) => {
                    self.conns[i].dead = true;
                    break;
                }
                Ok(n) => self.conns[i].decoder.push(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.conns[i].dead = true;
                    break;
                }
            }
        }
    }

    /// Decodes and serves complete frames. Payloads are borrowed straight
    /// from the decoder's stream buffer (`next_frame_ref`) — decoding a
    /// `ClientMsg` is the only copy on the inbound path.
    pub(crate) fn decode_and_serve(&mut self, i: usize, now: SimTime) {
        loop {
            if self.conns[i].draining || self.conns[i].dead || self.conns[i].transfer.is_some() {
                break;
            }
            // A complete frame counts as received whatever it holds; a
            // stream-level framing violation is not a frame.
            let decoded = match self.conns[i].decoder.next_frame_ref() {
                Ok(None) => break,
                Err(e) => Err(e.to_string()),
                Ok(Some((direction, payload))) => {
                    self.stats.frames_received += 1;
                    if direction != Direction::FromClient {
                        // A looped or confused peer: fail fast instead
                        // of misparsing a server-direction payload.
                        Err("misdirected frame".to_string())
                    } else {
                        let started = self.telemetry.timer();
                        let decoded = decode_client(payload);
                        self.telemetry.phase("edge/decode", started);
                        decoded.map_err(|e| format!("undecodable message: {e}"))
                    }
                }
            };
            match decoded {
                Ok(msg) => self.handle(i, msg, now),
                Err(message) => self.fail_conn(i, None, message, now),
            }
        }
    }

    fn handle(&mut self, i: usize, msg: ClientMsg, now: SimTime) {
        match msg {
            ClientMsg::Hello { protocol } => {
                if protocol != PROTOCOL_VERSION {
                    self.fail_conn(
                        i,
                        None,
                        format!(
                            "protocol {protocol} unsupported (server speaks {PROTOCOL_VERSION})"
                        ),
                        now,
                    );
                }
            }
            ClientMsg::Submit { seq, mut request } => {
                // Shard affinity: the first submit reveals the tenant. If
                // its home is another reactor, stage the whole connection
                // (decoder bytes included) for adoption — this submit is
                // NOT decided here, so nothing gateway-side ever migrates.
                if !self.conns[i].pinned {
                    if let Some((me, total)) = self.home {
                        let target = reactor_for_tenant(request.tenant, total);
                        if target != me {
                            self.conns[i].transfer =
                                Some((target, ClientMsg::Submit { seq, request }));
                            return;
                        }
                    }
                    self.conns[i].pinned = true;
                }
                self.stats.submits += 1;
                let queued = self.conns[i].outq.len();
                if queued >= self.cfg.write_queue_limit.max(1) * 2 {
                    // The peer is reading nothing at all — even its
                    // Throttled replies pile up. Evict instead of letting
                    // the queue grow one frame per received submit.
                    self.conns[i].dead = true;
                    self.stats.slow_consumer_evictions += 1;
                    self.telemetry.dump_to_stderr("slow-consumer eviction");
                    return;
                }
                let client_task = request.task.id.0;
                if client_task > u32::MAX as u64 {
                    // Minted ids reserve the high 32 bits for the
                    // connection; the wire contract caps client ids at u32.
                    self.fail_conn(
                        i,
                        Some(seq),
                        format!("task id {client_task} exceeds the 32-bit wire range"),
                        now,
                    );
                    return;
                }
                // Namespace the id per connection: the gateway, journal,
                // and pending registry all see the minted id, so identical
                // client ids on different connections never collide.
                let minted = PendingRegistry::mint(self.conns[i].id, client_task);
                request.task.id = TaskId(minted);
                // The edge is the tracing ingress: mint here (a no-op
                // sentinel 0 while telemetry is off) so every downstream
                // stage — routing, planning, the WAL append — lands under
                // one trace id.
                if request.trace == 0 {
                    request.trace = self.telemetry.mint();
                }
                // Edge backpressure: the client is not consuming its
                // replies; shed before the admission test spends CPU.
                let shed = queued >= self.cfg.write_queue_limit;
                let what = if shed { "edge_throttled" } else { "submit" };
                let trace = request.trace;
                self.telemetry
                    .record(trace, Stage::EdgeReceive, None, minted, what, now, None);
                let verdict = if shed {
                    self.stats.edge_throttled += 1;
                    Verdict::Throttled
                } else {
                    // Arrival is when the request reached this edge.
                    request.task.arrival = now;
                    // The turn's first decision: timed work already due
                    // runs first, inside the turn, so none of its submits
                    // is decided against an overdue plan.
                    if !self.dirty && self.due(now) {
                        self.gateway.catch_up(now, &mut Turn::default());
                    }
                    let verdict = self.gateway.decide(&request, now);
                    self.dirty = true;
                    if matches!(verdict, Verdict::Reserved { .. } | Verdict::Deferred { .. }) {
                        self.pending.insert(
                            minted,
                            PendingEntry {
                                conn: self.conns[i].id,
                                seq,
                                client_task,
                            },
                        );
                    }
                    verdict
                };
                // The wire echoes the client's own id — minted ids never
                // leave the server.
                let reply = ServerMsg::Verdict {
                    seq,
                    task: client_task,
                    verdict,
                };
                self.conns[i].enqueue(&reply, &self.telemetry);
            }
            ClientMsg::Ops { query } => {
                let report = self.ops_report(query, now);
                self.conns[i].enqueue(&ServerMsg::OpsReport { report }, &self.telemetry);
            }
            ClientMsg::Bye => {
                self.conns[i].start_draining(now);
            }
        }
    }

    /// Builds the answer to one ops query from the live books: `Stats`
    /// folds every layer's native counters into a fresh registry and
    /// flattens it; the trace queries read the flight recorder. In a
    /// cluster this answers from the reactor the asking connection lives
    /// on (per-reactor books; sum across reactors for edge-wide totals).
    fn ops_report(&self, query: OpsQuery, now: SimTime) -> OpsReport {
        match query {
            OpsQuery::Stats => {
                let reg = self.fold();
                OpsReport::Stats {
                    samples: reg.flatten(),
                    epoch: self.gateway.epoch(),
                    ack_lag: self.gateway.ack_lag(),
                }
            }
            OpsQuery::Trace { id } => OpsReport::Trace {
                id,
                spans: self.telemetry.trace_spans(id),
            },
            OpsQuery::RecentTraces => OpsReport::RecentTraces {
                traces: self.telemetry.recent_traces(32),
            },
            OpsQuery::Slo => OpsReport::Slo {
                rows: self.gateway.slo_rows(),
            },
            OpsQuery::Explain { request } => OpsReport::Explain {
                task: request.task.id.0,
                explanation: self.gateway.explain(&request, now),
            },
            OpsQuery::History { series, range } => match &self.history {
                Some(store) => OpsReport::History {
                    points: if series.is_empty() {
                        Vec::new()
                    } else {
                        store.points_in_range(&series, now, range)
                    },
                    available: store.series_names(),
                    series,
                },
                None => OpsReport::History {
                    series,
                    points: Vec::new(),
                    available: Vec::new(),
                },
            },
            OpsQuery::Profile => OpsReport::Profile {
                phases: self.telemetry.phases(),
            },
        }
    }

    fn fail_conn(&mut self, i: usize, seq: Option<u64>, message: String, now: SimTime) {
        self.stats.protocol_errors += 1;
        // A protocol violation is a black-box moment: dump the recent
        // flight-recorder tail before answering and draining.
        self.telemetry.dump_to_stderr("protocol violation");
        self.conns[i].enqueue(&ServerMsg::Error { seq, message }, &self.telemetry);
        self.conns[i].start_draining(now);
    }

    fn push_updates(&mut self, now: SimTime) {
        for update in self.gateway.take_updates() {
            let minted = update.task();
            let terminal = update.is_terminal();
            let entry = self.pending.get(minted).map(|e| (e.conn, e.client_task));
            if terminal {
                self.pending.remove(minted);
            }
            let delivered = 'push: {
                let Some((conn_id, client_task)) = entry else {
                    break 'push false;
                };
                let Some(conn) = self.conns.iter_mut().find(|c| c.id == conn_id) else {
                    break 'push false;
                };
                if conn.outq.len() >= self.cfg.write_queue_limit * 2 {
                    // Slow consumer: evict rather than queue without bound.
                    conn.dead = true;
                    self.stats.slow_consumer_evictions += 1;
                    self.telemetry.dump_to_stderr("slow-consumer eviction");
                    break 'push false;
                }
                // Rewrite back to the id the client knows before the
                // update leaves the reactor.
                let update = update.retagged(client_task);
                conn.enqueue(&ServerMsg::Update { update }, &self.telemetry);
                break 'push true;
            };
            if delivered {
                self.stats.updates_pushed += 1;
            } else {
                self.stats.updates_dropped += 1;
            }
            // The last span of a parked flow's timeline: its resolution
            // leaving (or failing to leave) the edge.
            if let Some(trace) = self.telemetry.trace_of(minted) {
                self.telemetry.record(
                    trace,
                    Stage::PushUpdate,
                    None,
                    minted,
                    if delivered { "pushed" } else { "dropped" },
                    now,
                    None,
                );
                if terminal {
                    self.telemetry.forget(minted);
                }
            }
        }
    }

    /// Swaps replication bytes with the gateway after every drive and
    /// whenever the follower link read something. Unlinked, the frames are
    /// dropped here, so the gateway's outbox stays bounded.
    fn ship(&mut self, now: SimTime, drove: bool, events: &[Event]) {
        let before = self.link_acks.len();
        if let Some(link) = &mut self.link {
            if events.iter().any(|e| e.readable && e.token == LINK_TOKEN) {
                // Non-blocking: what arrived before `WouldBlock` is kept;
                // `Ok` is the follower hanging up.
                let read = link.stream.read_to_end(&mut self.link_acks);
                link.dead |= !matches!(read, Err(e) if e.kind() == ErrorKind::WouldBlock);
            }
        }
        if !drove && self.link_acks.len() == before {
            return;
        }
        let mut frames = Vec::new();
        let swapped = self
            .gateway
            .swap_ship_bytes(now, &self.link_acks, &mut frames);
        if let Some(link) = &mut self.link {
            match swapped {
                Ok(used) => drop(self.link_acks.drain(..used)),
                Err(_) => link.dead = true,
            }
            if !frames.is_empty() {
                link.outq.push_back(frames);
            }
            let queued = link.outq.iter().map(Vec::len).sum::<usize>() - link.front_written;
            link.dead |= queued > LINK_QUEUE_CAP;
        }
    }

    fn flush_writes(&mut self) {
        for conn in &mut self.conns {
            self.stats.frames_sent += conn.flush_and_arm(&mut self.selector);
        }
        if let Some(link) = &mut self.link {
            if !link.dead {
                link.flush_and_arm(&mut self.selector);
            }
            if link.dead {
                // Closing the socket takes it out of the epoll set; the
                // shipper re-ships the unacked tail over the next link.
                self.link = None;
                self.link_acks.clear();
                self.stats.links_dropped += 1;
            }
        }
    }

    fn reap(&mut self, now: SimTime) {
        let before = self.conns.len();
        let drain_timeout = SimTime::new(self.cfg.drain_timeout.as_secs_f64());
        self.conns.retain(|c| {
            // A draining peer gets `drain_timeout` *simulated* seconds to
            // consume its final frames; one that stops reading is closed
            // anyway so it cannot hold the fd and queued bytes forever.
            let drained = c.draining
                && (c.outq.is_empty()
                    || c.draining_since
                        .is_some_and(|since| (since + drain_timeout).at_or_before_eps(now)));
            let close = c.dead || drained;
            if close {
                let _ = c.stream.shutdown(std::net::Shutdown::Both);
            }
            !close
        });
        let closed = before - self.conns.len();
        self.stats.connections_closed += closed as u64;
        if closed > 0 && !self.pending.is_empty() {
            // A closed connection can never receive its parked tasks'
            // resolutions; drop their pending entries now instead of
            // leaking one map slot per abandoned promise.
            let live: HashSet<u64> = self.conns.iter().map(|c| c.id).collect();
            self.stats.pending_evicted += self.pending.purge_closed(&live);
        }
    }

    /// Pulls connections staged for adoption out of the live set (cluster
    /// mode, after the read phase).
    fn extract_transfers(&mut self) {
        let mut i = 0;
        while i < self.conns.len() {
            if self.conns[i].transfer.is_some() {
                let mut conn = self.conns.swap_remove(i);
                self.selector.deregister(&conn.stream);
                let (target, carried) = conn.transfer.take().expect("just checked");
                conn.write_armed = false;
                self.outbox.push(ConnTransfer {
                    target,
                    conn,
                    carried,
                });
            } else {
                i += 1;
            }
        }
    }

    /// Installs a connection transferred from another reactor: register
    /// its fd, serve the carried submit (the one that revealed its
    /// tenant), then drain whatever else its decoder already buffered.
    pub(crate) fn adopt(&mut self, transfer: ConnTransfer, now: SimTime) {
        let ConnTransfer {
            conn: mut adopted,
            carried,
            ..
        } = transfer;
        adopted.pinned = true;
        adopted.dead = self.selector.register(&adopted.stream, adopted.id).is_err();
        self.stats.conns_adopted += 1;
        self.conns.push(adopted);
        let i = self.conns.len() - 1;
        // The carried frame was already counted by the accepting reactor.
        self.handle(i, carried, now);
        self.decode_and_serve(i, now);
    }
}

impl<G: EdgeGateway> core::fmt::Debug for EdgeServer<G> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EdgeServer")
            .field("connections", &self.conns.len())
            .field("pending", &self.pending.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}
