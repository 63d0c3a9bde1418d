//! The reactor turn loop: one [`EdgeServer`] per reactor thread.
//!
//! There is one turn — accept, read/decode/serve (timed work already due
//! runs, by `catch_up`, before the first decision), drive the gateway
//! when dirty or due, push updates, flush, reap — and readable events from
//! the transport say which streams it accepts from and reads. Every I/O
//! call goes through the reactor's [`Transport`] (epoll in production), so
//! the turn is the same over any transport.
//! [`EdgeServer::run`] blocks in the transport's wait before each turn:
//! the timeout is derived from the gateway's next due instant and the
//! earliest drain deadline, and write interest is armed only while a
//! connection has unflushed frames. [`EdgeServer::poll`] is the same turn
//! after a zero-timeout wait, at an instant the caller chooses.
//!
//! A lone server is reactor 0 of a group of one; a cluster
//! ([`super::multi::EdgeCluster`]) is N of them built together, reactor 0
//! holding the listener. One rule routes on both: a submit is decided only
//! on its tenant's home reactor ([`reactor_for_tenant`]). A connection bound
//! by `Hello { tenant }` to a tenant homed elsewhere leaves the read phase
//! for that reactor's mailbox, unread frames still in its decoder, before
//! any of its submits is decided; each turn begins by adopting what its
//! mailbox holds. A submit the rule refuses fails its own connection.

use std::collections::HashSet;
use std::io::{ErrorKind, Read};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rtdls_core::prelude::{SimTime, TaskId, TenantId};
use rtdls_service::prelude::{Turn, Verdict};
use rtdls_telemetry::{HistoryConfig, MetricsRegistry, Stage, Telemetry, TimeSeriesStore};

use crate::codec::Direction;
use crate::poll::{Event, Transport, LISTENER_TOKEN};
use crate::proto::{decode_client, ClientMsg, OpsQuery, OpsReport, ServerMsg, PROTOCOL_VERSION};

use super::conn::Conn;
use super::multi::reactor_for_tenant;
use super::registry::PendingRegistry;
use super::{fold_edge_stats, EdgeClock, EdgeConfig, EdgeGateway, EdgeStats, LINK_QUEUE_CAP};

/// Transport token (and connection id) of the follower link. Connection
/// ids count up from `EdgeConfig::first_conn_id` and never reach it, nor
/// the listener's and wake's reserved tokens above it.
const LINK_TOKEN: u64 = u64::MAX - 2;

/// One reactor's mailbox: connections handed over by the acceptor, bound
/// to tenants homed here, and the waker that makes the reactor look.
struct Mailbox<T: Transport> {
    inbound: Mutex<Vec<Conn<T::Stream>>>,
    waker: T::Waker,
}

/// The edge server: its transport (holding the listener, on reactor 0),
/// its connections, and the gateway they serve, generic over the
/// [`Transport`] and epoll by default. See the module docs for the
/// reactor's shape.
pub struct EdgeServer<G: EdgeGateway, T: Transport = crate::poll::Selector> {
    /// This reactor's I/O: the listener (when held) and every live
    /// connection are registered in it from the moment they exist.
    pub(super) transport: T,
    cfg: EdgeConfig,
    gateway: G,
    conns: Vec<Conn<T::Stream>>,
    /// The next connection id. Only the acceptor mints them, so ids (and
    /// the task ids minted from them) are unique across a cluster.
    next_id: u64,
    /// Parked-task pushback registry, keyed by server-minted ids.
    pending: PendingRegistry,
    /// Set when a submission reached the gateway this turn — with the
    /// timed-work check (the gateway's `next_due`), the drive trigger.
    dirty: bool,
    stats: EdgeStats,
    /// Tracing and phase-timing handle (`edge/*` phases plus whatever the
    /// gateway registers); disabled (and allocation-free on the hot path)
    /// until [`EdgeServer::set_telemetry`].
    telemetry: Telemetry,
    /// Metrics history ring; absent until [`EdgeServer::enable_history`].
    history: Option<TimeSeriesStore>,
    /// This reactor's index in its group; `mailboxes.len()` is the group's
    /// size (1 for a lone server).
    index: usize,
    /// Every reactor's mailbox, by index.
    mailboxes: Arc<[Mailbox<T>]>,
    /// The follower link ([`EdgeServer::follow`]) and the bytes it read
    /// that the gateway has not taken yet (at most one torn frame).
    link: Option<Conn<T::Stream>>,
    link_acks: Vec<u8>,
    /// The one turn every drive and catch-up runs into: what it holds is
    /// spent by the next, so dispatched plans go back to their shards.
    turn: Turn,
}

impl<G: EdgeGateway, T: Transport> EdgeServer<G, T> {
    /// A lone reactor serving `gateway` over `transport`, which accepts
    /// its connections. Takes ownership of the gateway (enabling its
    /// decision-update stream). [`EdgeServer::bind`] is this over a fresh
    /// epoll transport holding a bound listener.
    pub fn with_transport(transport: T, gateway: G, cfg: EdgeConfig) -> Self {
        let mut lone = Self::with_transports(vec![transport], vec![gateway], cfg);
        lone.pop().expect("a group of one")
    }

    /// `gateways.len()` reactors, one transport each, in reactor order;
    /// reactor 0's transport holds the listener and accepts every
    /// connection. The one construction path: a lone server is a group of
    /// one.
    pub fn with_transports(transports: Vec<T>, gateways: Vec<G>, cfg: EdgeConfig) -> Vec<Self> {
        let mailboxes: Arc<[Mailbox<T>]> = transports
            .iter()
            .map(|t| Mailbox {
                inbound: Mutex::default(),
                waker: t.waker(),
            })
            .collect();
        let reactors = gateways.into_iter().zip(transports).enumerate();
        reactors
            .map(|(index, (mut gateway, transport))| {
                gateway.enable_observation();
                gateway.enable_explanations();
                EdgeServer {
                    transport,
                    cfg,
                    gateway,
                    conns: Vec::new(),
                    next_id: cfg.first_conn_id,
                    pending: PendingRegistry::default(),
                    dirty: false,
                    stats: EdgeStats::default(),
                    telemetry: Telemetry::disabled(),
                    history: None,
                    index,
                    mailboxes: Arc::clone(&mailboxes),
                    link: None,
                    link_acks: Vec::new(),
                    turn: Turn::default(),
                }
            })
            .collect()
    }

    /// Links a follower: `stream`, connected to its standby, joins the
    /// transport (replacing an earlier link) and carries the bytes of
    /// [`EdgeGateway::swap_ship_bytes`]. A link over [`LINK_QUEUE_CAP`],
    /// sending anything but acks or hanging up is dropped and counted in
    /// [`EdgeStats::links_dropped`]; serving goes on.
    pub fn follow(&mut self, stream: T::Stream) -> std::io::Result<()> {
        self.transport.register(&stream, LINK_TOKEN)?;
        self.link = Some(Conn::new(LINK_TOKEN, stream, 0));
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

    /// One reactor turn at simulated instant `now` without blocking: asks
    /// the transport what is ready right now and runs the same turn
    /// [`run`](EdgeServer::run) does (readiness is level-triggered, so
    /// whatever is unread or unaccepted is reported again). How a caller
    /// that owns the clock steps the edge — the tests over the in-memory
    /// transport, each at the instant it chooses — and the last turn of a
    /// stopping reactor.
    pub fn poll(&mut self, now: SimTime) {
        let mut events = Vec::new();
        self.wait_ready(0, &mut events);
        self.poll_events(now, &events)
    }

    /// One readiness-driven turn: the listener is accepted from and a
    /// connection read only when `events` names it.
    fn poll_events(&mut self, now: SimTime, events: &[Event]) {
        // `timer()` is None while telemetry is disabled, so the phase
        // accounting below is free (no clock reads) on the bare path.
        let read_timer = self.telemetry.timer();
        // A lone server has no peers: its turn takes no lock.
        if self.mailboxes.len() > 1 {
            self.adopt(now);
        }
        if events
            .iter()
            .any(|e| e.token == LISTENER_TOKEN && e.readable)
        {
            self.accept_new();
        }
        self.read_and_serve(now, events);
        self.telemetry.phase("edge/read", read_timer);
        // Event-driven drive, mirroring the simulator: sweep the books
        // only when a submission arrived or timed work (a dispatch or an
        // activation) has come due. An idle reactor turn leaves the
        // gateway — and a journaled gateway's WAL — untouched.
        let drove = self.dirty || self.due(now);
        if drove {
            let drive_timer = self.telemetry.timer();
            self.gateway.drive_into(now, &mut self.turn);
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

    /// The wait timeout: wall time until the gateway's next due
    /// instant or the earliest drain deadline, whichever is sooner,
    /// clamped to `[1, 10]` ms (0 when already due) so timed work is at
    /// most a millisecond late and a stop request is honored promptly.
    fn wait_timeout_ms(&self, clock: &EdgeClock) -> i32 {
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
    /// final stats. Blocks in the transport's wait between turns, so an
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

    /// Blocks in the transport for at most `timeout_ms` (readiness, a
    /// wake or the next timer) and leaves what it reported in `events`: the
    /// one place a turn's readiness comes from, `run` and `poll` alike.
    fn wait_ready(&mut self, timeout_ms: i32, events: &mut Vec<Event>) {
        events.clear();
        match self.transport.wait(timeout_ms) {
            Ok(ready) => events.extend_from_slice(ready),
            // A transient wait failure: the caller runs an empty-event turn
            // so timers advance, keeping all registrations intact.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }

    fn accept_new(&mut self) {
        loop {
            match self.transport.accept() {
                // Connection ids are the high half of every minted task id
                // (`PendingRegistry::mint`): past `u32::MAX` they would
                // alias, so the connection is closed unserved instead.
                Ok(_) if self.next_id > u64::from(u32::MAX) => {
                    self.stats.connections_refused += 1;
                }
                Ok(stream) => {
                    let mut conn = Conn::new(self.next_id, stream, self.cfg.max_frame_len);
                    self.next_id += 1;
                    let hello = ServerMsg::Hello {
                        protocol: PROTOCOL_VERSION,
                    };
                    conn.enqueue(&hello, &self.telemetry);
                    // A stream the transport will not watch would never be
                    // read: it is reaped this turn instead.
                    conn.dead = self.transport.register(&conn.stream, conn.id).is_err();
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
        let mut i = 0;
        while i < self.conns.len() {
            let conn = &self.conns[i];
            let id = conn.id;
            if !conn.draining && !conn.dead && events.iter().any(|e| e.readable && e.token == id) {
                self.read_conn(i);
                self.decode_and_serve(i, now);
                if let Some(home) = self.elsewhere(&self.conns[i]) {
                    // The last connection moved into slot `i`: read it next.
                    self.hand_off(i, home);
                    continue;
                }
            }
            i += 1;
        }
    }

    /// The home reactor of the tenant `conn` is bound to, when that is
    /// another reactor.
    fn elsewhere(&self, conn: &Conn<T::Stream>) -> Option<usize> {
        let home = reactor_for_tenant(conn.tenant?, self.mailboxes.len());
        (home != self.index).then_some(home)
    }

    /// Posts connection `i` to reactor `home`'s mailbox and wakes it: the
    /// stream leaves this transport, its unread frames travel in its
    /// decoder and its queued replies in its write queue.
    fn hand_off(&mut self, i: usize, home: usize) {
        let mut conn = self.conns.swap_remove(i);
        self.transport.deregister(&conn.stream);
        conn.write_armed = false;
        let mailbox = &self.mailboxes[home];
        mailbox.inbound.lock().expect("mailbox lock").push(conn);
        T::wake(&mailbox.waker);
    }

    /// Installs the connections peer reactors handed over: registers each
    /// and serves what its decoder already holds.
    fn adopt(&mut self, now: SimTime) {
        let inbound = &self.mailboxes[self.index].inbound;
        let adopted = std::mem::take(&mut *inbound.lock().expect("mailbox lock"));
        for mut conn in adopted {
            conn.dead = self.transport.register(&conn.stream, conn.id).is_err();
            self.stats.conns_adopted += 1;
            self.conns.push(conn);
            self.decode_and_serve(self.conns.len() - 1, now);
        }
    }

    /// Pulls everything the stream has into the connection's decoder.
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
    fn decode_and_serve(&mut self, i: usize, now: SimTime) {
        loop {
            let conn = &self.conns[i];
            if conn.draining || conn.dead || self.elsewhere(conn).is_some() {
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
            ClientMsg::Hello { protocol, tenant } => {
                if protocol != PROTOCOL_VERSION {
                    self.fail_conn(
                        i,
                        None,
                        format!(
                            "protocol {protocol} unsupported (server speaks {PROTOCOL_VERSION})"
                        ),
                        now,
                    );
                } else if let Some(tenant) = tenant {
                    // Bound here; the read phase hands the connection to
                    // the tenant's home reactor when that is another one,
                    // unless parked tasks' pending entries hold it here.
                    let (conn, n) = (&self.conns[i], self.mailboxes.len());
                    if let Some(bound) = conn.tenant.filter(|&b| b != tenant) {
                        self.fail_conn(i, None, rebound(bound, tenant), now);
                    } else if reactor_for_tenant(tenant, n) != self.index
                        && self.pending.holds(conn.id)
                    {
                        let message = "connection holds parked tasks: bind before submitting";
                        self.fail_conn(i, None, message.to_string(), now);
                    } else {
                        self.conns[i].tenant = Some(tenant);
                    }
                }
            }
            ClientMsg::Submit { seq, mut request } => {
                if let Some(message) = self.misrouted(i, request.tenant) {
                    self.fail_conn(i, Some(seq), message, now);
                    return;
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
                        self.gateway.catch_up(now, &mut self.turn);
                    }
                    let verdict = self.gateway.decide(&request, now);
                    self.dirty = true;
                    if matches!(verdict, Verdict::Reserved { .. } | Verdict::Deferred { .. }) {
                        self.pending.insert(minted);
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

    /// Why connection `i` may not submit for `tenant` on this reactor, if
    /// it may not: a bound connection speaks for its tenant alone, and an
    /// unbound one for the tenants homed here.
    fn misrouted(&self, i: usize, tenant: TenantId) -> Option<String> {
        match self.conns[i].tenant {
            Some(bound) => (bound != tenant).then(|| rebound(bound, tenant)),
            None => {
                let home = reactor_for_tenant(tenant, self.mailboxes.len());
                (home != self.index).then(|| {
                    format!(
                        "tenant {} is homed on reactor {home}: send Hello {{ tenant }} first",
                        tenant.0
                    )
                })
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
            let owed = self.pending.contains(minted);
            if terminal {
                self.pending.remove(minted);
            }
            let delivered = 'push: {
                if !owed {
                    break 'push false;
                }
                let (conn_id, client_task) = PendingRegistry::unmint(minted);
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
            self.stats.frames_sent += conn.flush_and_arm(&mut self.transport);
        }
        if let Some(link) = &mut self.link {
            if !link.dead {
                link.flush_and_arm(&mut self.transport);
            }
            if link.dead {
                // Dropping the stream takes it out of the transport; the
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
        let transport = &mut self.transport;
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
                transport.shutdown(&c.stream);
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
}

/// The refusal of a bound connection speaking for another tenant.
fn rebound(bound: TenantId, other: TenantId) -> String {
    format!("connection is bound to tenant {}, not {}", bound.0, other.0)
}

impl<G: EdgeGateway, T: Transport> core::fmt::Debug for EdgeServer<G, T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EdgeServer")
            .field("connections", &self.conns.len())
            .field("pending", &self.pending.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}
