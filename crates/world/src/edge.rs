//! The edge inside the world: N `EdgeServer`s, one journaled head each, on
//! one in-memory net ([`MemNet`]), turned at the world's clock, and the
//! world's audit of every byte that crosses the net.
//!
//! After every turn the audit decodes what each connection carried both
//! ways and asserts:
//! * exactly one answer (a verdict or an `Error`) per `(connection, seq)`,
//!   a verdict only for a seq the connection submitted, and an update only
//!   for a task parked on that connection;
//! * every submit decided on its tenant's home reactor: the verdicts on
//!   the wire for the tenants homed on reactor `r` are, outcome by outcome,
//!   never more than `r`'s book holds, and a connection holding a parked
//!   verdict is watched by the reactor that decided it until the verdict
//!   resolves, so its update cannot be pushed elsewhere or dropped.
//!
//! At a comeback the recovered books must hold every verdict already on
//! the wire, so a verdict sent before its turn was durable fails there;
//! what they hold beyond it (a torn write can leave part of a turn that
//! was never acknowledged) is counted as orphans. When the world drops,
//! [`Edge::reconcile`] holds each reactor's book, less its orphans, to the
//! wire's tally outcome by outcome, and the merged [`EdgeStats`] of the
//! live reactors to the frames their connections carried.

use std::collections::{BTreeSet, HashMap, HashSet};

use rtdls_core::prelude::{SimTime, SubmitRequest, TenantId};
use rtdls_edge::codec::{FrameDecoder, DEFAULT_MAX_FRAME};
use rtdls_edge::prelude::*;
use rtdls_edge::proto::{decode_client, decode_server};
use rtdls_journal::JournaledGateway;
use rtdls_service::prelude::{ServiceMetrics, Verdict};
use rtdls_sim::serve::Serve;

use crate::mem::{InlineClient, Mem, MemClient, MemNet};

/// A client as data: its requests, sent each at its arrival instant with
/// at most `window` unanswered, over a connection first bound by
/// `Hello { tenant }` when `tenant` is set. When the edge dies it
/// reconnects once the edge is back and sends again every request the dead
/// connection left unanswered; answered with an `Error`, it gives up.
#[derive(Clone, Debug)]
pub struct Client {
    /// The requests, in order; a request's seq is its index.
    pub requests: Vec<SubmitRequest>,
    /// Most submits unanswered at once.
    pub window: usize,
    /// The tenant the connection binds to.
    pub tenant: Option<TenantId>,
}

impl Client {
    /// An unbound client.
    pub fn new(requests: Vec<SubmitRequest>, window: usize) -> Self {
        Client {
            requests,
            window,
            tenant: None,
        }
    }

    /// The client binds its connections to `tenant`.
    pub fn bound(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }
}

/// Verdicts the wire carried, by outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// `Accepted`.
    pub accepted: u64,
    /// `Deferred`.
    pub deferred: u64,
    /// `Reserved`.
    pub reserved: u64,
    /// `Rejected`.
    pub rejected: u64,
    /// `Throttled`, by the gateway's quota or the edge's backpressure.
    pub throttled: u64,
}

impl Tally {
    /// Verdicts the admission test gave (all but `Throttled`).
    pub fn decided(&self) -> u64 {
        self.accepted + self.deferred + self.reserved + self.rejected
    }

    /// What `book` decided, and the `edge` throttles its reactor answered
    /// without it.
    fn of(book: &ServiceMetrics, edge: u64) -> Tally {
        Tally {
            accepted: book.accepted_immediate,
            deferred: book.deferred,
            reserved: book.reserved,
            rejected: book.rejected_immediate,
            throttled: book.throttled + edge,
        }
    }

    /// `self - less`, outcome by outcome; `None` where `less` has more.
    fn less(self, less: Tally) -> Option<Tally> {
        Some(Tally {
            accepted: self.accepted.checked_sub(less.accepted)?,
            deferred: self.deferred.checked_sub(less.deferred)?,
            reserved: self.reserved.checked_sub(less.reserved)?,
            rejected: self.rejected.checked_sub(less.rejected)?,
            throttled: self.throttled.checked_sub(less.throttled)?,
        })
    }
}

/// One connection as the audit decodes it.
struct Line {
    /// `None` once the client's stream lost framing (the server fails the
    /// connection there too).
    client: Option<FrameDecoder>,
    server: FrameDecoder,
    /// The tenant of each seq submitted, and the seqs answered.
    submitted: HashMap<u64, TenantId>,
    answered: HashSet<u64>,
    /// Parked verdicts not yet resolved: client task → deciding reactor.
    parked: HashMap<u64, usize>,
    /// The connection id, and the frames, verdicts, errors and updates the
    /// server sent on it.
    conn: Option<u64>,
    registrations: u64,
    sent: EdgeStats,
}

impl Default for Line {
    fn default() -> Self {
        Line {
            client: Some(FrameDecoder::new(DEFAULT_MAX_FRAME)),
            server: FrameDecoder::new(DEFAULT_MAX_FRAME),
            submitted: HashMap::new(),
            answered: HashSet::new(),
            parked: HashMap::new(),
            conn: None,
            registrations: 0,
            sent: EdgeStats::default(),
        }
    }
}

impl Line {
    /// Decodes what the client sent since the last audit.
    fn read_client(&mut self, bytes: &[u8]) {
        let Some(decoder) = &mut self.client else {
            return;
        };
        decoder.push(bytes);
        loop {
            let msg = match decoder.next_frame_ref() {
                Ok(Some((_, payload))) => decode_client(payload),
                Ok(None) => return,
                Err(_) => break,
            };
            match msg {
                Ok(ClientMsg::Submit { seq, request }) => {
                    self.submitted.insert(seq, request.tenant);
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        self.client = None;
    }

    /// Decodes what the server sent since the last audit, tallying its
    /// verdicts by their tenants' home among `reactors`.
    fn read_server(&mut self, bytes: &[u8], tally: &mut [Tally]) {
        self.server.push(bytes);
        while let Some((_, payload)) = self.server.next_frame_ref().unwrap() {
            self.sent.frames_sent += 1;
            let msg = decode_server(payload).expect("the server speaks the protocol");
            let answered = match msg {
                ServerMsg::Verdict { seq, task, verdict } => {
                    let tenant = *self
                        .submitted
                        .get(&seq)
                        .expect("a verdict answers a submit");
                    let home = reactor_for_tenant(tenant, tally.len());
                    let t = &mut tally[home];
                    match verdict {
                        Verdict::Accepted => t.accepted += 1,
                        Verdict::Deferred { .. } => t.deferred += 1,
                        Verdict::Reserved { .. } => t.reserved += 1,
                        Verdict::Rejected { .. } => t.rejected += 1,
                        Verdict::Throttled => t.throttled += 1,
                    }
                    if matches!(verdict, Verdict::Deferred { .. } | Verdict::Reserved { .. }) {
                        self.parked.insert(task, home);
                    }
                    self.sent.submits += 1;
                    Some(seq)
                }
                ServerMsg::Error { seq, .. } => {
                    self.sent.protocol_errors += 1;
                    seq
                }
                ServerMsg::Update { update } => {
                    self.sent.updates_pushed += 1;
                    let task = update.task();
                    assert!(
                        self.parked.contains_key(&task),
                        "connection {:?} got an update for task {task}, not parked on it",
                        self.conn
                    );
                    if update.is_terminal() {
                        self.parked.remove(&task);
                    }
                    None
                }
                _ => None,
            };
            if let Some(seq) = answered {
                assert!(
                    self.answered.insert(seq),
                    "connection {:?} got two answers to seq {seq}",
                    self.conn
                );
            }
        }
    }
}

/// The edge of a world: its reactors (none while it is down), the net and
/// the audit.
pub(crate) struct Edge {
    cfg: EdgeConfig,
    pub(crate) reactors: Vec<EdgeServer<JournaledGateway, Mem>>,
    pub(crate) net: MemNet,
    /// The reactor count, kept across restarts: placement hashes on it.
    n: usize,
    /// Per reactor: the submits its book held when its last turn returned.
    pub(crate) acked: Vec<u64>,
    /// The dead reactors' WAL images.
    pub(crate) images: Vec<Vec<u8>>,
    /// Per reactor, the dead generations' edge throttles.
    throttled: Vec<u64>,
    lines: Vec<Line>,
    /// Per home reactor.
    pub(crate) tally: Vec<Tally>,
    /// Per reactor: the decisions its recovered book holds whose verdicts
    /// never left (the power went after they reached the disk, before the
    /// turn's commit returned). A client that sends such a request again
    /// is decided again.
    orphans: Vec<Tally>,
}

impl Edge {
    /// An edge of `n` reactors on a fresh net, down until
    /// [`revive`](Edge::revive)d.
    pub(crate) fn new(n: usize, cfg: EdgeConfig) -> Self {
        Edge {
            cfg,
            reactors: Vec::new(),
            net: MemNet::default(),
            n,
            acked: vec![0; n],
            images: vec![Vec::new(); n],
            throttled: vec![0; n],
            lines: Vec::new(),
            tally: vec![Tally::default(); n],
            orphans: vec![Tally::default(); n],
        }
    }

    /// The reactors over `heads`, their connection ids past every id the
    /// net has seen.
    pub(crate) fn revive(&mut self, heads: Vec<JournaledGateway>) {
        self.cfg.first_conn_id = self.cfg.first_conn_id.max(self.net.next_conn());
        let transports = self.net.transports(self.n);
        self.reactors = EdgeServer::with_transports(transports, heads, self.cfg);
        self.acked = self.books().map(|m| m.submitted).collect();
        for r in 0..self.n {
            let orphans = self.held(r).less(self.tally[r]);
            self.orphans[r] =
                orphans.unwrap_or_else(|| panic!("reactor {r} came back without a sent verdict"));
        }
    }

    /// What reactor `r`'s book decided and its edge throttled, all
    /// generations.
    fn held(&self, r: usize) -> Tally {
        let reactor = &self.reactors[r];
        let throttled = self.throttled[r] + reactor.stats().edge_throttled;
        Tally::of(reactor.gateway().metrics(), throttled)
    }

    /// The process dies with every reactor and connection; no destructor
    /// runs. What it sent before it died is audited first, so the
    /// comeback's books are held to it.
    pub(crate) fn kill(&mut self) {
        self.audit();
        let reactors = std::mem::take(&mut self.reactors);
        self.images = reactors
            .iter()
            .map(|r| r.gateway().journal().bytes().to_vec())
            .collect();
        for (r, reactor) in reactors.iter().enumerate() {
            self.throttled[r] += reactor.stats().edge_throttled;
        }
        std::mem::forget(reactors);
        self.net.crash();
    }

    fn books(&self) -> impl Iterator<Item = &ServiceMetrics> {
        self.reactors.iter().map(|r| r.gateway().metrics())
    }

    /// Decodes what crossed the net since the last audit and asserts the
    /// per-turn invariants (see the module docs).
    pub(crate) fn audit(&mut self) {
        let (lines, tally) = (&mut self.lines, &mut self.tally);
        self.net.audit(|net| {
            lines.resize_with(net.pipes.len(), Line::default);
            for (i, line) in lines.iter_mut().enumerate() {
                let owner = net.owner(i);
                let pipe = &mut net.pipes[i];
                let (sent, served) = (
                    std::mem::take(&mut pipe.sent),
                    std::mem::take(&mut pipe.served),
                );
                if pipe.link {
                    continue;
                }
                (line.conn, line.registrations) = (pipe.conn, pipe.registrations);
                line.read_client(&sent);
                line.read_server(&served, tally);
                for (task, &decided) in &line.parked {
                    assert!(
                        owner.is_none_or(|r| r == decided),
                        "connection {:?} moved to reactor {owner:?} holding task {task}, \
                         parked on reactor {decided}",
                        line.conn
                    );
                }
            }
        });
        for r in 0..self.reactors.len() {
            let unsent = self
                .held(r)
                .less(self.orphans[r])
                .and_then(|t| t.less(self.tally[r]));
            assert!(
                unsent.is_some(),
                "reactor {r}: a verdict on the wire its book does not hold"
            );
        }
    }

    /// The end of a world: each live reactor's book is the wire's tally for
    /// its tenants, and the live reactors' merged stats are what their
    /// connections carried.
    pub(crate) fn reconcile(&self) {
        for (r, book) in self.books().enumerate() {
            let held = self.held(r).less(self.orphans[r]);
            assert_eq!(
                held,
                Some(self.tally[r]),
                "reactor {r}: the book and the wire differ"
            );
            let decided = Tally::of(book, 0).decided() + book.throttled;
            assert_eq!(
                book.submitted, decided,
                "reactor {r}: every submit has an outcome"
            );
        }
        if self.reactors.is_empty() {
            return; // the edge is down for good
        }
        let stats: Vec<EdgeStats> = self.reactors.iter().map(|r| *r.stats()).collect();
        let stats = EdgeStats::merged(&stats);
        let live: Vec<&Line> = (self.lines.iter())
            .filter(|l| l.conn.is_some_and(|c| c >= self.cfg.first_conn_id))
            .collect();
        let carried = EdgeStats::merged(&live.iter().map(|l| l.sent).collect::<Vec<_>>());
        let count = |f: fn(&EdgeStats) -> u64| (f(&stats), f(&carried));
        for (what, (counted, on_wire)) in [
            ("submits", count(|s| s.submits)),
            ("protocol errors", count(|s| s.protocol_errors)),
            ("updates pushed", count(|s| s.updates_pushed)),
            ("frames sent", count(|s| s.frames_sent)),
        ] {
            assert_eq!(counted, on_wire, "{what}: the edge's count and the wire's");
        }
        assert_eq!(stats.connections_accepted, live.len() as u64);
        let adopted: u64 = live.iter().map(|l| l.registrations - 1).sum();
        assert_eq!(stats.conns_adopted, adopted, "one adoption per hand-off");
    }

    /// The next instant a reactor has timed work due.
    pub(crate) fn next_due(&self) -> Option<SimTime> {
        self.reactors
            .iter()
            .filter_map(|r| r.gateway().next_due())
            .min()
    }
}

/// A [`Client`] playing its requests over the world's net.
pub(crate) struct Session {
    client: Client,
    conn: Option<InlineClient<MemClient>>,
    /// The next request never sent.
    next: usize,
    /// Seqs sent and not answered.
    unanswered: BTreeSet<u64>,
    /// Answered with an `Error`: the client gave up.
    refused: bool,
}

impl Session {
    pub(crate) fn new(client: Client) -> Self {
        Session {
            client,
            conn: None,
            next: 0,
            unanswered: BTreeSet::new(),
            refused: false,
        }
    }

    fn submit(&self, seq: u64) -> ClientMsg {
        let request = self.client.requests[seq as usize];
        ClientMsg::Submit { seq, request }
    }

    /// Every request answered, or the client gave up.
    pub(crate) fn finished(&self) -> bool {
        self.refused || (self.next == self.client.requests.len() && self.unanswered.is_empty())
    }

    /// When the client next has something to do: now while it awaits a
    /// verdict or a connection, else its next request's arrival.
    pub(crate) fn due(&self, now: SimTime) -> Option<SimTime> {
        if self.finished() {
            return None;
        }
        let open = self.conn.as_ref().is_some_and(InlineClient::is_open);
        if !open || !self.unanswered.is_empty() {
            return Some(now);
        }
        Some(self.client.requests[self.next].task.arrival.max(now))
    }

    /// (Re)connects while the edge is `up`, then sends what the window and
    /// the clock allow.
    pub(crate) fn act(&mut self, net: &MemNet, up: bool, now: SimTime) {
        if self.finished() {
            return;
        }
        if up && !self.conn.as_ref().is_some_and(InlineClient::is_open) {
            let mut conn = InlineClient::connect(net);
            if self.client.tenant.is_some() {
                conn.hello(self.client.tenant);
            }
            for &seq in &self.unanswered {
                conn.send(&self.submit(seq));
            }
            self.conn = Some(conn);
        }
        let Some(conn) = &mut self.conn else {
            return;
        };
        while let Some(request) = self.client.requests.get(self.next) {
            if self.unanswered.len() >= self.client.window || request.task.arrival > now {
                break;
            }
            let seq = self.next as u64;
            conn.send(&ClientMsg::Submit {
                seq,
                request: *request,
            });
            self.unanswered.insert(seq);
            self.next += 1;
        }
    }

    /// Reads everything the server sent.
    pub(crate) fn read(&mut self) {
        let Some(conn) = &mut self.conn else {
            return;
        };
        while let Some(msg) = conn.try_next() {
            match msg {
                ServerMsg::Verdict { seq, .. } => drop(self.unanswered.remove(&seq)),
                ServerMsg::Error { .. } => self.refused = true,
                _ => {}
            }
        }
    }
}
