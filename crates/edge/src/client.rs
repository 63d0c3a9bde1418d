//! [`ReplayClient`]: drives an edge server from a request stream over a
//! real socket.
//!
//! The workload crate generates `SubmitRequest` streams (tenancy-annotated
//! task arrivals); the replay client plays any such iterator against a
//! live [`EdgeServer`](crate::server::EdgeServer), windowed so at most
//! `window` submits are ever unanswered, and collects the verdicts plus
//! every pushed [`DecisionUpdate`] into a [`ReplayReport`]. It is both the
//! load generator for the `edge_throughput` bench and the conformance
//! probe for the loopback tests (verdict counts on the client side must
//! reconcile with the gateway book on the server side).

use std::collections::HashSet;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rtdls_core::prelude::{SubmitRequest, TenantId};
use rtdls_service::prelude::{DecisionUpdate, Verdict};

use crate::codec::{Direction, FrameDecoder, DEFAULT_MAX_FRAME};
use crate::proto::{
    decode_server, encode_client, ClientMsg, OpsQuery, OpsReport, ServerMsg, PROTOCOL_VERSION,
};

/// What one replay run observed, from the client's side of the socket.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplayReport {
    /// Submits sent.
    pub submitted: u64,
    /// Immediate admissions.
    pub accepted: u64,
    /// Reservation promises received.
    pub reserved: u64,
    /// Defer tickets received.
    pub deferred: u64,
    /// Terminal rejections.
    pub rejected: u64,
    /// Quota/backpressure refusals.
    pub throttled: u64,
    /// Every pushed update, in arrival order.
    pub updates: Vec<DecisionUpdate>,
    /// Server `Error` messages received.
    pub errors: Vec<String>,
    /// `true` when the run hit its deadline before every submit was
    /// answered (the counts above then cover only what arrived).
    pub timed_out: bool,
}

impl ReplayReport {
    /// Verdicts received, all outcomes.
    pub fn verdicts(&self) -> u64 {
        self.accepted + self.reserved + self.deferred + self.rejected + self.throttled
    }
}

/// One client connection to an edge server. The socket stays blocking
/// with a short read timeout — a client interleaves sends and receives on
/// one thread without a reactor of its own.
struct Link {
    stream: TcpStream,
    decoder: FrameDecoder,
}

fn invalid(reason: impl ToString) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, reason.to_string())
}

impl Link {
    fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(2)))?;
        Ok(Link {
            stream,
            decoder: FrameDecoder::new(DEFAULT_MAX_FRAME),
        })
    }

    /// Binds the connection to `tenant` (`Hello { tenant }`): the edge moves
    /// it to the tenant's home reactor and refuses submits for any other.
    fn bind(&mut self, tenant: TenantId) -> std::io::Result<()> {
        self.send(&ClientMsg::Hello {
            protocol: PROTOCOL_VERSION,
            tenant: Some(tenant),
        })
    }

    /// Writes `msg`'s frame whole: the timeout is the read side's alone,
    /// so a write blocks until done and only a signal cuts one short.
    fn send(&mut self, msg: &ClientMsg) -> std::io::Result<()> {
        self.stream.write_all(&encode_client(msg))
    }

    /// One read into the decoder; `Ok(false)` when the server closed.
    fn read(&mut self) -> std::io::Result<bool> {
        let mut buf = [0u8; 8192];
        match self.stream.read(&mut buf) {
            Ok(0) => return Ok(false),
            Ok(n) => self.decoder.push(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
        Ok(true)
    }

    /// The next whole server message read so far.
    fn next(&mut self) -> std::io::Result<Option<ServerMsg>> {
        match self.decoder.next_frame_ref().map_err(invalid)? {
            None => Ok(None),
            Some((Direction::FromServer, payload)) => {
                decode_server(payload).map(Some).map_err(invalid)
            }
            Some(_) => Err(invalid("misdirected frame from server")),
        }
    }
}

/// A windowed request-stream driver over one TCP connection.
pub struct ReplayClient {
    link: Link,
}

impl ReplayClient {
    /// Connects to an edge server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Link::connect(addr).map(|link| ReplayClient { link })
    }

    /// Binds the connection to `tenant`, which every request played over it
    /// must carry; needed on a multi-reactor edge for a tenant homed away
    /// from the accepting reactor.
    pub fn bind(mut self, tenant: TenantId) -> std::io::Result<Self> {
        self.link.bind(tenant)?;
        Ok(self)
    }

    /// Plays `requests` against the server: at most `window` submits
    /// unanswered at any instant, then — once every verdict arrived —
    /// keeps listening `settle` longer for pushed updates (reservations
    /// resolve on the server's clock, not the stream's), says `Bye`, and
    /// returns the report. `deadline` bounds the whole run; hitting it
    /// sets [`ReplayReport::timed_out`] instead of failing.
    pub fn run(
        mut self,
        requests: impl IntoIterator<Item = SubmitRequest>,
        window: usize,
        settle: Duration,
        deadline: Duration,
    ) -> std::io::Result<ReplayReport> {
        let started = Instant::now();
        let mut report = ReplayReport::default();
        let mut source = requests.into_iter();
        let mut outstanding: HashSet<u64> = HashSet::new();
        let mut exhausted = false;
        self.link.send(&ClientMsg::Hello {
            protocol: PROTOCOL_VERSION,
            tenant: None,
        })?;
        let mut settle_from: Option<Instant> = None;
        loop {
            if started.elapsed() > deadline {
                report.timed_out = true;
                break;
            }
            // Fill the submit window.
            while !exhausted && outstanding.len() < window.max(1) {
                match source.next() {
                    Some(request) => {
                        let seq = report.submitted;
                        self.link.send(&ClientMsg::Submit { seq, request })?;
                        outstanding.insert(seq);
                        report.submitted += 1;
                    }
                    None => exhausted = true,
                }
            }
            // Drain whatever the server has for us.
            let got_any = self.pump(&mut report, &mut outstanding)?;
            let all_answered = exhausted && outstanding.is_empty();
            if all_answered {
                let since = *settle_from.get_or_insert_with(Instant::now);
                if got_any {
                    settle_from = Some(Instant::now());
                } else if since.elapsed() >= settle {
                    break;
                }
            }
        }
        let _ = self.link.send(&ClientMsg::Bye);
        Ok(report)
    }

    /// Reads and applies every available server message; `Ok(true)` when
    /// anything arrived.
    fn pump(
        &mut self,
        report: &mut ReplayReport,
        outstanding: &mut HashSet<u64>,
    ) -> std::io::Result<bool> {
        if !self.link.read()? {
            // Server closed; anything still outstanding never resolves.
            report.timed_out = !outstanding.is_empty();
            outstanding.clear();
        }
        let mut got_any = false;
        while let Some(msg) = self.link.next()? {
            got_any = true;
            match msg {
                ServerMsg::Hello { .. } => {}
                ServerMsg::Verdict { seq, verdict, .. } => {
                    outstanding.remove(&seq);
                    match verdict {
                        Verdict::Accepted => report.accepted += 1,
                        Verdict::Reserved { .. } => report.reserved += 1,
                        Verdict::Deferred { .. } => report.deferred += 1,
                        Verdict::Rejected { .. } => report.rejected += 1,
                        Verdict::Throttled => report.throttled += 1,
                    }
                }
                ServerMsg::Update { update } => report.updates.push(update),
                // A replay run never sends ops queries; a stray report is
                // harmless.
                ServerMsg::OpsReport { .. } => {}
                ServerMsg::Error { message, .. } => report.errors.push(message),
            }
        }
        Ok(got_any)
    }
}

/// A blocking live-ops poller: one [`OpsQuery`] out, one [`OpsReport`]
/// back, over the same protocol and socket discipline as any other client.
/// This is `rtdls-top`'s transport, and works alongside serving traffic —
/// an ops connection is just another connection to the reactor.
pub struct OpsClient {
    link: Link,
}

impl OpsClient {
    /// Connects to an edge server (the same socket discipline as
    /// [`ReplayClient`]).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Link::connect(addr).map(|link| OpsClient { link })
    }

    /// Binds the connection to `tenant`: on a multi-reactor edge, queries
    /// are then answered by the books of the tenant's home reactor.
    pub fn bind(mut self, tenant: TenantId) -> std::io::Result<Self> {
        self.link.bind(tenant)?;
        Ok(self)
    }

    /// Sends one query and waits up to `deadline` for its report. Other
    /// server messages arriving in between (the greeting, stray updates)
    /// are skipped; a server `Error` or an expired deadline is an error.
    pub fn query(&mut self, query: OpsQuery, deadline: Duration) -> std::io::Result<OpsReport> {
        self.link.send(&ClientMsg::Ops { query })?;
        let started = Instant::now();
        loop {
            if started.elapsed() > deadline {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "no ops report before the deadline",
                ));
            }
            if !self.link.read()? {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed before answering",
                ));
            }
            while let Some(msg) = self.link.next()? {
                match msg {
                    ServerMsg::OpsReport { report } => return Ok(report),
                    ServerMsg::Error { message, .. } => {
                        return Err(std::io::Error::other(message));
                    }
                    // Greeting / serving traffic for other flows: skip.
                    _ => {}
                }
            }
        }
    }

    /// The unified metrics snapshot, flattened to scalar samples.
    pub fn stats(
        &mut self,
        deadline: Duration,
    ) -> std::io::Result<Vec<rtdls_telemetry::MetricSample>> {
        match self.query(OpsQuery::Stats, deadline)? {
            OpsReport::Stats { samples, .. } => Ok(samples),
            other => Err(mismatched(other)),
        }
    }

    /// The serving identity from the stats report: the gateway's
    /// promotion epoch and the replication follower's ack lag (`None` =
    /// not replicating / no follower ever acked).
    pub fn identity(&mut self, deadline: Duration) -> std::io::Result<(u64, Option<u64>)> {
        match self.query(OpsQuery::Stats, deadline)? {
            OpsReport::Stats { epoch, ack_lag, .. } => Ok((epoch, ack_lag)),
            other => Err(mismatched(other)),
        }
    }

    /// Recent history of one metric series (empty string = just list what
    /// is available). Returns `(points, available_series)`.
    pub fn history(
        &mut self,
        series: &str,
        range: f64,
        deadline: Duration,
    ) -> std::io::Result<(Vec<rtdls_telemetry::SeriesPoint>, Vec<String>)> {
        let query = OpsQuery::History {
            series: series.to_string(),
            range,
        };
        match self.query(query, deadline)? {
            OpsReport::History {
                points, available, ..
            } => Ok((points, available)),
            other => Err(mismatched(other)),
        }
    }

    /// The hot-path phase tree, path-sorted (empty when telemetry is not
    /// attached on the server).
    pub fn profile(
        &mut self,
        deadline: Duration,
    ) -> std::io::Result<Vec<rtdls_telemetry::PhaseProfile>> {
        match self.query(OpsQuery::Profile, deadline)? {
            OpsReport::Profile { phases } => Ok(phases),
            other => Err(mismatched(other)),
        }
    }

    /// One trace's recorded timeline, seq order.
    pub fn trace(
        &mut self,
        id: u64,
        deadline: Duration,
    ) -> std::io::Result<Vec<rtdls_telemetry::Span>> {
        match self.query(OpsQuery::Trace { id }, deadline)? {
            OpsReport::Trace { spans, .. } => Ok(spans),
            other => Err(mismatched(other)),
        }
    }

    /// Recently active trace ids, newest last.
    pub fn recent_traces(&mut self, deadline: Duration) -> std::io::Result<Vec<u64>> {
        match self.query(OpsQuery::RecentTraces, deadline)? {
            OpsReport::RecentTraces { traces } => Ok(traces),
            other => Err(mismatched(other)),
        }
    }

    /// The deadline-SLO status table, tenants before QoS aggregates.
    pub fn slo(
        &mut self,
        deadline: Duration,
    ) -> std::io::Result<Vec<rtdls_service::prelude::SloStatusRow>> {
        match self.query(OpsQuery::Slo, deadline)? {
            OpsReport::Slo { rows } => Ok(rows),
            other => Err(mismatched(other)),
        }
    }

    /// A what-if admission probe: why would `request` fail right now?
    /// `None` = admissible as-is. Nothing is submitted or journaled.
    pub fn explain(
        &mut self,
        request: &rtdls_core::prelude::SubmitRequest,
        deadline: Duration,
    ) -> std::io::Result<Option<rtdls_core::prelude::AdmissionExplanation>> {
        match self.query(OpsQuery::Explain { request: *request }, deadline)? {
            OpsReport::Explain { explanation, .. } => Ok(explanation),
            other => Err(mismatched(other)),
        }
    }
}

fn mismatched(got: OpsReport) -> std::io::Error {
    invalid(format!("ops report does not answer the query: {got:?}"))
}
