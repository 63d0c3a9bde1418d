//! The in-memory net an edge runs on inside the world, and the clients
//! that speak to it one turn at a time, at instants the caller chooses.
//!
//! * [`MemNet`] — one deterministic net: connections are pairs of byte
//!   queues, and [`MemNet::transports`] gives a group of reactors one
//!   [`Mem`] [`Transport`] each, reactor 0's holding the listener (the
//!   group is built by `EdgeServer::with_transports`). Readiness is
//!   computed from the queues on every wait, and a wait never blocks: what
//!   a reactor writes is readable by the client the moment its turn
//!   returns, and what the client sends is readable at the next turn, so a
//!   test needs no threads, sleeps, read timeouts or retries. Every byte
//!   sent either way is also kept for the world's audit of the wire, and
//!   [`MemNet::link`] makes the follower link `EdgeServer::follow` takes.
//! * [`InlineClient`] — speaks the wire protocol over either transport's
//!   client end ([`MemClient`] or a non-blocking loopback `TcpStream`),
//!   turning the server (an [`Edge`]: one reactor, or a world) until the
//!   next message arrives, and keeps every byte it received (the
//!   transport-differential test compares them).

use std::collections::VecDeque;
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rtdls_core::prelude::{SimTime, SubmitRequest, TenantId};
use rtdls_edge::codec::{FrameDecoder, DEFAULT_MAX_FRAME};
use rtdls_edge::poll::{Event, Transport, LISTENER_TOKEN};
use rtdls_edge::prelude::*;
use rtdls_edge::proto::{decode_server, encode_client, OpsQuery, OpsReport};
use rtdls_service::prelude::Verdict;

/// Bytes one connection buffers from server to client before the server's
/// writes block — a loopback socket's order of magnitude, so a client
/// that stops reading wedges the write path within a few dozen reports.
pub const MEM_BUFFER: usize = 64 << 10;

/// One connection: a byte queue each way, who has closed it, and what
/// crossed it that the world has not audited yet.
#[derive(Default)]
pub(crate) struct Pipe {
    to_server: VecDeque<u8>,
    to_client: VecDeque<u8>,
    client_closed: bool,
    server_closed: bool,
    /// A follower link, not a client connection: the world audits no
    /// protocol on it.
    pub(crate) link: bool,
    /// The connection id a reactor registered it under, and how many
    /// reactors did (one more per hand-off).
    pub(crate) conn: Option<u64>,
    pub(crate) registrations: u64,
    pub(crate) sent: Vec<u8>,
    pub(crate) served: Vec<u8>,
}

/// The world every end shares.
#[derive(Default)]
pub(crate) struct Net {
    pub(crate) pipes: Vec<Pipe>,
    /// Connections made and not yet accepted.
    backlog: VecDeque<usize>,
    /// Registered streams: (reactor, pipe, token, write interest).
    watched: Vec<(usize, usize, u64, bool)>,
}

impl Net {
    /// The reactor whose transport watches `pipe`, if one does.
    pub(crate) fn owner(&self, pipe: usize) -> Option<usize> {
        self.watched.iter().find(|w| w.1 == pipe).map(|w| w.0)
    }
}

#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Net>>);

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Net> {
        // A failed audit panics holding the lock; the streams' destructors
        // still run after it.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One reactor's side of a [`MemNet`]: its [`Transport`], and the
/// listener when it is reactor 0.
pub struct Mem {
    net: Shared,
    reactor: usize,
    events: Vec<Event>,
}

/// The in-memory net: clients connect through it, like a listener's
/// address, and a group of reactors serves it.
#[derive(Clone, Default)]
pub struct MemNet(Shared);

impl MemNet {
    /// One transport per reactor of a group of `reactors`, in reactor
    /// order; reactor 0's accepts every connection.
    pub fn transports(&self, reactors: usize) -> Vec<Mem> {
        let mem = |reactor| Mem {
            net: self.0.clone(),
            reactor,
            events: Vec::new(),
        };
        (0..reactors).map(mem).collect()
    }

    /// Opens a connection; reactor 0 accepts it at its next turn.
    pub fn connect(&self) -> MemClient {
        let pipe = self.pipe(false);
        self.0.lock().backlog.push_back(pipe);
        MemClient {
            net: self.0.clone(),
            pipe,
        }
    }

    /// A follower link: the primary's end, for `EdgeServer::follow`, and
    /// the standby's.
    pub fn link(&self) -> (MemStream, MemClient) {
        let pipe = self.pipe(true);
        let net = self.0.clone();
        let end = MemClient {
            net: net.clone(),
            pipe,
        };
        (MemStream { net, pipe }, end)
    }

    fn pipe(&self, link: bool) -> usize {
        let mut net = self.0.lock();
        net.pipes.push(Pipe {
            link,
            ..Pipe::default()
        });
        net.pipes.len() - 1
    }

    /// The serving process died: the reactors' transports are gone, every
    /// connection (accepted or not) is closed from the server's side, and
    /// what the server had written is still readable, as a kernel still
    /// delivers what a dead process wrote to its sockets.
    pub(crate) fn crash(&self) {
        let mut net = self.0.lock();
        net.backlog.clear();
        net.watched.clear();
        for pipe in &mut net.pipes {
            pipe.to_server.clear();
            pipe.server_closed = true;
        }
    }

    /// Runs `audit` over the net, for the world's audit of the wire.
    pub(crate) fn audit<T>(&self, audit: impl FnOnce(&mut Net) -> T) -> T {
        audit(&mut self.0.lock())
    }

    /// One past the highest connection id any reactor registered: where a
    /// restarted edge's ids start.
    pub(crate) fn next_conn(&self) -> u64 {
        let net = self.0.lock();
        net.pipes
            .iter()
            .filter_map(|p| p.conn)
            .max()
            .map_or(0, |c| c + 1)
    }
}

/// A reactor's end of one connection (or of a follower link).
pub struct MemStream {
    net: Shared,
    pipe: usize,
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut net = self.net.lock();
        let pipe = &mut net.pipes[self.pipe];
        if pipe.to_server.is_empty() {
            return match pipe.client_closed {
                true => Ok(0),
                false => Err(ErrorKind::WouldBlock.into()),
            };
        }
        let n = pipe.to_server.len().min(buf.len());
        for (slot, byte) in buf.iter_mut().zip(pipe.to_server.drain(..n)) {
            *slot = byte;
        }
        Ok(n)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    /// Takes as much of the slices, in order, as the client's buffer has
    /// room for — a socket's `writev`.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let mut net = self.net.lock();
        let pipe = &mut net.pipes[self.pipe];
        if pipe.client_closed || pipe.server_closed {
            return Err(ErrorKind::BrokenPipe.into());
        }
        let room = MEM_BUFFER - pipe.to_client.len();
        if room == 0 {
            return Err(ErrorKind::WouldBlock.into());
        }
        let mut written = 0;
        for buf in bufs {
            let take = buf.len().min(room - written);
            pipe.to_client.extend(&buf[..take]);
            pipe.served.extend_from_slice(&buf[..take]);
            written += take;
        }
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for MemStream {
    /// The reactor closed the stream: it leaves the watch list, and the
    /// client reads EOF once it has read what was sent.
    fn drop(&mut self) {
        let mut net = self.net.lock();
        net.pipes[self.pipe].server_closed = true;
        net.watched.retain(|w| w.1 != self.pipe);
    }
}

impl Transport for Mem {
    type Stream = MemStream;
    type Waker = ();

    /// Never blocks: a test's turn is its own.
    fn wait(&mut self, _timeout_ms: i32) -> io::Result<&[Event]> {
        let net = self.net.lock();
        self.events.clear();
        if self.reactor == 0 && !net.backlog.is_empty() {
            self.events.push(Event {
                token: LISTENER_TOKEN,
                readable: true,
                writable: false,
            });
        }
        for &(reactor, pipe, token, want_write) in &net.watched {
            let p = &net.pipes[pipe];
            let readable = !p.to_server.is_empty() || p.client_closed;
            let writable = want_write && (p.to_client.len() < MEM_BUFFER || p.client_closed);
            if reactor == self.reactor && (readable || writable) {
                self.events.push(Event {
                    token,
                    readable,
                    writable,
                });
            }
        }
        Ok(&self.events)
    }

    fn accept(&mut self) -> io::Result<MemStream> {
        let pipe = match self.reactor {
            0 => self.net.lock().backlog.pop_front(),
            _ => None,
        };
        let pipe = pipe.ok_or(ErrorKind::WouldBlock)?;
        Ok(MemStream {
            net: self.net.clone(),
            pipe,
        })
    }

    fn register(&mut self, stream: &MemStream, token: u64) -> io::Result<()> {
        let mut net = self.net.lock();
        let pipe = &mut net.pipes[stream.pipe];
        if !pipe.link {
            (pipe.conn, pipe.registrations) = (Some(token), pipe.registrations + 1);
        }
        net.watched.push((self.reactor, stream.pipe, token, false));
        Ok(())
    }

    fn set_write_interest(
        &mut self,
        stream: &MemStream,
        _token: u64,
        want_write: bool,
    ) -> io::Result<()> {
        let mut net = self.net.lock();
        let watch = net.watched.iter_mut().find(|w| w.1 == stream.pipe);
        watch.ok_or(ErrorKind::NotFound)?.3 = want_write;
        Ok(())
    }

    fn deregister(&mut self, stream: &MemStream) {
        self.net.lock().watched.retain(|w| w.1 != stream.pipe);
    }

    fn shutdown(&mut self, stream: &MemStream) {
        self.net.lock().pipes[stream.pipe].server_closed = true;
    }

    fn waker(&self) {}

    fn wake(_: &()) {}
}

/// The client's end of one in-memory connection (or a standby's end of a
/// follower link); dropping it hangs up.
pub struct MemClient {
    net: Shared,
    pipe: usize,
}

impl Drop for MemClient {
    fn drop(&mut self) {
        self.net.lock().pipes[self.pipe].client_closed = true;
    }
}

/// A client's end of a connection, on either transport.
pub trait ClientEnd {
    /// Sends all of `bytes`.
    fn send(&mut self, bytes: &[u8]);
    /// Appends what the server has sent to `into`; `false` once the server
    /// has closed the connection and everything it sent was read.
    fn receive(&mut self, into: &mut Vec<u8>) -> bool;
}

impl ClientEnd for MemClient {
    fn send(&mut self, bytes: &[u8]) {
        let mut net = self.net.lock();
        let pipe = &mut net.pipes[self.pipe];
        pipe.to_server.extend(bytes);
        pipe.sent.extend_from_slice(bytes);
    }

    fn receive(&mut self, into: &mut Vec<u8>) -> bool {
        let mut net = self.net.lock();
        let pipe = &mut net.pipes[self.pipe];
        into.extend(pipe.to_client.drain(..));
        !pipe.server_closed
    }
}

/// A non-blocking loopback socket: what the kernel has delivered so far.
impl ClientEnd for TcpStream {
    fn send(&mut self, bytes: &[u8]) {
        self.set_nonblocking(false).unwrap();
        self.write_all(bytes).unwrap();
        self.set_nonblocking(true).unwrap();
    }

    fn receive(&mut self, into: &mut Vec<u8>) -> bool {
        let mut buf = [0u8; 8192];
        loop {
            match self.read(&mut buf) {
                Ok(0) => return false,
                Ok(n) => into.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::ConnectionReset => return false,
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }
}

/// Where an [`InlineClient`] connects: a [`MemNet`], or an epoll server's
/// address.
pub trait Dial {
    /// The client's end of a connection.
    type End: ClientEnd;
    /// Opens one connection.
    fn dial(&self) -> Self::End;
}

impl Dial for MemNet {
    type End = MemClient;
    fn dial(&self) -> MemClient {
        self.connect()
    }
}

impl Dial for SocketAddr {
    type End = TcpStream;
    fn dial(&self) -> TcpStream {
        let stream = TcpStream::connect(self).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_nonblocking(true).unwrap();
        stream
    }
}

/// What an [`InlineClient`] turns while it waits: one reactor, or a
/// world's edge (every reactor, then the world's audit).
pub trait Edge {
    /// One turn at `now`.
    fn poll(&mut self, now: SimTime);
}

impl<G: EdgeGateway, T: Transport> Edge for EdgeServer<G, T> {
    fn poll(&mut self, now: SimTime) {
        EdgeServer::poll(self, now)
    }
}

/// Turns the server gets to produce a message before `recv` gives up: one
/// is enough in memory; loopback TCP may need a few more while the kernel
/// moves the bytes.
const TURNS: usize = 100_000;

/// Speaks the wire protocol to a server the test turns by hand: `recv`
/// polls the server at the instant given until one message arrives.
pub struct InlineClient<E: ClientEnd> {
    /// The connection's client end.
    pub end: E,
    decoder: FrameDecoder,
    /// Every byte the server sent, in order.
    pub received: Vec<u8>,
    open: bool,
}

impl<E: ClientEnd> InlineClient<E> {
    /// Opens a connection to `to`.
    pub fn connect(to: &impl Dial<End = E>) -> Self {
        InlineClient {
            end: to.dial(),
            decoder: FrameDecoder::new(DEFAULT_MAX_FRAME),
            received: Vec::new(),
            open: true,
        }
    }

    /// Sends one message.
    pub fn send(&mut self, msg: &ClientMsg) {
        self.end.send(&encode_client(msg));
    }

    /// Sends the client's `Hello`, bound to `tenant` when given.
    pub fn hello(&mut self, tenant: Option<TenantId>) {
        let protocol = PROTOCOL_VERSION;
        self.send(&ClientMsg::Hello { protocol, tenant });
    }

    /// Sends raw bytes (a hostile or malformed peer).
    pub fn send_raw(&mut self, bytes: &[u8]) {
        self.end.send(bytes);
    }

    /// Whether the server had not closed the connection when it was last
    /// read.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Moves what has arrived into the decoder.
    fn pull(&mut self) {
        let before = self.received.len();
        self.open = self.end.receive(&mut self.received);
        self.decoder.push(&self.received[before..]);
    }

    /// The next complete message already received, if any.
    pub fn try_next(&mut self) -> Option<ServerMsg> {
        self.pull();
        let (_, payload) = self.decoder.next_frame_ref().unwrap()?;
        Some(decode_server(payload).unwrap())
    }

    /// Turns the server at `now` until one message arrives (or panics).
    pub fn recv(&mut self, server: &mut impl Edge, now: SimTime) -> ServerMsg {
        for _ in 0..TURNS {
            if let Some(msg) = self.try_next() {
                return msg;
            }
            assert!(self.open, "server closed the connection");
            server.poll(now);
        }
        panic!("no message within {TURNS} turns");
    }

    /// Opens a connection to `to` and turns `server` at `now` until its
    /// `Hello` arrives.
    pub fn greeted(to: &impl Dial<End = E>, server: &mut impl Edge, now: SimTime) -> Self {
        let mut client = Self::connect(to);
        let msg = client.recv(server, now);
        let hello = ServerMsg::Hello {
            protocol: PROTOCOL_VERSION,
        };
        assert_eq!(msg, hello, "the server greets first");
        client
    }

    /// Sends `msg`, then turns the server at `now` until a message arrives.
    pub fn ask(&mut self, msg: &ClientMsg, server: &mut impl Edge, now: SimTime) -> ServerMsg {
        self.send(msg);
        self.recv(server, now)
    }

    /// Submits `request` as `seq`; its verdict, which must be the next
    /// message.
    pub fn submit(
        &mut self,
        seq: u64,
        request: SubmitRequest,
        server: &mut impl Edge,
        now: SimTime,
    ) -> Verdict {
        match self.ask(&ClientMsg::Submit { seq, request }, server, now) {
            ServerMsg::Verdict {
                seq: s,
                task,
                verdict,
            } if s == seq => {
                assert_eq!(task, request.task.id.0, "seq {seq}'s verdict");
                verdict
            }
            other => panic!("expected seq {seq}'s verdict, got {other:?}"),
        }
    }

    /// Asks an ops `query`; its report, which must be the next message.
    pub fn ops(&mut self, query: OpsQuery, server: &mut impl Edge, now: SimTime) -> OpsReport {
        match self.ask(&ClientMsg::Ops { query }, server, now) {
            ServerMsg::OpsReport { report } => report,
            other => panic!("expected an ops report, got {other:?}"),
        }
    }

    /// Turns the server at `now` until it closes this connection, reading
    /// whatever it still sends; whether it closed.
    pub fn closed(&mut self, server: &mut impl Edge, now: SimTime) -> bool {
        for _ in 0..TURNS {
            self.pull();
            if !self.open {
                return true;
            }
            server.poll(now);
        }
        false
    }
}
