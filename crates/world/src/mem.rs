//! Driving an edge reactor inline, one turn at a time, at instants the
//! caller chooses.
//!
//! * [`Mem`] — a deterministic in-memory [`Transport`]: connections are
//!   pairs of byte queues, readiness is computed from them on every wait,
//!   and a wait never blocks. What the reactor writes is readable by the
//!   client the moment the turn returns, and what the client sends is
//!   readable at the next turn, so a test needs no sleeps, read timeouts
//!   or retries against the kernel's timing.
//! * [`InlineClient`] — speaks the wire protocol over either transport's
//!   client end ([`MemClient`] or a non-blocking loopback `TcpStream`),
//!   turning the server until the next message arrives, and keeps every
//!   byte it received (the transport-differential test compares them).

use std::collections::VecDeque;
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};

use rtdls_core::prelude::SimTime;
use rtdls_edge::codec::{FrameDecoder, DEFAULT_MAX_FRAME};
use rtdls_edge::poll::{Event, Transport, LISTENER_TOKEN};
use rtdls_edge::prelude::*;
use rtdls_edge::proto::{decode_server, encode_client};

/// Bytes one connection buffers from server to client before the server's
/// writes block — a loopback socket's order of magnitude, so a client
/// that stops reading wedges the write path within a few dozen reports.
pub const MEM_BUFFER: usize = 64 << 10;

/// One connection: a byte queue each way and who has closed it.
#[derive(Default)]
struct Pipe {
    to_server: VecDeque<u8>,
    to_client: VecDeque<u8>,
    client_closed: bool,
    server_closed: bool,
}

/// The world both ends share.
#[derive(Default)]
struct Net {
    pipes: Vec<Pipe>,
    /// Connections made and not yet accepted.
    backlog: VecDeque<usize>,
    /// Registered streams: (pipe, token, write interest).
    watched: Vec<(usize, u64, bool)>,
}

#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Net>>);

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Net> {
        self.0.lock().expect("in-memory net")
    }
}

/// The reactor's side: the in-memory [`Transport`], holding the listener.
pub struct Mem {
    net: Shared,
    events: Vec<Event>,
}

/// The clients' side of a [`Mem`]: connects, like a listener's address.
#[derive(Clone)]
pub struct MemNet(Shared);

impl Mem {
    /// A transport and the handle clients connect through.
    pub fn new() -> (Mem, MemNet) {
        let net = Shared::default();
        let mem = Mem {
            net: net.clone(),
            events: Vec::new(),
        };
        (mem, MemNet(net))
    }
}

/// A lone reactor serving `gateway` over a fresh [`Mem`].
pub fn mem_server<G: EdgeGateway>(gateway: G, cfg: EdgeConfig) -> (EdgeServer<G, Mem>, MemNet) {
    let (mem, net) = Mem::new();
    (EdgeServer::with_transport(mem, gateway, cfg), net)
}

impl MemNet {
    /// Opens a connection; the reactor accepts it at its next turn.
    pub fn connect(&self) -> MemClient {
        let mut net = self.0.lock();
        net.pipes.push(Pipe::default());
        let pipe = net.pipes.len() - 1;
        net.backlog.push_back(pipe);
        MemClient {
            net: self.0.clone(),
            pipe,
        }
    }
}

/// The reactor's end of one connection.
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
        net.watched.retain(|w| w.0 != self.pipe);
    }
}

impl Transport for Mem {
    type Stream = MemStream;
    type Waker = ();

    /// Never blocks: a test's turn is its own.
    fn wait(&mut self, _timeout_ms: i32) -> io::Result<&[Event]> {
        let net = self.net.lock();
        self.events.clear();
        if !net.backlog.is_empty() {
            self.events.push(Event {
                token: LISTENER_TOKEN,
                readable: true,
                writable: false,
            });
        }
        for &(pipe, token, want_write) in &net.watched {
            let p = &net.pipes[pipe];
            let readable = !p.to_server.is_empty() || p.client_closed;
            let writable = want_write && (p.to_client.len() < MEM_BUFFER || p.client_closed);
            if readable || writable {
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
        let pipe = self.net.lock().backlog.pop_front();
        let pipe = pipe.ok_or(ErrorKind::WouldBlock)?;
        Ok(MemStream {
            net: self.net.clone(),
            pipe,
        })
    }

    fn register(&mut self, stream: &MemStream, token: u64) -> io::Result<()> {
        self.net.lock().watched.push((stream.pipe, token, false));
        Ok(())
    }

    fn set_write_interest(
        &mut self,
        stream: &MemStream,
        _token: u64,
        want_write: bool,
    ) -> io::Result<()> {
        let mut net = self.net.lock();
        let watch = net.watched.iter_mut().find(|w| w.0 == stream.pipe);
        watch.ok_or(ErrorKind::NotFound)?.2 = want_write;
        Ok(())
    }

    fn deregister(&mut self, stream: &MemStream) {
        self.net.lock().watched.retain(|w| w.0 != stream.pipe);
    }

    fn shutdown(&mut self, stream: &MemStream) {
        self.net.lock().pipes[stream.pipe].server_closed = true;
    }

    fn waker(&self) {}

    fn wake(_: &()) {}
}

/// The client's end of one in-memory connection; dropping it hangs up.
pub struct MemClient {
    net: Shared,
    pipe: usize,
}

impl MemClient {
    /// A read-only view of what this connection has been sent and not yet
    /// read — without consuming it, and without hanging up when dropped.
    pub fn probe(&self) -> Probe {
        Probe {
            net: self.net.clone(),
            pipe: self.pipe,
        }
    }
}

impl Drop for MemClient {
    fn drop(&mut self) {
        self.net.lock().pipes[self.pipe].client_closed = true;
    }
}

/// See [`MemClient::probe`].
pub struct Probe {
    net: Shared,
    pipe: usize,
}

impl Probe {
    /// Bytes the server sent that the client has not read.
    pub fn readable(&self) -> usize {
        self.net.lock().pipes[self.pipe].to_client.len()
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
        self.net.lock().pipes[self.pipe].to_server.extend(bytes);
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

    /// Sends raw bytes (a hostile or malformed peer).
    pub fn send_raw(&mut self, bytes: &[u8]) {
        self.end.send(bytes);
    }

    /// Moves what has arrived into the decoder; whether anything did.
    fn pull(&mut self) -> bool {
        let before = self.received.len();
        self.open = self.end.receive(&mut self.received);
        self.decoder.push(&self.received[before..]);
        self.received.len() > before
    }

    /// The next complete message already received, if any.
    pub fn try_next(&mut self) -> Option<ServerMsg> {
        self.pull();
        let (_, payload) = self.decoder.next_frame_ref().unwrap()?;
        Some(decode_server(payload).unwrap())
    }

    /// Turns the server at `now` until one message arrives (or panics).
    pub fn recv<G: EdgeGateway, T: Transport>(
        &mut self,
        server: &mut EdgeServer<G, T>,
        now: SimTime,
    ) -> ServerMsg {
        for _ in 0..TURNS {
            if let Some(msg) = self.try_next() {
                return msg;
            }
            assert!(self.open, "server closed the connection");
            server.poll(now);
        }
        panic!("no message within {TURNS} turns");
    }

    /// Turns the server at `now` until it closes this connection, reading
    /// whatever it still sends; whether it closed.
    pub fn closed<G: EdgeGateway, T: Transport>(
        &mut self,
        server: &mut EdgeServer<G, T>,
        now: SimTime,
    ) -> bool {
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
