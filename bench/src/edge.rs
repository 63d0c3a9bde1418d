//! The socket side of the `edge_*` workloads: a reactor thread the
//! benchmark owns, and a closed-loop generator on the calling thread.
//!
//! **Closed loop, one client, fixed window, saturating.** The generator
//! writes `window` pre-encoded frames in one `write`, spins on the
//! non-blocking socket until all `window` verdicts are back, and writes the
//! next batch. Every reactor turn therefore sees exactly `window`
//! same-instant submits, which is what pins the regime: the same frames
//! produce the same verdicts in every block. The generator fully decodes
//! only every 16th reply; the rest are frame-checked (magic, length,
//! checksum) by the codec and read by a prefix scanner, so the reactor —
//! not the harness — is the busy side.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rtdls::core::prelude::{SimTime, SubmitRequest};
use rtdls::edge::codec::{Direction, FrameDecoder, DEFAULT_MAX_FRAME};
use rtdls::edge::proto::{decode_server, encode_client, ClientMsg, ServerMsg};
use rtdls::edge::{EdgeClock, EdgeConfig, EdgeGateway, EdgeServer, EdgeStats};
use rtdls::service::prelude::Verdict;

use crate::inputs::EDGE_CLOCK_SCALE;
use crate::sys;

/// Every `DECODE_STRIDE`-th reply is fully decoded in a timed block (and
/// compared with what the prefix scanner read).
const DECODE_STRIDE: u64 = 16;

/// A block that sees no byte from the server for this long is abandoned
/// and its unanswered submits counted as failed.
const STALL: Duration = Duration::from_secs(2);

/// Verdict counts, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub accepted: u64,
    pub reserved: u64,
    pub deferred: u64,
    pub rejected: u64,
    pub throttled: u64,
}

impl Tally {
    pub fn total(&self) -> u64 {
        self.accepted + self.reserved + self.deferred + self.rejected + self.throttled
    }

    pub fn count(&mut self, kind: VerdictKind) {
        match kind {
            VerdictKind::Accepted => self.accepted += 1,
            VerdictKind::Reserved => self.reserved += 1,
            VerdictKind::Deferred => self.deferred += 1,
            VerdictKind::Rejected => self.rejected += 1,
            VerdictKind::Throttled => self.throttled += 1,
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.accepted += other.accepted;
        self.reserved += other.reserved;
        self.deferred += other.deferred;
        self.rejected += other.rejected;
        self.throttled += other.throttled;
    }

    /// `[accepted, reserved, deferred, rejected, throttled]`.
    pub fn as_array(&self) -> [u64; 5] {
        [
            self.accepted,
            self.reserved,
            self.deferred,
            self.rejected,
            self.throttled,
        ]
    }
}

/// The five verdict kinds, without their payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerdictKind {
    Accepted,
    Reserved,
    Deferred,
    Rejected,
    Throttled,
}

impl VerdictKind {
    pub fn of(verdict: &Verdict) -> Self {
        match verdict {
            Verdict::Accepted => VerdictKind::Accepted,
            Verdict::Reserved { .. } => VerdictKind::Reserved,
            Verdict::Deferred { .. } => VerdictKind::Deferred,
            Verdict::Rejected { .. } => VerdictKind::Rejected,
            Verdict::Throttled => VerdictKind::Throttled,
        }
    }
}

/// What one server frame is, as far as the generator's books care.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reply {
    Verdict { seq: u64, kind: VerdictKind },
    Update { terminal: bool },
    Hello,
    Error,
    Other,
}

fn classify(msg: &ServerMsg) -> Reply {
    match msg {
        ServerMsg::Verdict { seq, verdict, .. } => Reply::Verdict {
            seq: *seq,
            kind: VerdictKind::of(verdict),
        },
        ServerMsg::Update { update } => Reply::Update {
            terminal: update.is_terminal(),
        },
        ServerMsg::Hello { .. } => Reply::Hello,
        ServerMsg::Error { .. } => Reply::Error,
        ServerMsg::OpsReport { .. } => Reply::Other,
    }
}

/// Reads a verdict frame's `seq` and kind from the payload's leading bytes
/// without building the message. `None` when the payload is anything else
/// (or the wire format changed): the caller then decodes it in full.
fn scan_verdict(payload: &[u8]) -> Option<Reply> {
    let rest = payload.strip_prefix(b"{\"Verdict\":{\"seq\":")?;
    let (seq, rest) = scan_u64(rest)?;
    let rest = rest.strip_prefix(b",\"task\":")?;
    let (_task, rest) = scan_u64(rest)?;
    let rest = rest.strip_prefix(b",\"verdict\":")?;
    let kind = if rest.starts_with(b"\"Accepted\"") {
        VerdictKind::Accepted
    } else if rest.starts_with(b"{\"Deferred\"") {
        VerdictKind::Deferred
    } else if rest.starts_with(b"{\"Rejected\"") {
        VerdictKind::Rejected
    } else if rest.starts_with(b"{\"Reserved\"") {
        VerdictKind::Reserved
    } else if rest.starts_with(b"\"Throttled\"") {
        VerdictKind::Throttled
    } else {
        return None;
    };
    Some(Reply::Verdict { seq, kind })
}

fn scan_u64(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let digits = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
    if digits == 0 || digits > 19 {
        return None;
    }
    let value = bytes[..digits]
        .iter()
        .fold(0u64, |acc, b| acc * 10 + u64::from(b - b'0'));
    Some((value, &bytes[digits..]))
}

/// The request stream of a socket workload, encoded once in set-up.
pub struct Frames {
    /// Every submit frame back to back, `seq` = position in the stream.
    bytes: Vec<u8>,
    /// `bytes[ends[i-1]..ends[i]]` is frame `i`.
    ends: Vec<usize>,
}

impl Frames {
    pub fn encode(requests: &[SubmitRequest]) -> Frames {
        let frame = |seq: usize, request: &SubmitRequest| {
            encode_client(&ClientMsg::Submit {
                seq: seq as u64,
                request: *request,
            })
        };
        // Sized up front from the longest-looking frame: a buffer that
        // grows by reallocation makes the process's peak memory depend on
        // whether the allocator could extend it in place.
        let widest = requests
            .last()
            .map_or(0, |r| frame(requests.len(), r).len());
        let mut bytes = Vec::with_capacity((widest + 32) * requests.len());
        let mut ends = Vec::with_capacity(requests.len());
        for (seq, request) in requests.iter().enumerate() {
            bytes.extend_from_slice(&frame(seq, request));
            ends.push(bytes.len());
        }
        Frames { bytes, ends }
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// The bytes of frames `from..to`.
    fn span(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        &self.bytes[start..self.ends[to - 1]]
    }
}

/// What one replay of the frames over a fresh connection observed.
#[derive(Clone, Debug, Default)]
pub struct ReplayOutcome {
    /// First write → last awaited frame, nanoseconds.
    pub wall_ns: u64,
    /// Process CPU over the same section.
    pub process_cpu_ns: u64,
    /// Generator (calling) thread CPU over the same section.
    pub generator_cpu_ns: u64,
    /// Submits written.
    pub sent: u64,
    /// Verdicts received, by kind.
    pub tally: Tally,
    /// Verdicts whose round trip met the limit.
    pub within_limit: u64,
    /// Pushed updates received (terminal or not).
    pub updates: u64,
    /// Terminal updates received.
    pub terminal_updates: u64,
    /// `Error` frames, undecodable frames, scanner/decoder disagreements,
    /// duplicate or unknown `seq`s.
    pub violations: u64,
    /// Round trip of every verdict, nanoseconds (kept when asked for).
    pub rtts_ns: Vec<u32>,
}

impl ReplayOutcome {
    /// Submits that never got their verdict, plus protocol violations.
    pub fn failed(&self) -> u64 {
        self.sent - self.tally.total().min(self.sent) + self.violations
    }
}

/// How a replay treats replies.
#[derive(Clone, Copy, Debug)]
pub struct ReplayMode {
    /// Fully decode every reply (the check pass) instead of every 16th.
    pub decode_all: bool,
    /// Keep every round trip for percentiles.
    pub keep_rtts: bool,
    /// Round-trip limit in nanoseconds.
    pub limit_ns: u64,
    /// Spin on an empty socket (the generator has a CPU of its own) or
    /// yield (it shares one with the reactor).
    pub spin: bool,
}

/// Replays `frames` over a fresh connection to `addr`, `window` at a time.
pub fn replay(
    addr: SocketAddr,
    frames: &Frames,
    window: usize,
    mode: ReplayMode,
) -> std::io::Result<ReplayOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let mut conn = Conn {
        decoder: FrameDecoder::new(DEFAULT_MAX_FRAME),
        seen: vec![false; frames.len()],
        frames_read: 0,
        hellos: 0,
        mode,
        out: ReplayOutcome::default(),
        spin: mode.spin,
    };
    if mode.keep_rtts {
        conn.out.rtts_ns.reserve(frames.len());
    }
    // The server greets first; wait for it so the timed section starts on
    // an established, idle connection.
    if !conn.wait(&mut stream, Instant::now(), |c| c.hellos >= 1)? {
        return Err(ErrorKind::TimedOut.into());
    }

    let wall = Instant::now();
    let process_cpu = sys::process_cpu_ns();
    let generator_cpu = sys::thread_cpu_ns();
    // Lock-step: one window out, all of it answered, the next window out.
    let mut next = 0;
    while next < frames.len() {
        let end = (next + window).min(frames.len());
        let sent_at = Instant::now();
        conn.write_all(&mut stream, frames.span(next, end))?;
        conn.out.sent = end as u64;
        if !conn.wait(&mut stream, sent_at, |c| c.out.tally.total() >= end as u64)? {
            break; // stalled: the rest of the stream counts as failed
        }
        next = end;
    }
    // Parked submits resolve on later turns; the block is over when every
    // one of them has its terminal update. One that never comes is a
    // failed op.
    let parked = conn.out.tally.deferred + conn.out.tally.reserved;
    if !conn.wait(&mut stream, Instant::now(), |c| {
        c.out.terminal_updates >= parked
    })? {
        conn.out.violations += parked - conn.out.terminal_updates;
    }
    conn.out.wall_ns = wall.elapsed().as_nanos() as u64;
    conn.out.process_cpu_ns = sys::process_cpu_ns() - process_cpu;
    conn.out.generator_cpu_ns = sys::thread_cpu_ns() - generator_cpu;
    let _ = stream.set_nonblocking(false);
    let _ = stream.write_all(&encode_client(&ClientMsg::Bye));
    Ok(conn.out)
}

struct Conn {
    decoder: FrameDecoder,
    /// `seen[seq]`: a verdict for `seq` arrived (exactly-once check).
    seen: Vec<bool>,
    frames_read: u64,
    hellos: u64,
    mode: ReplayMode,
    out: ReplayOutcome,
    /// Spin on `WouldBlock` (two CPUs) or yield (one).
    spin: bool,
}

impl Conn {
    fn write_all(&mut self, stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
        while !bytes.is_empty() {
            match stream.write(bytes) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // The reply path must keep draining or both sides can
                    // fill their buffers and stop.
                    self.read_replies(stream, Instant::now())?;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads replies until `done` holds (`true`) or the server sends
    /// nothing for [`STALL`] (`false`). Round trips are measured from
    /// `sent_at`.
    fn wait(
        &mut self,
        stream: &mut TcpStream,
        sent_at: Instant,
        done: impl Fn(&Conn) -> bool,
    ) -> std::io::Result<bool> {
        let mut last_byte = Instant::now();
        while !done(self) {
            if self.read_replies(stream, sent_at)? {
                last_byte = Instant::now();
            } else if last_byte.elapsed() > STALL {
                return Ok(false);
            } else if self.spin {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        Ok(true)
    }

    /// One non-blocking read and the frames it completed. Returns whether
    /// bytes arrived.
    fn read_replies(&mut self, stream: &mut TcpStream, sent_at: Instant) -> std::io::Result<bool> {
        let mut buf = [0u8; 16 * 1024];
        let n = match stream.read(&mut buf) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return Ok(false)
            }
            Err(e) => return Err(e),
        };
        let rtt_ns = sent_at.elapsed().as_nanos() as u64;
        self.decoder.push(&buf[..n]);
        loop {
            let reply = match self.decoder.next_frame_ref() {
                Ok(Some((Direction::FromServer, payload))) => {
                    self.frames_read += 1;
                    let full =
                        self.mode.decode_all || self.frames_read.is_multiple_of(DECODE_STRIDE);
                    match scan_verdict(payload) {
                        Some(scanned) if !full => scanned,
                        scanned => match decode_server(payload) {
                            Ok(msg) => {
                                let decoded = classify(&msg);
                                if scanned.is_some_and(|s| s != decoded) {
                                    self.out.violations += 1;
                                }
                                decoded
                            }
                            Err(_) => Reply::Error,
                        },
                    }
                }
                Ok(Some(_)) => Reply::Error,
                Ok(None) => break,
                Err(_) => return Err(ErrorKind::InvalidData.into()),
            };
            match reply {
                Reply::Verdict { seq, kind } => {
                    match self.seen.get_mut(seq as usize) {
                        Some(seen) if !*seen => *seen = true,
                        _ => self.out.violations += 1,
                    }
                    self.out.tally.count(kind);
                    self.out.within_limit += u64::from(rtt_ns <= self.mode.limit_ns);
                    if self.mode.keep_rtts {
                        self.out
                            .rtts_ns
                            .push(rtt_ns.min(u64::from(u32::MAX)) as u32);
                    }
                }
                Reply::Update { terminal } => {
                    self.out.updates += 1;
                    self.out.terminal_updates += u64::from(terminal);
                }
                Reply::Error => self.out.violations += 1,
                Reply::Hello => self.hellos += 1,
                Reply::Other => {}
            }
        }
        Ok(true)
    }
}

/// A reactor thread serving gateway `G` on loopback, owned by the benchmark.
pub struct Server<G> {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<(G, EdgeStats)>,
}

impl<G: EdgeGateway + Send + 'static> Server<G> {
    /// Binds an ephemeral loopback port and serves `gateway` from a new
    /// thread pinned to `cpu` (when given) until [`Server::stop`].
    pub fn spawn(gateway: G, cpu: Option<usize>) -> std::io::Result<Self> {
        let server = EdgeServer::bind("127.0.0.1:0", gateway, EdgeConfig::default())?;
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("reactor".to_string())
            .spawn(move || {
                if let Some(cpu) = cpu {
                    sys::pin_current_thread(cpu);
                }
                let clock = EdgeClock::starting_at(SimTime::ZERO, EDGE_CLOCK_SCALE);
                server.run(clock, &stop_flag)
            })?;
        Ok(Server { addr, stop, thread })
    }

    /// Stops the reactor and returns the gateway and the reactor's own
    /// counters.
    pub fn stop(self) -> (G, EdgeStats) {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("reactor thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdls::core::prelude::{Infeasible, SimTime};
    use rtdls::edge::codec::HEADER_LEN;
    use rtdls::edge::proto::encode_server;

    #[test]
    fn scanner_agrees_with_the_decoder_on_every_verdict_kind() {
        let verdicts = [
            Verdict::Accepted,
            Verdict::Reserved {
                start_at: SimTime::new(42.5),
                ticket: 3,
            },
            Verdict::deferred(11),
            Verdict::rejected(Infeasible::NoTimeForTransmission),
            Verdict::Throttled,
        ];
        for (i, verdict) in verdicts.into_iter().enumerate() {
            let msg = ServerMsg::Verdict {
                seq: 1000 + i as u64,
                task: 7,
                verdict,
            };
            let frame = encode_server(&msg);
            let scanned = scan_verdict(&frame[HEADER_LEN..]).expect("verdict frames scan");
            assert_eq!(scanned, classify(&msg));
        }
        let hello = encode_server(&ServerMsg::Hello { protocol: 1 });
        assert_eq!(scan_verdict(&hello[HEADER_LEN..]), None);
    }
}
