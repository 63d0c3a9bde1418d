//! Per-connection state: the decoder, the bounded write queue, and the
//! flush machinery.
//!
//! The write path is allocation-recycling and vectored: each reply frame
//! is encoded into a buffer taken from the connection's small free pool
//! (returned when fully written), and a flush gathers up to [`MAX_IOV`]
//! queued frames into one `writev`-style call instead of one syscall per
//! frame — the dominant cost of the old per-frame `write` loop under
//! pipelined clients.

use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Write};
use std::net::TcpStream;

use rtdls_core::prelude::SimTime;
use rtdls_telemetry::Profiler;

use crate::codec::FrameDecoder;
use crate::proto::{encode_server_into, ClientMsg, ServerMsg};

/// Recycled frame buffers kept per connection. Small: a connection that
/// queues more than this many frames between flushes is already paying
/// syscall costs that dwarf an allocation.
const POOL_CAP: usize = 8;

/// Frames gathered into one vectored write. Linux caps `IOV_MAX` at 1024;
/// 16 already amortizes the syscall across a pipelined burst.
const MAX_IOV: usize = 16;

/// What one flush attempt did.
#[derive(Default)]
pub(crate) struct FlushOutcome {
    /// Any bytes left the process.
    pub progressed: bool,
    /// Frames fully written (the caller folds these into `EdgeStats`).
    pub frames_sent: u64,
}

pub(crate) struct Conn {
    pub id: u64,
    pub stream: TcpStream,
    pub decoder: FrameDecoder,
    pub outq: VecDeque<Vec<u8>>,
    /// Bytes of `outq.front()` already written (partial writes).
    pub front_written: usize,
    /// Flush-then-close (error answered, or client said `Bye`).
    pub draining: bool,
    /// When draining began, on the edge clock (for the drain timeout).
    pub draining_since: Option<SimTime>,
    /// Read side failed or EOF'd; close once the write side drains.
    pub dead: bool,
    /// Shard affinity resolved: the connection is served where it lives.
    /// Single-reactor connections are born pinned; in a cluster the first
    /// submit's tenant hash decides, possibly via a transfer.
    pub pinned: bool,
    /// Cluster mode: hand this connection to reactor `.0`, which will
    /// serve the carried (not-yet-decided) submit `.1` first.
    pub transfer: Option<(usize, ClientMsg)>,
    /// Whether EPOLLOUT is currently armed for this fd.
    pub write_armed: bool,
    /// Recycled frame buffers.
    pool: Vec<Vec<u8>>,
}

impl Conn {
    pub(crate) fn new(id: u64, stream: TcpStream, max_frame: usize, pinned: bool) -> Self {
        Conn {
            id,
            stream,
            decoder: FrameDecoder::new(max_frame),
            outq: VecDeque::new(),
            front_written: 0,
            draining: false,
            draining_since: None,
            dead: false,
            pinned,
            transfer: None,
            write_armed: false,
            pool: Vec::new(),
        }
    }

    /// Encodes `msg` into a recycled buffer (the `edge/encode` phase) and
    /// queues it.
    pub(crate) fn enqueue(&mut self, msg: &ServerMsg, profiler: &Profiler) {
        let mut buf = self.pool.pop().unwrap_or_default();
        let started = profiler.start();
        encode_server_into(msg, &mut buf);
        profiler.stop("edge/encode", started);
        self.outq.push_back(buf);
    }

    pub(crate) fn start_draining(&mut self, now: SimTime) {
        self.draining = true;
        self.draining_since.get_or_insert(now);
    }

    /// Writes as much of the queue as the socket accepts, gathering up to
    /// [`MAX_IOV`] frames per syscall.
    pub(crate) fn flush(&mut self) -> FlushOutcome {
        let mut outcome = FlushOutcome::default();
        'flush: while !self.outq.is_empty() {
            let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(self.outq.len().min(MAX_IOV));
            for (idx, buf) in self.outq.iter().take(MAX_IOV).enumerate() {
                let start = if idx == 0 { self.front_written } else { 0 };
                iov.push(IoSlice::new(&buf[start..]));
            }
            let written = loop {
                match self.stream.write_vectored(&iov) {
                    Ok(0) => {
                        self.dead = true;
                        break 'flush;
                    }
                    Ok(n) => break n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break 'flush,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        break 'flush;
                    }
                }
            };
            outcome.progressed = true;
            self.consume(written, &mut outcome);
        }
        outcome
    }

    /// Accounts `written` bytes against the queue front, recycling fully
    /// written frames.
    fn consume(&mut self, mut written: usize, outcome: &mut FlushOutcome) {
        while written > 0 {
            let front_len = self.outq.front().map_or(0, Vec::len);
            let remaining = front_len - self.front_written;
            if written >= remaining {
                written -= remaining;
                let buf = self.outq.pop_front().expect("accounted frame exists");
                self.recycle(buf);
                self.front_written = 0;
                outcome.frames_sent += 1;
            } else {
                self.front_written += written;
                written = 0;
            }
        }
    }

    fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.pool.len() < POOL_CAP {
            buf.clear();
            self.pool.push(buf);
        }
    }
}
