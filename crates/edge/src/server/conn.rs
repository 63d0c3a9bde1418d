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

use rtdls_core::prelude::{SimTime, TenantId};
use rtdls_telemetry::Telemetry;

use crate::codec::FrameDecoder;
use crate::poll::Transport;
use crate::proto::{encode_server_into, ServerMsg};

/// Recycled frame buffers kept per connection. Small: a connection that
/// queues more than this many frames between flushes is already paying
/// syscall costs that dwarf an allocation.
const POOL_CAP: usize = 8;

/// Frames gathered into one vectored write. Linux caps `IOV_MAX` at 1024;
/// 16 already amortizes the syscall across a pipelined burst.
const MAX_IOV: usize = 16;

/// One connection over stream type `S` (a transport's `Stream`).
pub(crate) struct Conn<S> {
    pub id: u64,
    pub stream: S,
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
    /// The tenant a `Hello { tenant }` bound this connection to: it is
    /// served on that tenant's home reactor and submits for no other.
    pub tenant: Option<TenantId>,
    /// Whether write interest is currently armed for this stream.
    pub write_armed: bool,
    /// Recycled frame buffers.
    pool: Vec<Vec<u8>>,
}

impl<S: Write> Conn<S> {
    pub(crate) fn new(id: u64, stream: S, max_frame: usize) -> Self {
        Conn {
            id,
            stream,
            decoder: FrameDecoder::new(max_frame),
            outq: VecDeque::new(),
            front_written: 0,
            draining: false,
            draining_since: None,
            dead: false,
            tenant: None,
            write_armed: false,
            pool: Vec::new(),
        }
    }

    /// Encodes `msg` into a recycled buffer (the `edge/encode` phase) and
    /// queues it.
    pub(crate) fn enqueue(&mut self, msg: &ServerMsg, telemetry: &Telemetry) {
        let mut buf = self.pool.pop().unwrap_or_default();
        let started = telemetry.timer();
        encode_server_into(msg, &mut buf);
        telemetry.phase("edge/encode", started);
        self.outq.push_back(buf);
    }

    pub(crate) fn start_draining(&mut self, now: SimTime) {
        self.draining = true;
        self.draining_since.get_or_insert(now);
    }

    /// Flushes, then arms write interest (under the connection's id) only
    /// while frames are left: a permanently armed write interest would wake
    /// every turn. Returns the frames fully written.
    pub(crate) fn flush_and_arm<T: Transport<Stream = S>>(&mut self, transport: &mut T) -> u64 {
        let sent = self.flush();
        let want = !self.outq.is_empty() && !self.dead;
        if want != self.write_armed
            && transport
                .set_write_interest(&self.stream, self.id, want)
                .is_ok()
        {
            self.write_armed = want;
        }
        sent
    }

    /// Writes as much of the queue as the socket accepts, gathering up to
    /// [`MAX_IOV`] frames per syscall.
    fn flush(&mut self) -> u64 {
        let mut sent = 0;
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
            sent += self.consume(written);
        }
        sent
    }

    /// Accounts `written` bytes against the queue front, recycling fully
    /// written frames; returns how many there were.
    fn consume(&mut self, mut written: usize) -> u64 {
        let mut sent = 0;
        while written > 0 {
            let front_len = self.outq.front().map_or(0, Vec::len);
            let remaining = front_len - self.front_written;
            if written >= remaining {
                written -= remaining;
                let buf = self.outq.pop_front().expect("accounted frame exists");
                self.recycle(buf);
                self.front_written = 0;
                sent += 1;
            } else {
                self.front_written += written;
                written = 0;
            }
        }
        sent
    }

    fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.pool.len() < POOL_CAP {
            buf.clear();
            self.pool.push(buf);
        }
    }
}
