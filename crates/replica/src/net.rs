//! The follower's socket: [`read_msg`] / [`write_msg`] carry the `RS`
//! framing of [`rtdls_journal::ship`] over a blocking stream, and
//! [`FollowerServer`] replays a primary's stream on the standby.
//!
//! The primary side owns no socket: a journaled gateway with shipping on
//! hands its frames to the edge reactor, which carries them on its
//! follower link (one more socket in its epoll set) through
//! `EdgeGateway::swap_ship_bytes`. The follower side is not
//! latency-critical and stays a simple blocking loop: it accepts one
//! primary at a time and feeds every message into a [`Follower`], acking
//! back. Read-timeout silence is the wall-clock analogue of the crash
//! world's heartbeat-loss detector: the caller decides when the silence
//! budget is spent and promotes.
//!
//! Timestamps handed to the follower are seconds since the server started
//! — the follower only compares them against its own `promote_after`
//! window, so any monotonic clock works.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rtdls_core::prelude::SimTime;
use rtdls_journal::ship::{decode_msg, encode_msg, ShipMsg, MAGIC};
use rtdls_journal::wire::{parse_header, Header, HEADER_LEN, MAX_SHIP_FRAME};

use crate::follower::Follower;

fn invalid(reason: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.to_string())
}

/// Writes one message as one frame.
pub fn write_msg(stream: &mut TcpStream, msg: &ShipMsg) -> io::Result<()> {
    let mut frame = Vec::new();
    encode_msg(msg, &mut frame);
    stream.write_all(&frame)
}

fn header(head: &[u8; HEADER_LEN]) -> io::Result<Header> {
    parse_header(head, MAGIC, MAX_SHIP_FRAME)
        .map_err(|e| invalid(format!("bad ship frame header: {e:?}")))
}

/// Reads one framed message. `Ok(None)` means clean EOF at a frame
/// boundary; timeouts surface as `WouldBlock`/`TimedOut` errors; a header
/// that is not a ship header, a length beyond the cap, a checksum mismatch
/// or an undecodable payload is `InvalidData`, after which the stream has
/// lost its framing and must be dropped.
pub fn read_msg(stream: &mut TcpStream) -> io::Result<Option<ShipMsg>> {
    let mut head = [0u8; HEADER_LEN];
    match stream.read_exact(&mut head) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = header(&head)?.len;
    // Sized for an ordinary message up front; beyond that it grows with what
    // arrives, never by what the prefix announces.
    let mut frame = Vec::with_capacity(HEADER_LEN + len.min(1 << 16));
    frame.extend_from_slice(&head);
    Read::take(&mut *stream, len as u64).read_to_end(&mut frame)?;
    match decode_msg(&frame)? {
        Some((msg, _)) => Ok(Some(msg)),
        None => Err(io::ErrorKind::UnexpectedEof.into()),
    }
}

/// The follower-side socket: accepts a primary and replays its stream.
pub struct FollowerServer {
    listener: TcpListener,
    follower: Follower,
    started: Instant,
}

impl FollowerServer {
    /// Binds `addr` (use port 0 to let the OS pick) around `follower`.
    pub fn bind(addr: impl ToSocketAddrs, follower: Follower) -> io::Result<Self> {
        Ok(FollowerServer {
            listener: TcpListener::bind(addr)?,
            follower,
            started: Instant::now(),
        })
    }

    /// The bound address, for the primary to connect to.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Wall-clock now, in the follower's sim-time coordinates.
    pub fn now(&self) -> SimTime {
        SimTime::new(self.started.elapsed().as_secs_f64())
    }

    /// Accepts one primary connection and pumps its stream until the
    /// socket goes silent for `silence` (heartbeat loss), disconnects, or
    /// errors. Returns the number of messages processed. Afterwards the
    /// caller inspects [`FollowerServer::follower_mut`] — typically to
    /// check [`Follower::should_promote`] and promote.
    pub fn serve_connection(&mut self, silence: Duration) -> io::Result<u64> {
        let (mut stream, _peer) = self.listener.accept()?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(silence))?;
        let mut processed = 0u64;
        // A primary that dies between sending frames and reading our acks
        // is the normal failover prelude, not a serving error: when an ack
        // write breaks, stop acking but keep draining the frames it
        // already sent — every byte it shipped should reach the mirror.
        let mut peer_writable = true;
        loop {
            match read_msg(&mut stream) {
                Ok(Some(msg)) => {
                    processed += 1;
                    let now = self.now();
                    let reply = self.follower.on_msg(now, msg).map_err(invalid)?;
                    if let Some(ack) = reply {
                        if peer_writable {
                            match write_msg(&mut stream, &ack) {
                                Ok(()) => {}
                                Err(e)
                                    if e.kind() == io::ErrorKind::BrokenPipe
                                        || e.kind() == io::ErrorKind::ConnectionReset =>
                                {
                                    peer_writable = false;
                                }
                                Err(e) => return Err(e),
                            }
                        }
                    }
                }
                Ok(None) => return Ok(processed),
                // WouldBlock/TimedOut: heartbeat silence — the caller's
                // failure detector takes over. ConnectionReset: a primary
                // that died with our unread acks still in its buffer
                // resets instead of closing; same meaning as EOF here.
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::ConnectionReset =>
                {
                    return Ok(processed);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The wrapped follower.
    pub fn follower(&self) -> &Follower {
        &self.follower
    }

    /// Mutable access, for promotion after the silence budget is spent.
    pub fn follower_mut(&mut self) -> &mut Follower {
        &mut self.follower
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::follower::FollowerConfig;
    use rtdls_journal::ship::TAG;
    use rtdls_journal::wire::write_frame;

    /// Runs `peer` against a fresh loopback connection and hands back the
    /// accepted side.
    fn accept_from(peer: impl FnOnce(TcpStream) + Send + 'static) -> TcpStream {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || peer(TcpStream::connect(addr).unwrap()));
        let (stream, _) = listener.accept().unwrap();
        peer.join().unwrap();
        stream
    }

    /// The bytes `encode_msg` frames `msg` into.
    fn wire_bytes(msg: &ShipMsg) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_msg(msg, &mut bytes);
        bytes
    }

    /// What `read_msg` makes of a peer that writes `bytes` and hangs up.
    fn read_back(bytes: Vec<u8>) -> io::Result<Option<ShipMsg>> {
        read_msg(&mut accept_from(move |mut s| s.write_all(&bytes).unwrap()))
    }

    #[test]
    fn messages_round_trip_the_wire_framing() {
        let msgs = vec![
            ShipMsg::frame(3, 17, vec![0, 1, 2, 254, 255]),
            ShipMsg::Heartbeat { epoch: 3, head: 18 },
            ShipMsg::Ack { seq: 18 },
        ];
        let sent = msgs.clone();
        let mut stream = accept_from(move |mut s| {
            for m in &sent {
                write_msg(&mut s, m).unwrap();
            }
        });
        let mut got = Vec::new();
        while let Some(m) = read_msg(&mut stream).unwrap() {
            got.push(m);
        }
        assert_eq!(got, msgs);
    }

    #[test]
    fn a_hostile_or_damaged_frame_is_invalid_data() {
        let good = wire_bytes(&ShipMsg::Heartbeat { epoch: 3, head: 18 });
        assert_eq!(&good[..2], b"RS");
        assert_eq!(
            read_back(good.clone()).unwrap(),
            Some(ShipMsg::Heartbeat { epoch: 3, head: 18 })
        );
        let mut oversized = good[..HEADER_LEN].to_vec();
        oversized[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut bad_magic = good.clone();
        bad_magic[..4].copy_from_slice(&[0xFF; 4]);
        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        // Well-framed, valid checksum, far under the cap — and 10 000 levels
        // deep: refused by the parser's nesting cap, not by the stack.
        let mut nested = Vec::new();
        write_frame(MAGIC, TAG, &mut nested, |out| {
            out.extend_from_slice("[".repeat(10_000).as_bytes());
            out.extend_from_slice("]".repeat(10_000).as_bytes());
        });
        for (what, bytes) in [
            ("oversized prefix", oversized),
            ("bad magic", bad_magic),
            ("flipped payload byte", flipped),
            ("payload nested past the depth cap", nested),
        ] {
            let err = decode_msg(&bytes).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            let err = read_back(bytes).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        // A frame cut short is a torn stream, not a framing violation; from
        // a buffer, it is a frame still arriving.
        let torn = good[..good.len() - 3].to_vec();
        assert!(decode_msg(&torn).unwrap().is_none());
        assert!(decode_msg(&good[..HEADER_LEN - 1]).unwrap().is_none());
        let err = read_back(torn).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let (msg, used) = decode_msg(&[good.clone(), good.clone()].concat())
            .unwrap()
            .unwrap();
        assert_eq!(
            (msg, used),
            (ShipMsg::Heartbeat { epoch: 3, head: 18 }, good.len())
        );
    }

    #[test]
    fn a_version_1_message_reads_and_a_mislabelled_one_does_not() {
        let msg = ShipMsg::frame(3, 17, vec![0, 1, 2, 254, 255]);
        let v2 = wire_bytes(&msg);
        assert_eq!(v2[2], rtdls_journal::wire::VERSION);
        // As a primary from before header version 2 framed it.
        let mut v1 = v2.clone();
        let sum = rtdls_journal::wire::checksum(1, TAG, &v2[HEADER_LEN..]);
        v1[2] = 1;
        v1[8..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(read_back(v1.clone()).unwrap(), Some(msg));
        let mut v1_over_v2_sum = v2.clone();
        v1_over_v2_sum[2] = 1;
        let mut v2_over_v1_sum = v1;
        v2_over_v1_sum[2] = 2;
        let mut v3 = v2;
        v3[2] = 3;
        for bytes in [v1_over_v2_sum, v2_over_v1_sum, v3] {
            let err = read_back(bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }

    #[test]
    fn a_framing_violation_ends_its_connection_and_keeps_the_follower() {
        let follower = Follower::new(FollowerConfig::default());
        let mut server = FollowerServer::bind("127.0.0.1:0", follower).unwrap();
        let addr = server.local_addr().unwrap();
        let beat = ShipMsg::Heartbeat { epoch: 0, head: 0 };
        let peers = std::thread::spawn(move || {
            let mut hostile = TcpStream::connect(addr).unwrap();
            write_msg(&mut hostile, &beat).unwrap();
            let mut prefix = wire_bytes(&beat)[..HEADER_LEN].to_vec();
            prefix[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
            hostile.write_all(&prefix).unwrap();
            // Stays open: the server must hang up on the header alone.
            let mut honest = TcpStream::connect(addr).unwrap();
            write_msg(&mut honest, &beat).unwrap();
            drop(honest);
            hostile
        });
        let silence = Duration::from_secs(10);
        let err = server.serve_connection(silence).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(server.follower().stats().heartbeats, 1);
        assert_eq!(server.serve_connection(silence).unwrap(), 1);
        assert_eq!(server.follower().stats().heartbeats, 2);
        drop(peers.join().unwrap());
    }
}
