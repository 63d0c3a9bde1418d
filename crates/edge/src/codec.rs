//! The edge wire framing: length-prefixed, checksummed, streamed.
//!
//! The edge frames its messages with the workspace's one header codec
//! ([`rtdls_journal::wire`]: `write_frame` builds the 16 bytes,
//! `parse_header` validates them) under its own magic, `RE`, with a
//! *direction* byte (1 = client → server, 2 = server → client) as the tag
//! and one JSON protocol message as the payload. The header table is in
//! that module's docs and in README § Wire format.
//!
//! Unlike the journal (which decodes a complete byte image at rest), the
//! edge decodes a *stream*: bytes arrive in arbitrary chunks, so
//! [`FrameDecoder`] buffers partial frames and yields complete ones as
//! they close. The failure model also differs: a torn tail in a WAL is a
//! recoverable crash artifact, but a malformed frame on a live socket is a
//! protocol violation — [`FrameDecoder::next_frame`] returns a fatal
//! [`WireError`] (bad magic/version/direction, checksum mismatch, or a
//! length prefix beyond the configured cap) and the connection must close.
//! The cap matters: without it a single 4-byte length prefix could demand
//! a 4 GiB allocation from the server.

use rtdls_journal::wire::{parse_header, write_frame, HeaderError};

pub use rtdls_journal::wire::{DEFAULT_MAX_FRAME, HEADER_LEN};

/// Frame magic: `RE` (rtdls edge).
pub const MAGIC: [u8; 2] = *b"RE";

/// Which way a frame travels; the discriminant is the header tag. Encoded
/// in the header so a peer that accidentally loops its own output back at
/// itself fails fast instead of misparsing payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Direction {
    /// Client → server (payload is a `ClientMsg`).
    FromClient = 1,
    /// Server → client (payload is a `ServerMsg`).
    FromServer = 2,
}

impl Direction {
    fn from_byte(b: u8) -> Option<Self> {
        [Direction::FromClient, Direction::FromServer]
            .into_iter()
            .find(|direction| *direction as u8 == b)
    }
}

/// A fatal stream-level protocol violation. Any of these ends the
/// connection: once framing is lost there is no way to resynchronize a
/// byte stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Bad magic, unknown version/direction, or a checksum mismatch, at
    /// the given stream byte offset.
    Corrupt {
        /// Byte offset (within the whole connection stream) of the frame
        /// header the violation was detected in.
        offset: u64,
        /// What was wrong.
        reason: &'static str,
    },
    /// The length prefix exceeds the decoder's frame cap.
    Oversized {
        /// Byte offset of the offending frame header.
        offset: u64,
        /// The declared payload length.
        len: usize,
        /// The decoder's cap.
        max: usize,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Corrupt { offset, reason } => {
                write!(f, "corrupt frame at stream byte {offset}: {reason}")
            }
            WireError::Oversized { offset, len, max } => write!(
                f,
                "oversized frame at stream byte {offset}: {len} bytes exceeds the {max}-byte cap"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes one message payload into its frame bytes.
pub fn encode_frame(direction: Direction, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    write_frame(MAGIC, direction as u8, &mut out, |out| {
        out.extend_from_slice(payload)
    });
    out
}

/// Incremental frame decoder over an arbitrary chunking of the stream.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed bytes at the front of `buf` (compacted lazily).
    pos: usize,
    /// Stream offset of `buf[pos]` — for error reporting only.
    offset: u64,
    max_frame: usize,
    /// Set once a violation is detected; the decoder refuses to continue.
    poisoned: bool,
}

impl FrameDecoder {
    /// A decoder enforcing the given payload-length cap.
    pub fn new(max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            offset: 0,
            max_frame,
            poisoned: false,
        }
    }

    /// Appends received bytes (any chunking).
    ///
    /// Once poisoned the bytes are discarded: the connection is already
    /// condemned, so buffering a hostile peer's continued output would
    /// only grow memory for a stream that will never be decoded.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.poisoned {
            return;
        }
        // Compact before growing, once the dead prefix dominates, so a
        // long-lived connection's buffer stays proportional to its unread
        // tail. Done here (not after a yield) so borrowed payload slices
        // from `next_frame_ref` are never invalidated mid-decode-loop.
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current allocation backing the stream buffer. Exposed so tests can
    /// assert that hostile length headers never inflate the buffer beyond
    /// the configured frame cap.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Yields the next complete frame: `Ok(Some(…))` when one closed,
    /// `Ok(None)` when more bytes are needed, `Err` on a fatal violation
    /// (after which the decoder stays poisoned — the connection is over).
    ///
    /// This is the owning variant; the hot path uses [`next_frame_ref`]
    /// to borrow the payload straight out of the stream buffer.
    ///
    /// [`next_frame_ref`]: FrameDecoder::next_frame_ref
    pub fn next_frame(&mut self) -> Result<Option<(Direction, Vec<u8>)>, WireError> {
        Ok(self
            .next_frame_ref()?
            .map(|(direction, payload)| (direction, payload.to_vec())))
    }

    /// Zero-copy variant of [`next_frame`](FrameDecoder::next_frame): the
    /// payload is borrowed from the decoder's stream buffer, valid until
    /// the next `push`. The cursor has already advanced past the frame
    /// when this returns, so dropping the borrow loses nothing.
    pub fn next_frame_ref(&mut self) -> Result<Option<(Direction, &[u8])>, WireError> {
        if self.poisoned {
            return Err(WireError::Corrupt {
                offset: self.offset,
                reason: "stream already failed",
            });
        }
        let Some((head, body)) = self.buf[self.pos..].split_first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let fail = |reason| WireError::Corrupt {
            offset: self.offset,
            reason,
        };
        // `parse_header` holds the length against the cap before anything
        // below reserves by it: `len` is attacker-controlled, and reserving
        // first would let a 4-byte prefix demand a 4 GiB allocation.
        let header = match parse_header(head, MAGIC, self.max_frame) {
            Ok(header) => header,
            Err(e) => {
                self.poisoned = true;
                return Err(match e {
                    HeaderError::Corrupt(reason) => fail(reason),
                    HeaderError::Oversized(len) => WireError::Oversized {
                        offset: self.offset,
                        len,
                        max: self.max_frame,
                    },
                });
            }
        };
        let Some(direction) = Direction::from_byte(header.tag) else {
            self.poisoned = true;
            return Err(fail("unknown direction byte"));
        };
        if body.len() < header.len {
            // Size the buffer for the announced (capped) frame and spare
            // the incremental regrowth as its chunks arrive.
            let missing = header.len - body.len();
            self.buf.reserve(missing);
            return Ok(None);
        }
        let start = self.pos + HEADER_LEN;
        let end = start + header.len;
        if !header.verifies(&self.buf[start..end]) {
            self.poisoned = true;
            return Err(fail("checksum mismatch"));
        }
        self.pos = end;
        self.offset += (HEADER_LEN + header.len) as u64;
        Ok(Some((direction, &self.buf[start..end])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed header announcing a 4 GiB − 1 payload.
    fn oversized_header() -> Vec<u8> {
        let mut hdr = encode_frame(Direction::FromClient, b"");
        hdr[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        hdr
    }

    #[test]
    fn frames_round_trip_under_any_chunking() {
        let frames = [
            encode_frame(Direction::FromClient, b"{\"a\":1}"),
            encode_frame(Direction::FromServer, b"{}"),
            encode_frame(Direction::FromClient, &vec![b'x'; 3000]),
        ];
        let stream: Vec<u8> = frames.concat();
        for chunk in [1usize, 2, 7, 16, stream.len()] {
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
            let mut out = Vec::new();
            for piece in stream.chunks(chunk) {
                dec.push(piece);
                while let Some(frame) = dec.next_frame().expect("clean stream") {
                    out.push(frame);
                }
            }
            assert_eq!(out.len(), 3, "chunk={chunk}");
            assert_eq!(out[0], (Direction::FromClient, b"{\"a\":1}".to_vec()));
            assert_eq!(out[1], (Direction::FromServer, b"{}".to_vec()));
            assert_eq!(out[2].1.len(), 3000);
        }
    }

    #[test]
    fn partial_header_and_partial_payload_wait_for_more() {
        let frame = encode_frame(Direction::FromClient, b"payload");
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.push(&frame[..HEADER_LEN - 1]);
        assert_eq!(dec.next_frame(), Ok(None));
        dec.push(&frame[HEADER_LEN - 1..HEADER_LEN + 3]);
        assert_eq!(dec.next_frame(), Ok(None));
        dec.push(&frame[HEADER_LEN + 3..]);
        assert!(matches!(dec.next_frame(), Ok(Some(_))));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn corruption_is_fatal_and_sticky() {
        let mut frame = encode_frame(Direction::FromClient, b"payload");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.push(&frame);
        assert!(matches!(
            dec.next_frame(),
            Err(WireError::Corrupt { offset: 0, .. })
        ));
        // Even after "good" bytes arrive the decoder stays poisoned.
        dec.push(&encode_frame(Direction::FromClient, b"ok"));
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut dec = FrameDecoder::new(1024);
        let hdr = oversized_header();
        dec.push(&hdr);
        assert!(matches!(
            dec.next_frame(),
            Err(WireError::Oversized {
                len,
                max: 1024,
                ..
            }) if len == u32::MAX as usize
        ));
    }

    #[test]
    fn borrowed_decode_matches_owned_decode() {
        let frames = [
            encode_frame(Direction::FromClient, b"{\"a\":1}"),
            encode_frame(Direction::FromServer, &vec![b'y'; 2000]),
        ];
        let stream: Vec<u8> = frames.concat();
        let mut owned = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut borrowed = FrameDecoder::new(DEFAULT_MAX_FRAME);
        for piece in stream.chunks(5) {
            owned.push(piece);
            borrowed.push(piece);
            loop {
                let a = owned.next_frame().expect("clean stream");
                let b = borrowed
                    .next_frame_ref()
                    .expect("clean stream")
                    .map(|(d, p)| (d, p.to_vec()));
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
        assert_eq!(owned.buffered(), 0);
        assert_eq!(borrowed.buffered(), 0);
    }

    #[test]
    fn poisoned_decoder_discards_further_input() {
        let mut dec = FrameDecoder::new(1024);
        let hdr = oversized_header();
        dec.push(&hdr);
        assert!(dec.next_frame().is_err());
        // A hostile peer keeps streaming after the violation; none of it
        // should accumulate.
        for _ in 0..64 {
            dec.push(&[0xAB; 4096]);
        }
        assert_eq!(dec.buffered(), hdr.len());
    }

    #[test]
    fn error_offsets_count_the_whole_stream() {
        let good = encode_frame(Direction::FromServer, b"first");
        let mut bad = encode_frame(Direction::FromServer, b"second");
        bad[0] = b'X';
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.push(&good);
        dec.push(&bad);
        assert!(matches!(dec.next_frame(), Ok(Some(_))));
        assert!(matches!(
            dec.next_frame(),
            Err(WireError::Corrupt { offset, .. }) if offset == good.len() as u64
        ));
    }
}
