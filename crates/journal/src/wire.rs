//! The frame header every transport shares, and the journal's on-disk
//! framing on top of it: length-prefixed, checksummed, append-only.
//!
//! Every record travels in one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       2     magic: "RJ" journal, "RE" edge, "RS" replication ship
//! 2       1     header layout version (currently 1)
//! 3       1     tag: the transport's own byte (journal: record kind,
//!               1 = event, 2 = snapshot; edge: direction; ship: 1)
//! 4       4     payload length, u32 little-endian
//! 8       8     FNV-1a 64 checksum over tag byte + payload, u64 LE
//! 16      len   payload (UTF-8 JSON via the in-repo serde stand-ins)
//! ```
//!
//! The layout is built in one function, [`write_frame`] — the payload is
//! rendered in place after a reserved header, then length and checksum are
//! patched in: typed value to framed bytes, no `String` or second copy
//! between — and validated in one, [`parse_header`] (magic, version, and the length against the
//! caller's cap *before* anyone sizes a buffer by it); [`Header::verifies`]
//! is the checksum. The journal decodes a byte image at rest
//! ([`decode_frames`], [`frame_count`]); the edge's streaming
//! `FrameDecoder` and the ship transport's blocking `read_msg` sit on the
//! same two functions with their own magic, tag meaning and cap.
//!
//! The journal's decoder walks frames front to back and stops at the first
//! anomaly, classifying the tail:
//!
//! * **Truncated** — the final frame's header or payload is cut short
//!   (a torn write: the process died mid-`write`). Everything before it is
//!   intact and returned.
//! * **Corrupt** — bad magic, an unknown version/kind, or a checksum
//!   mismatch (bit rot, or a write that landed partially over garbage).
//!   Decoding stops there; earlier records are still returned.
//!
//! Either way a recovery loses at most the records at the damaged tail —
//! never an earlier one — which is exactly the write-ahead-log contract.

/// Journal frame magic: `RJ` (rtdls journal).
pub const MAGIC: [u8; 2] = *b"RJ";

/// Current header layout version, shared by all three transports.
pub const VERSION: u8 = 1;

/// Frame header length in bytes.
pub const HEADER_LEN: usize = 16;

/// The edge's default cap on one frame's payload length (1 MiB — a submit
/// request is a few hundred bytes, so this is generous headroom, not a
/// limit anyone honest hits).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// The ship transport's cap on one message. A message is one journal frame
/// as a JSON byte array (≤ 4 characters a byte) plus its spans; the largest
/// frame the biggest benchmark fleet journals (`recover`: 8 shards, 12 000
/// requests) is a 28 168-byte snapshot, 94 397 bytes as a message, so 64 MiB
/// refuses a hostile prefix with ≈ 700× headroom over a real one
/// (`edge/tests/mutation.rs` ships that fleet's snapshot).
pub const MAX_SHIP_FRAME: usize = 64 << 20;

/// The fields of a header that passed [`parse_header`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// The transport's tag byte (not interpreted here).
    pub tag: u8,
    /// Payload length, already held against the caller's cap.
    pub len: usize,
    /// The checksum the writer computed over tag + payload.
    pub checksum: u64,
}

impl Header {
    /// Whether `payload` is what the writer checksummed.
    #[inline]
    pub fn verifies(&self, payload: &[u8]) -> bool {
        checksum(self.tag, payload) == self.checksum
    }
}

/// Why sixteen bytes are not a header of the expected transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeaderError {
    /// Not this transport's framing, in words.
    Corrupt(&'static str),
    /// The declared payload length, which exceeds the caller's cap.
    Oversized(usize),
}

/// Appends one frame to `out`, its payload rendered in place: sixteen bytes
/// are reserved for the header, `render` appends the payload after them (a
/// serializer writing straight into `out`, or a copy of bytes at hand), and
/// length and checksum are patched in over what it wrote. The one place
/// the header layout is constructed.
///
/// Panics on a payload of 4 GiB or more, which the length field cannot
/// state; every caller frames its own serialization of one record.
#[inline]
pub fn write_frame(magic: [u8; 2], tag: u8, out: &mut Vec<u8>, render: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[magic[0], magic[1], VERSION, tag]);
    out.extend_from_slice(&[0; HEADER_LEN - 4]);
    render(out);
    let (header, payload) = out[at..].split_at_mut(HEADER_LEN);
    let len = u32::try_from(payload.len()).expect("frame payload under 4 GiB");
    header[4..8].copy_from_slice(&len.to_le_bytes());
    header[8..].copy_from_slice(&checksum(tag, payload).to_le_bytes());
}

/// Parses and validates one header: the one place the layout is read. The
/// length is checked against `max_len` here, so a caller never sizes a
/// buffer by a length that has not been capped.
#[inline]
pub fn parse_header(
    bytes: &[u8; HEADER_LEN],
    magic: [u8; 2],
    max_len: usize,
) -> Result<Header, HeaderError> {
    if bytes[0..2] != magic {
        return Err(HeaderError::Corrupt("bad magic"));
    }
    if bytes[2] != VERSION {
        return Err(HeaderError::Corrupt("unknown framing version"));
    }
    let len = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    if len > max_len {
        return Err(HeaderError::Oversized(len));
    }
    Ok(Header {
        tag: bytes[3],
        len,
        checksum: u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
    })
}

/// What a frame's payload contains; the discriminant is the header tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
    /// One [`JournalEvent`](crate::event::JournalEvent).
    Event = 1,
    /// One [`GatewaySnapshot`](crate::snapshot::GatewaySnapshot).
    Snapshot = 2,
}

impl RecordKind {
    fn from_byte(b: u8) -> Option<Self> {
        [RecordKind::Event, RecordKind::Snapshot]
            .into_iter()
            .find(|kind| *kind as u8 == b)
    }
}

/// One decoded record.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Payload interpretation.
    pub kind: RecordKind,
    /// Byte offset of the frame header within the log.
    pub offset: usize,
    /// The record payload (JSON bytes).
    pub payload: Vec<u8>,
}

/// How the log's tail looked to the decoder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailStatus {
    /// Every byte belonged to a complete, checksum-valid frame.
    Clean,
    /// The final frame was cut short (torn write) at the given byte offset;
    /// all earlier frames were recovered.
    Truncated {
        /// Byte offset of the damaged frame's header.
        offset: usize,
    },
    /// Bad magic / version / kind / checksum at the given byte offset;
    /// decoding stopped, all earlier frames were recovered.
    Corrupt {
        /// Byte offset where the anomaly was detected.
        offset: usize,
    },
}

impl TailStatus {
    /// `true` when the whole log decoded without loss.
    pub fn is_clean(self) -> bool {
        self == TailStatus::Clean
    }
}

/// The FNV-1a 64 offset basis: the `seed` of a fresh [`fnv1a64`] hash.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a 64 of `bytes`, continuing from `seed` ([`FNV_OFFSET`] to start;
/// a previous result to extend a running hash). The tree's one copy: frame
/// checksums and the edge's tenant placement both hash through it.
///
/// `#[inline]` is measured, not decoration: every WAL and edge frame is
/// checksummed, and with the two calls in the frame checksum left out of
/// line the durable edge read ≈ 5 % more reactor CPU per request.
#[inline]
pub fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// FNV-1a 64 over the tag byte followed by the payload. Not
/// cryptographic — it detects torn writes and bit rot, which is all a
/// single-writer WAL needs.
fn checksum(tag: u8, payload: &[u8]) -> u64 {
    fnv1a64(fnv1a64(FNV_OFFSET, &[tag]), payload)
}

/// Encodes one record into its frame bytes.
pub fn encode_frame(kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    write_frame(MAGIC, kind as u8, &mut out, |out| {
        out.extend_from_slice(payload)
    });
    out
}

/// The journal's own length cap: none beyond the field's width. A WAL is
/// this process's own writing, decoded in place from an image already in
/// memory — nothing is allocated from the prefix — and a compacting
/// snapshot may be large.
const NO_CAP: usize = u32::MAX as usize;

/// How many whole frames `run` holds, by walking the headers alone (no
/// checksum, no payload copy) — what a sink needs to account a multi-frame
/// write. Stops at the first frame cut short or not a journal header;
/// `run` is trusted to be the journal's own encoding, so checksums are not
/// re-verified here (that is [`decode_frames`]' job on the read side).
pub fn frame_count(run: &[u8]) -> usize {
    let mut frames = 0;
    let mut rest = run;
    while let Some((head, body)) = rest.split_first_chunk::<HEADER_LEN>() {
        match parse_header(head, MAGIC, NO_CAP) {
            Ok(header) if header.len <= body.len() => rest = &body[header.len..],
            _ => break,
        }
        frames += 1;
    }
    frames
}

/// Decodes every intact frame from `bytes`, classifying the tail. Never
/// fails: damage only shortens the returned list.
pub fn decode_frames(bytes: &[u8]) -> (Vec<Frame>, TailStatus) {
    let mut frames = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let Some((head, body)) = bytes[pos..].split_first_chunk::<HEADER_LEN>() else {
            return (frames, TailStatus::Truncated { offset: pos });
        };
        let Ok(header) = parse_header(head, MAGIC, NO_CAP) else {
            return (frames, TailStatus::Corrupt { offset: pos });
        };
        let Some(kind) = RecordKind::from_byte(header.tag) else {
            return (frames, TailStatus::Corrupt { offset: pos });
        };
        let Some(payload) = body.get(..header.len) else {
            return (frames, TailStatus::Truncated { offset: pos });
        };
        if !header.verifies(payload) {
            return (frames, TailStatus::Corrupt { offset: pos });
        }
        frames.push(Frame {
            kind,
            offset: pos,
            payload: payload.to_vec(),
        });
        pos += HEADER_LEN + header.len;
    }
    (frames, TailStatus::Clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> Vec<u8> {
        let mut log = Vec::new();
        log.extend(encode_frame(RecordKind::Snapshot, b"{\"s\":0}"));
        log.extend(encode_frame(RecordKind::Event, b"{\"e\":1}"));
        log.extend(encode_frame(RecordKind::Event, b"{\"e\":2}"));
        log
    }

    #[test]
    fn clean_log_round_trips() {
        let (frames, tail) = decode_frames(&sample_log());
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].kind, RecordKind::Snapshot);
        assert_eq!(frames[2].payload, b"{\"e\":2}");
        assert_eq!(frames[0].offset, 0);
        assert!(frames[1].offset > 0);
    }

    #[test]
    fn every_truncation_point_keeps_all_earlier_frames() {
        let log = sample_log();
        let frame_starts: Vec<usize> = decode_frames(&log).0.iter().map(|f| f.offset).collect();
        for cut in 0..=log.len() {
            let (frames, tail) = decode_frames(&log[..cut]);
            let complete_before_cut = frame_starts
                .iter()
                .zip(frame_starts.iter().skip(1).chain([&log.len()]))
                .filter(|&(_, &end)| end <= cut)
                .count();
            assert_eq!(frames.len(), complete_before_cut, "cut at {cut}");
            // The prefix walk agrees without touching a payload.
            assert_eq!(
                frame_count(&log[..cut]),
                complete_before_cut,
                "cut at {cut}"
            );
            let on_boundary = cut == log.len() || frame_starts.contains(&cut);
            if on_boundary {
                // A cut exactly between frames is indistinguishable from a
                // shorter clean log — and loses no *written-and-synced*
                // record semantics: the frame after the cut never fully hit
                // the log.
                assert!(tail.is_clean(), "cut at {cut}: {tail:?}");
            } else {
                assert!(
                    matches!(tail, TailStatus::Truncated { .. }),
                    "cut at {cut}: {tail:?}"
                );
            }
        }
    }

    #[test]
    fn corruption_is_detected_and_earlier_frames_survive() {
        let log = sample_log();
        // Flip one payload byte of the *last* frame.
        let mut bad = log.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        let (frames, tail) = decode_frames(&bad);
        assert_eq!(frames.len(), 2, "first two frames intact");
        assert!(matches!(tail, TailStatus::Corrupt { .. }));
        // Bad magic right at the start loses everything, but is *detected*.
        let mut bad = log;
        bad[0] = b'X';
        let (frames, tail) = decode_frames(&bad);
        assert!(frames.is_empty());
        assert_eq!(tail, TailStatus::Corrupt { offset: 0 });
    }

    #[test]
    fn checksum_differs_between_kinds_for_same_payload() {
        assert_ne!(checksum(1, b"abc"), checksum(2, b"abc"));
        let a = encode_frame(RecordKind::Event, b"abc");
        let b = encode_frame(RecordKind::Snapshot, b"abc");
        assert_ne!(a, b);
    }

    #[test]
    fn empty_log_is_clean() {
        let (frames, tail) = decode_frames(&[]);
        assert!(frames.is_empty());
        assert!(tail.is_clean());
    }
}
