//! The frame header every transport shares, and the journal's on-disk
//! framing on top of it: length-prefixed, checksummed, append-only.
//!
//! Every record travels in one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       2     magic: "RJ" journal, "RE" edge, "RS" replication ship
//! 2       1     header layout version: 2 written; 1 still read
//! 3       1     tag: the transport's own byte (journal: record kind,
//!               1 = event, 2 = snapshot; edge: direction; ship: 1)
//! 4       4     payload length, u32 little-endian
//! 8       8     checksum, u64 LE: v2 XXH64 of the payload seeded with
//!               the tag; v1 FNV-1a 64 over tag byte + payload
//! 16      len   payload (UTF-8 JSON via the in-repo serde stand-ins)
//! ```
//!
//! The layout is built in one function, [`write_frame`] — the payload is
//! rendered in place after a reserved header, then length and checksum are
//! patched in: typed value to framed bytes, no `String` or second copy
//! between — and validated in one, [`parse_header`] (magic, version, and
//! the length against the caller's cap *before* anyone sizes a buffer by
//! it); [`Header::verifies`] checks the sum of the header's own version
//! ([`checksum`], the one home of both versions' sums).
//! Every writer writes v2; v1 (a WAL, mirror or peer from before v2) is
//! read, never written. The journal decodes a byte image at rest
//! ([`decode_frames`]: checksummed [`Frame`]s borrowing their payloads, and
//! [`frame_count`]); the edge's streaming `FrameDecoder` and the ship
//! transport's blocking `read_msg` sit on the same two functions with their
//! own magic, tag meaning and cap.
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

/// The header version all three transports write; [`parse_header`] also reads 1.
pub const VERSION: u8 = 2;

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
    /// The header layout version: 1 or [`VERSION`].
    pub version: u8,
    /// The transport's tag byte (not interpreted here).
    pub tag: u8,
    /// Payload length, already held against the caller's cap.
    pub len: usize,
    /// The checksum the writer computed ([`Header::verifies`]).
    pub checksum: u64,
}

impl Header {
    /// Whether `payload` is what the writer checksummed.
    #[inline]
    pub fn verifies(&self, payload: &[u8]) -> bool {
        checksum(self.version, self.tag, payload) == self.checksum
    }
}

/// The sum a header of `version` carries over `payload` under `tag`: v2
/// ([`VERSION`]) XXH64 seeded by the tag, v1 FNV-1a 64 over tag + payload.
#[inline]
pub fn checksum(version: u8, tag: u8, payload: &[u8]) -> u64 {
    match version {
        1 => fnv1a64(fnv1a64(FNV_OFFSET, &[tag]), payload),
        _ => xxh64(u64::from(tag), payload),
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
    header[8..].copy_from_slice(&checksum(VERSION, tag, payload).to_le_bytes());
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
    let version = bytes[2];
    if !matches!(version, 1 | VERSION) {
        return Err(HeaderError::Corrupt("unknown framing version"));
    }
    let len = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    if len > max_len {
        return Err(HeaderError::Oversized(len));
    }
    Ok(Header {
        version,
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

/// One checksum-verified record, its payload borrowed from the log.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Frame<'a> {
    /// Payload interpretation.
    pub kind: RecordKind,
    /// The header version it was written in (1 or [`VERSION`]).
    pub version: u8,
    /// Byte offset of the frame header within the log.
    pub offset: usize,
    /// The record payload (JSON bytes), a slice of the decoded log.
    pub payload: &'a [u8],
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
/// a previous result to extend a running hash): the checksum of v1 frames,
/// read but no longer written, and the edge's tenant placement.
pub fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

const P1: u64 = 0x9E3779B185EBCA87;
const P2: u64 = 0xC2B2AE3D27D4EB4F;
const P3: u64 = 0x165667B19E3779F9;
const P4: u64 = 0x85EBCA77C2B2AE63;
const P5: u64 = 0x27D4EB2F165667C5;

/// One XXH64 lane step over eight input bytes.
#[inline]
fn round(acc: u64, word: &[u8; 8]) -> u64 {
    let acc = acc.wrapping_add(u64::from_le_bytes(*word).wrapping_mul(P2));
    acc.rotate_left(31).wrapping_mul(P1)
}

/// XXH64 of `bytes` under `seed` (Collet's xxHash, zstd's content
/// checksum): four lanes over each 32-byte stripe, then the tail. Not
/// cryptographic: it catches torn writes and bit rot, all a frame needs.
#[inline]
pub fn xxh64(seed: u64, bytes: &[u8]) -> u64 {
    let (stripes, rest) = bytes.as_chunks::<32>();
    let mut h = seed.wrapping_add(P5);
    if !stripes.is_empty() {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()].map(|v| v.wrapping_add(seed));
        for stripe in stripes {
            for (lane, word) in v.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *lane = round(*lane, word);
            }
        }
        h = [1, 7, 12, 18]
            .iter()
            .zip(v)
            .fold(0, |h, (&r, lane)| h.wrapping_add(lane.rotate_left(r)));
        for lane in v {
            h = (h ^ round(0, &lane.to_le_bytes()))
                .wrapping_mul(P1)
                .wrapping_add(P4);
        }
    }
    h = h.wrapping_add(bytes.len() as u64);
    let (words, mut tail) = rest.as_chunks::<8>();
    for word in words {
        h = (h ^ round(0, word))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    if let Some((word, rest)) = tail.split_first_chunk::<4>() {
        h ^= u64::from(u32::from_le_bytes(*word)).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        tail = rest;
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h = (h ^ h >> 33).wrapping_mul(P2);
    h = (h ^ h >> 29).wrapping_mul(P3);
    h ^ h >> 32
}

/// One payload framed whole under `magic` and `tag` — for a caller holding
/// the payload's bytes already (a mirror, a replayed image, a test).
pub fn encode_frame(magic: [u8; 2], tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    write_frame(magic, tag, &mut out, |out| out.extend_from_slice(payload));
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
/// fails: damage only shortens the returned list. Payloads are borrowed.
pub fn decode_frames(bytes: &[u8]) -> (Vec<Frame<'_>>, TailStatus) {
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
            version: header.version,
            offset: pos,
            payload,
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
        for (kind, payload) in [
            (RecordKind::Snapshot, b"{\"s\":0}"),
            (RecordKind::Event, b"{\"e\":1}"),
            (RecordKind::Event, b"{\"e\":2}"),
        ] {
            log.extend(encode_frame(MAGIC, kind as u8, payload));
        }
        log
    }

    #[test]
    fn clean_log_round_trips() {
        let log = sample_log();
        let (frames, tail) = decode_frames(&log);
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
        assert_ne!(xxh64(1, b"abc"), xxh64(2, b"abc"));
        let a = encode_frame(MAGIC, RecordKind::Event as u8, b"abc");
        let b = encode_frame(MAGIC, RecordKind::Snapshot as u8, b"abc");
        assert_ne!(a, b);
    }

    #[test]
    fn xxh64_matches_its_published_vectors() {
        assert_eq!(xxh64(0, b""), 0xEF46DB3751D8E999);
        assert_eq!(xxh64(0, b"a"), 0xD24EC4F1A98C6E5B);
        assert_eq!(xxh64(0, b"abc"), 0x44BC2CF5AD770999);
        // 39 bytes: one four-lane stripe, then the 8-, 4- and 1-byte tails.
        let long = b"Nobody inspects the spammish repetition";
        assert_eq!(xxh64(0, long), 0xFBCEA83C8A378BF1);
        // zstd's content checksum is the low half: `zstd --check` of a
        // thousand 'x' ends in e1 00 b7 9c.
        assert_eq!(xxh64(0, &[b'x'; 1000]) as u32, 0x9CB700E1);
    }

    /// `frame` rewritten as the version-1 header a pre-v2 writer wrote.
    fn as_v1(mut frame: Vec<u8>) -> Vec<u8> {
        let sum = checksum(1, frame[3], &frame[HEADER_LEN..]);
        frame[2] = 1;
        frame[8..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        frame
    }

    /// The bytes a v2 writer puts down, pinned (the sums by an independent
    /// XXH64 checked against the published vectors): the layout, the tag
    /// as the seed, and the four-lane path under a seed (38 bytes).
    #[test]
    fn a_v2_frame_is_these_bytes() {
        let snapshot = b"{\"kind\":\"snapshot\",\"shards\":[0,1,2,3]}";
        for (tag, payload, header) in [
            (1, &b"{}"[..], 0x524a020102000000a23ed4b834261f1d_u128),
            (2, &snapshot[..], 0x524a0202260000009e20252b57b5485d),
        ] {
            let frame = encode_frame(MAGIC, tag, payload);
            assert_eq!(frame[..HEADER_LEN], header.to_be_bytes());
            assert_eq!(&frame[HEADER_LEN..], payload);
        }
    }

    #[test]
    fn a_v1_prefix_and_a_v2_tail_decode_clean() {
        // A follower's mirror across an upgrade: frames written before it
        // in v1, after it in v2.
        let mut log = as_v1(encode_frame(
            MAGIC,
            RecordKind::Snapshot as u8,
            b"{\"s\":0}",
        ));
        log.extend(as_v1(encode_frame(
            MAGIC,
            RecordKind::Event as u8,
            b"{\"e\":1}",
        )));
        log.extend(encode_frame(MAGIC, RecordKind::Event as u8, b"{\"e\":2}"));
        let (frames, tail) = decode_frames(&log);
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(frames.len(), 3);
        assert_eq!(frame_count(&log), 3);
        let versions: Vec<u8> = frames.iter().map(|f| f.version).collect();
        assert_eq!(versions, [1, 1, VERSION]);
    }

    #[test]
    fn a_checksum_of_the_wrong_version_or_an_unknown_version_is_corrupt() {
        let v2 = encode_frame(MAGIC, RecordKind::Event as u8, b"{\"e\":1}");
        let v1 = as_v1(v2.clone());
        for (version, frame) in [(1, &v2), (VERSION, &v1), (3, &v2), (0, &v1)] {
            let mut bad = frame.clone();
            bad[2] = version;
            assert_eq!(decode_frames(&bad).1, TailStatus::Corrupt { offset: 0 });
        }
        let mut flipped = v2;
        flipped[HEADER_LEN] ^= 1;
        assert_eq!(decode_frames(&flipped).1, TailStatus::Corrupt { offset: 0 });
        let mut head = [0; HEADER_LEN];
        head.copy_from_slice(&v1[..HEADER_LEN]);
        head[2] = 3;
        assert_eq!(
            parse_header(&head, MAGIC, NO_CAP),
            Err(HeaderError::Corrupt("unknown framing version"))
        );
    }

    #[test]
    fn empty_log_is_clean() {
        let (frames, tail) = decode_frames(&[]);
        assert!(frames.is_empty());
        assert!(tail.is_clean());
    }
}
