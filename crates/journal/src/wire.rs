//! The on-disk record framing: length-prefixed, checksummed, append-only.
//!
//! Every record travels in one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  "RJ"
//! 2       1     format version (currently 1)
//! 3       1     record kind (1 = event, 2 = snapshot)
//! 4       4     payload length, u32 little-endian
//! 8       8     FNV-1a 64 checksum over kind byte + payload, u64 LE
//! 16      len   payload (UTF-8 JSON via the in-repo serde stand-ins)
//! ```
//!
//! The decoder walks frames front to back and stops at the first anomaly,
//! classifying the tail:
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

/// Frame magic: `RJ` (rtdls journal).
pub const MAGIC: [u8; 2] = *b"RJ";

/// Current format version.
pub const VERSION: u8 = 1;

/// Frame header length in bytes.
pub const HEADER_LEN: usize = 16;

/// What a frame's payload contains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// One [`JournalEvent`](crate::event::JournalEvent).
    Event,
    /// One [`GatewaySnapshot`](crate::snapshot::GatewaySnapshot).
    Snapshot,
}

impl RecordKind {
    fn to_byte(self) -> u8 {
        match self {
            RecordKind::Event => 1,
            RecordKind::Snapshot => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(RecordKind::Event),
            2 => Some(RecordKind::Snapshot),
            _ => None,
        }
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
/// checksums, segment checksums and the edge's tenant placement all hash
/// through it.
///
/// `#[inline]` is measured, not decoration: every WAL and edge frame is
/// checksummed, and with the two calls in [`checksum`] left out of line
/// the durable edge read ≈ 5 % more reactor CPU per request.
#[inline]
pub fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// FNV-1a 64 over the kind byte followed by the payload. Not
/// cryptographic — it detects torn writes and bit rot, which is all a
/// single-writer WAL needs.
pub fn checksum(kind: u8, payload: &[u8]) -> u64 {
    fnv1a64(fnv1a64(FNV_OFFSET, &[kind]), payload)
}

/// Encodes one record into its frame bytes.
pub fn encode_frame(kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind.to_byte());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(kind.to_byte(), payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// How many whole frames `run` holds, by walking the length prefixes alone
/// (no checksum, no payload copy) — what a sink needs to account a
/// multi-frame write. Stops at the first frame cut short; `run` is trusted
/// to be the journal's own encoding, so magic and checksums are not
/// re-verified here (that is [`decode_frames`]' job on the read side).
pub fn frame_count(run: &[u8]) -> usize {
    let mut frames = 0;
    let mut pos = 0;
    while run.len() - pos >= HEADER_LEN {
        let len = u32::from_le_bytes(run[pos + 4..pos + 8].try_into().expect("4 bytes")) as usize;
        if run.len() - pos - HEADER_LEN < len {
            break;
        }
        pos += HEADER_LEN + len;
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
        let rest = &bytes[pos..];
        if rest.len() < HEADER_LEN {
            return (frames, TailStatus::Truncated { offset: pos });
        }
        if rest[0..2] != MAGIC || rest[2] != VERSION {
            return (frames, TailStatus::Corrupt { offset: pos });
        }
        let Some(kind) = RecordKind::from_byte(rest[3]) else {
            return (frames, TailStatus::Corrupt { offset: pos });
        };
        let len = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes")) as usize;
        let crc = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
        if rest.len() < HEADER_LEN + len {
            return (frames, TailStatus::Truncated { offset: pos });
        }
        let payload = &rest[HEADER_LEN..HEADER_LEN + len];
        if checksum(rest[3], payload) != crc {
            return (frames, TailStatus::Corrupt { offset: pos });
        }
        frames.push(Frame {
            kind,
            offset: pos,
            payload: payload.to_vec(),
        });
        pos += HEADER_LEN + len;
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
