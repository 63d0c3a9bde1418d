//! Journal shipping: the primary side of the replication channel and its
//! byte format.
//!
//! A [`Shipper`] rides next to a shard primary's [`Journal`] and turns its
//! append stream into [`ShipMsg`]s. The unit of shipping is the journal's
//! own wire frame (checksummed, length-prefixed, exactly what the WAL file
//! stores), addressed by the journal's global frame sequence number — so
//! the follower (`rtdls-replica`) can replay, deduplicate, and ack by
//! offset without any side-band framing protocol.
//!
//! The shipper is transport-agnostic and **pull-based**: a
//! [`JournaledGateway`](crate::JournaledGateway) with shipping on polls it
//! after every committed turn, and its owner sends whatever messages come
//! back. Three things can come back:
//!
//! * **Frames** — everything appended since the last poll. Compaction is
//!   handled by [`Journal::frames_from`]'s clamp: if the log compacted past
//!   the ship cursor, the stream restarts at the compacting snapshot, which
//!   supersedes everything the follower missed.
//! * **Retransmissions** — if the acked offset has not advanced for
//!   [`ShipConfig::retransmit_after`] sim-seconds while unacked frames
//!   exist, the unacked tail is re-shipped. Frame application is idempotent
//!   by offset on the follower, so over-retransmission is safe, merely
//!   wasteful.
//! * **Heartbeats** — at least every [`ShipConfig::heartbeat_every`]
//!   sim-seconds, carrying the current epoch and head offset. Heartbeats
//!   are the follower's failure detector: silence long enough triggers
//!   promotion.
//!
//! Every message carries the journal's current **epoch**. A shipper never
//! inspects epochs itself — fencing is entirely the receiving follower's
//! job — it just stamps faithfully, which is exactly what makes a zombie
//! primary's post-partition traffic detectable.
//!
//! On a link each message is its JSON encoding in one frame of the
//! workspace's header codec ([`crate::wire`], the header the journal and
//! the edge use) under the magic `RS`: [`encode_msg`] appends a frame to a
//! buffer and [`decode_msg`] takes one off the front of a buffer. The
//! length prefix is held against [`MAX_SHIP_FRAME`] before a byte of
//! payload is read, and the checksum catches what a bare length prefix
//! would pass on as a misparsed message.

use std::io;

use rtdls_core::prelude::SimTime;
use rtdls_telemetry::{MetricsRegistry, Span, Stage, Telemetry};
use serde::{Deserialize, Serialize};

use crate::event::JournalEvent;
use crate::journal::Journal;
use crate::wire::{
    decode_frames, parse_header, write_frame, RecordKind, HEADER_LEN, MAX_SHIP_FRAME,
};

/// One message on the replication channel, in either direction.
///
/// `Frame` and `Heartbeat` flow primary → follower; `Ack` flows back.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ShipMsg {
    /// One journal wire frame (snapshot or event record), verbatim.
    Frame {
        /// Promotion epoch the sender's journal was on when it shipped.
        epoch: u64,
        /// Global journal frame sequence number of this frame.
        seq: u64,
        /// The encoded frame bytes (magic, kind, length, payload, checksum).
        bytes: Vec<u8>,
        /// Trace id of the request this frame journals (`0` = untraced:
        /// telemetry off on the primary, or a frame that journals no
        /// request). Rides the wire so the follower records its replay
        /// under the originating trace.
        trace: u64,
        /// The primary's retained spans for `trace` at ship time — the
        /// cross-node half of the timeline. Empty when untraced; the
        /// follower re-sequences these into its own flight recorder so a
        /// single trace id reconstructs the full story after a failover.
        spans: Vec<Span>,
    },
    /// Liveness beacon: "I am primary for `epoch`, my log head is `head`."
    Heartbeat {
        /// The sender's current promotion epoch.
        epoch: u64,
        /// The sender's next frame sequence number (frames `< head` exist).
        head: u64,
    },
    /// Cumulative acknowledgement: "I have applied every frame `< seq`."
    Ack {
        /// The follower's next expected frame sequence number.
        seq: u64,
    },
}

impl ShipMsg {
    /// An untraced frame (tests, zombie redelivery, telemetry-off paths).
    pub fn frame(epoch: u64, seq: u64, bytes: Vec<u8>) -> ShipMsg {
        ShipMsg::Frame {
            epoch,
            seq,
            bytes,
            trace: 0,
            spans: Vec::new(),
        }
    }
}

/// Frame magic: `RS` (rtdls ship).
pub const MAGIC: [u8; 2] = *b"RS";

/// The header tag of a ship frame; the payload is always one [`ShipMsg`].
pub const TAG: u8 = 1;

fn invalid(reason: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.to_string())
}

/// Appends one message to `out` as one frame. Real messages sit far under
/// the cap (the largest bench fleet's snapshot is a 64th of it); a reader
/// refuses whatever does not.
pub fn encode_msg(msg: &ShipMsg, out: &mut Vec<u8>) {
    write_frame(MAGIC, TAG, out, |out| {
        serde_json::to_writer(out, msg).expect("ship messages are serializable")
    });
}

/// Takes the first frame off the front of `buf`: `Ok(None)` while it is
/// still incomplete, else the message and the bytes it used. A header that
/// is not a ship header, a length beyond the cap, a checksum mismatch or an
/// undecodable payload is `InvalidData`, after which the stream has lost
/// its framing.
pub fn decode_msg(buf: &[u8]) -> io::Result<Option<(ShipMsg, usize)>> {
    let Some((head, rest)) = buf.split_first_chunk::<HEADER_LEN>() else {
        return Ok(None);
    };
    let header = parse_header(head, MAGIC, MAX_SHIP_FRAME)
        .map_err(|e| invalid(format!("bad ship frame header: {e:?}")))?;
    let Some(body) = rest.get(..header.len) else {
        return Ok(None);
    };
    if header.tag != TAG || !header.verifies(body) {
        return Err(invalid("ship frame fails its tag or checksum"));
    }
    let msg = serde_json::from_slice(body).map_err(invalid)?;
    Ok(Some((msg, HEADER_LEN + header.len)))
}

/// The trace id and task id journaled in one encoded frame, when the frame
/// is a decodable `RequestSubmitted` event (`(0, 0)` otherwise; no other
/// payload is decoded). This is how the shipper labels outbound frames
/// without any side-band state: the trace already rides the WAL payload.
pub fn frame_trace(bytes: &[u8]) -> (u64, u64) {
    let (frames, tail) = decode_frames(bytes);
    let payload = match frames[..] {
        [frame] if tail.is_clean() && frame.kind == RecordKind::Event => frame.payload,
        _ => return (0, 0),
    };
    if JournalEvent::tag_of(payload) != Some("RequestSubmitted") {
        return (0, 0);
    }
    match serde_json::from_slice(payload) {
        Ok(JournalEvent::RequestSubmitted { request, .. }) => (request.trace, request.task.id.0),
        _ => (0, 0),
    }
}

/// Shipping cadence knobs, in sim-seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShipConfig {
    /// Emit a heartbeat at least this often.
    pub heartbeat_every: f64,
    /// Re-ship the unacked tail after this long without ack progress.
    pub retransmit_after: f64,
}

impl Default for ShipConfig {
    fn default() -> Self {
        ShipConfig {
            heartbeat_every: 50.0,
            retransmit_after: 200.0,
        }
    }
}

/// Cumulative shipping counters, for assertions and the metrics fold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShipStats {
    /// Frames shipped first-time (excludes retransmissions).
    pub frames_shipped: u64,
    /// Frames re-shipped by the retransmission timer.
    pub retransmitted: u64,
    /// Heartbeats emitted.
    pub heartbeats: u64,
    /// Acks that advanced the acked offset.
    pub acks_applied: u64,
}

/// The primary-side replication endpoint for one shard journal.
#[derive(Debug)]
pub struct Shipper {
    cfg: ShipConfig,
    /// Frames `< shipped` have been handed to the transport at least once.
    shipped: u64,
    /// Frames `< acked` are known applied by the follower.
    acked: u64,
    last_heartbeat: Option<SimTime>,
    /// Last instant the acked offset moved (or the tail was re-shipped);
    /// the retransmission timer measures silence from here.
    last_progress: SimTime,
    stats: ShipStats,
    /// Trace handle: when enabled, outbound frames carry the journaled
    /// request's trace id plus the primary's retained spans for it, and
    /// every first-time ship records a `ShipFrame` span. Disabled by
    /// default — the untraced path never decodes frame payloads. It also
    /// times the `ship/poll` and `ship/ack` phases.
    telemetry: Telemetry,
}

impl Shipper {
    /// A shipper that has shipped nothing yet.
    pub fn new(cfg: ShipConfig) -> Self {
        Shipper {
            cfg,
            shipped: 0,
            acked: 0,
            last_heartbeat: None,
            last_progress: SimTime::ZERO,
            stats: ShipStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a trace handle: shipped frames start carrying trace ids
    /// and span payloads for cross-node timeline reconstruction, and the
    /// `ship/*` phases start timing.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    /// Builds one outbound frame, labeling it with the journaled request's
    /// trace (and the trace's retained primary spans) when tracing is on.
    fn make_frame(
        &self,
        epoch: u64,
        seq: u64,
        bytes: &[u8],
        now: SimTime,
        outcome: &str,
    ) -> ShipMsg {
        if !self.telemetry.is_enabled() {
            return ShipMsg::frame(epoch, seq, bytes.to_vec());
        }
        let (trace, task) = frame_trace(bytes);
        if trace != 0 {
            // Record the ship stage *before* collecting the trace's spans,
            // so the follower's copy of the timeline includes it.
            self.telemetry
                .record(trace, Stage::ShipFrame, None, task, outcome, now, None);
        }
        let spans = if trace != 0 {
            self.telemetry.trace_spans(trace)
        } else {
            Vec::new()
        };
        ShipMsg::Frame {
            epoch,
            seq,
            bytes: bytes.to_vec(),
            trace,
            spans,
        }
    }

    /// Everything the channel owes the follower as of `now`: newly
    /// appended frames, a retransmission of the unacked tail if acks have
    /// stalled, and a heartbeat if one is due. The caller sends the
    /// returned messages in order.
    pub fn poll(&mut self, journal: &Journal, now: SimTime) -> Vec<ShipMsg> {
        let phase = self.telemetry.timer();
        let epoch = journal.epoch();
        let head = journal.next_seq();
        let mut out = Vec::new();

        if head > self.shipped {
            let (start, frames) = journal.frames_from(self.shipped);
            // `start > shipped` means the log compacted past our cursor;
            // the snapshot at `start` supersedes the dropped gap.
            for (i, bytes) in frames.iter().enumerate() {
                out.push(self.make_frame(epoch, start + i as u64, bytes, now, "shipped"));
            }
            self.stats.frames_shipped += frames.len() as u64;
            self.shipped = head;
        }

        if self.acked < self.shipped
            && now.as_f64() - self.last_progress.as_f64() >= self.cfg.retransmit_after
        {
            let (start, frames) = journal.frames_from(self.acked);
            for (i, bytes) in frames.iter().enumerate() {
                out.push(self.make_frame(epoch, start + i as u64, bytes, now, "retransmitted"));
            }
            self.stats.retransmitted += frames.len() as u64;
            self.last_progress = now;
        }

        if self
            .last_heartbeat
            .is_none_or(|t| now.as_f64() - t.as_f64() >= self.cfg.heartbeat_every)
        {
            out.push(ShipMsg::Heartbeat { epoch, head });
            self.stats.heartbeats += 1;
            self.last_heartbeat = Some(now);
        }

        self.telemetry.phase("ship/poll", phase);
        out
    }

    /// Applies a follower [`ShipMsg::Ack`]: acks are cumulative, so only a
    /// forward move counts as progress.
    pub fn on_ack(&mut self, seq: u64, now: SimTime) {
        let phase = self.telemetry.timer();
        if seq > self.acked {
            self.acked = seq;
            self.last_progress = now;
            self.stats.acks_applied += 1;
        }
        self.telemetry.phase("ship/ack", phase);
    }

    /// Frames handed to the transport at least once (`< shipped`).
    pub fn shipped(&self) -> u64 {
        self.shipped
    }

    /// Frames known applied by the follower (`< acked`).
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Replication lag in frames: how far the follower's acked knowledge
    /// trails the journal head. The number a deadline-SLO operator watches.
    pub fn lag(&self, journal: &Journal) -> u64 {
        journal.next_seq().saturating_sub(self.acked)
    }

    /// The next instant a heartbeat becomes due (`None` = one is due on
    /// the very next poll).
    pub fn next_heartbeat(&self) -> Option<SimTime> {
        self.last_heartbeat
            .map(|t| SimTime::new(t.as_f64() + self.cfg.heartbeat_every))
    }

    /// Cumulative shipping counters.
    pub fn stats(&self) -> ShipStats {
        self.stats
    }

    /// Folds the primary-side view into `reg`: ship/ack offsets, the
    /// replication lag (`appended − acked`: how much admitted history a
    /// failover right now would lose), the epoch and the counters.
    pub fn fold(&self, reg: &mut MetricsRegistry, journal: &Journal) {
        reg.gauge("rtdls_replica_epoch", &[], journal.epoch() as f64);
        let appended = journal.next_seq() as f64;
        reg.gauge("rtdls_replica_appended_offset", &[], appended);
        reg.gauge("rtdls_replica_shipped_offset", &[], self.shipped as f64);
        reg.gauge("rtdls_replica_acked_offset", &[], self.acked as f64);
        reg.gauge("rtdls_replica_lag", &[], self.lag(journal) as f64);
        let stats = self.stats;
        reg.counter("rtdls_replica_frames_shipped", &[], stats.frames_shipped);
        reg.counter("rtdls_replica_retransmitted", &[], stats.retransmitted);
        reg.counter("rtdls_replica_heartbeats_sent", &[], stats.heartbeats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::JournaledGateway;
    use crate::journal::JournalConfig;
    use rtdls_core::prelude::*;
    use rtdls_service::prelude::*;

    fn journaled(snapshot_every: usize, compact: bool) -> JournaledGateway {
        let gw = ShardedGateway::new(
            ClusterParams::paper_baseline(),
            1,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::LeastLoaded,
            DeferPolicy::default(),
        )
        .unwrap();
        JournaledGateway::new(
            gw,
            JournalConfig {
                snapshot_every,
                compact_on_snapshot: compact,
            },
        )
    }

    fn count_frames(msgs: &[ShipMsg]) -> usize {
        msgs.iter()
            .filter(|m| matches!(m, ShipMsg::Frame { .. }))
            .count()
    }

    #[test]
    fn poll_ships_every_appended_frame_exactly_once() {
        let mut gw = journaled(0, false);
        let mut ship = Shipper::new(ShipConfig::default());

        // First poll ships the genesis snapshot and heartbeats.
        let msgs = ship.poll(gw.journal(), SimTime::ZERO);
        assert_eq!(count_frames(&msgs), 1, "genesis snapshot ships first");
        assert!(matches!(
            msgs.last(),
            Some(ShipMsg::Heartbeat { head: 1, .. })
        ));

        for i in 0..4 {
            gw.submit_request(
                &SubmitRequest::new(Task::new(i, 0.0, 500.0, 30_000.0)),
                SimTime::ZERO,
            );
        }
        let msgs = ship.poll(gw.journal(), SimTime::new(1.0));
        // Each submission journals an input event plus an audit record.
        assert_eq!(count_frames(&msgs) as u64, gw.journal().next_seq() - 1);
        assert_eq!(ship.shipped(), gw.journal().next_seq());

        // Nothing new: a quiet poll ships no frames.
        let msgs = ship.poll(gw.journal(), SimTime::new(2.0));
        assert_eq!(count_frames(&msgs), 0);
    }

    #[test]
    fn sequence_numbers_match_the_journal_and_acks_advance_lag() {
        let mut gw = journaled(0, false);
        let mut ship = Shipper::new(ShipConfig::default());
        for i in 0..3 {
            gw.submit_request(
                &SubmitRequest::new(Task::new(i, 0.0, 500.0, 30_000.0)),
                SimTime::ZERO,
            );
        }
        let msgs = ship.poll(gw.journal(), SimTime::ZERO);
        let seqs: Vec<u64> = msgs
            .iter()
            .filter_map(|m| match m {
                ShipMsg::Frame { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        let expect: Vec<u64> = (0..gw.journal().next_seq()).collect();
        assert_eq!(seqs, expect, "frames ship in journal order from seq 0");

        assert_eq!(ship.lag(gw.journal()), gw.journal().next_seq());
        ship.on_ack(gw.journal().next_seq(), SimTime::new(1.0));
        assert_eq!(ship.lag(gw.journal()), 0);
        // Acks never move backwards.
        ship.on_ack(1, SimTime::new(2.0));
        assert_eq!(ship.acked(), gw.journal().next_seq());
    }

    #[test]
    fn stalled_acks_trigger_retransmission_of_the_unacked_tail() {
        let mut gw = journaled(0, false);
        let cfg = ShipConfig {
            heartbeat_every: 1_000.0,
            retransmit_after: 10.0,
        };
        let mut ship = Shipper::new(cfg);
        gw.submit_request(
            &SubmitRequest::new(Task::new(1, 0.0, 500.0, 30_000.0)),
            SimTime::ZERO,
        );
        let first = ship.poll(gw.journal(), SimTime::ZERO);
        let shipped = count_frames(&first);
        assert!(shipped >= 2);

        // Ack only the genesis snapshot, then go quiet past the timer.
        ship.on_ack(1, SimTime::new(1.0));
        let quiet = ship.poll(gw.journal(), SimTime::new(5.0));
        assert_eq!(count_frames(&quiet), 0, "timer not yet expired");
        let retrans = ship.poll(gw.journal(), SimTime::new(12.0));
        assert_eq!(
            count_frames(&retrans) as u64,
            gw.journal().next_seq() - 1,
            "the unacked tail re-ships, from the acked offset"
        );
        assert!(ship.stats().retransmitted > 0);

        // Full ack: the timer disarms.
        ship.on_ack(gw.journal().next_seq(), SimTime::new(13.0));
        let after = ship.poll(gw.journal(), SimTime::new(100.0));
        assert_eq!(count_frames(&after), 0);
    }

    #[test]
    fn heartbeat_cadence_and_epoch_stamp() {
        let gw = journaled(0, false);
        let cfg = ShipConfig {
            heartbeat_every: 10.0,
            retransmit_after: 1_000.0,
        };
        let mut ship = Shipper::new(cfg);
        let mut beats = 0;
        for t in 0..50 {
            let msgs = ship.poll(gw.journal(), SimTime::new(t as f64));
            beats += msgs
                .iter()
                .filter(|m| matches!(m, ShipMsg::Heartbeat { .. }))
                .count();
        }
        assert_eq!(beats, 5, "one beat per 10-second window over 50 seconds");
        assert_eq!(ship.next_heartbeat(), Some(SimTime::new(50.0)));

        let msgs = ship.poll(gw.journal(), SimTime::new(100.0));
        match msgs.last() {
            Some(ShipMsg::Heartbeat { epoch, head }) => {
                assert_eq!(*epoch, gw.journal().epoch());
                assert_eq!(*head, gw.journal().next_seq());
            }
            other => panic!("expected heartbeat, got {other:?}"),
        }
    }

    #[test]
    fn compaction_clamps_the_ship_cursor_to_the_snapshot() {
        // Tiny snapshot interval + compaction: by the time the shipper
        // polls, the log has compacted past frames it never shipped. The
        // stream must restart at the compacting snapshot, not panic or
        // ship a gap.
        let mut gw = journaled(2, true);
        let mut ship = Shipper::new(ShipConfig::default());
        for i in 0..10 {
            gw.submit_request(
                &SubmitRequest::new(Task::new(i, 0.0, 500.0, 30_000.0)),
                SimTime::ZERO,
            );
        }
        let base = gw.journal().base_seq();
        assert!(base > 0, "the log compacted");
        let msgs = ship.poll(gw.journal(), SimTime::ZERO);
        let first_seq = msgs.iter().find_map(|m| match m {
            ShipMsg::Frame { seq, .. } => Some(*seq),
            _ => None,
        });
        assert_eq!(first_seq, Some(base), "stream restarts at the snapshot");
        assert_eq!(ship.shipped(), gw.journal().next_seq());
    }
}
