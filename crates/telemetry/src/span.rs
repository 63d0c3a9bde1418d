//! Trace spans: the unit of record in the flight recorder.
//!
//! A [`Span`] is one timestamped stage of one request's journey through the
//! stack. Spans carry a `trace` id minted at the ingress point (the network
//! edge, or `submit_request` for in-process callers) and a process-global
//! `seq` number, so a request's full timeline is reconstructable by trace id
//! and totally ordered by it.

use serde::{Deserialize, Serialize};

use rtdls_core::prelude::SimTime;

/// The pipeline stage a span was recorded at.
///
/// The variants mirror the request's actual path: a framed submission enters
/// at [`Stage::EdgeReceive`], is routed to a shard ([`Stage::Route`]), runs
/// the admission test ([`Stage::Plan`]), is made durable
/// ([`Stage::JournalAppend`]), may park as a reservation
/// ([`Stage::Reserve`]) or deferral ([`Stage::DeferPark`]), later activates
/// ([`Stage::Activate`]) or resolves ([`Stage::Resolve`]), and its verdict
/// updates stream back out ([`Stage::PushUpdate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Frame decoded and request accepted for processing at the edge.
    EdgeReceive,
    /// Sharded gateway picked a target shard for the request.
    Route,
    /// Admission engine ran the schedulability test / planned the task.
    Plan,
    /// Request (or its verdict audit) appended to the write-ahead journal.
    JournalAppend,
    /// Reservation booked for a future start instant.
    Reserve,
    /// Request parked in the defer queue.
    DeferPark,
    /// Reservation reached its start instant and was re-tested.
    Activate,
    /// Deferred/reserved request reached a terminal outcome.
    Resolve,
    /// Decision update pushed to the owning edge connection.
    PushUpdate,
    /// Gateway state rebuilt from the journal (crash recovery).
    Recovery,
    /// Journal frame handed to the replication transport on the primary.
    ShipFrame,
    /// Shipped frame applied (and its input replayed) on the follower.
    FollowerReplay,
    /// Follower promoted to primary; in-flight traces get fenced here.
    Promote,
}

impl Stage {
    /// Short lower-case stage label (used in dumps and metric labels).
    pub fn label(&self) -> &'static str {
        match self {
            Stage::EdgeReceive => "edge_receive",
            Stage::Route => "route",
            Stage::Plan => "plan",
            Stage::JournalAppend => "journal_append",
            Stage::Reserve => "reserve",
            Stage::DeferPark => "defer_park",
            Stage::Activate => "activate",
            Stage::Resolve => "resolve",
            Stage::PushUpdate => "push_update",
            Stage::Recovery => "recovery",
            Stage::ShipFrame => "ship_frame",
            Stage::FollowerReplay => "follower_replay",
            Stage::Promote => "promote",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded stage of one traced request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Trace id this span belongs to (`0` = untraced, never recorded).
    pub trace: u64,
    /// Process-global sequence number: the total order of the recorder.
    pub seq: u64,
    /// Pipeline stage.
    pub stage: Stage,
    /// Shard the stage executed on, when known.
    pub shard: Option<u32>,
    /// Task id the request carries (0 when not applicable).
    pub task: u64,
    /// Stage outcome label (verdict name, eviction cause, …).
    pub outcome: String,
    /// Gateway clock at record time.
    pub at: SimTime,
    /// Wall-clock duration of the stage in nanoseconds (0 = not timed).
    pub duration_ns: u64,
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{seq} trace={trace} task={task} {stage}",
            seq = self.seq,
            trace = self.trace,
            task = self.task,
            stage = self.stage,
        )?;
        if let Some(s) = self.shard {
            write!(f, " shard={s}")?;
        }
        write!(
            f,
            " outcome={} at={:.3} dur={}ns",
            self.outcome,
            self.at.as_f64(),
            self.duration_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_round_trips_through_serde() {
        let s = Span {
            trace: 7,
            seq: 42,
            stage: Stage::Plan,
            shard: Some(3),
            task: 11,
            outcome: "Accepted".to_string(),
            at: SimTime::new(1.5),
            duration_ns: 900,
        };
        let back: Span = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn stage_labels_are_distinct() {
        let all = [
            Stage::EdgeReceive,
            Stage::Route,
            Stage::Plan,
            Stage::JournalAppend,
            Stage::Reserve,
            Stage::DeferPark,
            Stage::Activate,
            Stage::Resolve,
            Stage::PushUpdate,
            Stage::Recovery,
            Stage::ShipFrame,
            Stage::FollowerReplay,
            Stage::Promote,
        ];
        let mut labels: Vec<_> = all.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }
}
