//! The edge protocol messages: what travels inside the codec's frames.
//!
//! One JSON message per frame, rendered straight into the frame's buffer
//! and decoded straight from its bytes: no `String` or value tree between,
//! and nesting deeper than 128 is a decode error, not a stack overflow. The
//! client speaks [`ClientMsg`]
//! (client → server frames), the server [`ServerMsg`]. The conversation:
//!
//! 1. On accept, the server pushes [`ServerMsg::Hello`]. A client may send
//!    its own [`ClientMsg::Hello`]; a protocol-version mismatch is answered
//!    with [`ServerMsg::Error`] and the connection closes.
//! 2. The client streams [`ClientMsg::Submit`]s — each a `seq`-tagged
//!    [`SubmitRequest`] envelope. The server answers every submit with
//!    exactly one [`ServerMsg::Verdict`] carrying the same `seq`.
//! 3. **Verdict streaming**: `Accepted` / `Rejected` / `Throttled` verdicts
//!    are final, but `Reserved` and `Deferred` are promises. When a parked
//!    task's fate resolves — a reservation activates (or misses), a defer
//!    ticket is rescued or expires — the server *pushes*
//!    [`ServerMsg::Update`] to the connection that submitted it, without
//!    the client polling. Updates are keyed by task id; see
//!    [`DecisionUpdate`] for the terminality rules.
//! 4. [`ClientMsg::Bye`] asks the server to flush queued replies and close.
//!
//! Delivery of updates is best-effort in exactly one sense: a client that
//! disconnects before its parked tasks resolve simply misses them (the
//! durable record is the journal's audit stream, not the socket).

use serde::{Deserialize, Serialize};

use rtdls_core::prelude::{AdmissionExplanation, SubmitRequest};
use rtdls_service::prelude::{DecisionUpdate, SloStatusRow, Verdict};
use rtdls_telemetry::{MetricSample, PhaseProfile, SeriesPoint, Span};

use rtdls_journal::wire::write_frame;

use crate::codec::{Direction, MAGIC};

/// Version of the message vocabulary (bumped on incompatible change; the
/// codec's framing version is independent).
pub const PROTOCOL_VERSION: u32 = 1;

/// Client → server messages.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ClientMsg {
    /// Optional greeting; a version mismatch fails the connection fast.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// One submission. `seq` is client-chosen and echoed on the verdict;
    /// the task id inside the request must be unique across the stream
    /// (it keys pushed updates).
    Submit {
        /// Client-side correlation number.
        seq: u64,
        /// The v2 submission envelope.
        request: SubmitRequest,
    },
    /// A live-ops query; answered with exactly one
    /// [`ServerMsg::OpsReport`]. Ops frames ride the same connection and
    /// reactor turn as submissions — `rtdls-top` is just another client.
    Ops {
        /// What to report.
        query: OpsQuery,
    },
    /// Flush replies and close.
    Bye,
}

/// A live-ops query carried by [`ClientMsg::Ops`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum OpsQuery {
    /// The unified metrics snapshot: every layer's native stats folded into
    /// the registry and flattened to scalar samples.
    Stats,
    /// The recorded timeline (flight-recorder spans, seq order) of one
    /// trace id.
    Trace {
        /// The trace id, as carried on `Verdict` flows or listed by
        /// [`OpsQuery::RecentTraces`].
        id: u64,
    },
    /// The most recently active trace ids, newest last.
    RecentTraces,
    /// The deadline-SLO status table: one row per (scope, objective) the
    /// tracker has observed, with burn rates and health state.
    Slo,
    /// A what-if admission probe: explain why `request` would (or would
    /// not) be admitted right now, without submitting it. The probe runs
    /// the same counterfactual search that annotates rejected verdicts,
    /// against the live book — nothing is enqueued or journaled.
    Explain {
        /// The hypothetical submission envelope.
        request: SubmitRequest,
    },
    /// Recent history of one metric series from the server's in-memory
    /// time-series ring (empty unless history is enabled on the server).
    History {
        /// The series key, as listed in a previous report's `available`
        /// list (`name{label=value,...}`). An empty string asks only for
        /// the available-series catalog.
        series: String,
        /// How far back, in sim-seconds from the server's now. `<= 0`
        /// means everything the ring retains.
        range: f64,
    },
    /// The hot-path profiler's phase tree (empty unless profiling is
    /// enabled on the server).
    Profile,
}

/// The answer to one [`OpsQuery`], carried by [`ServerMsg::OpsReport`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum OpsReport {
    /// Flattened metric samples (histograms become `_count`/`_sum`/
    /// quantile-gauge scalars) plus the serving identity: which epoch
    /// answers, and how far a follower's acks trail the journal head.
    Stats {
        /// The samples, registry insertion order.
        samples: Vec<MetricSample>,
        /// The gateway's promotion epoch (0 = never failed over, or the
        /// gateway does not journal).
        epoch: u64,
        /// Frames appended but not yet acked by a replication follower —
        /// the history a failover right now would lose. `None` when the
        /// gateway does not ship, or no follower has ever acked.
        ack_lag: Option<u64>,
    },
    /// One trace's recorded spans in seq order (empty when the trace id is
    /// unknown or its spans have been overwritten in the ring).
    Trace {
        /// The queried trace id, echoed.
        id: u64,
        /// The timeline.
        spans: Vec<Span>,
    },
    /// Recently active trace ids, newest last.
    RecentTraces {
        /// The trace ids.
        traces: Vec<u64>,
    },
    /// The SLO status table (empty until the gateway has observed events).
    Slo {
        /// One row per tracked (scope, objective), tenants before QoS
        /// aggregates.
        rows: Vec<SloStatusRow>,
    },
    /// The answer to an [`OpsQuery::Explain`] probe. `None` means the
    /// request is admissible as-is at the probe instant.
    Explain {
        /// The probed task id, echoed.
        task: u64,
        /// The infeasibility explanation, when the request would fail.
        explanation: Option<AdmissionExplanation>,
    },
    /// The answer to an [`OpsQuery::History`] query.
    History {
        /// The queried series key, echoed.
        series: String,
        /// The retained points in the requested range, oldest first
        /// (empty when the series is unknown or history is disabled).
        points: Vec<SeriesPoint>,
        /// Every series key the store currently retains, sorted.
        available: Vec<String>,
    },
    /// The answer to an [`OpsQuery::Profile`] query: the phase tree,
    /// path-sorted (empty when profiling is disabled).
    Profile {
        /// Per-phase latency profiles.
        phases: Vec<PhaseProfile>,
    },
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ServerMsg {
    /// Sent once on accept.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// The answer to one [`ClientMsg::Submit`].
    Verdict {
        /// The submit's correlation number, echoed.
        seq: u64,
        /// The task id (redundant with `seq`, but lets a client correlate
        /// later [`ServerMsg::Update`]s without keeping its own map).
        task: u64,
        /// The gateway's verdict.
        verdict: Verdict,
    },
    /// A pushed resolution for a previously `Reserved`/`Deferred` task.
    Update {
        /// What happened.
        update: DecisionUpdate,
    },
    /// The answer to one [`ClientMsg::Ops`].
    OpsReport {
        /// The report.
        report: OpsReport,
    },
    /// A protocol-level failure; the connection closes after this flushes.
    Error {
        /// The offending submit's `seq`, when attributable.
        seq: Option<u64>,
        /// Human-readable cause.
        message: String,
    },
}

/// `msg` as one frame at the end of `out`: rendered straight from the typed
/// message into the destination, header patched in afterwards.
fn frame<T: Serialize>(direction: Direction, msg: &T, mut out: Vec<u8>) -> Vec<u8> {
    write_frame(MAGIC, direction as u8, &mut out, |out| {
        serde_json::to_writer(out, msg).expect("protocol messages are serializable")
    });
    out
}

/// Encodes one client message into a complete wire frame (sized for a
/// submit, ≈ 230 bytes, rather than grown into).
pub fn encode_client(msg: &ClientMsg) -> Vec<u8> {
    frame(Direction::FromClient, msg, Vec::with_capacity(256))
}

/// Encodes one server message into a complete wire frame.
pub fn encode_server(msg: &ServerMsg) -> Vec<u8> {
    frame(Direction::FromServer, msg, Vec::with_capacity(256))
}

/// Encodes one server message into a recycled frame buffer (cleared
/// first). The reactor's per-connection buffer pool uses this to keep the
/// reply path free of per-frame allocations; the bytes produced are
/// identical to [`encode_server`]'s.
pub fn encode_server_into(msg: &ServerMsg, out: &mut Vec<u8>) {
    out.clear();
    *out = frame(Direction::FromServer, msg, std::mem::take(out));
}

/// Decodes one frame payload as a client message: from the frame's bytes
/// to the typed value, no tree in between.
pub fn decode_client(payload: &[u8]) -> Result<ClientMsg, serde::Error> {
    serde_json::from_slice(payload)
}

/// Decodes one frame payload as a server message.
pub fn decode_server(payload: &[u8]) -> Result<ServerMsg, serde::Error> {
    serde_json::from_slice(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdls_core::prelude::{Infeasible, QosClass, SimTime, Task, TenantId};

    #[test]
    fn client_messages_round_trip() {
        let req = SubmitRequest::new(Task::new(7, 1.5, 300.0, 9000.0))
            .with_tenant(TenantId(4))
            .with_qos(QosClass::Premium)
            .with_max_delay(Some(123.0));
        let msgs = [
            ClientMsg::Hello {
                protocol: PROTOCOL_VERSION,
            },
            ClientMsg::Submit {
                seq: 9,
                request: req,
            },
            ClientMsg::Bye,
        ];
        for msg in msgs {
            let frame = encode_client(&msg);
            let mut dec = crate::codec::FrameDecoder::new(crate::codec::DEFAULT_MAX_FRAME);
            dec.push(&frame);
            let (direction, payload) = dec.next_frame().unwrap().unwrap();
            assert_eq!(direction, Direction::FromClient);
            assert_eq!(decode_client(&payload).unwrap(), msg);
        }
    }

    #[test]
    fn server_messages_round_trip_including_every_verdict() {
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
        for (i, v) in verdicts.into_iter().enumerate() {
            let msg = ServerMsg::Verdict {
                seq: i as u64,
                task: 100 + i as u64,
                verdict: v,
            };
            let frame = encode_server(&msg);
            let mut dec = crate::codec::FrameDecoder::new(crate::codec::DEFAULT_MAX_FRAME);
            dec.push(&frame);
            let (direction, payload) = dec.next_frame().unwrap().unwrap();
            assert_eq!(direction, Direction::FromServer);
            assert_eq!(decode_server(&payload).unwrap(), msg);
        }
        let others = [
            ServerMsg::Hello {
                protocol: PROTOCOL_VERSION,
            },
            ServerMsg::Update {
                update: DecisionUpdate::Activated {
                    ticket: 1,
                    task: 2,
                    at: SimTime::new(3.0),
                    admitted: true,
                },
            },
            ServerMsg::Error {
                seq: Some(5),
                message: "quota".to_string(),
            },
        ];
        for msg in others {
            let back = decode_server(&encode_server(&msg)[crate::codec::HEADER_LEN..]).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn ops_messages_round_trip() {
        use rtdls_telemetry::{MetricKind, Stage};
        let queries = [
            OpsQuery::Stats,
            OpsQuery::Trace { id: 99 },
            OpsQuery::RecentTraces,
            OpsQuery::Slo,
            OpsQuery::Explain {
                request: SubmitRequest::new(Task::new(55, 0.0, 80.0, 4.0e6))
                    .with_tenant(TenantId(2))
                    .with_qos(QosClass::Standard),
            },
            OpsQuery::History {
                series: "rtdls_gateway_submitted".to_string(),
                range: 30.0,
            },
            OpsQuery::History {
                series: String::new(),
                range: 0.0,
            },
            OpsQuery::Profile,
        ];
        for query in queries {
            let msg = ClientMsg::Ops { query };
            let back = decode_client(&encode_client(&msg)[crate::codec::HEADER_LEN..]).unwrap();
            assert_eq!(back, msg);
        }
        let reports = [
            OpsReport::Stats {
                samples: vec![MetricSample {
                    name: "rtdls_gateway_submitted".to_string(),
                    labels: vec![("tenant".to_string(), "3".to_string())],
                    kind: MetricKind::Counter,
                    value: 12.0,
                }],
                epoch: 2,
                ack_lag: Some(4),
            },
            OpsReport::Trace {
                id: 99,
                spans: vec![Span {
                    trace: 99,
                    seq: 1,
                    stage: Stage::EdgeReceive,
                    shard: None,
                    task: 7,
                    outcome: "submit".to_string(),
                    at: SimTime::new(0.5),
                    duration_ns: 120,
                }],
            },
            OpsReport::RecentTraces {
                traces: vec![97, 98, 99],
            },
            OpsReport::Slo {
                rows: vec![rtdls_service::prelude::SloStatusRow {
                    tenant: Some(2),
                    qos: None,
                    objective: rtdls_service::prelude::SloObjective::Acceptance,
                    good: 40,
                    bad: 9,
                    short_burn: 3.7,
                    long_burn: 1.2,
                    state: rtdls_service::prelude::SloHealth::Burning,
                    breaches: 0,
                }],
            },
            OpsReport::Explain {
                task: 55,
                explanation: Some(rtdls_core::prelude::AdmissionExplanation {
                    cause: Infeasible::CompletionAfterDeadline,
                    at: SimTime::new(4.0),
                    slack_deficit: 17.5,
                    min_feasible_deadline: 97.5,
                    max_feasible_sigma: 2.2e6,
                    earliest_feasible_start: -1.0,
                }),
            },
            OpsReport::Explain {
                task: 56,
                explanation: None,
            },
            OpsReport::History {
                series: "rtdls_gateway_submitted".to_string(),
                points: vec![
                    SeriesPoint {
                        at: SimTime::new(1.0),
                        value: 3.0,
                    },
                    SeriesPoint {
                        at: SimTime::new(2.0),
                        value: 0.0,
                    },
                ],
                available: vec![
                    "rtdls_edge_connections".to_string(),
                    "rtdls_gateway_submitted".to_string(),
                ],
            },
            OpsReport::Profile {
                phases: vec![PhaseProfile {
                    path: "edge/drive".to_string(),
                    count: 12,
                    total_ns: 48_000,
                    max_ns: 9_000,
                    p50_ns: 2_048,
                    p90_ns: 8_192,
                    p99_ns: 8_192,
                }],
            },
        ];
        for report in reports {
            let msg = ServerMsg::OpsReport { report };
            let back = decode_server(&encode_server(&msg)[crate::codec::HEADER_LEN..]).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn malformed_payload_is_a_decode_error_not_a_panic() {
        assert!(decode_client(b"not json").is_err());
        assert!(decode_client(b"{\"Submit\":{}}").is_err());
        assert!(decode_server(&[0xff, 0xfe]).is_err());
    }
}
