//! Property: decision-trace order agrees with journal append order.
//!
//! The write-ahead discipline says every v2 submission is appended to the
//! WAL (as `RequestSubmitted`, carrying its minted trace id) and — once
//! telemetry is attached — records a `JournalAppend` span. Over arbitrary
//! op streams the two records of history must tell the same story:
//!
//! * every traced request appears exactly once in each, and
//! * the sequence of trace ids in `JournalAppend` spans (flight-recorder
//!   seq order) equals the sequence of trace ids in `RequestSubmitted`
//!   events (WAL byte order).
//!
//! Interleaved non-submission ops (turns driven — dispatch, defer sweep,
//! activation sweep — and node completions) must not perturb either
//! sequence.

use proptest::prelude::*;

use rtdls_core::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_service::prelude::*;
use rtdls_telemetry::{Stage, Telemetry, TelemetryConfig};

/// One step of a random op stream.
#[derive(Clone, Debug)]
enum Op {
    /// Submit a request: (data size, deadline factor over a feasible base,
    /// tenant, premium?, reservation tolerance).
    Submit(f64, f64, u32, bool, Option<f64>),
    /// Drive a turn at the current clock: dispatch, sweep the defer queue,
    /// sweep due reservations.
    Drive,
    /// Release a node.
    Complete(usize),
    /// Advance the clock.
    Tick(f64),
}

fn op() -> impl Strategy<Value = Op> {
    // One flat tuple mapped by discriminant (the vendored proptest has no
    // `prop_oneof`): submissions dominate, the rest interleave.
    (
        0u8..12,
        50.0f64..800.0,
        0.02f64..4.0,
        0u32..4,
        0u8..4,
        1.0f64..200.0,
    )
        .prop_map(|(d, sz, f, tenant, aux, dt)| match d {
            0..=5 => Op::Submit(sz, f, tenant, aux % 2 == 0, (aux >= 2).then_some(dt * 25.0)),
            6..=8 => Op::Drive,
            9 => Op::Complete(aux as usize),
            _ => Op::Tick(dt),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn journal_append_spans_match_wal_request_order(
        ops in prop::collection::vec(op(), 1..80),
        shards in 1usize..3,
        snapshot_every in 0usize..12,
    ) {
        let params = ClusterParams::paper_baseline();
        let gateway = ShardedGateway::new(
            params,
            shards,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::LeastLoaded,
            DeferPolicy::default(),
        )
        .unwrap();
        let mut j = JournaledGateway::new(
            gateway,
            JournalConfig {
                snapshot_every,
                compact_on_snapshot: false, // keep the whole WAL for the comparison
            },
        );
        let telemetry = Telemetry::new(TelemetryConfig {
            recorder_capacity: 4096,
            ..TelemetryConfig::default()
        });
        j.attach_telemetry(&telemetry);

        let base = rtdls_core::dlt::homogeneous::exec_time(&params, 400.0, params.num_nodes);
        let mut now = 0.0f64;
        let mut id = 0u64;
        let mut submitted = 0usize;
        for op in &ops {
            let at = SimTime::new(now);
            match op {
                Op::Submit(sz, f, tenant, premium, tol) => {
                    id += 1;
                    submitted += 1;
                    let req = SubmitRequest::new(Task::new(id, now, *sz, base * f))
                        .with_tenant(TenantId(*tenant))
                        .with_qos(if *premium { QosClass::Premium } else { QosClass::Standard })
                        .with_max_delay(*tol);
                    let _ = j.submit_request(&req, at);
                }
                Op::Drive => {
                    let _ = j.drive(at);
                }
                Op::Complete(node) => {
                    let node = node % params.num_nodes;
                    // Releases must not move backwards.
                    let t = j.committed_release(node).as_f64().max(now);
                    j.node_released(node, SimTime::new(t));
                }
                Op::Tick(dt) => now += dt,
            }
        }

        // The WAL's story: trace ids of RequestSubmitted events in byte order.
        let (frames, tail) = rtdls_journal::wire::decode_frames(j.journal().bytes());
        prop_assert!(tail.is_clean());
        let mut wal_traces = Vec::new();
        for frame in &frames {
            if frame.kind != rtdls_journal::wire::RecordKind::Event {
                continue;
            }
            let ev: JournalEvent =
                serde_json::from_str(&String::from_utf8_lossy(&frame.payload)).unwrap();
            if let JournalEvent::RequestSubmitted { request, .. } = ev {
                wal_traces.push(request.trace);
            }
        }

        // The flight recorder's story: trace ids of JournalAppend spans in
        // seq order.
        let retained = telemetry.spans_recorded() as usize;
        let span_traces: Vec<u64> = telemetry
            .recent_spans(retained)
            .into_iter()
            .filter(|s| s.stage == Stage::JournalAppend)
            .map(|s| s.trace)
            .collect();

        prop_assert_eq!(wal_traces.len(), submitted);
        prop_assert_eq!(&span_traces, &wal_traces);
        // Every trace was minted: nonzero and (being mint-ordered under a
        // sequential driver) strictly increasing.
        prop_assert!(wal_traces.iter().all(|&t| t != 0));
        prop_assert!(wal_traces.windows(2).all(|w| w[0] < w[1]));
    }
}
