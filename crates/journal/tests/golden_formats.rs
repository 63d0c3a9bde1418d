//! Golden bytes for every journaled / wire type whose serde impl is derived
//! under a compatibility attribute: the exact JSON each value renders to,
//! with and without its optional parts, and the values older encodings
//! (which lack the later-added fields) read back as. The strings were
//! captured before the hand-written impls were deleted and pass on both
//! sides of that change.

use std::time::Duration;

use rtdls_core::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_journal::wire::{fnv1a64, FNV_OFFSET};
use rtdls_service::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// `value` renders to exactly `json`, and `json` reads back as `value`.
fn pinned<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: &T, json: &str) {
    assert_eq!(serde_json::to_string(value).unwrap(), json);
    assert_eq!(&serde_json::from_str::<T>(json).unwrap(), value);
}

/// `json` with the named top-level keys removed.
fn without(json: &str, keys: &[&str]) -> String {
    let Value::Map(mut entries) = serde_json::from_str::<Value>(json).unwrap() else {
        panic!("not an object: {json}");
    };
    entries.retain(|(k, _)| !keys.contains(&k.as_str()));
    serde_json::to_string(&Value::Map(entries)).unwrap()
}

const TASK: &str =
    r#"{"id":7,"arrival":1.5,"data_size":200.0,"rel_deadline":3000.0,"user_nodes":null}"#;
const EXPLAIN: &str = r#"{"cause":"no node count within the cluster meets the deadline","at":12.5,"slack_deficit":40.0,"min_feasible_deadline":240.0,"max_feasible_sigma":150.0,"earliest_feasible_start":-1.0}"#;

fn task() -> Task {
    Task::new(7, 1.5, 200.0, 3_000.0)
}

fn explanation() -> AdmissionExplanation {
    AdmissionExplanation {
        cause: Infeasible::NotEnoughNodes,
        at: SimTime::new(12.5),
        slack_deficit: 40.0,
        min_feasible_deadline: 240.0,
        max_feasible_sigma: 150.0,
        earliest_feasible_start: -1.0,
    }
}

#[test]
fn submit_request_omits_a_zero_trace_and_reads_an_absent_one_as_zero() {
    let req = SubmitRequest::new(task())
        .with_tenant(TenantId(5))
        .with_qos(QosClass::Premium)
        .with_max_delay(Some(250.0));
    let untraced = format!(r#"{{"task":{TASK},"tenant":5,"qos":"Premium","max_delay":250.0}}"#);
    pinned(&req, &untraced);
    let traced = format!("{},\"trace\":99}}", untraced.trim_end_matches('}'));
    pinned(&req.with_trace(99), &traced);
    // A required field stays required.
    let err = serde_json::from_str::<SubmitRequest>(&without(&untraced, &["qos"])).unwrap_err();
    assert!(err.to_string().contains("missing field `qos`"), "{err}");
}

#[test]
fn verdict_emits_explain_only_when_present() {
    pinned(&Verdict::Accepted, r#""Accepted""#);
    pinned(&Verdict::Throttled, r#""Throttled""#);
    pinned(
        &Verdict::Reserved {
            start_at: SimTime::new(42.0),
            ticket: 3,
        },
        r#"{"Reserved":{"start_at":42.0,"ticket":3}}"#,
    );
    pinned(&Verdict::deferred(9), r#"{"Deferred":{"ticket":9}}"#);
    pinned(
        &Verdict::deferred(9).with_explanation(Some(explanation())),
        &format!(r#"{{"Deferred":{{"ticket":9,"explain":{EXPLAIN}}}}}"#),
    );
    pinned(
        &Verdict::rejected(Infeasible::DeadlineBeforeStart),
        r#"{"Rejected":{"cause":"deadline passes before any node is available"}}"#,
    );
    pinned(
        &Verdict::rejected(Infeasible::NotEnoughNodes).with_explanation(Some(explanation())),
        &format!(
            r#"{{"Rejected":{{"cause":"no node count within the cluster meets the deadline","explain":{EXPLAIN}}}}}"#
        ),
    );
    // An explicit null reads like an absent key.
    assert_eq!(
        serde_json::from_str::<Verdict>(r#"{"Deferred":{"ticket":9,"explain":null}}"#).unwrap(),
        Verdict::deferred(9)
    );
    assert!(serde_json::from_str::<Verdict>(r#"{"Deferred":{}}"#).is_err());
}

#[test]
fn quota_policy_reads_a_snapshot_that_predates_shard_caps() {
    let quota = QuotaPolicy {
        max_inflight: Some(4),
        max_reservations: None,
        max_shard_inflight: Some(2),
        exempt_premium: false,
    };
    let json = r#"{"max_inflight":4,"max_reservations":null,"max_shard_inflight":2,"exempt_premium":false}"#;
    pinned(&quota, json);
    let legacy = r#"{"max_inflight":4,"max_reservations":null,"exempt_premium":false}"#;
    assert_eq!(
        serde_json::from_str::<QuotaPolicy>(legacy).unwrap(),
        QuotaPolicy {
            max_shard_inflight: None,
            ..quota
        }
    );
}

#[test]
fn defer_ticket_reads_a_ticket_that_predates_tenancy() {
    let ticket = DeferTicket {
        id: 11,
        task: task(),
        tenant: TenantId(5),
        qos: QosClass::BestEffort,
        deferred_at: SimTime::new(2.0),
        latest_start: SimTime::new(900.0),
        cause: Infeasible::CompletionAfterDeadline,
        retries: 2,
    };
    let json = format!(
        r#"{{"id":11,"task":{TASK},"tenant":5,"qos":"BestEffort","deferred_at":2.0,"latest_start":900.0,"cause":"estimated completion exceeds the deadline","retries":2}}"#
    );
    pinned(&ticket, &json);
    assert_eq!(
        serde_json::from_str::<DeferTicket>(&without(&json, &["tenant", "qos"])).unwrap(),
        DeferTicket {
            tenant: TenantId(0),
            qos: QosClass::Standard,
            ..ticket
        }
    );
}

#[test]
fn metrics_snapshot_reads_a_pre_v2_image() {
    let mut m = MetricsSnapshot {
        submitted: 9,
        accepted_immediate: 4,
        rejected_immediate: 1,
        deferred: 2,
        rescued: 1,
        defer_expired: 1,
        retests: 6,
        batch_calls: 1,
        batch_tasks: 3,
        reserved: 1,
        reservations_activated: 1,
        throttled: 1,
        ..Default::default()
    };
    m.rejection_causes.record(Infeasible::NotEnoughNodes);
    m.tenants.counters_mut(TenantId(5)).submitted = 9;
    m.decision_latency.record(Duration::from_nanos(700));
    m.decision_latency.record(Duration::from_nanos(90_000));
    let json = r#"{"submitted":9,"accepted_immediate":4,"rejected_immediate":1,"deferred":2,"rescued":1,"defer_evicted":0,"defer_expired":1,"defer_flushed":0,"demoted":0,"demote_rejected":0,"retests":6,"batch_calls":1,"batch_tasks":3,"reserved":1,"reservations_activated":1,"reservation_misses":0,"reservations_flushed":0,"throttled":1,"rejection_causes":{"deadline_before_start":0,"no_time_for_transmission":0,"not_enough_nodes":1,"user_request_infeasible":0,"completion_after_deadline":0},"tenants":{"entries":[[5,{"submitted":9,"accepted":0,"reserved":0,"deferred":0,"rejected":0,"throttled":0,"demoted":0,"decision_latency":{"buckets":[],"count":0,"sum_ns":0,"max_ns":0}}]]},"decision_latency":{"buckets":[0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,1],"count":2,"sum_ns":90700,"max_ns":90000}}"#;
    pinned(&m, json);
    let v2 = [
        "reserved",
        "reservations_activated",
        "reservation_misses",
        "reservations_flushed",
        "throttled",
        "rejection_causes",
        "tenants",
    ];
    let legacy: MetricsSnapshot = serde_json::from_str(&without(json, &v2)).unwrap();
    assert_eq!(
        legacy,
        MetricsSnapshot {
            reserved: 0,
            reservations_activated: 0,
            throttled: 0,
            rejection_causes: Default::default(),
            tenants: Default::default(),
            ..m
        }
    );
    // The histogram is never optional.
    assert!(
        serde_json::from_str::<MetricsSnapshot>(&without(json, &["decision_latency"])).is_err()
    );
}

#[test]
fn gateway_snapshot_reads_a_pre_redesign_image() {
    let params = ClusterParams::new(2, 1.0, 100.0).unwrap();
    let mut g = ShardedGateway::new(
        params,
        1,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    let req = SubmitRequest::new(Task::new(1, 0.0, 10.0, 5_000.0)).with_tenant(TenantId(3));
    assert!(g.decide(&req, SimTime::ZERO).is_accepted());
    let snap = g.capture().normalized();
    let json = serde_json::to_string(&snap).unwrap();
    // 8 369 bytes of mostly empty SLO windows: pinned by key order, length
    // and hash, not by literal.
    let Value::Map(entries) = serde_json::from_str::<Value>(&json).unwrap() else {
        panic!("snapshot is not an object");
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "sharded",
            "params",
            "algorithm",
            "routing",
            "cursor",
            "shards",
            "defer",
            "reservations",
            "ledger",
            "quota",
            "metrics",
            "resolutions",
            "slo",
            "epoch"
        ]
    );
    assert_eq!(json.len(), 8_369);
    assert_eq!(
        fnv1a64(FNV_OFFSET, json.as_bytes()),
        1_925_505_634_799_635_279
    );
    assert_eq!(
        serde_json::from_str::<GatewaySnapshot>(&json).unwrap(),
        snap
    );

    let v2 = ["reservations", "ledger", "quota", "slo", "epoch"];
    let legacy: GatewaySnapshot = serde_json::from_str(&without(&json, &v2)).unwrap();
    assert_eq!(
        legacy,
        GatewaySnapshot {
            reservations: Default::default(),
            ledger: Default::default(),
            quota: Default::default(),
            slo: Default::default(),
            epoch: 0,
            ..snap
        }
    );
    // `routing` predates the redesign: every writer emits it, so its
    // absence is damage.
    assert!(serde_json::from_str::<GatewaySnapshot>(&without(&json, &["routing"])).is_err());
}

#[test]
fn a_recycled_wal_recovers_past_its_zero_tail() {
    // Written by `FileSink` through two compactions (`snapshot_every: 4`,
    // ten submits on one 2-node shard): the log, then the zeros it keeps
    // ahead of its end, up to 16 KiB.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/zero_tail.wal");
    let raw = std::fs::read(path).unwrap();
    let wal = FileSink::read(path).unwrap();
    assert_eq!((raw.len(), wal.len()), (16_384, 10_812));
    assert!(raw[wal.len()..].iter().all(|&b| b == 0));
    let (recovered, report) =
        recover::<ShardedGateway>(&wal, SimTime::new(90.0), JournalConfig::default(), None)
            .unwrap();
    assert!(report.tail.is_clean());
    assert_eq!(
        (
            report.frames_decoded,
            report.events_replayed,
            report.audit_records
        ),
        (5, 2, 2)
    );
    let m = recovered.metrics();
    assert_eq!(
        (
            m.submitted,
            m.accepted_total(),
            m.deferred,
            m.rejected_immediate
        ),
        (10, 3, 6, 1)
    );
}
