//! Crash recovery: recover from snapshot + tail replay, and let the
//! *strict* simulator verify that every previously accepted task still
//! meets its deadline — or was explicitly demoted to the defer queue with
//! the demotion journaled. Strict mode panics on any violated guarantee, so
//! a completing run is the proof. Kills in the middle of a served stream
//! run in the crash world (`rtdls-world`'s `tests/restarts.rs`).

use rtdls_core::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_service::prelude::*;
use rtdls_sim::prelude::*;
use rtdls_workload::prelude::*;

type JG = JournaledGateway;

fn params() -> ClusterParams {
    ClusterParams::paper_baseline()
}

fn bursty_tasks(seed: u64) -> Vec<Task> {
    let mut spec = WorkloadSpec::paper_baseline(1.1);
    spec.dc_ratio = 6.0;
    spec.horizon = 50.0 * spec.mean_interarrival();
    let profile = BurstProfile {
        rate_factor: 3.0,
        ..BurstProfile::moderate(&spec)
    };
    BurstyPoisson::new(spec, profile, seed).collect()
}

fn fresh_gateway(snapshot_every: usize) -> JG {
    let gateway = ShardedGateway::new(
        params(),
        4,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy {
            max_retries: 32,
            ..Default::default()
        },
    )
    .unwrap();
    JournaledGateway::new(
        gateway,
        JournalConfig {
            snapshot_every,
            compact_on_snapshot: true,
        },
    )
}

#[test]
fn outage_long_enough_to_defeat_a_plan_demotes_it_explicitly() {
    // Build a gateway whose waiting queue holds a feasible-but-snug plan,
    // crash it, and recover after an outage long enough that the plan can
    // no longer meet its deadline. Recovery must demote the task (journaled)
    // instead of pretending the guarantee still holds.
    let p = params();
    let e16_800 = rtdls_core::dlt::homogeneous::exec_time(&p, 800.0, 16);
    let e16_400 = rtdls_core::dlt::homogeneous::exec_time(&p, 400.0, 16);
    let gateway = ShardedGateway::new(
        p,
        1,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::RoundRobin,
        DeferPolicy::default(),
    )
    .unwrap();
    let mut j = JournaledGateway::new(gateway, JournalConfig::default());

    // A occupies the cluster until ≈ e16_800; dispatch commits it.
    let a = Task::new(1, 0.0, 800.0, e16_800 * 10.0);
    assert!(j
        .submit_request(&SubmitRequest::new(a), SimTime::ZERO)
        .is_accepted());
    let dispatched = j.drive(SimTime::ZERO).dispatched;
    assert_eq!(dispatched.len(), 1);
    // B queues behind A with ~5% slack: feasible now, fragile to an outage.
    let b = Task::new(2, 0.0, 400.0, e16_800 + e16_400 * 1.05);
    assert!(j
        .submit_request(&SubmitRequest::new(b), SimTime::ZERO)
        .is_accepted());

    let wal = j.journal().bytes().to_vec();
    drop(j); // the crash

    // Short outage: B still makes it — no demotion.
    let recover_at = SimTime::new(e16_800 * 0.5);
    let (ok, report) = recover(&wal, recover_at, JournalConfig::default(), None).unwrap();
    assert!(report.demoted.is_empty(), "{report:?}");
    assert_eq!(ok.inner().shard_queue_lens(), vec![1]);

    // Long outage: by the time the gateway is back, B's plan is hopeless.
    let recover_at = SimTime::new(e16_800 + e16_400);
    let (recovered, report) = recover(&wal, recover_at, JournalConfig::default(), None).unwrap();
    assert_eq!(report.demoted, vec![TaskId(2)], "{report:?}");
    assert_eq!(recovered.inner().shard_queue_lens(), vec![0]);
    assert_eq!(recovered.metrics().demoted, 1);
    // B is past even an idle cluster's help at that instant: it resolved as
    // a withdrawn guarantee (demote-rejection), not a parked ticket — and
    // not a submission-time rejection.
    assert!(recovered.inner().deferred().is_empty());
    assert_eq!(recovered.metrics().demote_rejected, 1);
    assert_eq!(recovered.metrics().rejected_immediate, 0);
    assert_eq!(recovered.metrics().rejected_total(), 1);
    assert_eq!(recovered.metrics().accepted_total(), 1, "A keeps its book");
    // The tenant book mirrors the demotion correction: both tasks were
    // submitted (anonymous tenant), both accepted gross, one demoted to a
    // rejection — net admitted + rejected = submitted.
    let t0 = recovered
        .metrics()
        .tenants
        .get(TenantId(0))
        .expect("anonymous tenant book");
    assert_eq!(
        (t0.submitted, t0.accepted, t0.demoted, t0.rejected),
        (2, 2, 1, 1)
    );
    assert_eq!(t0.accepted - t0.demoted + t0.rejected, t0.submitted);
    // And the demotion is in the new journal (checked via the audit path).
    let (frames, _) = rtdls_journal::wire::decode_frames(recovered.journal().bytes());
    let has_demoted = frames.iter().any(|f| {
        f.kind == rtdls_journal::wire::RecordKind::Event
            && serde_json::from_str::<JournalEvent>(std::str::from_utf8(f.payload).unwrap())
                .map(|e| matches!(e, JournalEvent::Demoted { task: 2, .. }))
                .unwrap_or(false)
    });
    assert!(has_demoted, "demotion audit record present");
}

#[test]
fn one_wal_recovers_to_the_same_state_twice() {
    // Recovery is a function of the log: one WAL recovered twice —
    // snapshot-restore + tail-replay + strict re-admission, each time onto
    // engines whose reuse caches start cold — must land on the *same*
    // per-shard `ControllerState`s, the same demotions, and the same future
    // decisions.
    for kill_at in [5usize, 37, 120] {
        // Build the WAL with a live gateway driven by the stepped engine
        // API, crashing after `kill_at` events.
        let tasks = bursty_tasks(23);
        let cfg = SimConfig::new(params(), AlgorithmKind::EDF_DLT).strict();
        let mut sim = Simulation::with_frontend(cfg, fresh_gateway(16));
        sim.prime(tasks);
        while sim.events_processed() < kill_at as u64 && sim.step() {}
        let crash_time = sim.now();
        let wal = sim.frontend().journal().bytes().to_vec();

        let recover_once =
            || recover(&wal, crash_time, JournalConfig::default(), None).expect("recovery");
        let (mut first, first_report) = recover_once();
        let (mut second, second_report) = recover_once();

        assert_eq!(
            first_report.demoted, second_report.demoted,
            "kill_at={kill_at}: demotions diverged"
        );
        assert_eq!(
            GatewaySnapshot::capture(first.inner()),
            GatewaySnapshot::capture(second.inner()),
            "kill_at={kill_at}: recovered gateways diverged"
        );
        // And both recovered gateways keep deciding identically.
        let probe = Task::new(9_000_001, crash_time.as_f64() + 1.0, 150.0, 80_000.0);
        assert_eq!(
            first.submit_request(&SubmitRequest::new(probe), probe.arrival),
            second.submit_request(&SubmitRequest::new(probe), probe.arrival),
            "kill_at={kill_at}"
        );
        assert_eq!(first.inner().shard_states(), second.inner().shard_states());
    }
}

/// Recursively strips the named keys from a JSON value tree — used to
/// down-convert a current-format record into its pre-redesign shape (the
/// v2 fields did not exist, so a faithful old writer simply omits them).
fn strip_keys(v: &serde::Value, keys: &[&str]) -> serde::Value {
    match v {
        serde::Value::Map(entries) => serde::Value::Map(
            entries
                .iter()
                .filter(|(k, _)| !keys.contains(&k.as_str()))
                .map(|(k, inner)| (k.clone(), strip_keys(inner, keys)))
                .collect(),
        ),
        serde::Value::Seq(items) => {
            serde::Value::Seq(items.iter().map(|x| strip_keys(x, keys)).collect())
        }
        other => other.clone(),
    }
}

/// The v2 fields a pre-redesign writer never emitted, anywhere in a
/// snapshot tree (gateway-level books, metrics, defer tickets). The
/// whole-subtree fields (`slo`, `rejection_causes`, from the SLO-engine
/// redesign) must be stripped at the top so their *interiors* — which
/// reuse old key names like `tenants`/`qos` — don't get gutted instead.
const V2_FIELDS: &[&str] = &[
    "slo",
    "rejection_causes",
    "reservations",
    "ledger",
    "quota",
    "reserved",
    "reservations_activated",
    "reservation_misses",
    "reservations_flushed",
    "throttled",
    "tenants",
    "tenant",
    "qos",
];

/// A WAL written at the last commit that still had the single-cluster
/// `Gateway` type and the v1 writer (`JournaledGateway<Gateway>`, EDF-OPR-MN,
/// 16 nodes): a `sharded:false` / `routing:null` genesis snapshot, sixteen
/// node releases at t=1000, v1 `Submitted` events (an accept, a defer, a
/// reject), a `RequestSubmitted` that booked a reservation, and a
/// `BatchSubmitted` of two. No writer produces this shape any more; this
/// file is what keeps it readable. The pinned values are what that
/// commit's own `recover::<Gateway>` reported for the same bytes.
#[test]
fn legacy_single_cluster_wal_recovers_as_one_shard() {
    let wal = include_bytes!("fixtures/legacy_single_cluster.wal");
    let (recovered, report) = recover(wal, SimTime::new(5.0), JournalConfig::default(), None)
        .expect("legacy WAL must recover");
    assert!(report.tail.is_clean());
    assert_eq!(report.events_replayed, 21);
    assert_eq!(report.audit_records, 6);
    assert!(report.demoted.is_empty());
    let g = recovered.inner();
    assert_eq!(g.num_shards(), 1);
    let waiting: Vec<u64> = g.shard_states()[0]
        .queue
        .iter()
        .map(|(t, _)| t.id.0)
        .collect();
    assert_eq!(waiting, vec![1, 5, 6]);
    assert_eq!(g.deferred().len(), 1);
    assert_eq!(g.reservations().len(), 1);
    assert_eq!(g.metrics().accepted_total(), 3);
    assert_eq!(g.metrics().submitted, 6);
    // The rewritten journal opens with today's image of the same state.
    let snap = GatewaySnapshot::capture(recovered.inner());
    assert_eq!(snap.shards.len(), 1);
    assert!(snap.routing.is_some());
}

#[test]
fn pre_redesign_wal_recovers_with_identical_shard_states() {
    // A WAL exactly as yesterday's writer produced it: a genesis snapshot
    // and events in the pre-v2 vocabulary, with none of the reservation /
    // tenant / quota fields. Recovery under today's gateway must accept it
    // and land on the same shard states a live gateway reaches from the
    // same command stream.
    let p = params();
    let mk_gateway = || {
        ShardedGateway::new(
            p,
            2,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::RoundRobin,
            DeferPolicy::default(),
        )
        .unwrap()
    };
    let e8 = rtdls_core::dlt::homogeneous::exec_time(&p, 400.0, 8);
    let commands = vec![
        JournalEvent::Submitted {
            task: Task::new(1, 0.0, 400.0, e8 * 6.0),
            at: SimTime::ZERO,
        },
        JournalEvent::Submitted {
            task: Task::new(2, 0.0, 400.0, e8 * 1.05),
            at: SimTime::ZERO,
        },
        JournalEvent::BatchSubmitted {
            tasks: vec![
                Task::new(3, 1.0, 200.0, e8 * 4.0),
                Task::new(4, 1.0, 400.0, e8 * 1.2), // near-miss shape
            ],
            at: SimTime::new(1.0),
        },
        JournalEvent::DispatchDue {
            at: SimTime::new(1.0),
        },
        JournalEvent::Completed {
            node: 0,
            at: SimTime::new(2.0),
        },
        JournalEvent::Retested {
            at: SimTime::new(2.0),
        },
    ];
    // The old-format WAL: genesis snapshot (v2 fields stripped) + commands.
    let live = mk_gateway();
    let genesis: serde::Value =
        serde_json::from_str(&serde_json::to_string(&GatewaySnapshot::capture(&live)).unwrap())
            .unwrap();
    let old_genesis = strip_keys(&genesis, V2_FIELDS);
    let mut wal = rtdls_journal::wire::encode_frame(
        rtdls_journal::wire::MAGIC,
        rtdls_journal::wire::RecordKind::Snapshot as u8,
        serde_json::to_string(&old_genesis).unwrap().as_bytes(),
    );
    for ev in &commands {
        wal.extend(rtdls_journal::wire::encode_frame(
            rtdls_journal::wire::MAGIC,
            rtdls_journal::wire::RecordKind::Event as u8,
            serde_json::to_string(ev).unwrap().as_bytes(),
        ));
    }
    // Reference: a live gateway driven through the same commands, plus the
    // strict re-admission pass recovery always ends with.
    let mut reference = live;
    for ev in &commands {
        rtdls_journal::apply_event(&mut reference, ev, &mut Turn::default());
    }
    let demoted = reference.reverify(SimTime::new(2.0));
    assert!(demoted.is_empty(), "scenario stays feasible: {demoted:?}");
    let (recovered, report) = recover(&wal, SimTime::new(2.0), JournalConfig::default(), None)
        .expect("pre-redesign WAL must recover");
    assert!(report.tail.is_clean());
    assert_eq!(report.events_replayed, commands.len());
    assert_eq!(
        recovered.inner().shard_states(),
        reference.shard_states(),
        "shard states diverged from the live reference"
    );
    assert_eq!(
        recovered.inner().deferred().len(),
        reference.deferred().len()
    );
    // The absent v2 fields defaulted: empty books, unlimited quotas.
    assert!(recovered.inner().reservations().is_empty());
    assert_eq!(recovered.inner().quota().max_inflight, None);
    // The recovered gateway serves v2 traffic immediately.
    let mut recovered = recovered;
    let req = SubmitRequest::new(Task::new(50, 3.0, 100.0, 1e6)).with_tenant(TenantId(4));
    assert!(recovered
        .submit_request(&req, SimTime::new(3.0))
        .is_accepted());
    assert_eq!(
        recovered
            .metrics()
            .tenants
            .get(TenantId(4))
            .unwrap()
            .accepted,
        1
    );
}

/// A legacy `BatchSubmitted` that lands on a non-empty queue replays as
/// its members submitted one by one under the default envelope, in the
/// algorithm's policy order: a WAL holding the batch recovers to the state
/// of the same WAL with the members written as `RequestSubmitted` in EDF
/// order.
#[test]
fn a_legacy_batch_on_a_busy_queue_recovers_as_its_members_in_policy_order() {
    use rtdls_journal::wire::{encode_frame, RecordKind, MAGIC};
    let p = params();
    let genesis = GatewaySnapshot::capture(
        &ShardedGateway::new(
            p,
            2,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::RoundRobin,
            DeferPolicy::default(),
        )
        .unwrap(),
    );
    let e8 = rtdls_core::dlt::homogeneous::exec_time(&p, 400.0, 8);
    let submitted = |task: Task, at: f64| JournalEvent::RequestSubmitted {
        request: SubmitRequest::new(task),
        at: SimTime::new(at),
    };
    let waiting = [
        Task::new(1, 0.0, 400.0, e8 * 3.0),
        Task::new(2, 0.0, 400.0, e8 * 2.0),
        Task::new(3, 0.0, 400.0, e8 * 2.5),
    ];
    // In submission order, not EDF order (6, 5, 7, 4): the order decides
    // which shard each member's round-robin turn starts on.
    let members = [
        Task::new(4, 1.0, 400.0, e8 * 5.0),
        Task::new(5, 1.0, 400.0, e8 * 1.1),
        Task::new(6, 1.0, 200.0, e8 * 0.9),
        Task::new(7, 1.0, 200.0, e8 * 3.0),
    ];
    let tail = [JournalEvent::Retested {
        at: SimTime::new(1.0),
    }];
    let wal_of = |events: &[JournalEvent]| {
        let mut wal = encode_frame(
            MAGIC,
            RecordKind::Snapshot as u8,
            serde_json::to_string(&genesis).unwrap().as_bytes(),
        );
        for ev in events {
            wal.extend(encode_frame(
                MAGIC,
                RecordKind::Event as u8,
                serde_json::to_string(ev).unwrap().as_bytes(),
            ));
        }
        wal
    };
    let mut batched: Vec<JournalEvent> = waiting.iter().map(|&t| submitted(t, 0.0)).collect();
    let mut single = batched.clone();
    batched.push(JournalEvent::BatchSubmitted {
        tasks: members.to_vec(),
        at: SimTime::new(1.0),
    });
    single.extend([2, 1, 3, 0].map(|i| submitted(members[i], 1.0)));
    batched.extend(tail.iter().cloned());
    single.extend(tail.iter().cloned());
    let recover_wal = |events: &[JournalEvent]| {
        let (recovered, report) = recover(
            &wal_of(events),
            SimTime::new(1.0),
            JournalConfig::default(),
            None,
        )
        .expect("hand-built WAL must recover");
        assert!(report.tail.is_clean());
        recovered
    };
    // The batch met a waiting queue on both shards.
    let lens = recover_wal(&batched[..waiting.len()])
        .inner()
        .shard_queue_lens();
    assert!(lens.iter().all(|&n| n > 0), "{lens:?}");
    let (from_batch, from_single) = (recover_wal(&batched), recover_wal(&single));
    let (a, b) = (from_batch.inner(), from_single.inner());
    assert_eq!(a.shard_states(), b.shard_states());
    assert_eq!(a.deferred().len(), b.deferred().len());
    assert_eq!(a.metrics().submitted, b.metrics().submitted);
    assert_eq!((a.deferred().len(), a.metrics().submitted), (1, 7));
    // And the order is load-bearing: in submission order the members
    // land elsewhere.
    let mut unordered = batched[..waiting.len()].to_vec();
    unordered.extend(members.map(|t| submitted(t, 1.0)));
    unordered.extend(tail.iter().cloned());
    assert_ne!(
        recover_wal(&unordered).inner().shard_states(),
        a.shard_states()
    );
}

/// A frame whose checksum holds but whose payload carries an integer its
/// field cannot hold (a damaged writer, a hand-edited log) is a decode
/// error. Narrowed with `as`, tenant 2³² + 5 replayed as tenant 5 and the
/// node index −1 as `usize::MAX`.
#[test]
fn a_checksum_valid_event_with_an_out_of_range_integer_is_corrupt_not_aliased() {
    use rtdls_journal::wire::{encode_frame, RecordKind, MAGIC};
    let gateway = ShardedGateway::new(
        params(),
        1,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    let genesis = serde_json::to_string(&GatewaySnapshot::capture(&gateway)).unwrap();
    let submitted = serde_json::to_string(&JournalEvent::RequestSubmitted {
        request: SubmitRequest::new(Task::new(1, 0.0, 100.0, 1e6)).with_tenant(TenantId(5)),
        at: SimTime::ZERO,
    })
    .unwrap();
    let completed = serde_json::to_string(&JournalEvent::Completed {
        node: 1,
        at: SimTime::ZERO,
    })
    .unwrap();
    for (event, field, poison, ty) in [
        (&submitted, "\"tenant\":5", "\"tenant\":4294967301", "u32"),
        (&completed, "\"node\":1", "\"node\":-1", "usize"),
    ] {
        assert!(event.contains(field), "{field} not in {event}");
        let mut wal = encode_frame(MAGIC, RecordKind::Snapshot as u8, genesis.as_bytes());
        wal.extend(encode_frame(
            MAGIC,
            RecordKind::Event as u8,
            event.replace(field, poison).as_bytes(),
        ));
        match recover(&wal, SimTime::ZERO, JournalConfig::default(), None) {
            Err(JournalError::Corrupt(why)) => assert!(why.contains(ty), "{poison}: {why}"),
            Err(other) => panic!("{poison}: {other}"),
            Ok(_) => panic!("{poison} replayed as some other value"),
        }
    }
}

/// Replay classifies an audit record by its tag and never decodes it, so a
/// checksum-valid `Accepted` frame whose body does not parse recovers, its
/// audit counted (replay regenerates the decision; `inspect` still decodes
/// the body and shows the damage). An unknown tag is no audit: it stays
/// `Corrupt`, like an input record that does not parse (above).
#[test]
fn a_checksum_valid_audit_whose_body_does_not_parse_is_counted_not_decoded() {
    use rtdls_journal::wire::{encode_frame, RecordKind, MAGIC};
    let gateway = ShardedGateway::new(
        params(),
        1,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    let genesis = serde_json::to_string(&GatewaySnapshot::capture(&gateway)).unwrap();
    let recover_with = |payload: &[u8]| {
        let mut wal = encode_frame(MAGIC, RecordKind::Snapshot as u8, genesis.as_bytes());
        wal.extend(encode_frame(MAGIC, RecordKind::Event as u8, payload));
        recover(&wal, SimTime::ZERO, JournalConfig::default(), None)
    };
    let (_, report) =
        recover_with(b"{\"Accepted\":{\"task\":1,\"plan\":").expect("an audit body is never read");
    assert!(report.tail.is_clean());
    assert_eq!((report.events_replayed, report.audit_records), (0, 1));
    match recover_with(b"{\"Bogus\":{\"task\":1}}") {
        Err(JournalError::Corrupt(why)) => assert!(why.contains("Bogus"), "{why}"),
        Err(other) => panic!("{other}"),
        Ok(_) => panic!("an unknown tag replayed"),
    }
}

/// A one-shard gateway's snapshot with three tasks waiting.
fn three_waiting() -> GatewaySnapshot {
    let mut gateway = ShardedGateway::new(
        params(),
        1,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    for id in 1..=3 {
        let task = Task::new(id, 0.0, 100.0, 1e5 * id as f64);
        let request = SubmitRequest::new(task);
        assert!(gateway
            .submit_request(&request, SimTime::ZERO)
            .is_accepted());
    }
    GatewaySnapshot::capture(&gateway)
}

/// Recovers a WAL holding nothing but `snapshot`, checksums intact.
fn recover_image(snapshot: &GatewaySnapshot) -> Result<(JG, RecoveryReport), JournalError> {
    use rtdls_journal::wire::{encode_frame, RecordKind, MAGIC};
    let image = serde_json::to_string(snapshot).unwrap();
    let wal = encode_frame(MAGIC, RecordKind::Snapshot as u8, image.as_bytes());
    recover(&wal, SimTime::ZERO, JournalConfig::default(), None)
}

/// A checksum-valid snapshot whose waiting queue is not in policy order (two
/// entries exchanged) restores to no gateway. The engine walks its queue as it
/// stands where the oracle re-sorts, so restored it would have served the
/// tasks in the damaged order.
#[test]
fn a_checksum_valid_snapshot_with_its_queue_out_of_order_is_corrupt_not_served() {
    let mut snapshot = three_waiting();
    assert!(recover_image(&snapshot).is_ok());
    snapshot.shards[0].queue.swap(1, 2);
    match recover_image(&snapshot) {
        Err(JournalError::Corrupt(why)) => assert!(why.contains("policy order"), "{why}"),
        Err(other) => panic!("{other}"),
        Ok(_) => panic!("a queue out of order was restored"),
    }
}

/// A checksum-valid snapshot with a waiting plan of no chunks restores to no
/// gateway: restored, its first drive would look for the plan's first
/// transmission to see whether it is due, and panic.
#[test]
fn a_checksum_valid_snapshot_with_a_plan_of_no_chunks_is_corrupt_not_served() {
    let mut snapshot = three_waiting();
    let plan = &mut snapshot.shards[0].queue[1].1;
    plan.nodes.clear();
    plan.start_times.clear();
    plan.fractions.clear();
    plan.node_release_estimates.clear();
    match recover_image(&snapshot) {
        Err(JournalError::Corrupt(why)) => assert!(why.contains("no chunks"), "{why}"),
        Err(other) => panic!("{other}"),
        Ok(_) => panic!("a plan with no chunks was restored"),
    }
}

/// The deterministic EDF priority-inversion scenario on one 16-node shard:
/// all nodes committed to t=1000, a snug all-node OPR task waiting, and a
/// small earlier-deadline candidate that must be Reserved at t=1000.
fn reservation_wal() -> (Vec<u8>, SimTime, Task) {
    let p = params();
    let e16 = rtdls_core::dlt::homogeneous::exec_time(&p, 800.0, 16);
    let e15 = rtdls_core::dlt::homogeneous::exec_time(&p, 800.0, 15);
    let slack_w = (e15 - e16) * 0.75;
    let slack_c = slack_w * 0.8;
    let gateway = ShardedGateway::new(
        p,
        1,
        AlgorithmKind::EDF_OPR_MN,
        PlanConfig::default(),
        Routing::RoundRobin,
        DeferPolicy::default(),
    )
    .unwrap();
    let mut j = JournaledGateway::new(gateway, JournalConfig::default());
    for node in 0..16 {
        j.node_released(node, SimTime::new(1000.0));
    }
    let w = Task::new(1, 0.0, 800.0, 1000.0 + e16 + slack_w);
    assert!(j
        .submit_request(&SubmitRequest::new(w), SimTime::ZERO)
        .is_accepted());
    let c = Task::new(2, 0.0, 10.0, 1000.0 + e16 + slack_c);
    let req = SubmitRequest::new(c).with_max_delay(Some(2000.0));
    let verdict = j.submit_request(&req, SimTime::ZERO);
    let Verdict::Reserved { start_at, .. } = verdict else {
        panic!("expected Reserved, got {verdict:?}");
    };
    assert_eq!(start_at, SimTime::new(1000.0));
    (j.journal().bytes().to_vec(), start_at, c)
}

#[test]
fn reservation_bearing_wal_recovers_with_its_book_intact() {
    let (wal, start_at, c) = reservation_wal();
    let (mut rec, _) =
        recover(&wal, SimTime::ZERO, JournalConfig::default(), None).expect("recovery");
    let book = GatewaySnapshot::capture(rec.inner()).reservations;
    assert_eq!(book.reservations.len(), 1);
    let res = &book.reservations[0];
    assert_eq!(res.task.id, c.id);
    assert_eq!(res.start_at, start_at);
    assert_eq!(res.ticket, 0);
    // The recovered gateway honors the promise: its turn at start_at
    // dispatches the blocker, then the activation sweep admits the
    // reserved task.
    assert_eq!(rec.next_due(), Some(start_at), "activation re-armed");
    let turn = rec.drive(start_at);
    assert_eq!(turn.dispatched.len(), 1);
    let resolutions = turn.resolved;
    assert_eq!(resolutions.len(), 1);
    assert!(resolutions[0].1.is_none(), "activation = accepted");
    assert_eq!(rec.metrics().reservations_activated, 1);
}

#[test]
fn tenant_counters_survive_a_crash_and_restart() {
    // Per-tenant counters must round-trip through snapshot()/restore()
    // across the durability boundary: drive
    // tenant-tagged traffic (including a quota rejection), crash, recover,
    // and compare the tenant books.
    let gateway = ShardedGateway::new(
        params(),
        2,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap()
    .with_quota(QuotaPolicy {
        max_inflight: Some(2),
        ..Default::default()
    });
    let mut j = JournaledGateway::new(gateway, JournalConfig::default());
    let mk = |id: u64, tenant: u32| {
        SubmitRequest::new(Task::new(id, 0.0, 50.0, 1e6)).with_tenant(TenantId(tenant))
    };
    assert!(j.submit_request(&mk(1, 1), SimTime::ZERO).is_accepted());
    assert!(j.submit_request(&mk(2, 1), SimTime::ZERO).is_accepted());
    assert_eq!(
        j.submit_request(&mk(3, 1), SimTime::ZERO),
        Verdict::Throttled
    );
    assert!(j.submit_request(&mk(4, 2), SimTime::ZERO).is_accepted());
    assert!(j
        .submit_request(&mk(5, 1).with_qos(QosClass::Premium), SimTime::ZERO)
        .is_accepted());
    let live_tenants = j.metrics().snapshot().tenants;
    let wal = j.journal().bytes().to_vec();
    drop(j); // the crash

    let (recovered, _) = recover(&wal, SimTime::ZERO, JournalConfig::default(), None).unwrap();
    let recovered_tenants = recovered.metrics().snapshot().tenants;
    // Every per-tenant counter survives the crash exactly.
    assert_eq!(recovered_tenants, live_tenants);
    let t1 = recovered_tenants.get(TenantId(1)).unwrap();
    assert_eq!((t1.submitted, t1.accepted, t1.throttled), (4, 3, 1));
    let t2 = recovered_tenants.get(TenantId(2)).unwrap();
    assert_eq!((t2.submitted, t2.accepted), (1, 1));
    // The quota policy survived too: tenant 1 is still throttled.
    let mut recovered = recovered;
    assert_eq!(
        recovered.submit_request(&mk(6, 1), SimTime::ZERO),
        Verdict::Throttled
    );
}

#[test]
fn group_commit_crash_still_recovers_a_valid_prefix() {
    // A serving turn reaches the file as one multi-frame write, synced
    // once at its commit, so a crash can lose the turn in flight — or tear
    // its write at any byte — but writes stay ordered, so what survives is
    // always a byte-prefix of the log. Emulate every possible survival
    // point by cutting the on-disk image and proving recovery accepts each
    // prefix and keeps every whole frame before the tear.
    let path = std::env::temp_dir().join(format!(
        "rtdls-group-commit-crash-{}.wal",
        std::process::id()
    ));
    let tasks = bursty_tasks(7);
    // Where each turn's write starts in the file.
    let mut run_starts = Vec::new();
    {
        let sink = FileSink::create(&path)
            .unwrap()
            .with_fsync_policy(FsyncPolicy::Batch(16));
        let gateway = ShardedGateway::new(
            params(),
            2,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::LeastLoaded,
            DeferPolicy::default(),
        )
        .unwrap();
        let mut j = JournaledGateway::with_sink(
            gateway,
            JournalConfig {
                snapshot_every: 0,
                compact_on_snapshot: false,
            },
            Box::new(sink),
        );
        for turn in tasks.chunks(8) {
            let now = turn.last().unwrap().arrival;
            run_starts.push(j.journal().bytes().len());
            for t in turn {
                let _ = j.decide(&SubmitRequest::new(*t), now);
            }
            j.drive(now);
            let writes = j.journal().sink_stats().unwrap().writes;
            assert_eq!(writes as usize, 1 + run_starts.len(), "one write a turn");
        }
    }
    let full = FileSink::read(&path).unwrap();
    let (all_frames, tail) = rtdls_journal::wire::decode_frames(&full);
    assert!(tail.is_clean());
    assert!(all_frames.len() > tasks.len(), "genesis + events");

    // Tear every run at every byte: exactly the frames that ended at or
    // before the tear decode, and the tail is reported torn unless the
    // tear fell between two frames.
    let run_ends = run_starts.iter().skip(1).copied().chain([full.len()]);
    for (&start, end) in run_starts.iter().zip(run_ends) {
        let run_frames: Vec<_> = all_frames
            .iter()
            .filter(|f| (start..end).contains(&f.offset))
            .collect();
        assert!(run_frames.len() >= 2, "a run holds a turn's frames");
        for cut in start..=end {
            let (frames, tail) = rtdls_journal::wire::decode_frames(&full[start..cut]);
            let whole = run_frames
                .iter()
                .filter(|f| f.offset + rtdls_journal::wire::HEADER_LEN + f.payload.len() <= cut)
                .count();
            assert_eq!(frames.len(), whole, "run at {start} torn at {cut}");
            for (a, b) in frames.iter().zip(&run_frames) {
                assert_eq!(a.payload, b.payload, "run at {start} torn at {cut}");
            }
            let between_frames = cut == end || run_frames.iter().any(|f| f.offset == cut);
            assert_eq!(
                tail.is_clean(),
                between_frames,
                "run at {start} torn at {cut}"
            );
        }
    }

    // Recover from cuts anywhere past the genesis snapshot: mid-frame, on
    // run boundaries, and at the clean end.
    let genesis_end = all_frames[1].offset;
    let span = full.len() - genesis_end;
    let mut cuts = vec![
        genesis_end + span / 4,
        genesis_end + span / 2,
        genesis_end + 3 * span / 4,
        full.len() - 3,
        full.len(),
    ];
    cuts.extend(&run_starts);
    cuts.extend(run_starts.iter().map(|s| s + 700));
    for cut in cuts {
        let prefix = &full[..cut];
        let (frames, _) = rtdls_journal::wire::decode_frames(prefix);
        assert!(!frames.is_empty() && frames.len() <= all_frames.len());
        for (a, b) in frames.iter().zip(&all_frames) {
            assert_eq!(a, b, "cut at {cut}: surviving frames are a prefix");
        }
        let (recovered, report) =
            recover(prefix, SimTime::new(0.0), JournalConfig::default(), None)
                .expect("every prefix recovers");
        let inputs: Vec<JournalEvent> = frames
            .iter()
            .filter(|f| f.kind == rtdls_journal::wire::RecordKind::Event)
            .filter_map(|f| serde_json::from_str(&String::from_utf8_lossy(f.payload)).ok())
            .filter(JournalEvent::is_input)
            .collect();
        assert_eq!(
            report.events_replayed,
            inputs.len(),
            "cut at {cut}: exactly the surviving inputs replay"
        );
        let submits = inputs
            .iter()
            .filter(|e| matches!(e, JournalEvent::RequestSubmitted { .. }))
            .count();
        assert_eq!(
            recovered.metrics().submitted as usize,
            submits,
            "cut at {cut}: the recovered book covers the surviving history"
        );
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("wal.spare"));
}
