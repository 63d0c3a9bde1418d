//! The acceptance scenario: kill the gateway mid-stream at an arbitrary
//! turn, recover from snapshot + tail replay, and let the *strict*
//! simulator verify that every previously accepted task still meets its
//! deadline — or was explicitly demoted to the defer queue with the
//! demotion journaled. Strict mode panics on any violated guarantee, so a
//! completing run is the proof.
//!
//! The crash happens inside the serving stack: [`Restarting`] is the one
//! frontend the simulator drives for the whole run, and the head node dies
//! and comes back behind it — from the WAL image it leaves in memory, or
//! from a WAL file.

use rtdls_core::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_service::prelude::*;
use rtdls_sim::prelude::*;
use rtdls_workload::prelude::*;

type JG = JournaledGateway<ShardedGateway>;

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

/// How a dead head node comes back: from the WAL image it left and the
/// instant it restarts at. Never shown the dying gateway.
type Recovery = Box<dyn FnOnce(Vec<u8>, SimTime) -> JG>;

/// A journaled gateway whose process dies before its `kill_before`-th
/// serving turn and restarts from its write-ahead log alone, the way a
/// replicated deployment fails one over. The worker nodes outlive the head
/// node: the simulator keeps running the dispatched chunks and feeds their
/// releases to whichever process is alive.
struct Restarting {
    live: Option<JG>,
    /// Serving turns committed so far (`drive` calls).
    turns: u64,
    kill_before: u64,
    recover: Option<Recovery>,
}

impl Restarting {
    fn new(
        live: JG,
        kill_before: u64,
        recover: impl FnOnce(Vec<u8>, SimTime) -> JG + 'static,
    ) -> Self {
        Restarting {
            live: Some(live),
            turns: 0,
            kill_before,
            recover: Some(Box::new(recover)),
        }
    }

    /// Whether the process died and came back.
    fn restarted(&self) -> bool {
        self.recover.is_none()
    }

    fn gateway(&self) -> &JG {
        self.live
            .as_ref()
            .expect("a process is alive between calls")
    }

    /// The process serving a call at `now`: the first call after turn
    /// `kill_before - 1` committed finds it dead, and what comes back is
    /// rebuilt from the WAL image alone.
    fn serving(&mut self, now: SimTime) -> &mut JG {
        if self.turns + 1 >= self.kill_before {
            if let Some(recover) = self.recover.take() {
                let dead = self.live.take().expect("alive until killed");
                let wal = dead.journal().bytes().to_vec();
                drop(dead);
                self.live = Some(recover(wal, now));
            }
        }
        self.live
            .as_mut()
            .expect("a process is alive between calls")
    }
}

impl Serve for Restarting {
    type Outcome = Verdict;

    fn decide(&mut self, request: &SubmitRequest, now: SimTime) -> Verdict {
        self.serving(now).decide(request, now)
    }

    fn drive(&mut self, now: SimTime) -> Turn {
        let turn = self.serving(now).drive(now);
        self.turns += 1;
        turn
    }

    fn next_due(&self) -> Option<SimTime> {
        self.gateway().next_due()
    }

    fn finalize(&mut self, now: SimTime) -> Vec<Resolution> {
        self.live.as_mut().expect("alive").finalize(now)
    }

    fn replan_waiting(&mut self, now: SimTime) -> Result<(), AdmissionFailure> {
        self.serving(now).replan_waiting(now)
    }

    fn committed_release(&self, node: usize) -> SimTime {
        self.gateway().committed_release(node)
    }

    fn node_released(&mut self, node: usize, at: SimTime) {
        self.serving(at).node_released(node, at);
    }

    fn plan_of(&self, task: TaskId) -> Option<&TaskPlan> {
        self.gateway().plan_of(task)
    }
}

/// Recovers from the dead gateway's WAL image — the only artifact a real
/// crash leaves behind — and asserts the demotion audit contract.
fn recover_from_wal(wal: Vec<u8>, now: SimTime) -> JG {
    let (recovered, report) =
        recover::<ShardedGateway>(&wal, now, JournalConfig::default(), None).expect("recovery");
    assert!(
        report.tail.is_clean(),
        "in-memory WAL has no torn tail: {:?}",
        report.tail
    );
    // Every demotion must be journaled in the post-recovery log.
    let (frames, _) = rtdls_journal::wire::decode_frames(recovered.journal().bytes());
    let demoted_in_journal: Vec<u64> = frames
        .iter()
        .filter(|f| f.kind == rtdls_journal::wire::RecordKind::Event)
        .filter_map(|f| {
            let ev: JournalEvent =
                serde_json::from_str(std::str::from_utf8(&f.payload).unwrap()).unwrap();
            match ev {
                JournalEvent::Demoted { task, .. } => Some(task),
                _ => None,
            }
        })
        .collect();
    let demoted_ids: Vec<u64> = report.demoted.iter().map(|t| t.0).collect();
    assert_eq!(demoted_in_journal, demoted_ids, "demotions journaled");
    // Demotions re-enter the books as deferral or rejection, never vanish:
    // accepted + rejected + still-parked == submitted, at any instant.
    let m = recovered.metrics();
    assert_eq!(m.demoted, report.demoted.len() as u64);
    let parked = m.deferred - (m.rescued + m.defer_evicted + m.defer_expired + m.defer_flushed);
    assert_eq!(parked as usize, recovered.inner().deferred().len());
    assert_eq!(
        m.accepted_total() + m.rejected_total() + parked,
        m.submitted,
        "books balance at recovery"
    );
    recovered
}

#[test]
fn a_restart_before_a_chosen_turn_keeps_every_guarantee_and_every_count() {
    // Strict mode panics on any deadline miss or estimate overrun — for
    // tasks admitted before *or* after the crash — so every kill point
    // that completes is itself the acceptance proof.
    let cfg = SimConfig::new(params(), AlgorithmKind::EDF_DLT).strict();
    let uncrashed = Simulation::with_frontend(cfg, fresh_gateway(16)).run(bursty_tasks(7));
    // The run serves 192 turns; a kill at its 200th event fell before
    // turn 111, and 192 restarts before the last one.
    for kill_before in [3u64, 10, 40, 90, 111, 192] {
        let frontend = Restarting::new(fresh_gateway(16), kill_before, recover_from_wal);
        let (report, frontend) =
            Simulation::with_frontend(cfg, frontend).run_returning_frontend(bursty_tasks(7));
        assert!(
            frontend.restarted(),
            "turn {kill_before} lies inside the run"
        );
        let m = &report.metrics;
        assert_eq!(m.deadline_misses, 0, "kill_before={kill_before}");
        assert_eq!(m.estimate_overruns, 0, "kill_before={kill_before}");
        assert_eq!(
            (m.accepted, m.rejected, m.completed),
            (
                uncrashed.metrics.accepted,
                uncrashed.metrics.rejected,
                uncrashed.metrics.completed
            ),
            "kill_before={kill_before}: the restart changed no outcome"
        );
        // The recovered gateway carried its cumulative metrics across the
        // crash: it has seen every arrival the engine delivered.
        assert_eq!(
            frontend.gateway().metrics().submitted,
            m.arrivals,
            "kill_before={kill_before}: metrics survived the crash"
        );
    }
}

#[test]
fn a_kill_past_the_end_never_recovers() {
    let cfg = SimConfig::new(params(), AlgorithmKind::EDF_DLT).strict();
    let frontend = Restarting::new(fresh_gateway(16), u64::MAX, |_, _| {
        panic!("recovery must not run")
    });
    let (report, frontend) =
        Simulation::with_frontend(cfg, frontend).run_returning_frontend(bursty_tasks(7));
    assert!(!frontend.restarted());
    assert_eq!(report.metrics.deadline_misses, 0);
    assert_eq!(report.metrics.completed, report.metrics.accepted);
}

/// The full loop through a WAL *file*: a 4-shard journaled gateway serves a
/// bursty stream, dies two-thirds of the way through, is rebuilt from the
/// file alone, and finishes the stream under the strict simulator.
#[test]
fn a_restart_from_a_wal_file_finishes_with_all_guarantees() {
    let params = params();
    let algorithm = AlgorithmKind::EDF_DLT;
    let plan = PlanConfig {
        release_estimate: ReleaseEstimate::Uniform,
        ..Default::default()
    };
    // Bursty, deadline-rich, defer-queue-exercising.
    let mut spec = WorkloadSpec::paper_baseline(1.2);
    spec.dc_ratio = 6.0;
    spec.horizon = 1e5;
    let profile = BurstProfile {
        rate_factor: 4.0,
        ..BurstProfile::moderate(&spec)
    };
    let tasks: Vec<Task> = BurstyPoisson::new(spec, profile, 42).collect();
    assert!(tasks.len() > 20, "workload too small to exercise a crash");

    let wal_path = std::env::temp_dir().join(format!(
        "rtdls-restart-from-file-test-{}.wal",
        std::process::id()
    ));
    let journal_cfg = JournalConfig {
        snapshot_every: 64,
        compact_on_snapshot: true,
    };
    let gateway = ShardedGateway::new(
        params,
        4,
        algorithm,
        plan,
        Routing::LeastLoaded,
        DeferPolicy {
            max_retries: 64,
            ..Default::default()
        },
    )
    .expect("valid shard layout");
    let journaled = JournaledGateway::with_sink(
        gateway,
        journal_cfg,
        Box::new(FileSink::create(&wal_path).expect("create WAL")),
    );

    let kill_before = 2 * tasks.len() as u64 / 3;
    let path = wal_path.clone();
    let frontend = Restarting::new(journaled, kill_before, move |_image, now| {
        // The only artifact that crosses the crash is the file on disk.
        let (recovered, rec) = recover_file_with_policy::<ShardedGateway>(
            &path,
            now,
            journal_cfg,
            FsyncPolicy::EveryAppend,
        )
        .expect("recovery from WAL");
        assert!(rec.frames_decoded > 0, "recovery read the journal");
        recovered
    });
    let cfg = SimConfig::new(params, algorithm).with_plan(plan).strict();
    let (report, frontend) = Simulation::with_frontend(cfg, frontend).run_returning_frontend(tasks);
    assert!(frontend.restarted(), "the kill must fall inside the run");

    assert_eq!(
        report.metrics.deadline_misses, 0,
        "no admitted deadline missed"
    );
    assert_eq!(report.metrics.estimate_overruns, 0);
    assert_eq!(
        frontend.gateway().metrics().submitted,
        report.metrics.arrivals,
        "cumulative metrics crossed the crash intact"
    );
    drop(frontend);
    let wal = FileSink::read(&wal_path).expect("read WAL");
    let (frames, tail) = rtdls_journal::wire::decode_frames(&wal);
    assert!(tail.is_clean());
    assert!(
        frames
            .iter()
            .any(|f| f.kind == rtdls_journal::wire::RecordKind::Snapshot),
        "compacted WAL keeps a snapshot"
    );
    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_file(wal_path.with_extension("wal.spare"));
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
    let (ok, report) =
        recover::<ShardedGateway>(&wal, recover_at, JournalConfig::default(), None).unwrap();
    assert!(report.demoted.is_empty(), "{report:?}");
    assert_eq!(ok.inner().shard_queue_lens(), vec![1]);

    // Long outage: by the time the gateway is back, B's plan is hopeless.
    let recover_at = SimTime::new(e16_800 + e16_400);
    let (recovered, report) =
        recover::<ShardedGateway>(&wal, recover_at, JournalConfig::default(), None).unwrap();
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
            && serde_json::from_str::<JournalEvent>(std::str::from_utf8(&f.payload).unwrap())
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

        let recover_once = || {
            recover::<ShardedGateway>(&wal, crash_time, JournalConfig::default(), None)
                .expect("recovery")
        };
        let (mut first, first_report) = recover_once();
        let (mut second, second_report) = recover_once();

        assert_eq!(
            first_report.demoted, second_report.demoted,
            "kill_at={kill_at}: demotions diverged"
        );
        assert_eq!(
            first.inner().capture().normalized(),
            second.inner().capture().normalized(),
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
    let (recovered, report) =
        recover::<ShardedGateway>(wal, SimTime::new(5.0), JournalConfig::default(), None)
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
    let snap = recovered.inner().capture();
    assert!(!snap.sharded);
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
        serde_json::from_str(&serde_json::to_string(&live.capture()).unwrap()).unwrap();
    let old_genesis = strip_keys(&genesis, V2_FIELDS);
    let mut wal = rtdls_journal::wire::encode_frame(
        rtdls_journal::wire::RecordKind::Snapshot,
        serde_json::to_string(&old_genesis).unwrap().as_bytes(),
    );
    for ev in &commands {
        wal.extend(rtdls_journal::wire::encode_frame(
            rtdls_journal::wire::RecordKind::Event,
            serde_json::to_string(ev).unwrap().as_bytes(),
        ));
    }
    // Reference: a live gateway driven through the same commands, plus the
    // strict re-admission pass recovery always ends with.
    let mut reference = live;
    for ev in &commands {
        rtdls_journal::apply_event(&mut reference, ev);
    }
    let demoted = reference.reverify(SimTime::new(2.0));
    assert!(demoted.is_empty(), "scenario stays feasible: {demoted:?}");
    let (recovered, report) =
        recover::<ShardedGateway>(&wal, SimTime::new(2.0), JournalConfig::default(), None)
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
    use rtdls_journal::wire::{encode_frame, RecordKind};
    let p = params();
    let genesis = ShardedGateway::new(
        p,
        2,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::RoundRobin,
        DeferPolicy::default(),
    )
    .unwrap()
    .capture();
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
            RecordKind::Snapshot,
            serde_json::to_string(&genesis).unwrap().as_bytes(),
        );
        for ev in events {
            wal.extend(encode_frame(
                RecordKind::Event,
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
        let (recovered, report) = recover::<ShardedGateway>(
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
    use rtdls_journal::wire::{encode_frame, RecordKind};
    let gateway = ShardedGateway::new(
        params(),
        1,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    let genesis = serde_json::to_string(&gateway.capture()).unwrap();
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
        let mut wal = encode_frame(RecordKind::Snapshot, genesis.as_bytes());
        wal.extend(encode_frame(
            RecordKind::Event,
            event.replace(field, poison).as_bytes(),
        ));
        match recover::<ShardedGateway>(&wal, SimTime::ZERO, JournalConfig::default(), None) {
            Err(JournalError::Corrupt(why)) => assert!(why.contains(ty), "{poison}: {why}"),
            Err(other) => panic!("{poison}: {other}"),
            Ok(_) => panic!("{poison} replayed as some other value"),
        }
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
    gateway.capture()
}

/// Recovers a WAL holding nothing but `snapshot`, checksums intact.
fn recover_image(snapshot: &GatewaySnapshot) -> Result<(JG, RecoveryReport), JournalError> {
    use rtdls_journal::wire::{encode_frame, RecordKind};
    let image = serde_json::to_string(snapshot).unwrap();
    let wal = encode_frame(RecordKind::Snapshot, image.as_bytes());
    recover::<ShardedGateway>(&wal, SimTime::ZERO, JournalConfig::default(), None)
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
        recover::<ShardedGateway>(&wal, SimTime::ZERO, JournalConfig::default(), None)
            .expect("recovery");
    let book = rec.inner().capture().reservations;
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
    // Per-tenant metrics (counters + latency histograms) must round-trip
    // through snapshot()/restore() across the durability boundary: drive
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
    assert!(j.submit_request(&mk(3, 1), SimTime::ZERO).is_throttled());
    assert!(j.submit_request(&mk(4, 2), SimTime::ZERO).is_accepted());
    assert!(j
        .submit_request(&mk(5, 1).with_qos(QosClass::Premium), SimTime::ZERO)
        .is_accepted());
    let live_tenants = j.metrics().snapshot().tenants;
    let wal = j.journal().bytes().to_vec();
    drop(j); // the crash

    let (recovered, _) =
        recover::<ShardedGateway>(&wal, SimTime::ZERO, JournalConfig::default(), None).unwrap();
    let recovered_tenants = recovered.metrics().snapshot().tenants;
    // Counters are deterministic and must match exactly; the latency
    // histograms are wall-clock and compare only after normalization.
    assert_eq!(
        recovered_tenants.clone().normalized(),
        live_tenants.clone().normalized()
    );
    let t1 = recovered_tenants.get(TenantId(1)).unwrap();
    assert_eq!((t1.submitted, t1.accepted, t1.throttled), (4, 3, 1));
    assert_eq!(
        t1.decision_latency.count(),
        4,
        "tenant latency histogram has a serialization path"
    );
    let t2 = recovered_tenants.get(TenantId(2)).unwrap();
    assert_eq!((t2.submitted, t2.accepted), (1, 1));
    // The quota policy survived too: tenant 1 is still throttled.
    let mut recovered = recovered;
    assert!(recovered
        .submit_request(&mk(6, 1), SimTime::ZERO)
        .is_throttled());
}

#[test]
fn recovery_through_a_journal_file_survives_process_boundaries() {
    // Phase 1 writes the WAL to disk; phase 2 recovers from the file alone
    // (same process here, but nothing except the path crosses the "boundary").
    let path =
        std::env::temp_dir().join(format!("rtdls-crash-recovery-{}.wal", std::process::id()));
    let tasks = bursty_tasks(99);
    let crash_time;
    {
        let sink = FileSink::create(&path).unwrap();
        let gateway = ShardedGateway::new(
            params(),
            2,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::LeastLoaded,
            DeferPolicy::default(),
        )
        .unwrap();
        let j = JournaledGateway::with_sink(
            gateway,
            JournalConfig {
                snapshot_every: 32,
                compact_on_snapshot: true,
            },
            Box::new(sink),
        );
        let cfg = SimConfig::new(params(), AlgorithmKind::EDF_DLT).strict();
        let mut sim = Simulation::with_frontend(cfg, j);
        sim.prime(tasks);
        while sim.events_processed() < 60 && sim.step() {}
        crash_time = sim.now();
        // The process "dies": everything in memory is dropped.
    }
    let (recovered, report) = recover_file_with_policy::<ShardedGateway>(
        &path,
        crash_time,
        JournalConfig::default(),
        FsyncPolicy::EveryAppend,
    )
    .unwrap();
    assert!(report.frames_decoded > 0);
    assert!(recovered.metrics().submitted > 0);
    // The file was compacted down to the post-recovery snapshot (+ audits).
    let on_disk = FileSink::read(&path).unwrap();
    assert_eq!(on_disk, recovered.journal().bytes());
    let (frames, tail) = rtdls_journal::wire::decode_frames(&on_disk);
    assert!(tail.is_clean());
    assert_eq!(
        frames
            .iter()
            .filter(|f| f.kind == rtdls_journal::wire::RecordKind::Snapshot)
            .count(),
        1
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("wal.spare"));
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
            recover::<ShardedGateway>(prefix, SimTime::new(0.0), JournalConfig::default(), None)
                .expect("every prefix recovers");
        let inputs: Vec<JournalEvent> = frames
            .iter()
            .filter(|f| f.kind == rtdls_journal::wire::RecordKind::Event)
            .filter_map(|f| serde_json::from_str(&String::from_utf8_lossy(&f.payload)).ok())
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
