//! Property tests for the shipping protocol under seeded network faults.
//!
//! A hand-pumped primary/follower pair (no sim engine — just the shipper,
//! two [`FaultyLink`]s, and a follower) is driven through arbitrary
//! loss/duplication/delay/netsplit schedules. Whatever the channel does:
//!
//! * the follower's mirror is always a byte-prefix of the primary's
//!   journal — reordering and duplication never corrupt or double-apply;
//! * the standby gateway always equals a cold replay of that mirror;
//! * the same seed replays to byte-identical mirror bytes and counters;
//! * in loss-free schedules the follower fully catches up.

use proptest::prelude::*;

use rtdls_core::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_replica::prelude::*;
use rtdls_service::prelude::*;
use rtdls_sim::net::{FaultPlan, FaultyLink, LinkStats};

fn journal_cfg() -> JournalConfig {
    JournalConfig {
        snapshot_every: 0,
        compact_on_snapshot: false,
    }
}

fn primary() -> JournaledGateway<ShardedGateway> {
    let gw = ShardedGateway::new(
        ClusterParams::paper_baseline(),
        1,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    JournaledGateway::new(gw, journal_cfg())
}

/// One shipping schedule: the frame-link fault plan plus pump length.
#[derive(Clone, Debug)]
struct Schedule {
    seed: u64,
    loss: f64,
    duplicate: f64,
    delay_max: f64,
    split: Option<(f64, f64)>,
}

impl Schedule {
    fn frame_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::clean(self.seed)
            .with_loss(self.loss)
            .with_duplication(self.duplicate)
            .with_delay(1.0, self.delay_max);
        if let Some((from, until)) = self.split {
            plan = plan.with_split(SimTime::new(from), SimTime::new(until));
        }
        plan
    }

    fn ack_plan(&self) -> FaultPlan {
        FaultPlan::clean(self.seed.wrapping_mul(31).wrapping_add(7)).with_delay(1.0, 3.0)
    }
}

fn splits() -> impl Strategy<Value = Option<(f64, f64)>> {
    // The vendored proptest has no `prop_oneof`: draw a selector alongside
    // the window and map the pair.
    (0u8..2, 100.0..600.0f64, 50.0..900.0f64)
        .prop_map(|(which, from, len)| (which == 1).then_some((from, from + len)))
}

fn schedules() -> impl Strategy<Value = Schedule> {
    (
        0u64..u64::MAX,
        0.0..0.35f64,
        0.0..0.35f64,
        2.0..25.0f64,
        splits(),
    )
        .prop_map(|(seed, loss, duplicate, delay_max, split)| Schedule {
            seed,
            loss,
            duplicate,
            delay_max,
            split,
        })
}

/// Everything a run produces that determinism must cover.
#[derive(Debug, PartialEq)]
struct RunResult {
    primary_wal: Vec<u8>,
    mirror: Vec<u8>,
    follower_next: u64,
    follower_stats: FollowerStats,
    ship_stats: rtdls_replica::ship::ShipStats,
    link: LinkStats,
    acks: LinkStats,
    standby: Option<GatewaySnapshot>,
}

/// Pumps a scripted workload through the channel under `schedule`. The
/// workload submits a task every 40 time units for 1200 units, then the
/// channel settles (faults keep acting; retransmission drives catch-up).
fn pump(schedule: &Schedule) -> RunResult {
    let mut gw = primary();
    let mut shipper = Shipper::new(ShipConfig {
        heartbeat_every: 30.0,
        retransmit_after: 60.0,
    });
    let mut link: FaultyLink<ShipMsg> = FaultyLink::new(schedule.frame_plan());
    let mut acks: FaultyLink<ShipMsg> = FaultyLink::new(schedule.ack_plan());
    let mut follower: Follower<ShardedGateway> = Follower::new(FollowerConfig::default());

    let split_end = schedule.split.map(|(_, until)| until).unwrap_or(0.0);
    let settle_until = (1_200.0f64).max(split_end) + 3_000.0;
    let mut id = 0u64;
    let mut t = 0.0f64;
    while t <= settle_until {
        let now = SimTime::new(t);
        if t <= 1_200.0 && (t / 40.0).fract() == 0.0 {
            gw.submit_request(&SubmitRequest::new(Task::new(id, t, 20.0, 2_000.0)), now);
            id += 1;
        }
        for msg in shipper.poll(gw.journal(), now) {
            link.send(now, msg);
        }
        for msg in link.deliver_due(now) {
            if let Some(ack) = follower.on_msg(now, msg).expect("clean frames apply") {
                acks.send(now, ack);
            }
        }
        for msg in acks.deliver_due(now) {
            if let ShipMsg::Ack { seq } = msg {
                shipper.on_ack(seq, now);
            }
        }
        t += 10.0;
    }

    RunResult {
        primary_wal: gw.journal().bytes().to_vec(),
        mirror: follower.bytes().to_vec(),
        follower_next: follower.next_seq(),
        follower_stats: follower.stats(),
        ship_stats: shipper.stats(),
        link: link.stats(),
        acks: acks.stats(),
        standby: follower.standby().map(|g| g.capture().normalized()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the loss/reorder/dup/netsplit schedule does, the mirror is
    /// a byte-prefix of the primary's journal, applied exactly once per
    /// offset, and the standby equals a cold replay of the mirror.
    #[test]
    fn mirror_is_an_exactly_once_prefix_of_the_primary(schedule in schedules()) {
        let run = pump(&schedule);

        prop_assert!(
            run.primary_wal.starts_with(&run.mirror),
            "mirror diverged from the primary's journal"
        );

        // Idempotent replay: every applied frame advanced the cursor, so
        // duplicated and reordered deliveries never double-applied.
        prop_assert_eq!(run.follower_stats.applied, run.follower_next);

        // The warm standby is exactly what cold recovery of the mirror
        // would rebuild.
        if let Some(standby) = &run.standby {
            let (cold, report) = replay::<ShardedGateway>(&run.mirror).expect("mirror replays");
            prop_assert!(report.tail.is_clean());
            prop_assert_eq!(standby, &cold.capture().normalized());
        } else {
            // Nothing (not even the genesis snapshot) arrived: the mirror
            // must be empty too.
            prop_assert!(run.mirror.is_empty());
        }
    }

    /// The same seed replays the whole channel byte-identically; the
    /// schedule is the only source of randomness.
    #[test]
    fn the_same_seed_replays_byte_identically(schedule in schedules()) {
        let a = pump(&schedule);
        let b = pump(&schedule);
        prop_assert_eq!(a, b);
    }

    /// Loss-free schedules always catch up completely once acks settle,
    /// netsplits included — retransmission closes any split-era gap.
    #[test]
    fn lossless_schedules_catch_up_completely(
        seed in 0u64..u64::MAX,
        duplicate in 0.0..0.35f64,
        delay_max in 2.0..25.0f64,
        split in splits(),
    ) {
        let schedule = Schedule { seed, loss: 0.0, duplicate, delay_max, split };
        let run = pump(&schedule);
        prop_assert_eq!(&run.mirror, &run.primary_wal, "follower did not fully catch up");
        prop_assert_eq!(run.follower_stats.applied, run.follower_next);
    }
}
