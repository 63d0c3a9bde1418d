//! A replicated head node loses power at each filesystem call of its run.
//!
//! The primary is a `ShippingGateway` journaling through the real
//! `FileSink` on the model disk, shipping to a follower over zero-delay
//! links, served by the simulator. At every kill point the process halts
//! inside the call the power went in, and whatever it had handed to its
//! link by then is on the wire. Then, in one run, the follower promotes on
//! heartbeat silence and, in another, the head restarts from its disk. The
//! world asserts after every event that the mirror is a prefix of the
//! primary's *durable* bytes, at the promotion that the promoted gateway is
//! a recovery of the shipped prefix, and at the restart that it holds every
//! acknowledged turn. A primary that shipped a turn before committing it
//! fails the first assertion at the kill that falls in that commit.

use rtdls_core::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_sim::prelude::*;
use rtdls_workload::prelude::*;
use rtdls_world::disk::{every_power_loss, Call, Model};
use rtdls_world::{baseline_gateway, Comeback, Follow, Kill, Record, Scenario, World};

const LOG: &str = "/model/journal.wal";

/// Genesis-only snapshots: the mirror is checked against the whole log.
const JOURNAL: JournalConfig = JournalConfig {
    snapshot_every: 0,
    compact_on_snapshot: false,
};

fn tasks() -> Vec<Task> {
    WorkloadGenerator::new(WorkloadSpec::paper_baseline(1.0), 31)
        .take(14)
        .collect()
}

/// Serves `tasks` to completion on a replicated world over `disk` (armed or
/// not); the record and the disk.
fn run(policy: FsyncPolicy, disk: Model, comeback: Comeback) -> (Record, Model) {
    let scenario = Scenario::new(JOURNAL)
        .kill(Kill::Never, comeback)
        .follow(Follow::clean(3))
        .fsync(policy);
    let world = World::on_disk(baseline_gateway(2), scenario, disk.clone(), LOG);
    // Non-strict: a failover loses in-flight guarantees by design.
    let cfg = SimConfig::new(ClusterParams::paper_baseline(), AlgorithmKind::EDF_DLT);
    let (_, world) = Simulation::with_frontend(cfg, world).run_returning_frontend(tasks());
    let record = world.record();
    std::mem::forget(world);
    (record, disk)
}

#[test]
fn power_loss_at_every_call_of_a_shipping_primary_keeps_the_mirror_durable() {
    for policy in [FsyncPolicy::Batch(16), FsyncPolicy::EveryAppend] {
        let (whole, disk) = run(policy, Model::new(LOG), Comeback::Never);
        assert_eq!(whole.acknowledged, tasks().len() as u64);
        let (mut promoted, mut restarted, mut in_commit) = (0, 0, 0);
        every_power_loss(disk.calls(), |call, torn| {
            let what = format!("{policy:?}, power lost at call {call}, torn={torn}");
            let cut = || Model::new(LOG).armed(call, torn);
            let (failover, disk) = run(policy, cut(), Comeback::Promote);
            let killed = disk.killed();
            in_commit += matches!(killed, Some(Call::Write { zeros: false } | Call::Sync)) as usize;
            assert!(failover.killed_at.is_some(), "{what}: the power went");
            // What the follower applied had reached the platter.
            assert!(
                disk.survivors().starts_with(&failover.shipped_prefix),
                "{what}: the shipped prefix is not durable"
            );
            if let Some(promotion) = &failover.promotion {
                promoted += 1;
                assert_eq!(promotion.epoch, 1, "{what}");
            }
            let (restart, _) = run(policy, cut(), Comeback::Disk);
            match restart.recovery {
                Some(recovery) => {
                    restarted += 1;
                    assert!(recovery.frames_decoded > 0, "{what}");
                }
                None => assert_eq!(restart.acknowledged, 0, "{what}: nothing came back"),
            }
            killed
        });
        // The kills fell inside turn commits, and both comebacks happened.
        assert!(
            in_commit > 0 && promoted > 0 && restarted > 0,
            "{policy:?}: {in_commit} kills in a commit, {promoted} promotions, \
             {restarted} restarts"
        );
    }
}
