//! Fold adapter: the follower's health into the unified telemetry
//! registry.
//!
//! Mirrors `fold_journal_metrics`: the follower keeps counting natively;
//! an ops poll folds the current values in here. The primary's side —
//! ship/ack offsets and the **replication lag** — is folded by the
//! shipping journaled gateway itself ([`Shipper::fold`]).
//!
//! [`Shipper::fold`]: rtdls_journal::Shipper::fold

use rtdls_telemetry::MetricsRegistry;

use crate::follower::Follower;

/// Folds the follower-side view: applied offset, fence and idempotence
/// counters, failure-detector freshness.
pub fn fold_follower_metrics(reg: &mut MetricsRegistry, follower: &Follower) {
    reg.gauge("rtdls_follower_epoch", &[], follower.epoch() as f64);
    reg.gauge(
        "rtdls_follower_applied_offset",
        &[],
        follower.next_seq() as f64,
    );
    // `rtdls_follower_lag` keeps its historical shape (0 when unknown);
    // `rtdls_replica_lag_frames` is the alert-safe variant that reports a
    // `-1` sentinel until the follower has heard from a live primary, so
    // "never connected" can't masquerade as "caught up".
    reg.gauge(
        "rtdls_follower_lag",
        &[],
        follower.lag().unwrap_or(0) as f64,
    );
    reg.gauge(
        "rtdls_replica_lag_frames",
        &[],
        follower.lag().map_or(-1.0, |l| l as f64),
    );
    reg.gauge(
        "rtdls_follower_promoted",
        &[],
        if follower.promoted() { 1.0 } else { 0.0 },
    );
    let stats = follower.stats();
    reg.counter("rtdls_follower_frames_applied", &[], stats.applied);
    reg.counter("rtdls_follower_duplicates_dropped", &[], stats.duplicates);
    reg.counter("rtdls_follower_fenced", &[], stats.fenced);
    reg.counter("rtdls_follower_fast_forwards", &[], stats.fast_forwards);
    reg.counter("rtdls_follower_heartbeats_seen", &[], stats.heartbeats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::follower::FollowerConfig;
    use rtdls_core::prelude::*;
    use rtdls_journal::prelude::*;
    use rtdls_service::prelude::*;

    #[test]
    fn folds_cover_offsets_lag_and_fence_counters() {
        let gw = ShardedGateway::new(
            ClusterParams::paper_baseline(),
            1,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::LeastLoaded,
            DeferPolicy::default(),
        )
        .unwrap();
        let mut gw = JournaledGateway::new(
            gw,
            JournalConfig {
                snapshot_every: 0,
                compact_on_snapshot: false,
            },
        );
        gw.submit_request(
            &SubmitRequest::new(Task::new(1, 0.0, 500.0, 30_000.0)),
            SimTime::ZERO,
        );

        let mut shipper = Shipper::new(ShipConfig::default());
        let mut follower = Follower::new(FollowerConfig::default());
        for msg in shipper.poll(gw.journal(), SimTime::ZERO) {
            if let Some(ShipMsg::Ack { seq }) = follower.on_msg(SimTime::ZERO, msg).unwrap() {
                shipper.on_ack(seq, SimTime::ZERO);
            }
        }

        let mut reg = MetricsRegistry::new();
        shipper.fold(&mut reg, gw.journal());
        fold_follower_metrics(&mut reg, &follower);
        let text = reg.to_prometheus();
        assert!(text.contains("rtdls_replica_lag 0"), "{text}");
        assert!(text.contains("rtdls_replica_epoch 0"), "{text}");
        assert!(text.contains("rtdls_replica_frames_shipped"), "{text}");
        assert!(text.contains("rtdls_follower_applied_offset"), "{text}");
        assert!(text.contains("rtdls_follower_fenced 0"), "{text}");
        assert!(text.contains("rtdls_follower_promoted 0"), "{text}");
        assert!(text.contains("rtdls_replica_lag_frames 0"), "{text}");
    }

    #[test]
    fn lag_frames_gauge_distinguishes_silence_from_caught_up() {
        let follower = Follower::new(FollowerConfig::default());
        assert_eq!(follower.lag(), None, "nothing heard yet");
        let mut reg = MetricsRegistry::new();
        fold_follower_metrics(&mut reg, &follower);
        let text = reg.to_prometheus();
        assert!(text.contains("rtdls_replica_lag_frames -1"), "{text}");
        assert!(
            text.contains("rtdls_follower_lag 0"),
            "legacy gauge keeps its shape: {text}"
        );
    }
}
