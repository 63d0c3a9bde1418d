//! Fold adapter: journal durability counters into the unified telemetry
//! [`MetricsRegistry`].
//!
//! Mirrors the service layer's `fold_service_metrics`: the journal keeps
//! counting natively and an ops poll folds the current values in here.

use rtdls_telemetry::MetricsRegistry;

use crate::journal::Journal;

/// Folds the journal's append/snapshot counters and — when a durable sink
/// is attached — its fsync/byte/batch durability stats into `reg`.
pub fn fold_journal_metrics(reg: &mut MetricsRegistry, journal: &Journal) {
    reg.counter(
        "rtdls_journal_events_appended",
        &[],
        journal.events_appended(),
    );
    reg.counter(
        "rtdls_journal_snapshots_appended",
        &[],
        journal.snapshots_appended(),
    );
    reg.gauge("rtdls_journal_len_bytes", &[], journal.bytes().len() as f64);
    if let Some(stats) = journal.sink_stats() {
        reg.counter("rtdls_journal_sink_appends", &[], stats.appends);
        reg.counter("rtdls_journal_sink_writes", &[], stats.writes);
        reg.counter("rtdls_journal_sink_syncs", &[], stats.syncs);
        reg.counter("rtdls_journal_sink_bytes_written", &[], stats.bytes_written);
        reg.gauge("rtdls_journal_sink_max_batch", &[], stats.max_batch as f64);
    }
    reg.gauge("rtdls_journal_epoch", &[], journal.epoch() as f64);
    reg.gauge(
        "rtdls_journal_appended_offset",
        &[],
        journal.next_seq() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{FileSink, FsyncPolicy, JournalConfig};
    use rtdls_core::prelude::SimTime;

    #[test]
    fn fold_covers_journal_counters_and_sink_durability() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "rtdls-journal-fold-test-{}.wal",
            std::process::id()
        ));
        let sink = FileSink::create(&path)
            .unwrap()
            .with_fsync_policy(FsyncPolicy::Batch(8));
        let mut j = Journal::with_sink(
            JournalConfig {
                snapshot_every: 0,
                compact_on_snapshot: false,
            },
            Box::new(sink),
        );
        for i in 0..3 {
            j.append_event(&crate::event::JournalEvent::DispatchDue {
                at: SimTime::new(i as f64),
            });
        }
        j.flush();
        let mut reg = MetricsRegistry::new();
        fold_journal_metrics(&mut reg, &j);
        let text = reg.to_prometheus();
        assert!(text.contains("rtdls_journal_events_appended 3"), "{text}");
        assert!(text.contains("rtdls_journal_sink_appends 3"), "{text}");
        assert!(text.contains("rtdls_journal_sink_writes 3"), "{text}");
        assert!(text.contains("rtdls_journal_sink_syncs 1"), "{text}");
        assert!(text.contains("rtdls_journal_sink_bytes_written"), "{text}");
        drop(j);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("wal.spare"));

        // An in-memory journal folds only its own counters.
        let j = Journal::in_memory(JournalConfig::default());
        let mut reg = MetricsRegistry::new();
        fold_journal_metrics(&mut reg, &j);
        let text = reg.to_prometheus();
        assert!(text.contains("rtdls_journal_events_appended 0"));
        assert!(!text.contains("rtdls_journal_sink_appends"));
    }
}
