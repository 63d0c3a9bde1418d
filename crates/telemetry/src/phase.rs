//! Hot-path phase timings: hierarchical phase paths backed by
//! exponential-bucket histograms, kept in the [`Telemetry`] handle beside
//! its span ring.
//!
//! A phase is timed by [`Telemetry::timer`] and [`Telemetry::phase`]: the
//! disabled handle (the default everywhere) costs one `Option` check and
//! never touches the clock; the enabled handle records into per-phase
//! histograms keyed by `&'static str` paths, so the hot path never
//! allocates — a phase's `Vec` slot is pushed once on first sight and
//! bumped in place forever after.
//!
//! Phases are **hierarchical by path**: `"edge/read"`, `"edge/drive"`,
//! `"journal/append"`, `"journal/fsync"`. The `/`-separated path is the
//! whole tree encoding — [`Telemetry::phases`] returns a path-sorted
//! [`PhaseProfile`] list that any consumer (the ops wire, `rtdls-top`, a
//! test) can re-indent into a tree with [`render_tree`], and
//! [`Telemetry::fold_phases`] exposes the same data as one
//! `rtdls_profile_ns` histogram per phase.
//!
//! A phase's histogram is the workspace's one [`LatencyHistogram`] (log₂
//! buckets, bound `2^(i+1)` over `[2^i, 2^(i+1))` ns): a single branch and
//! a batch fsync sit on the same scale, and the quantiles here are the
//! same walk every other latency series in the stack reports.
//!
//! [`Telemetry`]: crate::Telemetry
//! [`Telemetry::timer`]: crate::Telemetry::timer
//! [`Telemetry::phase`]: crate::Telemetry::phase
//! [`Telemetry::phases`]: crate::Telemetry::phases
//! [`Telemetry::fold_phases`]: crate::Telemetry::fold_phases

use serde::{Deserialize, Serialize};

use crate::{LatencyHistogram, MetricsRegistry};

/// One phase's summary, the wire/report shape of the phase table.
///
/// The `path` is the full hierarchical phase name (`"edge/turn/read"`);
/// depth is the number of `/` separators, which is all a renderer needs to
/// rebuild the tree.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Hierarchical phase path, `/`-separated.
    pub path: String,
    /// Number of recorded intervals.
    pub count: u64,
    /// Sum of recorded nanoseconds.
    pub total_ns: u64,
    /// Largest single recorded interval.
    pub max_ns: u64,
    /// Median bucket bound.
    pub p50_ns: u64,
    /// 90th-percentile bucket bound.
    pub p90_ns: u64,
    /// 99th-percentile bucket bound.
    pub p99_ns: u64,
}

impl PhaseProfile {
    /// Tree depth of this phase (number of `/` separators in the path).
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }

    /// The leaf name (the path segment after the last `/`).
    pub fn leaf(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// Renders a path-sorted snapshot as an indented, self-describing tree.
pub fn render_tree(phases: &[PhaseProfile]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for p in phases {
        let mean = p.total_ns.checked_div(p.count).unwrap_or(0);
        let _ = writeln!(
            out,
            "{:indent$}{leaf:<24} n={count:<8} mean={mean}ns p50={p50}ns p90={p90}ns p99={p99}ns max={max}ns",
            "",
            indent = p.depth() * 2,
            leaf = p.leaf(),
            count = p.count,
            mean = mean,
            p50 = p.p50_ns,
            p90 = p.p90_ns,
            p99 = p.p99_ns,
            max = p.max_ns,
        );
    }
    out
}

/// Every phase seen so far, in first-seen order.
#[derive(Debug, Default)]
pub(crate) struct PhaseTable(Vec<(&'static str, LatencyHistogram)>);

impl PhaseTable {
    /// Records one interval for `path`.
    pub(crate) fn record(&mut self, path: &'static str, ns: u64) {
        match self.0.iter_mut().find(|(p, _)| *p == path) {
            Some((_, hist)) => hist.record_ns(ns),
            None => {
                let mut hist = LatencyHistogram::new();
                hist.record_ns(ns);
                self.0.push((path, hist));
            }
        }
    }

    /// A path-sorted summary of every phase. Path order *is* tree order: a
    /// parent sorts before its children, siblings sort lexically.
    pub(crate) fn profiles(&self) -> Vec<PhaseProfile> {
        let mut out: Vec<PhaseProfile> = self
            .0
            .iter()
            .map(|(path, hist)| PhaseProfile {
                path: path.to_string(),
                count: hist.count(),
                total_ns: hist.sum_ns(),
                max_ns: hist.max_ns(),
                p50_ns: hist.quantile_ns(0.50),
                p90_ns: hist.quantile_ns(0.90),
                p99_ns: hist.quantile_ns(0.99),
            })
            .collect();
        out.sort_by(|a, b| a.path.cmp(&b.path));
        out
    }

    /// Folds every phase into `reg` as an `rtdls_profile_ns` histogram
    /// labeled `phase=<path>` (occupied buckets only).
    pub(crate) fn fold(&self, reg: &mut MetricsRegistry) {
        for (path, hist) in &self.0 {
            reg.histogram(
                "rtdls_profile_ns",
                &[("phase", path)],
                hist.occupied().collect(),
                hist.count(),
                hist.sum_ns() as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_path_sorted_with_percentiles() {
        let mut t = PhaseTable::default();
        for _ in 0..90 {
            t.record("edge/turn/read", 100);
        }
        for _ in 0..10 {
            t.record("edge/turn/read", 100_000);
        }
        t.record("edge/turn", 200_000);
        t.record("journal/append", 500);
        let snap = t.profiles();
        let paths: Vec<&str> = snap.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["edge/turn", "edge/turn/read", "journal/append"]);
        let read = &snap[1];
        assert_eq!(read.count, 100);
        assert!(
            read.p50_ns <= 128,
            "fast bucket median, got {}",
            read.p50_ns
        );
        assert!(read.p99_ns >= 100_000, "tail visible, got {}", read.p99_ns);
        assert_eq!(read.max_ns, 100_000);
        assert_eq!(snap[0].depth(), 1);
        assert_eq!(read.depth(), 2);
        assert_eq!(read.leaf(), "read");
    }

    #[test]
    fn fold_exposes_one_histogram_per_phase() {
        let mut t = PhaseTable::default();
        t.record("ship/send", 300);
        let mut reg = MetricsRegistry::new();
        t.fold(&mut reg);
        let h = &reg.histograms()[0];
        assert_eq!(h.name, "rtdls_profile_ns");
        assert_eq!(
            h.labels,
            vec![("phase".to_string(), "ship/send".to_string())]
        );
        assert_eq!(h.count, 1);
    }

    #[test]
    fn render_tree_indents_by_depth() {
        let mut t = PhaseTable::default();
        t.record("edge/turn", 1000);
        t.record("edge/turn/drive", 800);
        let text = render_tree(&t.profiles());
        assert!(text.contains("turn"), "{text}");
        assert!(text.contains("  drive"), "{text}");
    }

    #[test]
    fn phase_profile_round_trips_through_serde() {
        let p = PhaseProfile {
            path: "journal/fsync".to_string(),
            count: 3,
            total_ns: 900,
            max_ns: 500,
            p50_ns: 256,
            p90_ns: 512,
            p99_ns: 512,
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: PhaseProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
