//! The always-on hot-path profiler: hierarchical phase timers backed by
//! exponential-bucket histograms.
//!
//! A [`Profiler`] follows the same discipline as the [`Telemetry`] trace
//! handle: the disabled handle (the default everywhere) costs one `Option`
//! check per call and never touches the clock; the enabled handle records
//! into per-phase histograms keyed by `&'static str` paths, so the hot path
//! never allocates — a phase's `Vec` slot is pushed once on first sight and
//! bumped in place forever after.
//!
//! Phases are **hierarchical by path**: `"edge/turn"`, `"edge/turn/read"`,
//! `"journal/append"`, `"journal/fsync"`. The `/`-separated path is the
//! whole tree encoding — [`Profiler::snapshot`] returns a path-sorted
//! [`PhaseProfile`] list that any consumer (the ops wire, `rtdls-top`, a
//! test) can re-indent into a tree with [`render_tree`], and
//! [`Profiler::fold_metrics`] exposes the same data as one
//! `rtdls_profile_ns` histogram per phase.
//!
//! A phase's histogram is the workspace's one [`LatencyHistogram`] (log₂
//! buckets, bound `2^(i+1)` over `[2^i, 2^(i+1))` ns): a single branch and
//! a batch fsync sit on the same scale, and the quantiles here are the
//! same walk every other latency series in the stack reports.
//!
//! [`Telemetry`]: crate::Telemetry

use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::{LatencyHistogram, MetricsRegistry};

/// One phase's summary, the wire/report shape of a profiler snapshot.
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

#[derive(Debug)]
struct ProfInner {
    phases: Mutex<Vec<(&'static str, LatencyHistogram)>>,
}

/// The profiling handle threaded next to the [`Telemetry`] handle.
///
/// Cloning is cheap (an `Arc` bump); all clones share one phase table. The
/// [`Default`] handle is disabled: [`Profiler::start`] returns `None`
/// without reading the clock, and every record is one `Option` check.
///
/// [`Telemetry`]: crate::Telemetry
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    inner: Option<Arc<ProfInner>>,
}

impl Profiler {
    /// The zero-cost disabled handle (the default everywhere).
    pub fn disabled() -> Self {
        Profiler::default()
    }

    /// An enabled handle with an empty phase table.
    pub fn enabled() -> Self {
        Profiler {
            inner: Some(Arc::new(ProfInner {
                phases: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a phase timer; `None` when disabled, so the unprofiled path
    /// never touches the clock.
    pub fn start(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Ends a phase timer started with [`Profiler::start`]; no-op when the
    /// start was `None`.
    pub fn stop(&self, path: &'static str, started: Option<Instant>) {
        if let Some(t) = started {
            self.record_ns(path, t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// Records one interval for `path`. No-op when disabled.
    pub fn record_ns(&self, path: &'static str, ns: u64) {
        let Some(inner) = &self.inner else { return };
        if let Ok(mut phases) = inner.phases.lock() {
            match phases.iter_mut().find(|(p, _)| *p == path) {
                Some((_, hist)) => hist.record_ns(ns),
                None => {
                    let mut hist = LatencyHistogram::new();
                    hist.record_ns(ns);
                    phases.push((path, hist));
                }
            }
        }
    }

    /// Total intervals recorded across all phases.
    pub fn intervals_recorded(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .phases
                .lock()
                .map(|p| p.iter().map(|(_, h)| h.count()).sum())
                .unwrap_or(0),
            None => 0,
        }
    }

    /// A path-sorted snapshot of every phase seen so far (empty when
    /// disabled). Path order *is* tree order: a parent sorts before its
    /// children, siblings sort lexically.
    pub fn snapshot(&self) -> Vec<PhaseProfile> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let Ok(phases) = inner.phases.lock() else {
            return Vec::new();
        };
        let mut out: Vec<PhaseProfile> = phases
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
    /// labeled `phase=<path>` (occupied buckets only). No-op when disabled.
    pub fn fold_metrics(&self, reg: &mut MetricsRegistry) {
        let Some(inner) = &self.inner else { return };
        let Ok(phases) = inner.phases.lock() else {
            return;
        };
        for (path, hist) in phases.iter() {
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
    fn disabled_handle_is_inert() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        assert!(p.start().is_none());
        p.record_ns("edge/turn", 100);
        p.stop("edge/turn", None);
        assert_eq!(p.intervals_recorded(), 0);
        assert!(p.snapshot().is_empty());
        let mut reg = MetricsRegistry::new();
        p.fold_metrics(&mut reg);
        assert!(reg.histograms().is_empty());
    }

    #[test]
    fn snapshot_is_path_sorted_with_percentiles() {
        let p = Profiler::enabled();
        for _ in 0..90 {
            p.record_ns("edge/turn/read", 100);
        }
        for _ in 0..10 {
            p.record_ns("edge/turn/read", 100_000);
        }
        p.record_ns("edge/turn", 200_000);
        p.record_ns("journal/append", 500);
        let snap = p.snapshot();
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
    fn stop_records_elapsed_and_fold_exposes_histograms() {
        let p = Profiler::enabled();
        let t = p.start();
        assert!(t.is_some());
        p.stop("ship/send", t);
        assert_eq!(p.intervals_recorded(), 1);
        let mut reg = MetricsRegistry::new();
        p.fold_metrics(&mut reg);
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
        let p = Profiler::enabled();
        p.record_ns("edge/turn", 1000);
        p.record_ns("edge/turn/drive", 800);
        let text = render_tree(&p.snapshot());
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
