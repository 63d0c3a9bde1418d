//! Metrics history: fixed-capacity time-series rings sampled from the
//! [`MetricsRegistry`].
//!
//! The registry is a point-in-time snapshot; the [`TimeSeriesStore`] gives
//! it a past. The owning layer (the edge reactor) folds a fresh registry at
//! a configurable cadence — driven by the sim/edge clock, not wall time, so
//! histories are deterministic under the sim harness — and calls
//! [`TimeSeriesStore::sample`]. Each flattened scalar becomes one series,
//! keyed `name{label=value,...}`:
//!
//! * **Gauges** record their level verbatim.
//! * **Counters** record the *delta* since the previous sample — the
//!   per-interval rate shape an operator actually plots. The first sight of
//!   a counter records 0 (there is no previous raw value to diff against).
//! * **Histograms** arrive already flattened (`_count`/`_sum` counters plus
//!   `p50`/`p90`/`p99` gauges), so percentile histories fall out for free.
//!
//! Every series is a fixed-capacity ring (same wraparound discipline as the
//! [`FlightRecorder`](crate::FlightRecorder)): the newest `capacity` points
//! survive, the rest age out. [`TimeSeriesStore::to_json_lines`] exports
//! everything retained as JSONL for post-mortem diffing against the WAL.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use rtdls_core::prelude::SimTime;

use crate::{MetricKind, MetricsRegistry};

/// Sampling knobs for a [`TimeSeriesStore`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistoryConfig {
    /// Points retained per series ring.
    pub capacity: usize,
    /// Minimum sim-seconds between samples ([`TimeSeriesStore::sample`]
    /// calls inside the cadence window are no-ops).
    pub cadence: f64,
}

impl Default for HistoryConfig {
    fn default() -> Self {
        HistoryConfig {
            capacity: 240,
            cadence: 1.0,
        }
    }
}

/// One retained sample of one series.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Gateway clock at sample time.
    pub at: SimTime,
    /// Gauge level, or counter delta over the preceding interval.
    pub value: f64,
}

/// Fixed-capacity ring of [`SeriesPoint`]s plus the counter-delta state.
#[derive(Clone, Debug)]
struct SeriesRing {
    slots: Vec<Option<SeriesPoint>>,
    head: usize,
    pushed: u64,
    /// Last raw value seen (counters diff against this).
    last_raw: f64,
}

impl SeriesRing {
    fn new(capacity: usize) -> Self {
        SeriesRing {
            slots: vec![None; capacity.max(1)],
            head: 0,
            pushed: 0,
            last_raw: 0.0,
        }
    }

    fn push(&mut self, point: SeriesPoint) {
        self.slots[self.head] = Some(point);
        self.head = (self.head + 1) % self.slots.len();
        self.pushed += 1;
    }

    /// Retained points, oldest → newest.
    fn points(&self) -> Vec<SeriesPoint> {
        let cap = self.slots.len();
        let mut out = Vec::new();
        for i in 0..cap {
            if let Some(p) = self.slots[(self.head + i) % cap] {
                out.push(p);
            }
        }
        out
    }
}

/// Renders a flattened sample's series key: `name{label=value,...}`.
fn series_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", parts.join(","))
}

/// The metrics-history store: one ring per series, cadence-gated sampling.
#[derive(Clone, Debug)]
pub struct TimeSeriesStore {
    cfg: HistoryConfig,
    series: BTreeMap<String, SeriesRing>,
    last_sample: Option<SimTime>,
    samples_taken: u64,
}

impl TimeSeriesStore {
    /// An empty store with the given sizing.
    pub fn new(cfg: HistoryConfig) -> Self {
        TimeSeriesStore {
            cfg,
            series: BTreeMap::new(),
            last_sample: None,
            samples_taken: 0,
        }
    }

    /// An empty store with default sizing.
    pub fn with_defaults() -> Self {
        TimeSeriesStore::new(HistoryConfig::default())
    }

    /// The store's sizing knobs.
    pub fn config(&self) -> HistoryConfig {
        self.cfg
    }

    /// Whether the cadence window has elapsed (always true before the
    /// first sample).
    pub fn due(&self, now: SimTime) -> bool {
        self.last_sample
            .is_none_or(|t| now.as_f64() - t.as_f64() >= self.cfg.cadence)
    }

    /// Folds one registry snapshot into the rings if the cadence window
    /// has elapsed; returns whether a sample was taken.
    pub fn sample(&mut self, now: SimTime, reg: &MetricsRegistry) -> bool {
        if !self.due(now) {
            return false;
        }
        for s in reg.flatten() {
            let key = series_key(&s.name, &s.labels);
            let capacity = self.cfg.capacity;
            let ring = self
                .series
                .entry(key)
                .or_insert_with(|| SeriesRing::new(capacity));
            let value = match s.kind {
                MetricKind::Gauge => s.value,
                // First sight of a counter has nothing to diff against;
                // record a zero delta rather than a since-boot spike.
                MetricKind::Counter if ring.pushed == 0 => {
                    ring.last_raw = s.value;
                    0.0
                }
                MetricKind::Counter => {
                    let delta = (s.value - ring.last_raw).max(0.0);
                    ring.last_raw = s.value;
                    delta
                }
            };
            ring.push(SeriesPoint { at: now, value });
        }
        self.last_sample = Some(now);
        self.samples_taken += 1;
        true
    }

    /// Samples taken so far (cadence-gated calls that fired).
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Every series name retained, sorted.
    pub fn series_names(&self) -> Vec<String> {
        self.series.keys().cloned().collect()
    }

    /// Retained points of `series`, oldest → newest (empty for unknown
    /// series).
    pub fn points(&self, series: &str) -> Vec<SeriesPoint> {
        self.series
            .get(series)
            .map(|r| r.points())
            .unwrap_or_default()
    }

    /// Retained points of `series` no older than `range` sim-seconds
    /// before `now` (`range <= 0` = everything retained), oldest → newest.
    pub fn points_in_range(&self, series: &str, now: SimTime, range: f64) -> Vec<SeriesPoint> {
        let mut points = self.points(series);
        if range > 0.0 {
            let since = now.as_f64() - range;
            points.retain(|p| p.at.as_f64() >= since);
        }
        points
    }

    /// JSONL export: one `{"series":…,"at":…,"value":…}` object per
    /// retained point, series-sorted then time-ordered — the post-mortem
    /// artifact to diff against the WAL.
    pub fn to_json_lines(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, ring) in &self.series {
            for p in ring.points() {
                let _ = writeln!(
                    out,
                    "{{\"series\":\"{name}\",\"at\":{},\"value\":{}}}",
                    p.at.as_f64(),
                    p.value
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(counter: u64, gauge: f64) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter("rtdls_edge_submits", &[], counter);
        reg.gauge("rtdls_edge_pending", &[], gauge);
        reg
    }

    #[test]
    fn cadence_gates_sampling() {
        let mut store = TimeSeriesStore::new(HistoryConfig {
            capacity: 8,
            cadence: 10.0,
        });
        assert!(store.due(SimTime::ZERO));
        assert!(store.sample(SimTime::ZERO, &reg(0, 0.0)));
        assert!(
            !store.sample(SimTime::new(5.0), &reg(1, 1.0)),
            "inside window"
        );
        assert!(store.sample(SimTime::new(10.0), &reg(2, 2.0)));
        assert_eq!(store.samples_taken(), 2);
        assert_eq!(store.points("rtdls_edge_pending").len(), 2);
    }

    #[test]
    fn counters_record_deltas_and_gauges_record_levels() {
        let mut store = TimeSeriesStore::new(HistoryConfig {
            capacity: 8,
            cadence: 1.0,
        });
        store.sample(SimTime::new(0.0), &reg(100, 3.0));
        store.sample(SimTime::new(1.0), &reg(107, 5.0));
        store.sample(SimTime::new(2.0), &reg(107, 4.0));
        let deltas: Vec<f64> = store
            .points("rtdls_edge_submits")
            .iter()
            .map(|p| p.value)
            .collect();
        assert_eq!(deltas, vec![0.0, 7.0, 0.0], "first sight is 0, then deltas");
        let levels: Vec<f64> = store
            .points("rtdls_edge_pending")
            .iter()
            .map(|p| p.value)
            .collect();
        assert_eq!(levels, vec![3.0, 5.0, 4.0]);
    }

    #[test]
    fn ring_wraparound_keeps_newest_in_order() {
        let mut store = TimeSeriesStore::new(HistoryConfig {
            capacity: 3,
            cadence: 1.0,
        });
        for t in 0..7 {
            let mut r = MetricsRegistry::new();
            r.gauge("g", &[], t as f64);
            store.sample(SimTime::new(t as f64), &r);
        }
        let pts = store.points("g");
        assert_eq!(pts.len(), 3, "capacity bounds the ring");
        let values: Vec<f64> = pts.iter().map(|p| p.value).collect();
        assert_eq!(values, vec![4.0, 5.0, 6.0], "newest three, oldest first");
        assert!(pts.windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn labeled_series_get_distinct_keys() {
        let mut store = TimeSeriesStore::with_defaults();
        let mut r = MetricsRegistry::new();
        r.counter("c", &[("shard", "0")], 1);
        r.counter("c", &[("shard", "1")], 2);
        store.sample(SimTime::ZERO, &r);
        assert_eq!(
            store.series_names(),
            vec!["c{shard=0}".to_string(), "c{shard=1}".to_string()]
        );
    }

    #[test]
    fn histogram_percentiles_become_series() {
        let mut store = TimeSeriesStore::with_defaults();
        let mut r = MetricsRegistry::new();
        r.histogram("lat", &[], vec![(10, 9), (100, 1)], 10, 19.0);
        store.sample(SimTime::ZERO, &r);
        let names = store.series_names();
        assert!(names.contains(&"lat_p99".to_string()), "{names:?}");
        assert_eq!(store.points("lat_p99")[0].value, 100.0);
        assert_eq!(
            store.points("lat_count")[0].value,
            0.0,
            "count is a counter: first sight records a zero delta"
        );
    }

    #[test]
    fn range_query_and_jsonl_export() {
        let mut store = TimeSeriesStore::new(HistoryConfig {
            capacity: 16,
            cadence: 1.0,
        });
        for t in 0..5 {
            let mut r = MetricsRegistry::new();
            r.gauge("g", &[], t as f64);
            store.sample(SimTime::new(t as f64), &r);
        }
        let recent = store.points_in_range("g", SimTime::new(4.0), 2.0);
        assert_eq!(recent.len(), 3, "points at t=2,3,4");
        assert_eq!(recent[0].at, SimTime::new(2.0));
        let all = store.points_in_range("g", SimTime::new(4.0), 0.0);
        assert_eq!(all.len(), 5);

        let jsonl = store.to_json_lines();
        assert_eq!(jsonl.lines().count(), 5);
        assert!(jsonl.lines().all(|l| l.starts_with("{\"series\":\"g\"")));
    }

    #[test]
    fn series_point_round_trips_through_serde() {
        let p = SeriesPoint {
            at: SimTime::new(2.5),
            value: 7.0,
        };
        let back: SeriesPoint = serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        assert_eq!(back, p);
    }
}
