//! The unified [`MetricsRegistry`]: one surface for every counter, gauge,
//! and histogram in the stack.
//!
//! The registry is a *snapshot* container, not a live instrument: each layer
//! keeps its own native counters (`ServiceMetrics`, `TenantMetrics`,
//! `EdgeStats`, journal sink stats) and folds them in on demand via an
//! adapter (`fold_metrics` on the owning type). That keeps the hot path free
//! of registry locking and lets one poll render everything —
//! Prometheus-text via [`MetricsRegistry::to_prometheus`] or JSON-lines via
//! [`MetricsRegistry::to_json_lines`] — without the layers knowing about
//! each other.

use serde::{Deserialize, Serialize};

/// What a sample means (affects Prometheus `# TYPE` rendering).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time level.
    Gauge,
}

/// One scalar sample: name + labels + kind + value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Metric name (`snake_case`, no terminal `_total` — added on render).
    pub name: String,
    /// Label pairs, insertion-ordered.
    pub labels: Vec<(String, String)>,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// The value (counters are integral but travel as `f64`).
    pub value: f64,
}

/// One histogram: cumulative-style buckets plus count and sum.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Label pairs, insertion-ordered.
    pub labels: Vec<(String, String)>,
    /// `(upper_bound, count_in_bucket)` pairs, bounds ascending,
    /// *non*-cumulative counts (cumulated on render).
    pub buckets: Vec<(u64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

impl HistogramSample {
    /// Upper bucket bound below which fraction `q` of samples fall.
    pub fn quantile(&self, q: f64) -> u64 {
        crate::histogram::quantile(self.buckets.iter().copied(), self.count, q)
    }
}

/// Collected samples, ready for exposition.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    samples: Vec<MetricSample>,
    histograms: Vec<HistogramSample>,
}

fn labels_of(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl MetricsRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a counter sample.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.samples.push(MetricSample {
            name: name.to_string(),
            labels: labels_of(labels),
            kind: MetricKind::Counter,
            value: value as f64,
        });
    }

    /// Registers a gauge sample.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.samples.push(MetricSample {
            name: name.to_string(),
            labels: labels_of(labels),
            kind: MetricKind::Gauge,
            value,
        });
    }

    /// Registers a histogram from `(upper_bound, count)` buckets.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        buckets: Vec<(u64, u64)>,
        count: u64,
        sum: f64,
    ) {
        self.histograms.push(HistogramSample {
            name: name.to_string(),
            labels: labels_of(labels),
            buckets,
            count,
            sum,
        });
    }

    /// Scalar samples registered so far.
    pub fn samples(&self) -> &[MetricSample] {
        &self.samples
    }

    /// Histogram samples registered so far.
    pub fn histograms(&self) -> &[HistogramSample] {
        &self.histograms
    }

    /// Flattens everything into scalar samples; histograms become
    /// `{name}_count` / `{name}_sum` counters plus `p50`/`p90`/`p99`
    /// quantile gauges. This is the wire shape the ops channel ships.
    pub fn flatten(&self) -> Vec<MetricSample> {
        let mut out = self.samples.clone();
        for h in &self.histograms {
            let mut labeled = |suffix: &str, kind, value| {
                out.push(MetricSample {
                    name: format!("{}_{suffix}", h.name),
                    labels: h.labels.clone(),
                    kind,
                    value,
                });
            };
            labeled("count", MetricKind::Counter, h.count as f64);
            labeled("sum", MetricKind::Counter, h.sum);
            labeled("p50", MetricKind::Gauge, h.quantile(0.50) as f64);
            labeled("p90", MetricKind::Gauge, h.quantile(0.90) as f64);
            labeled("p99", MetricKind::Gauge, h.quantile(0.99) as f64);
        }
        out
    }

    /// Prometheus text exposition (v0.0.4 format).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut typed: Vec<&str> = Vec::new();
        for s in &self.samples {
            if !typed.contains(&s.name.as_str()) {
                typed.push(&s.name);
                let kind = match s.kind {
                    MetricKind::Counter => "counter",
                    MetricKind::Gauge => "gauge",
                };
                let _ = writeln!(out, "# TYPE {} {kind}", s.name);
            }
            let _ = writeln!(
                out,
                "{}{} {}",
                s.name,
                render_labels(&s.labels, None),
                s.value
            );
        }
        for h in &self.histograms {
            if !typed.contains(&h.name.as_str()) {
                typed.push(&h.name);
                let _ = writeln!(out, "# TYPE {} histogram", h.name);
            }
            let mut cum = 0u64;
            for &(bound, n) in &h.buckets {
                cum += n;
                let _ = writeln!(
                    out,
                    "{}_bucket{} {cum}",
                    h.name,
                    render_labels(&h.labels, Some(&bound.to_string()))
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                h.name,
                render_labels(&h.labels, Some("+Inf")),
                h.count
            );
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                h.name,
                render_labels(&h.labels, None),
                h.sum
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                h.name,
                render_labels(&h.labels, None),
                h.count
            );
        }
        out
    }

    /// JSON-lines exposition: one flattened sample object per line.
    pub fn to_json_lines(&self) -> String {
        self.flatten().iter().map(|s| s.to_json() + "\n").collect()
    }
}

impl MetricSample {
    /// The sample as one JSON object: name, then its labels as fields,
    /// then kind and value.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = format!("{{\"name\":\"{}\"", self.name);
        for (k, v) in &self.labels {
            let _ = write!(out, ",\"{k}\":\"{v}\"");
        }
        let kind = match self.kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        };
        let _ = write!(out, ",\"kind\":\"{kind}\",\"value\":{}}}", self.value);
        out
    }
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some(bound) = le {
        parts.push(format!("le=\"{bound}\""));
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_rendering_has_types_labels_and_cumulative_buckets() {
        let mut reg = MetricsRegistry::new();
        reg.counter("rtdls_submitted", &[("tenant", "7")], 42);
        reg.gauge("rtdls_pending", &[], 3.0);
        reg.histogram(
            "rtdls_plan_ns",
            &[("shard", "0")],
            vec![(100, 2), (1000, 3)],
            5,
            1234.0,
        );
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE rtdls_submitted counter"));
        assert!(text.contains("rtdls_submitted{tenant=\"7\"} 42"));
        assert!(text.contains("rtdls_pending 3"));
        assert!(text.contains("rtdls_plan_ns_bucket{shard=\"0\",le=\"100\"} 2"));
        assert!(text.contains("rtdls_plan_ns_bucket{shard=\"0\",le=\"1000\"} 5"));
        assert!(text.contains("rtdls_plan_ns_bucket{shard=\"0\",le=\"+Inf\"} 5"));
        assert!(text.contains("rtdls_plan_ns_count{shard=\"0\"} 5"));
    }

    #[test]
    fn flatten_derives_quantiles() {
        let mut reg = MetricsRegistry::new();
        reg.histogram("lat", &[], vec![(10, 90), (100, 9), (1000, 1)], 100, 0.0);
        let flat = reg.flatten();
        let get = |n: &str| flat.iter().find(|s| s.name == n).unwrap().value;
        assert_eq!(get("lat_count"), 100.0);
        assert_eq!(get("lat_p50"), 10.0);
        assert_eq!(get("lat_p90"), 10.0);
        assert_eq!(get("lat_p99"), 100.0);
    }

    #[test]
    fn samples_round_trip_through_serde() {
        let s = MetricSample {
            name: "x".to_string(),
            labels: vec![("a".to_string(), "b".to_string())],
            kind: MetricKind::Gauge,
            value: 1.5,
        };
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<MetricSample>(&json).unwrap(), s);
    }

    #[test]
    fn json_lines_is_one_object_per_line() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a", &[("k", "v")], 1);
        reg.gauge("b", &[], 2.0);
        let text = reg.to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"name\":\"a\",\"k\":\"v\""));
        assert!(lines[1].contains("\"kind\":\"gauge\""));
    }
}
