//! rtdls-telemetry: the observability substrate for the rtdls stack.
//!
//! Hand-rolled for the offline build (no `tracing` / `prometheus`
//! dependencies), this crate provides the pieces every layer reports
//! into:
//!
//! * **Decision tracing** — a trace id minted at the ingress point rides the
//!   [`SubmitRequest`](rtdls_core::request::SubmitRequest) envelope through
//!   edge framing, gateway routing, engine planning, journal append, and the
//!   defer/reservation lifecycle; each stage records a [`Span`] into one
//!   [`FlightRecorder`] ring, and the full timeline is reconstructable by
//!   trace id.
//! * **Phase timings** — hierarchical hot-path phases (`edge/drive`,
//!   `gateway/plan`, `journal/fsync`, …) summed into log₂ histograms beside
//!   the ring ([`Telemetry::phase`]); where a span and a phase time the same
//!   call, one clock reading feeds both.
//! * **A unified [`MetricsRegistry`]** — counters/gauges/histograms by
//!   name+labels that the layers' native stats fold into, with
//!   Prometheus-text and JSON-lines exposition.
//! * **The [`Telemetry`] handle** — a cheaply cloneable
//!   recording handle for spans and phases alike. [`Telemetry::disabled`]
//!   is the default everywhere: the zero-telemetry path is one `Option`
//!   check, no allocation, no lock.
//!
//! The recorder is dumped automatically (by the owning layer) on protocol
//! violations, slow-consumer evictions, and crash recovery — the in-memory
//! black box for the incidents that matter.

mod histogram;
mod history;
mod phase;
mod recorder;
mod registry;
mod span;
mod window;

pub use histogram::LatencyHistogram;
pub use history::{HistoryConfig, SeriesPoint, TimeSeriesStore};
pub use phase::{render_tree, PhaseProfile};
pub use recorder::FlightRecorder;
pub use registry::{HistogramSample, MetricKind, MetricSample, MetricsRegistry};
pub use span::{Span, Stage};
pub use window::{RollingWindow, WindowBucket};

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rtdls_core::prelude::SimTime;

use phase::PhaseTable;

/// Sizing and behavior knobs for an enabled [`Telemetry`] handle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TelemetryConfig {
    /// Spans retained by the flight recorder.
    pub recorder_capacity: usize,
    /// Maximum task→trace associations remembered for lifecycle stages
    /// (activation/resolution) that only know the task id; oldest entries
    /// are evicted first.
    pub trace_map_capacity: usize,
    /// Newest spans rendered by [`Telemetry::dump`].
    pub dump_recent: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            recorder_capacity: 8 * 1024,
            trace_map_capacity: 4096,
            dump_recent: 32,
        }
    }
}

/// Bounded insertion-ordered task→trace map.
#[derive(Debug, Default)]
struct TraceMap {
    by_task: HashMap<u64, u64>,
    order: VecDeque<u64>,
}

impl TraceMap {
    fn remember(&mut self, task: u64, trace: u64, cap: usize) {
        if self.by_task.insert(task, trace).is_none() {
            self.order.push_back(task);
            while self.order.len() > cap.max(1) {
                if let Some(old) = self.order.pop_front() {
                    self.by_task.remove(&old);
                }
            }
        }
    }

    fn forget(&mut self, task: u64) {
        if self.by_task.remove(&task).is_some() {
            self.order.retain(|&t| t != task);
        }
    }
}

#[derive(Debug)]
struct Inner {
    cfg: TelemetryConfig,
    next_trace: AtomicU64,
    recorder: Mutex<FlightRecorder>,
    phases: Mutex<PhaseTable>,
    traces: Mutex<TraceMap>,
}

/// The recording handle threaded through the stack.
///
/// Cloning is cheap (an `Arc` bump); all clones share one recorder, one
/// phase table and one trace-mint counter. A span carries the shard its
/// call site passes ([`Telemetry::record`]). The [`Default`] handle is
/// disabled: every recording method is a no-op costing one `Option` check.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The zero-cost disabled handle (the default everywhere).
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// An enabled handle with the given sizing.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                cfg,
                next_trace: AtomicU64::new(1),
                recorder: Mutex::new(FlightRecorder::new(cfg.recorder_capacity)),
                phases: Mutex::new(PhaseTable::default()),
                traces: Mutex::new(TraceMap::default()),
            })),
        }
    }

    /// An enabled handle with default sizing.
    pub fn with_defaults() -> Self {
        Telemetry::new(TelemetryConfig::default())
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances the trace-mint counter to at least `next`. Used when this
    /// recorder ingests traces minted by *another process* (a follower
    /// replaying shipped frames): ids minted locally after promotion must
    /// never collide with the ingested ones, or two requests' timelines
    /// would merge under one id.
    pub fn reserve_traces(&self, next: u64) {
        if let Some(inner) = &self.inner {
            inner.next_trace.fetch_max(next, Ordering::Relaxed);
        }
    }

    /// Mints a fresh nonzero trace id (`0` when disabled — the untraced
    /// sentinel, never recorded against).
    pub fn mint(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.next_trace.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Starts a stage or phase timer; `None` when disabled, so the
    /// zero-telemetry path never touches the clock.
    pub fn timer(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Nanoseconds elapsed on a [`Telemetry::timer`] start (0 for `None`).
    pub fn elapsed_ns(started: Option<Instant>) -> u64 {
        started
            .map(|t| t.elapsed().as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0)
    }

    /// Ends a phase timer started with [`Telemetry::timer`]: adds the
    /// elapsed nanoseconds to `path`'s histogram and returns them, so a
    /// span timing the same call can carry the same reading
    /// ([`Telemetry::record_ns`]). Returns 0 and records nothing for `None`.
    pub fn phase(&self, path: &'static str, started: Option<Instant>) -> u64 {
        let ns = Self::elapsed_ns(started);
        if let (Some(inner), Some(_)) = (&self.inner, started) {
            if let Ok(mut phases) = inner.phases.lock() {
                phases.record(path, ns);
            }
        }
        ns
    }

    /// A path-sorted summary of every phase timed so far (empty when
    /// disabled).
    pub fn phases(&self) -> Vec<PhaseProfile> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .phases
            .lock()
            .map(|p| p.profiles())
            .unwrap_or_default()
    }

    /// Folds every phase into `reg` as an `rtdls_profile_ns` histogram
    /// labeled `phase=<path>`. No-op when disabled.
    pub fn fold_phases(&self, reg: &mut MetricsRegistry) {
        let Some(inner) = &self.inner else { return };
        if let Ok(phases) = inner.phases.lock() {
            phases.fold(reg);
        }
    }

    /// Records one span. No-op when disabled.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        trace: u64,
        stage: Stage,
        shard: Option<u32>,
        task: u64,
        outcome: &str,
        at: SimTime,
        started: Option<Instant>,
    ) {
        self.record_ns(
            trace,
            stage,
            shard,
            task,
            outcome,
            at,
            Self::elapsed_ns(started),
        );
    }

    /// Records one span with an explicit duration — for stages whose work
    /// is split around other instrumented work (e.g. the journal's
    /// write-ahead append and its post-decision audit append are one
    /// logical stage interrupted by the decision itself). No-op when
    /// disabled.
    #[allow(clippy::too_many_arguments)]
    pub fn record_ns(
        &self,
        trace: u64,
        stage: Stage,
        shard: Option<u32>,
        task: u64,
        outcome: &str,
        at: SimTime,
        duration_ns: u64,
    ) {
        let Some(inner) = &self.inner else { return };
        let mut span = Span {
            trace,
            seq: 0,
            stage,
            shard,
            task,
            outcome: outcome.to_string(),
            at,
            duration_ns,
        };
        if let Ok(mut rec) = inner.recorder.lock() {
            span.seq = rec.pushed();
            rec.push(span);
        }
    }

    /// Associates `task` with `trace` so lifecycle stages that only see the
    /// task id (activation, resolution, pushed updates) can recover the
    /// trace. Bounded; oldest associations are evicted first.
    pub fn remember(&self, task: u64, trace: u64) {
        let Some(inner) = &self.inner else { return };
        if trace == 0 {
            return;
        }
        if let Ok(mut map) = inner.traces.lock() {
            map.remember(task, trace, inner.cfg.trace_map_capacity);
        }
    }

    /// The trace associated with `task`, if still remembered.
    pub fn trace_of(&self, task: u64) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        inner.traces.lock().ok()?.by_task.get(&task).copied()
    }

    /// Drops the association for `task` (terminal outcome delivered).
    pub fn forget(&self, task: u64) {
        let Some(inner) = &self.inner else { return };
        if let Ok(mut map) = inner.traces.lock() {
            map.forget(task);
        }
    }

    /// Runs `f` on the recorder (`default` when disabled).
    fn with_recorder<T>(&self, default: T, f: impl FnOnce(&FlightRecorder) -> T) -> T {
        match self.inner.as_ref().map(|inner| inner.recorder.lock()) {
            Some(Ok(rec)) => f(&rec),
            _ => default,
        }
    }

    /// Total spans ever recorded.
    pub fn spans_recorded(&self) -> u64 {
        self.with_recorder(0, FlightRecorder::pushed)
    }

    /// Reconstructs the full retained timeline of `trace`, ordered by the
    /// span sequence number (the ring's order).
    pub fn trace_spans(&self, trace: u64) -> Vec<Span> {
        self.with_recorder(Vec::new(), |rec| rec.trace(trace))
    }

    /// The newest retained spans, oldest → newest, at most `n`.
    pub fn recent_spans(&self, n: usize) -> Vec<Span> {
        self.with_recorder(Vec::new(), |rec| rec.recent(n))
    }

    /// Distinct trace ids among the newest spans, most recent first.
    pub fn recent_traces(&self, n: usize) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for span in self.recent_spans(n.saturating_mul(8).max(64)).iter().rev() {
            if span.trace != 0 && !out.contains(&span.trace) {
                out.push(span.trace);
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }

    /// Renders the newest spans as a flight-recorder dump, or `None` when
    /// disabled. Layers call this on protocol violations, slow-consumer
    /// evictions, and crash recovery.
    pub fn dump(&self, reason: &str) -> Option<String> {
        let inner = self.inner.as_ref()?;
        use std::fmt::Write;
        let spans = self.recent_spans(inner.cfg.dump_recent);
        let mut out = format!(
            "=== flight recorder dump: {reason} ({} span{}) ===\n",
            spans.len(),
            if spans.len() == 1 { "" } else { "s" }
        );
        for span in &spans {
            let _ = writeln!(out, "  {span}");
        }
        Some(out)
    }

    /// [`Telemetry::dump`] straight to stderr (the automatic-dump hook).
    pub fn dump_to_stderr(&self, reason: &str) {
        if let Some(text) = self.dump(reason) {
            eprintln!("{text}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: &Telemetry, trace: u64, stage: Stage, shard: Option<u32>, task: u64) {
        t.record(trace, stage, shard, task, "ok", SimTime::ZERO, None);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.mint(), 0);
        assert!(t.timer().is_none());
        rec(&t, 1, Stage::Plan, None, 5);
        assert_eq!(t.spans_recorded(), 0);
        assert!(t.trace_spans(1).is_empty());
        assert!(t.dump("x").is_none());
        t.remember(5, 1);
        assert_eq!(t.trace_of(5), None);
        assert_eq!(t.phase("edge/read", t.timer()), 0);
        assert!(t.phases().is_empty());
        let mut reg = MetricsRegistry::new();
        t.fold_phases(&mut reg);
        assert!(reg.histograms().is_empty());
    }

    #[test]
    fn a_phase_returns_the_reading_it_recorded() {
        let t = Telemetry::with_defaults();
        let started = t.timer();
        assert!(started.is_some());
        let ns = t.phase("ship/poll", started);
        assert_eq!(t.phase("ship/poll", None), 0, "no timer, no interval");
        let phases = t.phases();
        assert_eq!(phases.len(), 1);
        assert_eq!((phases[0].count, phases[0].total_ns), (1, ns));
        let mut reg = MetricsRegistry::new();
        t.fold_phases(&mut reg);
        assert_eq!(reg.histograms()[0].name, "rtdls_profile_ns");
    }

    #[test]
    fn mint_is_monotonic_and_nonzero() {
        let t = Telemetry::with_defaults();
        let a = t.mint();
        let b = t.mint();
        assert!(a >= 1);
        assert_eq!(b, a + 1);
    }

    #[test]
    fn trace_reconstruction_is_in_seq_order() {
        let t = Telemetry::with_defaults();
        let id = t.mint();
        rec(&t, id, Stage::EdgeReceive, None, 9);
        rec(&t, id, Stage::Route, Some(3), 9);
        rec(&t, 777, Stage::Plan, Some(1), 8); // unrelated trace
        rec(&t, id, Stage::Plan, Some(3), 9);
        let spans = t.trace_spans(id);
        let stages: Vec<Stage> = spans.iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec![Stage::EdgeReceive, Stage::Route, Stage::Plan]);
        assert!(spans.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn trace_map_is_bounded_and_forgettable() {
        let cfg = TelemetryConfig {
            trace_map_capacity: 2,
            ..TelemetryConfig::default()
        };
        let t = Telemetry::new(cfg);
        t.remember(1, 10);
        t.remember(2, 20);
        t.remember(3, 30); // evicts task 1
        assert_eq!(t.trace_of(1), None);
        assert_eq!(t.trace_of(2), Some(20));
        assert_eq!(t.trace_of(3), Some(30));
        t.forget(2);
        assert_eq!(t.trace_of(2), None);
    }

    #[test]
    fn recent_traces_are_most_recent_first_and_distinct() {
        let t = Telemetry::with_defaults();
        for trace in [5u64, 6, 5, 7] {
            rec(&t, trace, Stage::Plan, None, trace);
        }
        assert_eq!(t.recent_traces(10), vec![7, 5, 6]);
        assert_eq!(t.recent_traces(2), vec![7, 5]);
    }

    #[test]
    fn dump_renders_reason_and_spans() {
        let t = Telemetry::with_defaults();
        rec(&t, 4, Stage::JournalAppend, Some(0), 2);
        let text = t.dump("unit test").unwrap();
        assert!(text.contains("unit test"));
        assert!(text.contains("journal_append"));
    }
}
