//! The span recorder behind `--trace 1`.
//!
//! Spans are recorded from the benchmark's own files, around the calls the
//! harness makes into each layer: name, start, end, the span that was open
//! when it began (its parent), and the op index it belongs to. They stay in
//! memory and are written out once, at exit. Every recorder also keeps a
//! running total per span name, so layer times cover the whole traced run
//! even though only the first [`SPAN_CAP`] spans are kept.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per recorder; later spans only feed the per-name totals.
pub const SPAN_CAP: usize = 20_000;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

/// Count and total duration of every span of one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
}

impl NameTotal {
    /// Mean span duration in microseconds (0 when none were recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Total duration in microseconds.
    pub fn total_us(&self) -> f64 {
        self.total_ns as f64 / 1e3
    }
}

/// An open span, closed with [`Recorder::close`].
#[derive(Clone, Copy)]
pub struct Open {
    name: &'static str,
    start: Instant,
    index: u32,
    op: u32,
}

/// A single-threaded span recorder. A disabled recorder takes no clock
/// readings, so untraced runs pay one branch per call site.
pub struct Recorder {
    enabled: bool,
    /// Which stack (rung or thread) the spans came from.
    pub thread: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    /// Index of the innermost open span that was kept.
    stack: Vec<u32>,
    totals: BTreeMap<&'static str, NameTotal>,
}

impl Recorder {
    pub fn new(thread: &'static str, origin: Instant, enabled: bool) -> Self {
        Recorder {
            enabled,
            thread,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn disabled() -> Self {
        Recorder::new("off", Instant::now(), false)
    }

    /// Opens a span; `None` when recording is off.
    #[inline]
    pub fn open(&mut self, name: &'static str, op: u32) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let index = if self.spans.len() < SPAN_CAP {
            let index = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied().unwrap_or(NO_PARENT),
                op,
            });
            self.stack.push(index);
            index
        } else {
            NO_PARENT
        };
        Some(Open {
            name,
            start: Instant::now(),
            index,
            op,
        })
    }

    /// Closes a span opened on this recorder.
    #[inline]
    pub fn close(&mut self, open: Option<Open>) {
        let Some(open) = open else { return };
        let end = Instant::now();
        let total = self.totals.entry(open.name).or_default();
        total.count += 1;
        total.total_ns += (end - open.start).as_nanos() as u64;
        if open.index != NO_PARENT {
            let span = &mut self.spans[open.index as usize];
            span.start_ns = (open.start - self.origin).as_nanos() as u64;
            span.end_ns = (end - self.origin).as_nanos() as u64;
            debug_assert_eq!(span.op, open.op);
            self.stack.pop();
        }
    }

    /// Totals of every span of `name`.
    pub fn total(&self, name: &str) -> NameTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }
}

/// Renders recorders as one JSON document: per recorder its name, the
/// per-name totals, and the kept spans.
pub fn render_json(workload: &str, recorders: &[&Recorder]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"workload\":\"{workload}\",\"recorders\":[");
    for (i, rec) in recorders.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"thread\":\"{}\",\"totals\":{{", rec.thread);
        for (j, (name, total)) in rec.totals.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"total_ns\":{}}}",
                total.count, total.total_ns
            );
        }
        out.push_str("},\"spans\":[");
        for (j, s) in rec.spans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total() {
        let mut rec = Recorder::new("t", Instant::now(), true);
        let outer = rec.open("turn", 0);
        let inner = rec.open("decide", 0);
        rec.close(inner);
        rec.close(outer);
        assert_eq!(rec.total("decide").count, 1);
        assert_eq!(rec.spans[1].parent, 0);
        assert_eq!(rec.spans[0].parent, NO_PARENT);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        let json = render_json("w", &[&rec]);
        assert!(json.contains("\"name\":\"decide\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::disabled();
        let s = rec.open("x", 0);
        assert!(s.is_none());
        rec.close(s);
        assert_eq!(rec.total("x").count, 0);
    }
}
