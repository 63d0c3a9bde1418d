//! The [`FlightRecorder`]: a fixed-capacity ring of recent [`Span`]s.
//!
//! The recorder is the in-memory black box: every traced stage lands here,
//! the newest spans overwrite the oldest once the ring is full, and the
//! whole thing can be dumped when something goes wrong (protocol violation,
//! slow-consumer eviction, crash recovery). The telemetry handle keeps one
//! ring and numbers each span by its push (`seq`), so the ring's order is
//! the total order of every span recorded.

use crate::span::Span;

/// Fixed-capacity span ring buffer; wraparound keeps the newest spans.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    slots: Vec<Option<Span>>,
    /// Next slot to write (wraps modulo capacity).
    head: usize,
    /// Total spans ever pushed (≥ number retained).
    pushed: u64,
}

impl FlightRecorder {
    /// Creates a recorder retaining at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: vec![None; capacity],
            head: 0,
            pushed: 0,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of spans currently retained.
    pub fn len(&self) -> usize {
        (self.pushed as usize).min(self.slots.len())
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Total spans ever pushed (including ones the ring has since dropped).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Records one span, evicting the oldest when full.
    pub fn push(&mut self, span: Span) {
        let cap = self.slots.len();
        self.slots[self.head] = Some(span);
        self.head = (self.head + 1) % cap;
        self.pushed += 1;
    }

    /// Iterates retained spans oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        let cap = self.slots.len();
        let start = if (self.pushed as usize) < cap {
            0
        } else {
            self.head
        };
        (0..self.len()).filter_map(move |i| self.slots[(start + i) % cap].as_ref())
    }

    /// All retained spans belonging to `trace`, oldest → newest.
    pub fn trace(&self, trace: u64) -> Vec<Span> {
        self.iter().filter(|s| s.trace == trace).cloned().collect()
    }

    /// The newest `n` retained spans, oldest → newest.
    pub fn recent(&self, n: usize) -> Vec<Span> {
        let len = self.len();
        self.iter().skip(len.saturating_sub(n)).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Stage;
    use rtdls_core::prelude::SimTime;

    fn span(seq: u64) -> Span {
        Span {
            trace: seq % 3,
            seq,
            stage: Stage::Plan,
            shard: None,
            task: seq,
            outcome: "Accepted".to_string(),
            at: SimTime::new(seq as f64),
            duration_ns: 1,
        }
    }

    #[test]
    fn wraparound_keeps_the_newest_spans() {
        let mut r = FlightRecorder::new(4);
        for seq in 0..10 {
            r.push(span(seq));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.pushed(), 10);
        let seqs: Vec<u64> = r.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn partial_fill_iterates_in_push_order() {
        let mut r = FlightRecorder::new(8);
        for seq in 0..3 {
            r.push(span(seq));
        }
        let seqs: Vec<u64> = r.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert!(!r.is_empty());
        assert_eq!(r.capacity(), 8);
    }

    #[test]
    fn trace_filters_and_recent_truncates() {
        let mut r = FlightRecorder::new(16);
        for seq in 0..9 {
            r.push(span(seq));
        }
        let t0: Vec<u64> = r.trace(0).iter().map(|s| s.seq).collect();
        assert_eq!(t0, vec![0, 3, 6]);
        let last2: Vec<u64> = r.recent(2).iter().map(|s| s.seq).collect();
        assert_eq!(last2, vec![7, 8]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = FlightRecorder::new(0);
        r.push(span(0));
        r.push(span(1));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().seq, 1);
    }
}
