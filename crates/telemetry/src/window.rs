//! Sim-time rolling windows: the bucketed good/bad event rings the SLO
//! tracker evaluates burn rates over.
//!
//! A [`RollingWindow`] covers the last `span` sim-time units with a fixed
//! number of equal-width buckets. Recording an event stamps the bucket the
//! current sim-time falls into (resetting it first if it still holds data
//! from a previous rotation) and reads the window's totals back, so the
//! structure is O(buckets) memory, costs one epoch, one bucket stamp and one
//! pass over the buckets per event, and is fully deterministic — the same
//! event sequence at the same sim-times produces the same window regardless
//! of wall clock, engine, or replay. That determinism is what lets SLO state
//! live inside durable gateway snapshots (see `rtdls-service`'s tracker)
//! without breaking the journal layer's byte-identical-snapshot guarantees.

use serde::{Deserialize, Serialize};

/// One bucket of a [`RollingWindow`]: the rotation epoch it was last
/// stamped for, plus its good/bad event counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowBucket {
    /// `floor(now / bucket_width)` at the last stamp; a bucket whose epoch
    /// has fallen out of the window contributes nothing.
    pub epoch: u64,
    /// Events recorded as meeting the objective.
    pub good: u64,
    /// Events recorded as violating the objective.
    pub bad: u64,
}

/// A fixed-span, fixed-bucket-count rolling counter pair over sim time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RollingWindow {
    /// Window span in sim-time units.
    span: f64,
    /// The ring, indexed by `epoch % buckets.len()`.
    buckets: Vec<WindowBucket>,
}

impl RollingWindow {
    /// A window covering the last `span` sim-time units in `buckets`
    /// equal slices. `span` must be positive; `buckets` at least 1.
    pub fn new(span: f64, buckets: usize) -> Self {
        assert!(
            span.is_finite() && span > 0.0,
            "window span must be finite and > 0, got {span}"
        );
        RollingWindow {
            span,
            buckets: vec![WindowBucket::default(); buckets.max(1)],
        }
    }

    fn width(&self) -> f64 {
        self.span / self.buckets.len() as f64
    }

    fn epoch_at(&self, now: f64) -> u64 {
        let e = (now.max(0.0) / self.width()).floor();
        if e >= u64::MAX as f64 {
            u64::MAX
        } else {
            e as u64
        }
    }

    /// Records one event at sim-time `now` and returns the window's
    /// `(good, bad)` totals at `now` with it counted — what
    /// [`totals`](Self::totals) would read next, on the same epoch.
    pub fn record(&mut self, now: f64, good: bool) -> (u64, u64) {
        let epoch = self.epoch_at(now);
        let n = self.buckets.len() as u64;
        let slot = (epoch % n) as usize;
        let bucket = &mut self.buckets[slot];
        if bucket.epoch != epoch {
            *bucket = WindowBucket {
                epoch,
                good: 0,
                bad: 0,
            };
        }
        if good {
            bucket.good += 1;
        } else {
            bucket.bad += 1;
        }
        self.totals_at(epoch)
    }

    /// `(good, bad)` totals over the window ending at sim-time `now`:
    /// buckets whose epoch lies within the last `buckets.len()` rotations.
    pub fn totals(&self, now: f64) -> (u64, u64) {
        self.totals_at(self.epoch_at(now))
    }

    fn totals_at(&self, current: u64) -> (u64, u64) {
        let oldest = current.saturating_sub(self.buckets.len() as u64 - 1);
        self.buckets
            .iter()
            .filter(|b| b.epoch >= oldest && b.epoch <= current)
            .fold((0, 0), |(g, bd), b| (g + b.good, bd + b.bad))
    }

    /// Fraction of in-window events that were bad (0 when empty).
    pub fn bad_rate(&self, now: f64) -> f64 {
        let (good, bad) = self.totals(now);
        bad as f64 / (good + bad).max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_roll_out_after_the_span() {
        let mut w = RollingWindow::new(10.0, 5);
        assert_eq!(w.record(0.5, false), (0, 1));
        assert_eq!(w.record(1.5, true), (1, 1));
        assert_eq!(w.totals(2.0), (1, 1));
        assert_eq!(w.bad_rate(2.0), 0.5);
        // 10 units later the early events have rotated out.
        assert_eq!(w.totals(12.0), (0, 0));
        assert_eq!(w.bad_rate(12.0), 0.0);
    }

    #[test]
    fn stale_bucket_resets_on_rotation() {
        let mut w = RollingWindow::new(10.0, 5);
        w.record(1.0, false); // epoch 0
        assert_eq!(w.record(21.0, true), (1, 0)); // epoch 10 → same slot, must reset
        assert_eq!(w.totals(21.0), (1, 0));
    }

    #[test]
    fn partial_expiry_keeps_recent_buckets() {
        let mut w = RollingWindow::new(10.0, 5);
        w.record(1.0, false); // epoch 0
        w.record(9.0, false); // epoch 4
                              // At t=11 (epoch 5) the window covers epochs 1..=5: only the
                              // second event remains.
        assert_eq!(w.totals(11.0), (0, 1));
    }

    #[test]
    fn determinism_and_serde_round_trip() {
        let mut a = RollingWindow::new(60.0, 6);
        let mut b = RollingWindow::new(60.0, 6);
        for i in 0..100 {
            let now = i as f64 * 0.7;
            let good = i % 3 != 0;
            a.record(now, good);
            b.record(now, good);
        }
        assert_eq!(a, b);
        let json = serde_json::to_string(&a).unwrap();
        let back: RollingWindow = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.bad_rate(70.0), a.bad_rate(70.0));
    }

    #[test]
    fn negative_and_huge_times_are_clamped() {
        let mut w = RollingWindow::new(10.0, 4);
        w.record(-5.0, false); // clamps to epoch 0
        assert_eq!(w.totals(0.0), (0, 1));
        w.record(f64::MAX, true); // saturates, no panic
        assert_eq!(w.totals(f64::MAX).0, 1);
    }
}
