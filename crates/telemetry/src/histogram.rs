//! The workspace's one histogram: log₂ buckets over nanoseconds.
//!
//! Bucket `i` holds samples in `[2^i, 2^(i+1))` ns (0 lands in bucket 0) and
//! reports `2^(i+1)` as its upper bound, so a quantile read off the bounds
//! is within 2× of the sample — plenty for latencies that span a branch and
//! a batch fsync on one scale. Gateway decision latencies (per tenant and
//! overall, process-local in `ServiceMetrics`) and every timed phase are
//! this type; [`quantile`] is the one walk over `(bound, count)` pairs,
//! which the registry's `HistogramSample` calls too. It is never
//! serialized: a latency measures one process's wall clock, and nothing
//! durable holds one.

use std::fmt;
use std::time::Duration;

const BUCKETS: usize = 64;

/// A log₂-bucketed latency histogram over nanoseconds (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

/// Upper bound of bucket `i` in nanoseconds.
fn bound(i: usize) -> u64 {
    1u64 << (i + 1).min(BUCKETS - 1)
}

/// Upper bucket bound below which fraction `q` (clamped to `[0, 1]`) of
/// `count` samples fall, over `(upper_bound, count_in_bucket)` pairs with
/// ascending bounds. 0 when `count` is 0; every quantile, `q = 0` included,
/// targets at least the first sample, never an empty bucket below it.
pub fn quantile(buckets: impl IntoIterator<Item = (u64, u64)>, count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    let mut last = 0;
    for (bound, n) in buckets {
        seen += n;
        last = bound;
        if seen >= target {
            break;
        }
    }
    last
}

impl LatencyHistogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one sample given in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[ns.max(1).ilog2() as usize] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        self.sum_ns as f64 / self.count.max(1) as f64
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Sum of all recorded samples in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.min(u64::MAX as u128) as u64
    }

    /// The occupied buckets as `(upper_bound_ns, count)` pairs, bounds
    /// ascending — the exposition shape the metrics registry ingests.
    pub fn occupied(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bound(i), n))
    }

    /// Upper bucket bound (ns) below which `q` of the samples fall
    /// (`q ∈ [0, 1]`; 0 when empty).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        quantile(self.occupied(), self.count, q)
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1}µs p50≤{:.1}µs p90≤{:.1}µs p99≤{:.1}µs max={:.1}µs",
            self.count,
            self.mean_ns() / 1e3,
            self.quantile_ns(0.50) as f64 / 1e3,
            self.quantile_ns(0.90) as f64 / 1e3,
            self.quantile_ns(0.99) as f64 / 1e3,
            self.max_ns as f64 / 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test for the one quantile routine: each case below was an
    /// assertion on one of the three bucketings this type replaced.
    #[test]
    fn quantiles_walk_bounds_for_every_former_bucketing() {
        // Gateway latencies: bounds bracket the samples within 2×.
        let mut h = LatencyHistogram::new();
        for us in [1u64, 2, 4, 8, 100, 1000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 6);
        assert!(h.mean_ns() > 0.0);
        let p50 = h.quantile_ns(0.5);
        assert!((4_000..=16_000).contains(&p50), "p50 {p50}");
        assert!(h.quantile_ns(1.0) >= h.max_ns());
        assert_eq!(h.max_ns(), 1_000_000);
        assert_eq!(LatencyHistogram::new().quantile_ns(0.99), 0);

        // Phases: a sample sits under the next power of two (an
        // exact power under the one after it), and the top bucket clamps.
        let bound_of = |ns| {
            let mut h = LatencyHistogram::new();
            h.record_ns(ns);
            h.quantile_ns(0.5)
        };
        assert_eq!(bound_of(0), 2);
        assert_eq!(bound_of(1), 2);
        assert_eq!(bound_of(63), 64);
        assert_eq!(bound_of(64), 128);
        assert_eq!(bound_of(65), 128);
        assert_eq!(bound_of(100_000), 131_072);
        assert_eq!(bound_of(u64::MAX), 1 << 63);
        let mut phase = LatencyHistogram::new();
        for _ in 0..90 {
            phase.record_ns(100);
        }
        for _ in 0..10 {
            phase.record_ns(100_000);
        }
        assert_eq!(phase.quantile_ns(0.50), 128);
        assert_eq!(phase.quantile_ns(0.90), 128);
        assert_eq!(phase.quantile_ns(0.99), 131_072);
        assert_eq!(
            phase.occupied().collect::<Vec<_>>(),
            [(128, 90), (131_072, 10)]
        );
        assert_eq!(phase.sum_ns(), 90 * 100 + 10 * 100_000);

        // Registry samples: arbitrary ascending bounds, empty buckets kept.
        let q = |buckets: &[(u64, u64)], count, q| quantile(buckets.iter().copied(), count, q);
        assert_eq!(q(&[(10, 90), (100, 9), (1000, 1)], 100, 0.50), 10);
        assert_eq!(q(&[(10, 90), (100, 9), (1000, 1)], 100, 0.90), 10);
        assert_eq!(q(&[(10, 90), (100, 9), (1000, 1)], 100, 0.99), 100);
        for at in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(q(&[(10, 0), (100, 0)], 0, at), 0, "empty, q={at}");
            assert_eq!(q(&[], 0, at), 0, "no buckets, q={at}");
        }
        // One sample, or all samples in one bucket: that bucket's bound at
        // every q — q = 0 still targets the first sample, never an empty
        // bucket below it — and an out-of-range q clamps.
        for n in [1, 50] {
            for at in [-1.0, 0.0, 0.01, 0.5, 0.9, 0.99, 1.0, 2.0] {
                assert_eq!(q(&[(10, 0), (100, n), (1000, 0)], n, at), 100, "q={at}");
            }
        }
        // A count the buckets do not add up to ends on the last bound.
        assert_eq!(q(&[(10, 1), (100, 1)], 5, 1.0), 100);
    }
}
