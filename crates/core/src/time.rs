//! Simulation time.
//!
//! The paper works in abstract "time units" (`Cms`/`Cps` are unit costs, the
//! total simulation horizon is `10^7` units). Time is therefore a continuous
//! quantity; we represent it as a finite, non-NaN `f64` wrapped in [`SimTime`]
//! so it can carry a total order (usable as a `BinaryHeap` key) and so the
//! non-NaN invariant is enforced at construction instead of at every use.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// Absolute tolerance used by the epsilon-aware comparison helpers.
///
/// Deadline checks and dispatch-due checks compare times that were produced by
/// chains of floating-point operations (partition fractions, serialized
/// transmission starts); a strict `>` would reject tasks on 1-ulp noise.
/// The paper's scales (unit costs `1..=10^4`, horizon `10^7`) keep absolute
/// errors far below this threshold.
pub const TIME_EPS: f64 = 1e-6;

/// A point in simulation time (also used for durations).
///
/// Invariant: the wrapped value is finite except for the distinguished
/// [`SimTime::FAR_FUTURE`], which is `f64::INFINITY` and usable as "never".
/// NaN is rejected at construction, making the `Ord` implementation total.
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
#[serde(transparent)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0.0);
    /// A time later than any event; used as "no deadline" / "never".
    pub const FAR_FUTURE: SimTime = SimTime(f64::INFINITY);

    /// Wraps a raw value. Panics on NaN (programming error, not input error).
    #[inline]
    pub fn new(t: f64) -> Self {
        assert!(!t.is_nan(), "SimTime cannot be NaN");
        SimTime(t)
    }

    /// The raw value in time units.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// `self > other` beyond floating-point noise ([`TIME_EPS`]).
    ///
    /// Used for deadline-miss checks: a completion estimate equal to the
    /// deadline up to rounding is a *meet*, not a miss.
    #[inline]
    pub fn definitely_after(self, other: SimTime) -> bool {
        self.0 > other.0 + TIME_EPS
    }

    /// `self ≤ other` up to floating-point noise ([`TIME_EPS`]).
    #[inline]
    pub fn at_or_before_eps(self, other: SimTime) -> bool {
        self.0 <= other.0 + TIME_EPS
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Total by construction: NaN is rejected in `new` and all arithmetic
        // goes through `new`.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime::new(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::new(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl From<f64> for SimTime {
    #[inline]
    fn from(t: f64) -> Self {
        SimTime::new(t)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{:.6}", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_sane() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(SimTime::FAR_FUTURE > b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn arithmetic_round_trips() {
        let a = SimTime::new(3.5);
        let d = SimTime::new(1.25);
        assert_eq!((a + d).as_f64(), 4.75);
        assert_eq!((a - d).as_f64(), 2.25);
        let mut m = a;
        m += d;
        m -= d;
        assert_eq!(m, a);
    }

    #[test]
    fn epsilon_comparisons_absorb_noise() {
        let d = SimTime::new(100.0);
        let just_over = SimTime::new(100.0 + TIME_EPS / 2.0);
        let clearly_over = SimTime::new(100.0 + 1.0);
        assert!(!just_over.definitely_after(d));
        assert!(clearly_over.definitely_after(d));
        assert!(just_over.at_or_before_eps(d));
        assert!(!clearly_over.at_or_before_eps(d));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_is_rejected() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }
}
