//! Service-level arrival processes.
//!
//! The paper's evaluation drives one cluster with a plain Poisson stream
//! ([`crate::generator::WorkloadGenerator`]). An online serving layer is
//! stressed differently: load arrives **open-loop** (the source does not
//! wait for admission verdicts) and in **bursts** — exactly the regime where
//! a gateway's Defer queue earns its keep.
//!
//! [`BurstyPoisson`] is a Markov-modulated Poisson process: the source
//! alternates between a *calm* phase at the spec's base rate and a *burst*
//! phase where the rate is multiplied by `burst_rate_factor`. Phase
//! durations are exponential. Task shapes (sizes, deadlines, user-split
//! requests) are drawn from the same paper model as the plain generator, so
//! gateway experiments stay comparable with the offline baselines.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use rtdls_core::prelude::Task;

use crate::distributions::Exponential;
use crate::generator::WorkloadGenerator;
use crate::spec::WorkloadSpec;

/// Shape of the on/off burst modulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstProfile {
    /// Rate multiplier during bursts (≥ 1; 1 degenerates to plain Poisson).
    pub rate_factor: f64,
    /// Mean burst-phase duration (time units).
    pub mean_burst: f64,
    /// Mean calm-phase duration (time units).
    pub mean_calm: f64,
}

impl BurstProfile {
    /// A profile that roughly triples the arrival rate one fifth of the
    /// time — enough pressure to exercise Defer without drowning the
    /// cluster.
    pub fn moderate(spec: &WorkloadSpec) -> Self {
        let scale = spec.mean_interarrival();
        BurstProfile {
            rate_factor: 3.0,
            mean_burst: 20.0 * scale,
            mean_calm: 80.0 * scale,
        }
    }

    fn validate(&self) {
        assert!(
            self.rate_factor.is_finite() && self.rate_factor >= 1.0,
            "burst rate factor must be >= 1, got {}",
            self.rate_factor
        );
        assert!(
            self.mean_burst > 0.0 && self.mean_calm > 0.0,
            "burst/calm phase means must be > 0"
        );
    }
}

/// Open-loop Markov-modulated Poisson task stream; implements [`Iterator`].
///
/// Deterministic per `(spec, profile, seed)`. Arrivals cover `[0,
/// spec.horizon)`; task ids are sequential from zero.
#[derive(Clone, Debug)]
pub struct BurstyPoisson {
    /// Draws task shapes (σ, D, user-split n) from the paper model; its own
    /// arrival clock is discarded and replaced by the modulated one.
    shapes: WorkloadGenerator,
    profile: BurstProfile,
    rng: SmallRng,
    horizon: f64,
    base_interarrival: Exponential,
    clock: f64,
    in_burst: bool,
    phase_ends: f64,
    exhausted: bool,
}

impl BurstyPoisson {
    /// Creates the stream. Panics on an invalid spec or profile.
    pub fn new(spec: WorkloadSpec, profile: BurstProfile, seed: u64) -> Self {
        profile.validate();
        spec.validate().expect("invalid workload spec");
        let base_interarrival = Exponential::new(spec.mean_interarrival());
        let horizon = spec.horizon;
        // The inner generator must never exhaust on its own clock; the
        // modulated clock owns termination.
        let mut inner_spec = spec;
        inner_spec.horizon = 1e300;
        // Separate phase/arrival stream from the shape stream so shapes stay
        // identical across burst profiles with the same seed.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6275_7273_7479_u64);
        let phase_ends = Exponential::new(profile.mean_calm).sample(&mut rng);
        BurstyPoisson {
            shapes: WorkloadGenerator::new(inner_spec, seed),
            profile,
            rng,
            horizon,
            base_interarrival,
            clock: 0.0,
            in_burst: false,
            phase_ends,
            exhausted: false,
        }
    }

    /// The underlying workload spec.
    pub fn spec(&self) -> &WorkloadSpec {
        self.shapes.spec()
    }

    fn advance_clock(&mut self) {
        loop {
            let rate_factor = if self.in_burst {
                self.profile.rate_factor
            } else {
                1.0
            };
            let gap = self.base_interarrival.sample(&mut self.rng) / rate_factor;
            if self.clock + gap <= self.phase_ends {
                self.clock += gap;
                return;
            }
            // Cross into the next phase and redraw the residual gap there
            // (memorylessness makes the redraw exact, not an approximation).
            self.clock = self.phase_ends;
            self.in_burst = !self.in_burst;
            let mean = if self.in_burst {
                self.profile.mean_burst
            } else {
                self.profile.mean_calm
            };
            self.phase_ends = self.clock + Exponential::new(mean).sample(&mut self.rng);
        }
    }
}

impl Iterator for BurstyPoisson {
    type Item = Task;

    fn next(&mut self) -> Option<Task> {
        if self.exhausted {
            return None;
        }
        self.advance_clock();
        if self.clock >= self.horizon {
            self.exhausted = true;
            return None;
        }
        let shape = self.shapes.next().expect("inner generator is unbounded");
        Some(
            Task::new(shape.id.0, self.clock, shape.data_size, shape.rel_deadline)
                .with_user_nodes(shape.user_nodes),
        )
    }
}

/// A deterministic step overload: calm at the spec's base rate, then a
/// *flash crowd* — the rate multiplied by `rate_factor` over one fixed
/// window `[at, at + duration)` — then calm again until the horizon.
///
/// Where [`BurstyPoisson`] models sustained stochastic burstiness, the
/// flash crowd is the SLO-alarm stress shape: a single overload step whose
/// start and end the experimenter controls exactly, so a test can assert
/// the burn-rate alarm trajectory *healthy → burning → breached →
/// recovered* against known phase boundaries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlashCrowd {
    /// When the crowd arrives.
    pub at: f64,
    /// How long it stays.
    pub duration: f64,
    /// Rate multiplier while it stays (≥ 1).
    pub rate_factor: f64,
}

impl FlashCrowd {
    fn validate(&self) {
        assert!(
            self.rate_factor.is_finite() && self.rate_factor >= 1.0,
            "flash-crowd rate factor must be >= 1, got {}",
            self.rate_factor
        );
        assert!(
            self.at >= 0.0 && self.duration > 0.0,
            "flash-crowd window must be non-negative start, positive duration"
        );
    }

    /// `true` while the crowd is present at `t`.
    pub fn active_at(&self, t: f64) -> bool {
        t >= self.at && t < self.at + self.duration
    }

    /// The arrival stream for this scenario over `spec`'s horizon.
    pub fn stream(self, spec: WorkloadSpec, seed: u64) -> FlashCrowdStream {
        self.validate();
        spec.validate().expect("invalid workload spec");
        let base_interarrival = Exponential::new(spec.mean_interarrival());
        let horizon = spec.horizon;
        let mut inner_spec = spec;
        inner_spec.horizon = 1e300;
        // Separate arrival stream from the shape stream, mirroring
        // BurstyPoisson: shapes stay identical across crowd profiles.
        let rng = SmallRng::seed_from_u64(seed ^ 0x666c_6173_6863_u64);
        FlashCrowdStream {
            shapes: WorkloadGenerator::new(inner_spec, seed),
            crowd: self,
            rng,
            horizon,
            base_interarrival,
            clock: 0.0,
            exhausted: false,
        }
    }
}

/// Open-loop arrival stream for one [`FlashCrowd`] scenario; implements
/// [`Iterator`]. Deterministic per `(spec, crowd, seed)`.
#[derive(Clone, Debug)]
pub struct FlashCrowdStream {
    shapes: WorkloadGenerator,
    crowd: FlashCrowd,
    rng: SmallRng,
    horizon: f64,
    base_interarrival: Exponential,
    clock: f64,
    exhausted: bool,
}

impl FlashCrowdStream {
    /// The underlying workload spec.
    pub fn spec(&self) -> &WorkloadSpec {
        self.shapes.spec()
    }

    /// The scenario driving the rate.
    pub fn crowd(&self) -> FlashCrowd {
        self.crowd
    }

    fn advance_clock(&mut self) {
        // Phase boundaries are fixed instants, so the crossing redraw is
        // the same memoryless trick as BurstyPoisson's — draw at the
        // current phase's rate, and on crossing a boundary restart the
        // residual wait at the new rate from the boundary.
        loop {
            let rate_factor = if self.crowd.active_at(self.clock) {
                self.crowd.rate_factor
            } else {
                1.0
            };
            let boundary = if self.clock < self.crowd.at {
                self.crowd.at
            } else if self.crowd.active_at(self.clock) {
                self.crowd.at + self.crowd.duration
            } else {
                f64::INFINITY
            };
            let gap = self.base_interarrival.sample(&mut self.rng) / rate_factor;
            if self.clock + gap <= boundary {
                self.clock += gap;
                return;
            }
            self.clock = boundary;
        }
    }
}

impl Iterator for FlashCrowdStream {
    type Item = Task;

    fn next(&mut self) -> Option<Task> {
        if self.exhausted {
            return None;
        }
        self.advance_clock();
        if self.clock >= self.horizon {
            self.exhausted = true;
            return None;
        }
        let shape = self.shapes.next().expect("inner generator is unbounded");
        Some(
            Task::new(shape.id.0, self.clock, shape.data_size, shape.rel_deadline)
                .with_user_nodes(shape.user_nodes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_spec(load: f64) -> WorkloadSpec {
        let mut s = WorkloadSpec::paper_baseline(load);
        s.horizon = 2e6;
        s
    }

    #[test]
    fn deterministic_and_ordered() {
        let spec = short_spec(0.5);
        let profile = BurstProfile::moderate(&spec);
        let a: Vec<Task> = BurstyPoisson::new(spec, profile, 7).collect();
        let b: Vec<Task> = BurstyPoisson::new(spec, profile, 7).collect();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for (i, t) in a.iter().enumerate() {
            assert_eq!(t.id.0, i as u64);
        }
        let c: Vec<Task> = BurstyPoisson::new(spec, profile, 8).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn unit_factor_matches_base_rate() {
        let spec = short_spec(0.5);
        let profile = BurstProfile {
            rate_factor: 1.0,
            mean_burst: 1e4,
            mean_calm: 1e4,
        };
        let tasks: Vec<Task> = BurstyPoisson::new(spec, profile, 3).collect();
        let mean_gap = tasks.last().unwrap().arrival.as_f64() / tasks.len() as f64;
        let expected = spec.mean_interarrival();
        assert!(
            (mean_gap / expected - 1.0).abs() < 0.1,
            "mean gap {mean_gap} vs base {expected}"
        );
    }

    #[test]
    fn bursts_raise_the_aggregate_rate() {
        let spec = short_spec(0.5);
        let calm_only = BurstyPoisson::new(
            spec,
            BurstProfile {
                rate_factor: 1.0,
                mean_burst: 1.0,
                mean_calm: 1e9,
            },
            5,
        )
        .count();
        let bursty = BurstyPoisson::new(
            spec,
            BurstProfile {
                rate_factor: 4.0,
                mean_burst: 5e4,
                mean_calm: 5e4,
            },
            5,
        )
        .count();
        // Half the time at 4×: expected ≈ 2.5× the calm count.
        let ratio = bursty as f64 / calm_only as f64;
        assert!((1.7..3.5).contains(&ratio), "burst ratio {ratio}");
    }

    #[test]
    fn shapes_match_the_paper_model() {
        let spec = short_spec(1.0);
        let profile = BurstProfile::moderate(&spec);
        let tasks: Vec<Task> = BurstyPoisson::new(spec, profile, 11).collect();
        for t in &tasks {
            assert!(t.data_size > 0.0);
            assert!(t.rel_deadline > spec.deadline_floor_value(t.data_size));
        }
    }

    #[test]
    fn flash_crowd_is_deterministic_and_ordered() {
        let spec = short_spec(0.5);
        let scale = spec.mean_interarrival();
        let crowd = FlashCrowd {
            at: 120.0 * scale,
            duration: 60.0 * scale,
            rate_factor: 8.0,
        };
        let a: Vec<Task> = crowd.stream(spec, 13).collect();
        let b: Vec<Task> = crowd.stream(spec, 13).collect();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_in_its_window() {
        let spec = short_spec(0.5);
        let scale = spec.mean_interarrival();
        let crowd = FlashCrowd {
            at: 200.0 * scale,
            duration: 100.0 * scale,
            rate_factor: 8.0,
        };
        let tasks: Vec<Task> = crowd.stream(spec, 21).collect();
        let in_window = tasks
            .iter()
            .filter(|t| crowd.active_at(t.arrival.as_f64()))
            .count();
        // The window spans 100 mean interarrivals at 8× rate — expect
        // about 800 arrivals inside vs about 1 per interarrival outside.
        let window_rate = in_window as f64 / 100.0;
        let outside_rate = (tasks.len() - in_window) as f64 / (spec.horizon / scale - 100.0);
        assert!(
            window_rate > 4.0 * outside_rate,
            "crowd window rate {window_rate:.2} vs outside {outside_rate:.2}"
        );
    }

    #[test]
    fn flash_crowd_rate_recovers_after_the_window() {
        let spec = short_spec(0.5);
        let scale = spec.mean_interarrival();
        let crowd = FlashCrowd {
            at: 100.0 * scale,
            duration: 50.0 * scale,
            rate_factor: 6.0,
        };
        let tasks: Vec<Task> = crowd.stream(spec, 33).collect();
        let after = crowd.at + crowd.duration;
        let tail = tasks.iter().filter(|t| t.arrival.as_f64() >= after).count() as f64;
        let tail_span = (spec.horizon - after) / scale;
        let tail_rate = tail / tail_span;
        // Post-crowd the stream is plain Poisson at the base rate again.
        assert!(
            (0.7..1.4).contains(&tail_rate),
            "post-crowd rate {tail_rate:.2} per mean interarrival"
        );
    }
}
