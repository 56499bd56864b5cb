//! Probability distributions for failure inter-arrival times and timing jitter.
//!
//! The paper models component failures with rough MTTF estimates (Table 1) and
//! asserts that recovery-time distributions have small coefficients of
//! variation (§3.2). [`Dist`] covers the shapes used by the experiments:
//! exponential inter-arrivals for failures, truncated normals for boot-time
//! jitter, and degenerate/uniform helpers for calibration and tests.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// A probability distribution over non-negative durations (seconds).
///
/// Samples are clamped to be non-negative, since they model times.
///
/// ```
/// use rr_sim::{Dist, SimRng};
/// let mut rng = SimRng::new(1);
/// let d = Dist::exponential(600.0); // MTTF of 10 minutes
/// let x = d.sample_secs(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always the same value. Used for calibrated constants.
    Constant {
        /// The value returned by every sample, in seconds.
        value: f64,
    },
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound in seconds.
        lo: f64,
        /// Exclusive upper bound in seconds.
        hi: f64,
    },
    /// Exponential with the given mean (i.e. rate `1/mean`). The memoryless
    /// distribution classically used for failure inter-arrival times.
    Exponential {
        /// Mean of the distribution in seconds.
        mean: f64,
    },
    /// Normal with the given mean and standard deviation, truncated at zero.
    /// Models boot-time jitter: tightly concentrated around the mean, which is
    /// exactly the small-coefficient-of-variation assumption of §3.2.
    Normal {
        /// Mean in seconds.
        mean: f64,
        /// Standard deviation in seconds.
        std_dev: f64,
    },
}

impl Dist {
    /// A distribution that always yields `value` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or not finite.
    pub fn constant(value: f64) -> Dist {
        assert!(
            value.is_finite() && value >= 0.0,
            "invalid constant {value}"
        );
        Dist::Constant { value }
    }

    /// A uniform distribution on `[lo, hi)` seconds.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid or contains negative values.
    pub fn uniform(lo: f64, hi: f64) -> Dist {
        assert!(
            lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi,
            "invalid uniform range [{lo}, {hi})"
        );
        Dist::Uniform { lo, hi }
    }

    /// An exponential distribution with the given mean in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn exponential(mean: f64) -> Dist {
        assert!(
            mean.is_finite() && mean > 0.0,
            "invalid exponential mean {mean}"
        );
        Dist::Exponential { mean }
    }

    /// A zero-truncated normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative or `std_dev` is negative or either is not
    /// finite.
    pub fn normal(mean: f64, std_dev: f64) -> Dist {
        assert!(
            mean.is_finite() && std_dev.is_finite() && mean >= 0.0 && std_dev >= 0.0,
            "invalid normal({mean}, {std_dev})"
        );
        Dist::Normal { mean, std_dev }
    }

    /// The theoretical mean of the distribution, in seconds.
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant { value } => value,
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Exponential { mean } => mean,
            // Truncation at zero slightly raises the mean; for the tight
            // distributions we use (std_dev << mean) the effect is negligible,
            // so we report the untruncated mean.
            Dist::Normal { mean, .. } => mean,
        }
    }

    /// Draws one sample, in seconds (always non-negative).
    pub fn sample_secs(&self, rng: &mut SimRng) -> f64 {
        let x = match *self {
            Dist::Constant { value } => value,
            Dist::Uniform { lo, hi } => rng.uniform(lo, hi),
            Dist::Exponential { mean } => {
                // Inverse CDF; guard against ln(0).
                let u = loop {
                    let u = rng.next_f64();
                    if u > 0.0 {
                        break u;
                    }
                };
                -mean * u.ln()
            }
            Dist::Normal { mean, std_dev } => mean + std_dev * sample_standard_normal(rng),
        };
        x.max(0.0)
    }

    /// Draws one sample as a [`SimDuration`].
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(self.sample_secs(rng))
    }
}

/// One draw from N(0, 1) via the Box–Muller transform.
fn sample_standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = loop {
        let u = rng.next_f64();
        if u > 0.0 {
            break u;
        }
    };
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(d: &Dist, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| d.sample_secs(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_always_same() {
        let d = Dist::constant(3.5);
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(d.sample_secs(&mut rng), 3.5);
        }
        assert_eq!(d.mean(), 3.5);
    }

    #[test]
    fn uniform_mean_and_bounds() {
        let d = Dist::uniform(2.0, 4.0);
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            let x = d.sample_secs(&mut rng);
            assert!((2.0..4.0).contains(&x));
        }
        assert!((empirical_mean(&d, 50_000, 3) - 3.0).abs() < 0.02);
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Dist::exponential(10.0);
        let m = empirical_mean(&d, 200_000, 4);
        assert!((m - 10.0).abs() < 0.15, "mean {m}");
    }

    #[test]
    fn exponential_is_memoryless_ish() {
        // P(X > 2m) should be about e^-2.
        let d = Dist::exponential(1.0);
        let mut rng = SimRng::new(5);
        let n = 100_000;
        let tail = (0..n).filter(|_| d.sample_secs(&mut rng) > 2.0).count() as f64 / n as f64;
        assert!((tail - (-2.0f64).exp()).abs() < 0.01, "tail {tail}");
    }

    #[test]
    fn normal_mean_and_spread() {
        let d = Dist::normal(20.0, 0.5);
        let m = empirical_mean(&d, 100_000, 6);
        assert!((m - 20.0).abs() < 0.02, "mean {m}");
        let mut rng = SimRng::new(7);
        // ~99.7% of samples within 3 sigma.
        let outliers = (0..10_000)
            .filter(|_| (d.sample_secs(&mut rng) - 20.0).abs() > 1.5)
            .count();
        assert!(outliers < 100, "outliers {outliers}");
    }

    #[test]
    fn normal_truncates_at_zero() {
        let d = Dist::normal(0.1, 5.0);
        let mut rng = SimRng::new(8);
        for _ in 0..1000 {
            assert!(d.sample_secs(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn sample_duration_is_rounded_sample() {
        let d = Dist::constant(1.25);
        let mut rng = SimRng::new(10);
        assert_eq!(d.sample(&mut rng), SimDuration::from_millis(1250));
    }

    #[test]
    #[should_panic(expected = "invalid exponential mean")]
    fn exponential_rejects_zero_mean() {
        Dist::exponential(0.0);
    }

    #[test]
    #[should_panic(expected = "invalid uniform range")]
    fn uniform_rejects_reversed_range() {
        Dist::uniform(4.0, 2.0);
    }
}
