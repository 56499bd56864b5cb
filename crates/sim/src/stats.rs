//! Summary statistics for experiment results.
//!
//! The paper reports mean recovery times over 100 trials and argues (§3.2)
//! that MTTF/MTTR are only meaningful because the underlying distributions
//! have small coefficients of variation. [`OnlineStats`] (Welford's algorithm)
//! and [`Summary`] give the harness exactly those quantities: mean, standard
//! deviation, coefficient of variation, percentiles and a normal-approximation
//! 95% confidence interval.

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// ```
/// use rr_sim::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite observation {x}");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation.
    ///
    /// # Panics
    ///
    /// Panics if no observations have been added.
    pub fn min(&self) -> f64 {
        assert!(self.n > 0, "min of empty stats");
        self.min
    }

    /// Largest observation.
    ///
    /// # Panics
    ///
    /// Panics if no observations have been added.
    pub fn max(&self) -> f64 {
        assert!(self.n > 0, "max of empty stats");
        self.max
    }

    /// Population variance (divides by n).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (divides by n−1; 0 when fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Coefficient of variation (sample std dev / mean; 0 for zero mean).
    /// The paper's §3.2 assumption is that this is small for both failure and
    /// recovery time distributions.
    fn coefficient_of_variation(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.sample_std_dev() / m
        }
    }

    /// Half-width of the normal-approximation 95% confidence interval of the
    /// mean.
    fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.sample_std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

/// A full summary of a sample, including percentiles (requires retaining the
/// observations, unlike [`OnlineStats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Coefficient of variation.
    pub cov: f64,
    /// Minimum.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Half-width of the 95% confidence interval of the mean.
    pub ci95: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains non-finite entries.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of empty sample");
        let stats: OnlineStats = values.iter().copied().collect();
        let mut sorted = values.to_vec();
        assert!(
            values.iter().all(|v| v.is_finite()),
            "summary of non-finite sample"
        );
        sorted.sort_by(f64::total_cmp);
        Summary {
            count: values.len(),
            mean: stats.mean(),
            std_dev: stats.sample_std_dev(),
            cov: stats.coefficient_of_variation(),
            min: sorted[0],
            p50: percentile(&sorted, 0.50),
            p90: percentile(&sorted, 0.90),
            p99: percentile(&sorted, 0.99),
            max: sorted
                .last()
                .copied()
                .unwrap_or_else(|| unreachable!("asserted non-empty above")),
            ci95: stats.ci95_half_width(),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3} ±{:.3} (95% CI) sd={:.3} cov={:.3} min={:.3} p50={:.3} p90={:.3} p99={:.3} max={:.3}",
            self.count, self.mean, self.ci95, self.std_dev, self.cov,
            self.min, self.p50, self.p90, self.p99, self.max
        )
    }
}

/// A fixed-bucket histogram over a value range, with an ASCII rendering —
/// used to show recovery-time distributions next to their means (the §3.2
/// "small coefficient of variation" claim, made visible).
///
/// ```
/// use rr_sim::stats::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// for x in [1.0, 1.5, 6.0, 9.9, 12.0] {
///     h.add(x);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `buckets` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty/non-finite or `buckets` is zero.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Histogram {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad range [{lo}, {hi})"
        );
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            lo,
            hi,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite observation {x}");
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Total observations (including under/overflow).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The range's inclusive lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// The range's exclusive upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Renders the histogram as ASCII, one bucket per line, bars scaled to
    /// `width` characters at the fullest bucket.
    pub fn render(&self, width: usize) -> String {
        let max = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        let w = (self.hi - self.lo) / self.buckets.len() as f64;
        let mut out = String::new();
        for (i, &count) in self.buckets.iter().enumerate() {
            let b_lo = self.lo + w * i as f64;
            let bar = "#".repeat((count as usize * width) / max as usize);
            out.push_str(&format!(
                "[{:>7.2}, {:>7.2}) |{bar:<width$}| {count}\n",
                b_lo,
                b_lo + w
            ));
        }
        if self.underflow > 0 {
            out.push_str(&format!("  below {:>7.2}: {}\n", self.lo, self.underflow));
        }
        if self.overflow > 0 {
            out.push_str(&format!("  at/above {:>7.2}: {}\n", self.hi, self.overflow));
        }
        out
    }
}

/// Linear-interpolation percentile of an already-sorted slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [1.5, 2.5, 2.5, 2.75, 3.25, 4.75];
        let s: OnlineStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-12);
        assert_eq!(s.count(), 6);
        assert_eq!(s.min(), 1.5);
        assert_eq!(s.max(), 4.75);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.coefficient_of_variation(), 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn merge_equals_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() + 2.0).collect();
        let (a, b) = xs.split_at(37);
        let mut sa: OnlineStats = a.iter().copied().collect();
        let sb: OnlineStats = b.iter().copied().collect();
        sa.merge(&sb);
        let all: OnlineStats = xs.iter().copied().collect();
        assert!((sa.mean() - all.mean()).abs() < 1e-12);
        assert!((sa.sample_variance() - all.sample_variance()).abs() < 1e-9);
        assert_eq!(sa.count(), all.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 4.0);
        assert_eq!(percentile(&sorted, 0.5), 2.5);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn summary_fields_consistent() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.count, 100);
        assert_eq!(s.mean, 50.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 50.5);
        assert!(s.p90 > s.p50 && s.p99 > s.p90);
        assert!(s.ci95 > 0.0);
    }

    #[test]
    fn cov_is_small_for_tight_samples() {
        let xs = vec![24.7, 24.8, 24.75, 24.72, 24.77];
        let s = Summary::of(&xs);
        assert!(s.cov < 0.01, "cov {}", s.cov);
    }

    #[test]
    fn histogram_buckets_and_render() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 5.5, 5.5, 5.5, -1.0, 10.0, 99.0] {
            h.add(x);
        }
        assert_eq!(h.buckets(), &[2, 1, 3, 0, 0]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 9);
        let r = h.render(20);
        assert_eq!(r.lines().count(), 7, "5 buckets + under + over:\n{r}");
        assert!(r.contains("| 3"));
        // The fullest bucket gets the full bar width.
        assert!(r.contains(&"#".repeat(20)));
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn histogram_rejects_empty_range() {
        Histogram::new(5.0, 5.0, 3);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_of_empty_panics() {
        Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn push_rejects_nan() {
        OnlineStats::new().push(f64::NAN);
    }
}
