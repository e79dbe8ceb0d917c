//! Streaming statistics, quantiles, containment radii, and histograms.
//!
//! The paper reports localization accuracy as *68 % and 95 % containment*:
//! the largest angular error observed in at most that fraction of trials.
//! [`containment_radius`] implements exactly that order statistic, and
//! [`RunningStats`] provides the mean/range summaries used in the timing
//! tables.

use serde::{Deserialize, Serialize};

/// Welford-style streaming moments plus min/max tracking.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Extend with many observations.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, it: I) {
        for x in it {
            self.push(x);
        }
    }

    /// Merge another accumulator (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample (Bessel-corrected) variance.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sample_std_dev() / (self.n as f64).sqrt()
        }
    }
}

/// The `q`-quantile (`q` in `[0, 1]`) of a sample, by linear interpolation
/// between closest ranks (the "R-7" definition used by NumPy's default).
///
/// Returns `None` on an empty slice. The input need not be sorted; a sorted
/// copy is made internally.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "quantile fraction out of range");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    Some(quantile_sorted(&sorted, q))
}

/// The `q`-quantile (`q` clamped to `[0, 1]`) by ceiling rank: the
/// smallest sample at or above rank `q · (n − 1)`, never interpolated.
/// Latency reports use it so a percentile is always an observed value.
/// Returns `None` on an empty slice.
pub fn quantile_ceil_rank(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).ceil() as usize;
    Some(sorted[idx.min(sorted.len() - 1)])
}

/// As [`quantile`], for pre-sorted data (ascending) without reallocation.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The paper's containment statistic: the largest error observed in at most
/// `fraction` of the trials — i.e. the smallest radius `r` such that at
/// least `fraction` of values are `≤ r`, taken as the order statistic at
/// `ceil(fraction * n) - 1` of the sorted sample.
pub fn containment_radius(errors: &[f64], fraction: f64) -> Option<f64> {
    if errors.is_empty() {
        return None;
    }
    assert!(
        (0.0..=1.0).contains(&fraction),
        "containment fraction out of range"
    );
    let mut sorted = errors.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in containment input"));
    let n = sorted.len();
    let k = ((fraction * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[k - 1])
}

/// A fixed-bin 1-D histogram over `[lo, hi)` with overflow/underflow
/// counters, used for spectra and error distributions in the experiment
/// reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// A histogram of `nbins` equal-width bins spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo, "empty histogram range");
        assert!(nbins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Record one value.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Total entries including under/overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Entries below range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Entries at or above range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Merge another histogram with identical binning.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bins.len(), other.bins.len(), "bin count mismatch");
        assert_eq!(self.lo, other.lo, "range mismatch");
        assert_eq!(self.hi, other.hi, "range mismatch");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        s.extend([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert!((s.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn running_stats_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 5.0).collect();
        let mut whole = RunningStats::new();
        whole.extend(data.iter().copied());
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        a.extend(data[..37].iter().copied());
        b.extend(data[37..].iter().copied());
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = RunningStats::new();
        s.extend([1.0, 2.0]);
        let before = s.clone();
        s.merge(&RunningStats::new());
        assert_eq!(s.count(), before.count());
        assert_eq!(s.mean(), before.mean());

        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_median_and_extremes() {
        let v = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_ceil_rank_returns_observed_samples() {
        let v = [5.0, 1.0, 9.0, 3.0];
        // rank 0.5 · 3 = 1.5 rounds up to the third-smallest sample
        assert_eq!(quantile_ceil_rank(&v, 0.5), Some(5.0));
        assert_eq!(quantile_ceil_rank(&v, 0.0), Some(1.0));
        assert_eq!(quantile_ceil_rank(&v, 2.0), Some(9.0));
        assert_eq!(quantile_ceil_rank(&[], 0.5), None);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(quantile(&v, 0.25), Some(2.5));
        assert_eq!(quantile(&v, 0.75), Some(7.5));
    }

    #[test]
    fn containment_is_order_statistic() {
        // 10 values 1..=10: 68% containment -> ceil(6.8)=7th smallest = 7
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(containment_radius(&v, 0.68), Some(7.0));
        assert_eq!(containment_radius(&v, 0.95), Some(10.0));
        assert_eq!(containment_radius(&v, 0.1), Some(1.0));
        assert_eq!(containment_radius(&[], 0.68), None);
    }

    #[test]
    fn containment_single_value() {
        assert_eq!(containment_radius(&[4.2], 0.68), Some(4.2));
    }

    #[test]
    fn containment_monotone_in_fraction() {
        let v: Vec<f64> = (0..57).map(|i| ((i * 7919) % 100) as f64).collect();
        let mut last = f64::NEG_INFINITY;
        for i in 1..=20 {
            let f = i as f64 / 20.0;
            let c = containment_radius(&v, f).unwrap();
            assert!(c >= last, "containment not monotone at f={f}");
            last = c;
        }
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.7, 9.99, -1.0, 10.0, 25.0] {
            h.push(x);
        }
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 7);
        assert!((h.bin_center(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        let mut b = Histogram::new(0.0, 1.0, 4);
        a.push(0.1);
        b.push(0.1);
        b.push(0.9);
        a.merge(&b);
        assert_eq!(a.counts()[0], 2);
        assert_eq!(a.counts()[3], 1);
        assert_eq!(a.total(), 3);
    }
}
