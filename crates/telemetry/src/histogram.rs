//! A lock-free, fixed-bucket latency histogram.
//!
//! Buckets are logarithmic with 2^[`SUB_BITS`] linear sub-buckets per
//! octave (the HdrHistogram layout): every nanosecond value maps to a
//! bucket whose width is at most 1/8 of its lower edge, so any reported
//! quantile is within +12.5 % (plus one integer nanosecond) of the true
//! order statistic. Recording is a single atomic increment per sample —
//! safe to share across threads by reference, with no locks anywhere —
//! and two histograms can be merged bucket-wise, which makes per-thread
//! recording followed by a reduction exactly equivalent to recording
//! into one shared histogram.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Linear sub-bucket bits per octave (8 sub-buckets).
pub const SUB_BITS: u32 = 3;

/// Total bucket count: covers the full `u64` nanosecond range exactly.
/// The top index is `((63 - SUB_BITS + 1) << SUB_BITS) | (2^SUB_BITS - 1)`.
pub const N_BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS as usize;

/// Bucket index of a nanosecond value (values `>= 1`; 0 records as 1 ns).
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    let v = ns.max(1);
    let octave = 63 - v.leading_zeros(); // floor(log2 v)
    if octave < SUB_BITS {
        v as usize // small values are exact
    } else {
        let sub = (v >> (octave - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        ((((octave - SUB_BITS + 1) as u64) << SUB_BITS) | sub) as usize
    }
}

/// Inclusive lower edge of bucket `i` (ns).
pub fn bucket_lo(i: usize) -> u64 {
    if i < (1 << SUB_BITS) {
        i as u64
    } else {
        let octave = (i >> SUB_BITS) as u32 + SUB_BITS - 1;
        let sub = (i & ((1 << SUB_BITS) - 1)) as u64;
        ((1 << SUB_BITS) + sub) << (octave - SUB_BITS)
    }
}

/// Exclusive upper edge of bucket `i` (ns); the reported quantile value.
pub fn bucket_hi(i: usize) -> u64 {
    if i < (1 << SUB_BITS) {
        i as u64 + 1
    } else {
        let octave = (i >> SUB_BITS) as u32 + SUB_BITS - 1;
        bucket_lo(i).saturating_add(1 << (octave - SUB_BITS))
    }
}

/// The lock-free log2 latency histogram.
///
/// All methods take `&self`; share it across threads by reference (or in
/// an `Arc`) and merge per-thread instances afterwards — the result is
/// identical either way.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for LatencyHistogram {
    fn clone(&self) -> Self {
        let out = Self::new();
        out.merge(self);
        out
    }
}

impl LatencyHistogram {
    /// An empty histogram (~4 KiB of buckets).
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Record one duration.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one nanosecond value.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let ns = ns.max(1);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Fold another histogram into this one (bucket-wise addition).
    pub fn merge(&self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                a.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_ns
            .fetch_add(other.sum_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min_ns
            .fetch_min(other.min_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_ns
            .fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact mean (ns); 0 when empty.
    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_ns.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Exact smallest recorded value (ns); `u64::MAX` when empty.
    pub fn min_ns(&self) -> u64 {
        self.min_ns.load(Ordering::Relaxed)
    }

    /// Exact largest recorded value (ns); 0 when empty.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (ns), as the upper edge of the bucket holding the
    /// order statistic at rank `ceil(q·n)` — i.e. the same order-statistic
    /// convention as the paper's containment radii. Never underestimates
    /// the true order statistic, and overestimates it by at most one
    /// bucket width (`≤ 12.5 %` + 1 ns). Returns 0 when empty.
    ///
    /// Each call reads the live buckets independently, so two calls that
    /// race concurrent writers may disagree (e.g. a p50 read before a
    /// burst can exceed a p99 read after it); use [`Self::snapshot`] when
    /// cross-quantile consistency matters.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile fraction out of range");
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                // never report past the exact recorded maximum
                return bucket_hi(i).min(self.max_ns());
            }
        }
        self.max_ns()
    }

    /// A plain-data summary in milliseconds, for tables and export.
    ///
    /// Unlike calling [`Self::quantile_ns`] three times, this is a
    /// *coherent* view under concurrent recording: the buckets are copied
    /// once, the count is derived from that copy, and every quantile is
    /// ranked against it — so `min ≤ p50 ≤ p90 ≤ p99 ≤ max` and
    /// `mean ∈ [min, max]` hold no matter how many writers (or a
    /// concurrent `merge`) race the snapshot. Racing samples either land
    /// entirely inside the copy or entirely outside it.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let frozen: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let n: u64 = frozen.iter().sum();
        if n == 0 {
            return HistogramSnapshot::default();
        }
        // Bounds from the frozen buckets, widened by the exact atomics
        // where those are consistent with the copy. A racing writer may
        // have bumped min/max without its bucket landing in the copy (or
        // vice versa), so each side falls back to the bucket edge.
        let first = frozen.iter().position(|&c| c > 0).unwrap();
        let last = frozen.iter().rposition(|&c| c > 0).unwrap();
        let min_rep = self
            .min_ns
            .load(Ordering::Relaxed)
            .clamp(bucket_lo(first).max(1), bucket_hi(first));
        let max_rep = self
            .max_ns
            .load(Ordering::Relaxed)
            .clamp(bucket_lo(last).max(1), bucket_hi(last))
            .max(min_rep);
        let quantile = |q: f64| -> u64 {
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
            let mut cum = 0u64;
            for (i, &c) in frozen.iter().enumerate() {
                cum += c;
                if cum >= rank {
                    return bucket_hi(i).clamp(min_rep, max_rep);
                }
            }
            max_rep
        };
        let mean_ns = (self.sum_ns.load(Ordering::Relaxed) as f64 / n as f64)
            .clamp(min_rep as f64, max_rep as f64);
        let ms = |ns: u64| ns as f64 / 1e6;
        HistogramSnapshot {
            count: n,
            mean_ms: mean_ns / 1e6,
            p50_ms: ms(quantile(0.50)),
            p90_ms: ms(quantile(0.90)),
            p99_ms: ms(quantile(0.99)),
            min_ms: ms(min_rep),
            max_ms: ms(max_rep),
        }
    }
}

/// Plain-data percentile summary of one histogram (milliseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Exact arithmetic mean.
    pub mean_ms: f64,
    /// Median (bucket upper edge).
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Exact minimum.
    pub min_ms: f64,
    /// Exact maximum.
    pub max_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_contiguous_and_contain_their_values() {
        let mut prev_hi = 0;
        for i in 0..N_BUCKETS {
            let lo = bucket_lo(i);
            let hi = bucket_hi(i);
            assert_eq!(lo, prev_hi, "bucket {i} not contiguous");
            assert!(hi > lo || i == N_BUCKETS - 1, "bucket {i} empty range");
            prev_hi = hi;
        }
        for v in [1u64, 2, 7, 8, 9, 15, 16, 100, 1_000_000, u64::MAX / 2] {
            let i = bucket_index(v);
            assert!(bucket_lo(i) <= v, "v={v} below bucket {i}");
            assert!(
                v < bucket_hi(i) || bucket_hi(i) == u64::MAX,
                "v={v} past bucket {i}"
            );
        }
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for i in (1 << SUB_BITS)..N_BUCKETS {
            let lo = bucket_lo(i);
            let w = bucket_hi(i).saturating_sub(lo);
            assert!(
                (w as f64) <= lo as f64 / (1 << SUB_BITS) as f64 + 1.0,
                "bucket {i}: width {w} vs lo {lo}"
            );
        }
    }

    #[test]
    fn quantiles_track_order_statistics() {
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record_ns(v * 1000); // 1 us .. 1 ms
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile_ns(0.5);
        let true_p50 = 500_000;
        assert!(p50 >= true_p50 && p50 as f64 <= true_p50 as f64 * 1.126);
        assert_eq!(h.quantile_ns(1.0), 1_000_000);
        assert_eq!(h.min_ns(), 1000);
        assert_eq!(h.max_ns(), 1_000_000);
        assert!((h.mean_ns() - 500_500.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_counts_as_one_ns() {
        let h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_ns(0.5), 1);
    }

    #[test]
    fn merge_equals_sequential() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let whole = LatencyHistogram::new();
        for v in 0..500u64 {
            let ns = (v * 7919) % 100_000 + 1;
            whole.record_ns(ns);
            if v % 2 == 0 {
                a.record_ns(ns)
            } else {
                b.record_ns(ns)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min_ns(), whole.min_ns());
        assert_eq!(a.max_ns(), whole.max_ns());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile_ns(q), whole.quantile_ns(q), "q={q}");
        }
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.5), 0);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_ms, 0.0);
    }

    /// Satellite regression: a snapshot taken mid-record (and mid-merge)
    /// must never report incoherent statistics. Writers hammer
    /// `record_ns` with values spanning several octaves while one thread
    /// repeatedly merges a side histogram in and a reader asserts the
    /// snapshot invariants on every pull.
    #[test]
    fn snapshot_is_coherent_under_concurrent_record_and_merge() {
        let h = LatencyHistogram::new();
        let stop = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let (h, stop) = (&h, &stop);
                s.spawn(move || {
                    let mut v = t * 104_729 + 1;
                    while stop.load(Ordering::Relaxed) == 0 {
                        for _ in 0..64 {
                            // xorshift spanning ~1 ns .. ~1 ms
                            v ^= v << 13;
                            v ^= v >> 7;
                            v ^= v << 17;
                            h.record_ns(v % 1_000_000 + 1);
                        }
                    }
                });
            }
            let (h, stop) = (&h, &stop);
            s.spawn(move || {
                let side = LatencyHistogram::new();
                for v in 0..256u64 {
                    side.record_ns(v * 4093 % 500_000 + 1);
                }
                while stop.load(Ordering::Relaxed) == 0 {
                    h.merge(&side);
                }
            });
            // Check 2000 non-empty snapshots: on a loaded host the reader
            // can otherwise finish before any writer has been scheduled,
            // leaving nothing recorded for the quiescent check below.
            let mut last_count = 0u64;
            let mut checked = 0;
            while checked < 2000 {
                let s = h.snapshot();
                if s.count == 0 {
                    std::thread::yield_now();
                    continue;
                }
                checked += 1;
                assert!(
                    s.min_ms <= s.p50_ms
                        && s.p50_ms <= s.p90_ms
                        && s.p90_ms <= s.p99_ms
                        && s.p99_ms <= s.max_ms,
                    "non-monotone percentiles: {s:?}"
                );
                assert!(
                    s.mean_ms >= s.min_ms && s.mean_ms <= s.max_ms,
                    "mean outside [min, max]: {s:?}"
                );
                assert!(s.count >= last_count, "count went backwards: {s:?}");
                last_count = s.count;
            }
            stop.store(1, Ordering::Relaxed);
        });
        // Quiescent: the snapshot must agree exactly with the atomics.
        let s = h.snapshot();
        assert_eq!(s.count, h.count());
        assert!((s.min_ms - h.min_ns() as f64 / 1e6).abs() < 1e-12);
        assert!((s.max_ms - h.max_ns() as f64 / 1e6).abs() < 1e-12);
        assert!((s.p99_ms - h.quantile_ns(0.99) as f64 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn threads_share_one_histogram() {
        let h = LatencyHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for v in 0..1000u64 {
                        h.record_ns(t * 1000 + v + 1);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.min_ns(), 1);
    }
}
