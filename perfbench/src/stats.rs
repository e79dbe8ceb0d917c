//! Order statistics and span arithmetic shared by every workload.

/// The round percentiles a timing may be reported at, lowest first.
pub const ROUND_PERCENTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Index of the `q` percentile in a sorted slice of `n` samples (the
/// nearest rank at or above the exact position).
fn rank(n: usize, q: f64) -> usize {
    (((n - 1) as f64) * q).ceil() as usize
}

/// The `q` percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q).min(sorted.len() - 1)]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples strictly beyond the `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The highest round percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    ROUND_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// One timed call into a layer, kept in memory until the run ends.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered.min(span.duration_ns())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("epoch", None, 0, 100),
            span("recon", Some(0), 10, 30),
            // overlapping children cover 40..80 once, not 60 ns
            span("ml", Some(0), 40, 70),
            span("nn", Some(0), 50, 80),
            // grandchild: counts against "ml", not against "epoch"
            span("approx", Some(2), 45, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 15, 30, 15]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![
            span("epoch", None, 100, 200),
            span("late", Some(0), 150, 260),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 110]);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 128 storm alerts: 12 lie beyond p90, only 1 beyond p99
        assert_eq!(samples_beyond(128, 0.9), 12);
        assert_eq!(samples_beyond(128, 0.99), 1);
        assert_eq!(tail_percentile(128), Some(0.9));
        // p99 becomes reportable once 10 samples lie beyond it
        assert_eq!(tail_percentile(1001), Some(0.99));
        assert_eq!(tail_percentile(1000), Some(0.9));
        assert_eq!(tail_percentile(101), Some(0.9));
        assert_eq!(tail_percentile(100), Some(0.5));
        assert_eq!(tail_percentile(20), None);
    }

    #[test]
    fn percentile_is_nearest_rank_at_or_above() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 6.0);
        assert_eq!(percentile(&v, 0.9), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
