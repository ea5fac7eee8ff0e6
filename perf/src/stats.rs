//! Summaries of repeated measurements: median, median absolute deviation,
//! and the rule for which tail percentile a sample is large enough to report.
//! Nearest-rank percentiles come from `keystoneml::serve::percentile`, the
//! one the serving layer already reports with.

pub use keystoneml::serve::percentile;

/// Median of a sample (mean of the two middle values for an even count).
/// Returns 0.0 on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// What every reported row carries: median, MAD and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub mad: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        Summary {
            median: median(xs),
            mad: mad(xs),
            n: xs.len(),
        }
    }

    /// A single reading (a count, a ratio of two medians).
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            mad: 0.0,
            n: 1,
        }
    }
}

/// The highest tail percentile a sample of `n` may report: at least ten
/// samples must lie beyond it, so p99 needs 1000 samples and p90 needs 100.
pub fn highest_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| (n as f64) * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        // Deviations from the median 3 are 2,1,0,1,97: their median is 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn summary_carries_count() {
        let s = Summary::of(&[2.0, 4.0, 6.0]);
        assert_eq!((s.median, s.mad, s.n), (4.0, 2.0, 3));
        assert_eq!(Summary::single(1.5).n, 1);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 100.0), 1000.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(999), Some(95.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(199), Some(90.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(99), None);
    }
}
