//! Quantiles over raw samples (no bucketing, so a median carries all its
//! digits).
//!
//! Timings come off the clock in whole nanoseconds (or whole nanoseconds
//! over a fixed batch), so many samples tie. A quantile is therefore
//! taken as of grouped data: the samples equal to the ranked value `x`
//! are spread evenly over `[x - res/2, x + res/2)`, where `res` is the
//! samples' resolution, and the quantile is interpolated inside that
//! class. It moves with the share of samples below and at `x` instead of
//! sticking to `x` from run to run.

/// Linear-interpolated quantile `q` in `[0, 1]` of ascending `sorted`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Grouped-data quantile `q` of ascending `sorted` samples of resolution
/// `res` (module docs).
pub fn grouped_quantile(sorted: &[f64], q: f64, res: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let target = q.clamp(0.0, 1.0) * n as f64;
    let x = sorted[(target as usize).min(n - 1)];
    let below = sorted.partition_point(|&v| v < x);
    let at = sorted.partition_point(|&v| v <= x) - below;
    x - res / 2.0 + res * ((target - below as f64) / at as f64).clamp(0.0, 1.0)
}

/// Median, 99th percentile and count of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub p50: f64,
    pub p99: f64,
    pub n: usize,
}

impl Dist {
    /// The distribution of samples of resolution `res`.
    pub fn of(mut samples: Vec<f64>, res: f64) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist {
            p50: grouped_quantile(&samples, 0.5, res),
            p99: grouped_quantile(&samples, 0.99, res),
            n: samples.len(),
        }
    }
}

/// Median of a sample set.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn dist_sorts_before_ranking() {
        let d = Dist::of((0..100).rev().map(f64::from).collect(), 1.0);
        assert_eq!((d.p50, d.p99, d.n), (49.5, 98.5, 100));
    }

    #[test]
    fn grouped_quantiles_move_with_the_share_of_ties() {
        // Half the samples at 10, half at 11: the median sits at the
        // class boundary.
        let even = [10.0, 10.0, 11.0, 11.0];
        assert_eq!(grouped_quantile(&even, 0.5, 1.0), 10.5);
        // Three of four at 10: the median is inside 10's class, and a
        // larger share at 10 pulls it lower.
        let three = [10.0, 10.0, 10.0, 11.0];
        assert!((grouped_quantile(&three, 0.5, 1.0) - (9.5 + 2.0 / 3.0)).abs() < 1e-12);
        let five = [10.0, 10.0, 10.0, 10.0, 10.0, 11.0];
        assert!(grouped_quantile(&five, 0.5, 1.0) < grouped_quantile(&three, 0.5, 1.0));
        assert!(grouped_quantile(&[], 0.5, 1.0).is_nan());
    }
}
