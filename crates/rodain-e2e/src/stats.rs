//! Order statistics the benchmark reports: nearest-rank percentiles over
//! raw latency samples, and the median / quartile spread of per-slice
//! values (README "How a metric is computed").

/// A metric value with the samples it was taken from: the median sample is
/// the reported value, min/max and the quartile spread say how steady it
/// was inside the run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sampled {
    /// Median of the samples — the reported value.
    pub value: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples (slices, cycles or repetitions).
    pub samples: usize,
    /// `(Q3 - Q1) / median` of the samples; 0 with fewer than two.
    pub spread: f64,
}

impl Sampled {
    /// Summarise `values` (one per slice, cycle or repetition).
    ///
    /// # Panics
    /// Panics when `values` is empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Sampled {
        assert!(!values.is_empty(), "a metric needs at least one sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Sampled {
            value: median_sorted(&sorted),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            samples: sorted.len(),
            spread: quartile_spread(values),
        }
    }

    /// A single measurement (no spread).
    #[must_use]
    pub fn single(value: f64) -> Sampled {
        Sampled::of(&[value])
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of `values` (0.0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the exclusive method) — the spread the acceptance driver computes over
/// runs, applied here to the samples inside one run. 0.0 with fewer than
/// two samples or a zero median.
#[must_use]
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |k: usize| {
        // statistics.quantiles, method="exclusive": position k(n+1)/4,
        // 1-based, clamped into [1, n-1], linear interpolation.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    let med = median_sorted(&sorted);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / med.abs()
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. 0 when empty.
#[must_use]
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile::<u64>(&[], 0.5), 0);
    }

    #[test]
    fn slice_median_takes_the_middle_slice() {
        let s = Sampled::of(&[30.0, 10.0, 20.0, 40.0]);
        assert_eq!(s.value, 25.0);
        assert_eq!((s.min, s.max, s.samples), (10.0, 40.0, 4));
        let odd = Sampled::of(&[3.0, 1.0, 2.0]);
        assert_eq!(odd.value, 2.0);
        assert_eq!(Sampled::single(5.0).spread, 0.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        let s = quartile_spread(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s - (3.75 - 1.25) / 2.5).abs() < 1e-12, "{s}");
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v);
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = quartile_spread(&[10.0, 20.0]);
        assert!((s - 15.0 / 15.0).abs() < 1e-12, "{s}");
    }
}
