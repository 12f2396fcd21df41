//! Fixed-size sample storage and the order statistics every report uses.
//!
//! The harness keeps its timing samples in [`Hist`]s (a fixed 58 KiB each,
//! whatever the sample count), so `peak_rss_mb` measures the program and not
//! the harness.

/// Sub-buckets per power of two: values at or above 128 are stored with a
/// relative error below 1/128 (0.8%); values below 128 are stored exactly.
const SUB: u64 = 128;
const SUB_BITS: u32 = 7;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A log-linear histogram of `u64` samples (nanoseconds, mostly).
pub struct Hist {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: vec![0; BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

fn bucket_of(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let sub = (value >> (exp - SUB_BITS)) & (SUB - 1);
    ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// `(lowest value, width)` of bucket `index`.
fn bucket_span(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < SUB {
        return (index, 1);
    }
    let shift = index / SUB - 1;
    ((SUB + index % SUB) << shift, 1 << shift)
}

impl Hist {
    pub fn new() -> Hist {
        Hist::default()
    }

    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0 < q <= 1`), interpolated inside its bucket;
    /// 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut before = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            if n > 0 && before + n >= rank {
                let (low, width) = bucket_span(index);
                let inside = (rank - before) as f64 - 0.5;
                let value = low as f64 + width as f64 * inside / n as f64;
                return value.min(self.max as f64);
            }
            before += n;
        }
        self.max as f64
    }
}

/// The highest percentile of `[50, 90, 99, 99.9, 99.99, 99.999]` that still
/// has at least ten samples beyond it in a sample of `count`, as a fraction
/// (0.999 for p99.9). `None` below 20 samples, where not even the median
/// qualifies.
pub fn highest_supported_quantile(count: u64) -> Option<f64> {
    // (quantile, one sample in this many lies beyond it)
    [(0.99999, 100_000), (0.9999, 10_000), (0.999, 1_000), (0.99, 100), (0.9, 10), (0.5, 2)]
        .into_iter()
        .find(|(_, one_in)| count / one_in >= 10)
        .map(|(q, _)| q)
}

/// Label of a quantile fraction: `0.999` → `"p99.9"`.
pub fn quantile_label(q: f64) -> String {
    let pct = format!("{:.3}", q * 100.0);
    format!("p{}", pct.trim_end_matches('0').trim_end_matches('.'))
}

/// Median of a small list (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method), so spreads computed here agree with
/// whoever checks them with that function. Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// every bound is judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact_and_large_ones_within_one_percent() {
        for value in [0u64, 1, 127, 128, 129, 1_000, 65_535, 1_234_567_890, u64::MAX / 2] {
            let (low, width) = bucket_span(bucket_of(value));
            assert!(low <= value && value - low < width, "{value} outside its bucket");
            assert!(width as f64 <= (value as f64 / 128.0).max(1.0), "bucket too wide at {value}");
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut hist = Hist::new();
        for value in 1..=100_000u64 {
            hist.record(value * 1_000);
        }
        assert_eq!(hist.count(), 100_000);
        for (q, expected) in [(0.5, 50_000e3), (0.99, 99_000e3), (0.999, 99_900e3)] {
            let got = hist.quantile(q);
            assert!((got - expected).abs() / expected < 0.01, "q{q}: {got} vs {expected}");
        }
        assert_eq!(hist.quantile(1.0), 100_000e3);
        assert_eq!(Hist::new().quantile(0.5), 0.0);
    }

    #[test]
    fn picker_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(highest_supported_quantile(19), None);
        assert_eq!(highest_supported_quantile(20), Some(0.5));
        assert_eq!(highest_supported_quantile(99), Some(0.5));
        assert_eq!(highest_supported_quantile(100), Some(0.9));
        assert_eq!(highest_supported_quantile(999), Some(0.9));
        assert_eq!(highest_supported_quantile(1_000), Some(0.99));
        assert_eq!(highest_supported_quantile(150_000), Some(0.9999));
        assert_eq!(highest_supported_quantile(5_000_000), Some(0.99999));
        assert_eq!(quantile_label(0.999), "p99.9");
        assert_eq!(quantile_label(0.5), "p50");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&ten), 5.5);
        assert_eq!(spread(&ten), Some(1.0));
    }
}
