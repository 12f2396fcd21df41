//! Log-bucketed histograms with *fixed* bucket boundaries.
//!
//! The bench artifacts must stay byte-deterministic: the same seed has to
//! produce the same JSON on every machine and at any `--jobs` count. That
//! rules out sampling reservoirs and adaptive bucketing — the bucket a
//! value lands in may depend on nothing but the value itself. This
//! histogram uses the HDR scheme: exact buckets for small values, then
//! every power-of-two octave subdivided into `SUBBUCKETS` equal slices,
//! giving a worst-case relative error of `1 / SUBBUCKETS` (12.5%) at any
//! magnitude. Merging adds bucket counts element-wise, so partial
//! histograms from a parallel seed sweep fold together associatively and
//! in any order.

/// Values below this threshold get an exact bucket each.
const LINEAR_CUTOFF: u64 = 16;

/// Buckets per power-of-two octave above the linear range.
const SUBBUCKETS: u64 = 8;

/// Bucket index of `value`. Pure function of the value: monotone, total,
/// and identical on every platform.
pub fn bucket_index(value: u64) -> usize {
    if value < LINEAR_CUTOFF {
        value as usize
    } else {
        // `exp` is the position of the leading one bit (>= 4 here); the
        // next three bits select the sub-bucket inside the octave.
        let exp = 63 - u64::from(value.leading_zeros());
        let sub = (value >> (exp - 3)) & (SUBBUCKETS - 1);
        (LINEAR_CUTOFF + (exp - 4) * SUBBUCKETS + sub) as usize
    }
}

/// Half-open value range `[lower, upper)` covered by bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < LINEAR_CUTOFF {
        (index, index + 1)
    } else {
        let octave = (index - LINEAR_CUTOFF) / SUBBUCKETS;
        let sub = (index - LINEAR_CUTOFF) % SUBBUCKETS;
        let exp = octave + 4;
        let width = 1u64 << (exp - 3);
        let lower = (1u64 << exp) + sub * width;
        (lower, lower + width)
    }
}

/// A fixed-boundary log-bucketed histogram of `u64` samples.
///
/// The bucket vector grows lazily up to the highest bucket ever touched,
/// so an empty histogram costs nothing and a narrow distribution stays
/// small. Everything — recording, percentiles, merging — is integer
/// arithmetic over the fixed [`bucket_index`] map, which is what keeps
/// serialized snapshots byte-identical across runs and `--jobs` splits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let index = bucket_index(value);
        if self.buckets.len() <= index {
            self.buckets.resize(index + 1, 0);
        }
        self.buckets[index] += 1;
        self.min = if self.count == 0 { value } else { self.min.min(value) };
        self.max = self.max.max(value);
        self.count += 1;
        self.sum += value;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (exact, unlike the bucketed values).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `true` when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the *upper bound minus one*
    /// of the bucket holding the sample of rank `ceil(q · count)` — a
    /// deterministic integer overestimating the true quantile by at most
    /// one bucket width. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(index).1 - 1;
            }
        }
        self.max
    }

    /// Median ([`Histogram::quantile`] at 0.5).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile ([`Histogram::quantile`] at 0.99).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds `other` into `self`: bucket counts add element-wise, so the
    /// merge is commutative and associative — partial histograms from a
    /// `--jobs N` sweep produce the same result in any merge order.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.min = if self.count == 0 { other.min } else { self.min.min(other.min) };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..LINEAR_CUTOFF {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v + 1));
        }
        let mut h = Histogram::new();
        h.record(7);
        assert_eq!(h.p50(), 7, "exact below the linear cutoff");
    }

    #[test]
    fn bounds_invert_the_index_map() {
        for v in [0, 1, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, u64::MAX / 2] {
            let (lower, upper) = bucket_bounds(bucket_index(v));
            assert!(lower <= v && v < upper, "{v} outside [{lower}, {upper})");
        }
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        // p50 lands in the bucket of the 50th sample; the bucketed answer
        // may overestimate by at most one sub-bucket width (12.5%).
        let p50 = h.p50();
        assert!((50..=55).contains(&p50), "p50 = {p50}");
        let p99 = h.p99();
        assert!((99..=111).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let mut all = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for v in 0..1000u64 {
            all.record(v * 17 % 997);
            if v % 2 == 0 {
                left.record(v * 17 % 997);
            } else {
                right.record(v * 17 % 997);
            }
        }
        left.merge(&right);
        assert_eq!(left, all);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::new();
        assert_eq!((h.count(), h.sum(), h.min(), h.max(), h.p50(), h.p99()), (0, 0, 0, 0, 0, 0));
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }
}
