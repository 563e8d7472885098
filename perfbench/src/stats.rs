//! Order statistics used by every metric: median, mean, quartiles (the same
//! method as Python's `statistics.quantiles(values, n=4)`), nearest-rank
//! percentiles, and a bounded sample store that decimates uniformly.

/// Median of `v` (mean of the two middle values for even lengths).
/// Returns NaN for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `v`. Returns NaN for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// First, second and third quartile by Python's default
/// (`method="exclusive"`) rule, so spreads computed here match the ones
/// computed over this benchmark's output with `statistics.quantiles`.
/// Needs at least two values.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need at least two values");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let (n, m) = (4usize, s.len() + 1);
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / n).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    })
}

/// Interquartile distance as a share of the median.
pub fn iqr_frac(v: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(v);
    (q3 - q1) / median(v)
}

/// Nearest-rank `p`-th percentile (0 < p <= 100) of `v`: a value that was
/// actually measured, never an interpolation. `None` when empty.
pub fn percentile(v: &[u64], p: f64) -> Option<u64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// A bounded store of samples. Keeps every sample until `cap` are held,
/// then drops every other kept sample and from then on keeps one in two
/// (then one in four, ...), so what it holds is always a uniform systematic
/// subsample of the whole run whatever its length.
#[derive(Clone, Debug)]
pub struct Samples {
    kept: Vec<u64>,
    stride: u64,
    seen: u64,
    cap: usize,
}

impl Samples {
    /// An empty store holding at most `cap` (>= 2) samples.
    pub fn new(cap: usize) -> Samples {
        assert!(cap >= 2);
        Samples {
            kept: Vec::new(),
            stride: 1,
            seen: 0,
            cap,
        }
    }

    /// Offer one sample.
    pub fn push(&mut self, x: u64) {
        if self.seen.is_multiple_of(self.stride) {
            self.kept.push(x);
            if self.kept.len() >= self.cap {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
        }
        self.seen += 1;
    }

    /// Forget every sample, keeping the allocation.
    pub fn clear(&mut self) {
        self.kept.clear();
        self.stride = 1;
        self.seen = 0;
    }

    /// Samples offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept subsample.
    pub fn kept(&self) -> &[u64] {
        &self.kept
    }

    /// Nearest-rank percentile of the kept subsample.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        percentile(&self.kept, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mean_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            [15.0, 30.0, 45.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        let spread = iqr_frac(&v);
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.1), Some(1));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn samples_decimate_uniformly_and_stay_bounded() {
        let mut s = Samples::new(8);
        for x in 0..1000u64 {
            s.push(x);
        }
        assert_eq!(s.seen(), 1000);
        assert!(s.kept().len() < 8);
        let stride = s.kept()[1] - s.kept()[0];
        assert!(stride.is_power_of_two() && stride > 1);
        assert!(s.kept().windows(2).all(|w| w[1] - w[0] == stride));
        // Below the cap every sample is kept.
        let mut t = Samples::new(1 << 10);
        for x in [5, 1, 3] {
            t.push(x);
        }
        assert_eq!(t.kept(), &[5, 1, 3]);
        assert_eq!(t.percentile(50.0), Some(3));
        s.clear();
        s.push(9);
        assert_eq!((s.kept(), s.seen()), (&[9][..], 1));
    }
}
