//! Order statistics shared by every workload and by `compare`.
//!
//! Percentiles follow one rule everywhere: a timing is reported as its
//! median plus the highest of p99, p90 and p50 that has at least ten
//! samples beyond it, together with the sample count. A "p99" of 60
//! samples is just their maximum, so it is never published as one.

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;
/// Fewest samples that support any tail (p50 with ten beyond it).
pub const TAIL_MIN_SAMPLES: usize = 2 * TAIL_MIN_BEYOND;

/// Median of `xs`: the middle value, or the mean of the two middle
/// values for an even count. NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// First and third quartiles by the exclusive method, the default of
/// Python's `statistics.quantiles(xs, n=4)`: the quartile at rank
/// `p·(n+1)` (1-based), linearly interpolated and clamped to the data.
/// A single sample is its own quartiles; NaN for an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let at = |p: f64| {
        let rank = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = rank.floor() as usize;
        let frac = rank - lo as f64;
        let hi = (lo + 1).min(n);
        s[lo - 1] + frac * (s[hi - 1] - s[lo - 1])
    };
    (at(0.25), at(0.75))
}

/// Interquartile distance as a share of the median's magnitude. Zero
/// when the median is zero and the quartiles agree; infinite when only
/// the median is zero.
pub fn relative_spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs).abs();
    if q3 - q1 == 0.0 {
        0.0
    } else if m == 0.0 {
        f64::INFINITY
    } else {
        (q3 - q1) / m
    }
}

/// A reported tail: which percentile, its value, and the sample count
/// it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// 99, 90 or 50.
    pub pct: u32,
    /// The percentile's value (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

impl Tail {
    /// The label the harness prints, e.g. `p99`.
    pub fn label(&self) -> String {
        format!("p{}", self.pct)
    }
}

/// Nearest-rank percentile `pct` of an ascending slice: the value at
/// 1-based rank `ceil(pct/100 · n)`.
fn nearest_rank(sorted: &[f64], pct: u32) -> (usize, f64) {
    let n = sorted.len();
    let rank = ((pct as usize * n).div_ceil(100)).clamp(1, n);
    (rank, sorted[rank - 1])
}

/// The highest of p99, p90 and p50 with at least [`TAIL_MIN_BEYOND`]
/// samples ranked above it; `None` when the sample is too small for
/// any of them (fewer than [`TAIL_MIN_SAMPLES`]).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    if n < TAIL_MIN_SAMPLES {
        return None;
    }
    [99, 90, 50].into_iter().find_map(|pct| {
        let (rank, value) = nearest_rank(&s, pct);
        (n - rank >= TAIL_MIN_BEYOND).then_some(Tail {
            pct,
            value,
            samples: n,
        })
    })
}

/// Nearest-rank percentile of unsorted samples; NaN when empty. For
/// per-layer summaries whose percentile is fixed by name.
pub fn percentile(xs: &[f64], pct: u32) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return f64::NAN;
    }
    nearest_rank(&s, pct).1
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // Two samples: ranks 0.75 and 2.25 clamp to the ends.
        assert_eq!(quartiles(&[5.0, 1.0]), (1.0, 5.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, ten beyond it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (99, 990.0, 1000));
        // 999 samples: p99 leaves only nine beyond, so p90 it is.
        let t = tail(&xs[..999]).unwrap();
        assert_eq!((t.pct, t.value), (90, 900.0));
        // 20 samples: p90 leaves two, p50 leaves ten.
        let t = tail(&xs[..20]).unwrap();
        assert_eq!((t.pct, t.value), (50, 10.0));
        assert_eq!(t.label(), "p50");
    }

    #[test]
    fn sixty_samples_never_publish_a_p99() {
        let xs: Vec<f64> = (1..=60).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.pct, 50, "the max of 60 is not a p99");
        assert_eq!(t.samples, 60);
    }

    #[test]
    fn small_samples_have_no_tail() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(tail(&xs).is_none(), "19 samples leave nine beyond p50");
        assert!(tail(&[3.0, 9.0, 4.0]).is_none());
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 90), 90.0);
        assert_eq!(percentile(&xs, 99), 99.0);
        assert!(percentile(&[], 50).is_nan());
    }
}
