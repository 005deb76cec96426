//! Order statistics for reported timings.

/// Samples a reported tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A tail latency: the highest nearest-rank percentile that still has
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in (0, 100).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Total samples.
    pub n: usize,
}

/// The tail rule. With `n` sorted samples, rank `r` (0-based) has
/// `n - 1 - r` samples ranked above it, so the highest rank keeping
/// [`TAIL_BEYOND`] above is `n - 1 - TAIL_BEYOND`; its nearest-rank
/// percentile is `100 (r + 1) / n`. `None` below `TAIL_BEYOND + 1`
/// samples, where no percentile qualifies.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let r = n - 1 - TAIL_BEYOND;
    Some(Tail {
        pct: 100.0 * (r + 1) as f64 / n as f64,
        value: v[r],
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(
            tail(&ten),
            None,
            "ten samples leave no percentile with ten above it"
        );
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!((t.value, t.n), (1.0, 11));
    }

    #[test]
    fn tail_is_p90_of_a_hundred_and_p99_of_a_thousand() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!((t.pct, t.value), (90.0, 90.0));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand).unwrap();
        assert_eq!((t.pct, t.value), (99.0, 990.0));
    }

    #[test]
    fn tail_percentile_is_not_rounded_up() {
        // 25 samples: rank 14 (value 15) is the last with ten above it,
        // i.e. the 60th nearest-rank percentile.
        let xs: Vec<f64> = (1..=25).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value), (60.0, 15.0));
    }
}
