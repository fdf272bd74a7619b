//! Order statistics used by every workload: the median and the tail, where
//! the tail is the highest percentile that still has at least
//! [`TAIL_BEYOND`] samples strictly above it.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail of a sample set: its value, the percentile it sits at, and
/// how many samples it was drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the tail percentile.
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Total sample count.
    pub samples: usize,
}

/// The highest percentile of `xs` with at least [`TAIL_BEYOND`] samples
/// beyond it: the sample at sorted index `n - TAIL_BEYOND - 1`, which sits
/// at percentile `100 · (n - TAIL_BEYOND) / n`. `None` when there are too
/// few samples to leave that many beyond any of them.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let i = n - TAIL_BEYOND - 1;
    Some(Tail {
        value: sorted(xs)[i],
        percentile: 100.0 * (i + 1) as f64 / n as f64,
        samples: n,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Mean of `xs` (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).expect("11 samples leave 10 beyond the lowest");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1000 shuffled samples: the tail is p99, the 990th smallest
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        xs.reverse();
        xs.swap(3, 777);
        let t = tail(&xs).expect("enough samples");
        assert_eq!(t.value, 990.0);
        assert!((t.percentile - 99.0).abs() < 1e-9);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_of_a_hundred_is_p90() {
        let xs: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.5).collect();
        let t = tail(&xs).expect("enough samples");
        assert!((t.percentile - 90.0).abs() < 1e-9);
        assert_eq!(t.value, 44.5);
    }
}
