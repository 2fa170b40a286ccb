//! Order statistics for latency samples.

/// Samples needed beyond a percentile for it to count as the tail.
pub const TAIL_BEYOND: usize = 10;

/// A sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of a latency population: the highest percentile that still
/// has at least [`TAIL_BEYOND`] samples above it. Returns
/// `(value, percentile, samples)`; with too few samples for any tail the
/// maximum is reported at percentile 100.
pub fn tail(samples: &[f64]) -> (f64, f64, usize) {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    if n <= TAIL_BEYOND {
        return (v[n - 1], 100.0, n);
    }
    let idx = n - 1 - TAIL_BEYOND;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&xs);
        assert_eq!(n, 100);
        assert_eq!(value, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        assert!((pct - 90.0).abs() < 1e-9);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.5);
        assert_eq!(median(&xs[..9]), 5.0);
    }
}
