//! Measurement helpers shared by the bench binaries: the median of a
//! sample and the core count every report is stamped with.

/// The median of `samples` (the mean of the middle pair for an even
/// count; 0 when empty). Sorts `samples` in place, so callers can read
/// percentiles off the sorted slice afterwards.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// The cores this process may run on. Thread-dependent numbers are only
/// meaningful beside it: more workers than cores measure scheduling, not
/// parallel speed-up.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_sorts_and_averages_the_middle_pair() {
        assert_eq!(median(&mut []), 0.0);
        let mut odd = [3.0, 1.0, 2.0];
        assert_eq!(median(&mut odd), 2.0);
        assert_eq!(odd, [1.0, 2.0, 3.0], "sorted in place");
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
