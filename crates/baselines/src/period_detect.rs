//! Period detection for point sequences — the "unknown periods" half of Ma
//! & Hellerstein's title (ICDE 2001, the paper's \[7\]) plus the
//! autocorrelation approach of Berberidis et al. (PKDD 2002, the paper's
//! \[10\], "On the discovery of weak periodicities in large time series").
//!
//! Everywhere else in this workspace the period (`per`) is user-supplied,
//! as in the EDBT paper's evaluation; these detectors close the loop for
//! data where no domain period is known.
//!
//! * [`chi_squared_periods`] — M&H's point method: under a random
//!   (Poisson-ish) arrival null, each inter-arrival value `δ` has an
//!   expected count; values whose observed count exceeds the expectation by
//!   a chi-squared margin are candidate periods.
//! * [`autocorrelation_periods`] — Berberidis-style: the occurrence
//!   sequence is binarised per time unit and circularly self-compared at
//!   each candidate lag; lags whose hit ratio beats the density-squared
//!   null stand out.

use rpm_timeseries::Timestamp;

/// A detected candidate period with its evidence score.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedPeriod {
    /// The candidate period, in timestamp units.
    pub period: Timestamp,
    /// Method-specific score (chi-squared statistic, or autocorrelation
    /// lift over the null). Higher is stronger.
    pub score: f64,
    /// Observed occurrences supporting the period (iat count or
    /// autocorrelation hits).
    pub occurrences: usize,
}

/// Chi-squared period detection over inter-arrival times (Ma &
/// Hellerstein's point procedure).
///
/// For `n` arrivals spread over span `T`, a random process produces each
/// exact inter-arrival value `δ ∈ 1..=max_period` with roughly probability
/// `ρ(1−ρ)^{δ−1}` (geometric with density `ρ = n/T`). Values whose
/// observed count `o` exceeds the expected `e` with
/// `(o−e)² / e ≥ threshold` (e.g. 3.84 for 95 % confidence, 1 dof) are
/// reported, strongest first.
pub fn chi_squared_periods(
    ts: &[Timestamp],
    max_period: Timestamp,
    threshold: f64,
) -> Vec<DetectedPeriod> {
    assert!(max_period >= 1, "max_period must be positive");
    assert!(threshold > 0.0, "threshold must be positive");
    if ts.len() < 3 {
        return Vec::new();
    }
    let span = (ts[ts.len() - 1] - ts[0]).max(1) as f64;
    let n = ts.len() as f64;
    let density = (n / span).min(0.999_999);
    let iats = ts.len() - 1;

    let mut counts = vec![0usize; max_period as usize + 1];
    for w in ts.windows(2) {
        let iat = w[1] - w[0];
        if iat >= 1 && iat <= max_period {
            counts[iat as usize] += 1;
        }
    }
    let mut out = Vec::new();
    for (delta, &observed) in counts.iter().enumerate().skip(1) {
        if observed == 0 {
            continue;
        }
        let p = density * (1.0 - density).powi(delta as i32 - 1);
        let expected = (iats as f64 * p).max(f64::MIN_POSITIVE);
        if (observed as f64) <= expected {
            continue;
        }
        let chi2 = (observed as f64 - expected).powi(2) / expected;
        if chi2 >= threshold {
            out.push(DetectedPeriod {
                period: delta as Timestamp,
                score: chi2,
                occurrences: observed,
            });
        }
    }
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.period.cmp(&b.period)));
    out
}

/// Autocorrelation period detection (Berberidis-style): binarise the point
/// sequence over `[first, last]`, count positions `t` where both `t` and
/// `t + lag` carry an occurrence, and report lags whose hit ratio exceeds
/// `lift` times the squared-density null.
pub fn autocorrelation_periods(
    ts: &[Timestamp],
    max_period: Timestamp,
    lift: f64,
) -> Vec<DetectedPeriod> {
    assert!(max_period >= 1, "max_period must be positive");
    assert!(lift > 1.0, "lift must exceed 1.0");
    if ts.len() < 3 {
        return Vec::new();
    }
    let first = ts[0];
    let len = (ts[ts.len() - 1] - first + 1) as usize;
    if len < 2 {
        return Vec::new();
    }
    let mut present = vec![false; len];
    for &t in ts {
        present[(t - first) as usize] = true;
    }
    let density = ts.len() as f64 / len as f64;
    let null = density * density;

    let mut out = Vec::new();
    for lag in 1..=(max_period as usize).min(len - 1) {
        let positions = len - lag;
        let hits = (0..positions).filter(|&t| present[t] && present[t + lag]).count();
        let ratio = hits as f64 / positions as f64;
        if positions >= 4 && ratio > lift * null {
            out.push(DetectedPeriod {
                period: lag as Timestamp,
                score: ratio / null,
                occurrences: hits,
            });
        }
    }
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.period.cmp(&b.period)));
    out
}

/// Consensus helper: periods reported by **both** detectors (harmonics
/// included), ranked by the autocorrelation score — a practical default for
/// feeding the miners' `per` parameter.
pub fn consensus_periods(ts: &[Timestamp], max_period: Timestamp) -> Vec<DetectedPeriod> {
    let chi = chi_squared_periods(ts, max_period, 3.84);
    let auto = autocorrelation_periods(ts, max_period, 2.0);
    auto.into_iter().filter(|a| chi.iter().any(|c| c.period == a.period)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpm_timeseries::prng::Pcg32;

    /// Exact period-7 arrivals with mild jitterless noise points.
    fn periodic_with_noise(seed: u64) -> Vec<Timestamp> {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut ts: Vec<Timestamp> = (0..60).map(|k| k * 7).collect();
        for _ in 0..15 {
            ts.push(rng.random_range(0..420i64));
        }
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    #[test]
    fn chi_squared_finds_the_planted_period() {
        let ts = periodic_with_noise(1);
        let detected = chi_squared_periods(&ts, 20, 3.84);
        assert!(!detected.is_empty());
        assert_eq!(detected[0].period, 7, "strongest candidate is the planted period");
    }

    #[test]
    fn autocorrelation_finds_the_period_and_its_harmonics() {
        let ts: Vec<Timestamp> = (0..80).map(|k| k * 5).collect();
        let detected = autocorrelation_periods(&ts, 18, 2.0);
        let periods: Vec<Timestamp> = detected.iter().map(|d| d.period).collect();
        assert!(periods.contains(&5));
        assert!(periods.contains(&10), "harmonics surface too: {periods:?}");
        assert!(!periods.contains(&7));
    }

    #[test]
    fn random_sequences_yield_no_strong_periods() {
        let mut rng = Pcg32::seed_from_u64(5);
        let mut ts: Vec<Timestamp> = (0..150).map(|_| rng.random_range(0..1000i64)).collect();
        ts.sort_unstable();
        ts.dedup();
        // Chi-squared at 99.9% confidence: the occasional random spike must
        // not dominate; allow a couple of marginal detections but nothing
        // with a large count.
        let detected = chi_squared_periods(&ts, 30, 10.83);
        for d in &detected {
            assert!(d.occurrences < 12, "random data produced {d:?}");
        }
        let auto = autocorrelation_periods(&ts, 30, 3.0);
        assert!(auto.len() < 5, "random data produced {auto:?}");
    }

    #[test]
    fn consensus_is_the_intersection() {
        let ts = periodic_with_noise(2);
        let consensus = consensus_periods(&ts, 20);
        assert!(consensus.iter().any(|d| d.period == 7));
        let chi: Vec<Timestamp> =
            chi_squared_periods(&ts, 20, 3.84).iter().map(|d| d.period).collect();
        for d in &consensus {
            assert!(chi.contains(&d.period));
        }
    }

    #[test]
    fn detected_period_feeds_the_miners() {
        // End-to-end: detect the period, mine with it, recover the pattern.
        let mut b = rpm_timeseries::DbBuilder::new();
        for k in 0..50i64 {
            b.add_labeled(k * 6, &["pulse", "echo"]);
        }
        for k in 0..40i64 {
            b.add_labeled(k * 11 + 3, &["noise"]);
        }
        let db = b.build();
        let pulse = db.pattern_ids(&["pulse"]).unwrap();
        let ts = db.timestamps_of(&pulse);
        let per = consensus_periods(&ts, 20).first().expect("period detected").period;
        assert_eq!(per, 6);
        let mined = rpm_core::engine::MiningSession::builder()
            .resolved(rpm_core::ResolvedParams::new(per, 40, 1))
            .build()
            .unwrap()
            .mine(&db)
            .unwrap()
            .into_result();
        let pair = {
            let mut v = db.pattern_ids(&["pulse", "echo"]).unwrap();
            v.sort_unstable();
            v
        };
        assert!(mined.patterns.iter().any(|p| p.items == pair));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(chi_squared_periods(&[], 10, 3.84).is_empty());
        assert!(chi_squared_periods(&[1, 2], 10, 3.84).is_empty());
        assert!(autocorrelation_periods(&[5], 10, 2.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "lift")]
    fn lift_at_most_one_rejected() {
        let _ = autocorrelation_periods(&[1, 2, 3], 5, 1.0);
    }
}
