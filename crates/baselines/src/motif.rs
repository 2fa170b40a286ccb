//! Numeric motif discovery — the *numerical curve pattern* side of the
//! paper's §2 contrast ("finding partial periodic patterns \[4\], motifs \[21\],
//! and recurring patterns \[22\] has also been studied in time series;
//! however, the focus was on finding numerical curve patterns rather than
//! symbolic patterns").
//!
//! A brute-force **matrix profile**: for every window of length `m`, the
//! z-normalised Euclidean distance to its nearest non-overlapping neighbour.
//! Motifs are the mutually-nearest low-distance window pairs; recurring
//! numeric shapes surface as profile valleys. O(n²·m) — fine for the
//! laptop-scale signals this workspace handles, and exact (no FFT
//! approximation to validate).

/// A window's nearest-neighbour record.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// Window start index.
    pub index: usize,
    /// Distance to the nearest non-overlapping window.
    pub distance: f64,
    /// Start index of that nearest neighbour.
    pub neighbor: usize,
}

/// A discovered motif: two windows with (locally) minimal mutual distance.
#[derive(Debug, Clone, PartialEq)]
pub struct Motif {
    /// First window start.
    pub a: usize,
    /// Second window start.
    pub b: usize,
    /// Their z-normalised Euclidean distance.
    pub distance: f64,
}

fn znorm(window: &[f64]) -> Vec<f64> {
    let n = window.len() as f64;
    let mean = window.iter().sum::<f64>() / n;
    let sd = (window.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt();
    if sd == 0.0 {
        vec![0.0; window.len()]
    } else {
        window.iter().map(|v| (v - mean) / sd).collect()
    }
}

fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f64>().sqrt()
}

/// Computes the exact matrix profile of `series` for window length `m`,
/// excluding trivially-overlapping matches (|i − j| < m).
///
/// # Panics
/// Panics unless `2 ≤ m` and the series holds at least `2·m` samples.
pub fn matrix_profile(series: &[f64], m: usize) -> Vec<ProfileEntry> {
    assert!(m >= 2, "window length must be at least 2");
    assert!(series.len() >= 2 * m, "need at least two non-overlapping windows");
    let n_windows = series.len() - m + 1;
    let normed: Vec<Vec<f64>> = (0..n_windows).map(|i| znorm(&series[i..i + m])).collect();
    let mut profile: Vec<ProfileEntry> = (0..n_windows)
        .map(|index| ProfileEntry { index, distance: f64::INFINITY, neighbor: index })
        .collect();
    for i in 0..n_windows {
        for j in (i + m)..n_windows {
            let d = dist(&normed[i], &normed[j]);
            if d < profile[i].distance {
                profile[i].distance = d;
                profile[i].neighbor = j;
            }
            if d < profile[j].distance {
                profile[j].distance = d;
                profile[j].neighbor = i;
            }
        }
    }
    profile
}

/// Extracts up to `k` motifs from a matrix profile: repeatedly takes the
/// window with the smallest distance, pairs it with its neighbour, and
/// masks every window overlapping either of the two.
pub fn top_motifs(profile: &[ProfileEntry], m: usize, k: usize) -> Vec<Motif> {
    let mut used = vec![false; profile.len()];
    let mut order: Vec<&ProfileEntry> = profile.iter().collect();
    order.sort_by(|a, b| a.distance.total_cmp(&b.distance));
    let mut out = Vec::new();
    for e in order {
        if out.len() >= k || !e.distance.is_finite() {
            break;
        }
        if used[e.index] || used[e.neighbor] {
            continue;
        }
        out.push(Motif {
            a: e.index.min(e.neighbor),
            b: e.index.max(e.neighbor),
            distance: e.distance,
        });
        for centre in [e.index, e.neighbor] {
            let lo = centre.saturating_sub(m - 1);
            let hi = (centre + m).min(used.len());
            for flag in &mut used[lo..hi] {
                *flag = true;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A signal with a planted shape (ramp-spike) at positions 10 and 70,
    /// random noise elsewhere.
    fn planted_signal() -> Vec<f64> {
        use rpm_timeseries::prng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(0x40717F);
        let shape = [0.0, 1.0, 2.0, 3.0, 10.0, 3.0, 2.0, 1.0];
        let mut s: Vec<f64> = (0..110).map(|_| rng.random_f64()).collect();
        for (k, &v) in shape.iter().enumerate() {
            s[10 + k] = v;
            s[70 + k] = v + 0.05; // same shape, slight offset (z-norm removes it)
        }
        s
    }

    #[test]
    fn planted_shape_is_the_top_motif() {
        let s = planted_signal();
        let profile = matrix_profile(&s, 8);
        let motifs = top_motifs(&profile, 8, 3);
        assert!(!motifs.is_empty());
        let top = &motifs[0];
        assert_eq!((top.a, top.b), (10, 70), "distance {}", top.distance);
        assert!(top.distance < 0.5);
    }

    #[test]
    fn profile_is_symmetric_in_the_best_pair() {
        let s = planted_signal();
        let profile = matrix_profile(&s, 8);
        assert_eq!(profile[10].neighbor, 70);
        assert_eq!(profile[70].neighbor, 10);
        // Neighbour exclusion: no trivial self-matches.
        for e in &profile {
            assert!(e.index.abs_diff(e.neighbor) >= 8);
        }
    }

    #[test]
    fn znorm_makes_scale_and_offset_invisible() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0]; // 10× scale
        let c = [101.0, 102.0, 103.0, 104.0]; // +100 offset
        assert!(dist(&znorm(&a), &znorm(&b)) < 1e-12);
        assert!(dist(&znorm(&a), &znorm(&c)) < 1e-12);
        // Constant windows normalise to zero (no NaNs).
        assert!(znorm(&[5.0; 4]).iter().all(|v| *v == 0.0));
    }

    #[test]
    fn motif_masking_prevents_overlaps() {
        let s = planted_signal();
        let profile = matrix_profile(&s, 8);
        let motifs = top_motifs(&profile, 8, 10);
        for (i, a) in motifs.iter().enumerate() {
            for b in &motifs[i + 1..] {
                for &x in &[a.a, a.b] {
                    for &y in &[b.a, b.b] {
                        assert!(x.abs_diff(y) >= 8, "overlapping motifs {a:?} {b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn symbolic_and_numeric_views_complement() {
        // The same planted recurring shape, seen numerically (motif) and
        // symbolically (discretise → recurring pattern on the high band).
        use rpm_timeseries::{Binning, Discretizer};
        let s = planted_signal();
        let profile = matrix_profile(&s, 8);
        let motif = &top_motifs(&profile, 8, 1)[0];
        assert_eq!((motif.a, motif.b), (10, 70));
        let timestamps: Vec<i64> = (0..s.len() as i64).collect();
        let db =
            Discretizer::new(3, Binning::Gaussian).discretize(&timestamps, &[("sig", s.clone())]);
        let spike = db.items().id("sig:L2").expect("high band");
        let ts = db.timestamps_of(&[spike]);
        // The spike lands in the high band at both motif sites.
        assert!(ts.contains(&14) && ts.contains(&74), "{ts:?}");
    }

    #[test]
    #[should_panic(expected = "two non-overlapping")]
    fn short_series_rejected() {
        let _ = matrix_profile(&[1.0, 2.0, 3.0], 2);
    }
}
