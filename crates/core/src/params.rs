//! User-defined constraints of the recurring-pattern model: `per`, `minPS`
//! and `minRec` (paper Definition 10).

use std::fmt;

use rpm_timeseries::{fnv1a, Timestamp, FNV1A_OFFSET};

use crate::engine::MiningError;

/// A count threshold that may be given absolutely or as a fraction of
/// `|TDB|` (the paper expresses `minPS` both ways, §3 and Table 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Threshold {
    /// An absolute transaction count.
    Count(usize),
    /// A fraction of the database size in `(0, 1]`; resolved with
    /// `max(1, ceil(f · |TDB|))`.
    Fraction(f64),
}

impl Threshold {
    /// Resolves the threshold against a database of `db_len` transactions.
    ///
    /// # Panics
    /// Panics if a [`Threshold::Fraction`] is not in `(0, 1]`. Prefer
    /// [`Threshold::try_resolve`] on user-reachable paths.
    pub fn resolve(self, db_len: usize) -> usize {
        match self.try_resolve(db_len) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Threshold::resolve`]: rejects out-of-range fractions with
    /// [`MiningError::InvalidParams`] instead of panicking.
    pub fn try_resolve(self, db_len: usize) -> Result<usize, MiningError> {
        match self {
            Threshold::Count(c) => Ok(c),
            Threshold::Fraction(f) => {
                if !(f > 0.0 && f <= 1.0) {
                    return Err(MiningError::InvalidParams(format!(
                        "fractional threshold must be in (0,1], got {f}"
                    )));
                }
                Ok(((f * db_len as f64).ceil() as usize).max(1))
            }
        }
    }

    /// Convenience constructor for percentages (`pct(0.1)` = 0.1%).
    pub fn pct(percent: f64) -> Self {
        Threshold::Fraction(percent / 100.0)
    }
}

impl fmt::Display for Threshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Threshold::Count(c) => write!(f, "{c}"),
            Threshold::Fraction(x) => write!(f, "{}%", x * 100.0),
        }
    }
}

/// The inverse of `Display`: `"25"` is an absolute count and `"2%"` a
/// percentage of the database length. Range checks are left to
/// [`RpParams::try_with_threshold`] and [`Threshold::try_resolve`].
impl std::str::FromStr for Threshold {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, String> {
        if let Some(pct) = text.strip_suffix('%') {
            let value: f64 = pct.parse().map_err(|e| format!("bad percentage {text:?}: {e}"))?;
            Ok(Threshold::pct(value))
        } else {
            let value: usize = text.parse().map_err(|e| format!("bad count {text:?}: {e}"))?;
            Ok(Threshold::Count(value))
        }
    }
}

/// The three user-defined constraints of the model (Definition 10):
/// `per` (maximum periodic inter-arrival time), `minPS` (minimum
/// periodic-support of an interesting interval) and `minRec` (minimum number
/// of interesting periodic-intervals).
#[derive(Debug, Clone, PartialEq)]
pub struct RpParams {
    per: Timestamp,
    min_ps: Threshold,
    min_rec: usize,
}

impl RpParams {
    /// Creates parameters with absolute `minPS`.
    ///
    /// # Panics
    /// Panics unless `per > 0`, `min_ps >= 1` and `min_rec >= 1`. Prefer
    /// [`RpParams::try_new`] on user-reachable paths.
    pub fn new(per: Timestamp, min_ps: usize, min_rec: usize) -> Self {
        Self::with_threshold(per, Threshold::Count(min_ps), min_rec)
    }

    /// Fallible [`RpParams::new`], for user-supplied values.
    pub fn try_new(per: Timestamp, min_ps: usize, min_rec: usize) -> Result<Self, MiningError> {
        Self::try_with_threshold(per, Threshold::Count(min_ps), min_rec)
    }

    /// Creates parameters with an arbitrary `minPS` threshold.
    ///
    /// # Panics
    /// Panics on out-of-range values; prefer
    /// [`RpParams::try_with_threshold`] on user-reachable paths.
    pub fn with_threshold(per: Timestamp, min_ps: Threshold, min_rec: usize) -> Self {
        match Self::try_with_threshold(per, min_ps, min_rec) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`RpParams::with_threshold`]: validates the model
    /// constraints and reports violations as
    /// [`MiningError::InvalidParams`].
    pub fn try_with_threshold(
        per: Timestamp,
        min_ps: Threshold,
        min_rec: usize,
    ) -> Result<Self, MiningError> {
        if per <= 0 {
            return Err(MiningError::InvalidParams(format!("per must be positive, got {per}")));
        }
        if let Threshold::Count(c) = min_ps {
            if c < 1 {
                return Err(MiningError::InvalidParams("minPS must be at least 1".into()));
            }
        }
        if let Threshold::Fraction(f) = min_ps {
            if !(f > 0.0 && f <= 1.0) {
                return Err(MiningError::InvalidParams(format!(
                    "fractional minPS must be in (0,1], got {f}"
                )));
            }
        }
        if min_rec < 1 {
            return Err(MiningError::InvalidParams("minRec must be at least 1".into()));
        }
        Ok(Self { per, min_ps, min_rec })
    }

    /// The period threshold `per`.
    pub fn per(&self) -> Timestamp {
        self.per
    }

    /// The unresolved `minPS` threshold.
    pub fn min_ps(&self) -> Threshold {
        self.min_ps
    }

    /// The minimum recurrence `minRec`.
    pub fn min_rec(&self) -> usize {
        self.min_rec
    }

    /// Resolves fractional thresholds against a concrete database size.
    pub fn resolve(&self, db_len: usize) -> ResolvedParams {
        ResolvedParams { per: self.per, min_ps: self.min_ps.resolve(db_len), min_rec: self.min_rec }
    }

    /// Fallible [`RpParams::resolve`], surfacing threshold violations as
    /// [`MiningError::InvalidParams`].
    pub fn try_resolve(&self, db_len: usize) -> Result<ResolvedParams, MiningError> {
        Ok(ResolvedParams {
            per: self.per,
            min_ps: self.min_ps.try_resolve(db_len)?,
            min_rec: self.min_rec,
        })
    }
}

impl fmt::Display for RpParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "per={} minPS={} minRec={}", self.per, self.min_ps, self.min_rec)
    }
}

/// [`RpParams`] with `minPS` resolved to an absolute count — what the miners
/// consume internally.
///
/// Implements `Hash`/`Eq`, so `(dataset fingerprint, ResolvedParams)` works
/// directly as a result-cache key; [`ResolvedParams::cache_key`] packs the
/// same identity into a single `u64` for logging and cache diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResolvedParams {
    /// Maximum inter-arrival time considered periodic.
    pub per: Timestamp,
    /// Minimum periodic-support of an interesting interval (absolute).
    pub min_ps: usize,
    /// Minimum number of interesting periodic-intervals.
    pub min_rec: usize,
}

impl ResolvedParams {
    /// Shorthand constructor used heavily in tests.
    ///
    /// # Panics
    /// Panics on out-of-range values; prefer [`ResolvedParams::try_new`] on
    /// user-reachable paths.
    pub fn new(per: Timestamp, min_ps: usize, min_rec: usize) -> Self {
        match Self::try_new(per, min_ps, min_rec) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`ResolvedParams::new`], for user-supplied values.
    pub fn try_new(per: Timestamp, min_ps: usize, min_rec: usize) -> Result<Self, MiningError> {
        if per > 0 && min_ps >= 1 && min_rec >= 1 {
            Ok(Self { per, min_ps, min_rec })
        } else {
            Err(MiningError::InvalidParams(format!(
                "per must be positive and minPS/minRec at least 1, \
                 got per={per} minPS={min_ps} minRec={min_rec}"
            )))
        }
    }

    /// A stable 64-bit digest of the three constraints (FNV-1a over their
    /// little-endian bytes). Two parameter sets collide only if they hash
    /// equal, so the digest is suitable for cache diagnostics and log
    /// correlation; exact caches should key on the struct itself (`Eq` +
    /// `Hash`), which cannot collide at all.
    pub fn cache_key(&self) -> u64 {
        [
            self.per.to_le_bytes(),
            (self.min_ps as u64).to_le_bytes(),
            (self.min_rec as u64).to_le_bytes(),
        ]
        .iter()
        .fold(FNV1A_OFFSET, |hash, bytes| fnv1a(hash, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_parse_what_they_display() {
        for t in [Threshold::Count(25), Threshold::pct(2.0), Threshold::pct(0.1)] {
            assert_eq!(t.to_string().parse::<Threshold>(), Ok(t), "{t}");
        }
        assert_eq!(
            ["25", "2%", "0.1%"].map(|s| s.parse::<Threshold>().unwrap().to_string()),
            ["25", "2%", "0.1%"]
        );
        for bad in ["%", "x%", "-1"] {
            assert!(bad.parse::<Threshold>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn absolute_thresholds_pass_through() {
        assert_eq!(Threshold::Count(7).resolve(100), 7);
    }

    #[test]
    fn fractions_resolve_with_ceiling_and_floor_of_one() {
        assert_eq!(Threshold::Fraction(0.001).resolve(59_240), 60); // 0.1% of Shop-14
        assert_eq!(Threshold::pct(2.0).resolve(177_120), 3543); // 2% of Twitter, ceil
        assert_eq!(Threshold::Fraction(0.5).resolve(1), 1);
        assert_eq!(Threshold::Fraction(0.0001).resolve(10), 1); // floor of one
    }

    #[test]
    #[should_panic(expected = "(0,1]")]
    fn fraction_out_of_range_panics() {
        let _ = Threshold::Fraction(1.5).resolve(10);
    }

    #[test]
    fn params_resolve_running_example() {
        let p = RpParams::new(2, 3, 2);
        let r = p.resolve(12);
        assert_eq!(r, ResolvedParams { per: 2, min_ps: 3, min_rec: 2 });
    }

    #[test]
    #[should_panic(expected = "per must be positive")]
    fn zero_per_rejected() {
        let _ = RpParams::new(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "minRec")]
    fn zero_min_rec_rejected() {
        let _ = RpParams::new(1, 1, 0);
    }

    #[test]
    #[should_panic(expected = "minPS")]
    fn zero_min_ps_rejected() {
        let _ = RpParams::new(1, 0, 1);
    }

    #[test]
    fn cache_key_distinguishes_every_field() {
        let base = ResolvedParams::new(2, 3, 2);
        // Served as `X-Rpm-Cache-Key`: the value is part of the wire format.
        assert_eq!(base.cache_key(), 0x201c_df08_57af_4346);
        for other in [
            ResolvedParams::new(3, 3, 2),
            ResolvedParams::new(2, 4, 2),
            ResolvedParams::new(2, 3, 3),
        ] {
            assert_ne!(base.cache_key(), other.cache_key(), "{other:?}");
        }
    }

    #[test]
    fn display_is_compact() {
        let p = RpParams::with_threshold(1440, Threshold::pct(2.0), 3);
        assert_eq!(p.to_string(), "per=1440 minPS=2% minRec=3");
    }
}
