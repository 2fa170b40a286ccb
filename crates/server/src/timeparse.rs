//! Human-friendly duration parsing, shared by the CLI's `--timeout` and the
//! server's per-request `timeout=` query parameter.
//!
//! Accepted forms: `250ms`, `30s`, `5m`, `2h`, or a bare number of seconds
//! (fractions allowed everywhere, e.g. `1.5h`). Out-of-range values —
//! negative, NaN, infinite, or so large the `Duration` would overflow — are
//! rejected with a descriptive message in the same `invalid parameters:`
//! style as [`rpm_core::engine::MiningError::InvalidParams`], never silently
//! wrapped or saturated.

use std::time::Duration;

/// Parses a duration: `250ms`, `30s`, `5m`, `2h`, or a bare number of
/// seconds, fractions allowed; out-of-range values are rejected.
pub fn parse_duration(text: &str) -> Result<Duration, String> {
    let t = text.trim();
    // Longest suffix first: `ms` must win over `m`.
    let (num, seconds_per_unit) = if let Some(v) = t.strip_suffix("ms") {
        (v, 1e-3)
    } else if let Some(v) = t.strip_suffix('s') {
        (v, 1.0)
    } else if let Some(v) = t.strip_suffix('m') {
        (v, 60.0)
    } else if let Some(v) = t.strip_suffix('h') {
        (v, 3600.0)
    } else {
        (t, 1.0)
    };
    let num = num.trim();
    if num.is_empty() {
        return Err(format!("invalid parameters: duration {text:?} has no number"));
    }
    let value: f64 =
        num.parse().map_err(|e| format!("invalid parameters: bad duration {text:?}: {e}"))?;
    if value.is_nan() || value < 0.0 {
        return Err(format!("invalid parameters: duration {text:?} must be non-negative"));
    }
    Duration::try_from_secs_f64(value * seconds_per_unit).map_err(|_| {
        format!("invalid parameters: duration {text:?} overflows the representable range")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_units_parse() {
        assert_eq!(parse_duration("250ms").unwrap(), Duration::from_millis(250));
        assert_eq!(parse_duration("30s").unwrap(), Duration::from_secs(30));
        assert_eq!(parse_duration("5m").unwrap(), Duration::from_secs(300));
        assert_eq!(parse_duration("2h").unwrap(), Duration::from_secs(7200));
        assert_eq!(parse_duration("45").unwrap(), Duration::from_secs(45), "bare = seconds");
        assert_eq!(parse_duration(" 1.5h ").unwrap(), Duration::from_secs(5400));
        assert_eq!(parse_duration("0ms").unwrap(), Duration::ZERO);
    }

    #[test]
    fn out_of_range_values_are_rejected_not_wrapped() {
        for bad in ["-1s", "nan", "inf", "1e300h", "99999999999999999999h", "1e20s"] {
            let err = parse_duration(bad).unwrap_err();
            assert!(err.starts_with("invalid parameters:"), "{bad}: {err}");
        }
    }

    #[test]
    fn garbage_is_rejected_with_context() {
        for bad in ["", "ms", "h", "fiveish", "10q", "--3s"] {
            assert!(parse_duration(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn huge_but_representable_values_survive() {
        // u64::MAX seconds is the Duration ceiling; stay well under it.
        let d = parse_duration("1000000h").unwrap();
        assert_eq!(d, Duration::from_secs(3_600_000_000));
    }
}
