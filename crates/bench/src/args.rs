//! Minimal command-line parsing shared by all experiment binaries — only
//! the flags the reproduction needs, no external dependency.

/// The usage line every binary prints for `--help` and on an argument
/// error.
const USAGE: &str = "usage: [--scale <0..1] | --full] [--seed <n>] [--<key> <value>...]";

/// Common flags: `--scale <f>` (default 0.25), `--seed <n>`, `--full`
/// (shorthand for `--scale 1.0`), `--help`, plus free-form `--key value`
/// extras that individual binaries may read.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// Calendar/transaction-count compression in `(0, 1]`.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// `--help` (or `-h`) was given: print the usage line and run nothing.
    pub help: bool,
    /// Remaining `--key value` pairs.
    pub extra: Vec<(String, String)>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self { scale: 0.25, seed: 1, help: false, extra: Vec::new() }
    }
}

/// Prints an argument error and the usage line, then exits with status 2.
fn exit_usage(message: &str) -> ! {
    eprintln!("argument error: {message}");
    eprintln!("{USAGE}");
    #[allow(clippy::disallowed_methods)] // CLI usage error at process entry
    std::process::exit(2)
}

impl HarnessArgs {
    /// Parses an argument iterator (excluding the program name).
    ///
    /// Unknown `--key value` pairs are kept in `extra`; bare flags become
    /// `(key, "true")` pairs. Returns an error string for malformed input.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Self::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if arg == "-h" {
                out.help = true;
                continue;
            }
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {arg:?}"))?
                .to_string();
            match key.as_str() {
                "help" => out.help = true,
                "full" => out.scale = 1.0,
                "scale" => {
                    let v = iter.next().ok_or("--scale needs a value")?;
                    out.scale = v.parse().map_err(|e| format!("bad --scale {v:?}: {e}"))?;
                    if !(out.scale > 0.0 && out.scale <= 1.0) {
                        return Err(format!("--scale must be in (0,1], got {}", out.scale));
                    }
                }
                "seed" => {
                    let v = iter.next().ok_or("--seed needs a value")?;
                    out.seed = v.parse().map_err(|e| format!("bad --seed {v:?}: {e}"))?;
                }
                _ => {
                    let value = match iter.peek() {
                        Some(v) if !v.starts_with("--") => iter.next().unwrap(),
                        _ => "true".to_string(),
                    };
                    out.extra.push((key, value));
                }
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, exiting with a message on error. With
    /// `--help` it prints the usage line and exits 0 before any work runs.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(a) if a.help => {
                println!("{USAGE}");
                #[allow(clippy::disallowed_methods)] // `--help` at process entry
                std::process::exit(0)
            }
            Ok(a) => a,
            Err(e) => exit_usage(&e),
        }
    }

    /// Looks up an extra flag's value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.extra.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Parses an extra flag, or returns `default` when it is absent. A
    /// value that does not parse is an error, not the default.
    pub fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad --{key} {v:?}: {e}")),
        }
    }

    /// Parses an extra flag as `f64`, with a default; exits with an
    /// argument error when the value does not parse.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.try_get(key, default).unwrap_or_else(|e| exit_usage(&e))
    }

    /// Parses an extra flag as `usize`, with a default; exits with an
    /// argument error when the value does not parse.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.try_get(key, default).unwrap_or_else(|e| exit_usage(&e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, 0.25);
        assert_eq!(a.seed, 1);
    }

    #[test]
    fn scale_seed_and_full() {
        let a = parse(&["--scale", "0.5", "--seed", "9"]).unwrap();
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.seed, 9);
        let a = parse(&["--full"]).unwrap();
        assert_eq!(a.scale, 1.0);
    }

    #[test]
    fn extras_and_bare_flags() {
        let a = parse(&["--mode", "structures", "--verbose"]).unwrap();
        assert_eq!(a.get("mode"), Some("structures"));
        assert_eq!(a.get("verbose"), Some("true"));
        assert_eq!(a.get_f64("missing", 2.5), 2.5);
        assert_eq!(a.get_usize("missing", 7), 7);
        assert!(!a.help);
    }

    #[test]
    fn help_is_a_flag_not_an_extra() {
        for flag in ["--help", "-h"] {
            let a = parse(&["--seed", "3", flag]).unwrap();
            assert!(a.help, "{flag}");
            assert!(a.extra.is_empty(), "{flag}");
        }
    }

    #[test]
    fn numeric_extras_that_do_not_parse_are_errors() {
        let a = parse(&["--reps", "x", "--baseline-ms", "1.5", "--mode", "structures"]).unwrap();
        let reps = a.try_get::<usize>("reps", 5);
        assert_eq!(reps, Err("bad --reps \"x\": invalid digit found in string".to_string()));
        assert!(a.try_get::<usize>("mode", 7).is_err(), "a word is not a count");
        assert_eq!(a.try_get("baseline-ms", 0.0), Ok(1.5));
        assert_eq!(a.try_get("missing", 4usize), Ok(4), "absent takes the default");
        assert_eq!(parse(&["--warmup", "-1"]).unwrap().try_get("warmup", 1usize).ok(), None);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["scale"]).is_err());
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--scale", "1.5"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
    }
}
