//! Pass 5 support: the committed findings baseline.
//!
//! The interprocedural passes surface pre-existing debt (chiefly indexing
//! in the mining core, which is engine-reachable). Rather than waiving
//! hundreds of sites inline, the repo commits a baseline file and the
//! gate fails only on findings **not** in it.
//!
//! An entry is keyed by `(rule, file, key)` with an occurrence `count`,
//! where the key is the finding's message ([`key_message`]) — messages
//! carry function names but never line numbers, so unrelated edits do not
//! churn the file, while a *new* unwrap in an already-listed function
//! still trips the gate (the count grows). A `panic-reachability` finding
//! is keyed by its site and enclosing function only, the part of the
//! message before "reachable from": its reach chain stays in the printed
//! message, so an edit elsewhere that moves the chain does not turn an
//! unchanged site into a new finding. Stale entries (baselined findings
//! that no longer occur) are reported as notes and never fail the gate;
//! regenerate with `rpm-lint --write-baseline` to tighten.
//!
//! The format is a restricted subset of JSON written and parsed by this
//! module alone (std-only, deterministic ordering).

use std::collections::BTreeMap;

use crate::{Violation, RULE_PANIC_REACH};

/// Grouping key for baseline matching: `(rule, file, key message)`.
pub type Key = (String, String, String);

/// The part of a finding's `message` that keys its baseline entry: all of
/// it, except that a `panic-reachability` finding drops its reach chain
/// and keeps the site and its enclosing function.
pub fn key_message<'a>(rule: &str, message: &'a str) -> &'a str {
    match message.split_once(", reachable from ") {
        Some((site, _)) if rule == RULE_PANIC_REACH => site,
        _ => message,
    }
}

/// A parsed baseline: key → allowed occurrence count.
#[derive(Debug, Default)]
pub struct Baseline {
    /// `(rule, file, message)` → count.
    pub entries: BTreeMap<Key, usize>,
}

/// A group of current findings the baseline does not cover.
#[derive(Debug)]
pub struct NewFinding {
    /// The group's baseline key.
    pub key: Key,
    /// Occurrences beyond the baselined count.
    pub excess: usize,
    /// Lines of every occurrence in the current run.
    pub lines: Vec<u32>,
    /// The first occurrence's full message, reach chain included.
    pub message: String,
}

/// The outcome of diffing a report against a baseline.
#[derive(Debug, Default)]
pub struct BaselineDiff {
    /// Findings not covered by the baseline.
    pub new: Vec<NewFinding>,
    /// Baseline entries no longer (fully) observed: (key, unused count).
    pub stale: Vec<(Key, usize)>,
}

impl BaselineDiff {
    /// Whether the gate should pass (stale entries never fail it).
    pub fn is_clean(&self) -> bool {
        self.new.is_empty()
    }
}

/// Groups current violations by baseline key: each group's occurrences,
/// in report order.
fn group(violations: &[Violation]) -> BTreeMap<Key, Vec<&Violation>> {
    let mut m: BTreeMap<Key, Vec<&Violation>> = BTreeMap::new();
    for v in violations {
        let k = (v.rule.to_string(), v.file.clone(), key_message(v.rule, &v.message).to_string());
        m.entry(k).or_default().push(v);
    }
    m
}

/// Diffs the current findings against a baseline.
pub fn diff(violations: &[Violation], baseline: &Baseline) -> BaselineDiff {
    let current = group(violations);
    let mut out = BaselineDiff::default();
    for (key, found) in &current {
        let allowed = baseline.entries.get(key).copied().unwrap_or(0);
        if found.len() > allowed {
            out.new.push(NewFinding {
                key: key.clone(),
                excess: found.len() - allowed,
                lines: found.iter().map(|v| v.line).collect(),
                message: found.first().map(|v| v.message.clone()).unwrap_or_default(),
            });
        }
    }
    for (key, allowed) in &baseline.entries {
        let seen = current.get(key).map_or(0, Vec::len);
        if seen < *allowed {
            out.stale.push((key.clone(), allowed - seen));
        }
    }
    out
}

/// Renders the current findings as a baseline file (sorted, stable).
pub fn render(violations: &[Violation]) -> String {
    let grouped = group(violations);
    let mut s = String::from("{\n  \"version\": 1,\n  \"entries\": [");
    for (i, ((rule, file, message), found)) in grouped.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"count\": {}, \"message\": \"{}\"}}",
            crate::json_escape(rule),
            crate::json_escape(file),
            found.len(),
            crate::json_escape(message)
        ));
    }
    if !grouped.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Parses a baseline file. Tolerates whitespace but nothing fancier than
/// what [`render`] emits. Entry messages are reduced to their
/// [`key_message`], so a file written with full messages still matches.
pub fn parse(text: &str) -> Result<Baseline, String> {
    let mut p = P { b: text.as_bytes(), i: 0 };
    p.ws();
    p.expect(b'{')?;
    let mut baseline = Baseline::default();
    loop {
        p.ws();
        if p.eat(b'}') {
            break;
        }
        let field = p.string()?;
        p.ws();
        p.expect(b':')?;
        p.ws();
        match field.as_str() {
            "version" => {
                let v = p.number()?;
                if v != 1 {
                    return Err(format!("unsupported baseline version {v}"));
                }
            }
            "entries" => {
                p.expect(b'[')?;
                loop {
                    p.ws();
                    if p.eat(b']') {
                        break;
                    }
                    let (key, count) = p.entry()?;
                    *baseline.entries.entry(key).or_insert(0) += count;
                    p.ws();
                    if !p.eat(b',') {
                        p.ws();
                        p.expect(b']')?;
                        break;
                    }
                }
            }
            other => return Err(format!("unknown baseline field {other:?}")),
        }
        p.ws();
        if !p.eat(b',') {
            p.ws();
            p.expect(b'}')?;
            break;
        }
    }
    Ok(baseline)
}

struct P<'a> {
    b: &'a [u8],
    i: usize,
}

impl P<'_> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!(
                "baseline parse error at byte {}: expected {:?}, found {:?}",
                self.i,
                c as char,
                self.b.get(self.i).map(|&b| b as char)
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("baseline parse error: unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("baseline parse error: truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "baseline parse error: bad \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "baseline parse error: bad \\u escape")?;
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        other => {
                            return Err(format!(
                                "baseline parse error: unsupported escape {other:?}"
                            ))
                        }
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the file is valid UTF-8:
                    // it came from read_to_string).
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| "baseline parse error: invalid UTF-8")?;
                    let c = rest.chars().next().ok_or("baseline parse error: empty char")?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<usize, String> {
        let start = self.i;
        while self.b.get(self.i).is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if start == self.i {
            return Err(format!("baseline parse error at byte {start}: expected a number"));
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "baseline parse error: bad number".to_string())
    }

    fn entry(&mut self) -> Result<(Key, usize), String> {
        self.expect(b'{')?;
        let mut rule = None;
        let mut file = None;
        let mut message = None;
        let mut count = 1usize;
        loop {
            self.ws();
            if self.eat(b'}') {
                break;
            }
            let field = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            match field.as_str() {
                "rule" => rule = Some(self.string()?),
                "file" => file = Some(self.string()?),
                "message" => message = Some(self.string()?),
                "count" => count = self.number()?,
                other => return Err(format!("unknown baseline entry field {other:?}")),
            }
            self.ws();
            if !self.eat(b',') {
                self.ws();
                self.expect(b'}')?;
                break;
            }
        }
        match (rule, file, message) {
            (Some(r), Some(f), Some(m)) => {
                let m = key_message(&r, &m).to_string();
                Ok(((r, f, m), count))
            }
            _ => Err("baseline entry missing rule/file/message".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RULE_PANIC_REACH;

    fn v(file: &str, line: u32, message: &str) -> Violation {
        Violation {
            rule: RULE_PANIC_REACH,
            file: file.to_string(),
            line,
            message: message.to_string(),
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let vs = vec![
            v("a.rs", 3, "boom \"quoted\""),
            v("a.rs", 9, "boom \"quoted\""),
            v("b.rs", 1, "other"),
        ];
        let text = render(&vs);
        let parsed = parse(&text).expect("parse");
        assert_eq!(parsed.entries.len(), 2);
        let key = (RULE_PANIC_REACH.to_string(), "a.rs".to_string(), "boom \"quoted\"".to_string());
        assert_eq!(parsed.entries.get(&key), Some(&2));
        assert!(diff(&vs, &parsed).is_clean());
    }

    #[test]
    fn extra_occurrence_of_known_finding_is_new() {
        let old = vec![v("a.rs", 3, "boom")];
        let baseline = parse(&render(&old)).expect("parse");
        let now = vec![v("a.rs", 3, "boom"), v("a.rs", 40, "boom")];
        let d = diff(&now, &baseline);
        assert!(!d.is_clean());
        assert_eq!(d.new.len(), 1);
        assert_eq!(d.new[0].excess, 1, "one excess occurrence");
        assert_eq!(d.new[0].lines, vec![3, 40], "example lines from the current run");
    }

    #[test]
    fn panic_reach_entries_are_keyed_by_site_not_chain() {
        let site = "`.unwrap(...)` in `decode`";
        let via = |chain: &str| {
            format!("{site}, reachable from serving entry `serve` via {chain}; degrade to an error")
        };
        let baseline = parse(&render(&[v("a.rs", 3, &via("serve -> decode"))])).expect("parse");
        let key = (RULE_PANIC_REACH.to_string(), "a.rs".to_string(), site.to_string());
        assert_eq!(baseline.entries.get(&key), Some(&1), "{:?}", baseline.entries);
        // The same site, reached along a new path: still covered.
        let moved = [v("a.rs", 5, &via("serve -> parse -> decode"))];
        assert!(diff(&moved, &baseline).is_clean());
        // A second site in the same function is new, and is printed with
        // its chain.
        let more = [v("a.rs", 5, &via("serve -> decode")), v("a.rs", 9, &via("serve -> decode"))];
        let d = diff(&more, &baseline);
        assert_eq!(d.new.len(), 1);
        assert_eq!(d.new[0].message, via("serve -> decode"));
        // A file written with full messages parses to the same keys.
        let full = format!(
            "{{\"version\": 1, \"entries\": [{{\"rule\": \"{RULE_PANIC_REACH}\", \
             \"file\": \"a.rs\", \"count\": 1, \"message\": \"{}\"}}]}}",
            via("serve -> decode")
        );
        assert_eq!(parse(&full).expect("parse").entries, baseline.entries);
    }

    #[test]
    fn line_churn_does_not_invalidate() {
        let baseline = parse(&render(&[v("a.rs", 3, "boom")])).expect("parse");
        let d = diff(&[v("a.rs", 300, "boom")], &baseline);
        assert!(d.is_clean(), "{d:?}");
        assert!(d.stale.is_empty());
    }

    #[test]
    fn fixed_finding_becomes_stale_not_failing() {
        let baseline = parse(&render(&[v("a.rs", 3, "boom"), v("b.rs", 1, "x")])).expect("parse");
        let d = diff(&[v("b.rs", 1, "x")], &baseline);
        assert!(d.is_clean());
        assert_eq!(d.stale.len(), 1);
        assert_eq!(d.stale[0].0 .1, "a.rs");
    }

    #[test]
    fn empty_baseline_renders_and_parses() {
        let text = render(&[]);
        let parsed = parse(&text).expect("parse");
        assert!(parsed.entries.is_empty());
    }

    #[test]
    fn garbage_is_rejected_with_context() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"version\": 2, \"entries\": []}").is_err());
        assert!(parse("{\"entries\": [{\"rule\": \"r\"}]}").is_err());
    }
}
