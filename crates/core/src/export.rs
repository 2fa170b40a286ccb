//! Export of mined patterns and rules to machine-readable formats.
//!
//! Two formats, both dependency-free:
//!
//! * **JSON lines** — one object per pattern/rule, for notebooks and
//!   downstream pipelines;
//! * **TSV** — one row per pattern with intervals flattened, for
//!   spreadsheets and `join`-style shell work.
//!
//! Labels are resolved through the item table so exports are
//! self-describing; JSON strings are escaped per RFC 8259 by
//! [`push_json_str`], the workspace's one JSON string escaper.
//!
//! The writers sit on the serving path (every mine, append patch and
//! `active` stab renders a pattern's JSON line through one renderer), so
//! they allocate nothing per record. Integers are formatted straight into
//! one reused byte buffer, which is handed to the sink every 64 KiB. Each
//! label is escaped once per call, on first use, and copied from then on.
//!
//! A served result that an append patches changes in a few of its lines:
//! [`splice_patterns_json`] builds the new body from the previous one,
//! copying the line of every pattern the append left equal and rendering
//! only the rest, and records where each line ends for the next splice.

use std::io::Write;
use std::ops::Range;

use rpm_timeseries::{ItemId, ItemTable};

use crate::pattern::{canonical_cmp, PeriodicInterval, RecurringPattern};
use crate::rules::RecurringRule;

/// Bytes a writer renders before handing them to its sink in one
/// `write_all` call.
const CHUNK_BYTES: usize = 64 * 1024;

/// Appends `s` to `out` as a JSON string literal: quoted, with `"`, `\`
/// and the control characters below U+0020 escaped (`\n`, `\r`, `\t` by
/// name, the rest as `\u00XX`). Runs of bytes that need no escape, which
/// includes all non-ASCII text, are copied in one piece.
pub fn push_json_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let mut rest = s.as_bytes();
    while let Some(at) = rest.iter().position(|&b| b < 0x20 || b == b'"' || b == b'\\') {
        let (run, tail) = rest.split_at(at);
        out.extend_from_slice(run);
        let Some((&b, tail)) = tail.split_first() else { break };
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => {
                let low = b & 0xf;
                out.extend_from_slice(b"\\u00");
                out.push(b'0' + (b >> 4));
                out.push(if low < 10 { b'0' + low } else { b'a' + low - 10 });
            }
        }
        rest = tail;
    }
    out.extend_from_slice(rest);
    out.push(b'"');
}

/// Appends the decimal digits of `v`.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    // u64::MAX has 20 digits; they are produced last to first.
    let mut digits = [0u8; 20];
    let mut len = 0;
    for slot in digits.iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        len += 1;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(digits.get(digits.len() - len..).unwrap_or_default());
}

/// Appends `v` in decimal, with a leading `-` when negative.
fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Item labels as JSON string literals, escaped once per writer call, on
/// first use, and copied from then on.
struct QuotedLabels<'a> {
    items: &'a ItemTable,
    /// The rendered literals, back to back.
    text: Vec<u8>,
    /// Per item id, the byte range of its literal in `text`; `(0, 0)`
    /// until first use (a literal is never empty: it has its quotes).
    spans: Vec<(usize, usize)>,
}

impl<'a> QuotedLabels<'a> {
    fn new(items: &'a ItemTable) -> Self {
        QuotedLabels { items, text: Vec::new(), spans: Vec::new() }
    }

    /// Appends `ids` as a JSON array of their labels; ids missing from the
    /// table are written as `"?"`.
    fn push_array(&mut self, out: &mut Vec<u8>, ids: &[ItemId]) {
        out.push(b'[');
        for (k, &id) in ids.iter().enumerate() {
            if k > 0 {
                out.push(b',');
            }
            self.push_label(out, id);
        }
        out.push(b']');
    }

    fn push_label(&mut self, out: &mut Vec<u8>, id: ItemId) {
        let Ok(label) = self.items.try_label(id) else {
            push_json_str(out, "?");
            return;
        };
        // `try_label` succeeded, so the id is below the table's length and
        // `spans` grows at most to that.
        let i = id.index();
        if self.spans.len() <= i {
            self.spans.resize(i + 1, (0, 0));
        }
        let (start, end) = match self.spans.get(i) {
            Some(&(start, end)) if end > start => (start, end),
            _ => {
                let start = self.text.len();
                push_json_str(&mut self.text, label);
                let span = (start, self.text.len());
                if let Some(slot) = self.spans.get_mut(i) {
                    *slot = span;
                }
                span
            }
        };
        out.extend_from_slice(self.text.get(start..end).unwrap_or_default());
    }
}

/// Appends `intervals` as a JSON array of `{"start":…,"end":…,"ps":…}`.
fn push_intervals_json(out: &mut Vec<u8>, intervals: &[PeriodicInterval]) {
    out.push(b'[');
    for (k, iv) in intervals.iter().enumerate() {
        if k > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"start\":");
        push_i64(out, iv.start);
        out.extend_from_slice(b",\"end\":");
        push_i64(out, iv.end);
        out.extend_from_slice(b",\"ps\":");
        push_u64(out, iv.periodic_support as u64);
        out.push(b'}');
    }
    out.push(b']');
}

/// Writes `head`, then one rendered record per element of `records`,
/// through a buffer flushed to `w` every [`CHUNK_BYTES`].
fn write_records<W: Write, T>(
    w: &mut W,
    head: &[u8],
    records: &[T],
    mut render: impl FnMut(&mut Vec<u8>, &T) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(CHUNK_BYTES);
    buf.extend_from_slice(head);
    for record in records {
        render(&mut buf, record)?;
        if buf.len() >= CHUNK_BYTES {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    w.flush()
}

/// Appends `p`'s JSON line, newline included: the one line renderer
/// behind [`write_patterns_json`] and [`splice_patterns_json`].
fn push_pattern_line(out: &mut Vec<u8>, labels: &mut QuotedLabels<'_>, p: &RecurringPattern) {
    out.extend_from_slice(b"{\"items\":");
    labels.push_array(out, &p.items);
    out.extend_from_slice(b",\"support\":");
    push_u64(out, p.support as u64);
    out.extend_from_slice(b",\"recurrence\":");
    push_u64(out, p.recurrence() as u64);
    out.extend_from_slice(b",\"intervals\":");
    push_intervals_json(out, &p.intervals);
    out.extend_from_slice(b"}\n");
}

/// Writes `patterns` as JSON lines:
/// `{"items":["a","b"],"support":7,"recurrence":2,"intervals":[{"start":1,"end":4,"ps":3},…]}`.
pub fn write_patterns_json<W: Write>(
    w: &mut W,
    items: &ItemTable,
    patterns: &[RecurringPattern],
) -> std::io::Result<()> {
    let mut labels = QuotedLabels::new(items);
    write_records(w, b"", patterns, |out, p| {
        push_pattern_line(out, &mut labels, p);
        Ok(())
    })
}

/// The byte range of line `i` of a body whose lines end at `ends`.
fn line_range(ends: &[u32], i: usize) -> Option<Range<usize>> {
    let start = i.checked_sub(1).map_or(Some(0), |j| ends.get(j).copied())?;
    Some(start as usize..*ends.get(i)? as usize)
}

/// A pattern set in canonical order with its JSON-lines body and the byte
/// offset at which each pattern's line ends, as [`splice_patterns_json`]
/// returns them.
pub type RenderedLines<'a> = (&'a [RecurringPattern], &'a [u8], &'a [u32]);

/// Renders `patterns`, in canonical order, to the bytes
/// [`write_patterns_json`] writes, and returns them with the offset at
/// which each pattern's line ends.
///
/// With `previous`, an earlier set rendered by this function over the same
/// (possibly since grown) item table, the two sets are walked together in
/// canonical order: the line of every pattern equal to one in `previous`
/// is copied, runs of adjacent lines in one piece, and only the rest are
/// rendered. Labels never change once interned, so a copied line is
/// exactly what rendering would write. A `previous` whose line ends do not
/// match its patterns and body is ignored, and so is every line end when
/// the body outgrows `u32`: the next splice then renders in full.
pub fn splice_patterns_json(
    items: &ItemTable,
    patterns: &[RecurringPattern],
    previous: Option<RenderedLines<'_>>,
) -> (Vec<u8>, Vec<u32>) {
    let (old, old_body, old_ends) = previous
        .filter(|(old, body, ends)| {
            ends.len() == old.len() && ends.last().map_or(0, |&e| e as usize) == body.len()
        })
        .unwrap_or((&[], &[], &[]));
    let mut labels = QuotedLabels::new(items);
    // Room for lines that grew, so the body is not moved while it is built.
    let mut body =
        Vec::with_capacity((old_body.len() + old_body.len() / 8).max(patterns.len() * 128));
    let mut ends = Vec::with_capacity(patterns.len());
    // The run of old lines copied back to back but not yet appended.
    let mut run = 0..0;
    let mut at = 0;
    for p in patterns {
        while old.get(at).is_some_and(|q| canonical_cmp(&q.items, &p.items).is_lt()) {
            at += 1;
        }
        let copied = if old.get(at) == Some(p) { line_range(old_ends, at) } else { None };
        match copied {
            Some(line) => {
                if line.start != run.end {
                    body.extend_from_slice(old_body.get(run).unwrap_or_default());
                    run = line.start..line.start;
                }
                run.end = line.end;
                at += 1;
                ends.push((body.len() + run.len()) as u32);
            }
            None => {
                body.extend_from_slice(old_body.get(run).unwrap_or_default());
                run = 0..0;
                push_pattern_line(&mut body, &mut labels, p);
                ends.push(body.len() as u32);
            }
        }
    }
    body.extend_from_slice(old_body.get(run).unwrap_or_default());
    // The ends ascend to `body.len()`, so if that fits in a `u32` none of
    // the casts above truncated.
    if u32::try_from(body.len()).is_err() {
        ends.clear();
    }
    (body, ends)
}

/// Writes `patterns` as TSV with header
/// `items<TAB>support<TAB>recurrence<TAB>intervals`; items are
/// space-separated, intervals `start..end:ps` separated by `;`.
pub fn write_patterns_tsv<W: Write>(
    w: &mut W,
    items: &ItemTable,
    patterns: &[RecurringPattern],
) -> std::io::Result<()> {
    write_records(w, b"items\tsupport\trecurrence\tintervals\n", patterns, |out, p| {
        for (k, &id) in p.items.iter().enumerate() {
            if k > 0 {
                out.push(b' ');
            }
            out.extend_from_slice(items.try_label(id).unwrap_or("?").as_bytes());
        }
        out.push(b'\t');
        push_u64(out, p.support as u64);
        out.push(b'\t');
        push_u64(out, p.recurrence() as u64);
        out.push(b'\t');
        for (k, iv) in p.intervals.iter().enumerate() {
            if k > 0 {
                out.push(b';');
            }
            push_i64(out, iv.start);
            out.extend_from_slice(b"..");
            push_i64(out, iv.end);
            out.push(b':');
            push_u64(out, iv.periodic_support as u64);
        }
        out.push(b'\n');
        Ok(())
    })
}

/// Writes `rules` as JSON lines with antecedent/consequent label arrays,
/// support, confidence and validity intervals.
pub fn write_rules_json<W: Write>(
    w: &mut W,
    items: &ItemTable,
    rules: &[RecurringRule],
) -> std::io::Result<()> {
    let mut labels = QuotedLabels::new(items);
    write_records(w, b"", rules, |out, r| {
        out.extend_from_slice(b"{\"antecedent\":");
        labels.push_array(out, &r.antecedent);
        out.extend_from_slice(b",\"consequent\":");
        labels.push_array(out, &r.consequent);
        out.extend_from_slice(b",\"support\":");
        push_u64(out, r.support as u64);
        write!(out, ",\"confidence\":{}", r.confidence)?;
        out.extend_from_slice(b",\"intervals\":");
        push_intervals_json(out, &r.intervals);
        out.extend_from_slice(b"}\n");
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::RpGrowth;
    use crate::params::RpParams;
    use crate::rules::generate_rules;
    use rpm_timeseries::{running_example_db, Pcg32};

    fn mined() -> (rpm_timeseries::TransactionDb, Vec<RecurringPattern>) {
        let db = running_example_db();
        let patterns = RpGrowth::new(RpParams::new(2, 3, 2)).mine(&db).patterns;
        (db, patterns)
    }

    fn escaped(s: &str) -> String {
        let mut out = Vec::new();
        push_json_str(&mut out, s);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn json_lines_are_one_object_per_pattern() {
        let (db, patterns) = mined();
        let mut buf = Vec::new();
        write_patterns_json(&mut buf, db.items(), &patterns).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        // The ab line carries Table 2's numbers.
        let ab = lines.iter().find(|l| l.contains("\"a\",\"b\"")).unwrap();
        assert!(ab.contains("\"support\":7"));
        assert!(ab.contains("\"recurrence\":2"));
        assert!(ab.contains("{\"start\":1,\"end\":4,\"ps\":3}"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escaped("plain"), "\"plain\"");
        assert_eq!(escaped("a\"b"), "\"a\\\"b\"");
        assert_eq!(escaped("a\\b\nc"), "\"a\\\\b\\nc\"");
        assert_eq!(escaped("\u{1}"), "\"\\u0001\"");
        assert_eq!(escaped("\u{1f}x\u{0}"), "\"\\u001fx\\u0000\"");
        assert_eq!(escaped("é\t日本\r"), "\"é\\t日本\\r\"");
        assert_eq!(escaped(""), "\"\"");
    }

    #[test]
    fn integers_render_like_display() {
        for v in [0, 7, 10, 99, 100, 1_000_000_007, u64::MAX] {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
        for v in [0, -1, 9, -10, 1_234_567, i64::MIN, i64::MAX, i64::MIN + 1] {
            let mut out = b"x".to_vec();
            push_i64(&mut out, v);
            assert_eq!(out, format!("x{v}").as_bytes(), "appends after existing bytes");
        }
    }

    #[test]
    fn tsv_has_header_and_rows() {
        let (db, patterns) = mined();
        let mut buf = Vec::new();
        write_patterns_tsv(&mut buf, db.items(), &patterns).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 9);
        assert_eq!(lines[0], "items\tsupport\trecurrence\tintervals");
        let ab = lines.iter().find(|l| l.starts_with("a b\t")).unwrap();
        assert!(ab.contains("1..4:3;11..14:3"));
    }

    #[test]
    fn rules_json_roundtrips_confidence() {
        let (db, patterns) = mined();
        let (rules, _) = generate_rules(&db, &patterns, 1.0);
        let mut buf = Vec::new();
        write_rules_json(&mut buf, db.items(), &rules).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), rules.len());
        assert!(text.contains("\"confidence\":1"));
        assert!(text.contains("\"antecedent\":[\"b\"]"));
    }

    #[test]
    fn empty_sets_produce_empty_output() {
        let (db, _) = mined();
        let mut buf = Vec::new();
        write_patterns_json(&mut buf, db.items(), &[]).unwrap();
        assert!(buf.is_empty());
        write_rules_json(&mut buf, db.items(), &[]).unwrap();
        assert!(buf.is_empty());
        write_patterns_tsv(&mut buf, db.items(), &[]).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 1); // header only
    }

    /// `format!`-based reference writers: the byte-for-byte oracle for the
    /// buffer writers above.
    mod oracle {
        use super::*;

        fn json_escape(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }

        fn labels_json(items: &ItemTable, ids: &[ItemId]) -> String {
            let parts: Vec<String> = ids
                .iter()
                .map(|&i| format!("\"{}\"", json_escape(items.try_label(i).unwrap_or("?"))))
                .collect();
            format!("[{}]", parts.join(","))
        }

        fn intervals_json(intervals: &[PeriodicInterval]) -> String {
            let parts: Vec<String> = intervals
                .iter()
                .map(|iv| {
                    format!(
                        "{{\"start\":{},\"end\":{},\"ps\":{}}}",
                        iv.start, iv.end, iv.periodic_support
                    )
                })
                .collect();
            parts.join(",")
        }

        pub fn patterns_json(items: &ItemTable, patterns: &[RecurringPattern]) -> Vec<u8> {
            let mut out = Vec::new();
            for p in patterns {
                writeln!(
                    out,
                    "{{\"items\":{},\"support\":{},\"recurrence\":{},\"intervals\":[{}]}}",
                    labels_json(items, &p.items),
                    p.support,
                    p.recurrence(),
                    intervals_json(&p.intervals)
                )
                .unwrap();
            }
            out
        }

        pub fn patterns_tsv(items: &ItemTable, patterns: &[RecurringPattern]) -> Vec<u8> {
            let mut out = Vec::new();
            writeln!(out, "items\tsupport\trecurrence\tintervals").unwrap();
            for p in patterns {
                let names: Vec<&str> =
                    p.items.iter().map(|&i| items.try_label(i).unwrap_or("?")).collect();
                let intervals: Vec<String> = p
                    .intervals
                    .iter()
                    .map(|iv| format!("{}..{}:{}", iv.start, iv.end, iv.periodic_support))
                    .collect();
                writeln!(
                    out,
                    "{}\t{}\t{}\t{}",
                    names.join(" "),
                    p.support,
                    p.recurrence(),
                    intervals.join(";")
                )
                .unwrap();
            }
            out
        }

        pub fn rules_json(items: &ItemTable, rules: &[RecurringRule]) -> Vec<u8> {
            let mut out = Vec::new();
            for r in rules {
                writeln!(
                    out,
                    "{{\"antecedent\":{},\"consequent\":{},\"support\":{},\"confidence\":{},\"intervals\":[{}]}}",
                    labels_json(items, &r.antecedent),
                    labels_json(items, &r.consequent),
                    r.support,
                    r.confidence,
                    intervals_json(&r.intervals)
                )
                .unwrap();
            }
            out
        }
    }

    /// Labels covering every escape class: quote, backslash, the named
    /// control characters, other control characters, non-ASCII, empty.
    const LABELS: &[&str] = &[
        "plain",
        "#uttarakhand",
        "say \"hi\"",
        "back\\slash",
        "line\nbreak",
        "cr\rlf",
        "tab\there",
        "nul\u{0}bell\u{7}esc\u{1b}us\u{1f}",
        "del\u{7f}",
        "café",
        "日本語",
        "emoji 🦀",
        "",
        "\"\\\n\r\t\u{1}é",
    ];

    fn random_timestamp(rng: &mut Pcg32) -> i64 {
        match rng.next_u32() % 6 {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => -(rng.next_u32() as i64),
            3 => rng.next_u64() as i64,
            _ => rng.next_u32() as i64 % 1000,
        }
    }

    fn random_count(rng: &mut Pcg32) -> usize {
        match rng.next_u32() % 5 {
            0 => 0,
            1 => usize::MAX,
            2 => rng.next_u64() as usize,
            _ => rng.next_u32() as usize % 100,
        }
    }

    /// Item ids drawn from the table, plus ids past its end (`"?"`).
    fn random_ids(rng: &mut Pcg32, table_len: usize) -> Vec<ItemId> {
        let n = rng.next_u32() as usize % 5;
        (0..n).map(|_| ItemId(rng.next_u32() % (table_len as u32 + 3))).collect()
    }

    fn random_intervals(rng: &mut Pcg32) -> Vec<PeriodicInterval> {
        let n = rng.next_u32() as usize % 4;
        (0..n)
            .map(|_| PeriodicInterval {
                start: random_timestamp(rng),
                end: random_timestamp(rng),
                periodic_support: random_count(rng),
            })
            .collect()
    }

    /// Where each line of a JSON-lines body ends: after every raw newline
    /// (a label's newline is escaped, so raw ones only close lines).
    fn oracle_ends(body: &[u8]) -> Vec<u32> {
        (0..body.len()).filter(|&i| body[i] == b'\n').map(|i| i as u32 + 1).collect()
    }

    #[test]
    fn spliced_bodies_equal_a_full_render_byte_for_byte() {
        use crate::incremental::IncrementalMiner;
        use crate::params::ResolvedParams;
        let (mut copied, mut remeasured, mut fresh, mut late) = (0, 0, 0, 0);
        for seed in 0..16u64 {
            let mut rng = Pcg32::seed_from_u64(seed);
            let per = rng.random_range(2..5i64);
            let mut miner = IncrementalMiner::new(ResolvedParams::new(per, 2, 1));
            let mut previous: Option<(Vec<RecurringPattern>, Vec<u8>, Vec<u32>)> = None;
            let mut old_items = 0;
            let mut ts = 0;
            for step in 0..24 {
                // A batch over an escape-heavy label pool that widens as the
                // stream runs, so later sets name labels interned after the
                // previous body was rendered.
                let pool = (4 + step / 3).min(LABELS.len());
                for _ in 0..rng.random_range(1..6usize) {
                    ts += rng.random_range(0..3i64);
                    let labels: Vec<&str> =
                        LABELS[..pool].iter().copied().filter(|_| rng.random_f64() < 0.4).collect();
                    if !labels.is_empty() {
                        miner.append(ts, &labels).unwrap();
                    }
                }
                let items = miner.db().items();
                let patterns = miner.mine().patterns;
                let mut want = Vec::new();
                write_patterns_json(&mut want, items, &patterns).unwrap();
                let base = previous.as_ref().map(|(p, b, e)| (&p[..], &b[..], &e[..]));
                let (body, ends) = splice_patterns_json(items, &patterns, base);
                assert_eq!(body, want, "seed {seed}, step {step}");
                assert_eq!(ends, oracle_ends(&want), "seed {seed}, step {step}");
                let full = splice_patterns_json(items, &patterns, None);
                assert_eq!((&full.0, &full.1), (&body, &ends), "no previous body");
                if let Some((old, _, _)) = &previous {
                    for p in &patterns {
                        match old.iter().find(|q| q.items == p.items) {
                            Some(q) if q == p => copied += 1,
                            Some(_) => remeasured += 1,
                            None => fresh += 1,
                        }
                        late += usize::from(p.items.iter().any(|i| i.index() >= old_items));
                    }
                }
                old_items = items.len();
                previous = Some((patterns, body, ends));
            }
        }
        assert!(
            copied > 500 && remeasured > 100 && fresh > 100 && late > 10,
            "copied {copied}, re-measured {remeasured}, new {fresh}, late labels {late}"
        );
    }

    #[test]
    fn a_previous_body_that_does_not_match_its_line_ends_is_ignored() {
        let (db, patterns) = mined();
        let (body, ends) = splice_patterns_json(db.items(), &patterns, None);
        let mut want = Vec::new();
        write_patterns_json(&mut want, db.items(), &patterns).unwrap();
        assert_eq!((&body, &ends), (&want, &oracle_ends(&want)));
        // One end short, or a body one byte long: rendered in full.
        let garbled = vec![b'x'; body.len()];
        let short = &ends[..ends.len() - 1];
        for base in
            [(&patterns[..], &garbled[..], short), (&patterns[..], &garbled[..1], &ends[..])]
        {
            let (got, got_ends) = splice_patterns_json(db.items(), &patterns, Some(base));
            assert_eq!((&got, &got_ends), (&want, &ends));
        }
    }

    #[test]
    fn writers_match_the_format_oracle_byte_for_byte() {
        let mut items = ItemTable::new();
        for label in LABELS {
            items.intern(label);
        }
        let mut longest = 0;
        for seed in 0..40u64 {
            let mut rng = Pcg32::seed_from_u64(seed);
            // Seed 0 checks the empty sets; the rest draw up to 1000
            // records, so the larger sets cross CHUNK_BYTES flushes.
            let n = if seed == 0 { 0 } else { rng.next_u32() as usize % 1000 };
            let patterns: Vec<RecurringPattern> = (0..n)
                .map(|_| RecurringPattern {
                    items: random_ids(&mut rng, items.len()),
                    support: random_count(&mut rng),
                    intervals: random_intervals(&mut rng),
                })
                .collect();
            let rules: Vec<RecurringRule> = (0..n)
                .map(|_| RecurringRule {
                    antecedent: random_ids(&mut rng, items.len()),
                    consequent: random_ids(&mut rng, items.len()),
                    support: random_count(&mut rng),
                    confidence: rng.random_f64() * 2.0 - 0.5,
                    intervals: random_intervals(&mut rng),
                })
                .collect();

            let mut got = Vec::new();
            write_patterns_json(&mut got, &items, &patterns).unwrap();
            assert_eq!(got, oracle::patterns_json(&items, &patterns), "patterns json, seed {seed}");
            longest = longest.max(got.len());
            let mut got = Vec::new();
            write_patterns_tsv(&mut got, &items, &patterns).unwrap();
            assert_eq!(got, oracle::patterns_tsv(&items, &patterns), "patterns tsv, seed {seed}");
            let mut got = Vec::new();
            write_rules_json(&mut got, &items, &rules).unwrap();
            assert_eq!(got, oracle::rules_json(&items, &rules), "rules json, seed {seed}");
        }
        assert!(longest > 2 * CHUNK_BYTES, "some output crossed two flushes: {longest} bytes");
    }
}
