//! Machine-readable output and the committed-baseline workflow.
//!
//! `rsj-lint --json` emits a report of every finding (waived ones
//! included, with their reasons) so CI artifacts are auditable.
//! `--baseline lint-baseline.json` compares the current findings against
//! a committed snapshot: the exit code is nonzero for findings *absent*
//! from the baseline, so pre-existing waived findings never break the
//! build while any new violation — or any new waiver that was not
//! explicitly re-baselined with `--update-baseline` — does. It is nonzero
//! too for a *stale* entry, one no current finding matches: left in, it
//! would pass a later finding with the same key unreviewed.
//!
//! A baseline entry is keyed by `(file, rule, waived, reason-or-message)`
//! as a multiset, not by line number, so unrelated edits that shift lines
//! do not invalidate it. Both the writer and the (deliberately minimal)
//! parser live here; the crate stays zero-dependency.

use std::collections::BTreeMap;

use crate::Finding;

/// Baseline identity of a finding: `(file, rule, waived, reason-or-message)`.
pub type Key = (String, String, bool, String);

/// The [`Key`] of a finding. Line numbers are excluded so the baseline
/// survives unrelated edits.
pub fn finding_key(f: &Finding) -> Key {
    let note = f.reason.clone().unwrap_or_else(|| f.message.clone());
    (f.file.clone(), f.rule.to_string(), f.waived, note)
}

/// Serialize findings as a JSON report (stable field order, findings in
/// input order).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"file\": {}, ", quote(&f.file)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"rule\": {}, ", quote(f.rule)));
        out.push_str(&format!("\"message\": {}, ", quote(&f.message)));
        out.push_str(&format!("\"waived\": {}", f.waived));
        if let Some(reason) = &f.reason {
            out.push_str(&format!(", \"reason\": {}", quote(reason)));
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// A committed snapshot of known findings, held as a multiset of
/// [`finding_key`]s.
#[derive(Default)]
pub struct Baseline {
    counts: BTreeMap<Key, usize>,
}

impl Baseline {
    /// Snapshot the current findings.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut counts = BTreeMap::new();
        for f in findings {
            *counts.entry(finding_key(f)).or_insert(0) += 1;
        }
        Baseline { counts }
    }

    /// Parse a baseline previously written by [`to_json`] /
    /// `--update-baseline`.
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let value = parse_json(text)?;
        let Json::Object(top) = value else {
            return Err("baseline: top level is not an object".into());
        };
        let Some(Json::Array(items)) = top.iter().find(|(k, _)| k == "findings").map(|(_, v)| v)
        else {
            return Err("baseline: missing \"findings\" array".into());
        };
        let mut counts = BTreeMap::new();
        for item in items {
            let Json::Object(fields) = item else {
                return Err("baseline: finding is not an object".into());
            };
            let get_str = |name: &str| -> Option<String> {
                fields.iter().find_map(|(k, v)| match v {
                    Json::String(s) if k == name => Some(s.clone()),
                    _ => None,
                })
            };
            let file = get_str("file").ok_or("baseline: finding missing \"file\"")?;
            let rule = get_str("rule").ok_or("baseline: finding missing \"rule\"")?;
            let message = get_str("message").ok_or("baseline: finding missing \"message\"")?;
            let waived = fields
                .iter()
                .any(|(k, v)| k == "waived" && *v == Json::Bool(true));
            let note = get_str("reason").unwrap_or(message);
            *counts.entry((file, rule, waived, note)).or_insert(0) += 1;
        }
        Ok(Baseline { counts })
    }

    /// The findings not covered by this baseline: each baseline key
    /// absorbs as many matching findings as it has occurrences; the rest
    /// are new.
    pub fn new_findings<'a>(&self, findings: &'a [Finding]) -> Vec<&'a Finding> {
        self.absorb(findings).0
    }

    /// The baseline entries no current finding matches, each with how
    /// many of its occurrences are left over.
    pub fn stale_entries(&self, findings: &[Finding]) -> Vec<(Key, usize)> {
        let left = self.absorb(findings).1;
        left.into_iter().filter(|&(_, n)| n > 0).collect()
    }

    /// Match `findings` against the baseline: the findings left
    /// unmatched, and each key's occurrences left unused.
    fn absorb<'a>(&self, findings: &'a [Finding]) -> (Vec<&'a Finding>, BTreeMap<Key, usize>) {
        let mut budget = self.counts.clone();
        let new = findings
            .iter()
            .filter(|f| match budget.get_mut(&finding_key(f)) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    false
                }
                _ => true,
            })
            .collect();
        (new, budget)
    }
}

/// JSON string quoting with the escapes the report can produce.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// The subset of JSON the baseline needs. Objects keep insertion order as
/// key/value pairs; duplicate keys are tolerated (first wins on lookup).
#[derive(Debug, PartialEq)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    Number(f64),
    Bool(bool),
    Null,
}

/// Minimal recursive-descent JSON parser (no dependencies). Strict
/// enough for files this tool writes; errors carry a byte offset.
fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("json: trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let Json::String(key) = parse_value(b, pos)? else {
                    return Err(format!("json: object key is not a string at byte {pos}"));
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("json: expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(format!("json: expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("json: expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("json: unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::String(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'u') => {
                                let hex = b
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or("json: truncated \\u escape")?;
                                let hex =
                                    std::str::from_utf8(hex).map_err(|_| "json: bad \\u escape")?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "json: bad \\u escape")?;
                                s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                                *pos += 4;
                            }
                            _ => return Err(format!("json: bad escape at byte {pos}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Copy one UTF-8 scalar (may be multi-byte).
                        let start = *pos;
                        *pos += 1;
                        while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                            *pos += 1;
                        }
                        s.push_str(
                            std::str::from_utf8(&b[start..*pos])
                                .map_err(|_| "json: invalid utf-8 in string")?,
                        );
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Number)
                .ok_or_else(|| format!("json: bad number at byte {start}"))
        }
        _ => Err(format!("json: unexpected byte at {pos}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: usize, waived: bool, reason: Option<&str>) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule: "expect-message",
            message: "non-descriptive expect message".to_string(),
            waived,
            reason: reason.map(str::to_string),
        }
    }

    #[test]
    fn json_round_trips_through_the_baseline_parser() {
        let findings = vec![
            finding("crates/core/src/a.rs", 10, false, None),
            finding("crates/core/src/a.rs", 44, true, Some("checked \"above\"")),
        ];
        let json = to_json(&findings);
        let baseline = Baseline::from_json(&json).expect("report output must parse as a baseline");
        assert!(baseline.new_findings(&findings).is_empty());
    }

    #[test]
    fn baseline_is_keyed_by_identity_not_line() {
        let committed = vec![finding("crates/core/src/a.rs", 10, false, None)];
        let baseline = Baseline::from_findings(&committed);
        // Same finding, drifted line: still covered.
        let drifted = vec![finding("crates/core/src/a.rs", 99, false, None)];
        assert!(baseline.new_findings(&drifted).is_empty());
        // A second occurrence of the same key is new (multiset semantics).
        let doubled = vec![
            finding("crates/core/src/a.rs", 10, false, None),
            finding("crates/core/src/a.rs", 11, false, None),
        ];
        assert_eq!(baseline.new_findings(&doubled).len(), 1);
    }

    #[test]
    fn new_waivers_are_not_covered_by_an_unwaived_baseline_entry() {
        let committed = vec![finding("crates/core/src/a.rs", 10, false, None)];
        let baseline = Baseline::from_findings(&committed);
        // Waiving the finding changes its key: it must be re-baselined so
        // the waiver is reviewed.
        let waived = vec![finding("crates/core/src/a.rs", 10, true, Some("reason"))];
        assert_eq!(baseline.new_findings(&waived).len(), 1);
    }

    #[test]
    fn stale_baseline_entries_are_reported() {
        let committed = vec![
            finding("crates/core/src/a.rs", 10, false, None),
            finding("crates/core/src/a.rs", 12, false, None),
            finding("crates/core/src/gone.rs", 5, false, None),
        ];
        let baseline = Baseline::from_findings(&committed);
        let current = vec![finding("crates/core/src/a.rs", 10, false, None)];
        assert!(baseline.new_findings(&current).is_empty());
        let stale: Vec<_> = baseline
            .stale_entries(&current)
            .into_iter()
            .map(|((file, ..), n)| (file, n))
            .collect();
        assert_eq!(
            stale,
            [
                ("crates/core/src/a.rs".to_string(), 1),
                ("crates/core/src/gone.rs".to_string(), 1)
            ],
            "a vanished file's entry and a key's unused occurrence are both stale"
        );
        assert!(baseline.stale_entries(&committed).is_empty());
    }

    #[test]
    fn parser_rejects_malformed_baselines() {
        assert!(Baseline::from_json("{").is_err());
        assert!(Baseline::from_json("[]").is_err());
        assert!(Baseline::from_json("{\"findings\": [{\"rule\": \"x\"}]}").is_err());
        assert!(Baseline::from_json("{\"findings\": []} trailing").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let f = vec![finding("a\\b\"c\n.rs", 1, true, Some("tab\there"))];
        let json = to_json(&f);
        let baseline = Baseline::from_json(&json).expect("escaped strings must round-trip");
        assert!(baseline.new_findings(&f).is_empty());
    }
}
