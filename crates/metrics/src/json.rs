//! The workspace JSON codec, and the byte-stable `ecl-metrics/1` export
//! built on it.
//!
//! # The codec
//!
//! The workspace builds offline with no serde, so this module is the one
//! JSON reader and writer for every exporter: the `ecl-metrics/1` export
//! below, the trace profile and Chrome trace (through the
//! `ecl_trace::json` re-export), the `BENCH_<N>.json` chain links and the
//! `ecl-lint/1` report. It lives in this leaf crate because `ecl-metrics`
//! has no dependencies of its own. [`parse`] reads a document into a
//! [`Value`]; [`write_escaped`] and [`write_f64`] write strings and
//! numbers, and [`Value::to_document`] a whole document with them. Numbers are
//! `f64`: every integer we serialize stays below 2^53.
//!
//! # The `ecl-metrics/1` export
//!
//! The export is the regression surface: **stable** metrics only (see
//! [`Stability`](crate::Stability)), one metric per line, in registry
//! order, integers as integers and floats in Rust's shortest round-trip
//! form — so a snapshot of a deterministic run serializes to identical
//! bytes on every run, exactly like the `ecl-trace-profile/1` export. The
//! 5%-threshold [`diff`] mirrors the trace regression gate: it flags any
//! stable metric that drifted beyond the threshold, appeared, or
//! vanished, and `bench_snapshot --metrics-diff` turns that into an exit
//! code.

use crate::{Kind, Snapshot, Stability};
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, held as `f64`.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object of `members`, in the given order.
    pub fn obj(members: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `bool` when it is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `f64` when it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64` when it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `&str` when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice when it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// `self` as a newline-terminated JSON document in the workspace
    /// layout: the root's members, and the rows of arrays directly under
    /// it, one per line and indented two spaces per level; anything deeper
    /// on one line with `", "` between members. Keys are followed by `": "`.
    pub fn to_document(&self) -> String {
        let mut out = String::new();
        self.write_at(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_at(&self, out: &mut String, depth: usize) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Value)>) = match self {
            Value::Null => return out.push_str("null"),
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => return write_f64(out, *n),
            Value::Str(s) => return write_escaped(out, s),
            Value::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Value::Obj(m) => (
                '{',
                '}',
                m.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let multiline = depth == 0 || (depth == 1 && open == '[');
        out.push(open);
        for (i, (key, v)) in members.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if multiline {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(k) = key {
                write_escaped(out, k);
                out.push_str(": ");
            }
            v.write_at(out, depth + 1);
        }
        if multiline {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
/// A `\u` surrogate pair decodes to one character, a lone surrogate to
/// U+FFFD.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number `{s}` at byte {start}: {e}"))
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&code)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                // A high surrogate: combine it with a low
                                // one, or leave the next escape unread.
                                let next = self.pos;
                                self.pos += 2;
                                let low = self.hex4()?;
                                if (0xDC00..0xE000).contains(&low) {
                                    char::from_u32(
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                                    )
                                } else {
                                    self.pos = next;
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(ch.unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let ch = rest.chars().next().expect("nonempty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        let mut items = Vec::new();
        self.members(b'[', b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Arr(items))
    }

    fn object(&mut self) -> Result<Value, String> {
        let mut members = Vec::new();
        self.members(b'{', b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            members.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Value::Obj(members))
    }

    /// Reads `open`, then comma-separated members with `member`, then
    /// `close`.
    fn members(
        &mut self,
        open: u8,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            member(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected `,` or `{}` at byte {}, found {:?}",
                        close as char,
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }
}

/// Appends `s` to `out` as a JSON string literal (quotes included):
/// `"`, `\` and control characters below U+0020 are escaped, everything
/// else is written as is.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an `f64` in Rust's shortest round-trip representation, which
/// is valid JSON for every finite value (Rust's `Display` never emits an
/// exponent); non-finite values, which no schema contains, clamp to `0`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

// ---------------------------------------------------------------------------
// The `ecl-metrics/1` export.

/// Schema tag of the snapshot format.
pub const FORMAT: &str = "ecl-metrics/1";

/// Serializes the stable surface of a snapshot as `ecl-metrics/1` JSON.
pub fn to_json(snap: &Snapshot) -> String {
    let stable = snap
        .entries
        .iter()
        .filter(|e| e.stability == Stability::Stable);
    let metrics = stable.map(|e| {
        let mut m = vec![("name", e.name.into()), ("kind", e.kind.label().into())];
        match e.kind {
            Kind::Counter => m.push(("value", e.count.into())),
            Kind::Gauge => m.push(("value", e.gauge.into())),
            Kind::Histogram => {
                let buckets = e
                    .buckets
                    .iter()
                    .map(|&(bound, n)| Value::Arr(vec![bound.into(), n.into()]));
                m.extend([
                    ("count", e.count.into()),
                    ("sum", e.sum.into()),
                    ("buckets", Value::Arr(buckets.collect())),
                    ("overflow", e.overflow.into()),
                ]);
            }
        }
        Value::obj(m)
    });
    Value::obj(vec![
        ("format", FORMAT.into()),
        ("metrics", Value::Arr(metrics.collect())),
    ])
    .to_document()
}

/// One metric parsed back from an `ecl-metrics/1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineMetric {
    pub name: String,
    pub kind: String,
    /// Counter total or gauge value (`count` for histograms).
    pub value: f64,
    /// Histogram observation count.
    pub count: u64,
    /// Histogram sum.
    pub sum: f64,
}

/// A parsed snapshot, used as the comparison side of [`diff`].
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    pub metrics: Vec<BaselineMetric>,
}

impl Baseline {
    /// Looks up a parsed metric by name.
    pub fn get(&self, name: &str) -> Option<&BaselineMetric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Parses an `ecl-metrics/1` document (as produced by [`to_json`]).
pub fn from_json(text: &str) -> Result<Baseline, String> {
    let root = parse(text)?;
    let format = root
        .get("format")
        .and_then(Value::as_str)
        .ok_or("missing \"format\"")?;
    if format != FORMAT {
        return Err(format!("unsupported format `{format}` (want `{FORMAT}`)"));
    }
    let arr = root
        .get("metrics")
        .and_then(Value::as_arr)
        .ok_or("missing \"metrics\" array")?;
    let mut metrics = Vec::with_capacity(arr.len());
    for m in arr {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric missing \"name\"")?
            .to_string();
        let kind = m
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{name}: missing \"kind\""))?
            .to_string();
        let (value, count, sum) = if kind == "histogram" {
            let count = m
                .get("count")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: missing \"count\""))?;
            let sum = m.get("sum").and_then(Value::as_f64).unwrap_or(0.0);
            (count, count as u64, sum)
        } else {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: missing \"value\""))?;
            (v, 0, 0.0)
        };
        metrics.push(BaselineMetric {
            name,
            kind,
            value,
            count,
            sum,
        });
    }
    Ok(Baseline { metrics })
}

/// The result of comparing two stable surfaces.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// One human-readable line per compared metric.
    pub lines: Vec<String>,
    /// Metrics that drifted past the threshold, appeared, or vanished.
    pub drifted: usize,
}

impl DiffReport {
    /// True when nothing drifted.
    pub fn is_pass(&self) -> bool {
        self.drifted == 0
    }
}

/// Relative change of `now` against `base` (`inf` when appearing from 0).
fn rel(now: f64, base: f64) -> f64 {
    if base == 0.0 {
        if now == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((now - base) / base).abs()
    }
}

/// Compares the stable surface of `current` against a parsed `baseline`.
/// Any stable metric whose value moved more than `threshold` (relative,
/// either direction) counts as drift — the gate exists to catch *silent*
/// behavior changes, not to judge their direction. New and vanished
/// stable names drift too: names may not change without a baseline
/// refresh.
pub fn diff(current: &Snapshot, baseline: &Baseline, threshold: f64) -> DiffReport {
    let mut lines = Vec::new();
    let mut drifted = 0;
    let stable: Vec<_> = current
        .entries
        .iter()
        .filter(|e| e.stability == Stability::Stable)
        .collect();
    for e in &stable {
        let now = match e.kind {
            Kind::Gauge => e.gauge,
            _ => e.count as f64,
        };
        match baseline.get(e.name) {
            None => {
                drifted += 1;
                lines.push(format!(
                    "{}: new metric (value {now}) — refresh the baseline",
                    e.name
                ));
            }
            Some(b) => {
                let r = rel(now, b.value);
                let verdict = if r > threshold {
                    drifted += 1;
                    "DRIFT"
                } else {
                    "ok"
                };
                lines.push(format!(
                    "{}: {} -> {} ({:+.1}%) {}",
                    e.name,
                    b.value,
                    now,
                    if b.value == 0.0 {
                        0.0
                    } else {
                        (now - b.value) / b.value * 100.0
                    },
                    verdict
                ));
            }
        }
    }
    for b in &baseline.metrics {
        if !stable.iter().any(|e| e.name == b.name) {
            drifted += 1;
            lines.push(format!(
                "{}: present in baseline but no longer exported — refresh the baseline",
                b.name
            ));
        }
    }
    DiffReport { lines, drifted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_metrics;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a":[1,2.5,-3e-2],"b":"x\n\"y\"","c":true,"d":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-3e-2)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("c").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("d"), Some(&Value::Null));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{}x").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("\"abc").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn escape_round_trips() {
        let original = "line1\nline2\t\"quoted\" \\slash\u{0001}";
        let mut buf = String::new();
        write_escaped(&mut buf, original);
        let parsed = parse(&buf).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn f64_round_trips_through_text() {
        for v in [0.0, 1.0, 0.1234567890123, 11.174, 1e-9, 123456.789] {
            let mut buf = String::new();
            write_f64(&mut buf, v);
            assert_eq!(parse(&buf).unwrap().as_f64(), Some(v));
        }
    }

    #[test]
    fn unicode_passthrough() {
        for (text, want) in [
            (r#""héllo → wörld""#, "héllo → wörld"),
            (r#""\u0041\u00e9""#, "Aé"),
            // A UTF-16 surrogate pair, as Python's json.dump writes U+1F600.
            (r#""\ud83d\ude00""#, "\u{1F600}"),
            // Lone surrogates stay replacement characters.
            (r#""\ud83d\u0041\ude00""#, "\u{FFFD}A\u{FFFD}"),
        ] {
            assert_eq!(parse(text).unwrap().as_str(), Some(want), "{text}");
        }
    }

    #[test]
    fn write_puts_top_level_members_and_rows_on_lines() {
        let doc = Value::obj(vec![
            ("a", Value::Arr(vec![Value::obj(vec![("k", 1.5.into())])])),
            ("o", Value::obj(vec![("x", Value::Arr(vec![true.into()]))])),
            ("b", Value::Arr(vec![])),
            ("c", Option::<bool>::None.into()),
        ]);
        let out = doc.to_document();
        assert_eq!(
            out,
            "{\n  \"a\": [\n    {\"k\": 1.5}\n  ],\n  \"o\": {\"x\": [true]},\n  \"b\": [\n  ],\n  \"c\": null\n}\n"
        );
        assert_eq!(parse(&out), Ok(doc));
    }

    #[test]
    fn export_parses_back_and_is_stable_only() {
        let ((), snap) = with_metrics(|| {
            crate::counter!(SIMCACHE_HIT, 12);
            crate::counter!(DSU_CAS_RETRY, 99); // volatile: must not export
            crate::histogram!(GRAPH_BUILD_ARCS, 5000.0);
        });
        let text = to_json(&snap);
        assert!(text.starts_with("{\n  \"format\": \"ecl-metrics/1\""));
        let base = from_json(&text).unwrap();
        assert_eq!(base.get("ecl.simcache.hit").unwrap().value, 12.0);
        assert!(
            base.get("ecl.dsu.cas_retry").is_none(),
            "volatile metrics must stay out of the byte-stable export"
        );
        let h = base.get("ecl.graph.build_arcs").unwrap();
        assert_eq!(h.count, 1);
        assert!((h.sum - 5000.0).abs() < 1e-6);
    }

    #[test]
    fn identical_sessions_export_identical_bytes() {
        let run = || {
            with_metrics(|| {
                crate::counter!(SIMCACHE_HIT, 7);
                crate::counter!(SIMCACHE_MISS, 3);
                crate::gauge!(SIMCACHE_ENTRIES, 10);
                crate::histogram!(GRAPH_BUILD_ARCS, 123.0);
            })
            .1
            .to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn diff_flags_drift_and_name_changes() {
        let ((), a) = with_metrics(|| crate::counter!(SIMCACHE_HIT, 100));
        let base = from_json(&a.to_json()).unwrap();

        // Identical run: clean.
        let ((), b) = with_metrics(|| crate::counter!(SIMCACHE_HIT, 100));
        assert!(diff(&b, &base, 0.05).is_pass());

        // Within threshold: clean.
        let ((), c) = with_metrics(|| crate::counter!(SIMCACHE_HIT, 104));
        assert!(diff(&c, &base, 0.05).is_pass());

        // Past threshold: drift.
        let ((), d) = with_metrics(|| crate::counter!(SIMCACHE_HIT, 200));
        let report = diff(&d, &base, 0.05);
        assert!(!report.is_pass());
        assert!(report.lines.iter().any(|l| l.contains("DRIFT")));

        // A baseline name that vanished from the registry drifts too.
        let mut renamed = base.clone();
        renamed.metrics.push(BaselineMetric {
            name: "ecl.simcache.hits_old".into(),
            kind: "counter".into(),
            value: 1.0,
            count: 0,
            sum: 0.0,
        });
        assert!(!diff(&b, &renamed, 0.05).is_pass());
    }

    #[test]
    fn from_json_rejects_other_formats() {
        assert!(from_json("{\"format\": \"ecl-trace-profile/1\", \"metrics\": []}").is_err());
        assert!(from_json("not json").is_err());
    }
}
