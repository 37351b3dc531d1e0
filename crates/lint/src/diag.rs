//! Diagnostics and the machine-readable report.

use ecl_metrics::json::Value;
use std::path::PathBuf;

/// One finding, anchored to an exact source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule that produced the finding (`unused-waiver` for the meta rule).
    pub rule: String,
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    pub message: String,
    /// Trimmed text of the offending line.
    pub snippet: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}: {}",
            self.file.display(),
            self.line,
            self.col,
            self.rule,
            self.message,
            self.snippet
        )
    }
}

/// Name/description pair for a registered rule, echoed into the report.
#[derive(Debug, Clone)]
pub struct RuleInfo {
    pub name: &'static str,
    pub description: &'static str,
}

/// The result of a full lint run.
#[derive(Debug)]
pub struct Report {
    pub rules: Vec<RuleInfo>,
    pub findings: Vec<Diagnostic>,
    /// Waivers that suppressed nothing — errors in their own right.
    pub unused_waivers: Vec<Diagnostic>,
    pub files_scanned: usize,
}

impl Report {
    /// True when the tree passed: no findings and no unused waivers.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.unused_waivers.is_empty()
    }

    /// All error diagnostics (findings then unused waivers), sorted.
    pub fn all_errors(&self) -> Vec<&Diagnostic> {
        by_position(self.findings.iter().chain(&self.unused_waivers))
    }

    /// Renders the `ecl-lint/1` JSON document: deterministic, keys in
    /// fixed order, findings sorted by position.
    pub fn to_json(&self) -> String {
        let rules = self.rules.iter().map(|r| {
            Value::obj(vec![
                ("name", r.name.into()),
                ("description", r.description.into()),
            ])
        });
        let diagnostics = |list: &[Diagnostic]| {
            let rows = by_position(list).into_iter().map(|d| {
                Value::obj(vec![
                    ("rule", d.rule.as_str().into()),
                    ("file", Value::Str(d.file.display().to_string())),
                    ("line", d.line.into()),
                    ("col", d.col.into()),
                    ("message", d.message.as_str().into()),
                    ("snippet", d.snippet.as_str().into()),
                ])
            });
            Value::Arr(rows.collect())
        };
        Value::obj(vec![
            ("version", "ecl-lint/1".into()),
            ("files_scanned", self.files_scanned.into()),
            ("rules", Value::Arr(rules.collect())),
            ("findings", diagnostics(&self.findings)),
            ("unused_waivers", diagnostics(&self.unused_waivers)),
            ("clean", self.is_clean().into()),
        ])
        .to_document()
    }
}

/// `list` sorted by file, line, column, then rule.
fn by_position<'a>(list: impl IntoIterator<Item = &'a Diagnostic>) -> Vec<&'a Diagnostic> {
    let mut v: Vec<&Diagnostic> = list.into_iter().collect();
    v.sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_sorts() {
        let report = Report {
            rules: vec![RuleInfo {
                name: "r",
                description: "desc with \"quotes\"",
            }],
            findings: vec![
                Diagnostic {
                    rule: "r".into(),
                    file: "b.rs".into(),
                    line: 2,
                    col: 1,
                    message: "m".into(),
                    snippet: "s".into(),
                },
                Diagnostic {
                    rule: "r".into(),
                    file: "a.rs".into(),
                    line: 9,
                    col: 4,
                    message: "tab\there".into(),
                    snippet: "x".into(),
                },
            ],
            unused_waivers: vec![],
            files_scanned: 2,
        };
        let j = report.to_json();
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("tab\\there"));
        assert!(j.find("a.rs").unwrap() < j.find("b.rs").unwrap());
        assert!(j.contains("\"clean\": false"));
    }
}
