//! Fixture corpus: every rule ships a pass/fail/waived/unused-waiver
//! quartet under `crates/lint/fixtures/<rule>/`, loaded at runtime (never
//! compiled) and mapped onto a virtual path inside the rule's scope.

use ecl_lint::diag::Report;
use ecl_lint::{rules, run, Workspace};
use ecl_metrics::json::Value;
use std::path::Path;

/// Rule name → virtual workspace-relative path its fixtures pretend to be.
/// File-anchored rules (builder, SWAR) must land on their exact files.
const CASES: &[(&str, &str)] = &[
    ("host-access-in-launch", "crates/core/src/fixture.rs"),
    ("trace-range-in-launch", "crates/core/src/fixture.rs"),
    ("trace-range-balance", "crates/core/src/fixture.rs"),
    ("builder-serial-hot-path", "crates/core/src/sharded.rs"),
    ("swar-chunk-shape", "crates/graph/src/simd.rs"),
    ("hash-iteration-order", "crates/core/src/fixture.rs"),
    ("thread-count-dependence", "crates/core/src/fixture.rs"),
    ("wall-clock-in-sim", "crates/core/src/fixture.rs"),
    ("metering-completeness", "crates/core/src/fixture.rs"),
    ("unsafe-audit", "crates/dsu/src/helpers.rs"),
    ("metric-name-registry", "crates/metrics/src/names.rs"),
];

fn run_fixture(rule_name: &str, vpath: &str, variant: &str) -> Report {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rule_name)
        .join(format!("{variant}.rs"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let ws = Workspace::from_sources(&[(vpath, &text)]);
    let rules = vec![rules::by_name(rule_name).expect("rule exists")];
    run(&ws, &rules)
}

#[test]
fn every_rule_has_a_full_fixture_quartet() {
    // The corpus and the registry stay in lockstep: a new rule without
    // fixtures (or a fixture for a deleted rule) fails here.
    let registered: Vec<&str> = rules::all().iter().map(|r| r.name()).collect();
    let covered: Vec<&str> = CASES.iter().map(|(r, _)| *r).collect();
    assert_eq!(registered, covered, "fixture CASES must list every rule");
    for (rule, _) in CASES {
        for variant in ["pass", "fail", "waived", "unused_waiver"] {
            let p = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("fixtures")
                .join(rule)
                .join(format!("{variant}.rs"));
            assert!(p.is_file(), "missing fixture {}", p.display());
        }
    }
}

#[test]
fn pass_fixtures_are_clean() {
    for (rule, vpath) in CASES {
        let r = run_fixture(rule, vpath, "pass");
        assert!(
            r.is_clean(),
            "{rule}/pass.rs should be clean, got findings {:?} unused {:?}",
            r.findings,
            r.unused_waivers
        );
    }
}

#[test]
fn fail_fixtures_are_flagged() {
    for (rule, vpath) in CASES {
        let r = run_fixture(rule, vpath, "fail");
        assert!(
            !r.findings.is_empty(),
            "{rule}/fail.rs should produce at least one finding"
        );
        assert!(
            r.findings.iter().all(|d| d.rule == *rule),
            "{rule}/fail.rs findings must come from the rule under test: {:?}",
            r.findings
        );
        assert!(
            r.unused_waivers.is_empty(),
            "{rule}/fail.rs should have no waivers at all: {:?}",
            r.unused_waivers
        );
        // Spans are real positions, not file-level fallbacks.
        for d in &r.findings {
            assert!(d.line >= 1 && d.col >= 1, "{rule}: bad span {d}");
        }
    }
}

#[test]
fn waived_fixtures_are_clean() {
    for (rule, vpath) in CASES {
        let r = run_fixture(rule, vpath, "waived");
        assert!(
            r.findings.is_empty(),
            "{rule}/waived.rs: waiver should suppress the finding, got {:?}",
            r.findings
        );
        assert!(
            r.unused_waivers.is_empty(),
            "{rule}/waived.rs: waiver should be consumed, got {:?}",
            r.unused_waivers
        );
    }
}

#[test]
fn unused_waiver_fixtures_error() {
    for (rule, vpath) in CASES {
        let r = run_fixture(rule, vpath, "unused_waiver");
        assert!(
            r.findings.is_empty(),
            "{rule}/unused_waiver.rs should otherwise be clean, got {:?}",
            r.findings
        );
        assert!(
            !r.unused_waivers.is_empty(),
            "{rule}/unused_waiver.rs must flag the dead waiver"
        );
        assert!(
            !r.is_clean(),
            "{rule}: a report with unused waivers must not count as clean"
        );
    }
}

#[test]
fn unknown_waiver_names_are_flagged_on_full_registry() {
    let src = "// ecl-lint: allow(no-such-rule) typo in the rule name\nfn f() {}\n";
    let ws = Workspace::from_sources(&[("crates/core/src/fixture.rs", src)]);
    let rules = rules::all();
    let r = run(&ws, &rules);
    assert!(
        r.unused_waivers
            .iter()
            .any(|d| d.rule == "unknown-waiver" && d.message.contains("no-such-rule")),
        "full-registry runs must flag unknown waiver names: {:?}",
        r.unused_waivers
    );

    // Subset runs must NOT flag waivers of rules they did not load.
    let subset = rules::metering_subset();
    let r = run(&ws, &subset);
    assert!(
        r.is_clean(),
        "subset runs must ignore unknown waiver names: {:?}",
        r.unused_waivers
    );
}

#[test]
fn json_report_is_machine_readable() {
    let (rule, vpath) = CASES[0];
    let r = run_fixture(rule, vpath, "fail");
    let doc = ecl_metrics::json::parse(&r.to_json()).expect("the report parses");
    let int = |v: &Value, k| v.get(k).and_then(Value::as_u64);
    assert_eq!(
        doc.get("version").and_then(Value::as_str),
        Some("ecl-lint/1")
    );
    assert_eq!(int(&doc, "files_scanned"), Some(1));
    assert_eq!(doc.get("clean").and_then(Value::as_bool), Some(false));
    let findings = doc
        .get("findings")
        .and_then(Value::as_arr)
        .expect("findings");
    let first = &findings[0];
    assert_eq!(first.get("rule").and_then(Value::as_str), Some(rule));
    assert_eq!(first.get("file").and_then(Value::as_str), Some(vpath));
    assert_eq!((int(first, "line"), int(first, "col")), (Some(4), Some(21)));
}
