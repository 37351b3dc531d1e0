//! Workspace automation tasks, invoked as `cargo xtask <task>` (see
//! `.cargo/config.toml` for the alias).
//!
//! The static-analysis tasks are thin wrappers over the [`ecl_lint`]
//! engine (`crates/lint`), which replaced this binary's original
//! grep-based passes with token-level rules: span-accurate diagnostics,
//! a waiver system whose unused waivers are themselves errors, and
//! machine-readable JSON reports. `lint` runs the full registry; the
//! `lint-metering` task keeps its historical name and scope (the metering
//! and hot-path rules only) for muscle memory and CI compatibility.
//!
//! # Exit codes
//!
//! Every task uses the same convention:
//!
//! * `0` — success (lint: no findings and no unused waivers).
//! * `1` — the task ran and failed (lint findings, fuzz mismatches).
//! * `2` — usage error: unknown task or malformed arguments.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(args, ecl_lint::rules::all()),
        Some("lint-metering") => lint(args, ecl_lint::rules::metering_subset()),
        Some("fuzz") => fuzz(args),
        Some("--help" | "-h" | "help") => {
            usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown task '{other}'\n");
            usage();
            ExitCode::from(2)
        }
        None => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!("usage: cargo xtask <task> [task options]\n");
    eprintln!("tasks:");
    eprintln!(
        "  lint [--json PATH]\n\
         \u{20}                 run every ecl-lint rule over the workspace sources:\n\
         \u{20}                 metering/trace/hot-path guards plus the determinism,\n\
         \u{20}                 metering-completeness, and unsafe-audit rules; --json\n\
         \u{20}                 additionally writes a machine-readable report to PATH\n\
         \u{20}                 (see `cargo run -p ecl-lint -- --list-rules` for the\n\
         \u{20}                 rule catalogue and DESIGN.md §16 for the waiver policy)"
    );
    eprintln!(
        "  lint-metering [--json PATH]\n\
         \u{20}                 the historical subset: unmetered host accessors and\n\
         \u{20}                 trace ranges inside kernel launch closures, unbalanced\n\
         \u{20}                 open_range/close_range pairs, serial loops/sorts on the\n\
         \u{20}                 sharded MSF kernels, and non-chunked loops in\n\
         \u{20}                 the blessed SWAR kernels"
    );
    eprintln!(
        "  fuzz [--updates] [--cases N] [--seed S] [--sample-every K] [--force-scalar]\n\
         \u{20}                 run the ecl-fuzz differential campaign (release build);\n\
         \u{20}                 minimized failures land in tests/corpus/; --force-scalar\n\
         \u{20}                 rebuilds the solvers on the scalar oracle paths first;\n\
         \u{20}                 --updates runs the dynamic-MSF update-script campaign\n\
         \u{20}                 (rebuild equivalence after every batch) instead"
    );
    eprintln!(
        "\nexit codes: 0 success, 1 task failure (findings, fuzz mismatch),\n\
         \u{20}           2 unknown task or bad arguments"
    );
}

/// Runs the given lint rules over the workspace tree, printing findings to
/// stderr and optionally writing the JSON report.
fn lint(extra: impl Iterator<Item = String>, rules: Vec<Box<dyn ecl_lint::Rule>>) -> ExitCode {
    let mut json: Option<PathBuf> = None;
    let mut extra = extra;
    while let Some(a) = extra.next() {
        match a.as_str() {
            "--json" => match extra.next() {
                Some(p) => json = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--json needs a path\n");
                    usage();
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown lint option '{other}'\n");
                usage();
                return ExitCode::from(2);
            }
        }
    }

    let root = workspace_root();
    let ws = match ecl_lint::Workspace::load(&root, &rules) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("lint: failed to load sources under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let report = ecl_lint::run(&ws, &rules);
    if let Some(path) = &json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("lint: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    for d in report.all_errors() {
        eprintln!("{d}");
    }
    if report.is_clean() {
        println!(
            "lint: {} rule(s) over {} file(s), all clean",
            report.rules.len(),
            report.files_scanned
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\nlint: {} finding(s), {} unused waiver(s).",
            report.findings.len(),
            report.unused_waivers.len()
        );
        ExitCode::FAILURE
    }
}

/// Runs the ecl-fuzz differential campaign in release mode, pointing its
/// corpus output at the checked-in `tests/corpus/` directory so any newly
/// minimized failure is immediately replayable by `cargo test`.
///
/// `--force-scalar` is consumed here (it's a build flag, not a campaign
/// flag): the fuzz binary is rebuilt with the `force-scalar` feature so the
/// whole differential run exercises the scalar oracle paths.
fn fuzz(extra: impl Iterator<Item = String>) -> ExitCode {
    let root = workspace_root();
    let corpus = root.join("tests/corpus");
    let mut extra: Vec<String> = extra.collect();
    let mut cargo_args = vec!["run", "--release", "-p", "ecl-fuzz"];
    if let Some(i) = extra.iter().position(|a| a == "--force-scalar") {
        extra.remove(i);
        cargo_args.extend(["--features", "force-scalar"]);
    }
    cargo_args.extend(["--bin", "ecl-fuzz", "--"]);
    let status = std::process::Command::new(env!("CARGO"))
        .current_dir(&root)
        .args(cargo_args)
        .arg("--corpus")
        .arg(&corpus)
        .args(extra)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("failed to launch ecl-fuzz: {e}");
            ExitCode::FAILURE
        }
    }
}

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}
