//! The bench binaries reject input they do not understand before they
//! measure or write anything, so a typo cannot silently skip a gate or
//! change what a table measures.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh empty working directory per test.
fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecl-bench-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, args: &[&str], dir: &Path) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"))
}

/// Every case must exit 2 with `usage` on stderr and leave `dir` empty.
fn assert_rejected(bin: &str, cases: &[&[&str]], usage: &str, dir: &Path) {
    for args in cases {
        let out = run(bin, args, dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(usage), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
    let written: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(written.is_empty(), "rejected runs wrote {written:?}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bad_arguments_exit_2_before_measuring() {
    assert_rejected(
        env!("CARGO_BIN_EXE_bench_snapshot"),
        &[
            &["--scale", "tiny", "--metric-diff", "base.json"],
            &["--repeats", "abc"],
            &["--scale"],
            &["--scale", "enormous"],
            &["--trace", "t.json", "--diff", "--repeats", "1"],
            &["--diff", "base.json"],
            &["--sharded", "large,nope"],
        ],
        "usage: bench_snapshot",
        &workdir("snapshot"),
    );
}

#[test]
fn ecl_bench_rejects_bad_input_for_every_kind_of_flag() {
    let bin = env!("CARGO_BIN_EXE_ecl-bench");
    for (command, cases) in [
        (
            "table2",
            &[&["--bogus"][..], &["--trace"], &["--repeats", "3"]][..],
        ),
        (
            "table3",
            &[&["--repeats", "abc"], &["--scale"], &["--csv", "--csv"]],
        ),
        ("fig3", &[&["--system", "3"], &["--scale", "enormous"]]),
        ("fig6", &[&["--seeds", "-1"], &["--seeds"]]),
        ("fig7_threshold", &[&["--seed", "abc"]]),
        ("make_inputs", &[&["--dir"], &["--dir", "out", "extra"]]),
        (
            "all",
            &[&["--scale", "bogus"], &["--repeats", "x"], &["--csv"]],
        ),
    ] {
        let cases: Vec<Vec<&str>> = cases
            .iter()
            .map(|args| [&[command][..], args].concat())
            .collect();
        let cases: Vec<&[&str]> = cases.iter().map(Vec::as_slice).collect();
        assert_rejected(
            bin,
            &cases,
            &format!("usage: ecl-bench {command}"),
            &workdir(command),
        );
    }
    // No subcommand, or an unknown one (the old binary names included).
    assert_rejected(
        bin,
        &[&[], &["fig3_4"], &["table9"], &["--scale", "tiny"]],
        "usage: ecl-bench <subcommand>",
        &workdir("overview"),
    );
}

#[test]
fn help_exits_0() {
    let bin = env!("CARGO_BIN_EXE_ecl-bench");
    let dir = workdir("help");
    for args in [&["--help"][..], &["table3", "--help"], &["all", "-h"]] {
        let out = run(bin, args, &dir);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("usage: ecl-bench"));
    }
    let out = run(env!("CARGO_BIN_EXE_bench_snapshot"), &["--help"], &dir);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "--help wrote files"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
