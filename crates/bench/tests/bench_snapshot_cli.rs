//! `bench_snapshot` rejects input it does not understand before it
//! measures anything, so a typo cannot silently skip a gate.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_before_measuring() {
    let dir = std::env::temp_dir().join(format!("ecl-bench-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for args in [
        &["--scale", "tiny", "--metric-diff", "base.json"][..],
        &["--repeats", "abc"],
        &["--scale"],
        &["--trace", "t.json", "--diff", "--repeats", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_snapshot"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run bench_snapshot");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: bench_snapshot"),
            "{args:?}: {stderr}"
        );
    }
    let written: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(written.is_empty(), "rejected runs wrote {written:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
