//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as its last line, one
//! JSON object with the check tally and the metrics: the end-to-end ones
//! with `--trace 0`, the per-layer ones with `--trace 1`. Exits 1 when an
//! output check failed and 2 on a usage error.

use ecl_perfbench::workloads::{run_named, NAMES};
use ecl_perfbench::{inputs::DEFAULT_SEED, result_json, Params};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <suite-cpu|suite-sim|dynamic-rmat|sharded-file> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<(String, Params), String> {
    let mut workload = None;
    let mut p = Params {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => p.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                p.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(p.seconds.is_finite() && p.seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                p.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, p))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, p) = match parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let o = run_named(&workload, &p).expect("workload name checked by parse");
    println!(
        "# workload={workload} seed={} seconds={} trace={} threads={} error_rate={}",
        p.seed,
        p.seconds,
        u8::from(p.trace),
        ecl_graph::par::max_threads(),
        o.chk.error_rate()
    );
    for note in &o.notes {
        println!("# {note}");
    }
    if let Some(f) = &o.chk.first_failure {
        println!("# first failure: {f}");
    }
    for (suffix, json) in &o.traces {
        let dir = std::path::Path::new(".bench_build/perfbench/traces");
        let path = dir.join(format!("{workload}-seed{}-{suffix}.json", p.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("# chrome trace: {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&o));
    if o.chk.failed == 0 && o.chk.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
