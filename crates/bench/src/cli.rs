//! The one strict argument parser of the bench binaries (`ecl-bench` and
//! `bench_snapshot`).
//!
//! Every binary declares the flags it reads; anything else — an unknown
//! flag, a flag missing its value, a non-numeric number, an unknown scale,
//! a flag given twice — is rejected before anything is measured or
//! written, with the usage text and exit status 2. `--help` prints the
//! usage and exits 0.

use crate::runner::Repeats;
use ecl_graph::SuiteScale;
use std::path::PathBuf;

/// What follows a flag on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// No value (`--csv`).
    Switch,
    /// A required free-form value (`--dir PATH`).
    Value,
    /// A required non-negative integer (`--repeats N`).
    Int,
    /// A required suite scale name (`--scale small`).
    Scale,
    /// A required comma-separated list of scale names (`--sharded large,huge`).
    Scales,
    /// An optional path (`--trace [PATH]`): the next argument is taken
    /// unless it is itself a flag.
    OptPath,
}

/// One accepted flag.
pub type Flag = (&'static str, Kind);

/// `--scale tiny|small|medium|large|huge`, accepted by every subcommand.
pub const SCALE: Flag = ("--scale", Kind::Scale);
/// `--repeats N`: runs per wall-clock cell (the paper's 9 by default).
pub const REPEATS: Flag = ("--repeats", Kind::Int);
/// `--trace [PATH]`: record an ecl-trace session.
pub const TRACE: Flag = ("--trace", Kind::OptPath);
/// `--metrics [PATH]`: record an ecl-metrics session.
pub const METRICS: Flag = ("--metrics", Kind::OptPath);
/// `--sanitize`: run under the gpu-sim sanitizer.
pub const SANITIZE: Flag = ("--sanitize", Kind::Switch);
/// `--csv`: print the table as CSV.
pub const CSV: Flag = ("--csv", Kind::Switch);

const SCALES: [SuiteScale; 5] = [
    SuiteScale::Tiny,
    SuiteScale::Small,
    SuiteScale::Medium,
    SuiteScale::Large,
    SuiteScale::Huge,
];

fn scale_named(name: &str) -> Option<SuiteScale> {
    SCALES.into_iter().find(|s| s.name() == name)
}

/// Validated flags of one invocation.
#[derive(Debug, Default)]
pub struct Args {
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parses `args` against the accepted `flags`; `None` when `--help` or
    /// `-h` was given.
    pub fn parse(args: &[String], flags: &[Flag]) -> Result<Option<Args>, String> {
        let mut out = Args::default();
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_str();
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            let &(name, kind) = flags
                .iter()
                .find(|(name, _)| *name == arg)
                .ok_or_else(|| format!("unknown argument `{arg}`"))?;
            if out.has(name) {
                return Err(format!("{name} given twice"));
            }
            let next = args.get(i + 1).filter(|v| !v.starts_with("--"));
            let value = match kind {
                Kind::Switch => None,
                Kind::OptPath => next.cloned(),
                _ => {
                    let v = next.ok_or_else(|| format!("{name} requires a value"))?;
                    check(name, kind, v)?;
                    Some(v.clone())
                }
            };
            i += 1 + usize::from(value.is_some());
            out.given.push((name, value));
        }
        Ok(Some(out))
    }

    /// True when `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| *name == flag)
    }

    /// The value given with `flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(name, _)| *name == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The integer given with an [`Kind::Int`] flag, or `default`.
    pub fn int(&self, flag: &str, default: u64) -> u64 {
        self.value(flag)
            .map_or(default, |v| v.parse().expect("validated by parse"))
    }

    /// `--scale`, defaulting to Small.
    pub fn scale(&self) -> SuiteScale {
        self.value(SCALE.0).map_or(SuiteScale::Small, |v| {
            scale_named(v).expect("validated by parse")
        })
    }

    /// The scales listed with a [`Kind::Scales`] flag (empty when absent).
    pub fn scales(&self, flag: &str) -> Vec<SuiteScale> {
        self.value(flag).map_or_else(Vec::new, |v| {
            v.split(',')
                .map(|s| scale_named(s).expect("validated by parse"))
                .collect()
        })
    }

    /// `--repeats`, defaulting to the paper's 9.
    pub fn repeats(&self) -> Repeats {
        self.value(REPEATS.0).map_or_else(Repeats::default, |v| {
            Repeats(v.parse().expect("validated by parse"))
        })
    }

    /// The path given with `flag`, if any.
    pub fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// An [`Kind::OptPath`] output: the given path, `default` when the flag
    /// has no path or when only the `env` variable is set (to anything but
    /// `0`), `None` otherwise.
    fn output(&self, flag: &str, default: &str, env: &str) -> Option<PathBuf> {
        if self.has(flag) {
            return Some(self.path(flag).unwrap_or_else(|| PathBuf::from(default)));
        }
        match std::env::var(env) {
            Ok(v) if !v.is_empty() && v != "0" => Some(PathBuf::from(default)),
            _ => None,
        }
    }

    /// `--trace [PATH]` (or `ECL_TRACE=1`): the Chrome-trace output path.
    pub fn trace(&self) -> Option<PathBuf> {
        self.output(TRACE.0, "trace.json", "ECL_TRACE")
    }

    /// `--metrics [PATH]` (or `ECL_METRICS=1`): the metrics JSON path.
    pub fn metrics(&self) -> Option<PathBuf> {
        self.output(METRICS.0, "metrics.json", "ECL_METRICS")
    }
}

fn check(name: &str, kind: Kind, v: &str) -> Result<(), String> {
    let bad_scale =
        || format!("{name}: unknown scale in `{v}` (valid scales: tiny|small|medium|large|huge)");
    match kind {
        Kind::Int if v.parse::<u64>().is_err() => {
            Err(format!("{name} takes a non-negative integer, not `{v}`"))
        }
        Kind::Scale if scale_named(v).is_none() => Err(bad_scale()),
        Kind::Scales if !v.split(',').all(|s| scale_named(s).is_some()) => Err(bad_scale()),
        _ => Ok(()),
    }
}

/// The usage line of `command` taking `flags`.
pub fn usage(command: &str, flags: &[Flag]) -> String {
    let mut out = format!("usage: {command}");
    for &(name, kind) in flags {
        out.push_str(&match kind {
            Kind::Switch => format!(" [{name}]"),
            Kind::Value => format!(" [{name} PATH]"),
            Kind::Int => format!(" [{name} N]"),
            Kind::Scale => format!(" [{name} tiny|small|medium|large|huge]"),
            Kind::Scales => format!(" [{name} SCALE[,SCALE...]]"),
            Kind::OptPath => format!(" [{name} [PATH]]"),
        });
    }
    out
}

/// Parses `args` or ends the process: `--help` prints `usage` and exits 0;
/// a rejected argument prints the error and `usage` and exits 2.
pub fn parse_or_exit(args: &[String], flags: &[Flag], usage: &str) -> Args {
    match Args::parse(args, flags) {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{usage}");
            std::process::exit(0);
        }
        Err(e) => usage_error(&e, usage),
    }
}

/// Prints `error` and `usage` to stderr and exits with status 2.
pub fn usage_error(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}\n{usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        SCALE,
        REPEATS,
        TRACE,
        CSV,
        ("--dir", Kind::Value),
        ("--sharded", Kind::Scales),
    ];

    fn parse(xs: &[&str]) -> Result<Option<Args>, String> {
        let args: Vec<String> = xs.iter().map(|s| s.to_string()).collect();
        Args::parse(&args, FLAGS)
    }

    #[test]
    fn accepts_declared_flags_and_defaults() {
        let a = parse(&["--scale", "tiny", "--repeats", "3", "--csv"])
            .unwrap()
            .unwrap();
        assert_eq!(a.scale(), SuiteScale::Tiny);
        assert_eq!(a.repeats().0, 3);
        assert!(a.has("--csv"));
        let a = parse(&[]).unwrap().unwrap();
        assert_eq!(a.scale(), SuiteScale::Small);
        assert_eq!(a.repeats().0, 9);
        assert_eq!(a.path("--dir"), None);
        assert!(a.scales("--sharded").is_empty());
        let a = parse(&["--sharded", "large,huge", "--dir", "out"])
            .unwrap()
            .unwrap();
        assert_eq!(a.scales("--sharded"), [SuiteScale::Large, SuiteScale::Huge]);
        assert_eq!(a.path("--dir"), Some(PathBuf::from("out")));
    }

    #[test]
    fn optional_paths_stop_at_the_next_flag() {
        let a = parse(&["--trace", "out.json"]).unwrap().unwrap();
        assert_eq!(a.trace(), Some(PathBuf::from("out.json")));
        let a = parse(&["--trace", "--csv"]).unwrap().unwrap();
        assert_eq!(a.trace(), Some(PathBuf::from("trace.json")));
        assert!(a.has("--csv"));
        let a = parse(&["--trace"]).unwrap().unwrap();
        assert_eq!(a.trace(), Some(PathBuf::from("trace.json")));
        if std::env::var("ECL_TRACE").is_err() {
            assert_eq!(parse(&[]).unwrap().unwrap().trace(), None);
        }
    }
}
