//! The `BENCH_N.json` wall-clock snapshot chain: the one module that
//! knows the link format, writing links ([`Link::to_json`]) and reading
//! them back ([`read_snapshot`]) through the workspace JSON codec.
//!
//! Every `bench_snapshot` run appends the next link: it scans the working
//! directory for existing `BENCH_<N>.json` files, writes `BENCH_<N+1>.json`,
//! and — when the newest previous snapshot describes the *same workload*
//! (equal scale and repeat count, neither run sanitized nor replayed from
//! the retired measurement store) — reports that
//! snapshot's total wall seconds as the baseline, so
//! `speedup_vs_baseline` tracks regression/improvement PR over PR without
//! hand-maintained constants.

use crate::dynamic::DynamicUpdatesReport;
use crate::sharded::ShardedCell;
use ecl_metrics::json::{self, Value};
use ecl_metrics::{Kind, Snapshot, Stability};
use ecl_trace::{Profile, WallKernel};
use std::path::Path;

/// One code's totals over the whole suite.
#[derive(Debug, Clone)]
pub struct CodeTotals {
    pub name: &'static str,
    pub wall_seconds: f64,
    pub simulated_ms: f64,
}

/// Everything one `BENCH_<N>.json` link records.
#[derive(Debug, Clone)]
pub struct Link<'a> {
    /// Suite scale, Debug spelling (e.g. `Small`).
    pub scale: String,
    pub repeats: u64,
    pub sanitize: bool,
    pub inputs: usize,
    pub codes: Vec<CodeTotals>,
    pub total_wall_seconds: f64,
    /// Simulated per-kernel profile and wall-span breakdown of a traced run.
    pub trace: Option<&'a (Profile, Vec<WallKernel>)>,
    /// Telemetry of a metered run.
    pub metrics: Option<&'a Snapshot>,
    pub dynamic: &'a DynamicUpdatesReport,
    pub sharded: &'a [ShardedCell],
    /// Baseline total wall seconds and where they came from.
    pub baseline: Option<(f64, String)>,
    pub peak_rss_bytes: u64,
    pub scratch_const_bytes: u64,
    pub scratch_pooled_bytes: u64,
}

/// `v` rounded to `decimals` places, so wall-clock noise below the
/// link's resolution stays out of the file.
fn fixed(v: f64, decimals: i32) -> Value {
    let scale = 10f64.powi(decimals);
    Value::Num((v * scale).round() / scale)
}

impl Link<'_> {
    /// Serializes the link: one top-level key per line, and one line per
    /// array row.
    pub fn to_json(&self) -> String {
        let codes = self.codes.iter().map(|c| {
            Value::obj(vec![
                ("name", c.name.into()),
                ("wall_seconds", fixed(c.wall_seconds, 4)),
                ("simulated_ms", fixed(c.simulated_ms, 4)),
            ])
        });
        let mut doc = vec![
            ("workload", "table3".into()),
            ("scale", self.scale.as_str().into()),
            ("repeats", self.repeats.into()),
            ("sanitize", self.sanitize.into()),
            ("inputs", self.inputs.into()),
            ("codes", Value::Arr(codes.collect())),
            ("total_wall_seconds", fixed(self.total_wall_seconds, 4)),
        ];
        if let Some((profile, breakdown)) = self.trace {
            let kernels = profile.kernels.iter().map(|k| {
                Value::obj(vec![
                    ("name", k.name.as_str().into()),
                    ("share", fixed(k.share, 4)),
                    ("sim_seconds", fixed(k.sim_seconds, 6)),
                ])
            });
            let spans = breakdown.iter().map(|k| {
                Value::obj(vec![
                    ("name", k.name.as_str().into()),
                    ("calls", k.calls.into()),
                    ("total_seconds", fixed(k.total_seconds, 4)),
                    ("self_seconds", fixed(k.self_seconds, 4)),
                ])
            });
            doc.push(("kernel_breakdown", Value::Arr(kernels.collect())));
            doc.push(("wall_breakdown", Value::Arr(spans.collect())));
        }
        if let Some(snap) = self.metrics {
            let mut block = vec![
                ("format", json::FORMAT.into()),
                ("dsu_retry_total", snap.counter("ecl.dsu.cas_retry").into()),
            ];
            for e in snap
                .entries
                .iter()
                .filter(|e| e.stability == Stability::Stable)
            {
                let v = match e.kind {
                    Kind::Gauge => e.gauge.into(),
                    _ => e.count.into(),
                };
                block.push((e.name, v));
            }
            doc.push(("metrics", Value::obj(block)));
        }
        let d = self.dynamic;
        doc.push((
            "dynamic_updates",
            Value::obj(vec![
                ("batches", d.batches.into()),
                ("ops_per_batch", d.ops_per_batch.into()),
                ("engine_wall_seconds", fixed(d.engine_wall_seconds, 6)),
                ("rebuild_wall_seconds", fixed(d.rebuild_wall_seconds, 6)),
                ("updates_speedup_vs_rebuild", fixed(d.speedup(), 3)),
            ]),
        ));
        if !self.sharded.is_empty() {
            let cells = self.sharded.iter().map(|c| {
                Value::obj(vec![
                    ("scale", c.scale.name().into()),
                    ("shards", c.shards.into()),
                    ("wall_seconds", fixed(c.wall_seconds, 4)),
                    (
                        "monolith_wall_seconds",
                        c.monolith_wall_seconds.map(|m| fixed(m, 4)).into(),
                    ),
                    (
                        "slowdown_vs_monolith",
                        c.slowdown_vs_monolith().map(|s| fixed(s, 3)).into(),
                    ),
                    ("parity", c.parity.into()),
                    ("forest_edges", c.forest_edges.into()),
                    ("survivor_edges", c.survivor_edges.into()),
                    ("merge_rounds", u64::from(c.merge_rounds).into()),
                    ("spill_bytes", c.spill_bytes.into()),
                    ("peak_rss_bytes", c.peak_rss_bytes.into()),
                    ("rss_budget_bytes", c.rss_budget_bytes.into()),
                    ("within_budget", c.within_budget().into()),
                ])
            });
            doc.push(("sharded", Value::Arr(cells.collect())));
        }
        let baseline = self.baseline.as_ref();
        doc.extend([
            (
                "baseline_wall_seconds",
                baseline.map(|b| fixed(b.0, 4)).into(),
            ),
            ("baseline_source", baseline.map(|b| b.1.as_str()).into()),
            (
                "speedup_vs_baseline",
                baseline
                    .map(|b| fixed(b.0 / self.total_wall_seconds, 3))
                    .into(),
            ),
            ("peak_rss_bytes", self.peak_rss_bytes.into()),
            ("scratch_const_bytes", self.scratch_const_bytes.into()),
            ("scratch_pooled_bytes", self.scratch_pooled_bytes.into()),
        ]);
        Value::obj(doc).to_document()
    }
}

/// Fields of a previous snapshot needed to decide baseline comparability.
#[derive(Debug, Clone, PartialEq)]
pub struct PrevSnapshot {
    /// File name the snapshot was read from (e.g. `BENCH_1.json`).
    pub file: String,
    /// `total_wall_seconds` field.
    pub total_wall_seconds: f64,
    /// `scale` field (Debug spelling, e.g. `Small`).
    pub scale: Option<String>,
    /// `repeats` field.
    pub repeats: Option<u64>,
    /// `sanitize` field (absent in pre-chain snapshots = unsanitized).
    pub sanitize: bool,
    /// `sim_cache` field: the run replayed cells from the on-disk
    /// measurement store that earlier versions kept (absent = measured).
    pub sim_cache: bool,
}

impl PrevSnapshot {
    /// True when this snapshot's workload matches the given one, making its
    /// wall time an apples-to-apples baseline. A run that replayed cells
    /// from the retired measurement store skipped simulation work every
    /// new run pays for, so it is never a baseline.
    pub fn comparable_to(&self, scale: &str, repeats: u64) -> bool {
        !self.sanitize
            && !self.sim_cache
            && self.scale.as_deref() == Some(scale)
            && self.repeats == Some(repeats)
    }
}

/// Index of a `BENCH_<N>.json` file name, if it is one.
fn snapshot_index(name: &str) -> Option<u32> {
    let rest = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
    (!rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
        .then(|| rest.parse().ok())
        .flatten()
}

/// Highest existing snapshot index in `dir` (0 when none exist).
pub fn latest_index(dir: &Path) -> u32 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| snapshot_index(&e.file_name().to_string_lossy()))
        .max()
        .unwrap_or(0)
}

/// Parses the previous snapshot `BENCH_<index>.json` in `dir`, if present,
/// valid JSON, and carrying a total.
pub fn read_snapshot(dir: &Path, index: u32) -> Option<PrevSnapshot> {
    let file = format!("BENCH_{index}.json");
    let doc = json::parse(&std::fs::read_to_string(dir.join(&file)).ok()?).ok()?;
    let flag = |key| doc.get(key).and_then(Value::as_bool).unwrap_or(false);
    Some(PrevSnapshot {
        total_wall_seconds: doc.get("total_wall_seconds")?.as_f64()?,
        scale: doc.get("scale").and_then(Value::as_str).map(str::to_string),
        repeats: doc.get("repeats").and_then(Value::as_u64),
        sanitize: flag("sanitize"),
        sim_cache: flag("sim_cache"),
        file,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ecl-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    const SAMPLE: &str = r#"{
  "workload": "table3",
  "scale": "Small",
  "repeats": 3,
  "inputs": 17,
  "codes": [
    {"name": "ECL-MST", "wall_seconds": 0.1234, "simulated_ms": 1.5}
  ],
  "total_wall_seconds": 6.0830,
  "baseline_wall_seconds": 11.1740,
  "speedup_vs_baseline": 1.837,
  "peak_rss_bytes": 123
}
"#;

    #[test]
    fn parses_the_existing_snapshot_format() {
        let d = tmpdir("parse");
        std::fs::write(d.join("BENCH_1.json"), SAMPLE).unwrap();
        let s = read_snapshot(&d, 1).unwrap();
        assert_eq!(s.total_wall_seconds, 6.083);
        assert_eq!(s.scale.as_deref(), Some("Small"));
        assert_eq!(s.repeats, Some(3));
        assert!(!s.sanitize);
        assert!(!s.sim_cache);
        assert!(s.comparable_to("Small", 3));
        assert!(!s.comparable_to("Small", 9));
        assert!(!s.comparable_to("Tiny", 3));
        let _ = std::fs::remove_dir_all(&d);

        // Every committed link keeps reading to the same baseline fields.
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        for (index, total, scale, repeats, sim_cache) in [
            (1, 0.1781, "Tiny", 1, false),
            (2, 6.7904, "Small", 3, false),
            (3, 4.6874, "Small", 3, false),
            (4, 3.2304, "Small", 3, true),
            (5, 2.3295, "Small", 3, true),
            (6, 2.2909, "Small", 3, true),
            (7, 0.2237, "Tiny", 1, false),
        ] {
            let s = read_snapshot(root, index).expect("committed link parses");
            assert_eq!(s.file, format!("BENCH_{index}.json"));
            assert_eq!(s.total_wall_seconds, total, "{}", s.file);
            assert_eq!(s.scale.as_deref(), Some(scale), "{}", s.file);
            assert_eq!(s.repeats, Some(repeats), "{}", s.file);
            assert!(!s.sanitize, "{}", s.file);
            assert_eq!(s.sim_cache, sim_cache, "{}", s.file);
            // A link that replayed cached cells is never a baseline.
            assert_eq!(s.comparable_to(scale, repeats), !sim_cache, "{}", s.file);
        }
    }

    #[test]
    fn sanitized_snapshots_are_never_baselines() {
        let d = tmpdir("sanitized");
        let text = SAMPLE.replace("\"repeats\": 3,", "\"repeats\": 3,\n  \"sanitize\": true,");
        std::fs::write(d.join("BENCH_4.json"), text).unwrap();
        let s = read_snapshot(&d, 4).unwrap();
        assert!(s.sanitize);
        assert!(!s.comparable_to("Small", 3));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn written_links_read_back() {
        let kernel = ecl_trace::KernelProfile {
            name: "kernel1 \"x\"".into(),
            launches: 3,
            sim_seconds: 0.0012345678,
            share: 0.61234,
            atomics: 5,
            cas_retries: 1,
            max_imbalance: 1.5,
            mean_imbalance: 1.25,
        };
        let span = WallKernel {
            name: "plan".into(),
            calls: 2,
            total_seconds: 0.5,
            self_seconds: 0.25,
        };
        let trace = (
            Profile {
                kernels: vec![kernel],
                ..Profile::default()
            },
            vec![span],
        );
        let ((), metrics) = ecl_metrics::with_metrics(|| {
            ecl_metrics::counter!(RUNNER_CELLS, 3);
            ecl_metrics::counter!(DSU_CAS_RETRY, 1);
        });
        let dynamic = DynamicUpdatesReport {
            batches: 8,
            ops_per_batch: 32,
            engine_wall_seconds: 0.1,
            rebuild_wall_seconds: 0.2,
        };
        let sharded = [ShardedCell {
            scale: ecl_graph::SuiteScale::Large,
            shards: 8,
            wall_seconds: 1.06934,
            monolith_wall_seconds: None,
            parity: None,
            forest_edges: 1_048_575,
            survivor_edges: 4_113_193,
            merge_rounds: 3,
            spill_bytes: 1 << 31,
            peak_rss_bytes: 200 << 20,
            rss_budget_bytes: 1 << 30,
        }];
        // A Huge in-core window stays keyed on its own scale, not on the
        // scale of the sharded cells nested inside it.
        let link = Link {
            scale: "Huge".into(),
            repeats: 3,
            sanitize: false,
            inputs: 17,
            codes: vec![CodeTotals {
                name: "ECL-MST",
                wall_seconds: 0.03351,
                simulated_ms: 21.80864,
            }],
            total_wall_seconds: 2.29094,
            trace: Some(&trace),
            metrics: Some(&metrics),
            dynamic: &dynamic,
            sharded: &sharded,
            baseline: Some((2.3295, "BENCH_5.json".into())),
            peak_rss_bytes: 123,
            scratch_const_bytes: 0,
            scratch_pooled_bytes: 456,
        };
        let text = link.to_json();
        let d = tmpdir("roundtrip");
        std::fs::write(d.join("BENCH_9.json"), &text).unwrap();
        let s = read_snapshot(&d, 9).unwrap();
        let _ = std::fs::remove_dir_all(&d);
        assert_eq!(s.total_wall_seconds, 2.2909);
        assert_eq!((s.scale.as_deref(), s.repeats), (Some("Huge"), Some(3)));
        assert!(!s.sanitize && !s.sim_cache);
        assert!(s.comparable_to("Huge", 3));
        assert!(!s.comparable_to("Large", 3));

        let doc = json::parse(&text).unwrap();
        let first = |key| &doc.get(key).and_then(Value::as_arr).unwrap()[0];
        let num = |v: &Value, key| v.get(key).and_then(Value::as_f64);
        let kernel = first("kernel_breakdown");
        let name = kernel.get("name").and_then(Value::as_str);
        assert_eq!(name, Some("kernel1 \"x\""));
        assert_eq!(num(kernel, "share"), Some(0.6123));
        assert_eq!(num(kernel, "sim_seconds"), Some(0.001235));
        assert_eq!(num(first("wall_breakdown"), "calls"), Some(2.0));
        let m = doc.get("metrics").unwrap();
        assert_eq!(m.get("format").and_then(Value::as_str), Some(json::FORMAT));
        assert_eq!(num(m, "dsu_retry_total"), Some(1.0));
        assert_eq!(num(m, "ecl.runner.cells"), Some(3.0));
        let cell = first("sharded");
        assert_eq!(cell.get("scale").and_then(Value::as_str), Some("large"));
        assert_eq!(num(cell, "wall_seconds"), Some(1.0693));
        assert_eq!(cell.get("parity"), Some(&Value::Null));
        assert_eq!(num(cell, "spill_bytes"), Some(2147483648.0));
        assert_eq!(num(&doc, "speedup_vs_baseline"), Some(1.017));
    }

    #[test]
    fn latest_index_scans_the_chain() {
        let d = tmpdir("latest");
        assert_eq!(latest_index(&d), 0);
        for (name, body) in [
            ("BENCH_1.json", SAMPLE),
            ("BENCH_3.json", SAMPLE),
            ("BENCH_x.json", SAMPLE), // not a chain link
            ("BENCH_2.json.bak", SAMPLE),
        ] {
            std::fs::write(d.join(name), body).unwrap();
        }
        assert_eq!(latest_index(&d), 3);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_or_malformed_snapshots_read_as_none() {
        let d = tmpdir("missing");
        assert_eq!(read_snapshot(&d, 1), None);
        std::fs::write(d.join("BENCH_2.json"), "{ not json").unwrap();
        assert_eq!(read_snapshot(&d, 2), None);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn index_parsing_rejects_non_chain_names() {
        assert_eq!(snapshot_index("BENCH_12.json"), Some(12));
        assert_eq!(snapshot_index("BENCH_.json"), None);
        assert_eq!(snapshot_index("BENCH_1.json.tmp"), None);
        assert_eq!(snapshot_index("bench_1.json"), None);
    }
}
