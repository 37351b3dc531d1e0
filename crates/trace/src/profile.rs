//! The machine-readable profile: deterministic per-kernel and per-round
//! aggregates of one trace session.
//!
//! Only *simulated*-clock quantities enter the profile (kernel seconds,
//! memcpy seconds, metered counters, round spans on the sim timeline, the
//! find-hop histogram) — wall-clock durations are excluded so that a
//! profile of a deterministic run serializes to identical bytes across
//! machines. This is what lets CI diff a fresh `bench_snapshot --trace`
//! profile against a checked-in fixture.

use crate::json::{self, Value};
use crate::{Clock, Event, HopHistogram, TraceSession, HOP_BUCKETS};
use std::fmt::Write as _;

/// Range name treated as an iteration boundary by the round aggregator.
pub const ROUND_SPAN: &str = "round";

/// Per-kernel aggregate over one session, in first-launch order.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel name as passed to `Device::launch`.
    pub name: String,
    /// Number of launches.
    pub launches: u64,
    /// Total simulated seconds across launches.
    pub sim_seconds: f64,
    /// Share of the session's total *launch* seconds (sync reads excluded,
    /// so shares match a fold over `Device::records()` exactly; 0 when no
    /// launches).
    pub share: f64,
    /// Total atomics across launches.
    pub atomics: u64,
    /// Total failed CAS attempts across launches.
    pub cas_retries: u64,
    /// Largest per-launch imbalance ratio observed.
    pub max_imbalance: f64,
    /// Launch-count-weighted mean imbalance ratio.
    pub mean_imbalance: f64,
}

/// One `"round"` span's snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundProfile {
    /// Zero-based round ordinal within the session.
    pub index: usize,
    /// Simulated seconds spent in the round (0 for wall-clock rounds —
    /// wall durations are nondeterministic and excluded by design).
    pub sim_seconds: f64,
    /// Metrics captured at the round's close (counter deltas plus
    /// explicit attaches), in capture order.
    pub metrics: Vec<(String, f64)>,
}

impl RoundProfile {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Deterministic profile of one trace session.
#[must_use = "a Profile is the session's aggregate; export, print, or diff it"]
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Per-kernel aggregates in first-launch order.
    pub kernels: Vec<KernelProfile>,
    /// Per-round snapshots in execution order.
    pub rounds: Vec<RoundProfile>,
    /// Total simulated kernel seconds (sum over launches).
    pub total_kernel_seconds: f64,
    /// Total simulated memcpy seconds (bulk copies and sync reads).
    pub total_memcpy_seconds: f64,
    /// Session-wide find-hop histogram.
    pub hops: HopHistogram,
}

impl Profile {
    /// Builds the profile from a finished session.
    pub fn from_session(session: &TraceSession) -> Self {
        let mut kernels: Vec<KernelProfile> = Vec::new();
        let mut total_kernel = 0.0f64;
        // Launch-only seconds, summed in event order: bit-identical to any
        // in-order fold over `Device::records()`, so `share` agrees exactly
        // with a record-scan share (`kernel_profile`'s historical path).
        let mut launch_total = 0.0f64;
        let mut total_memcpy = 0.0f64;
        let mut rounds = Vec::new();
        // Stack of (is_round, clock, open sim ts) mirroring Begin/End.
        let mut span_stack: Vec<(bool, Clock, f64)> = Vec::new();
        let mut sim_cursor = 0.0f64;
        for ev in session.events() {
            match ev {
                Event::Launch {
                    name,
                    dur_us,
                    metrics,
                    ..
                } => {
                    sim_cursor += dur_us;
                    total_kernel += metrics.sim_seconds;
                    launch_total += metrics.sim_seconds;
                    let k = match kernels.iter_mut().find(|k| k.name == *name) {
                        Some(k) => k,
                        None => {
                            kernels.push(KernelProfile {
                                name: name.clone(),
                                launches: 0,
                                sim_seconds: 0.0,
                                share: 0.0,
                                atomics: 0,
                                cas_retries: 0,
                                max_imbalance: 0.0,
                                mean_imbalance: 0.0,
                            });
                            kernels.last_mut().expect("just pushed")
                        }
                    };
                    k.launches += 1;
                    k.sim_seconds += metrics.sim_seconds;
                    k.atomics += metrics.atomics;
                    k.cas_retries += metrics.cas_retries;
                    k.max_imbalance = k.max_imbalance.max(metrics.imbalance);
                    // Accumulate; divided by launches at the end.
                    k.mean_imbalance += metrics.imbalance;
                }
                Event::Memcpy { name, dur_us, .. } => {
                    sim_cursor += dur_us;
                    if *name == "sync_read" {
                        total_kernel += dur_us / 1e6;
                    } else {
                        total_memcpy += dur_us / 1e6;
                    }
                }
                Event::Begin { name, clock, .. } => {
                    span_stack.push((name == ROUND_SPAN, *clock, sim_cursor));
                }
                Event::End { metrics, .. } => {
                    if let Some((is_round, clock, open_sim)) = span_stack.pop() {
                        if is_round {
                            rounds.push(RoundProfile {
                                index: rounds.len(),
                                sim_seconds: match clock {
                                    Clock::Sim => (sim_cursor - open_sim) / 1e6,
                                    Clock::Wall => 0.0,
                                },
                                metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
                            });
                        }
                    }
                }
            }
        }
        for k in &mut kernels {
            if k.launches > 0 {
                k.mean_imbalance /= k.launches as f64;
            }
            if launch_total > 0.0 {
                k.share = k.sim_seconds / launch_total;
            }
        }
        Profile {
            kernels,
            rounds,
            total_kernel_seconds: total_kernel,
            total_memcpy_seconds: total_memcpy,
            hops: *session.hop_histogram(),
        }
    }

    /// Looks up a kernel aggregate by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelProfile> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Serializes the profile as JSON (stable byte-for-byte for
    /// deterministic sessions; `f64`s use shortest round-trip form).
    pub fn to_json(&self) -> String {
        let kernels = self.kernels.iter().map(|k| {
            Value::obj(vec![
                ("name", k.name.as_str().into()),
                ("launches", k.launches.into()),
                ("sim_seconds", k.sim_seconds.into()),
                ("share", k.share.into()),
                ("atomics", k.atomics.into()),
                ("cas_retries", k.cas_retries.into()),
                ("max_imbalance", k.max_imbalance.into()),
                ("mean_imbalance", k.mean_imbalance.into()),
            ])
        });
        let rounds = self.rounds.iter().map(|r| {
            let metrics = r.metrics.iter().map(|(k, v)| (k.clone(), Value::Num(*v)));
            Value::obj(vec![
                ("index", r.index.into()),
                ("sim_seconds", r.sim_seconds.into()),
                ("metrics", Value::Obj(metrics.collect())),
            ])
        });
        let buckets = self.hops.buckets.iter().map(|&b| b.into());
        Value::obj(vec![
            ("schema", "ecl-trace-profile/1".into()),
            ("total_kernel_seconds", self.total_kernel_seconds.into()),
            ("total_memcpy_seconds", self.total_memcpy_seconds.into()),
            ("kernels", Value::Arr(kernels.collect())),
            ("rounds", Value::Arr(rounds.collect())),
            (
                "find_hops",
                Value::obj(vec![
                    ("calls", self.hops.calls.into()),
                    ("total_hops", self.hops.total_hops.into()),
                    ("buckets", Value::Arr(buckets.collect())),
                ]),
            ),
        ])
        .to_document()
    }

    /// Parses a profile previously written by [`Profile::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        if doc.get("schema").and_then(Value::as_str) != Some("ecl-trace-profile/1") {
            return Err("not an ecl-trace-profile/1 document".into());
        }
        let num = |v: &Value, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing number `{key}`"))
        };
        let int = |v: &Value, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing integer `{key}`"))
        };
        let mut kernels = Vec::new();
        for k in doc
            .get("kernels")
            .and_then(Value::as_arr)
            .ok_or("missing kernels")?
        {
            kernels.push(KernelProfile {
                name: k
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("kernel missing name")?
                    .to_string(),
                launches: int(k, "launches")?,
                sim_seconds: num(k, "sim_seconds")?,
                share: num(k, "share")?,
                atomics: int(k, "atomics")?,
                cas_retries: int(k, "cas_retries")?,
                max_imbalance: num(k, "max_imbalance")?,
                mean_imbalance: num(k, "mean_imbalance")?,
            });
        }
        let mut rounds = Vec::new();
        for r in doc
            .get("rounds")
            .and_then(Value::as_arr)
            .ok_or("missing rounds")?
        {
            let metrics = match r.get("metrics") {
                Some(Value::Obj(m)) => m
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                    .collect(),
                _ => Vec::new(),
            };
            rounds.push(RoundProfile {
                index: int(r, "index")? as usize,
                sim_seconds: num(r, "sim_seconds")?,
                metrics,
            });
        }
        let mut hops = HopHistogram::default();
        if let Some(h) = doc.get("find_hops") {
            hops.calls = int(h, "calls")?;
            hops.total_hops = int(h, "total_hops")?;
            if let Some(buckets) = h.get("buckets").and_then(Value::as_arr) {
                for (i, b) in buckets.iter().take(HOP_BUCKETS).enumerate() {
                    hops.buckets[i] = b.as_u64().ok_or("bad bucket")?;
                }
            }
        }
        Ok(Profile {
            kernels,
            rounds,
            total_kernel_seconds: num(&doc, "total_kernel_seconds")?,
            total_memcpy_seconds: num(&doc, "total_memcpy_seconds")?,
            hops,
        })
    }

    /// Compares `self` (current) against `baseline`, flagging per-kernel
    /// and total simulated-time regressions above `threshold` (e.g.
    /// `0.05` = 5%). Kernels below 0.1% share are reported but never
    /// flagged (noise floor).
    pub fn diff(&self, baseline: &Profile, threshold: f64) -> DiffReport {
        let mut lines = Vec::new();
        let mut regressions = Vec::new();
        let rel = |new: f64, old: f64| -> f64 {
            if old > 0.0 {
                (new - old) / old
            } else if new > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        };
        let total_delta = rel(self.total_kernel_seconds, baseline.total_kernel_seconds);
        lines.push(format!(
            "total kernel seconds: {:.6e} -> {:.6e} ({:+.2}%)",
            baseline.total_kernel_seconds,
            self.total_kernel_seconds,
            total_delta * 100.0
        ));
        if total_delta > threshold {
            regressions.push(format!(
                "total kernel time regressed {:+.2}% (> {:.0}%)",
                total_delta * 100.0,
                threshold * 100.0
            ));
        }
        for k in &self.kernels {
            match baseline.kernel(&k.name) {
                None => lines.push(format!("kernel `{}`: new (not in baseline)", k.name)),
                Some(b) => {
                    let d = rel(k.sim_seconds, b.sim_seconds);
                    lines.push(format!(
                        "kernel `{}`: {:.6e} -> {:.6e} ({:+.2}%), launches {} -> {}",
                        k.name,
                        b.sim_seconds,
                        k.sim_seconds,
                        d * 100.0,
                        b.launches,
                        k.launches
                    ));
                    if d > threshold && k.share >= 1e-3 {
                        regressions.push(format!(
                            "kernel `{}` regressed {:+.2}% (> {:.0}%)",
                            k.name,
                            d * 100.0,
                            threshold * 100.0
                        ));
                    }
                }
            }
        }
        for b in &baseline.kernels {
            if self.kernel(&b.name).is_none() {
                lines.push(format!("kernel `{}`: removed (baseline only)", b.name));
            }
        }
        if self.rounds.len() != baseline.rounds.len() {
            lines.push(format!(
                "rounds: {} -> {}",
                baseline.rounds.len(),
                self.rounds.len()
            ));
        }
        for (cur, old) in self.rounds.iter().zip(baseline.rounds.iter()) {
            let (c, o) = (cur.metric("worklist_in"), old.metric("worklist_in"));
            if let (Some(c), Some(o)) = (c, o) {
                if c != o {
                    lines.push(format!("round {}: worklist_in {} -> {}", cur.index, o, c));
                }
            }
        }
        DiffReport { lines, regressions }
    }

    /// Pretty per-kernel table (§5.1-style shares), largest share first.
    pub fn kernel_table(&self) -> String {
        let mut rows: Vec<&KernelProfile> = self.kernels.iter().collect();
        rows.sort_by(|a, b| b.sim_seconds.total_cmp(&a.sim_seconds));
        let mut out = String::new();
        out.push_str(
            "kernel                      launches     sim ms   share   atomics  cas_retry  imb(max)\n",
        );
        for k in rows {
            let _ = writeln!(
                out,
                "{:<26} {:>9} {:>10.4} {:>6.1}% {:>9} {:>10} {:>9.2}",
                k.name,
                k.launches,
                k.sim_seconds * 1e3,
                k.share * 100.0,
                k.atomics,
                k.cas_retries,
                k.max_imbalance
            );
        }
        let launch_seconds: f64 = self.kernels.iter().map(|k| k.sim_seconds).sum();
        let _ = writeln!(
            out,
            "{:<26} {:>9} {:>10.4} {:>6.1}%",
            "TOTAL (launches)",
            self.kernels.iter().map(|k| k.launches).sum::<u64>(),
            launch_seconds * 1e3,
            100.0
        );
        // `total_kernel_seconds` additionally carries loop-control sync
        // reads (which stall the device like kernel time but are no kernel).
        let sync_seconds = self.total_kernel_seconds - launch_seconds;
        if sync_seconds > 0.0 {
            let _ = writeln!(
                out,
                "{:<26} {:>9} {:>10.4}",
                "sync_read (loop control)",
                "",
                sync_seconds * 1e3
            );
        }
        if self.total_memcpy_seconds > 0.0 {
            let _ = writeln!(
                out,
                "{:<26} {:>9} {:>10.4}",
                "memcpy (bulk)",
                "",
                self.total_memcpy_seconds * 1e3
            );
        }
        out
    }

    /// Pretty per-round table: sim time plus the captured metrics.
    pub fn round_table(&self) -> String {
        let mut out = String::new();
        if self.rounds.is_empty() {
            return out;
        }
        out.push_str("round     sim ms   metrics\n");
        for r in &self.rounds {
            let metrics = r
                .metrics
                .iter()
                .map(|(k, v)| {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        format!("{k}={}", *v as i64)
                    } else {
                        format!("{k}={v:.3}")
                    }
                })
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "{:>5} {:>10.4}   {}",
                r.index,
                r.sim_seconds * 1e3,
                metrics
            );
        }
        if self.hops.calls > 0 {
            let _ = writeln!(
                out,
                "find: {} calls, mean {:.2} hops, max bucket {} — histogram {:?}",
                self.hops.calls,
                self.hops.mean(),
                self.hops.max_bucket(),
                &self.hops.buckets[..=self.hops.max_bucket()]
            );
        }
        out
    }
}

/// Result of [`Profile::diff`].
#[must_use = "inspect regressions to decide pass/fail"]
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Human-readable per-kernel/per-round delta lines.
    pub lines: Vec<String>,
    /// Regressions above the threshold (empty = pass).
    pub regressions: Vec<String>,
}

impl DiffReport {
    /// True when no regression exceeded the threshold.
    pub fn is_pass(&self) -> bool {
        self.regressions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{range, with_trace, LaunchMetrics};

    fn sample_session() -> TraceSession {
        let ((), s) = with_trace(|| {
            let _run = range!(sim: "run");
            for round in 0..3u32 {
                let _r = range!(sim: "round");
                crate::attach("worklist_in", (100 >> round) as f64);
                crate::on_launch(
                    "kernel1",
                    LaunchMetrics {
                        tasks: 100,
                        atomics: 10,
                        cas_retries: 2,
                        sim_seconds: 3e-6,
                        imbalance: 2.0,
                        ..Default::default()
                    },
                );
                crate::on_launch(
                    "kernel2",
                    LaunchMetrics {
                        tasks: 100,
                        sim_seconds: 1e-6,
                        imbalance: 1.0,
                        ..Default::default()
                    },
                );
                crate::record_find_hops(2);
            }
            crate::on_memcpy("sync_read", 4, 5e-7);
            crate::on_memcpy("memcpy_d2h", 1 << 20, 1e-5);
        });
        s
    }

    #[test]
    fn profile_aggregates_kernels_and_rounds() {
        let p = sample_session().profile();
        assert_eq!(p.kernels.len(), 2);
        let k1 = p.kernel("kernel1").unwrap();
        assert_eq!(k1.launches, 3);
        assert!((k1.sim_seconds - 9e-6).abs() < 1e-18);
        assert_eq!(k1.atomics, 30);
        assert_eq!(k1.cas_retries, 6);
        assert!((k1.max_imbalance - 2.0).abs() < 1e-12);
        // total kernel = 12e-6 launches + 5e-7 sync read
        assert!((p.total_kernel_seconds - 1.25e-5).abs() < 1e-18);
        assert!((p.total_memcpy_seconds - 1e-5).abs() < 1e-18);
        // Share is over *launch* seconds (12e-6), not launch + sync read.
        assert!((k1.share - 9e-6 / 1.2e-5).abs() < 1e-12);
        assert_eq!(p.rounds.len(), 3);
        assert_eq!(p.rounds[0].metric("worklist_in"), Some(100.0));
        assert_eq!(p.rounds[2].metric("worklist_in"), Some(25.0));
        assert!((p.rounds[0].sim_seconds - 4e-6).abs() < 1e-18);
        assert_eq!(p.hops.calls, 3);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let p = sample_session().profile();
        let text = p.to_json();
        let back = Profile::from_json(&text).unwrap();
        assert_eq!(back.kernels, p.kernels);
        assert_eq!(back.total_kernel_seconds, p.total_kernel_seconds);
        assert_eq!(back.total_memcpy_seconds, p.total_memcpy_seconds);
        assert_eq!(back.hops, p.hops);
        assert_eq!(back.rounds.len(), p.rounds.len());
        for (a, b) in back.rounds.iter().zip(p.rounds.iter()) {
            assert_eq!(a.sim_seconds, b.sim_seconds);
            // Object keys sort on parse; compare as sets.
            let mut am = a.metrics.clone();
            let mut bm = b.metrics.clone();
            am.sort_by(|x, y| x.0.cmp(&y.0));
            bm.sort_by(|x, y| x.0.cmp(&y.0));
            assert_eq!(am, bm);
        }
        // Re-serializing the round-tripped struct must be stable once keys
        // are in parsed order.
        assert_eq!(Profile::from_json(&back.to_json()).unwrap(), back);
    }

    #[test]
    fn diff_flags_regressions_over_threshold() {
        let base = sample_session().profile();
        let mut cur = base.clone();
        cur.kernels[0].sim_seconds *= 1.10;
        cur.total_kernel_seconds += base.kernels[0].sim_seconds * 0.10;
        let report = cur.diff(&base, 0.05);
        assert!(!report.is_pass());
        assert!(report.regressions.iter().any(|r| r.contains("kernel1")));
        // Identical profiles pass.
        assert!(base.diff(&base, 0.05).is_pass());
        // Improvements pass.
        let mut faster = base.clone();
        faster.kernels[0].sim_seconds *= 0.5;
        faster.total_kernel_seconds -= base.kernels[0].sim_seconds * 0.5;
        assert!(faster.diff(&base, 0.05).is_pass());
    }

    #[test]
    fn tables_render() {
        let p = sample_session().profile();
        let kt = p.kernel_table();
        assert!(kt.contains("kernel1"));
        assert!(kt.contains("TOTAL"));
        let rt = p.round_table();
        assert!(rt.contains("worklist_in=100"));
        assert!(rt.contains("find: 3 calls"));
    }
}
