//! Prometheus text-format exposition.
//!
//! The scrape surface a future `ecl-serve` endpoint returns verbatim:
//! `# HELP` / `# TYPE` comment pairs followed by samples, all metrics
//! included (volatile ones too — scrapes are point-in-time by nature).
//! Prometheus metric names cannot contain dots, so the stable dotted
//! names map by replacing `.` with `_` (`ecl.graph.builds` →
//! `ecl_graph_builds`); the dotted form stays the identity everywhere
//! else. Histograms follow the standard cumulative `_bucket{le="…"}` /
//! `_sum` / `_count` expansion.

use crate::{Kind, Snapshot};
use std::fmt::Write as _;

/// Renders the full snapshot in Prometheus text exposition format.
pub fn to_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    for e in &snap.entries {
        let name = e.name.replace('.', "_");
        let _ = writeln!(out, "# HELP {name} {}", snap_help(e.name));
        let _ = writeln!(out, "# TYPE {name} {}", e.kind.label());
        match e.kind {
            Kind::Counter => {
                let _ = writeln!(out, "{name} {}", e.count);
            }
            Kind::Gauge => {
                let _ = writeln!(out, "{name} {}", fmt_f64(e.gauge));
            }
            Kind::Histogram => {
                // Cumulative bucket counts, per the exposition format.
                let mut cum = 0u64;
                for (bound, n) in &e.buckets {
                    cum += n;
                    let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", fmt_f64(*bound));
                }
                cum += e.overflow;
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                let _ = writeln!(out, "{name}_sum {}", fmt_f64(e.sum));
                let _ = writeln!(out, "{name}_count {}", e.count);
            }
        }
    }
    out
}

/// Help text for a dotted name (from the registry declaration).
fn snap_help(name: &str) -> &'static str {
    crate::names::by_name(name).map_or("", |m| m.help)
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_metrics;

    #[test]
    fn exposition_shape() {
        let ((), snap) = with_metrics(|| {
            crate::counter!(GRAPH_BUILDS, 4);
            crate::gauge!(DYNAMIC_TREE_CHURN, 2.5);
            crate::histogram!(GRAPH_BUILD_ARCS, 150.0);
            crate::histogram!(GRAPH_BUILD_ARCS, 1e12);
            crate::counter!(DSU_CAS_RETRY, 9); // volatile metrics DO export here
        });
        let text = to_text(&snap);
        assert!(text.contains("# TYPE ecl_graph_builds counter"));
        assert!(text.contains("ecl_graph_builds 4"));
        assert!(text.contains("ecl_dynamic_tree_churn 2.5"));
        assert!(text.contains("ecl_dsu_cas_retry 9"));
        // Cumulative buckets: 150 ≤ 1e3, so every bound from 1e3 up counts
        // it; +Inf covers both observations.
        assert!(text.contains("ecl_graph_build_arcs_bucket{le=\"1000\"} 1"));
        assert!(text.contains("ecl_graph_build_arcs_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("ecl_graph_build_arcs_count 2"));
        assert!(
            !text.contains("ecl.graph.builds"),
            "dotted names must be mapped"
        );
    }
}
