//! The four workloads and their dispatch by name.

pub mod dynamic;
pub mod sharded;
pub mod suite;

use crate::{run, Outcome, Params};

/// Workload names, in BENCHMARK.json order.
pub const NAMES: [&str; 4] = ["suite-cpu", "suite-sim", "dynamic-rmat", "sharded-file"];

/// Runs the named workload; `None` for an unknown name.
pub fn run_named(name: &str, p: &Params) -> Option<Outcome> {
    Some(match name {
        "suite-cpu" => run::<suite::SuiteCpu>(p),
        "suite-sim" => run::<suite::SuiteSim>(p),
        "dynamic-rmat" => run::<dynamic::Dynamic>(p),
        "sharded-file" => run::<sharded::Sharded>(p),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::dynamic::Dynamic;
    use super::sharded::Sharded;
    use super::suite::{SuiteCpu, SuiteSim};
    use crate::check::Checker;
    use crate::{Layers, Pass, Workload};
    use ecl_graph::SuiteScale;

    /// Two passes of `w`, which must both check clean.
    fn two_passes<W: Workload>(w: &mut W) -> (Pass, Pass) {
        let mut chk = Checker::default();
        w.prepare();
        let a = w.pass(&mut chk);
        w.prepare();
        let b = w.pass(&mut chk);
        assert!(chk.attempted > 0);
        assert_eq!(chk.failed, 0, "{:?}", chk.first_failure);
        (a, b)
    }

    /// The counts reported as counts must repeat exactly pass to pass.
    fn assert_repeat(a: &Pass, b: &Pass, names: &[&str]) {
        for &n in names {
            let x = a
                .layers
                .get(n)
                .copied()
                .unwrap_or_else(|| panic!("{n} missing"));
            assert!(x > 0.0, "{n} is zero");
            assert_eq!(x.to_bits(), b.layers[n].to_bits(), "{n}");
        }
    }

    #[test]
    fn suite_counts_repeat_exactly() {
        let mut l = Layers::new();
        let (a, b) = two_passes(&mut SuiteCpu::setup_at(SuiteScale::Tiny, 3, &mut l));
        assert_repeat(&a, &b, &["cpu.iterations"]);
        let (a, b) = two_passes(&mut SuiteSim::setup_at(SuiteScale::Tiny, 3, &mut l));
        assert_repeat(
            &a,
            &b,
            &[
                "sim_ms",
                "sim.accesses",
                "sim.atomics",
                "sim.launches",
                "sim.iterations",
                "sim.kernel_ms.kernel1",
            ],
        );
        let kernels: f64 = a
            .layers
            .iter()
            .filter(|(k, _)| k.starts_with("sim.kernel_ms.") || **k == "sim.sync_ms")
            .map(|(_, v)| v)
            .sum();
        assert!(
            (kernels - a.layers["sim_ms"]).abs() < 1e-9 * kernels,
            "{kernels} vs {}",
            a.layers["sim_ms"]
        );
    }

    #[test]
    fn every_timed_upload_follows_an_eviction() {
        let mut l = Layers::new();
        let mut w = SuiteSim::setup_at(SuiteScale::Tiny, 5, &mut l);
        let graphs = w.inputs.len();
        let ((), session) = ecl_trace::with_trace(|| {
            two_passes(&mut w);
        });
        // The program opens `upload/adjacency` only when it really copies
        // the array, that is on a cache miss.
        let copies = session
            .wall_breakdown()
            .into_iter()
            .find(|k| k.name == "upload/adjacency")
            .map(|k| k.calls);
        assert_eq!(copies, Some(2 * graphs as u64));
    }

    #[test]
    fn dynamic_counts_repeat_exactly() {
        let mut l = Layers::new();
        let mut w = Dynamic::setup_at(10, 2, 9, 11, &mut l);
        let (a, b) = two_passes(&mut w);
        assert_repeat(
            &a,
            &b,
            &[
                "dynamic.swaps",
                "dynamic.cuts",
                "dynamic.tree_churn",
                "dynamic.candidates_scanned",
            ],
        );
        for n in ["dynamic.links", "dynamic.replacements"] {
            assert_eq!(a.layers[n], b.layers[n], "{n}");
        }
        assert_eq!(a.calls_ms.len(), 18);
    }

    #[test]
    fn sharded_counts_repeat_exactly() {
        let mut l = Layers::new();
        let dir = crate::work_dir("test-sharded");
        let mut w = Sharded::setup_at(SuiteScale::Tiny, 13, dir.clone(), &mut l);
        let (a, b) = two_passes(&mut w);
        assert_repeat(
            &a,
            &b,
            &[
                "shard.survivor_edges",
                "shard.merge_rounds",
                "shard.spill_bytes",
                "graph.shard.bytes_streamed",
            ],
        );
        drop(w);
        assert!(!dir.exists(), "the work directory is removed");
    }
}
