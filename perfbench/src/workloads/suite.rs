//! `suite-cpu` and `suite-sim`: the 17 Table-2 twins through the paper's
//! algorithm, on the CPU backend and on the simulated Titan V.

use crate::check::Checker;
use crate::{inputs, yardstick};
use crate::{timed, Layers, Pass, Workload};
use ecl_gpu_sim::{aggregate_records, GpuProfile};
use ecl_graph::{CsrGraph, SuiteScale};
use ecl_mst::filter::{plan_filter, FilterPlan};
use ecl_mst::{
    ecl_mst_cpu_with, ecl_mst_gpu_with, evict_graph, serial_kruskal, DeviceCsr, MstResult,
    OptConfig,
};

/// One twin with its reference MSF.
pub struct Input {
    /// Table 2 name.
    pub name: &'static str,
    /// The twin.
    pub graph: CsrGraph,
    /// Serial-Kruskal MSF of the twin.
    pub reference: MstResult,
    /// Whether the filter heuristic splits this input into two phases.
    pub two_phase: bool,
}

/// The suite at `scale`, with references; records generation and
/// reference seconds.
pub fn setup_inputs(scale: SuiteScale, seed: u64, layers: &mut Layers) -> Vec<Input> {
    let (graphs, gen_s) = timed(|| {
        let _s = ecl_trace::range!(wall: "graph.generate");
        inputs::suite(scale, seed)
    });
    layers.insert("graph.generate_s", gen_s);
    let (references, ref_s) = timed(|| {
        let _s = ecl_trace::range!(wall: "core.reference");
        graphs
            .iter()
            .map(|(_, g)| serial_kruskal(g))
            .collect::<Vec<_>>()
    });
    layers.insert("core.reference_s", ref_s);
    let cfg = OptConfig::full();
    graphs
        .into_iter()
        .zip(references)
        .map(|((name, graph), reference)| Input {
            name,
            two_phase: matches!(
                plan_filter(&graph, cfg.filter_c, cfg.seed),
                FilterPlan::TwoPhase { .. }
            ),
            reference,
            graph,
        })
        .collect()
}

/// Seconds the yardstick takes on every twin. Each edge list is made
/// outside the timed sort and scan, and freed before the next.
fn yardstick_all(inputs: &[Input]) -> f64 {
    inputs
        .iter()
        .map(|i| {
            let (weight, s) = yardstick::kruskal(i.graph.num_vertices(), &i.graph.edge_list());
            assert_eq!(
                weight, i.reference.total_weight,
                "{}: yardstick disagrees",
                i.name
            );
            s
        })
        .sum()
}

fn describe(what: &str, scale: SuiteScale, inputs: &[Input]) -> String {
    let edges: usize = inputs.iter().map(|i| i.graph.num_edges()).sum();
    let vertices: usize = inputs.iter().map(|i| i.graph.num_vertices()).sum();
    let two_phase = inputs.iter().filter(|i| i.two_phase).count();
    format!(
        "{what} scale={} graphs={} vertices={vertices} edges={edges} two_phase_graphs={two_phase}",
        scale.name(),
        inputs.len()
    )
}

/// `suite-cpu`: every twin through `ecl_mst_cpu_with(g, &OptConfig::full())`.
pub struct SuiteCpu {
    /// Scale of the twins.
    pub scale: SuiteScale,
    /// The twins.
    pub inputs: Vec<Input>,
}

impl SuiteCpu {
    /// Scale of the benchmark's `suite-cpu` workload.
    pub const SCALE: SuiteScale = SuiteScale::Medium;

    /// Set-up at any scale (tests use Tiny).
    pub fn setup_at(scale: SuiteScale, seed: u64, layers: &mut Layers) -> Self {
        Self {
            scale,
            inputs: setup_inputs(scale, seed, layers),
        }
    }
}

impl Workload for SuiteCpu {
    fn setup(seed: u64, layers: &mut Layers) -> Self {
        Self::setup_at(Self::SCALE, seed, layers)
    }

    fn pass(&mut self, chk: &mut Checker) -> Pass {
        let cfg = OptConfig::full();
        let mut p = Pass::default();
        for inp in &self.inputs {
            let (run, s) = timed(|| {
                let _s = ecl_trace::range!(wall: "cpu.solve");
                ecl_mst_cpu_with(&inp.graph, &cfg)
            });
            p.seconds += s;
            p.calls_ms.push(s * 1e3);
            p.add("cpu.solve_s", s);
            p.add(
                if inp.two_phase {
                    "cpu.solve_s.two_phase"
                } else {
                    "cpu.solve_s.one_phase"
                },
                s,
            );
            p.add("cpu.iterations", run.iterations as f64);
            let _c = ecl_trace::range!(wall: "bench.check");
            chk.mst(inp.name, &run.result, &inp.reference);
        }
        p
    }

    fn yardstick(&self) -> f64 {
        yardstick_all(&self.inputs)
    }

    fn edges_per_pass(&self) -> f64 {
        self.inputs.iter().map(|i| i.graph.num_edges() as f64).sum()
    }

    fn describe(&self) -> String {
        describe("suite-cpu", self.scale, &self.inputs)
    }
}

/// `suite-sim`: every twin uploaded to and solved on the simulated Titan V.
pub struct SuiteSim {
    /// Scale of the twins.
    pub scale: SuiteScale,
    /// The twins.
    pub inputs: Vec<Input>,
}

impl SuiteSim {
    /// Scale of the benchmark's `suite-sim` workload.
    pub const SCALE: SuiteScale = SuiteScale::Small;

    /// Set-up at any scale (tests use Tiny).
    pub fn setup_at(scale: SuiteScale, seed: u64, layers: &mut Layers) -> Self {
        Self {
            scale,
            inputs: setup_inputs(scale, seed, layers),
        }
    }
}

impl Workload for SuiteSim {
    fn setup(seed: u64, layers: &mut Layers) -> Self {
        Self::setup_at(Self::SCALE, seed, layers)
    }

    fn pass(&mut self, chk: &mut Checker) -> Pass {
        let cfg = OptConfig::full();
        let mut p = Pass::default();
        for inp in &self.inputs {
            // A fresh upload every pass: drop the cached one first.
            evict_graph(&inp.graph);
            let (_, up_s) = timed(|| {
                let _s = ecl_trace::range!(wall: "upload");
                DeviceCsr::get(&inp.graph)
            });
            let (run, sim_s) = timed(|| {
                let _s = ecl_trace::range!(wall: "sim.solve");
                ecl_mst_gpu_with(&inp.graph, &cfg, GpuProfile::TITAN_V)
            });
            p.seconds += up_s + sim_s;
            p.calls_ms.push((up_s + sim_s) * 1e3);
            p.add("upload.s", up_s);
            p.add("sim.host_s", sim_s);
            p.add("sim_ms", run.kernel_seconds * 1e3);
            // Kernel time plus the loop-control reads between launches.
            let mut sync_s = run.kernel_seconds;
            p.add("sim.iterations", run.iterations as f64);
            for k in aggregate_records(&run.records) {
                p.add("sim.launches", k.launches as f64);
                p.add("sim.accesses", k.totals.accesses as f64);
                p.add("sim.atomics", k.totals.atomics as f64);
                p.add("sim.cas_retries", k.totals.cas_retries as f64);
                let name = match k.name.as_str() {
                    "setup" => "sim.kernel_ms.setup",
                    "init" => "sim.kernel_ms.init",
                    "kernel1" => "sim.kernel_ms.kernel1",
                    "kernel2" => "sim.kernel_ms.kernel2",
                    "kernel3" => "sim.kernel_ms.kernel3",
                    _ => "sim.kernel_ms.other",
                };
                p.add(name, k.sim_seconds * 1e3);
                sync_s -= k.sim_seconds;
            }
            p.add("sim.sync_ms", sync_s * 1e3);
            let _c = ecl_trace::range!(wall: "bench.check");
            chk.mst(inp.name, &run.result, &inp.reference);
        }
        let accesses = p.layers.get("sim.accesses").copied().unwrap_or(0.0);
        p.add(
            "sim.host_ns_per_access",
            p.layers["sim.host_s"] * 1e9 / accesses.max(1.0),
        );
        p
    }

    fn yardstick(&self) -> f64 {
        yardstick_all(&self.inputs)
    }

    fn edges_per_pass(&self) -> f64 {
        self.inputs.iter().map(|i| i.graph.num_edges() as f64).sum()
    }

    fn describe(&self) -> String {
        describe("suite-sim", self.scale, &self.inputs)
    }
}
