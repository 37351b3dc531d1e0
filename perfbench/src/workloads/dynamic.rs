//! `dynamic-rmat`: seeded streams of update batches replayed through
//! `DynamicMsf::apply_batch` on resident RMAT graphs.

use crate::check::{forest_of, Checker, Forest};
use crate::{inputs, yardstick};
use crate::{quantile, timed, Layers, Pass, Workload};
use ecl_graph::CsrGraph;
use ecl_mst::{serial_kruskal, DynamicMsf};

/// One resident graph with its stream and the forest the stream must end
/// in.
pub struct Instance {
    /// The graph the engine is seeded from before every pass.
    pub graph: CsrGraph,
    /// Update batches; every third one deletes, the others insert.
    pub stream: inputs::Stream,
    /// MSF of the graph after the whole stream, by rebuild.
    pub reference: Forest,
    /// The live edge set after the whole stream, for the yardstick.
    final_edges: Vec<(u32, u32, u32)>,
    /// Weight of `reference`.
    final_weight: u64,
    engine: DynamicMsf,
}

impl Instance {
    fn seed(g: &CsrGraph) -> DynamicMsf {
        let _s = ecl_trace::range!(wall: "dynamic.seed");
        DynamicMsf::from_graph(g)
    }
}

/// `dynamic-rmat` inputs. The insert cost depends on the shape of the
/// graph's spanning forest, which varies from seed to seed; several
/// independent graphs per pass average that out.
pub struct Dynamic {
    /// The resident graphs, each replayed once per pass.
    pub instances: Vec<Instance>,
    /// Whether the engines have replayed their streams since they were
    /// seeded.
    replayed: bool,
}

impl Dynamic {
    /// RMAT scale of each graph (2^15 vertices, edge factor 8).
    pub const LOG2_VERTICES: u32 = 15;
    /// Resident graphs.
    pub const GRAPHS: usize = 8;
    /// Batches per graph and pass: 4 insert batches and 2 delete batches,
    /// so a pass applies 48 batches.
    pub const BATCHES: usize = 6;
    /// Ops per batch.
    pub const OPS_PER_BATCH: usize = 32;

    /// Set-up at any size (tests use a small one). `batches` must be a
    /// multiple of 3, so batch `b` of a pass deletes exactly when
    /// [`inputs::is_delete_batch`] says so.
    pub fn setup_at(
        log2_vertices: u32,
        graphs: usize,
        batches: usize,
        seed: u64,
        layers: &mut Layers,
    ) -> Self {
        assert_eq!(
            batches % 3,
            0,
            "streams must hold whole insert-insert-delete rounds"
        );
        let instances = (0..graphs as u64)
            .map(|k| {
                let seed = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let ((graph, (stream, final_edges)), gen_s) = timed(|| {
                    let _s = ecl_trace::range!(wall: "graph.generate");
                    let g = inputs::dynamic_graph(log2_vertices, seed);
                    let stream = inputs::update_stream(&g, batches, Self::OPS_PER_BATCH, seed);
                    (g, stream)
                });
                let (reference, ref_s) = timed(|| {
                    let _s = ecl_trace::range!(wall: "core.reference");
                    let rebuilt = inputs::build(graph.num_vertices(), &final_edges);
                    forest_of(&rebuilt, &serial_kruskal(&rebuilt))
                });
                let (engine, seed_s) = timed(|| Instance::seed(&graph));
                for (name, s) in [
                    ("graph.generate_s", gen_s),
                    ("core.reference_s", ref_s),
                    ("dynamic.seed_s", seed_s),
                ] {
                    *layers.entry(name).or_default() += s;
                }
                Instance {
                    graph,
                    stream,
                    final_weight: reference.iter().map(|e| e.2 as u64).sum(),
                    reference,
                    final_edges,
                    engine,
                }
            })
            .collect();
        Self {
            instances,
            replayed: false,
        }
    }
}

impl Workload for Dynamic {
    fn setup(seed: u64, layers: &mut Layers) -> Self {
        Self::setup_at(
            Self::LOG2_VERTICES,
            Self::GRAPHS,
            Self::BATCHES,
            seed,
            layers,
        )
    }

    /// Reseeds the engines after a pass, so every pass replays the streams
    /// from the same state.
    fn prepare(&mut self) {
        if self.replayed {
            for inst in &mut self.instances {
                inst.engine = Instance::seed(&inst.graph);
            }
            self.replayed = false;
        }
    }

    fn pass(&mut self, chk: &mut Checker) -> Pass {
        self.replayed = true;
        let mut p = Pass::default();
        for inst in &mut self.instances {
            let engine = &mut inst.engine;
            for (b, ops) in inst.stream.iter().enumerate() {
                let delete = inputs::is_delete_batch(b);
                let (st, s) = timed(|| {
                    let _s = ecl_trace::range!(wall: if delete { "dynamic.delete_batch" } else { "dynamic.insert_batch" });
                    engine.apply_batch(ops)
                });
                p.seconds += s;
                p.calls_ms.push(s * 1e3);
                // The yardstick: a static pipeline rebuilds after every
                // batch. The final edge set stands in for each intermediate
                // one (they differ by a few hundred edges). Timing it right
                // after the batch makes both meet the same host speed.
                let (weight, y) = {
                    let _y = ecl_trace::range!(wall: "bench.kruskal");
                    yardstick::kruskal(inst.graph.num_vertices(), &inst.final_edges)
                };
                assert_eq!(weight, inst.final_weight, "yardstick disagrees");
                p.yardstick_s += y;
                p.add("dynamic.links", st.links as f64);
                p.add("dynamic.swaps", st.swaps as f64);
                p.add("dynamic.cuts", st.cuts as f64);
                p.add("dynamic.replacements", st.replacements as f64);
                p.add("dynamic.candidates_scanned", st.candidates_scanned as f64);
                p.add("dynamic.tree_churn", st.tree_churn as f64);
            }
            let _c = ecl_trace::range!(wall: "bench.check");
            chk.forest(
                "dynamic-rmat",
                &engine.tree_edges(),
                engine.total_weight(),
                &inst.reference,
            );
        }
        p
    }

    fn edges_per_pass(&self) -> f64 {
        self.instances
            .iter()
            .flat_map(|i| &i.stream)
            .map(|b| b.len() as f64)
            .sum()
    }

    fn describe(&self) -> String {
        let i = &self.instances;
        format!(
            "dynamic-rmat graphs={} vertices={} edges={} batches={} ops_per_batch={}",
            i.len(),
            i.iter().map(|x| x.graph.num_vertices()).sum::<usize>(),
            i.iter().map(|x| x.graph.num_edges()).sum::<usize>(),
            i.iter().map(|x| x.stream.len()).sum::<usize>(),
            Self::OPS_PER_BATCH
        )
    }

    /// Adds the batch-latency percentiles to the per-layer medians.
    fn summarize(passes: &[Pass]) -> Layers {
        let mut layers = crate::median_layers(passes);
        let (mut ins, mut del) = (Vec::new(), Vec::new());
        for p in passes {
            for (b, &ms) in p.calls_ms.iter().enumerate() {
                if inputs::is_delete_batch(b) {
                    &mut del
                } else {
                    &mut ins
                }
                .push(ms);
            }
        }
        let all: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.calls_ms.iter().copied())
            .collect();
        layers.insert("dynamic.insert_batch_ms", quantile(&ins, 0.5));
        layers.insert("dynamic.delete_batch_ms", quantile(&del, 0.5));
        layers.insert("dynamic.batch_p90_ms", quantile(&all, 0.9));
        layers
    }
}
