//! The differential backend registry.
//!
//! Every MST/MSF code in the workspace, wrapped behind one uniform
//! signature so the campaign can run them interchangeably: the full
//! deoptimization ladder on both the CPU and the simulated GPU, every CPU
//! baseline, both MSF-capable GPU baselines, and the two MST-only codes
//! (which must *reject* disconnected inputs rather than mis-answer).

use ecl_baselines::{
    cugraph_gpu, filter_kruskal, gunrock_gpu, jucele_gpu, lonestar_cpu, pbbs_parallel, pbbs_serial,
    serial_prim, uminho_cpu, uminho_gpu,
};
use ecl_gpu_sim::GpuProfile;
use ecl_graph::CsrGraph;
use ecl_mst::{
    deopt_ladder, ecl_mst_cpu_with, ecl_mst_gpu_with, serial_kruskal, sharded_msf, MstError,
    MstResult, OptConfig, ShardedConfig,
};

/// What a backend promises on multi-component inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// Computes a full minimum spanning forest on any input.
    Msf,
    /// MST-only (the paper's "NC" cells): must return
    /// [`MstError::NotConnected`] on multi-component inputs.
    MstOnly,
}

type RunFn = Box<dyn Fn(&CsrGraph) -> Result<MstResult, MstError> + Send + Sync>;

/// One entry of the differential registry.
pub struct Backend {
    /// Stable display name (`cpu/ECL-MST`, `baseline/prim`, ...).
    pub name: String,
    /// Connectivity contract.
    pub coverage: Coverage,
    run: RunFn,
}

impl Backend {
    /// Runs the backend on `g`.
    pub fn run(&self, g: &CsrGraph) -> Result<MstResult, MstError> {
        (self.run)(g)
    }

    fn msf(
        name: impl Into<String>,
        f: impl Fn(&CsrGraph) -> MstResult + Send + Sync + 'static,
    ) -> Self {
        Backend {
            name: name.into(),
            coverage: Coverage::Msf,
            run: Box::new(move |g| Ok(f(g))),
        }
    }

    /// Test-only constructor for injecting deliberately wrong backends.
    #[cfg(test)]
    pub(crate) fn test_only(
        name: impl Into<String>,
        f: impl Fn(&CsrGraph) -> MstResult + Send + Sync + 'static,
    ) -> Self {
        Self::msf(name, f)
    }

    fn mst_only(
        name: impl Into<String>,
        f: impl Fn(&CsrGraph) -> Result<MstResult, MstError> + Send + Sync + 'static,
    ) -> Self {
        Backend {
            name: name.into(),
            coverage: Coverage::MstOnly,
            run: Box::new(f),
        }
    }
}

/// Builds the full registry: the serial reference, all nine ladder rungs on
/// the CPU and the simulated Titan V, the fully optimized code on the
/// second GPU profile, every CPU baseline, and all four GPU baselines.
pub fn registry() -> Vec<Backend> {
    let mut v: Vec<Backend> = vec![Backend::msf("serial_kruskal", serial_kruskal)];
    for (rung, cfg) in deopt_ladder() {
        v.push(Backend::msf(format!("cpu/{rung}"), move |g| {
            ecl_mst_cpu_with(g, &cfg).result
        }));
        v.push(Backend::msf(format!("gpu/{rung}"), move |g| {
            ecl_mst_gpu_with(g, &cfg, GpuProfile::TITAN_V).result
        }));
    }
    v.push(Backend::msf("gpu/ECL-MST@3080Ti", |g| {
        ecl_mst_gpu_with(g, &OptConfig::full(), GpuProfile::RTX_3080_TI).result
    }));
    v.push(Backend::msf("cpu/ECL-MST-no-locality", |g| {
        let cfg = OptConfig {
            locality_order: false,
            ..OptConfig::full()
        };
        ecl_mst_cpu_with(g, &cfg).result
    }));
    v.push(Backend::msf("baseline/prim", serial_prim));
    v.push(Backend::msf("baseline/filter_kruskal", filter_kruskal));
    v.push(Backend::msf("baseline/pbbs_serial", pbbs_serial));
    v.push(Backend::msf("baseline/pbbs_parallel", pbbs_parallel));
    v.push(Backend::msf("baseline/lonestar", lonestar_cpu));
    v.push(Backend::msf("baseline/uminho_cpu", uminho_cpu));
    v.push(Backend::msf("baseline/uminho_gpu", |g| {
        uminho_gpu(g, GpuProfile::TITAN_V).result
    }));
    v.push(Backend::msf("baseline/cugraph", |g| {
        cugraph_gpu(g, GpuProfile::TITAN_V).result
    }));
    v.push(Backend::mst_only("baseline/jucele", |g| {
        jucele_gpu(g, GpuProfile::TITAN_V).map(|r| r.result)
    }));
    v.push(Backend::mst_only("baseline/gunrock", |g| {
        gunrock_gpu(g, GpuProfile::TITAN_V).map(|r| r.result)
    }));
    // The sharded out-of-core pipeline, fed the fuzz graph's own edge list
    // re-sharded: four shards in memory, and three shards spilling their
    // survivor runs — both must be bit-identical to every in-core code on
    // every generated case.
    v.push(Backend::msf("cpu/sharded", |g| {
        let src = ecl_graph::InMemoryShards::new(g.num_vertices(), g.edge_list());
        sharded_msf(&src, &ShardedConfig::in_memory(4))
            .forest
            .to_mst_result(g)
    }));
    v.push(Backend::msf("cpu/sharded-spill", |g| {
        // A directory per call: parallel test threads run this backend at
        // once, and each call removes its directory when it is done.
        static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let src = ecl_graph::InMemoryShards::new(g.num_vertices(), g.edge_list());
        let dir =
            std::env::temp_dir().join(format!("ecl-fuzz-shard-{}-{call}", std::process::id()));
        let cfg = ShardedConfig::spilling(3, &dir);
        let r = sharded_msf(&src, &cfg).forest.to_mst_result(g);
        std::fs::remove_dir_all(&dir).ok();
        r
    }));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::generators::grid2d;

    #[test]
    fn registry_covers_every_code() {
        let reg = registry();
        // 1 reference + 9 CPU rungs + 9 GPU rungs + 1 second profile
        // + 1 locality-order-off CPU variant + 6 CPU baselines
        // + 2 GPU baselines + 2 MST-only codes + 2 sharded pipelines.
        assert_eq!(reg.len(), 1 + 9 + 9 + 1 + 1 + 6 + 2 + 2 + 2);
        let names: std::collections::HashSet<_> = reg.iter().map(|b| b.name.clone()).collect();
        assert_eq!(names.len(), reg.len(), "backend names must be unique");
        assert_eq!(
            reg.iter()
                .filter(|b| b.coverage == Coverage::MstOnly)
                .count(),
            2
        );
    }

    #[test]
    fn every_backend_answers_on_a_grid() {
        let g = grid2d(5, 1);
        let expected = serial_kruskal(&g);
        for b in registry() {
            let r = b.run(&g).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert_eq!(r.in_mst, expected.in_mst, "{}", b.name);
        }
    }
}
