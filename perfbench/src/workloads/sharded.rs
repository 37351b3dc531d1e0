//! `sharded-file`: the r4 twin written to an ECL binary file, solved out of
//! core by `sharded_msf` in spilling mode over `BinaryFileShards`.

use crate::check::{forest_of, Checker, Forest};
use crate::{inputs, yardstick};
use crate::{timed, Layers, Pass, Workload};
use ecl_graph::io::write_binary;
use ecl_graph::shard::{BinaryFileShards, EdgeShards, ShardTriple};
use ecl_graph::SuiteScale;
use ecl_mst::{serial_kruskal, sharded_msf, ShardedConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Pass-through shard source that times and counts the reads it forwards.
struct TimedShards<'a> {
    inner: &'a BinaryFileShards,
    nanos: AtomicU64,
    streams: AtomicU64,
}

impl EdgeShards for TimedShards<'_> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn shard(&self, k: usize, of: usize) -> Vec<ShardTriple> {
        let (edges, s) = timed(|| {
            let _s = ecl_trace::range!(wall: "graph.shard.read");
            self.inner.shard(k, of)
        });
        self.nanos.fetch_add((s * 1e9) as u64, Ordering::Relaxed);
        self.streams.fetch_add(1, Ordering::Relaxed);
        edges
    }

    fn approx_edges(&self) -> usize {
        self.inner.approx_edges()
    }
}

/// `sharded-file` inputs: the open file, where to spill, and the forest
/// the solve must produce. Dropping it deletes the file and spill
/// directory.
pub struct Sharded {
    /// Scale of the r4 twin.
    pub scale: SuiteScale,
    dir: PathBuf,
    file: PathBuf,
    file_len: u64,
    src: BinaryFileShards,
    /// MSF of the twin, by serial Kruskal on the in-memory graph.
    pub reference: Forest,
}

impl Sharded {
    /// Scale of the benchmark's `sharded-file` workload (2^20 vertices).
    pub const SCALE: SuiteScale = SuiteScale::Large;
    /// Shard count.
    pub const SHARDS: usize = 8;
    /// Yardstick solves after each pass.
    pub const YARDSTICK_RUNS: usize = 3;

    /// Set-up at any scale in `dir` (tests use Tiny).
    pub fn setup_at(scale: SuiteScale, seed: u64, dir: PathBuf, layers: &mut Layers) -> Self {
        std::fs::create_dir_all(&dir).expect("create the work directory");
        let file = dir.join("r4.eclg");
        let (g, gen_s) = timed(|| {
            let _s = ecl_trace::range!(wall: "graph.generate");
            inputs::r4(scale, seed)
        });
        layers.insert("graph.generate_s", gen_s);
        let (reference, ref_s) = timed(|| {
            let _s = ecl_trace::range!(wall: "core.reference");
            forest_of(&g, &serial_kruskal(&g))
        });
        layers.insert("core.reference_s", ref_s);
        let ((), write_s) = timed(|| {
            let _s = ecl_trace::range!(wall: "graph.io.write");
            write_binary(&g, &file).expect("write the graph file");
        });
        layers.insert("graph.io.write_s", write_s);
        // Only the file stays: the in-memory graph must not count towards
        // the passes' peak RSS.
        drop(g);
        let (src, open_s) = timed(|| {
            let _s = ecl_trace::range!(wall: "graph.io.open");
            BinaryFileShards::open(&file).expect("open the graph file")
        });
        layers.insert("graph.io.open_s", open_s);
        let file_len = std::fs::metadata(&file).expect("stat the graph file").len();
        Self {
            scale,
            dir,
            file,
            file_len,
            src,
            reference,
        }
    }
}

impl Drop for Sharded {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.file);
        let _ = std::fs::remove_dir_all(self.dir.join("spill"));
        let _ = std::fs::remove_dir(&self.dir);
    }
}

impl Workload for Sharded {
    fn setup(seed: u64, layers: &mut Layers) -> Self {
        Self::setup_at(Self::SCALE, seed, crate::work_dir("sharded-file"), layers)
    }

    fn pass(&mut self, chk: &mut Checker) -> Pass {
        let src = TimedShards {
            inner: &self.src,
            nanos: AtomicU64::new(0),
            streams: AtomicU64::new(0),
        };
        let cfg = ShardedConfig::spilling(Self::SHARDS, &self.dir.join("spill"));
        let (run, s) = timed(|| {
            let _s = ecl_trace::range!(wall: "shard.sharded_msf");
            sharded_msf(&src, &cfg)
        });
        let read_s = src.nanos.load(Ordering::Relaxed) as f64 / 1e9;
        let mut p = Pass {
            seconds: s,
            calls_ms: vec![s * 1e3],
            ..Pass::default()
        };
        p.add("graph.shard.read_s", read_s);
        p.add(
            "graph.shard.bytes_streamed",
            (self.file_len * src.streams.load(Ordering::Relaxed)) as f64,
        );
        p.add("shard.solve_merge_s", s - read_s);
        p.add("shard.survivor_edges", run.survivor_edges as f64);
        p.add("shard.merge_rounds", run.merge_rounds as f64);
        p.add("shard.spill_bytes", run.spill_bytes as f64);
        let _c = ecl_trace::range!(wall: "bench.check");
        chk.forest(
            "sharded-file",
            &run.forest.edges,
            run.forest.total_weight,
            &self.reference,
        );
        p
    }

    /// The edges are read back from the file outside the timed sort and
    /// scan, and freed before the next pass. One solve is a sixth of a
    /// pass long and jitters more than the pass does, so the yardstick is
    /// the mean of [`Self::YARDSTICK_RUNS`] solves.
    fn yardstick(&self) -> f64 {
        let edges = self.src.shard(0, 1);
        let want: u64 = self.reference.iter().map(|e| e.2 as u64).sum();
        let total: f64 = (0..Self::YARDSTICK_RUNS)
            .map(|_| {
                let (weight, s) = yardstick::kruskal(self.src.num_vertices(), &edges);
                assert_eq!(weight, want, "yardstick disagrees");
                s
            })
            .sum();
        total / Self::YARDSTICK_RUNS as f64
    }

    fn edges_per_pass(&self) -> f64 {
        self.src.approx_edges() as f64
    }

    fn describe(&self) -> String {
        format!(
            "sharded-file scale={} vertices={} edges={} file_bytes={} shards={}",
            self.scale.name(),
            self.src.num_vertices(),
            self.src.approx_edges(),
            self.file_len,
            Self::SHARDS
        )
    }
}
