//! Every experiment's measurement and rendering, and the one module that
//! decides which artifacts share a measurement.
//!
//! Each `render_*` function returns exactly what the matching `ecl-bench`
//! subcommand prints, so a subcommand and the `all` sweep write the same
//! bytes. The sweep measures in one process and shares these measurements:
//!
//! * Table 3 / Figure 3 render one System 1 [`Matrix`], and Table 4 /
//!   Figure 4 one System 2 matrix.
//! * The four CPU columns never read the GPU profile, so both matrices
//!   join the same measured cells ([`measure_systems`]).
//! * The full-configuration ECL-MST run on System 2 is one traced
//!   simulation per input ([`profile_kernels`]). The kernel profile, Table
//!   4's two ECL-MST columns, Table 5's first rung and the `c=4` and
//!   `warp>=4` ablation columns all read it.
//! * Table 5 and Figure 5 render one [`ConfigCells`] ladder; Figure 5's
//!   Jucele bar is Table 4's Jucele column.
//!
//! Simulated cells are bit-deterministic pure functions of (graph,
//! config, profile), so each is evaluated exactly once and may run
//! host-parallel across inputs ([`simulate_each`]). Wall-clock cells run
//! one at a time, with nothing else scheduled, as the median of
//! `--repeats` runs.

use crate::chart::{bar_chart, box_row, five_num};
use crate::registry::{column_names, simulate_columns, EclSeconds, Timing, CPU_CODES};
use crate::runner::{geomean, median_wall, Repeats};
use crate::table::{fmt_geomean, fmt_timing, Table};
use ecl_gpu_sim::GpuProfile;
use ecl_graph::stats::GraphStats;
use ecl_graph::{par, SuiteEntry, SuiteScale};
use ecl_mst::filter::{plan_filter, threshold_accuracy, FilterPlan};
use ecl_mst::{deopt_ladder, ecl_mst_cpu_with, ecl_mst_gpu_with, OptConfig};
use std::fmt::Write;
use std::time::Instant;

/// The GPU of every System 2 experiment. The paper shows the ablations on
/// System 2 only, "as it has the faster GPU".
pub const SYSTEM2_GPU: GpuProfile = GpuProfile::RTX_3080_TI;

/// One of the paper's two test systems.
pub struct System {
    /// Title of its runtime table.
    pub table: &'static str,
    /// Title of its throughput figure.
    pub figure: &'static str,
    /// GPU cost profile for the simulated codes.
    pub profile: GpuProfile,
    /// Whether the cuGraph column runs.
    pub cugraph: bool,
}

/// System 1: Table 3 and Figure 3. "cuGraph is incompatible with System 1".
pub const SYSTEM1: System = System {
    table: "Table 3: System 1 (Titan V) computation times in seconds",
    figure: "Figure 3: System 1 (Titan V)",
    profile: GpuProfile::TITAN_V,
    cugraph: false,
};

/// System 2: Table 4 and Figure 4, with the cuGraph column.
pub const SYSTEM2: System = System {
    table: "Table 4: System 2 (RTX 3080 Ti) computation times in seconds",
    figure: "Figure 4: System 2 (RTX 3080 Ti)",
    profile: SYSTEM2_GPU,
    cugraph: true,
};

fn phase_done(start: Option<Instant>) {
    if let Some(t) = start {
        ecl_metrics::histogram!(RUNNER_PHASE_SECONDS, t.elapsed().as_secs_f64());
    }
}

/// Builds the 17 suite inputs (the runner's prepare phase).
pub fn load_suite(scale: SuiteScale) -> Vec<SuiteEntry> {
    let start = ecl_metrics::active().then(Instant::now);
    let entries = ecl_graph::suite(scale);
    phase_done(start);
    entries
}

/// Maps `f` over `entries` host-parallel and returns the results in input
/// order. Only for simulated cells: each is a deterministic pure function
/// of its input, so the schedule cannot change a digit. Under a trace or
/// sanitizer session the map stays on the calling thread, because both
/// sessions collect into thread-locals.
pub fn simulate_each<'a, R: Send + Sync>(
    entries: &[&'a SuiteEntry],
    f: impl Fn(&'a SuiteEntry) -> R + Sync,
) -> Vec<R> {
    let run = || {
        par::par_map(entries, |_, e| {
            eprintln!("measuring {} ...", e.name);
            let r = f(e);
            // Done with this graph on this worker: drop its cached device
            // uploads so scratch memory does not grow with the suite.
            ecl_mst::evict_graph(&e.graph);
            r
        })
    };
    if ecl_trace::enabled() || ecl_gpu_sim::sanitize_enabled() {
        par::with_serial_input(run)
    } else {
        run()
    }
}

/// The inputs `keep` selects, in Table 2 order.
fn select(entries: &[SuiteEntry], keep: impl Fn(&SuiteEntry) -> bool) -> Vec<&SuiteEntry> {
    entries.iter().filter(|e| keep(e)).collect()
}

fn position(entries: &[SuiteEntry], e: &SuiteEntry) -> usize {
    entries
        .iter()
        .position(|x| std::ptr::eq(x, e))
        .expect("entry belongs to the suite")
}

// --- Table 2 ----------------------------------------------------------------

/// Table 2: the twins' properties beside the paper's originals.
pub fn render_table2(entries: &[SuiteEntry], scale: SuiteScale) -> String {
    let mut t = Table::new([
        "Graph Name",
        "Edges",
        "Vertices",
        "Type",
        "CCs",
        "d-avg",
        "d-max",
        "paper-Edges",
        "paper-CCs",
        "paper-d-avg",
    ]);
    for e in entries {
        let s = GraphStats::compute(&e.graph);
        t.row([
            e.name.to_string(),
            s.arcs.to_string(),
            s.vertices.to_string(),
            e.kind.to_string(),
            s.connected_components.to_string(),
            format!("{:.1}", s.avg_degree),
            s.max_degree.to_string(),
            e.paper.arcs.to_string(),
            e.paper.ccs.to_string(),
            format!("{:.1}", e.paper.d_avg),
        ]);
    }
    format!(
        "Table 2: input graphs at scale {scale:?} (twin vs paper original)\n\n{}",
        t.render()
    )
}

// --- Tables 3-4 and Figures 3-4 --------------------------------------------

/// Full measurement matrix of one system: per input, per code, a [`Timing`].
pub struct Matrix<'a> {
    /// Suite entries, in Table 2 order.
    pub entries: &'a [SuiteEntry],
    /// Code column names.
    pub code_names: Vec<&'static str>,
    /// `cells[input][code]`.
    pub cells: Vec<Vec<Timing>>,
}

/// Measures the matrix of each `(system, ecl)` pair. First every
/// system's simulated columns, each cell once (`ecl` supplies the
/// full-configuration ECL-MST runs, indexed like `entries`, when they are
/// already measured). Then the CPU columns: per cell, the median of
/// `repeats` wall-clock runs, one cell at a time with nothing else
/// scheduled. The CPU codes never read the GPU profile, so every matrix
/// joins that one measurement.
pub fn measure_systems<'a, const N: usize>(
    entries: &'a [SuiteEntry],
    repeats: Repeats,
    systems: [(&System, Option<&[EclSeconds]>); N],
) -> [Matrix<'a>; N] {
    ecl_metrics::gauge!(RUNNER_THREADS, par::max_threads());
    let start = ecl_metrics::active().then(Instant::now);
    let sims = systems.map(|(system, ecl)| {
        simulate_each(&select(entries, |_| true), |e| {
            let known = ecl.map(|runs| runs[position(entries, e)]);
            simulate_columns(&e.graph, system.profile, system.cugraph, known)
                .into_iter()
                .map(|c| c.timing)
                .collect::<Vec<_>>()
        })
    });
    phase_done(start);
    let start = ecl_metrics::active().then(Instant::now);
    let cpu: Vec<Vec<Timing>> = entries
        .iter()
        .map(|e| {
            CPU_CODES
                .iter()
                .map(|(_, run)| Timing::Seconds(median_wall(repeats, || run(&e.graph))))
                .collect()
        })
        .collect();
    phase_done(start);
    let mut sims = sims.into_iter();
    systems.map(|(system, _)| {
        let sim = sims.next().expect("one simulation per system");
        let cells: Vec<Vec<Timing>> = sim
            .into_iter()
            .zip(&cpu)
            .map(|(mut row, cpu_row)| {
                row.extend_from_slice(cpu_row);
                row
            })
            .collect();
        let code_names = column_names(system.cugraph);
        ecl_metrics::counter!(RUNNER_CELLS, (cells.len() * code_names.len()) as u64);
        Matrix {
            entries,
            code_names,
            cells,
        }
    })
}

impl<'a> Matrix<'a> {
    /// Geometric mean over all inputs for a code column (`None` if any cell
    /// is NC — matching the paper's "MSF GeoMean" NC cells).
    pub fn msf_geomean(&self, code: usize) -> Option<f64> {
        let times: Option<Vec<f64>> = self.cells.iter().map(|row| row[code].seconds()).collect();
        times.as_deref().and_then(geomean)
    }

    /// Geometric mean over the single-component (MST) inputs only.
    pub fn mst_geomean(&self, code: usize) -> Option<f64> {
        let times: Option<Vec<f64>> = self
            .cells
            .iter()
            .zip(self.entries)
            .filter(|(_, e)| e.is_mst_input())
            .map(|(row, _)| row[code].seconds())
            .collect();
        times.as_deref().and_then(geomean)
    }
}

/// Table 3 or 4: the paper-style runtime table with geomean rows and the
/// headline speedups.
pub fn render_system_table(
    system: &System,
    m: &Matrix,
    scale: SuiteScale,
    repeats: Repeats,
    csv: bool,
) -> String {
    let mut header = vec!["Input".to_string()];
    header.extend(m.code_names.iter().map(|s| s.to_string()));
    let mut t = Table::new(header);
    for (e, row) in m.entries.iter().zip(&m.cells) {
        let mut cells = vec![e.name.to_string()];
        cells.extend(row.iter().map(fmt_timing));
        t.row(cells);
    }
    for (label, mst) in [("MSF GeoMean", false), ("MST GeoMean", true)] {
        let mut cells = vec![label.to_string()];
        cells.extend((0..m.code_names.len()).map(|c| {
            fmt_geomean(if mst {
                m.mst_geomean(c)
            } else {
                m.msf_geomean(c)
            })
        }));
        t.row(cells);
    }
    let mut out = format!(
        "{} (scale {scale:?}, {} repeats)\n\n",
        system.table, repeats.0
    );
    out.push_str(&if csv { t.to_csv() } else { t.render() });
    out.push_str(&winner_summary(m));
    out
}

fn winner_summary(m: &Matrix) -> String {
    // Headline claims: ECL-MST fastest on every input; speedup factors.
    let ecl = 0usize;
    let mut wins = 0usize;
    for row in &m.cells {
        let ecl_t = row[ecl].seconds().expect("ECL handles every input");
        let best_other = row
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != ecl)
            .filter_map(|(_, t)| t.seconds())
            .fold(f64::INFINITY, f64::min);
        if ecl_t <= best_other {
            wins += 1;
        }
    }
    let mut out = format!("\nECL-MST fastest on {wins}/{} inputs\n", m.cells.len());
    for (c, name) in m.code_names.iter().enumerate().skip(1) {
        if let (Some(ecl_g), Some(other_g)) = (m.msf_geomean(0), m.msf_geomean(c)) {
            let _ = writeln!(
                out,
                "  vs {name:<16} {:>6.1}x (MSF geomean)",
                other_g / ecl_g
            );
        } else if let (Some(ecl_g), Some(other_g)) = (m.mst_geomean(0), m.mst_geomean(c)) {
            let _ = writeln!(
                out,
                "  vs {name:<16} {:>6.1}x (MST geomean; NC on MSF inputs)",
                other_g / ecl_g
            );
        }
    }
    out
}

/// Figure 3 or 4: millions of edges per second per code per input, as
/// labeled bar charts, plus the §5.2 geomean summary.
pub fn render_throughput(system: &System, m: &Matrix, scale: SuiteScale) -> String {
    let mut out = format!(
        "{} (scale {scale:?}): throughput in millions of edges per second\n\n",
        system.figure
    );
    let medges =
        |e: &SuiteEntry, t: &Timing| t.seconds().map(|s| e.graph.num_arcs() as f64 / s / 1e6);
    for (e, row) in m.entries.iter().zip(&m.cells) {
        let _ = writeln!(out, "== {} ({} arcs) ==", e.name, e.graph.num_arcs());
        let series: Vec<(String, f64)> = m
            .code_names
            .iter()
            .zip(row)
            .filter_map(|(name, t)| medges(e, t).map(|v| (name.to_string(), v)))
            .collect();
        out.push_str(&bar_chart(&series, 50, "Medges/s"));
        out.push('\n');
    }
    for (c, name) in m.code_names.iter().enumerate() {
        let msf: Vec<f64> = m
            .entries
            .iter()
            .zip(&m.cells)
            .filter_map(|(e, row)| medges(e, &row[c]))
            .collect();
        if msf.len() == m.entries.len() {
            if let Some(g) = geomean(&msf) {
                let _ = writeln!(out, "{name:<16} geomean throughput {g:>10.1} Medges/s");
            }
        }
    }
    out
}

// --- Kernel profile ----------------------------------------------------------

/// The kernels whose runtime shares the §5.1 profile reports.
pub const PROFILED_KERNELS: [&str; 5] = ["setup", "init", "kernel1", "kernel2", "kernel3"];

/// One traced full-configuration System 2 run.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// Its simulated clocks (Table 4's two ECL-MST cells).
    pub ecl: EclSeconds,
    /// Percent of the simulated runtime per [`PROFILED_KERNELS`] entry.
    pub percent: [f64; 5],
    /// Kernel-1 executions across phases.
    pub iterations: usize,
    /// 1 without filtering, 2 with.
    pub phases: usize,
}

/// Runs the full configuration on System 2 once per input, each under its
/// own ecl-trace session, and reads the kernel shares from the session's
/// [`ecl_trace::Profile`]. `on_session` sees every finished session (the
/// `--trace` exporter).
pub fn profile_kernels(
    entries: &[SuiteEntry],
    on_session: impl Fn(&SuiteEntry, &ecl_trace::TraceSession) + Sync,
) -> Vec<ProfiledRun> {
    simulate_each(&select(entries, |_| true), |e| {
        let (run, session) =
            ecl_trace::with_trace(|| ecl_mst_gpu_with(&e.graph, &OptConfig::full(), SYSTEM2_GPU));
        on_session(e, &session);
        let p = session.profile();
        ProfiledRun {
            ecl: EclSeconds::of(&run),
            percent: PROFILED_KERNELS.map(|k| p.kernel(k).map_or(0.0, |k| 100.0 * k.share)),
            iterations: run.iterations,
            phases: run.phases,
        }
    })
}

/// The §5.1 per-kernel runtime shares and iteration counts.
pub fn render_kernel_profile(
    entries: &[SuiteEntry],
    runs: &[ProfiledRun],
    scale: SuiteScale,
) -> String {
    let mut t = Table::new([
        "Input", "setup%", "init%", "kernel1%", "kernel2%", "kernel3%", "iters", "phases",
    ]);
    let mut sums = [0.0f64; 5];
    for (e, run) in entries.iter().zip(runs) {
        let mut cells = vec![e.name.to_string()];
        for (k, pct) in run.percent.iter().enumerate() {
            sums[k] += pct;
            cells.push(format!("{pct:.0}"));
        }
        cells.push(run.iterations.to_string());
        cells.push(run.phases.to_string());
        t.row(cells);
    }
    let mut mean_cells = vec!["MEAN".to_string()];
    for s in sums {
        mean_cells.push(format!("{:.0}", s / runs.len() as f64));
    }
    mean_cells.push(String::new());
    mean_cells.push(String::new());
    t.row(mean_cells);
    format!(
        "Kernel-time breakdown of ECL-MST, simulated {} (scale {scale:?})\n\n{}\
         \nPaper (§5.1): init ~40%, kernel1 ~35%, kernels 2 and 3 ~12% each;\n\
         4-15 computation-kernel launches; init launched twice when filtering.\n",
        SYSTEM2_GPU.name,
        t.render()
    )
}

// --- Configuration sweeps: Table 5, Figure 5 and the two ablations ---------

/// Simulated System 2 kernel seconds of a list of configurations on a
/// subset of the inputs.
pub struct ConfigCells<'a> {
    /// The inputs, in Table 2 order.
    pub entries: Vec<&'a SuiteEntry>,
    /// Column labels and configurations.
    pub configs: Vec<(&'static str, OptConfig)>,
    /// `seconds[input][config]`.
    pub seconds: Vec<Vec<f64>>,
}

/// Simulates every configuration on every input `keep` selects, each cell
/// once. A configuration equal to [`OptConfig::full`] reads the matching
/// `full` run (indexed like `entries`) when given.
pub fn simulate_configs<'a>(
    entries: &'a [SuiteEntry],
    keep: impl Fn(&SuiteEntry) -> bool,
    configs: Vec<(&'static str, OptConfig)>,
    full: Option<&[EclSeconds]>,
) -> ConfigCells<'a> {
    let picked = select(entries, keep);
    let seconds = simulate_each(&picked, |e| {
        configs
            .iter()
            .map(|(_, cfg)| match full {
                Some(runs) if *cfg == OptConfig::full() => runs[position(entries, e)].kernel,
                _ => ecl_mst_gpu_with(&e.graph, cfg, SYSTEM2_GPU).kernel_seconds,
            })
            .collect()
    });
    ConfigCells {
        entries: picked,
        configs,
        seconds,
    }
}

impl ConfigCells<'_> {
    /// Geometric mean of each column.
    fn geomeans(&self) -> Vec<f64> {
        (0..self.configs.len())
            .map(|k| {
                let col: Vec<f64> = self.seconds.iter().map(|row| row[k]).collect();
                geomean(&col).expect("non-empty")
            })
            .collect()
    }

    /// An ablation: `title`, the cells in microseconds, `footer`.
    fn render_us(&self, title: &str, footer: &str) -> String {
        let t = self.table("GeoMean (us)", |s| format!("{:.1}", s * 1e6));
        format!("{title}\n\n{}\n{footer}\n", t.render())
    }

    /// The cells as a table with a geomean row, each value shown by `fmt`.
    fn table(&self, geomean_label: &str, fmt: impl Fn(f64) -> String) -> Table {
        let mut header = vec!["Input".to_string()];
        header.extend(self.configs.iter().map(|(label, _)| label.to_string()));
        let mut t = Table::new(header);
        for (e, row) in self.entries.iter().zip(&self.seconds) {
            let mut cells = vec![e.name.to_string()];
            cells.extend(row.iter().map(|&s| fmt(s)));
            t.row(cells);
        }
        let mut cells = vec![geomean_label.to_string()];
        cells.extend(self.geomeans().into_iter().map(fmt));
        t.row(cells);
        t
    }
}

/// Table 5's de-optimization ladder on the single-component inputs.
pub fn simulate_ladder<'a>(
    entries: &'a [SuiteEntry],
    full: Option<&[EclSeconds]>,
) -> ConfigCells<'a> {
    simulate_configs(entries, SuiteEntry::is_mst_input, deopt_ladder(), full)
}

/// Table 5: the ladder's cells, geomeans and per-step slowdowns.
pub fn render_table5(ladder: &ConfigCells, scale: SuiteScale, csv: bool) -> String {
    let t = ladder.table("MST GeoMean", |s| format!("{s:.6}"));
    let mut out = format!(
        "Table 5: de-optimization ladder, simulated {} (scale {scale:?}, deterministic)\n\n",
        SYSTEM2_GPU.name
    );
    out.push_str(&if csv { t.to_csv() } else { t.render() });
    out.push_str("\nAdded runtime per removed optimization (geomean):\n");
    let gm = ladder.geomeans();
    for i in 1..gm.len() {
        let _ = writeln!(
            out,
            "  {:<22} {:>+6.0}%",
            ladder.configs[i].0,
            100.0 * (gm[i] / gm[i - 1] - 1.0)
        );
    }
    let _ = writeln!(
        out,
        "  all optimizations together: {:.1}x speedup",
        gm[gm.len() - 1] / gm[0]
    );
    out
}

/// Jucele's System 2 kernel seconds on the ladder's inputs (Figure 5's
/// reference bar), simulated directly.
pub fn simulate_jucele(ladder: &ConfigCells) -> Vec<f64> {
    simulate_each(&ladder.entries, |e| {
        ecl_baselines::jucele_gpu(&e.graph, SYSTEM2_GPU)
            .expect("single-CC inputs only")
            .kernel_seconds
    })
}

/// Figure 5's Jucele bars: Table 4's Jucele column on the ladder's
/// (single-component) inputs.
pub fn jucele_from(system2: &Matrix) -> Vec<f64> {
    let jucele = column_names(true)
        .iter()
        .position(|n| *n == "Jucele GPU")
        .expect("Table 4 has a Jucele column");
    system2
        .entries
        .iter()
        .zip(&system2.cells)
        .filter(|(e, _)| e.is_mst_input())
        .map(|(_, row)| row[jucele].seconds().expect("single-CC inputs only"))
        .collect()
}

/// Figure 5: ladder throughput per input with the Jucele reference bar.
pub fn render_fig5(ladder: &ConfigCells, jucele: &[f64], scale: SuiteScale) -> String {
    let mut out = format!(
        "Figure 5: ECL-MST throughput (Medges/s) while removing optimizations (scale {scale:?})\n\n"
    );
    for ((e, row), jucele) in ladder.entries.iter().zip(&ladder.seconds).zip(jucele) {
        let arcs = e.graph.num_arcs() as f64;
        let mut series: Vec<(String, f64)> = ladder
            .configs
            .iter()
            .zip(row)
            .map(|((name, _), s)| (name.to_string(), arcs / s / 1e6))
            .collect();
        series.push(("Jucele (ref)".to_string(), arcs / jucele / 1e6));
        let _ = writeln!(out, "== {} ==", e.name);
        out.push_str(&bar_chart(&series, 50, "Medges/s"));
        out.push('\n');
    }
    out
}

/// The filtering-constant ablation (§3.2: "Values between 2 and 4 seem to
/// work well for c"): `c ∈ {2, 3, 4, 5, 6, ∞}` on the inputs whose
/// average degree admits filtering.
pub fn simulate_filter_c<'a>(
    entries: &'a [SuiteEntry],
    full: Option<&[EclSeconds]>,
) -> ConfigCells<'a> {
    let with_c = |filtering, c| OptConfig {
        filtering,
        filter_c: c,
        ..OptConfig::full()
    };
    let configs = vec![
        ("c=2", with_c(true, 2)),
        ("c=3", with_c(true, 3)),
        ("c=4 (paper)", with_c(true, 4)),
        ("c=5", with_c(true, 5)),
        ("c=6", with_c(true, 6)),
        ("no filter", with_c(false, 2)),
    ];
    simulate_configs(entries, |e| e.graph.average_degree() >= 4.0, configs, full)
}

/// The filtering-constant ablation table, in microseconds.
pub fn render_filter_c(cells: &ConfigCells, scale: SuiteScale) -> String {
    cells.render_us(
        &format!("Filtering-constant ablation on the filtering-eligible inputs (scale {scale:?}, microseconds)"),
        "Paper (§3.2): values between 2 and 4 work well; the code uses c = 4.",
    )
}

/// The hybrid-parallelization ablation: the warp hand-off degree over
/// {2, 4, 8, 16, 32, thread-only} (the paper's `d(v) < 4` branch).
pub fn simulate_warp_threshold<'a>(
    entries: &'a [SuiteEntry],
    full: Option<&[EclSeconds]>,
) -> ConfigCells<'a> {
    let warp = |d| OptConfig {
        warp_degree_threshold: d,
        ..OptConfig::full()
    };
    let configs = vec![
        ("warp>=2", warp(2)),
        ("warp>=4 (paper)", warp(4)),
        ("warp>=8", warp(8)),
        ("warp>=16", warp(16)),
        ("warp>=32", warp(32)),
        (
            "thread-only",
            OptConfig {
                hybrid_warp: false,
                ..OptConfig::full()
            },
        ),
    ];
    simulate_configs(entries, |_| true, configs, full)
}

/// The warp-threshold ablation table, in microseconds.
pub fn render_warp_threshold(cells: &ConfigCells, scale: SuiteScale) -> String {
    cells.render_us(
        &format!(
            "Hybrid warp-threshold ablation, simulated {} (scale {scale:?}, microseconds)",
            SYSTEM2_GPU.name
        ),
        "Paper (§3.2): the code processes each low-degree vertex (d(v) < 4) with\n\
         a single thread and each remaining vertex with an entire warp.",
    )
}

// --- Figures 6 and 7 -----------------------------------------------------------

/// Filter-sampling seeds per input in Figure 6, as in §5.4.
pub const FIG6_SEEDS: u64 = 99;

/// Figure 6: full-code throughput per input over `seeds` filter-sampling
/// seeds, as box-and-whisker rows.
///
/// A seed's entire influence on a run is the filter plan it samples
/// (`plan_filter` is its only consumer), so the run is a pure function of
/// (graph, plan, profile). Seeds that draw the same plan share one
/// simulation; on inputs with average degree below 4 that is a single
/// SinglePhase run (§3.2: no filtering).
pub fn render_fig6(entries: &[SuiteEntry], seeds: u64, scale: SuiteScale) -> String {
    let rows = simulate_each(&select(entries, |_| true), |e| {
        let arcs = e.graph.num_arcs() as f64;
        let c = OptConfig::full().filter_c;
        let mut by_plan: Vec<(FilterPlan, f64)> = Vec::new();
        let tputs: Vec<f64> = (0..seeds)
            .map(|seed| {
                let plan = plan_filter(&e.graph, c, seed);
                if let Some((_, t)) = by_plan.iter().find(|(p, _)| *p == plan) {
                    return *t;
                }
                let cfg = OptConfig::full().with_seed(seed);
                let s = ecl_mst_gpu_with(&e.graph, &cfg, SYSTEM2_GPU).kernel_seconds;
                by_plan.push((plan, arcs / s / 1e6));
                arcs / s / 1e6
            })
            .collect();
        let f = five_num(&tputs);
        let spread = 100.0 * (f.max - f.min) / f.median;
        format!(
            "{}   (spread {spread:.1}% of median)\n",
            box_row(e.name, &f, "Medges/s")
        )
    });
    format!(
        "Figure 6: throughput variability over {seeds} filter-sampling seeds (scale {scale:?})\n\n{}\
         \nInputs with average degree < 4 never use the filter threshold, so\n\
         their spread is zero (the simulation is otherwise deterministic);\n\
         the wide boxes belong to the dense and scale-free inputs, led by\n\
         the kron/coPapersDBLP twins — the paper's Figure 6 pattern.\n",
        rows.concat()
    )
}

/// Figure 7: for every input that filters, how far the 20-sample estimate
/// lands from the 3·|V| target, as a signed percentage.
pub fn render_fig7(entries: &[SuiteEntry], seed: u64, scale: SuiteScale) -> String {
    let mut t = Table::new(["Input", "edges<thresh", "target 3|V|", "distance %"]);
    let mut shown = 0;
    for e in entries {
        // c = 4 as in the code; accuracy measured against 3x as in §5.4.
        // Inputs below the degree threshold do not filter and are skipped.
        if let Some((below, target, pct)) = threshold_accuracy(&e.graph, 4, seed, 3) {
            t.row([
                e.name.to_string(),
                below.to_string(),
                target.to_string(),
                format!("{pct:+.1}"),
            ]);
            shown += 1;
        }
    }
    format!(
        "Figure 7: relative distance from the 3x|V| filtering target (scale {scale:?}, seed {seed})\n\n{}\
         \n{shown} of 17 inputs use filtering (average degree >= 4).\n\
         The paper: the estimate rarely lands more than 2x over or 0.5x under target.\n",
        t.render()
    )
}

// --- CPU ladder and worklist decay ----------------------------------------------

/// Table 5's ladder on the CPU backend as wall-clock milliseconds: which of
/// the paper's GPU optimizations also pay off on a host.
pub fn render_cpu_ladder(entries: &[SuiteEntry], repeats: Repeats, scale: SuiteScale) -> String {
    let ladder = deopt_ladder();
    let mut header = vec!["Input".to_string()];
    header.extend(ladder.iter().map(|(name, _)| name.to_string()));
    let mut t = Table::new(header);
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); ladder.len()];
    for e in select(entries, SuiteEntry::is_mst_input) {
        eprintln!("measuring {} ...", e.name);
        let mut cells = vec![e.name.to_string()];
        for (k, (_, cfg)) in ladder.iter().enumerate() {
            let s = median_wall(repeats, || ecl_mst_cpu_with(&e.graph, cfg));
            per[k].push(s);
            cells.push(format!("{:.1}", s * 1e3));
        }
        t.row(cells);
    }
    let mut cells = vec!["GeoMean (ms)".to_string()];
    for times in &per {
        cells.push(format!("{:.1}", geomean(times).expect("non-empty") * 1e3));
    }
    t.row(cells);
    format!(
        "CPU-backend de-optimization ladder, wall-clock milliseconds (scale {scale:?}, {} repeats)\n\n{}",
        repeats.0,
        t.render()
    )
}

/// §3.1's decaying parallelism: the kernel-1 worklist size per iteration
/// of the full configuration, with the per-step survival ratio.
pub fn render_worklist_decay(entries: &[SuiteEntry], scale: SuiteScale) -> String {
    let sections = simulate_each(&select(entries, |_| true), |e| {
        let run = ecl_mst_gpu_with(&e.graph, &OptConfig::full(), SYSTEM2_GPU);
        let sizes: Vec<u64> = run
            .records
            .iter()
            .filter(|r| r.name == "kernel1")
            .map(|r| r.stats.tasks)
            .collect();
        let series: Vec<(String, f64)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (format!("iter {:>2}", i + 1), s as f64))
            .collect();
        let ratios: Vec<String> = sizes
            .windows(2)
            .map(|w| format!("{:.0}%", 100.0 * w[1] as f64 / w[0].max(1) as f64))
            .collect();
        format!(
            "== {} ({} edges, {} phase{}) ==\n{}survival per step: {}\n\n",
            e.name,
            e.graph.num_edges(),
            run.phases,
            if run.phases == 1 { "" } else { "s" },
            bar_chart(&series, 46, "edges"),
            ratios.join(" ")
        )
    });
    format!(
        "Worklist size per kernel-1 iteration (scale {scale:?})\n\n{}",
        sections.concat()
    )
}

// --- The sweep -------------------------------------------------------------------

/// Measures every artifact of the `all` sweep once, sharing measurements
/// as the module documentation lists, and hands each rendering to `write`
/// under its `results/` file stem as soon as it is complete. Wall-clock
/// cells run only while nothing else is scheduled.
pub fn sweep(scale: SuiteScale, repeats: Repeats, mut write: impl FnMut(&str, String)) {
    let entries = load_suite(scale);
    write("table2", render_table2(&entries, scale));
    let profiled = profile_kernels(&entries, |_, _| {});
    write(
        "kernel_profile",
        render_kernel_profile(&entries, &profiled, scale),
    );
    let ecl2: Vec<EclSeconds> = profiled.iter().map(|r| r.ecl).collect();
    let [m1, m2] = measure_systems(
        &entries,
        repeats,
        [(&SYSTEM1, None), (&SYSTEM2, Some(&ecl2))],
    );
    for (name, system, m) in [("3", &SYSTEM1, &m1), ("4", &SYSTEM2, &m2)] {
        write(
            &format!("table{name}"),
            render_system_table(system, m, scale, repeats, false),
        );
        write(&format!("fig{name}"), render_throughput(system, m, scale));
    }
    let ladder = simulate_ladder(&entries, Some(&ecl2));
    write("table5", render_table5(&ladder, scale, false));
    write("fig5", render_fig5(&ladder, &jucele_from(&m2), scale));
    write("fig6", render_fig6(&entries, FIG6_SEEDS, scale));
    write(
        "fig7_threshold",
        render_fig7(&entries, OptConfig::full().seed, scale),
    );
    let filter_c = simulate_filter_c(&entries, Some(&ecl2));
    write("filter_c_sweep", render_filter_c(&filter_c, scale));
    let warp = simulate_warp_threshold(&entries, Some(&ecl2));
    write("warp_threshold_sweep", render_warp_threshold(&warp, scale));
    write("cpu_ladder", render_cpu_ladder(&entries, repeats, scale));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_baselines as b;

    fn tiny() -> Vec<SuiteEntry> {
        ecl_graph::suite(SuiteScale::Tiny)
    }

    /// The `all` sweep's sharing, checked against direct calls: one CPU
    /// measurement for both systems, and every simulated cell equal to the
    /// code run on its own.
    #[test]
    fn shared_measurements_equal_direct_calls() {
        let entries = tiny();
        let profiled = profile_kernels(&entries, |_, _| {});
        let ecl2: Vec<EclSeconds> = profiled.iter().map(|r| r.ecl).collect();
        let [m1, m2] = measure_systems(
            &entries,
            Repeats(1),
            [(&SYSTEM1, None), (&SYSTEM2, Some(&ecl2))],
        );
        assert_eq!((m1.code_names.len(), m2.code_names.len()), (9, 10));
        assert!(m2.msf_geomean(0).is_some(), "ECL has an MSF geomean");
        assert!(m2.msf_geomean(2).is_none(), "Jucele MSF geomean is NC");
        assert!(m2.mst_geomean(2).is_some(), "Jucele MST geomean exists");
        for (i, e) in entries.iter().enumerate() {
            let g = &e.graph;
            assert_eq!(
                m1.cells[i][5..],
                m2.cells[i][6..],
                "{}: CPU columns",
                e.name
            );
            for (m, system) in [(&m1, &SYSTEM1), (&m2, &SYSTEM2)] {
                let p = system.profile;
                let run = ecl_mst_gpu_with(g, &OptConfig::full(), p);
                let mut direct = vec![
                    Timing::Seconds(run.kernel_seconds),
                    Timing::Seconds(run.kernel_seconds + run.memcpy_seconds),
                    b::jucele_gpu(g, p).map(|r| r.kernel_seconds).into(),
                    b::gunrock_gpu(g, p).map(|r| r.kernel_seconds).into(),
                ];
                if system.cugraph {
                    direct.push(Timing::Seconds(b::cugraph_gpu(g, p).kernel_seconds));
                }
                direct.push(Timing::Seconds(b::uminho_gpu(g, p).kernel_seconds));
                assert_eq!(m.cells[i][..direct.len()], direct[..], "{}", e.name);
            }
        }

        let ladder = simulate_ladder(&entries, Some(&ecl2));
        assert_eq!(jucele_from(&m2), simulate_jucele(&ladder));
        for sweep in [
            ladder,
            simulate_filter_c(&entries, Some(&ecl2)),
            simulate_warp_threshold(&entries, Some(&ecl2)),
        ] {
            for (e, row) in sweep.entries.iter().zip(&sweep.seconds) {
                for ((label, cfg), s) in sweep.configs.iter().zip(row) {
                    let direct = ecl_mst_gpu_with(&e.graph, cfg, SYSTEM2_GPU).kernel_seconds;
                    assert_eq!(*s, direct, "{} {label}", e.name);
                }
            }
        }
    }
}
