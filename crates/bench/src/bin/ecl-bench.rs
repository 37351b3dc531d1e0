//! Regenerates every table and figure of the ECL-MST paper, plus the extra
//! ablations, as subcommands named after their `results/` file stems.
//! `ecl-bench all` measures the whole set in one process and writes
//! `results/<name>.txt` (see DESIGN.md §4 for the index).
//!
//! ```text
//! ecl-bench <subcommand> [flags]      ecl-bench <subcommand> --help
//! ```
//!
//! Simulated GPU cells are deterministic and evaluated once; `--repeats N`
//! (default 9, the paper's protocol) sets the runs per wall-clock cell.

use ecl_graph::io;
use ecl_mst::OptConfig;
use ecl_mst_bench::cli::{
    parse_or_exit, usage, usage_error, Args, Flag, Kind, CSV, METRICS, REPEATS, SANITIZE, SCALE,
    TRACE,
};
use ecl_mst_bench::experiments::{self as x, System, FIG6_SEEDS, SYSTEM1, SYSTEM2};
use ecl_mst_bench::runner::{
    profile_path, with_optional_metrics, with_optional_sanitizer, with_optional_trace,
};
use std::path::{Path, PathBuf};

const SYSTEM_FLAGS: &[Flag] = &[SCALE, REPEATS, CSV, TRACE, METRICS, SANITIZE];
const FIGURE_FLAGS: &[Flag] = &[SCALE, REPEATS, TRACE, METRICS, SANITIZE];

/// Every subcommand: name, accepted flags, one-line description.
const COMMANDS: &[(&str, &[Flag], &str)] = &[
    (
        "all",
        &[SCALE, REPEATS],
        "every artifact below but worklist_decay and make_inputs, into results/",
    ),
    ("table2", &[SCALE], "Table 2: input graph properties"),
    (
        "table3",
        SYSTEM_FLAGS,
        "Table 3: System 1 (Titan V) runtimes",
    ),
    (
        "table4",
        SYSTEM_FLAGS,
        "Table 4: System 2 (RTX 3080 Ti) runtimes",
    ),
    (
        "table5",
        &[SCALE, CSV, TRACE],
        "Table 5: de-optimization ladder",
    ),
    ("fig3", FIGURE_FLAGS, "Figure 3: System 1 throughput"),
    ("fig4", FIGURE_FLAGS, "Figure 4: System 2 throughput"),
    ("fig5", &[SCALE, TRACE], "Figure 5: ladder throughput"),
    (
        "fig6",
        &[SCALE, ("--seeds", Kind::Int), TRACE],
        "Figure 6: throughput over filter seeds",
    ),
    (
        "fig7_threshold",
        &[SCALE, ("--seed", Kind::Int)],
        "Figure 7: filter-threshold accuracy",
    ),
    (
        "kernel_profile",
        &[SCALE, TRACE],
        "§5.1 per-kernel runtime shares (--trace STEM.json: one trace per input)",
    ),
    (
        "filter_c_sweep",
        &[SCALE],
        "ablation of the filter constant c",
    ),
    (
        "warp_threshold_sweep",
        &[SCALE],
        "ablation of the d(v) < 4 warp hand-off",
    ),
    (
        "cpu_ladder",
        &[SCALE, REPEATS],
        "Table 5's toggles on the CPU backend",
    ),
    (
        "worklist_decay",
        &[SCALE],
        "§3.1 per-iteration worklist sizes",
    ),
    (
        "make_inputs",
        &[SCALE, ("--dir", Kind::Value)],
        "write the suite as .eclg files (default dir: inputs)",
    ),
];

fn overview() -> String {
    let mut out = "usage: ecl-bench <subcommand> [flags]   (ecl-bench <subcommand> --help)\n\n\
                   subcommands:\n"
        .to_string();
    for (name, _, about) in COMMANDS {
        out.push_str(&format!("  {name:<21} {about}\n"));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage_error("missing subcommand", &overview());
    };
    if command == "--help" || command == "-h" {
        print!("{}", overview());
        return;
    }
    let Some(&(name, flags, _)) = COMMANDS.iter().find(|(name, _, _)| name == command) else {
        usage_error(&format!("unknown subcommand `{command}`"), &overview());
    };
    let a = parse_or_exit(
        &args[1..],
        flags,
        &usage(&format!("ecl-bench {name}"), flags),
    );
    let scale = a.scale();
    match name {
        "all" => {
            let dir = Path::new("results");
            std::fs::create_dir_all(dir).expect("create results/");
            x::sweep(scale, a.repeats(), |stem, text| {
                let path = dir.join(format!("{stem}.txt"));
                std::fs::write(&path, text)
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
                eprintln!("wrote {}", path.display());
            });
        }
        "table2" => print!("{}", x::render_table2(&x::load_suite(scale), scale)),
        "table3" => system(&a, &SYSTEM1, true),
        "table4" => system(&a, &SYSTEM2, true),
        "fig3" => system(&a, &SYSTEM1, false),
        "fig4" => system(&a, &SYSTEM2, false),
        "table5" => {
            let entries = x::load_suite(scale);
            let ladder =
                with_optional_trace(a.trace().as_deref(), || x::simulate_ladder(&entries, None));
            print!("{}", x::render_table5(&ladder, scale, a.has(CSV.0)));
        }
        "fig5" => {
            let entries = x::load_suite(scale);
            let text = with_optional_trace(a.trace().as_deref(), || {
                let ladder = x::simulate_ladder(&entries, None);
                x::render_fig5(&ladder, &x::simulate_jucele(&ladder), scale)
            });
            print!("{text}");
        }
        "fig6" => {
            let entries = x::load_suite(scale);
            let seeds = a.int("--seeds", FIG6_SEEDS);
            let text = with_optional_trace(a.trace().as_deref(), || {
                x::render_fig6(&entries, seeds, scale)
            });
            print!("{text}");
        }
        "fig7_threshold" => {
            let seed = a.int("--seed", OptConfig::full().seed);
            print!("{}", x::render_fig7(&x::load_suite(scale), seed, scale));
        }
        "kernel_profile" => {
            let entries = x::load_suite(scale);
            let stem = a.trace();
            let runs = x::profile_kernels(&entries, |e, session| {
                if let Some(stem) = &stem {
                    write_input_trace(stem, e.name, session);
                }
            });
            print!("{}", x::render_kernel_profile(&entries, &runs, scale));
        }
        "filter_c_sweep" => {
            let entries = x::load_suite(scale);
            let cells = x::simulate_filter_c(&entries, None);
            print!("{}", x::render_filter_c(&cells, scale));
        }
        "warp_threshold_sweep" => {
            let entries = x::load_suite(scale);
            let cells = x::simulate_warp_threshold(&entries, None);
            print!("{}", x::render_warp_threshold(&cells, scale));
        }
        "cpu_ladder" => {
            let entries = x::load_suite(scale);
            print!("{}", x::render_cpu_ladder(&entries, a.repeats(), scale));
        }
        "worklist_decay" => {
            print!("{}", x::render_worklist_decay(&x::load_suite(scale), scale));
        }
        "make_inputs" => make_inputs(&a),
        _ => unreachable!("every listed subcommand is handled"),
    }
}

/// Table 3/4 (`table = true`) or Figure 3/4 of one system. The metrics
/// session is outermost: the trace→metrics bridge publishes when the trace
/// session closes, which must happen inside it.
fn system(a: &Args, system: &System, table: bool) {
    let (scale, repeats) = (a.scale(), a.repeats());
    let (text, _) = with_optional_metrics(a.metrics().as_deref(), || {
        with_optional_trace(a.trace().as_deref(), || {
            with_optional_sanitizer(a.has(SANITIZE.0), || {
                let entries = x::load_suite(scale);
                let [m] = x::measure_systems(&entries, repeats, [(system, None)]);
                if table {
                    x::render_system_table(system, &m, scale, repeats, a.has(CSV.0))
                } else {
                    x::render_throughput(system, &m, scale)
                }
            })
        })
    });
    print!("{text}");
}

/// Writes one input's Chrome trace to `STEM-<input>.json` and its profile
/// next to it.
fn write_input_trace(stem: &Path, input: &str, session: &ecl_trace::TraceSession) {
    // Input names double as file-name fragments (`USA-road-d.NY`,
    // `2d-2e20.sym`): keep them path-safe.
    let safe: String = input
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    let base = stem.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let path = stem.with_file_name(format!("{base}-{safe}.json"));
    std::fs::write(&path, session.chrome_trace())
        .unwrap_or_else(|err| panic!("--trace: cannot write {}: {err}", path.display()));
    let pp = profile_path(&path);
    std::fs::write(&pp, session.profile().to_json())
        .unwrap_or_else(|err| panic!("--trace: cannot write {}: {err}", pp.display()));
    eprintln!("--trace: wrote {} and {}", path.display(), pp.display());
}

/// Writes the suite in the ECL binary CSR format — the analogue of the
/// artifact's `set_up.sh` — and re-reads every file to verify it.
fn make_inputs(a: &Args) {
    let scale = a.scale();
    let dir = a.path("--dir").unwrap_or_else(|| PathBuf::from("inputs"));
    std::fs::create_dir_all(&dir).expect("create output directory");
    let mut total_bytes = 0u64;
    for e in x::load_suite(scale) {
        let path = dir.join(format!("{}.eclg", e.name));
        io::write_binary(&e.graph, &path).expect("write");
        let back = io::read_binary(&path).expect("read back");
        assert_eq!(back, e.graph, "{} round-trip", e.name);
        let bytes = std::fs::metadata(&path).expect("stat").len();
        total_bytes += bytes;
        println!(
            "{:<20} {:>12} bytes  ({} vertices, {} edges)",
            e.name,
            bytes,
            e.graph.num_vertices(),
            e.graph.num_edges()
        );
    }
    println!(
        "\nwrote 17 inputs at scale {scale:?} to {} ({:.1} MiB total), all verified",
        dir.display(),
        total_bytes as f64 / (1 << 20) as f64
    );
}
