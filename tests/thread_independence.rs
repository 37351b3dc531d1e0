//! Thread-count independence of the CPU backend: every de-optimization
//! rung must return the same forest *and* the same round count whether its
//! kernels run on the whole thread budget or on one thread.
//!
//! The kernels cut their worklists into chunks whose boundaries depend
//! only on the list length, and kernel 1 compacts the chunks' survivors in
//! chunk order, so the next worklist is the same list at any budget. A
//! round count that moved with the budget would mean a kernel's output
//! depended on scheduling. CI runs this file at `RAYON_NUM_THREADS=1` and
//! `=4` as well as at the default budget.

use ecl_mst_repro::graph::par;
use ecl_mst_repro::prelude::*;

fn assert_budget_independent(name: &str, g: &CsrGraph) {
    for (rung, cfg) in deopt_ladder() {
        let threaded = ecl_mst_cpu_with(g, &cfg);
        let serial = par::with_serial_input(|| ecl_mst_cpu_with(g, &cfg));
        assert_eq!(threaded.result, serial.result, "{name} rung '{rung}'");
        assert_eq!(
            threaded.iterations, serial.iterations,
            "{name} rung '{rung}': round count depends on the thread budget"
        );
        assert_eq!(threaded.phases, serial.phases, "{name} rung '{rung}'");
    }
}

#[test]
fn tiny_suite_every_rung_is_budget_independent() {
    for e in suite::suite(SuiteScale::Tiny) {
        assert_budget_independent(e.name, &e.graph);
    }
}

#[test]
fn multi_chunk_worklists_are_budget_independent() {
    // Larger than the Tiny twins, so populate and the first rounds span
    // many kernel chunks: a hub-heavy graph (hub rows split across
    // chunks), a dense one (two phases) and a disconnected one.
    let graphs = [
        ("rmat14", generators::rmat(14, 8, 3)),
        ("copapers", generators::copapers(4000, 24, 5)),
        (
            "preferential",
            generators::preferential_attachment(20_000, 6, 3, 9),
        ),
    ];
    for (name, g) in &graphs {
        assert_budget_independent(name, g);
    }
}
