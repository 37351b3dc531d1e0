//! The DSU's `ecl.dsu.*` metrics under a scoped session.
//!
//! `with_metrics` opens a process-wide recording gate, so any DSU call a
//! concurrently running test makes would land in this session. This test
//! therefore runs in a binary of its own, where nothing else records.

use ecl_dsu::{AtomicDsu, FindPolicy};

#[test]
fn metrics_session_counts_finds_unions_and_writes() {
    let d = AtomicDsu::new(8);
    let ((), snap) = ecl_metrics::with_metrics(|| {
        // Build a chain 0→1→…→5 then compress with a halving find.
        for x in 0..5 {
            d.union(x, x + 1, FindPolicy::NoCompression);
        }
        d.find(0, FindPolicy::Halving);
    });
    // Each union runs at least two finds (roots) plus the union call.
    assert_eq!(snap.counter("ecl.dsu.union"), 5);
    assert!(snap.counter("ecl.dsu.find") >= 11);
    assert!(snap.counter("ecl.dsu.find_hop") > 0);
    assert!(
        snap.counter("ecl.dsu.compression_write") > 0,
        "the halving find over a chain must issue compression writes"
    );
    // Serial driver: no lost CAS races.
    assert_eq!(snap.counter("ecl.dsu.cas_retry"), 0);

    // Outside the session the gate is closed again and finds are free
    // of side effects on the registry.
    d.find(0, FindPolicy::Halving);
    assert_eq!(ecl_metrics::Snapshot::collect().counter("ecl.dsu.find"), 0);
}
