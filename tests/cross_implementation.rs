//! Cross-implementation agreement: every MST code in the workspace — both
//! ECL-MST backends, all nine de-optimization rungs, and all eight baseline
//! strategies — must produce the *identical* edge set on the whole 17-graph
//! suite (the packed weight:id ordering makes the MSF unique).

use ecl_mst_repro::prelude::*;

fn tiny_suite() -> Vec<SuiteEntry> {
    suite::suite(SuiteScale::Tiny)
}

#[test]
fn ecl_cpu_matches_serial_on_entire_suite() {
    for e in tiny_suite() {
        let expected = serial_kruskal(&e.graph);
        let got = ecl_mst_cpu(&e.graph);
        assert_eq!(got.in_mst, expected.in_mst, "{}", e.name);
        verify_msf(&e.graph, &got).unwrap_or_else(|err| panic!("{}: {err}", e.name));
    }
}

#[test]
fn ecl_gpu_matches_serial_on_entire_suite() {
    for e in tiny_suite() {
        let expected = serial_kruskal(&e.graph);
        let run = ecl_mst_gpu_with(&e.graph, &OptConfig::full(), GpuProfile::TITAN_V);
        assert_eq!(run.result.in_mst, expected.in_mst, "{}", e.name);
    }
}

#[test]
fn every_deopt_rung_matches_on_representative_inputs() {
    // The full ladder × full suite is covered at bench time; here a
    // representative sparse / dense / disconnected trio keeps CI quick.
    let picks = ["2d-2e20.sym", "coPapersDBLP", "rmat16.sym"];
    for e in tiny_suite().into_iter().filter(|e| picks.contains(&e.name)) {
        let expected = serial_kruskal(&e.graph);
        for (rung, cfg) in deopt_ladder() {
            let cpu = ecl_mst_cpu_with(&e.graph, &cfg);
            assert_eq!(
                cpu.result.in_mst, expected.in_mst,
                "{} cpu rung '{rung}'",
                e.name
            );
            let gpu = ecl_mst_gpu_with(&e.graph, &cfg, GpuProfile::RTX_3080_TI);
            assert_eq!(
                gpu.result.in_mst, expected.in_mst,
                "{} gpu rung '{rung}'",
                e.name
            );
        }
    }
}

#[test]
fn cpu_baselines_match_on_entire_suite() {
    for e in tiny_suite() {
        let expected = serial_kruskal(&e.graph);
        for (name, result) in [
            ("serial_prim", serial_prim(&e.graph)),
            ("filter_kruskal", filter_kruskal(&e.graph)),
            ("pbbs_serial", pbbs_serial(&e.graph)),
            ("pbbs_parallel", pbbs_parallel(&e.graph)),
            ("lonestar_cpu", lonestar_cpu(&e.graph)),
            ("uminho_cpu", uminho_cpu(&e.graph)),
        ] {
            assert_eq!(result.in_mst, expected.in_mst, "{} / {name}", e.name);
        }
    }
}

#[test]
fn gpu_baselines_match_on_entire_suite() {
    for e in tiny_suite() {
        let expected = serial_kruskal(&e.graph);
        let um = uminho_gpu(&e.graph, GpuProfile::TITAN_V);
        assert_eq!(um.result.in_mst, expected.in_mst, "{} / uminho_gpu", e.name);
        let cg = cugraph_gpu(&e.graph, GpuProfile::TITAN_V);
        assert_eq!(
            cg.result.in_mst, expected.in_mst,
            "{} / cugraph_gpu",
            e.name
        );
    }
}

#[test]
fn mst_only_codes_report_nc_exactly_on_msf_inputs() {
    // Jucele and Gunrock must succeed on every single-component input and
    // return NotConnected on every multi-component input — reproducing the
    // NC cells of Tables 3 and 4.
    for e in tiny_suite() {
        let jucele = jucele_gpu(&e.graph, GpuProfile::TITAN_V);
        let gunrock = gunrock_gpu(&e.graph, GpuProfile::TITAN_V);
        if e.is_mst_input() {
            let expected = serial_kruskal(&e.graph);
            assert_eq!(
                jucele
                    .expect("jucele should run on MST input")
                    .result
                    .in_mst,
                expected.in_mst,
                "{} / jucele",
                e.name
            );
            assert_eq!(
                gunrock
                    .expect("gunrock should run on MST input")
                    .result
                    .in_mst,
                expected.in_mst,
                "{} / gunrock",
                e.name
            );
        } else {
            assert_eq!(jucele.unwrap_err(), MstError::NotConnected, "{}", e.name);
            assert_eq!(gunrock.unwrap_err(), MstError::NotConnected, "{}", e.name);
        }
    }
}
