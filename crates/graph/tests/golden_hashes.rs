//! Golden content hashes pinning generator + builder output byte-for-byte.
//!
//! The parallel input pipeline (chunked per-chunk RNG streams in the
//! generators, then the CSR build) must reproduce the serial pipeline's
//! output *exactly* — same edge multiset, same weights, same arc
//! order, same edge ids. These hashes were captured from the serial
//! implementation before the parallel refactor; any divergence afterwards is
//! a determinism bug, not an acceptable drift.
//!
//! Regenerate (e.g. after an *intentional* generator change) with:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -p ecl-graph --test golden_hashes -- --nocapture
//! ```

use ecl_graph::generators::*;
use ecl_graph::{suite, CsrGraph, SuiteScale};

/// FNV-1a 64 over every array of the CSR, in a fixed serialization order.
/// Any reordering of arcs, renumbering of edge ids, or weight change moves
/// the hash.
fn csr_hash(g: &CsrGraph) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |word: u32| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(u32::try_from(g.num_vertices()).unwrap());
    for &w in g.row_starts() {
        eat(w);
    }
    for &w in g.adjacency() {
        eat(w);
    }
    for &w in g.arc_weights() {
        eat(w);
    }
    for &w in g.arc_edge_ids() {
        eat(w);
    }
    h
}

/// The 17 suite entries at Tiny, in suite order.
const SUITE_TINY: [(&str, u64); 17] = [
    ("2d-2e20.sym", 0xf7b340c1cc666f10),
    ("amazon0601", 0x804b0809910673d1),
    ("as-skitter", 0xaf553510da7a5be9),
    ("citationCiteseer", 0x1de94cda4b07e165),
    ("cit-Patents", 0x99308cb9b31e3bba),
    ("coPapersDBLP", 0x37e202f7508c6821),
    ("delaunay_n24", 0x942959447a8f11ed),
    ("europe_osm", 0xe03c34b7e0a9c098),
    ("in-2004", 0x6efb1143cf3ea5ea),
    ("internet", 0x0fd85cce15481bf9),
    ("kron_g500-logn21", 0x32a4eee4532728a6),
    ("r4-2e23.sym", 0x615eac072db5ddc0),
    ("rmat16.sym", 0x7913d83ceb2c4f70),
    ("rmat22.sym", 0xcc8a84979dd7f87b),
    ("soc-LiveJournal1", 0xe2d4f3979b954185),
    ("USA-road-d.NY", 0x0341a1e6e600d929),
    ("USA-road-d.USA", 0x83b043b71719602c),
];

/// Direct generator calls at off-suite parameters, covering every public
/// generator (the suite exercises neither `small_world` nor `geometric`).
fn direct_cases() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("grid2d(64,7)", grid2d(64, 7)),
        ("delaunay_like(48,11)", delaunay_like(48, 11)),
        ("uniform_random(4096,6.0,13)", uniform_random(4096, 6.0, 13)),
        ("rmat(12,8,17)", rmat(12, 8, 17)),
        ("kronecker(11,16,19)", kronecker(11, 16, 19)),
        ("small_world(4096,4,0.1,23)", small_world(4096, 4, 0.1, 23)),
        ("citation(4096,5,3,29)", citation(4096, 5, 3, 29)),
        (
            "preferential_attachment(4096,6,4,31)",
            preferential_attachment(4096, 6, 4, 31),
        ),
        ("webcrawl(4096,8,3,37)", webcrawl(4096, 8, 3, 37)),
        ("copapers(4096,24,41)", copapers(4096, 24, 41)),
        ("internet_topo(2048,3.0,43)", internet_topo(2048, 3.0, 43)),
        ("road_map(64,2.5,47)", road_map(64, 2.5, 47)),
        ("geometric(2048,0.05,53)", geometric(2048, 0.05, 53)),
    ]
}

const DIRECT: [(&str, u64); 13] = [
    ("grid2d(64,7)", 0x7225395ee7431005),
    ("delaunay_like(48,11)", 0x5f373e0f2f7dfd9a),
    ("uniform_random(4096,6.0,13)", 0x1ed9c543dc97431f),
    ("rmat(12,8,17)", 0xca2a4f276a27fac9),
    ("kronecker(11,16,19)", 0x10548ee86ebc4fff),
    ("small_world(4096,4,0.1,23)", 0x595126a53d93868d),
    ("citation(4096,5,3,29)", 0xac98bd46314691bd),
    ("preferential_attachment(4096,6,4,31)", 0xcfb097dc30f1d5c4),
    ("webcrawl(4096,8,3,37)", 0x10de13eec8d4ead0),
    ("copapers(4096,24,41)", 0x6e66b1f08ddb53a5),
    ("internet_topo(2048,3.0,43)", 0xff612c3ab461bd0c),
    ("road_map(64,2.5,47)", 0xc0ade2bdebb8e276),
    ("geometric(2048,0.05,53)", 0x9a7e135324be28cc),
];

fn check(observed: &[(String, u64)], expected: &[(&str, u64)]) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (name, h) in observed {
            println!("    (\"{name}\", {h:#018x}),");
        }
        return;
    }
    assert_eq!(observed.len(), expected.len());
    for ((name, h), (ename, eh)) in observed.iter().zip(expected) {
        assert_eq!(name, ename, "case ordering drifted");
        assert_eq!(
            *h, *eh,
            "{name}: content hash {h:#018x} != golden {eh:#018x} \
             (generator or builder output is no longer byte-identical)"
        );
    }
}

#[test]
fn suite_tiny_hashes_are_golden() {
    let observed: Vec<(String, u64)> = suite(SuiteScale::Tiny)
        .iter()
        .map(|e| (e.name.to_string(), csr_hash(&e.graph)))
        .collect();
    check(&observed, &SUITE_TINY);
}

#[test]
fn direct_generator_hashes_are_golden() {
    let observed: Vec<(String, u64)> = direct_cases()
        .into_iter()
        .map(|(name, g)| (name.to_string(), csr_hash(&g)))
        .collect();
    check(&observed, &DIRECT);
}
