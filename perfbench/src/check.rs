//! Output checks. Every result a timed call returns is compared against a
//! reference computed during set-up with serial Kruskal, so a pass never
//! pays for a fresh verification, and a wrong answer or a panic is counted
//! instead of being timed.

use ecl_graph::CsrGraph;
use ecl_mst::MstResult;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A forest as canonical `(u, v, w)` triples with `u < v`, sorted.
pub type Forest = Vec<(u32, u32, u32)>;

/// The forest `r` selects in `g`, in canonical order.
pub fn forest_of(g: &CsrGraph, r: &MstResult) -> Forest {
    let mut out: Forest = g
        .edges()
        .filter(|e| r.in_mst[e.id as usize])
        .map(|e| (e.src, e.dst, e.weight))
        .collect();
    out.sort_unstable();
    out
}

/// Tally of checked operations.
#[derive(Debug, Default)]
pub struct Checker {
    /// Operations whose output was checked (or that panicked).
    pub attempted: u64,
    /// Operations with a wrong output or a panic.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Checker {
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }

    /// Checks a solver result against the reference, edge for edge.
    pub fn mst(&mut self, what: &str, got: &MstResult, want: &MstResult) {
        self.record(got == want, || {
            format!("{what}: MSF differs from the reference")
        });
    }

    /// Checks a forest and its weight against the reference forest.
    pub fn forest(
        &mut self,
        what: &str,
        got: &[(u32, u32, u32)],
        weight: u64,
        want: &[(u32, u32, u32)],
    ) {
        let want_weight: u64 = want.iter().map(|e| e.2 as u64).sum();
        self.record(got == want && weight == want_weight, || {
            format!("{what}: forest differs from the reference")
        });
    }

    /// Runs `f`, counting a panic as one failed operation. Returns `None`
    /// after a panic.
    pub fn guard<R>(&mut self, what: &str, f: impl FnOnce(&mut Self) -> R) -> Option<R> {
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(r) => Some(r),
            Err(e) => {
                let msg = e
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| e.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                self.record(false, || format!("{what}: panicked: {msg}"));
                None
            }
        }
    }

    /// Checked operations that failed, as a share of those attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::generators::grid2d;
    use ecl_mst::serial_kruskal;

    #[test]
    fn corrupted_results_are_counted() {
        let g = grid2d(8, 5);
        let want = serial_kruskal(&g);
        let mut chk = Checker::default();
        chk.mst("good", &want.clone(), &want);
        let mut bad = want.clone();
        let flip = bad
            .in_mst
            .iter()
            .position(|&b| !b)
            .expect("a non-tree edge");
        bad.in_mst[flip] = true;
        chk.mst("bad", &bad, &want);

        let forest = forest_of(&g, &want);
        let weight = want.total_weight;
        chk.forest("good forest", &forest, weight, &forest);
        let mut wrong = forest.clone();
        wrong[0].2 += 1;
        chk.forest("wrong forest", &wrong, weight + 1, &forest);
        chk.forest("wrong weight", &forest, weight + 1, &forest);

        assert_eq!((chk.attempted, chk.failed), (5, 3));
        assert_eq!(
            chk.first_failure.as_deref(),
            Some("bad: MSF differs from the reference")
        );
        assert!((chk.error_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn panics_are_caught_and_counted() {
        let mut chk = Checker::default();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out: Option<()> = chk.guard("boom", |_| panic!("injected"));
        std::panic::set_hook(prev);
        assert!(out.is_none());
        assert_eq!(chk.guard("fine", |_| 7), Some(7));
        assert_eq!((chk.attempted, chk.failed), (1, 1));
        assert_eq!(
            chk.first_failure.as_deref(),
            Some("boom: panicked: injected")
        );
    }
}
