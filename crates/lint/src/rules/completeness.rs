//! Metering completeness: every kernel launch must *reach* the cost model.
//!
//! A launch whose closure (including every locally-defined helper it calls,
//! transitively) never touches a metered accessor (`ld`/`st`/`atomic_*`/…)
//! and never charges explicitly (`ctx.charge_*`) contributes zero simulated
//! traffic — almost always a bug where a kernel was refactored onto raw
//! slices and silently dropped out of the cost model. This is the rule the
//! old grep linter could not express: it needs call-graph reachability, not
//! a line pattern.
//!
//! The call graph is built per top-level crate (`crates/<name>`), over the
//! function items the AST layer indexes; calls to names defined in the same
//! crate are expanded breadth-first. Register-only warp intrinsics
//! (`ballot`/`shfl`/`reduce_min`) are deliberately *not* metered — they are
//! free in the cost model by design.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::rules::metering::launch_spans;
use crate::{Ctx, Rule, Workspace};

/// Accessor names that charge the cost model when called.
const METERED: &[&str] = &[
    "ld",
    "ld_gather",
    "ld_span",
    "ld_row",
    "ld_cached",
    "ld4",
    "ld_chase",
    "st",
    "st_scatter",
    "st4",
    "atomic_add",
    "atomic_add_aggregated",
    "atomic_cas",
    "atomic_min",
];

fn is_metered(name: &str) -> bool {
    METERED.contains(&name) || name.starts_with("charge_")
}

pub struct MeteringCompleteness;

impl Rule for MeteringCompleteness {
    fn name(&self) -> &'static str {
        "metering-completeness"
    }
    fn description(&self) -> &'static str {
        "every launch/launch_warps closure must reach at least one metered accessor \
         (ld/st/atomic_*) or explicit ctx.charge_* through its local call graph; an unmetered \
         kernel contributes zero simulated traffic"
    }
    fn scope(&self) -> &'static [&'static str] {
        &["crates/core/src", "crates/baselines/src", "crates/cc/src"]
    }

    fn run(&self, ws: &Workspace, ctx: &mut Ctx) {
        // Group files by top-level crate dir (first two path components) so
        // same-named helpers in different crates don't cross-pollinate.
        let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, file) in ws.files.iter().enumerate() {
            if !self
                .scope()
                .iter()
                .any(|s| file.sf.rel.starts_with(s) || file.sf.rel == std::path::Path::new(s))
            {
                continue;
            }
            let mut comps = file.sf.rel.components();
            let key: Vec<_> = comps.by_ref().take(2).collect();
            let key = key
                .iter()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            groups.entry(key).or_default().push(i);
        }

        for files in groups.values() {
            // fn name -> bodies (a name may be defined on several types;
            // reachability unions them, which over-approximates and can
            // only hide a finding, never fabricate one).
            let mut fn_bodies: BTreeMap<&str, Vec<(usize, usize, usize)>> = BTreeMap::new();
            for &fi in files {
                let file = &ws.files[fi];
                for f in file.ix.fns() {
                    if let Some((lo, hi)) = file.ix.body_span(f) {
                        fn_bodies
                            .entry(f.name.as_str())
                            .or_default()
                            .push((fi, lo, hi));
                    }
                }
            }

            for &fi in files {
                let file = &ws.files[fi];
                for (call, lo, hi) in launch_spans(file) {
                    let mut queue: VecDeque<(usize, usize, usize)> = VecDeque::new();
                    let mut visited: BTreeSet<&str> = BTreeSet::new();
                    queue.push_back((fi, lo, hi));
                    let mut metered = false;
                    'bfs: while let Some((qfi, qlo, qhi)) = queue.pop_front() {
                        let qfile = &ws.files[qfi];
                        let qcode = &qfile.sf.code;
                        for c in qfile.ix.calls_in(qcode, qlo, qhi) {
                            let name = qfile.ix.toks[c.name_tok].text(qcode);
                            if is_metered(name) {
                                metered = true;
                                break 'bfs;
                            }
                            if visited.insert(name) {
                                if let Some(bodies) = fn_bodies.get(name) {
                                    for &(bfi, blo, bhi) in bodies {
                                        queue.push_back((bfi, blo, bhi));
                                    }
                                }
                            }
                        }
                    }
                    if !metered {
                        let at = file.ix.toks[call.name_tok].lo;
                        ctx.emit(
                            self.name(),
                            &file.sf,
                            at,
                            "launch reaches no metered accessor or ctx.charge_* through its \
                             call graph — the kernel is invisible to the cost model"
                                .to_string(),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_chase_alone_meters_the_launch() {
        let src = "pub fn run(dev: &mut Device, parent: &BufU32) {\n    \
                   dev.launch(\"find\", 4, |i, ctx| {\n        \
                   let _ = parent.ld_chase(ctx, i as u32);\n    });\n}\n";
        let ws = Workspace::from_sources(&[("crates/core/src/fixture.rs", src)]);
        let report = crate::run(&ws, &[Box::new(MeteringCompleteness) as Box<dyn Rule>]);
        assert!(report.is_clean(), "{:?}", report.findings);
    }
}
