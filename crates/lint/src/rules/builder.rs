//! Guards the workspace's serial-regression-prone parallel hot paths.
//!
//! Inside each registered hot function — and only there — a bare `for`
//! loop or a serial `.sort_unstable(` outside every parallel-helper call
//! span would quietly reintroduce a single-thread bottleneck the parallel
//! version replaced. Deliberate serial steps carry a waiver
//! (`lint-metering: serial-ok` or `ecl-lint: allow(builder-serial-hot-path)`).
//!
//! Registered hot paths: the sharded MSF module's kernels —
//! `lightest_edges` (the light pass: concurrent shard reads, then one
//! bounded selection in shard order, whose loop is serial and waived),
//! `shard_survivors` (the heavy pass's per-shard filter, sort and
//! contracted solve) and `joins` (the greedy step every scan applies
//! through `retain` or `filter`). The name is historical: waivers in the
//! tree spell it.

use crate::{Ctx, Rule, Workspace};

/// The guarded file.
const SHARDED_FILE: &str = "crates/core/src/sharded.rs";

/// Hot functions under guard in [`SHARDED_FILE`]. If the file is present,
/// a missing hot function is a file-level error — the function was renamed
/// and the guard must follow it.
const HOT_FNS: &[&str] = &["lightest_edges", "shard_survivors", "joins"];

/// Parallel-helper callees; loops and sorts inside their argument spans run
/// chunked under the pool and are fine.
const PAR_HELPERS: &[&str] = &["run_chunks", "par_map", "chunk_ranges", "par_sort_unstable"];

pub struct BuilderSerialHotPath;

impl Rule for BuilderSerialHotPath {
    fn name(&self) -> &'static str {
        "builder-serial-hot-path"
    }
    fn description(&self) -> &'static str {
        "no serial `for` loops or `.sort_unstable(` on the registered parallel hot paths \
         (sharded MSF kernels) outside the par:: helper spans"
    }
    fn scope(&self) -> &'static [&'static str] {
        &[SHARDED_FILE]
    }

    fn run(&self, ws: &Workspace, ctx: &mut Ctx) {
        for file in ws.in_scope(self.scope()) {
            let code = &file.sf.code;
            for &hot_fn in HOT_FNS {
                let Some(f) = file.ix.find_fn(hot_fn) else {
                    ctx.emit_file(
                        self.name(),
                        &file.sf,
                        format!(
                            "`fn {hot_fn}(` not found — serial-hot-path lint has nothing to guard"
                        ),
                    );
                    continue;
                };
                let Some((body_lo, body_hi)) = file.ix.body_span(f) else {
                    continue;
                };
                // Argument spans of parallel-helper calls are covered territory.
                let covered: Vec<(usize, usize)> = file
                    .ix
                    .calls_in(code, body_lo, body_hi)
                    .filter(|c| {
                        let name = file.ix.toks[c.name_tok].text(code);
                        PAR_HELPERS.contains(&name)
                    })
                    .map(|c| {
                        let (o, cl) = c.args;
                        (file.ix.toks[o].lo, file.ix.toks[cl].hi.min(body_hi))
                    })
                    .collect();
                let in_covered = |at: usize| covered.iter().any(|&(lo, hi)| at > lo && at < hi);

                for for_tok in file.ix.for_loops_in(code, body_lo, body_hi) {
                    let at = file.ix.toks[for_tok].lo;
                    if in_covered(at) {
                        continue;
                    }
                    ctx.emit(
                        self.name(),
                        &file.sf,
                        at,
                        "serial `for` on a parallel hot path (outside every par-helper span)"
                            .to_string(),
                    );
                }
                for call in file.ix.calls_in(code, body_lo, body_hi) {
                    let t = file.ix.toks[call.name_tok];
                    if call.is_method && t.is_ident(code, "sort_unstable") && !in_covered(t.lo) {
                        ctx.emit(
                            self.name(),
                            &file.sf,
                            t.lo,
                            "serial `.sort_unstable(` on a parallel hot path (outside every \
                             par-helper span)"
                                .to_string(),
                        );
                    }
                }
            }
        }
    }
}
