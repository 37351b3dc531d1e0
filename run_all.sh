#!/usr/bin/env bash
# Regenerates every table and figure of the paper plus the extra ablations —
# the analogue of the artifact's run_all_compare.sh / run_all_deoptimize.sh.
# One `ecl-bench all` process builds the suite once, measures each cell once
# and writes results/<name>.txt.
#
# Usage: ./run_all.sh [--scale tiny|small|medium|large|huge] [--repeats N]
#
# huge (2^24 vertices) is practical only for the sharded out-of-core cells
# (`bench_snapshot --sharded huge`); expect a very long sweep if you pass it.
set -euo pipefail
cd "$(dirname "$0")"
cargo run --release -p ecl-mst-bench --bin ecl-bench -- all "$@" \
    2> >(grep -v '^measuring' >&2 || true)
echo "done — see results/"
