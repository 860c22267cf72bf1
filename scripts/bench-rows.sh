#!/usr/bin/env bash
# The minimal reader of a microbench report (BENCH.json): prints one
# `workload/metric value` line per row. Relies on the writer's layout — one
# row object per line, `workload`, `kind`, `metric`, `value` first
# (`tm_bench::render`; a test in crates/bench reads a fresh report back through
# this script). Used by scripts/doc-check.sh to resolve row references.
set -euo pipefail
sed -n 's/^{"workload": "\([^"]*\)", "kind": "[^"]*", "metric": "\([^"]*\)", "value": \([^,]*\),.*/\1\/\2 \3/p' "$1"
