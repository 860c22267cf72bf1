#!/usr/bin/env bash
# The one command: build perfbench (release, offline) and run it.
#
#   benchmark/run.sh                               all workloads, both passes -> benchmark/out/report.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run; JSON result on the last line
#   benchmark/run.sh check A.json B.json           compare two reports against the bounds
set -euo pipefail
dir="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$dir/target}"
# cargo resolves a relative CARGO_TARGET_DIR against the caller's directory;
# keep build chatter off stdout, whose last line is the result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$dir/Cargo.toml" >&2
export PERFBENCH_DIR="$dir"
if [ "$#" -eq 0 ]; then
    set -- report
fi
exec "$target/release/perfbench" "$@"
