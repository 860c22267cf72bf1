#!/usr/bin/env bash
# Tier-1 gate: release build; a compile check of the frozen perfbench
# (benchmark/) against the workspace API; workspace tests under a timeout (plus
# a x50 repeat of the release failure-injection suite and, on a multi-CPU host,
# a x10 repeat of the concurrent suites); clippy and rustdoc with warnings
# denied; scripts/doc-check.sh; schedx --bounded.
#
#   --smoke  also microbench --smoke (every row once, < 30 s), a seeded
#            schedx soak over the CI scenarios and a 1 s scripts/profile.sh
#            run (skipped without cc)
#   --bench  also a full microbench run (< 3 min) to target/microbench.json,
#            gated against the committed BENCH.json by perfbench's
#            `benchmark/run.sh check` (ok / worse / unresolved per row) and by
#            microbench's own claim floors; to rebaseline, copy the fresh file
#            over BENCH.json
#
# Fully offline: all dependencies are workspace-local (see docs/offline.md).
set -euo pipefail
cd "$(dirname "$0")/.."

case "$#:${1:-}" in
0: | 1:--smoke | 1:--bench) ;;
*)
    echo "usage: scripts/tier1.sh [--smoke | --bench]" >&2
    exit 2
    ;;
esac

echo "== tier1: cargo build --release =="
cargo build --release

echo "== tier1: cargo check benchmark/ (perfbench compiles against this API) =="
# perfbench depends on htm-sim, core and the other crates by path: an API
# change that breaks it must fail here, not when the benchmark next runs.
cargo check -q --release --offline --manifest-path benchmark/Cargo.toml --all-targets

echo "== tier1: cargo test -q (workspace, timeout 900) =="
# A wedged test must fail the gate, not hang it (the whole debug suite needs
# well under a minute once built).
timeout 900 cargo test -q --workspace

test_bin() {
    cargo test -q "$@" --no-run --message-format=json |
        sed -n 's/.*"executable":"\([^"]*\)".*/\1/p' | tail -n 1
}

echo "== tier1: failure_injection x50 (release, timeout 60 each) =="
# A lost update that shows one run in six must fail the gate, not pass as a
# flake (~0.04 s per run).
failure_injection_bin="$(test_bin --release --test failure_injection)"
for i in $(seq 1 50); do
    timeout 60 "$failure_injection_bin" -q >/dev/null ||
        { echo "failure_injection run $i failed or hung" >&2; exit 1; }
done

if [ "$(nproc)" -ge 2 ]; then
    echo "== tier1: root proptests + htm-sim lib suite x10 (timeout 60 each) =="
    # Progress and atomicity bugs in the multi-threaded paths only show under
    # real parallelism and only in some runs (a 2-CPU hang one run in four; a
    # line-table doom lost one run in ~290): repeat the concurrent
    # random-program suite (~0.4 s per run) and htm-sim's lib suite, which
    # holds the line table's stress tests (~0.1 s per run).
    proptests_bin="$(test_bin --test proptests)"
    htm_sim_bin="$(test_bin -p htm-sim --lib)"
    for i in $(seq 1 10); do
        timeout 60 "$proptests_bin" -q >/dev/null ||
            { echo "root proptests run $i failed or hung" >&2; exit 1; }
        timeout 60 "$htm_sim_bin" -q >/dev/null ||
            { echo "htm-sim lib suite run $i failed or hung" >&2; exit 1; }
    done
fi

echo "== tier1: clippy -D warnings (workspace) =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== tier1: cargo doc -D warnings (workspace) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "== tier1: doc-check (docs/ reachability + reference resolution) =="
./scripts/doc-check.sh

echo "== tier1: schedx --bounded (deterministic schedule exploration) =="
# Bounded-depth exploration of the CI scenarios under the virtual clock, with
# explicit resource limits: 120 s wall time and a 4 GiB address-space cap (the
# run needs a few seconds and well under 1 GiB; the limits are a backstop
# against an exploration-loop regression, not a tuning knob). On a violation
# the binary writes a replay artifact to target/schedx/ and prints the
# `--replay` command line; see docs/virtual-time.md. (`cargo build --release`
# above builds only the root package, so the bin is built here.)
cargo build -q --release -p tm-harness --bin schedx
( ulimit -v 4194304; timeout 120 ./target/release/schedx --bounded )

case "${1:-}" in
--smoke)
    echo "== tier1: microbench --smoke (timeout 30) =="
    cargo build -q --release -p tm-bench
    timeout 30 ./target/release/microbench --smoke --out target/microbench-smoke.json
    echo "== tier1: schedx --seeds soak (seeded schedule sampling) =="
    # Complements the bounded-exhaustive gate above: 32 seeded schedules per
    # CI scenario reach interleavings past the exhaustive depth horizon.
    for s in counter2 planner ring-epoch power-split server-batch server-transfer gate-drain lock-sig-convoy; do
        ( ulimit -v 4194304; timeout 120 ./target/release/schedx \
            --scenario "$s" --seeds 32 )
    done
    echo "== tier1: profile.sh nrmw_capacity 1 (the per-function sampler) =="
    # The sampler must still build, load and attribute worker-thread samples
    # to the simulator's functions.
    if command -v cc >/dev/null; then
        timeout 300 ./scripts/profile.sh nrmw_capacity 1 >target/profile-smoke.txt
        head -n 5 target/profile-smoke.txt
        grep -q ' htm_sim::' target/profile-smoke.txt ||
            { echo "profile.sh attributed no sample to htm_sim::" >&2; exit 1; }
    else
        echo "cc not found: skipping the profile.sh smoke run"
    fi
    ;;
--bench)
    echo "== tier1: microbench (full, timeout 180; drift gate vs BENCH.json) =="
    cargo build -q --release -p tm-bench
    timeout 180 ./target/release/microbench --out target/microbench.json
    bash benchmark/run.sh check BENCH.json target/microbench.json
    ;;
esac

echo "== tier1: OK =="
