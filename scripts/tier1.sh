#!/usr/bin/env bash
# Tier-1 gate: release build; workspace tests under a timeout (plus, on a
# multi-CPU host, a x10 repeat of the concurrent suites); clippy and rustdoc
# with warnings denied; scripts/doc-check.sh; schedx --bounded.
#
#   --smoke  also run every bench bin at reduced iterations and a seeded
#            schedx soak over the CI scenarios
#   --bench  full bench run: fresh numbers to target/BENCH_{2,4,5,6,7,8}.json,
#            each gated against the committed ./BENCH_N.json by its own bin
#            (the gate conditions are in each bin's --baseline help and in
#            EXPERIMENTS.md); linebench runs ungated
#
# Fully offline: all dependencies are workspace-local (see docs/offline.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release =="
cargo build --release

echo "== tier1: cargo test -q (workspace, timeout 900) =="
# A wedged test must fail the gate, not hang it (the whole debug suite needs
# well under a minute once built).
timeout 900 cargo test -q --workspace

if [ "$(nproc)" -ge 2 ]; then
    echo "== tier1: root proptests + htm-sim lib suite x10 (timeout 60 each) =="
    # Progress and atomicity bugs in the multi-threaded paths only show under
    # real parallelism and only in some runs (a 2-CPU hang one run in four; a
    # line-table doom lost one run in ~290): repeat the concurrent
    # random-program suite (~0.4 s per run) and htm-sim's lib suite, which
    # holds the line table's stress tests (~0.1 s per run).
    test_bin() {
        cargo test -q "$@" --no-run --message-format=json |
            sed -n 's/.*"executable":"\([^"]*\)".*/\1/p' | tail -n 1
    }
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
    echo "== tier1: linebench --smoke =="
    cargo run -q --release -p tm-bench --bin linebench -- --smoke
    echo "== tier1: pathbench --smoke =="
    cargo run -q --release -p tm-bench --bin pathbench -- --smoke
    echo "== tier1: ringbench --smoke =="
    cargo run -q --release -p tm-bench --bin ringbench -- --smoke
    echo "== tier1: membench --smoke =="
    cargo run -q --release -p tm-bench --bin membench -- --smoke
    echo "== tier1: partbench --smoke =="
    cargo run -q --release -p tm-bench --bin partbench -- --smoke
    echo "== tier1: backendbench --smoke =="
    cargo run -q --release -p tm-bench --bin backendbench -- --smoke
    echo "== tier1: serverbench --smoke =="
    cargo run -q --release -p tm-bench --bin serverbench -- --smoke
    echo "== tier1: schedx --seeds soak (seeded schedule sampling) =="
    # Complements the bounded-exhaustive gate above: 32 seeded schedules per
    # CI scenario reach interleavings past the exhaustive depth horizon.
    for s in counter2 planner ring-epoch power-stretch server-batch lock-sig-convoy; do
        ( ulimit -v 4194304; timeout 120 ./target/release/schedx \
            --scenario "$s" --seeds 32 )
    done
    ;;
--bench)
    echo "== tier1: linebench (full) =="
    cargo run -q --release -p tm-bench --bin linebench
    echo "== tier1: pathbench (full, regression gate vs BENCH_2.json) =="
    # --shards 1 matches the committed baseline's convention (see
    # EXPERIMENTS.md): the gate tracks the single-ring partitioned path, not
    # the sharding delta, which flips sign with the host's core count.
    cargo run -q --release -p tm-bench --bin pathbench -- --shards 1 \
        --json target/BENCH_2.json --baseline BENCH_2.json
    echo "== tier1: ringbench (full, regression gate vs BENCH_4.json) =="
    cargo run -q --release -p tm-bench --bin ringbench -- \
        --json target/BENCH_4.json --baseline BENCH_4.json
    echo "== tier1: membench (full, regression gate vs BENCH_5.json) =="
    cargo run -q --release -p tm-bench --bin membench -- \
        --json target/BENCH_5.json --baseline BENCH_5.json
    echo "== tier1: partbench (full, regression gate vs BENCH_6.json) =="
    cargo run -q --release -p tm-bench --bin partbench -- \
        --json target/BENCH_6.json --baseline BENCH_6.json
    echo "== tier1: backendbench (full, regression gate vs BENCH_7.json) =="
    cargo run -q --release -p tm-bench --bin backendbench -- \
        --json target/BENCH_7.json --baseline BENCH_7.json
    echo "== tier1: serverbench (full, regression gate vs BENCH_8.json) =="
    cargo run -q --release -p tm-bench --bin serverbench -- \
        --json target/BENCH_8.json --baseline BENCH_8.json
    echo "   fresh numbers in target/BENCH_{2,4,5,6,7,8}.json; copy over the" \
         "matching ./BENCH_N.json to rebaseline"
    ;;
esac

echo "== tier1: OK =="
