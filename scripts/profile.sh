#!/usr/bin/env bash
# Per-function host profile of one perfbench wall cell: where a workload's
# host time goes, worker threads included.
#
#   scripts/profile.sh W SECONDS     e.g. scripts/profile.sh nrmw_capacity 4
#
# Builds scripts/sampler.c with `cc` into an LD_PRELOAD SIGPROF sampler (a
# 1 ms process CPU timer, rounded up to the kernel's tick), runs `perfbench
# cell --kind wall --workload W --seconds SECONDS` under it, symbolises the
# samples with `nm -C` and prints one row per function, largest first:
#
#   share%  samples  function
#
# Inlined code counts toward the function it was inlined into. Samples in
# shared libraries are grouped per library. Needs only cc and binutils' nm.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 2 ]; then
    echo "usage: scripts/profile.sh WORKLOAD SECONDS" >&2
    exit 2
fi
workload="$1"
seconds="$2"
for tool in cc nm; do
    command -v "$tool" >/dev/null || { echo "profile.sh: $tool not found" >&2; exit 3; }
done

out=target/profile
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$out/sampler.so" scripts/sampler.c -ldl
CARGO_TARGET_DIR=benchmark/target cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml
bin="$(pwd)/benchmark/target/release/perfbench"

samples="$out/$workload.samples"
SAMPLER_OUT="$samples" LD_PRELOAD="$(pwd)/$out/sampler.so" \
    "$bin" cell --kind wall --workload "$workload" --seconds "$seconds" \
    --out-dir "$out" >/dev/null

# Symbols of the executable, ascending; the samples of other objects are
# grouped by object name.
nm -C -n --defined-only "$bin" | awk '$2 ~ /^[tTwW]$/' >"$out/perfbench.syms"
awk -v bin="$bin" -v syms="$out/perfbench.syms" '
function hex(s,    i, n) {
    n = 0
    s = tolower(s)
    for (i = 1; i <= length(s); i++)
        n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return n
}
BEGIN {
    while ((getline line < syms) > 0) {
        split(line, field, " ")
        addr[++ns] = hex(field[1])
        sub(/^[^ ]+ [^ ]+ /, "", line)
        sub(/::h[0-9a-f]+$/, "", line)
        name[ns] = line
    }
}
{
    total++
    if ($1 != bin) {
        n = split($1, p, "/")
        count["[" p[n] "]"]++
        next
    }
    pc = hex($2)
    lo = 1
    hi = ns
    if (ns == 0 || pc < addr[1]) { count["[unknown]"]++; next }
    while (lo < hi) {
        mid = int((lo + hi + 1) / 2)
        if (addr[mid] <= pc) lo = mid; else hi = mid - 1
    }
    count[name[lo]]++
}
END {
    for (f in count)
        printf "%6.2f%% %7d  %s\n", 100 * count[f] / total, count[f], f
}' "$samples" | sort -k2,2nr
