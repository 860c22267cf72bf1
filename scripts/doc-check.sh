#!/usr/bin/env bash
# Documentation hygiene gate (wired into scripts/tier1.sh):
#
#   1. Every file in docs/ is reachable from docs/INDEX.md (linked directly).
#   2. Every intra-repo markdown link in docs/*.md, README.md, DESIGN.md and
#      EXPERIMENTS.md resolves ([text](relative/path) — http(s) and #anchors
#      are skipped).
#   3. Every backticked code reference to a repo file in those documents
#      resolves: `path/file.rs`, optionally with a `:line` suffix (the line must
#      exist) or a `::item` suffix (`item` must occur in the file). Paths
#      resolve repo-root-relative, doc-relative, or with the `crates/` prefix
#      docs conventionally omit.
#   4. Every backticked `TmConfig::x` / `HtmConfig::x` / `TmStats::x` in those
#      documents names a live field (or associated function) of the struct.
#   5. Every backticked microbench row reference `group/metric` in those
#      documents names a row of the committed BENCH.json (read through
#      scripts/bench-rows.sh; a group is any `workload` the file holds).
#   6. No tracked file names a retired bench binary or a BENCH_<n> baseline,
#      except CHANGES.md, ISSUE.md, the frozen benchmark/ paths and the history
#      block of EXPERIMENTS.md (between the `bench-history:` markers); nor,
#      with the same exceptions, one of the six retired Criterion `ablation_*`
#      groups that microbench's `ablation/*` rows replaced; nor, with the same
#      exceptions plus ROADMAP.md (which records the deletion), an identifier
#      of the deleted Stretch-HTM executor or the POWER suspend/rollback-only
#      surface only it used; nor, with the first exceptions, an identifier of
#      the ring summary's deleted grouped multi-shard probe or adaptive density
#      controller, of the deleted single-ring summary API, of the deleted
#      transactional `HeapSig` accessors, or of a deleted duplicate or unset
#      knob: NOrecRH's copied read context, HTM-GL's copy of the raw hardware
#      context, the optional L2 read model, tm-server's stats-dump options and
#      the write-only STM abort counter; nor, with the first exceptions, an
#      identifier of the summary's deleted epoch-pin registry, its deferred
#      reset and stall counter, or the line table's stale-writer cleanup.
#
# Stale references were how the docs drifted before this gate existed (the
# pre-split `AbortCode::Other` taxonomy survived two PRs in DESIGN.md).
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
err() {
  echo "doc-check: $1" >&2
  fail=1
}

# --- 1. INDEX.md reachability -------------------------------------------------
for doc in docs/*.md; do
  base="$(basename "$doc")"
  [ "$base" = "INDEX.md" ] && continue
  if ! grep -qE "\(${base}\)" docs/INDEX.md; then
    err "docs/INDEX.md does not link $doc"
  fi
done

# --- 2 + 3. per-file link and code-reference checks ---------------------------
# Resolve a doc-referenced path to a real file: as written (repo-root or
# doc-relative), with the crates/ prefix docs omit for crate-local paths, or
# — for shorthand like `sig.rs` / `htm-sim/registry.rs` — any tracked file
# whose path contains the reference's components in order and ends with its
# basename.
all_files="$(git ls-files)"
resolve() {
  local ref="$1" dir="$2"
  for cand in "$ref" "$dir/$ref" "crates/$ref"; do
    if [ -f "$cand" ]; then
      printf '%s' "$cand"
      return 0
    fi
  done
  local pattern="*${ref//\//*}"
  local f
  while IFS= read -r f; do
    # shellcheck disable=SC2254
    case "$f" in
    $pattern)
      if [ "$(basename "$f")" = "$(basename "$ref")" ]; then
        printf '%s' "$f"
        return 0
      fi
      ;;
    esac
  done <<<"$all_files"
  return 1
}

# The file defining a config or statistics struct, for check 4.
config_file() {
  case "$1" in
  TmConfig) echo crates/core/src/runtime.rs ;;
  HtmConfig) echo crates/htm-sim/src/config.rs ;;
  TmStats) echo crates/core/src/stats.rs ;;
  esac
}

# The committed microbench rows and their groups, for check 5.
bench_rows="$(./scripts/bench-rows.sh BENCH.json | cut -d' ' -f1)"
bench_groups="$(cut -d/ -f1 <<<"$bench_rows" | sort -u | paste -sd'|')"
[ -n "$bench_groups" ] || err "BENCH.json holds no rows"

for doc in docs/*.md README.md DESIGN.md EXPERIMENTS.md; do
  dir="$(dirname "$doc")"

  # Markdown links: [text](target). Skip URLs and pure anchors.
  while IFS= read -r target; do
    case "$target" in
    http://* | https://* | '#'*) continue ;;
    esac
    target="${target%%#*}" # intra-file anchors on a real path
    if ! resolve "$target" "$dir" >/dev/null; then
      err "$doc: broken markdown link ($target)"
    fi
  done < <(grep -oE '\[[^][]+\]\([^()]+\)' "$doc" | sed -E 's/^\[[^][]+\]\(([^()]+)\)$/\1/')

  # Backticked code references: `path/file.ext`, `file.rs:123`, `file.rs::item`.
  while IFS= read -r ref; do
    line="" item=""
    case "$ref" in
    *::*)
      item="${ref##*::}"
      ref="${ref%%::*}"
      ;;
    *:*)
      line="${ref##*:}"
      ref="${ref%:*}"
      ;;
    esac
    if ! path="$(resolve "$ref" "$dir")"; then
      err "$doc: code reference to missing file ($ref)"
      continue
    fi
    if [ -n "$line" ] && [ "$line" -gt "$(wc -l <"$path")" ]; then
      err "$doc: $ref:$line past end of file ($(wc -l <"$path") lines)"
    fi
    if [ -n "$item" ] && ! grep -qw -- "$item" "$path"; then
      err "$doc: $ref::$item names nothing in $path"
    fi
  done < <(grep -oE '`[A-Za-z0-9_][A-Za-z0-9_./-]*\.(rs|sh|md|json|toml)(:[0-9]+|::[A-Za-z0-9_]+)?`' "$doc" | tr -d '`')

  # Config and statistics field references: `TmConfig::x` / `HtmConfig::x` /
  # `TmStats::x` (the reference may continue, e.g. `TmConfig::ring_shards: 1`).
  while IFS= read -r ref; do
    ty="${ref%%::*}"
    name="${ref##*::}"
    if ! grep -qE "^ *pub $name:|fn $name\b" "$(config_file "$ty")"; then
      err "$doc: $ty::$name is not a field of $ty"
    fi
  done < <(grep -oE '`(TmConfig|HtmConfig|TmStats)::[A-Za-z0-9_]+' "$doc" | tr -d '`' | sort -u)

  # Microbench row references: `group/metric`.
  while IFS= read -r ref; do
    if ! grep -qxF -- "$ref" <<<"$bench_rows"; then
      err "$doc: microbench row $ref is not in BENCH.json"
    fi
  done < <(grep -oE "\`(${bench_groups:-none})/[a-z0-9_]+\`" "$doc" | tr -d '`' | sort -u)
done

# --- 6. retired bench names ---------------------------------------------------
# (The patterns are spelled so that this script does not match itself.
# `split_` also catches a glob over the two split groups. Lines are matched
# whole and truncated only for the report.)
retired='\b((line|path|ring|mem|part|backend|server)bench|micro(prof))\b|BENCH_[0-9]'
retired+='|\bablation_(fast_path|inflight_validation|signature_bits|split_|sub_retries)'
stretch='\bStretch(Htm|Ctx|Stats)\b|\bread_stretche[d]\b|\bsuspended_(read|work)\b'
stretch+='|\bbegin_ro[t]\b|\bsupports_(suspend|rot)\b|\bPOWER_SUSPEND_COS[T]\b|\bpower-stretc[h]\b'
summary='\bGroupProb[e]\b|\bgroup_pas[s]|\bcontroller_ste[p]\b|\bCTR[L]_[A-Z]|\bdensity_threshol[d]\b'
summary+='|\bmaybe_reset_summar[y]\b|RingSummary::with_tunin[g]|RingSummary::try_fast_pas[s]\b'
summary+='|\bunion_from_t[x]\b|\bintersects_masked_t[x]\b|\bcontains_t[x]\b'
knobs='\bRhStmCt[x]\b|\bPureHtmCt[x]\b|\bl2_set[s]\b|\bl2_way[s]\b|\bforget_lin[e]\b'
knobs+='|\bstats_dum[p]\b|\bstats_ever[y]\b|\bstats_stdou[t]\b|\bstm_abort[s]\b'
pins='\bEpochRegistr[y]\b|\bMAX_EPOCH_THREAD[S]\b|\bpin_epoc[h]\b|\bpins_for_test[s]\b'
pins+='|\b(epoch_)?pinned_stall[s]\b|ResetAttempt::Deferre[d]\b|\bclear_stale_write[r]\b'
# One scan of every non-exempt line as `file:line: text`; ROADMAP.md is exempt
# from the stretch/suspend identifiers only.
while IFS= read -r hit; do
  if grep -qE "$retired" <<<"$hit"; then
    err "retired bench name: ${hit:0:160}"
  elif grep -qE "$summary" <<<"$hit"; then
    err "retired ring-summary identifier: ${hit:0:160}"
  elif grep -qE "$knobs" <<<"$hit"; then
    err "retired duplicate or unset knob: ${hit:0:160}"
  elif grep -qE "$pins" <<<"$hit"; then
    err "retired epoch-pin or stale-writer identifier: ${hit:0:160}"
  elif [[ $hit != ROADMAP.md:* ]]; then
    err "retired stretch/suspend identifier: ${hit:0:160}"
  fi
done < <(git ls-files -co --exclude-standard -- . ':!CHANGES.md' ':!ISSUE.md' ':!benchmark' |
  xargs awk '
    /bench-history:begin/ { skip = 1 }
    /bench-history:end/ { skip = 0 }
    !skip { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
  ' | grep -E "$retired|$stretch|$summary|$knobs|$pins" || true)

if [ "$fail" -ne 0 ]; then
  echo "doc-check: FAILED" >&2
  exit 1
fi
echo "doc-check: OK"
