#!/usr/bin/env bash
# Paper-driver flag audit (registered with CTest as bench_args): the
# shared BenchArgs parser must turn a bad --scale or an unknown flag
# into a usage error (exit 1, a diagnostic naming the flag, no abort
# trace), while a driver's own flags keep parsing. A driver's own flag
# is checked by placing it before an unknown one: the parser reads left
# to right, so the diagnostic must name the unknown flag, not the
# driver's. The bench tools with their own flag loops share
# bench::parse_number: a malformed, negative or partly numeric value is
# the same clean usage error. No driver runs an experiment here.
#
# usage: bench_args_test.sh FIG1 TABLE2 TABLE4 TABLE5 CORPUS_STREAM
set -u

FIG1=${1:?path to fig1_dataset_composition}
TABLE2=${2:?path to table2_end_results}
TABLE4=${3:?path to table4_compile_norm}
TABLE5=${4:?path to table5_ga}
CORPUS_STREAM=${5:?path to corpus_stream}

failures=0
checks=0

# usage_error <stderr_substring> -- <command...>
usage_error() {
  local want_msg=$1
  shift 2  # drop substring, "--"
  local out code
  out=$("$@" 2>&1 >/dev/null)
  code=$?
  checks=$((checks + 1))
  if [ "$code" -ne 1 ]; then
    echo "FAIL: [$*] exited $code, want 1" >&2
    failures=$((failures + 1))
  elif ! printf '%s' "$out" | grep -qF -- "$want_msg"; then
    echo "FAIL: [$*] stderr lacks '$want_msg'; got: $(printf '%s' "$out" | head -2)" >&2
    failures=$((failures + 1))
  elif printf '%s' "$out" | grep -qE 'terminate called|Assertion|core dumped'; then
    echo "FAIL: [$*] crashed instead of erroring cleanly" >&2
    failures=$((failures + 1))
  fi
}

usage_error "'abc'" -- "$FIG1" --scale=abc
usage_error "--scale" -- "$FIG1" --scale=abc
usage_error "'1.5x'" -- "$FIG1" --scale=1.5x
usage_error "'0'" -- "$FIG1" --scale=0
usage_error "'-1'" -- "$FIG1" --scale=-1
usage_error "'inf'" -- "$FIG1" --scale=inf
usage_error "'nan'" -- "$FIG1" --scale=nan
usage_error "'--quik'" -- "$FIG1" --quik
usage_error "'--gnn-ablate'" -- "$FIG1" --quick --gnn-ablate
usage_error "'--bogus'" -- "$TABLE2" --quick --gnn-ablate --bogus
usage_error "'--bogus'" -- "$TABLE4" --quick --encodings --bogus
usage_error "'--bogus'" -- "$TABLE5" --quick --seed-study --bogus
usage_error "--runs" -- "$CORPUS_STREAM" --runs=abc
usage_error "'-1'" -- "$CORPUS_STREAM" --window=-1
usage_error "--window" -- "$CORPUS_STREAM" --window=-1
usage_error "'1x'" -- "$CORPUS_STREAM" --shard-mb=1x
usage_error "--shard-mb" -- "$CORPUS_STREAM" --shard-mb=1x

if [ "$failures" -ne 0 ]; then
  echo "bench_args: $failures of $checks checks failed" >&2
  exit 1
fi
echo "bench_args: all $checks checks passed"
