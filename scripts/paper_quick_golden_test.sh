#!/usr/bin/env bash
# Paper-driver golden gate (registered with CTest as paper_quick_golden):
# reruns every paper driver with --quick and diffs its stdout against
# the committed tests/golden/quick/<driver>.txt. Any refactor that moves
# a paper number, a table layout or a row order fails here.
#
# A difference is a finding about the change under test, not a golden
# to regenerate: the files were recorded once and only a deliberate
# change to a paper protocol may rewrite them (and must say why).
#
# usage: paper_quick_golden_test.sh GOLDEN_DIR DRIVER...
set -u

GOLDEN_DIR=${1:?directory holding the <driver>.txt golden files}
shift
[ "$#" -gt 0 ] || { echo "paper_quick_golden: no drivers given" >&2; exit 1; }

failures=0
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

for driver in "$@"; do
  name=$(basename "$driver")
  golden="$GOLDEN_DIR/$name.txt"
  if [ ! -f "$golden" ]; then
    echo "FAIL: $name has no golden file $golden" >&2
    failures=$((failures + 1))
    continue
  fi
  "$driver" --quick > "$scratch/$name.txt"
  code=$?
  if [ "$code" -ne 0 ]; then
    echo "FAIL: $name --quick exited $code" >&2
    failures=$((failures + 1))
    continue
  fi
  if ! diff -u "$golden" "$scratch/$name.txt" >&2; then
    echo "FAIL: $name --quick stdout differs from $golden" >&2
    failures=$((failures + 1))
  fi
done

echo "paper_quick_golden: $(($# - failures))/$# drivers match their golden"
[ "$failures" -eq 0 ]
