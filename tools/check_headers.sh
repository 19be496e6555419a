#!/usr/bin/env bash
# Header self-sufficiency check: every header under src/ must compile as the
# sole include of a translation unit (no hidden dependencies on include
# order). Run from the repository root:
#
#   tools/check_headers.sh [compiler]
#
# Exits nonzero listing every header that fails.
set -u

CXX="${1:-${CXX:-g++}}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
FAILED=0
# A private file per run, so concurrent runs never read each other's errors.
ERR="$(mktemp)"
trap 'rm -f "$ERR"' EXIT

for H in $(cd "$ROOT" && find src -name '*.h' | sort); do
  if ! "$CXX" -std=c++20 -fsyntax-only -I "$ROOT/src" \
      -include "$ROOT/$H" -x c++ /dev/null 2>"$ERR"; then
    echo "NOT SELF-SUFFICIENT: $H"
    sed 's/^/    /' "$ERR" | head -5
    FAILED=1
  fi
done

if [ "$FAILED" -eq 0 ]; then
  echo "All headers are self-sufficient."
fi
exit "$FAILED"
