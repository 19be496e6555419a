#!/bin/sh
# Runs a command and checks its exit status and output.
#
#   expect_exit.sh STATUS TEXT COMMAND [ARG...]
#
# Passes when COMMAND exits with STATUS and its combined stdout/stderr
# contains TEXT (a fixed string). Used by ctest for CLI usage-error paths.
want=$1
text=$2
shift 2
out=$("$@" 2>&1)
got=$?
printf '%s\n' "$out"
if [ "$got" -ne "$want" ]; then
  echo "expect_exit: exit status $got, want $want" >&2
  exit 1
fi
if ! printf '%s\n' "$out" | grep -qF -- "$text"; then
  echo "expect_exit: output lacks '$text'" >&2
  exit 1
fi
