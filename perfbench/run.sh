#!/usr/bin/env bash
# Builds the benchmark and dtr-serve from source in this checkout, then runs
# one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; stdout carries only the benchmark's JSON lines.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . ./perfbench/src/main.exe ./bin/dtr_serve.exe 1>&2
# The benchmark and the daemon it spawns share one CPU: a closed-loop
# client and server take turns anyway, and a handoff on one CPU is a
# context switch instead of a cross-CPU wakeup, whose cost varies run to run.
bench=./_build/default/perfbench/src/main.exe
cpu=$(taskset -pc $$ 2>/dev/null | sed 's/.*: //; s/[-,].*//') || cpu=
if [ -n "$cpu" ]; then
  exec taskset -c "$cpu" "$bench" "$@"
fi
exec "$bench" "$@"
