#!/usr/bin/env bash
# Sanitizer gate: builds and runs the tier-1 + stress + crash-matrix test
# suite (test binaries are auto-discovered via `ctest -N`, so new *_test.cc
# files — e.g. crash_matrix_test, `ctest -L crash` — gate here too) under
#   1) DEEPLAKE_SANITIZE=thread             (data races)
#   2) DEEPLAKE_SANITIZE=address,undefined  (heap/lifetime + UB)
#
# Usage: run_sanitizers.sh [thread|address,undefined|all] [ctest-args...]
#   default mode: all. Extra args go to ctest (e.g. -R stress_test).
#
# Build trees live in build-tsan/ and build-asan-ubsan/ next to build/, so
# repeated runs are incremental and the normal build is never perturbed.
# Benches and examples are skipped — only test binaries are compiled.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
mode="${1:-all}"
shift 2>/dev/null || true

run_mode() {
  local sanitize="$1" dir="$2"
  shift 2
  echo "=== [$sanitize] configuring $dir ==="
  cmake -B "$repo_root/$dir" -S "$repo_root" \
        -DDEEPLAKE_SANITIZE="$sanitize" >/dev/null
  echo "=== [$sanitize] building tests ==="
  # Build only the registered test binaries; benches/examples don't gate.
  local targets
  targets=$(cd "$repo_root/$dir" && ctest -N 2>/dev/null |
            sed -n 's/^ *Test *#[0-9]*: //p' |
            while read -r t; do
              if [ -f "$repo_root/tests/$t.cc" ]; then echo "$t"; fi
            done)
  if [ -z "$targets" ]; then
    echo "run_sanitizers: no test targets found in $dir" >&2
    exit 1
  fi
  # shellcheck disable=SC2086
  cmake --build "$repo_root/$dir" -j --target $targets dllint >/dev/null
  echo "=== [$sanitize] running tier-1 + stress suite ==="
  # halt_on_error: the run fails loudly at the first report. check_* script
  # tests (bench smoke checks, lint scripts) are excluded — they
  # need bench binaries and gate the plain build, not the sanitized one.
  # check_dllint is the exception: the analyzer itself runs sanitized, so
  # lexer/index bugs surface here too.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=0" \
  UBSAN_OPTIONS="print_stacktrace=1" \
    ctest --test-dir "$repo_root/$dir" --output-on-failure \
          -E '^check_(clang_tidy|flamegraph|bench_json|prom_text|baseline_shrink)' \
          "$@"
  echo "=== [$sanitize] PASS ==="
}

case "$mode" in
  thread)
    run_mode thread build-tsan "$@"
    ;;
  address,undefined)
    run_mode address,undefined build-asan-ubsan "$@"
    ;;
  all)
    run_mode thread build-tsan "$@"
    run_mode address,undefined build-asan-ubsan "$@"
    ;;
  *)
    echo "usage: $0 [thread|address,undefined|all] [ctest-args...]" >&2
    exit 2
    ;;
esac
