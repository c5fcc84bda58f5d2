#!/usr/bin/env bash
# Full verification: build + tests, then the same suite under ASan and
# UBSan. This is the bar for merging changes to the wire/framebuf layer
# (refcounts, whole-frame copy-on-write, in-place patching) and the host
# data path (the server queue holding each request's own frame and
# answering in it, frames written in place into pooled buffers) — a leak
# or UB there is invisible to the functional tests. Every build compiles the per-pass
# pipeline legality checks in, so each lane runs under them. The
# slow-labelled 100-combo chaos sweep (fault injection + invariant
# auditor + determinism digests) rides in every full suite, so it runs
# under both sanitizers before a merge.
#
# Every configure/build/test step reports which step failed and stops
# there; nothing downstream runs on a broken build.
#
# Usage: scripts/check.sh [--fast] [--tsan]
#   --fast: plain build + the tier-1 test suite, then the full chaos
#           sweep on the plain build (skips the sanitizer builds and the
#           other slow-labelled tests)
#   --tsan: ThreadSanitizer lane only: build with NETCLONE_SANITIZE=thread
#           and run the tier-1 suite. This is the bar for merging changes
#           to parallel_for (common/parallel.hpp) and what runs on it:
#           harness::run_sweep's concurrent experiments and kv::populate's
#           parallel record fill, and to the frame pools each experiment
#           hands its nodes. Their tier-1 tests (test_parallel, test_store,
#           and test_sweep, whose ExperimentPools tests run a rack and a
#           pod at once on two threads) run them on real threads.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc)
FAST=0
TSAN=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) FAST=1 ;;
    --tsan) TSAN=1 ;;
    *)
      echo "check.sh: unknown option: $1" >&2
      exit 2
      ;;
  esac
  shift
done

fail() {
  echo "=== CHECK FAILED: $* ===" >&2
  exit 1
}

# step <description> <command...>: runs the command, failing loudly with
# the step's name so a broken configure is never mistaken for a passing
# build (or silently shadowed by a later step).
step() {
  local what="$1"
  shift
  echo "=== ${what} ==="
  "$@" || fail "${what}"
}

run_suite() {
  local name="$1" dir="$2" label="$3"
  shift 3
  step "${name}: configure" \
    cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  step "${name}: build" cmake --build "${dir}" -j "${JOBS}"
  local ctest_args=()
  [[ -n "${label}" ]] && ctest_args+=(-L "${label}")
  step "${name}: ctest" \
    ctest --test-dir "${dir}" -j "${JOBS}" --output-on-failure \
    ${ctest_args[@]+"${ctest_args[@]}"}
}

if [[ "${TSAN}" == "1" ]]; then
  run_suite "tsan (tier1)" build-tsan tier1 -DNETCLONE_SANITIZE=thread
  echo "=== tsan checks passed ==="
  exit 0
fi

if [[ "${FAST}" == "1" ]]; then
  run_suite "plain (tier1)" build tier1
  step "plain: full chaos sweep" \
    ctest --test-dir build -j "${JOBS}" --output-on-failure -R ChaosSweepFull
  echo "=== fast checks passed (tier1 + chaos sweep; run without --fast before merging) ==="
  exit 0
fi

run_suite "plain" build ""
run_suite "asan" build-asan "" -DNETCLONE_SANITIZE=address
run_suite "ubsan" build-ubsan "" -DNETCLONE_SANITIZE=undefined

echo "=== all checks passed ==="
