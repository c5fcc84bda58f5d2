#!/usr/bin/env bash
# Full verification: build + tests, then the same suite under ASan and
# UBSan. This is the bar for merging changes to the wire/framebuf layer
# (refcounts, copy-on-write, in-place patching) and the zero-copy host
# data path (PayloadRef views pinning rx frames through the server
# queue, scatter-gather responses) — a leak or UB there is invisible to
# the functional tests. The sanitizer builds also compile
# the per-pass pipeline legality checks in (NETCLONE_PIPELINE_CHECKS
# AUTO), so the full run covers both check modes. The slow-labelled
# 100-combo chaos sweep (fault injection + invariant auditor +
# determinism digests) rides in every full suite, so it runs under both
# sanitizers before a merge.
#
# Every configure/build/test step reports which step failed and stops
# there; nothing downstream runs on a broken build.
#
# Usage: scripts/check.sh [--fast] [--tsan] [--shards N]
#   --fast:     plain build + the tier-1 test suite, then the full chaos
#               sweep on the plain build (skips the sanitizer builds and
#               the other slow-labelled tests)
#   --tsan:     ThreadSanitizer lane only: build with
#               NETCLONE_SANITIZE=thread, run the tier-1 suite, then the
#               sharded-engine tests with 2 and 4 shards and enough
#               worker threads that races actually interleave. This is
#               the bar for merging changes to the sharded engine
#               (mailboxes, safe-clocks, the late-freeze protocol) and
#               to the parallel sweep driver, whose tier-1 tests run
#               concurrent experiments on real threads.
#   --shards N: run every ctest invocation with NETCLONE_SHARDS=N, i.e.
#               push the whole suite through the sharded engine.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc)
FAST=0
TSAN=0
SHARDS=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) FAST=1 ;;
    --tsan) TSAN=1 ;;
    --shards)
      SHARDS="${2:?--shards needs a value}"
      shift
      ;;
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

shard_env=()
[[ -n "${SHARDS}" ]] && shard_env+=("NETCLONE_SHARDS=${SHARDS}")

run_suite() {
  local name="$1" dir="$2" label="$3"
  shift 3
  step "${name}: configure" \
    cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  step "${name}: build" cmake --build "${dir}" -j "${JOBS}"
  local ctest_args=()
  [[ -n "${label}" ]] && ctest_args+=(-L "${label}")
  step "${name}: ctest${SHARDS:+ (NETCLONE_SHARDS=${SHARDS})}" \
    env ${shard_env[@]+"${shard_env[@]}"} \
    ctest --test-dir "${dir}" -j "${JOBS}" --output-on-failure \
    ${ctest_args[@]+"${ctest_args[@]}"}
}

if [[ "${TSAN}" == "1" ]]; then
  run_suite "tsan (tier1)" build-tsan tier1 -DNETCLONE_SANITIZE=thread
  # The determinism suite again, with worker threads forced on so the
  # cross-shard protocol actually runs concurrently even on small
  # machines (thread count alone must never change results).
  for n in 2 4; do
    step "tsan: sharded-engine tests (${n} shards)" \
      env NETCLONE_SHARDS="${n}" NETCLONE_SHARD_THREADS="${n}" \
      ctest --test-dir build-tsan -j "${JOBS}" --output-on-failure \
      -R ShardedEngine
  done
  echo "=== tsan checks passed ==="
  exit 0
fi

if [[ "${FAST}" == "1" ]]; then
  run_suite "plain (tier1)" build tier1
  step "plain: full chaos sweep" \
    env ${shard_env[@]+"${shard_env[@]}"} \
    ctest --test-dir build -j "${JOBS}" --output-on-failure -R ChaosSweepFull
  echo "=== fast checks passed (tier1 + chaos sweep; run without --fast before merging) ==="
  exit 0
fi

run_suite "plain" build ""
run_suite "asan" build-asan "" -DNETCLONE_SANITIZE=address
run_suite "ubsan" build-ubsan "" -DNETCLONE_SANITIZE=undefined

echo "=== all checks passed ==="
