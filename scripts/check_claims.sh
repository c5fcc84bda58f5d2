#!/usr/bin/env bash
# The paper's claims as a gate: builds the 18 figure/table benches that
# print a SHAPE-CHECK block (Table 1, the §4.1 resource audit, Figs. 7–16,
# four ablations, bursty arrivals, server failure), runs each at the
# default scale, and fails when any bench exits non-zero — a bench does
# that on any MISS. About a minute of wall time on 4 cores after the
# build.
#
# Usage: scripts/check_claims.sh [build-dir]   (default: build)
#   The build directory is configured if it does not exist yet.
#   NETCLONE_BENCH_SCALE is cleared: the claims are judged at scale 1.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BENCHES=(
  bench_table1 bench_resources
  bench_fig07_synthetic bench_fig08_scalability bench_fig09_servers
  bench_fig10_racksched bench_fig11_redis bench_fig12_memcached
  bench_fig13_statesignal bench_fig14_lowvar bench_fig15_filtering
  bench_fig16_failure
  bench_ablation_admission bench_ablation_cancel bench_ablation_multipacket
  bench_ablation_filtertables bench_robustness_bursty bench_server_failure
)

if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "${BENCHES[@]}"
BIN_DIR="$(cd "${BUILD_DIR}/bench" && pwd)"

# Benches write their side outputs (bench_fig16_failure's JSON) into the
# working directory: run them in a scratch one.
WORK_DIR="$(mktemp -d)"
trap 'rm -rf "${WORK_DIR}"' EXIT

failed=()
for bench in "${BENCHES[@]}"; do
  log="${WORK_DIR}/${bench}.log"
  start=${SECONDS}
  if (cd "${WORK_DIR}" && env -u NETCLONE_BENCH_SCALE \
        "${BIN_DIR}/${bench}" > "${log}" 2>&1); then
    echo "PASS ${bench} ($((SECONDS - start)) s)"
  else
    echo "FAIL ${bench} ($((SECONDS - start)) s)"
    grep -F "[MISS]" "${log}" || tail -n 20 "${log}"
    failed+=("${bench}")
  fi
done

if [[ ${#failed[@]} -ne 0 ]]; then
  echo "=== claims failed: ${failed[*]} ===" >&2
  exit 1
fi
echo "=== all ${#BENCHES[@]} claim benches passed ==="
