#!/usr/bin/env python3
"""Benchmark regression gate.

Runs the repo's gated benchmarks (bench_packet_path, bench_fig16_failure,
bench_multirack), compares the results against the committed
BENCH_*.json baselines, and fails loudly on regression.

What is gated, and how:

  * Exact keys (EXACT_KEYS). The simulation is deterministic, so its
    results and the work it does must match the baseline bit for bit on
    any machine: completions, p99 and digests, and the work counts of the
    Fig. 7 point (bench_packet_path) and the pod point (bench_multirack)
    -- requests sent, executed events, frames on links, frame-pool
    acquires, pipeline passes, recirculations, clones and filtered
    responses. A change that adds work to every request moves a count. An
    exact key must be present in both the run and the baseline.
  * Every other numeric key (the wall-clock seconds of the Fig. 7 and
    pod points, the faulted Fig. 16 counters, the pod's fail-over
    recovery time) is an info row: it is reported, never gated. No gated
    bench times a micro loop outside a run.

A delta table goes to stdout and, when $GITHUB_STEP_SUMMARY is set, to
the job summary as markdown.

Usage:
  bench_gate.py [--build-dir build] [--baseline-dir .] [--update]

--update rewrites the committed baselines from the current run (use on
the machine that owns the baselines, then commit the diff).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCHES = ["packet_path", "fig16", "multirack"]

# Bench names whose binary is not simply bench_<name>.
BINARIES = {"fig16": "bench_fig16_failure"}

# Deterministic simulation results: must match the baseline exactly.
# The fig16 keys come from that bench's fault-free control run; its
# faulted-run counters (recovery time, lost/duplicated requests) are info
# rows.
EXACT_KEYS = {
    # bench_packet_path: the Figure-7 point and the work it does.
    "fig7_completed", "fig7_p99_ns",
    "fig7_requests_sent", "fig7_executed_events", "fig7_phys.frames",
    "fig7_wire.pool_acquires", "fig7_pisa.passes", "fig7_pisa.recirculated",
    "fig7_core.cloned", "fig7_core.filtered",
    # bench_fig16_failure: the fault-free control run.
    "fig16_nofault_completed", "fig16_nofault_digest",
    # bench_multirack: the pod point, the work it does, and the chain
    # fail-over run.
    "multirack_completed", "multirack_p99_ns", "multirack_digest",
    "multirack_requests_sent", "multirack_executed_events",
    "multirack_phys.frames", "multirack_wire.pool_acquires",
    "multirack_pisa.passes", "multirack_pisa.recirculated",
    "multirack_cloned_requests", "multirack_core.filtered",
    "multirack_failover_digest",
}

# Labels, not measurements.
SKIP_KEYS = {"bench", "unit"}


def find_binary(build_dir, name):
    for candidate in (
        os.path.join(build_dir, "bench", name),
        os.path.join(build_dir, name),
    ):
        if os.path.isfile(candidate) and os.access(candidate, os.X_OK):
            return candidate
    return None


def run_bench(binary, out_path):
    print(f"running {binary} ...", flush=True)
    subprocess.run([binary, out_path], check=True, stdout=subprocess.DEVNULL)
    with open(out_path, encoding="utf-8") as f:
        return json.load(f)


def compare(name, baseline, current):
    """Returns (rows, failures) for one bench's delta table."""
    rows = []
    failures = []
    for key in sorted((baseline.keys() | current.keys()) - SKIP_KEYS):
        base_value = baseline.get(key)
        cur_value = current.get(key)
        if key in EXACT_KEYS:
            if base_value is None:
                failures.append(f"{name}: exact key {key} has no baseline "
                                f"value (record it with --update)")
                ok = False
            elif cur_value is None:
                failures.append(f"{name}: exact key {key} missing from run")
                ok = False
            else:
                ok = cur_value == base_value
                if not ok:
                    failures.append(
                        f"{name}: {key} = {cur_value!r}, baseline "
                        f"{base_value!r} (must match exactly)"
                    )
            rows.append((name, key, str(base_value), str(cur_value),
                         "exact", "OK" if ok else "FAIL"))
        elif (isinstance(base_value, (int, float))
              and isinstance(cur_value, (int, float))):
            base_value = float(base_value)
            cur_value = float(cur_value)
            delta = (
                (cur_value - base_value) / base_value if base_value else 0.0
            )
            rows.append(
                (name, key, f"{base_value:g}", f"{cur_value:g}",
                 f"{delta:+.1%}", "info")
            )
    return rows, failures


def format_table(rows):
    header = ("bench", "metric", "baseline", "current", "delta", "status")
    widths = [
        max(len(str(row[i])) for row in rows + [header])
        for i in range(len(header))
    ]
    lines = []
    for row in [header] + rows:
        lines.append(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)


def format_markdown(rows):
    lines = [
        "| bench | metric | baseline | current | delta | status |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for row in rows:
        status = row[5]
        badge = {"OK": "✅ OK", "FAIL": "❌ FAIL"}.get(status, status)
        lines.append("| " + " | ".join(list(row[:5]) + [badge]) + " |")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--baseline-dir", default=".")
    parser.add_argument("--update", action="store_true",
                        help="rewrite baselines from this run")
    args = parser.parse_args()

    out_dir = os.path.join(args.build_dir, "bench_gate")
    os.makedirs(out_dir, exist_ok=True)

    all_rows = []
    failures = []
    for bench in BENCHES:
        binary_name = BINARIES.get(bench, f"bench_{bench}")
        binary = find_binary(args.build_dir, binary_name)
        if binary is None:
            failures.append(f"{binary_name}: binary not found under "
                            f"{args.build_dir}")
            continue
        out_path = os.path.join(out_dir, f"BENCH_{bench}.json")
        current = run_bench(binary, out_path)
        baseline_path = os.path.join(
            args.baseline_dir, f"BENCH_{bench}.json"
        )
        if args.update:
            shutil.copyfile(out_path, baseline_path)
            print(f"updated {baseline_path}")
            continue
        if not os.path.isfile(baseline_path):
            failures.append(f"bench_{bench}: no baseline {baseline_path}")
            continue
        with open(baseline_path, encoding="utf-8") as f:
            baseline = json.load(f)
        rows, errs = compare(bench, baseline, current)
        all_rows.extend(rows)
        failures.extend(errs)

    if args.update and not failures:
        return 0

    if all_rows:
        print()
        print(format_table(all_rows))
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path and all_rows:
        with open(summary_path, "a", encoding="utf-8") as f:
            f.write("## Benchmark gate\n\n")
            f.write(format_markdown(all_rows))
            f.write("\n")
            if failures:
                f.write("\n**Failures:**\n")
                for failure in failures:
                    f.write(f"- {failure}\n")

    if failures:
        print("\nBENCH GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
