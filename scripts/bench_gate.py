#!/usr/bin/env python3
"""Benchmark regression gate.

Runs the repo's microbenchmarks (bench_sim_engine, bench_packet_path,
bench_pisa_pipeline, bench_fig16_failure, bench_multirack), compares
the results against the committed BENCH_*.json baselines, and fails
loudly on regression.

What is gated, and how:

  * Speedup ratios. Each bench records a fast/legacy pair measured in the
    same process on the same machine (e.g. request_pass_fast vs
    request_pass_legacy); the ratio between them is machine-independent,
    so it transfers from the machine that recorded the baseline to
    whichever runner executes the gate. A ratio may degrade by at most
    --tolerance (default 15%) relative to the baseline ratio.
  * Exact digests. The simulation is deterministic, so digest keys
    (fig7_completed, fig7_p99_ns, fig7_executed_events, pipeline_checks,
    ...) must match the baseline bit for bit on any machine.
  * Absolute rates and wall-clock seconds are reported for information
    only — they do not transfer across machines.

A delta table goes to stdout and, when $GITHUB_STEP_SUMMARY is set, to
the job summary as markdown.

Usage:
  bench_gate.py [--build-dir build] [--baseline-dir .]
                [--tolerance 0.15] [--update]

--update rewrites the committed baselines from the current run (use on
the machine that owns the baselines, then commit the diff).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCHES = ["sim_engine", "packet_path", "pisa_pipeline", "fig16",
           "multirack"]

# Bench names whose binary is not simply bench_<name>.
BINARIES = {"fig16": "bench_fig16_failure"}

# Deterministic simulation digests: must match the baseline exactly.
# The fig7 keys come from bench_packet_path's Figure-7 point. The fig16
# keys come from that bench's fault-free control run, so they are
# bit-exact on any machine; its faulted-run counters (recovery time,
# lost/duplicated requests) are reported as info rows. The multirack
# keys are bench_multirack's pod point and its chain fail-over run.
EXACT_KEYS = {"fig7_completed", "fig7_p99_ns", "fig7_executed_events",
              "pipeline_checks",
              "fig16_nofault_completed", "fig16_nofault_digest",
              "multirack_completed", "multirack_p99_ns",
              "multirack_executed_events", "multirack_digest",
              "multirack_cloned_requests", "multirack_failover_digest"}

# Informational keys that are neither ratios nor digests.
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


def ratio_pairs(data):
    """Yields (label, fast_key, legacy_key, lower_is_better)."""
    for key in sorted(data):
        if not key.endswith("_legacy"):
            continue
        base = key[: -len("_legacy")]
        fast_key = None
        if base in data:
            fast_key = base
        elif base + "_fast" in data:
            fast_key = base + "_fast"
        elif base.endswith("_fast") and base in data:
            fast_key = base
        if fast_key is None:
            continue
        lower_is_better = "seconds" in base or "wall" in base
        yield base.removesuffix("_fast"), fast_key, key, lower_is_better


def speedup(data, fast_key, legacy_key, lower_is_better):
    fast = float(data[fast_key])
    legacy = float(data[legacy_key])
    if lower_is_better:
        return legacy / fast if fast > 0 else 0.0
    return fast / legacy if legacy > 0 else 0.0


def compare(name, baseline, current, tolerance):
    """Returns (rows, failures) for one bench's delta table."""
    rows = []
    failures = []
    paired = set()
    for label, fast_key, legacy_key, lower in ratio_pairs(baseline):
        paired.update((fast_key, legacy_key))
        if fast_key not in current or legacy_key not in current:
            failures.append(f"{name}: key pair {label} missing from run")
            continue
        base_ratio = speedup(baseline, fast_key, legacy_key, lower)
        cur_ratio = speedup(current, fast_key, legacy_key, lower)
        delta = (cur_ratio - base_ratio) / base_ratio if base_ratio else 0.0
        # Wall-clock ratios are too noisy to gate on shared runners; rate
        # ratios are stable and enforced.
        gated = not lower
        ok = (not gated) or cur_ratio >= base_ratio * (1.0 - tolerance)
        status = "info" if not gated else ("OK" if ok else "FAIL")
        if gated and not ok:
            failures.append(
                f"{name}: {label} speedup {cur_ratio:.2f}x fell below "
                f"baseline {base_ratio:.2f}x minus {tolerance:.0%} tolerance"
            )
        rows.append(
            (
                name,
                f"{label} speedup",
                f"{base_ratio:.2f}x",
                f"{cur_ratio:.2f}x",
                f"{delta:+.1%}",
                status,
            )
        )
    for key in sorted(baseline):
        if key in SKIP_KEYS or key in paired:
            continue
        if key in EXACT_KEYS:
            base_value = baseline[key]
            cur_value = current.get(key)
            ok = cur_value == base_value
            if not ok:
                failures.append(
                    f"{name}: digest {key} = {cur_value!r}, "
                    f"baseline {base_value!r} (must match exactly)"
                )
            rows.append(
                (
                    name,
                    key,
                    str(base_value),
                    str(cur_value),
                    "exact",
                    "OK" if ok else "FAIL",
                )
            )
        elif isinstance(baseline[key], (int, float)) and key in current:
            base_value = float(baseline[key])
            cur_value = float(current[key])
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
    parser.add_argument("--tolerance", type=float, default=0.15)
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
        rows, errs = compare(bench, baseline, current, args.tolerance)
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
    print(f"\nbench gate passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
