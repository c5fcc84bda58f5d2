#!/usr/bin/env python3
"""End-to-end benchmark of the NetClone simulator.

Run from the root of a checkout, in one of two ways:

  python3 benchmark/run.py [--seed N] [--reps 5] [--smoke] [--json OUT]
      Every workload: the reps are interleaved in rounds, each in a fresh
      process, then one traced rep per workload. Prints every metric with
      its unit, median, min, max and n, and each workload's layer table.
      Exits non-zero when a correctness check fails.

  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      One workload for about S seconds. Prints, as its last line, one JSON
      object with the end-to-end metrics (--trace 0: medians over the
      reps) or the per-layer metrics (--trace 1: one traced rep).

Both first build benchmark/ with CMake into $CARGO_TARGET_DIR (default
build-bench), and refuse to time a Debug or sanitizer build.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout clean when imported

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("rack_exp25", "kv_redis_rw", "pod_replicated", "sweep_bimodal")

# (name, unit) in BENCHMARK.json order; self_test.py checks they agree.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("sim_p999_us", "us"),
    ("sim_goodput_krps", "krps"),
    ("sim_slo_krps", "krps"),
    ("completed_frac", "ratio"),
)
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.events_per_request", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.est_s", "s"),
    ("phys.frames_per_request", "count"),
    ("phys.drops", "count"),
    ("phys.ns_per_frame", "ns"),
    ("phys.est_s", "s"),
    ("wire.pool_acquires_per_request", "count"),
    ("wire.ns_per_parse", "ns"),
    ("pisa.passes_per_request", "count"),
    ("pisa.recirc_frac", "ratio"),
    ("pisa.ns_per_pass", "ns"),
    ("pisa.est_s", "s"),
    ("core.clone_frac", "ratio"),
    ("core.filter_frac", "ratio"),
    ("core.write_frac", "ratio"),
    ("core.chain_forwards_per_response", "ratio"),
    ("host.make_ns", "ns"),
    ("host.exec_time_ns", "ns"),
    ("host.server_ns_per_request", "ns"),
    ("host.est_s", "s"),
    ("host.wasted_exec_frac", "ratio"),
    ("host.client_table_entries", "count"),
    ("kv.get_ns", "ns"),
    ("kv.scan_ns", "ns"),
    ("kv.set_ns", "ns"),
    ("kv.ops", "count"),
    ("kv.populate_s", "s"),
    ("harness.build_s", "s"),
    ("harness.run_s", "s"),
    ("harness.audit_s", "s"),
    ("harness.per_point_s", "s"),
    ("decorated_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_frac", "ratio"),
)
# The traced table: each layer estimate's share of harness.run_s.
ESTIMATES = ("sim.est_s", "phys.est_s", "pisa.est_s", "host.est_s",
             "decorated_s")

SLO_P99_US = 350.0  # sim_slo_krps counts points whose simulated p99 meets it
SMOKE_SCALE = 0.05  # --smoke runs 1/20 of every measurement window
MIN_REPS = 3
REP_TIMEOUT_S = 170
# Knobs that change what the simulator runs; a rep must measure defaults.
STRIPPED_ENV = ("NETCLONE_SHARDS", "NETCLONE_BURST", "NETCLONE_BENCH_SCALE")
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")


class BenchError(Exception):
    """A build, rep or environment failure: no result can be reported."""


# -- arithmetic ---------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid if mid else 0.0


def over_bound(values, bound):
    """True when the values spread wider than the metric's bound: then a
    worsening by the bound cannot be told from noise."""
    return spread(values) > bound


def slo_krps(points, limit_us=SLO_P99_US):
    """Highest goodput at which the simulated p99 meets the limit, taking
    p99 as linear in goodput between adjacent points (in load order); 0
    when no point meets it. Reading the crossing between points keeps the
    value from jumping a whole load step when one point's p99 lands on the
    other side of the limit."""
    best = 0.0
    for here, after in zip(points, points[1:] + [None]):
        if here["p99_us"] > limit_us:
            continue
        best = max(best, here["goodput_krps"])
        if after is not None and after["p99_us"] > limit_us:
            share = ((limit_us - here["p99_us"])
                     / (after["p99_us"] - here["p99_us"]))
            best = max(best, here["goodput_krps"] + share
                       * (after["goodput_krps"] - here["goodput_krps"]))
    return best


# -- building and running -----------------------------------------------------

def build_dir():
    out = Path(os.environ.get("CARGO_TARGET_DIR") or "build-bench")
    return out if out.is_absolute() else ROOT / out


def run_logged(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        raise BenchError(f"command failed ({proc.returncode}): "
                         f"{' '.join(map(str, cmd))}")


def build():
    """Builds netclone_bench; returns (binary path, build info)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no simulator sources "
                         "(CMakeLists.txt and src/ are missing)")
    out = build_dir()
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out)]
    if not (out / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    run_logged(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(out), "--target", "netclone_bench",
                "-j", jobs])
    binary = out / "netclone_bench"
    info = json.loads(subprocess.run([str(binary), "--info"], check=True,
                                     capture_output=True, text=True).stdout)
    if (info["build_type"] not in OPTIMIZED_BUILD_TYPES or info["sanitize"]
            or not info["ndebug"]):
        raise BenchError(f"refusing to time a {info['build_type'] or 'default'}"
                         f" build (sanitize='{info['sanitize']}', "
                         f"ndebug={info['ndebug']}): configure "
                         f"{out} as Release or RelWithDebInfo")
    return binary, info


def child_env():
    env = dict(os.environ)
    for name in STRIPPED_ENV:
        env.pop(name, None)
    return env


def run_rep(binary, workload, seed, scale=1.0, trace_dir=None):
    """One rep in a fresh process; returns its JSON result."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale)]
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_dir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(), timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} rep timed out after "
                         f"{REP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} rep exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traces_dir():
    return build_dir() / "traces"


# -- metrics and checks -------------------------------------------------------

def end_to_end(rep):
    sim = rep["sim"]
    return {
        "wall_s": rep["wall_s"],
        "setup_s": rep["setup_s"],
        "peak_rss_mib": rep["peak_rss_mib"],
        "sim_p50_us": sim["p50_us"],
        "sim_p99_us": sim["p99_us"],
        "sim_p999_us": sim["p999_us"],
        "sim_goodput_krps": sim["goodput_krps"],
        "sim_slo_krps": slo_krps(rep["points"]),
        "completed_frac": ((rep["issued"] - rep["incomplete"])
                           / max(rep["issued"], 1)),
    }


def per_layer(traced, untraced_wall_s):
    layers = dict(traced["layers"])
    layers["trace_overhead_frac"] = traced["wall_s"] / untraced_wall_s - 1.0
    return layers


def failed_checks(reps):
    """Names of the correctness checks a set of same-seed reps of one
    workload fails (empty when all hold)."""
    failures = []
    for rep in reps:
        tag = f"{rep['workload']} seed {rep['seed']}"
        failures += [f"audit_invariants ({tag}): {v}"
                     for v in rep["violations"]]
        if rep["audited_points"] < 1:
            failures.append(f"audit_invariants ({tag}): nothing audited")
        if rep["issued"] < 1 or rep["incomplete"]:
            failures.append(f"completion ({tag}): {rep['incomplete']} of "
                            f"{rep['issued']} requests incomplete")
        sim = rep["sim"]
        if not 0 < sim["p50_us"] <= sim["p99_us"] <= sim["p999_us"]:
            failures.append(f"latency order ({tag}): p50/p99/p999 = "
                            f"{sim['p50_us']}/{sim['p99_us']}/"
                            f"{sim['p999_us']}")
    digests = sorted({rep["digest"] for rep in reps})
    if len(digests) > 1:
        failures.append(f"result digest ({reps[0]['workload']}): reps of "
                        f"one seed disagree: {', '.join(digests)}")
    return failures


def contract_run(binary, workload, seed, seconds, trace):
    """One run as the benchmark contract defines it: (result, failures)."""
    if trace:
        untraced = run_rep(binary, workload, seed)
        traced = run_rep(binary, workload, seed, trace_dir=traces_dir())
        reps = [untraced, traced]
        values = per_layer(traced, untraced["wall_s"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        reps = []
        start = time.monotonic()
        while True:
            reps.append(run_rep(binary, workload, seed))
            elapsed = time.monotonic() - start
            if (len(reps) >= MIN_REPS
                    and elapsed * (len(reps) + 1) / len(reps) > seconds):
                break
        rows = [end_to_end(rep) for rep in reps]
        metrics = {name: {"value": statistics.median([r[name] for r in rows]),
                          "unit": unit}
                   for name, unit in END_TO_END}
    failures = failed_checks(reps)
    return {
        "correct": not failures,
        "attempted": sum(rep["issued"] for rep in reps),
        "failed": sum(rep["incomplete"] for rep in reps),
        "metrics": metrics,
    }, failures


# -- the full run -------------------------------------------------------------

def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def fmt(value):
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def print_workload(workload, rows, layers, bounds):
    print(f"\n== {workload} ==")
    print(f"  {'metric':<18} {'unit':<6} {'median':>12} {'min':>12} "
          f"{'max':>12} {'spread':>8} {'bound':>7} {'n':>3}")
    for name, unit in END_TO_END:
        values = [r[name] for r in rows]
        flag = " !" if over_bound(values, bounds[name]["bound"]) else ""
        print(f"  {name:<18} {unit:<6} {fmt(statistics.median(values)):>12} "
              f"{fmt(min(values)):>12} {fmt(max(values)):>12} "
              f"{spread(values):>7.1%} {bounds[name]['bound']:>6.0%} "
              f"{len(values):>3}{flag}")
    run_s = layers["harness.run_s"]
    print(f"  -- traced rep: where harness.run_s = {fmt(run_s)} s went --")
    for name in ESTIMATES + ("unattributed_s",):
        print(f"  {name:<32} {fmt(layers[name]):>12} s "
              f"{layers[name] / run_s:>7.1%}")
    print(f"  {'trace_overhead_frac':<32} "
          f"{fmt(layers['trace_overhead_frac']):>12}")
    print("  -- traced rep: counts and unit costs --")
    shown = set(ESTIMATES) | {"unattributed_s", "trace_overhead_frac"}
    for name, unit in PER_LAYER:
        if name not in shown:
            print(f"  {name:<32} {fmt(layers[name]):>12} {unit}")


def full_run(args):
    binary, info = build()
    scale = SMOKE_SCALE if args.smoke else 1.0
    reps = 1 if args.smoke else args.reps
    if args.smoke:
        import self_test  # pylint: disable=import-outside-toplevel
        if not self_test.run_all(binary):
            return 1
    bounds = load_bounds()
    rows = {w: [] for w in WORKLOADS}
    raw = {w: [] for w in WORKLOADS}
    for _ in range(reps):  # rounds: noisy periods hit every workload
        for workload in WORKLOADS:
            rep = run_rep(binary, workload, args.seed, scale)
            raw[workload].append(rep)
            rows[workload].append(end_to_end(rep))
    failures = []
    report = {
        "provenance": {
            "commit": git_commit(),
            "build_type": info["build_type"],
            "compiler": info["compiler"],
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "scale": scale,
            "reps": reps,
        },
        "workloads": {},
    }
    for workload in WORKLOADS:
        traced = run_rep(binary, workload, args.seed, scale, traces_dir())
        wall = statistics.median([r["wall_s"] for r in rows[workload]])
        layers = per_layer(traced, wall)
        failures += failed_checks(raw[workload] + [traced])
        print_workload(workload, rows[workload], layers, bounds)
        report["workloads"][workload] = {
            "raw": rows[workload],
            "median": {n: statistics.median([r[n] for r in rows[workload]])
                       for n, _ in END_TO_END},
            "quartiles": {n: quartiles([r[n] for r in rows[workload]])
                          for n, _ in END_TO_END},
            "layers": layers,
            "digest": traced["digest"],
        }
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"\n{'FAIL' if failures else 'PASS'}: {len(WORKLOADS)} workloads, "
          f"{reps} rep(s) + 1 traced each, seed {args.seed}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json")
    args = parser.parse_args()
    try:
        if args.workload is None:
            return full_run(args)
        binary, _ = build()
        result, failures = contract_run(binary, args.workload, args.seed,
                                        args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
