#!/usr/bin/env python3
"""Simulator benchmark driver.

    python3 perfbench/run.py --workload bulk2|shorts2|fabric16 \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds the `perfbench` crate (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
workload in fresh processes, one cold run each, until --seconds have
passed. Each process builds the engine, runs it to the horizon and
checks its outputs; this driver also checks that every process produced
the same digest and flow accounting. Only the first process makes the
`fabric16` one-worker check run; the later ones pass `--repeat`.

A host-speed probe process, pinned to one CPU, runs before the first
process and after each one; on the serial workloads the measured
processes are pinned to that same CPU. The host times `run_s`, `cpu_s`
and `setup_s` are reported in reference-host seconds: each process's
reading scaled by the reference probe time over the mean of the two
probes around it. The readings as taken are reported as `raw_run_s`,
`raw_cpu_s` and `raw_setup_s`.

Prints one line per metric (the median over the processes), then, as
the last line, one JSON object: the end-to-end metrics that
BENCHMARK.json declares, or with --trace 1 its per-layer metrics.
Exits non-zero, printing no result, if the build or any check fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
# One process runs the engine at most three times; none takes a minute.
PROCESS_TIMEOUT_S = 150
# Host times the driver scales to the reference host's speed.
HOST_TIMES = ("run_s", "cpu_s", "setup_s")
# Workloads on a single-threaded engine. Their processes and the speed
# probes around them are pinned to one CPU, so that each probe times the
# CPU the measured process ran on.
SERIAL_WORKLOADS = ("bulk2", "shorts2")


class CheckFailed(Exception):
    pass


def declared_metrics(trace):
    """Names of the metrics BENCHMARK.json asks for in this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def build():
    """Build the benchmark binary; return its path."""
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise CheckFailed("cargo build of perfbench failed")
    return os.path.join(target, "release", "perfbench")


def one_process(binary, args, repeat):
    """Run one cold process; return its parsed report. A `repeat`
    process skips the checks an earlier process made for the same seed
    (see `perfbench::measure`)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        cmd.append("--trace")
    if repeat:
        cmd.append("--repeat")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise CheckFailed(f"no report from {' '.join(cmd)} (exit {proc.returncode})")
    failed = [c for c in report["checks"] if not c["ok"]]
    for c in failed:
        print(f"perfbench: check {c['name']} failed: {c['detail']}", file=sys.stderr)
    if failed or proc.returncode != 0:
        raise CheckFailed(f"{' '.join(cmd)} failed its checks (exit {proc.returncode})")
    return report


def speed_probe(binary, cpu):
    """Time the host-speed probe in a process of its own, pinned to `cpu`;
    return (probe seconds, the reference host's probe seconds)."""
    proc = subprocess.run(
        [binary, "--speed-probe"],
        capture_output=True,
        text=True,
        timeout=PROCESS_TIMEOUT_S,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        return float(probe["probe_s"]), float(probe["reference_s"])
    except (IndexError, KeyError, ValueError):
        raise CheckFailed(f"no reading from the speed probe (exit {proc.returncode})")


def scale_host_times(report, before, after):
    """Rewrite a report's host times in reference-host seconds, keeping
    the readings as `raw_*`, with the probe's mean as `speed.probe_s`."""
    probe_s = (before[0] + after[0]) / 2
    metrics = report["metrics"]
    scaled = {}
    for name, m in metrics.items():
        if name in HOST_TIMES:
            scaled[name] = {"value": m["value"] * before[1] / probe_s, "unit": m["unit"]}
        else:
            scaled[name] = m
    for name in HOST_TIMES:
        scaled["raw_" + name] = metrics[name]
    scaled["speed.probe_s"] = {"value": probe_s, "unit": "s"}
    report["metrics"] = scaled


def run(args):
    wanted = declared_metrics(args.trace)
    binary = build()
    if args.workload in SERIAL_WORKLOADS:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # The probes take the measured processes' CPUs in turn, so that the
    # two around a process time two of its CPUs when it may use several.
    cpus = sorted(os.sched_getaffinity(0))
    reports = []
    start = time.monotonic()
    before = speed_probe(binary, cpus[0])
    while not reports or time.monotonic() - start < args.seconds:
        report = one_process(binary, args, repeat=bool(reports))
        after = speed_probe(binary, cpus[(len(reports) + 1) % len(cpus)])
        scale_host_times(report, before, after)
        reports.append(report)
        before = after

    first = reports[0]
    for r in reports[1:]:
        if (r["digest"], r["flows"]) != (first["digest"], first["flows"]):
            raise CheckFailed(
                f"processes disagree: digest {r['digest']} flows {r['flows']} vs "
                f"{first['digest']} {first['flows']}"
            )
    names = list(first["metrics"])
    for r in reports:
        if list(r["metrics"]) != names:
            raise CheckFailed("processes reported different metric sets")
    bad = [n for n in names if not NAME_RE.match(n)]
    missing = [n for n in wanted if n not in names]
    if bad or missing:
        raise CheckFailed(f"bad metric names {bad}, unmeasured declared metrics {missing}")

    medians = {
        n: {
            "value": statistics.median(r["metrics"][n]["value"] for r in reports),
            "unit": first["metrics"][n]["unit"],
        }
        for n in names
    }
    flows = first["flows"]
    print(
        f"perfbench: {args.workload} seed {args.seed} horizon {first['horizon_ns'] / 1e6:g} ms "
        f"workers {first['workers']} processes {len(reports)} digest {first['digest']}"
    )
    print(
        f"perfbench: flows started {flows['started']} completed {flows['completed']} "
        f"failed {flows['failed']}"
    )
    for n, m in medians.items():
        v = m["value"]
        print(f"  {n} = {int(v) if float(v).is_integer() else f'{v:.6g}'} {m['unit']}")
    result = {
        "correct": True,
        "attempted": sum(r["engine_runs"] for r in reports),
        "failed": 0,
        "metrics": {n: medians[n] for n in wanted},
    }
    print(json.dumps(result))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["bulk2", "shorts2", "fabric16"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be a whole number")
    try:
        run(args)
    except (CheckFailed, OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
