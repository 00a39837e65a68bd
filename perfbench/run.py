#!/usr/bin/env python3
"""Layered claim-search benchmark for zdt.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Runs sweeps of one workload, each in a fresh process, until ``--seconds`` is
used up, checks every CLAIM count against the recorded ones, and prints two
lines: the full record (provenance, sample counts, every metric measured),
then the result ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the result holds the end-to-end metrics of untraced sweeps; with
``--trace 1`` it alternates untraced and traced sweeps and holds the per-layer
metrics.  ``--smoke`` caps every task at n=2, so a run takes seconds.
Workloads, metrics and noise are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import gate  # noqa: E402
import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4  # timed set-ups before each sweep, after one untimed warm-up
SWEEP_TIMEOUT_S = 150
TRACED_SLOWDOWN = 1.6  # first guess at a traced sweep's length, as a multiple


class SweepError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["ZDT_BACKEND"] = "py"  # one backend for every result; see README.md
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(spec):
    """Run sweep.py on ``spec`` in a fresh process; returns (result, set-up s)."""
    cmd = [sys.executable, os.path.join(HERE, "sweep.py"), json.dumps(spec)]
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=_env(),
            timeout=SWEEP_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as e:
        raise SweepError(f"sweep timed out after {SWEEP_TIMEOUT_S} s") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SweepError(f"sweep exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    return out, (out["ready_ns"] - t0) / 1e9


def _git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def grade(workload, tasks, sweeps):
    """(cells attempted, cells wrong) over every sweep of the run."""
    expected = gate.load_expected()
    attempted = wrong = 0
    for sweep in sweeps:
        for task in tasks:
            want = expected[task.key]
            code = sweep["exit_codes"].get(task.key) if workload.cold else None
            a, w = gate.check(task, sweep["lines"].get(task.key, []), want, code)
            attempted += a
            wrong += w
    return attempted, wrong


def measure(workload, tasks, seconds, trace):
    """Set-up probes and sweeps until ``seconds`` is used; returns raw results."""
    start = time.monotonic()
    spawn({"probe": True})  # warm-up: compiles bytecode on a fresh checkout
    setup = []
    micro = spawn({"micro": True})[0]["micro"] if trace else {}
    base = {
        "tasks": [[t.claim, t.mode, t.max_size, t.systems] for t in tasks],
        "cold": workload.cold,
        "jobs": workload.jobs,
    }
    plain, traced = [], []
    while True:
        t_probes = time.monotonic()
        for _ in range(SETUP_PROBES):
            out, setup_s = spawn({"probe": True})
            setup.append((setup_s, out["calibration_s"]))
        probes_s = time.monotonic() - t_probes
        want_trace = trace and len(traced) < len(plain)
        out, _ = spawn({**base, "trace": want_trace})
        (traced if want_trace else plain).append(out)
        next_trace = trace and len(traced) < len(plain)
        if next_trace and not traced:
            estimate = TRACED_SLOWDOWN * plain[0]["sweep_s"]
        else:
            estimate = statistics.median(
                s["sweep_s"] for s in (traced if next_trace else plain)
            )
        done = traced or not trace  # a traced run has at least one of each
        if done and time.monotonic() - start + probes_s + estimate > seconds:
            break
    return {"setup": setup, "plain": plain, "traced": traced, "micro": micro}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zdt", "__init__.py")):
        print(f"error: no zdt sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tasks = workload.ordered(args.seed, smoke=args.smoke)
    load_before = os.getloadavg()
    try:
        raw = measure(workload, tasks, args.seconds, bool(args.trace))
    except SweepError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sweeps = raw["plain"] + raw["traced"]
    attempted, wrong = grade(workload, tasks, sweeps)

    found = metrics.end_to_end(raw["plain"], raw["setup"])
    if args.trace:
        layers = metrics.median_dicts(
            [metrics.layer_metrics(s) for s in raw["traced"]]
        )
        layers.update(metrics.median_dicts(
            [metrics.pool_metrics(s, workload.jobs) for s in raw["plain"]]
        ))
        layers["trace.overhead_s"] = (
            statistics.median(metrics.scaled_sweep_s(s) for s in raw["traced"])
            - found["sweep_s"]
        )
        layers.update(raw["micro"])
        found.update(layers)
        declared = metrics.PER_LAYER
    else:
        declared = metrics.END_TO_END

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "order": [t.key for t in tasks],
        "provenance": {
            "backend": sorted({s["backend"] for s in sweeps}),
            "python": platform.python_version(),
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
        "samples": {
            "sweep_s": [metrics.scaled_sweep_s(s) for s in raw["plain"]],
            "sweep_wall_s": [s["sweep_s"] for s in raw["plain"]],
            "traced_sweep_wall_s": [s["sweep_s"] for s in raw["traced"]],
            "speed": statistics.median(
                metrics.REFERENCE_CALIBRATION_S / c
                for s in sweeps for cs in s["calibration_s"] for c in cs
            ),
            "sweeps": len(raw["plain"]),
            "traced_sweeps": len(raw["traced"]),
            "verdicts": sum(len(s["verdict_s"]) for s in raw["plain"]),
            "setup": len(raw["setup"]),
        },
        "wrong_share": wrong / attempted,
        "errors": [e for s in sweeps for e in s["errors"].items()],
        "metrics": found,
    }
    print(json.dumps(record))
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {
            name: {"value": found[name], "unit": spec[0]}
            for name, spec in declared.items()
            if name in found
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
