"""One sweep of a workload in a fresh process; the result is the last stdout line.

    python3 perfbench/sweep.py '<json spec>'

``run.py`` starts this script once per sweep, so no sweep inherits another's
``lru_cache`` contents.  zdt is imported and its registry loaded before
anything else, and the moment that finishes is reported as ``ready_ns``
(``time.monotonic_ns``, which is system-wide on Linux), so the parent can time
set-up from the moment it started the process.

Every verdict carries the ``calibrate()`` times taken just before and just
after it, and during it too unless it runs a pool of workers, and a set-up
probe those taken right after set-up, so that ``run.py`` can scale each time
to a fixed host speed (see README.md, "Noise").

Spec keys: ``probe`` (set-up only), ``micro`` (kernel micro-benchmarks),
``cli`` with ``trace`` (one cold verdict: ``zdt.cli.main`` on these arguments,
reporting its speed samples and trace on the last stderr line), or ``tasks``
with ``cold``, ``jobs`` and ``trace`` for a sweep.
"""

import time

import zdt
from zdt import claims

claims.registry()
READY_NS = time.monotonic_ns()

import json  # noqa: E402  (after the timed set-up on purpose)
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402
from workloads import Task  # noqa: E402

CHILD_TIMEOUT_S = 60
CALIBRATION_N = 300  # about 1 ms on a 2-core x86 box
BOUNDARY_SAMPLES = 5  # calibrations between two verdicts
SAMPLE_INTERVAL_S = 0.05  # calibrations during a verdict, from SIGALRM


def calibrate(n=CALIBRATION_N):
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    The loop touches no zdt code, so a change to zdt cannot move it.  It
    allocates small tuples and dicts and sorts, like zdt's own loops; a loop
    over one small dict slowed down less than zdt did when the host was busy.
    """
    acc = 0
    t0 = time.perf_counter()
    for i in range(n):
        row = tuple((i * j * 2654435761) & 0xFF for j in range(8))
        acc += hash(tuple(sorted(row))) & 7
        acc += len({r & 15: r for r in row})
    return time.perf_counter() - t0


def calibrations():
    """The speed samples taken between two verdicts, or after set-up."""
    return [calibrate() for _ in range(BOUNDARY_SAMPLES)]


class Samplers:
    """Boundary calibrations on each of ``jobs`` cores at once.

    A pool of ``jobs`` workers runs on as many cores, and a sampler measures
    only the core it runs on.  So around pooled verdicts the sweep samples on
    one core while ``jobs - 1`` helpers sample on the others, each pinned to
    its own core so that two samplers never share one.  Between samples the
    helpers wait in a pipe read and take no CPU.  Call the instance to
    sample: it returns the sweep's own samples and keeps every core's.
    """

    def __init__(self, jobs):
        cpus = sorted(os.sched_getaffinity(0))
        self.cpus = cpus[:jobs] if len(cpus) >= jobs > 1 else []
        self.per_core = [[] for _ in self.cpus] or [[]]
        self.helpers = []
        for cpu in self.cpus[1:]:
            parent, child = multiprocessing.Pipe()
            proc = multiprocessing.Process(target=_serve, args=(child, cpu), daemon=True)
            proc.start()
            self.helpers.append((proc, parent))

    def __call__(self):
        if not self.cpus:
            own = calibrations()
        else:
            allowed = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {self.cpus[0]})
            try:
                for _, conn in self.helpers:
                    conn.send(True)
                own = calibrations()
                for samples, (_, conn) in zip(self.per_core[1:], self.helpers):
                    samples.extend(conn.recv())
            finally:
                os.sched_setaffinity(0, allowed)
        self.per_core[0].extend(own)
        return own

    def speed(self):
        """Each core's median sample, averaged over the cores."""
        return statistics.fmean(statistics.median(s) for s in self.per_core)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for proc, conn in self.helpers:
            conn.send(False)
            proc.join()


def _serve(conn, cpu):
    """A helper of ``Samplers``: samples on ``cpu`` whenever asked."""
    os.sched_setaffinity(0, {cpu})
    try:
        while conn.recv():
            conn.send(calibrations())
    except EOFError:  # the sweep is gone
        pass


class Speedometer:
    """Samples ``calibrate()`` every ``SAMPLE_INTERVAL_S`` while active.

    The host's speed changes within seconds, so one calibration before and
    after a long verdict misses most of it.  The handler runs in the main
    thread between bytecodes; its own time is subtracted from the verdict's.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(calibrate())

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _children_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_kb():
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def _verdict_in_process(task, jobs):
    reports = claims.run_claim(
        task.claim,
        task.max_size,
        mode=task.mode,
        systems=task.systems,
        jobs=jobs,
    )
    return gate.claim_lines(claims.format_reports(reports))


def _verdict_cold(task, traced):
    """One `zdt search` process: (CLAIM lines, exit code, what the child sent)."""
    spec = json.dumps({"cli": task.cli_args(), "trace": traced})
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), spec],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    child = json.loads(proc.stderr.splitlines()[-1]) if proc.stderr else {}
    return gate.claim_lines(proc.stdout), proc.returncode, child


def run_sweep(spec):
    tasks = [Task(t[0], t[1], t[2], tuple(t[3]) if t[3] else None) for t in spec["tasks"]]
    traced = spec["trace"]
    tr = tracer.Tracer().install(tracer.zdt_modules()) if traced and not spec["cold"] else None
    verdicts, speeds, lines, exit_codes, errors, children = [], [], {}, {}, {}, []
    speedometer = Speedometer()

    def loop():
        with Samplers(spec["jobs"]) as boundary:
            before = boundary()
            for task in tasks:
                t0 = time.perf_counter()
                try:
                    if spec["cold"]:
                        got, exit_codes[task.key], child = _verdict_cold(task, traced)
                        # the child sampled its own speed; its handler paused it
                        samples = child.get("calibration_s", [])
                    elif spec["jobs"] == 1:
                        with speedometer:
                            got = _verdict_in_process(task, 1)
                        samples = speedometer.samples
                        child = None
                    else:
                        # Samples taken while the workers run would time the
                        # pool's own load, so a pooled verdict is scaled only by
                        # the boundary samples, taken when no worker runs.
                        got = _verdict_in_process(task, spec["jobs"])
                        samples, child = [], None
                except Exception as e:  # a crashed verdict is a wrong one, not a lost run
                    got, samples, child = [], [], None
                    errors[task.key] = f"{type(e).__name__}: {e}"
                elapsed = time.perf_counter() - t0
                wall = elapsed - sum(samples)  # the sampling handler paused the verdict
                if child and "trace" in child:
                    children.append((elapsed, child))
                after = boundary()
                verdicts.append(wall)
                speeds.append(before + samples + after)
                lines[task.key] = got
                before = after
            # taken before the helpers are reaped, whose CPU time would count
            return _children_cpu_s(), boundary.speed()

    t0 = time.perf_counter()
    cpu_s, speed = tr.span("bench.loop", loop) if tr is not None else loop()
    sweep_s = time.perf_counter() - t0
    if spec["jobs"] > 1:
        # A pooled verdict has only the few samples at its two ends, and one
        # preempted sample moves their mean far from the speed the pool saw;
        # so every pooled verdict is scaled by the cores' typical speed.
        speeds = [[speed] for _ in speeds]
    out = {
        "sweep_s": sweep_s,
        "verdict_s": verdicts,
        "calibration_s": speeds,
        "lines": lines,
        "exit_codes": exit_codes,
        "errors": errors,
        "peak_rss_kb": _peak_rss_kb(),
        "children_cpu_s": cpu_s,
    }
    if tr is not None:
        tr.uninstall()
        out["trace"] = tr.snapshot()
    elif children:
        # A cold sweep's layers live in its children; what a child's spans do
        # not cover (interpreter start, imports, exit) is start-up time.
        snap = tracer.merge(c["trace"] for _, c in children)
        startup = sum(wall - c["traced_s"] for wall, c in children)
        snap["spans"]["startup.process"] = {"calls": len(children), "self_s": startup, "yielded": 0}
        snap["spans"]["bench.loop"] = {
            "calls": 1,
            "self_s": sweep_s - sum(wall for wall, _ in children),
            "yielded": 0,
        }
        out["trace"] = snap
    return out


def run_cli_child(args, traced):
    """`zdt search` sampling its own speed, and traced if asked.

    The samples (and the trace) go to the last stderr line.
    """
    from zdt import cli

    report = {}
    tr = tracer.Tracer().install(tracer.zdt_modules()) if traced else None
    speedometer = Speedometer()
    t0 = time.perf_counter()
    try:
        with speedometer:
            code = cli.main(args)
    finally:
        report["calibration_s"] = speedometer.samples
        if tr is not None:
            report["traced_s"] = time.perf_counter() - t0
            tr.uninstall()
            report["trace"] = tr.snapshot()
        sys.stdout.flush()
        print(json.dumps(report), file=sys.stderr)
    return code


def main():
    spec = json.loads(sys.argv[1])
    if "cli" in spec:
        return run_cli_child(spec["cli"], spec["trace"])
    out = {"ready_ns": READY_NS, "backend": zdt.BACKEND}
    if spec.get("probe"):
        out["calibration_s"] = calibrations()
    elif spec.get("micro"):
        import micro

        out["micro"] = micro.run()
    elif "tasks" in spec:
        out.update(run_sweep(spec))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
