"""Kernel micro-benchmarks on fixed inputs, one set per available backend.

These are the four cases of ``benchmarks/bench_backends.py``, run through its
own functions and fixtures and reported as ``kernels.micro.<backend>.<case>_ms``
(best of ``REPEAT``), so that a kernel change shows its per-call effect next to
its effect on ``search-cold``.  Without that script there are no such metrics.
"""

from __future__ import annotations

import os
import sys
import time

REPEAT = 2
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(ROOT, "benchmarks")


def cases(bb):
    """(name, function, extra arguments) of ``bench_backends`` module ``bb``."""
    orders5 = bb.kpy.enumerate_labeled_orders(5)
    b4 = bb.boolean_lattice(4)
    return [
        ("enumerate_n5", bb.bench_enumerate, ()),
        ("canonical_n5", bb.bench_canonical, (orders5,)),
        ("members_b4", bb.bench_members, (b4,)),
        ("family_filter_b4", bb.bench_family_filter, (b4,)),
    ]


def run(repeat=REPEAT):
    """``{"kernels.micro.<backend>.<case>_ms": best time}`` for each backend."""
    sys.path.insert(0, BENCHMARKS)
    try:
        import bench_backends as bb

        todo = cases(bb)
    except (ImportError, AttributeError):
        return {}
    finally:
        sys.path.remove(BENCHMARKS)
    backends = [("python", bb.kpy)] + ([("cython", bb.kc)] if bb.kc is not None else [])
    out = {}
    for backend, kernel in backends:
        for name, fn, extra in todo:
            best = float("inf")
            for _ in range(repeat):
                t0 = time.perf_counter()
                fn(kernel, *extra)
                best = min(best, time.perf_counter() - t0)
            out[f"kernels.micro.{backend}.{name}_ms"] = best * 1e3
    return out
