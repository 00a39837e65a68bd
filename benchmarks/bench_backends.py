#!/usr/bin/env python3
"""Time the hot kernels on fixed inputs and print a table:

    python benchmarks/bench_backends.py [--repeat 3]
"""

import argparse
import time

from zdt import kernels as kpy

kc = None  # no compiled kernels exist; the name stays for importers of this module


def _down_rows(n, up):
    down = [0] * n
    for i in range(n):
        r = up[i]
        while r:
            lsb = r & -r
            r ^= lsb
            down[lsb.bit_length() - 1] |= 1 << i
    return tuple(down)


def bench_enumerate(kernel):
    return len(kernel.enumerate_labeled_orders(5))


def bench_canonical(kernel, orders):
    seen = set()
    for rows in orders:
        seen.add(kernel.canonical_key(5, rows))
    return len(seen)


def bench_members(kernel, boolean4):
    n, up, down = boolean4
    total = 0
    for sys_id in range(5):
        total += len(kernel.z_member_masks(sys_id, n, up, down))
    return total


def bench_family_filter(kernel, boolean4):
    n, up, down = boolean4
    ideals = kernel.order_ideals(n, up, down)
    constraints = []
    for d in ideals:
        if not d:
            continue
        ub = (1 << n) - 1
        t = d
        while t:
            lsb = t & -t
            t ^= lsb
            ub &= up[lsb.bit_length() - 1]
        cut = (1 << n) - 1
        t = ub
        while t:
            lsb = t & -t
            t ^= lsb
            cut &= down[lsb.bit_length() - 1]
        if cut & ~d:
            constraints.append((d, cut))
    return len(kernel.absorbing_ideals(ideals, constraints))


def boolean_lattice(k):
    """The inclusion order on all subsets of a k-set (2^k elements)."""
    n = 1 << k
    up = []
    for a in range(n):
        row = 0
        for b in range(n):
            if a & ~b == 0:
                row |= 1 << b
        up.append(row)
    return n, tuple(up), _down_rows(n, tuple(up))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    orders5 = kpy.enumerate_labeled_orders(5)
    b4 = boolean_lattice(4)
    workloads = [
        ("enumerate labeled n=5", bench_enumerate, ()),
        ("canonical keys for 4231 posets", bench_canonical, (orders5,)),
        ("system members on the 16-point lattice", bench_members, (b4,)),
        ("closed-family filter on the 16-point lattice", bench_family_filter, (b4,)),
    ]

    width = max(len(w[0]) for w in workloads)
    print(f"{'workload':<{width}}  {'best':>10}")
    print("-" * (width + 12))
    for label, fn, extra in workloads:
        best = min(_timed(fn, kpy, extra) for _ in range(args.repeat))
        print(f"{label:<{width}}  {best * 1e3:8.1f}ms")


def _timed(fn, kernel, extra):
    t0 = time.perf_counter()
    fn(kernel, *extra)
    return time.perf_counter() - t0


if __name__ == "__main__":
    main()
