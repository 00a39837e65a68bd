"""Metric definitions and their computation from sweep results.

End-to-end metrics come from untraced sweeps; per-layer metrics from traced
ones.  ``BENCHMARK.json`` at the repository root lists the same names, units
and directions (a test keeps the two in step).
"""

from __future__ import annotations

import statistics

import gate

# name -> (unit, better, bound).  Each bound is at most 0.25 and at least
# twice the largest quartile spread measured over ten seeds (README.md,
# "Noise"), except that of `verdict_s.p50`, whose spread has reached 12.9%;
# `setup_s`, whose spread is not bounded, has the largest.
END_TO_END = {
    "sweep_s": ("s", "lower", 0.25),
    "verdict_s.p50": ("s", "lower", 0.25),
    "verdict_s.p90": ("s", "lower", 0.25),
    "instances_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

# Layers are zdt's modules; `bench` is the benchmark's own loop and `startup`
# the interpreter start, imports and exit of cold processes.
LAYERS = (
    "kernels", "poset", "systems", "topology", "continuity",
    "galois", "monad", "claims", "io", "cli", "bench", "startup",
)

# Order operators of zdt.poset: cut, up/down sets, bounds, extrema.
ORDER_OPS = (
    "up_set", "down_set", "upper_bounds", "lower_bounds", "cut", "relative_cut",
    "least_of", "greatest_of", "sup_of", "inf_of", "min_of_upset", "max_of",
)

# The lru_caches present when the benchmark was defined.  Caches found later
# are reported in the full record only; caches that disappear drop out.
CACHES = (
    "poset._labeled_orders", "poset._iso_representatives", "systems._members",
    "topology.gamma_subbasis", "topology.sigma_topology", "topology.lower_topology",
    "continuity._member_cut_pairs", "continuity._wb", "continuity._dd_all",
    "continuity._member_ideals", "continuity._beneath_all",
    "monad.gamma_lattice", "monad.delta_object", "claims._inner_posets",
)

MICRO_CASES = ("enumerate_n5", "canonical_n5", "members_b4", "family_filter_b4")

# name -> (unit, better)
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "kernels.canonical_key.calls": ("count", "lower"),
    "poset.maps.yielded": ("count", "lower"),
    "poset.order_ops.calls": ("count", "lower"),
    "topology.is_sigma_z_continuous.calls": ("count", "lower"),
    "galois.connections.yielded": ("count", "lower"),
    "continuity.weakly_meet_witness.self_s": ("s", "lower"),
    "monad.verify_adjunction.self_s": ("s", "lower"),
    "monad.gamma_lattice.calls": ("count", "lower"),
    "claims.instances": ("count", "higher"),
    "claims.format_reports.self_s": ("s", "lower"),
    "claims.worker_cpu_s": ("s", "lower"),
    "claims.worker_idle_share": ("share", "lower"),
    **{f"cache.{c}.hit_ratio": ("share", "higher") for c in CACHES},
    **{f"cache.{c}.misses": ("count", "lower") for c in CACHES},
    **{f"kernels.micro.python.{c}_ms": ("ms", "lower") for c in MICRO_CASES},
    "trace.overhead_s": ("s", "lower"),
}


# Times are scaled to a host on which sweep.calibrate() takes this long, about
# the speed of the 2-core box the benchmark was defined on; README.md, "Noise",
# says why.
REFERENCE_CALIBRATION_S = 0.001


def scaled(seconds, calibrations):
    """``seconds`` as measured, scaled to the reference host speed by the
    mean of the calibrations taken around and during the measurement."""
    return seconds * REFERENCE_CALIBRATION_S / statistics.fmean(calibrations)


def scaled_verdicts(sweep):
    return [scaled(v, c) for v, c in zip(sweep["verdict_s"], sweep["calibration_s"])]


def scaled_sweep_s(sweep):
    return sum(scaled_verdicts(sweep))


def sweep_instances(sweep):
    return sum(gate.instances(lines) for lines in sweep["lines"].values())


def verdict_deciles(sweeps):
    """Deciles over the workload's verdicts, each at its median over the sweeps.

    Every sweep runs the same tasks in the same order.  Pooling the samples
    instead would put a percentile on the boundary between two verdicts
    whenever p x (verdicts per sweep) is close to a whole number, and noise
    would then pick either one.
    """
    typical = [statistics.median(v) for v in zip(*map(scaled_verdicts, sweeps))]
    if len(typical) == 1:
        return typical * 9
    return statistics.quantiles(typical, n=10, method="inclusive")


def end_to_end(sweeps, setups):
    """The end-to-end metrics of a run's untraced sweeps and set-up probes.

    ``setups`` holds (set-up seconds, calibration seconds) pairs.
    """
    walls = [scaled_sweep_s(s) for s in sweeps]
    deciles = verdict_deciles(sweeps)
    return {
        "sweep_s": statistics.median(walls),
        "verdict_s.p50": deciles[4],
        "verdict_s.p90": deciles[8],
        "instances_per_s": sum(sweep_instances(s) for s in sweeps) / sum(walls),
        "setup_s": statistics.median(scaled(s, c) for s, c in setups),
        "peak_rss_mb": statistics.median(s["peak_rss_kb"] for s in sweeps) / 1024,
    }


def layer_metrics(sweep):
    """Per-layer metrics of one traced sweep."""
    trace = sweep["trace"]
    spans = trace["spans"]
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, s in spans.items():
        key = f"{name.split('.', 1)[0]}.self_s"
        out[key] = out.get(key, 0.0) + s["self_s"]

    def field(name, key):
        return spans.get(name, {}).get(key, 0)

    out["kernels.canonical_key.calls"] = field("kernels.canonical_key", "calls")
    out["poset.maps.yielded"] = field("poset.enumerate_monotone_maps", "yielded")
    out["poset.order_ops.calls"] = sum(field(f"poset.{op}", "calls") for op in ORDER_OPS)
    out["topology.is_sigma_z_continuous.calls"] = field(
        "topology.is_sigma_z_continuous", "calls"
    )
    out["galois.connections.yielded"] = field(
        "galois.enumerate_galois_connections", "yielded"
    )
    out["continuity.weakly_meet_witness.self_s"] = field(
        "continuity.weakly_meet_witness", "self_s"
    )
    out["monad.verify_adjunction.self_s"] = field("monad.verify_adjunction", "self_s")
    out["monad.gamma_lattice.calls"] = field("monad.gamma_lattice", "calls")
    out["claims.instances"] = sweep_instances(sweep)
    out["claims.format_reports.self_s"] = field("claims.format_reports", "self_s")
    for name, c in trace["caches"].items():
        calls = c["hits"] + c["misses"]
        out[f"cache.{name}.hit_ratio"] = c["hits"] / calls if calls else 0.0
        out[f"cache.{name}.misses"] = c["misses"]
    return out


def pool_metrics(sweep, jobs):
    """Workers' CPU time, and the share of the pool's capacity left idle."""
    cpu = sweep["children_cpu_s"]
    return {
        "claims.worker_cpu_s": cpu,
        "claims.worker_idle_share": 1.0 - cpu / (jobs * sweep["sweep_s"]),
    }


def median_dicts(dicts):
    """Per-key median over the dicts that have the key."""
    keys = sorted({k for d in dicts for k in d})
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in keys}
