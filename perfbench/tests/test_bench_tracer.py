"""Self time, generator spans and patching of the benchmark's tracer."""

import types

import pytest

import metrics
import tracer

SOURCE = '''
from functools import lru_cache

def inner():
    clock.advance(2)

def outer():
    clock.advance(1)
    inner()
    clock.advance(3)

def gen(k):
    for i in range(k):
        clock.advance(5)
        yield i
    clock.advance(7)

def consume():
    for _ in gen(3):
        clock.advance(100)
        inner()

def first_of_gen():
    for i in gen(3):
        return i

def fails():
    clock.advance(4)
    raise ValueError("boom")

def bits():
    clock.advance(1)

@lru_cache(maxsize=4)
def _private_cache(x):
    return x

@lru_cache(maxsize=4)
def public_cache(x):
    clock.advance(10)
    return _private_cache(x)
'''


class Clock:
    def __init__(self):
        self.t = 0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture
def synth():
    clock = Clock()
    mod = types.ModuleType("synth")
    mod.clock = clock
    exec(compile(SOURCE, "synth", "exec"), mod.__dict__)
    other = types.ModuleType("other")  # binds synth's functions by from-import
    other.outer = mod.outer
    other.gen = mod.gen
    tr = tracer.Tracer(clock=clock).install([mod, other], skip={"synth.bits"})
    yield mod, other, tr
    tr.uninstall()


def self_ns(tr, name):
    return tr.stats[name][1]


def test_nested_calls_split_into_self_time(synth):
    mod, _, tr = synth
    mod.outer()
    assert self_ns(tr, "synth.outer") == 4
    assert self_ns(tr, "synth.inner") == 2
    assert tr.stats["synth.outer"][0] == 1


def test_generator_is_timed_over_its_whole_iteration(synth):
    mod, _, tr = synth
    mod.consume()
    # five per item plus seven after the last one; the consumer's own work
    # between items belongs to the consumer, and nested calls to themselves
    assert tr.stats["synth.gen"] == [1, 3 * 5 + 7, 3]
    assert self_ns(tr, "synth.consume") == 300
    assert tr.stats["synth.inner"][:2] == [3, 6]


def test_abandoned_generator_closes_its_span(synth):
    mod, _, tr = synth
    assert mod.first_of_gen() == 0
    assert tr.stats["synth.gen"] == [1, 5, 1]
    assert len(tr._acc) == 1  # every span closed


def test_exception_closes_the_span(synth):
    mod, _, tr = synth
    with pytest.raises(ValueError):
        mod.fails()
    assert self_ns(tr, "synth.fails") == 4
    assert len(tr._acc) == 1  # every span closed


def test_from_imports_are_patched_and_restored(synth):
    mod, other, tr = synth
    original = other.outer.__wrapped__
    other.outer()
    assert list(other.gen(2)) == [0, 1]
    assert tr.stats["synth.outer"][0] == 1
    assert tr.stats["synth.gen"][2] == 2
    tr.uninstall()
    assert other.outer is original and mod.outer is original


def test_skip_list_private_functions_and_caches(synth):
    mod, _, tr = synth
    assert not hasattr(mod.bits, "__wrapped__")
    assert "synth.bits" not in tr.stats
    assert set(tr.caches) == {"synth._private_cache", "synth.public_cache"}
    mod.public_cache(1)
    mod.public_cache(1)
    snap = tr.snapshot()
    assert snap["spans"]["synth.public_cache"]["calls"] == 2
    assert snap["spans"]["synth.public_cache"]["self_s"] == pytest.approx(10e-9)
    assert snap["caches"]["synth.public_cache"] == {"hits": 1, "misses": 1}
    assert snap["caches"]["synth._private_cache"] == {"hits": 0, "misses": 1}


def test_zdt_modules_are_all_traceable():
    mods = tracer.zdt_modules()
    names = {tracer.short_name(m) for m in mods}
    assert {"poset", "claims", "kernels", "monad"} <= names
    assert not names & tracer.UNTRACED_MODULES
    tr = tracer.Tracer().install(mods)
    try:
        assert set(metrics.CACHES) <= set(tr.caches)
        from zdt import claims, systems

        assert claims.is_zcpo is systems.is_zcpo  # the from-import follows
        assert hasattr(systems.is_zcpo, "__wrapped__")
        assert "poset.bits" not in tr.stats
    finally:
        tr.uninstall()
    assert not hasattr(systems.is_zcpo, "__wrapped__")


def test_missing_caches_mean_fewer_metrics_not_an_error():
    sweep = {"trace": {"spans": {}, "caches": {}}, "lines": {}}
    out = metrics.layer_metrics(sweep)
    assert not [k for k in out if k.startswith("cache.")]
    assert out["poset.self_s"] == 0.0
