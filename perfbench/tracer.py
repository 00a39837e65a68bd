"""In-memory span tracer that wraps the public functions of zdt's modules.

A span opens when a wrapped function is entered and closes when it returns or
raises; a generator's span is every resumption, so its time covers the whole
iteration, not just its creation.  Spans are aggregated in memory per function
as they close: calls, self time (the span's duration minus the part its child
spans cover) and, for generators, items yielded.  Nothing is written until the
caller asks for ``snapshot()``.

What gets wrapped is found by introspection, so functions and caches that a
later version of zdt adds, renames or deletes simply change the metric set:

* every public (non-underscore) function or ``lru_cache`` wrapper defined in a
  traced module is wrapped, and every traced module attribute bound to it,
  including ``from``-imports, is repointed to the wrapper;
* every ``lru_cache`` in a traced module, public or private, is reported with
  its ``cache_info()``;
* per-element primitives in ``SKIP`` are left alone: wrapping them would cost
  more than the work they do.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time

# Called tens of millions of times per sweep, each doing a few bit operations.
SKIP = frozenset({"poset.bits"})

# Implementation twins behind zdt.kernels; their time belongs to that layer.
UNTRACED_MODULES = frozenset({"_ckernels", "_kernels_py", "errors"})


def zdt_modules():
    """The zdt package and every submodule the tracer should patch."""
    import zdt

    mods = [zdt]
    for info in pkgutil.iter_modules(zdt.__path__):
        if info.name in UNTRACED_MODULES:
            continue
        mods.append(importlib.import_module(f"zdt.{info.name}"))
    return mods


def short_name(module):
    """``zdt.poset`` -> ``poset``; the package itself is ``zdt``."""
    return module.__name__.rsplit(".", 1)[-1]


def _is_traceable(obj, module):
    if getattr(obj, "__module__", None) != module.__name__:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    """Wraps functions of the given modules and aggregates their spans."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self._acc = [0]  # child time of each open span; [0] is the root
        self.stats = {}  # "module.function" -> [calls, self_ns, yielded]
        self.caches = {}  # "module.function" -> lru_cache wrapper
        self._patches = []  # (module, attribute, original)

    # -- installation ---------------------------------------------------

    def install(self, modules, skip=SKIP):
        """Wrap the public functions of ``modules`` and record their caches."""
        wrappers = {}  # id(original) -> wrapper
        for mod in modules:
            layer = short_name(mod)
            for attr, obj in sorted(vars(mod).items()):
                if not _is_traceable(obj, mod):
                    continue
                name = f"{layer}.{attr}"
                if hasattr(obj, "cache_info"):
                    self.caches[name] = obj
                if attr.startswith("_") or name in skip:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(obj, name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- spans ----------------------------------------------------------

    def wrap(self, fn, name):
        stat = self.stats.setdefault(name, [0, 0, 0])
        acc = self._acc
        clock = self._clock

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                stat[0] += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        acc.append(0)
                        t0 = clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            dt = clock() - t0
                            stat[1] += dt - acc.pop()
                            acc[-1] += dt
                        stat[2] += 1
                        yield item
                finally:
                    gen.close()

            traced = traced_gen
        else:

            def traced(*args, **kwargs):
                stat[0] += 1
                acc.append(0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat[1] += dt - acc.pop()
                    acc[-1] += dt

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own, e.g. the benchmark's loop."""
        return self.wrap(fn, name)(*args, **kwargs)

    # -- results --------------------------------------------------------

    def snapshot(self):
        """Plain data: per-function spans and per-cache counters."""
        spans = {
            name: {"calls": c, "self_s": ns / 1e9, "yielded": y}
            for name, (c, ns, y) in self.stats.items()
            if c
        }
        caches = {}
        for name, wrapper in self.caches.items():
            info = wrapper.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {"spans": spans, "caches": caches}


def merge(snapshots):
    """Sum spans and cache counters of several processes' snapshots."""
    spans, caches = {}, {}
    for snap in snapshots:
        for name, s in snap["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "yielded": 0})
            for key in acc:
                acc[key] += s[key]
        for name, c in snap["caches"].items():
            acc = caches.setdefault(name, {"hits": 0, "misses": 0})
            for key in acc:
                acc[key] += c[key]
    return {"spans": spans, "caches": caches}
