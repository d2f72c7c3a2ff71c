"""Per-layer call counts and self times, recorded from outside `chipcarbon`.

`Tracer.install()` imports every `chipcarbon` submodule, then replaces every
public function of the traced modules with a timing wrapper in every module
that binds it: a name imported with `from .x import y` is a separate binding
in the importing module, and calls through it only show if that binding is
wrapped too. Three
constructors or operators that dominate object churn get a bare counter.
`uninstall()` puts every original object back. Nothing inside the package is
edited.

A span's self time is its duration minus the durations of the spans it
directly encloses, so self times of nested layers never count twice and their
sum never exceeds the wall time of the outermost span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time

# layer name -> module whose public functions are spans of that layer
LAYERS = {
    "store": "chipcarbon.store",
    "embodied": "chipcarbon.embodied",
    "deployment": "chipcarbon.deployment",
    "lifecycle": "chipcarbon.lifecycle",
    "scenario": "chipcarbon.scenario",
}

# counter name -> (module, class, attribute) whose calls are counted
COUNTERS = {
    "chips.ApplicationProfile.created": ("chipcarbon.chips", "ApplicationProfile", "__post_init__"),
    "quantities.CarbonMass.created": ("chipcarbon.quantities", "CarbonMass", "__post_init__"),
    "breakdown.CfpBreakdown.add_calls": ("chipcarbon.breakdown", "CfpBreakdown", "__add__"),
}


class Tracer:
    """Aggregated spans: name -> [calls, self seconds], plus plain counters."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self._stack: list[float] = []  # child seconds of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _timed(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
        return span

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn` as one span called `name` (for entry points the benchmark calls)."""
        return self._timed(name, fn)(*args, **kwargs)

    def install(self) -> None:
        # Import every submodule first: one imported later would bind the
        # wrappers themselves, and keep them after `uninstall`.
        package = importlib.import_module("chipcarbon")
        for info in pkgutil.iter_modules(package.__path__, "chipcarbon."):
            if info.name != "chipcarbon.__main__":
                importlib.import_module(info.name)
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "chipcarbon" or n.startswith("chipcarbon.")]
        for layer, modname in LAYERS.items():
            module = sys.modules[modname]
            for fname, fn in vars(module).items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != modname):
                    continue
                wrapper = self._timed(f"{layer}.{fname}", fn)
                for holder in loaded:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, attr, wrapper)
        for name, (modname, clsname, attr) in COUNTERS.items():
            cls = getattr(importlib.import_module(modname), clsname)
            self._set(cls, attr, self._counted(name, getattr(cls, attr)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) of every binding currently replaced."""
        return list(self._patched)

    def snapshot(self) -> dict:
        """Plain-data copy, mergeable across processes with `merge`."""
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts)}


def merge(snapshots) -> dict:
    """Sum span calls, span self times and counters over several snapshots."""
    total: dict = {"spans": {}, "counts": {name: 0 for name in COUNTERS}}
    for snap in snapshots:
        for name, (calls, self_s) in snap["spans"].items():
            acc = total["spans"].setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, n in snap["counts"].items():
            total["counts"][name] = total["counts"].get(name, 0) + n
    return total
