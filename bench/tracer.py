"""Spans and counts around the program's public functions, from outside it.

A Tracer replaces a function under every name that binds it (a function
imported into several modules has one binding per module), records one
span per call in flat arrays, and restores every binding on uninstall.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
from array import array
from time import perf_counter

import numpy as np

# Public functions timed per layer, as (module, function).
LAYER_FUNCTIONS = (
    ("spaces", "realize"),
    ("spaces", "spectral_norm"),
    ("spaces", "verify_axioms"),
    ("optimize", "maximize_amplified_norm"),
    ("optimize", "realize_image"),
    ("optimize", "project_to_unit_ball"),
    ("maps", "build_level_table"),
    ("maps", "coefficient_relaxation_bound"),
    ("npnorm", "np_norm"),
    ("npnorm", "inclusion_check"),
    ("oracle", "brute_search"),
    ("oracle", "cross_validate"),
    ("catalog", "list_entries"),
)

# numpy.linalg calls that every layer funnels into.
KERNEL_FUNCTIONS = ("svd", "eigh", "qr")

CLI_COMMANDS = ("levels", "npnorm", "plotdata", "index", "verify")

PACKAGE = "npspace"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, func in LAYER_FUNCTIONS:
        names += [f"{module}.{func}.calls", f"{module}.{func}.s"]
    names += ["maps.build_level_table.self_s", "optimize.support_ratio", "optimize.converged_ratio"]
    for func in KERNEL_FUNCTIONS:
        names += [f"kernel.{func}.calls", f"kernel.{func}.matrices", f"kernel.{func}.s"]
    names += ["cli.import.s"] + [f"cli.{c}.s" for c in CLI_COMMANDS]
    names += ["oracle.brute_geomean", "src.lines", "trace.overhead_s"]
    return names


class Tracer:
    """Records spans (name, start, end, parent) for patched functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list = []
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.matrices: dict[str, int] = {}
        self.restarts = 0
        self.support = 0
        self.ascents = 0
        self.converged = 0
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        return self._begin(self._id(name))

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.nested.append(self._depth.get(nid, 0) > 0)
        self.end.append(0.0)
        stack.append(idx)
        self._depth[nid] = self._depth.get(nid, 0) + 1
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._depth[self.name[idx]] -= 1

    def _wrap(self, name: str, func, observe=None):
        tracer = self
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = tracer._begin(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _observe_ascent(self, args, kwargs, outcome) -> None:
        budget = args[3] if len(args) > 3 else kwargs.get("budget")
        if budget is None:
            budget = getattr(sys.modules[f"{PACKAGE}.optimize"], "DEFAULT_BUDGET", None)
        self.ascents += 1
        self.restarts += getattr(budget, "restarts", 0)
        self.support += getattr(outcome, "support", 0)
        self.converged += 1 if getattr(outcome, "converged", False) else 0

    def _kernel_observer(self, func: str):
        def observe(args, kwargs, result):
            count = 1
            for dim in np.shape(args[0] if args else kwargs["a"])[:-2]:
                count *= dim
            self.matrices[func] = self.matrices.get(func, 0) + count

        return observe

    def _modules(self):
        return [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        modules = self._modules()
        for module, func in LAYER_FUNCTIONS:
            # A function the program no longer has reads 0 calls.
            original = getattr(sys.modules.get(f"{PACKAGE}.{module}"), func, None)
            if original is None:
                continue
            observe = self._observe_ascent if func == "maximize_amplified_norm" else None
            wrapper = self._wrap(f"{module}.{func}", original, observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for func in KERNEL_FUNCTIONS:
            original = getattr(np.linalg, func)
            self._patches.append((np.linalg, func, original))
            setattr(np.linalg, func, self._wrap(f"kernel.{func}", original, self._kernel_observer(func)))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def metrics(self) -> dict[str, float]:
        """Calls, total seconds and self seconds per span name, plus ratios."""
        n = len(self.start)
        child = [0.0] * n
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[name] = calls.get(name, 0) + 1
            if not self.nested[i]:
                total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        out = {}
        for module, func in LAYER_FUNCTIONS:
            key = f"{module}.{func}"
            out[f"{key}.calls"] = calls.get(key, 0)
            out[f"{key}.s"] = total.get(key, 0.0)
        out["maps.build_level_table.self_s"] = self_s.get("maps.build_level_table", 0.0)
        out["optimize.support_ratio"] = self.support / self.restarts if self.restarts else 0.0
        out["optimize.converged_ratio"] = self.converged / self.ascents if self.ascents else 0.0
        for func in KERNEL_FUNCTIONS:
            out[f"kernel.{func}.calls"] = calls.get(f"kernel.{func}", 0)
            out[f"kernel.{func}.matrices"] = self.matrices.get(func, 0)
            out[f"kernel.{func}.s"] = total.get(f"kernel.{func}", 0.0)
        for command in CLI_COMMANDS:
            out[f"cli.{command}.s"] = total.get(f"cli.{command}", 0.0)
        return out

    def dump(self, path: str, extra: dict) -> None:
        """Write the recorded spans as columns, with the run's context."""
        payload = dict(extra)
        payload["spans"] = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
