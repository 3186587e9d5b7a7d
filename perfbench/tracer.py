"""Outside-in layer tracer for the traced run.

The layers are the modules of ``chipfiring``. The tracer rebinds, from the
outside, every public function that one package module imports from
another (and every function the package namespace re-exports, plus the
given entry points) to a wrapper that charges the call to the callee's
layer. Functions are found by introspection, so a function a later change
adds or renames is traced without editing this file.

Only aggregates are kept: per layer the number of calls, the inclusive time
and the time spent in nested traced calls; per rebound name the number of
calls. A layer's self time is inclusive time minus nested time. Untraced
runs never import this module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "digraph", "linalg", "dynamics", "scripts", "recognition", "order", "oracle")
PACKAGE = "chipfiring"
BENCH = "bench"  # caller name for calls made by the benchmark itself


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    if not module.startswith(PACKAGE + "."):
        return None
    return module.rpartition(".")[2]


def _traceable(obj) -> bool:
    if isinstance(obj, type) or getattr(obj, "__traced__", False):
        return False
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "__wrapped__"))


class Tracer:
    """Aggregating span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # per layer: [calls, inclusive seconds, nested seconds]
        self.layers: dict[str, list] = {}
        # (caller, callee layer, name) -> [calls]
        self.edges: dict[tuple[str, str, str], list] = {}
        self.firings = 0
        self._stack = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, layer: str, caller: str, name: str):
        stats = self.layers.setdefault(layer, [0, 0.0, 0.0])
        edge = self.edges.setdefault((caller, layer, name), [0])
        stack = self._stack
        clock = self.clock
        count_firings = layer == "dynamics" and name in ("stabilize", "stabilize_within")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                nested = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += nested
                edge[0] += 1
            if count_firings and result is not None:
                self.firings += sum(result[1])
            return result

        traced.__traced__ = True
        return traced

    def _rebind(self, module, name: str, obj, caller: str) -> None:
        layer = _layer_of(obj)
        if layer is None or not _traceable(obj):
            return
        self._undo.append((module, name, obj))
        setattr(module, name, self.wrap(obj, layer, caller, name))

    def install(self, entry_points=(("chipfiring.cli", "main"),)) -> None:
        """Rebind cross-module imports, package re-exports and entry points."""
        modules = sorted(
            (name, mod)
            for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        )
        for modname, module in modules:
            caller = BENCH if modname == PACKAGE else modname.rpartition(".")[2]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != modname:
                    self._rebind(module, name, obj, caller)
        for modname, name in entry_points:
            module = sys.modules[modname]
            self._rebind(module, name, getattr(module, name), BENCH)

    def uninstall(self) -> None:
        while self._undo:
            module, name, obj = self._undo.pop()
            setattr(module, name, obj)

    # -- results -----------------------------------------------------------

    def self_seconds(self, layer: str) -> float:
        calls, inclusive, nested = self.layers.get(layer, (0, 0.0, 0.0))
        return inclusive - nested

    def calls(self, layer: str) -> int:
        return self.layers.get(layer, (0,))[0]

    def edge_calls(self, caller: str, names: tuple[str, ...]) -> int:
        return sum(c[0] for (who, _, name), c in self.edges.items() if who == caller and name in names)

    def metrics(self, wall_s: float, untraced_s: float, cache_hits: int, cache_lookups: int) -> dict:
        """Per-layer metrics of a traced pass that took ``wall_s`` of item time
        against ``untraced_s`` for the same items untraced."""
        out = {}
        for layer in LAYERS:
            self_s = self.self_seconds(layer)
            out[f"{layer}.calls"] = (self.calls(layer), "count")
            out[f"{layer}.self_s"] = (self_s, "s")
            out[f"{layer}.share"] = (self_s / wall_s if wall_s else 0.0, "ratio")
        dyn_s = self.self_seconds("dynamics")
        out["dynamics.firings"] = (self.firings, "count")
        out["dynamics.firings_per_s"] = (self.firings / dyn_s if dyn_s else 0.0, "1/s")
        out["recognition.scripts_scanned"] = (self.edge_calls("recognition", ("apply_script",)), "count")
        out["oracle.scripts_scanned"] = (
            self.edge_calls("oracle", ("apply_script", "is_g_strongly_positive")),
            "count",
        )
        out["cache.hit_ratio"] = (cache_hits / cache_lookups if cache_lookups else 0.0, "ratio")
        out["trace.overhead"] = (wall_s / untraced_s if untraced_s else 0.0, "ratio")
        return out
