"""Per-layer tracing from outside the program.

`LayerTrace.install()` replaces every public function of the specedge
layer modules, and every public method of the classes they define, with a
timing wrapper. A function is replaced in every module namespace that
binds it (`specedge.find_edges`, `specedge.cli.find_edges`,
`specedge.simulate.find_edges`, ...), so calls are seen whichever name the
caller used. `uninstall()` puts the originals back.

Each wrapper records calls, calls made directly by the benchmark (with no
traced function on the stack), inclusive time and self time (inclusive
time minus the time of traced callees). A few wrappers also record counts
derived from their arguments or results, such as pole intervals searched
or swap states built.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "manifest", "population", "spectral", "edges", "tw", "twtest",
          "manova", "simulate", "swaps")


def _pole_intervals(arguments, result):
    vals, _ = arguments["pop"].nonzero()
    return {"edges.pole_intervals": vals.size + 1}


def _spectrum_flops(arguments, result):
    pop = arguments["pop"]
    m, n = pop.total_mult, pop.n_dim
    # Computed from the shapes: the M x N product X'(TX), then a symmetric
    # eigensolve of order N.
    return {"simulate.gflop_computed": (2.0 * m * n * n + 4.0 / 3.0 * n ** 3) / 1e9}


def _replicates(arguments, result):
    return {"simulate.replicates": arguments["cfg"].reps}


COUNTERS = {
    "edges.find_edges": _pole_intervals,
    "simulate.sample_spectrum": _spectrum_flops,
    "simulate.table1_experiment": _replicates,
    "simulate.support_adherence": _replicates,
    "simulate.edge_concentration": _replicates,
    "simulate.local_law_probe": _replicates,
    "swaps.build_swap_sequence": lambda arguments, result: {"swaps.states": len(result)},
    "swaps.export_sequence": lambda arguments, result: {"swaps.export_bytes": len(result.encode())},
    "manifest.atomic_write": lambda arguments, result: {
        "manifest.bytes_written": len(arguments["text"].encode())},
}


class FunctionStats:
    __slots__ = ("calls", "direct_calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = self.direct_calls = self.total_ns = self.self_ns = 0


class LayerTrace:
    def __init__(self):
        self.modules = [importlib.import_module(f"specedge.{name}") for name in LAYERS]
        self.namespaces = [importlib.import_module("specedge"), *self.modules]
        self.stats = defaultdict(FunctionStats)
        self.counts = defaultdict(float)
        self._stack = []          # child time accumulated per active frame, ns
        self._patches = []        # (owner, attribute, original)

    def reset(self):
        self.stats.clear()
        self.counts.clear()

    # -- targets --------------------------------------------------------

    def _targets(self):
        """(traced name, attribute or (class, method), original) for every
        public function and public method defined in a layer module."""
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{attr}", attr, obj
                elif inspect.isclass(obj):
                    for meth, raw in vars(obj).items():
                        if meth.startswith("_"):
                            continue
                        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if inspect.isfunction(fn):
                            yield f"{layer}.{attr}.{meth}", (obj, meth), raw

    def install(self):
        if self._patches:
            raise RuntimeError("trace already installed")
        for name, attr, original in self._targets():
            if isinstance(attr, tuple):          # a method: patch the class once
                cls, meth = attr
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                self._patches.append((cls, meth, original))
                setattr(cls, meth, wrapped)
                continue
            wrapped = self._wrap(name, original)
            for ns in self.namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrapper --------------------------------------------------------

    def _wrap(self, name, fn):
        stats = self.stats
        stack = self._stack
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = stats[name]
            st.calls += 1
            if not stack:
                st.direct_calls += 1
            stack.append(0)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - t0
                child = stack.pop()
                st.total_ns += elapsed
                st.self_ns += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                for key, value in counter(arguments, result).items():
                    counts[key] += value
            return result

        return traced

    # -- results --------------------------------------------------------

    def layer_self_ns(self, layer):
        prefix = layer + "."
        return sum(st.self_ns for name, st in self.stats.items() if name.startswith(prefix))
