"""Span tracing of balloc's layers, installed from outside the package.

Every public function of a traced module is replaced by a wrapper that opens
a span named `<layer>.<function>`.  balloc calls its own functions through
module globals (`renyi.renyi_account`, `compose` inside `pld.compose_power`)
and imports some by name into other modules (`mixture_means` into renyi,
condcomp, calibrate and cli; `gram_summary` into renyi), so the wrapper is
bound at every site where the original function object appears.  `uninstall`
puts the originals back.

Spans are kept in memory as [name, start, end, parent, op] records; self time
is a span's duration minus the durations of its children (single-threaded,
so children never overlap).  A few wrappers also count work: orders flagged
exact, hazard steps, PLD points composed and calibration probes.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "calibrate", "renyi", "condcomp", "pld", "mechanism")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._op: int | None = None
        self._bound: list[tuple] = []

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op: int, fn, *args):
        """Run one benchmark operation under a root span named `op`."""
        self._op = op
        idx = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op = None

    def count(self, name: str, value: float) -> None:
        self.counts[self._op][name] += value

    def peak(self, name: str, value: float) -> None:
        counts = self.counts[self._op]
        counts[name] = max(counts[name], value)

    def self_times(self) -> list[tuple[str, int, float]]:
        """(name, op, self seconds) for every span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [
            (name, op, (end - start) - child[i])
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]

    # -- installation ----------------------------------------------------
    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs, after = hook(self, args, kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None and after is not None:
                after(result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of each layer module of `package`."""
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        sites = [package] + [getattr(package, layer) for layer in LAYERS]
        for mod in sites:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._bound.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bound):
            setattr(mod, attr, original)
        self._bound.clear()


# -- work counters ---------------------------------------------------------
# A hook sees the call's arguments before the span opens and may return an
# `after(result)` callback; it returns the (possibly rewritten) arguments.


def _compose_hook(tracer, args, kwargs):
    plds = list(args[0] if args else kwargs.pop("plds"))
    tracer.count("pld.compose.points_in", sum(p.pmf.size for p in plds))

    def after(result):
        tracer.peak("pld.support_max", result.pmf.size)

    return (plds,) + tuple(args[1:]), kwargs, after


def _curve_hook(tracer, args, kwargs):
    def after(curve):
        tracer.count("renyi.orders", len(curve.alphas))
        tracer.count("renyi.orders_exact", int(curve.exact.sum()))

    return args, kwargs, after


def _hazards_hook(tracer, args, kwargs):
    def after(lam):
        tracer.count("condcomp.step_hazards.steps", lam.shape[0])

    return args, kwargs, after


def _smallest_sigma_hook(tracer, args, kwargs):
    delta_fn = args[0] if args else kwargs.pop("delta_fn")

    def probe(sigma):
        start = time.perf_counter()
        try:
            return delta_fn(sigma)
        finally:
            tracer.count("calibrate.probes", 1)
            tracer.count("calibrate.probe_s", time.perf_counter() - start)

    return (probe,) + tuple(args[1:]), kwargs, None


_HOOKS = {
    "pld.compose": _compose_hook,
    "renyi.renyi_curve": _curve_hook,
    "condcomp.step_hazards": _hazards_hook,
    "calibrate.smallest_sigma": _smallest_sigma_hook,
}
