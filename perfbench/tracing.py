"""In-memory spans around calls into the ductflow layers.

Tracing lives entirely outside the package: the solvers' module-level
names (``ductflow.trust_region.gradient`` and so on) are replaced by
wrappers for the duration of a traced pass and restored afterwards, and
the methods of a ``DiscreteOperators`` instance are shadowed by wrapped
instance attributes.  A span is ``[name, start, end, parent]`` with
``parent`` the index of the enclosing span, or -1 at the top.
"""

from __future__ import annotations

import contextlib
import math
from collections import defaultdict
from time import perf_counter

from ductflow import augmented_lagrangian, trust_region

# Module attributes the solvers call by their imported names, and the
# span each one records.
MODULE_PATCHES = {
    trust_region: {
        "gradient": "objective.gradient",
        "hessian": "objective.hessian",
        "hessian_apply": "objective.hessian_apply",
        "objective": "objective.objective",
        "cg_steihaug": "trust_region.cg_steihaug",
    },
    augmented_lagrangian: {
        "gradient": "objective.gradient",
        "objective": "objective.objective",
    },
}

OPS_METHODS = ("solve_ddt", "solve_stiffness", "project_feasible", "recover_velocity",
               "project_nullspace", "velocity_gradient", "momentum_residual")


class Tracer:
    """Records nested spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), math.nan, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    @contextlib.contextmanager
    def instrument(self):
        """Replace the solvers' module attributes by traced wrappers."""
        with contextlib.ExitStack() as stack:
            for module, attrs in MODULE_PATCHES.items():
                stack.enter_context(patched(module, **{
                    attr: self.wrap(span, getattr(module, attr))
                    for attr, span in attrs.items()}))
            yield

    def instrument_ops(self, ops) -> None:
        """Shadow the methods of one operator set by traced instance attributes."""
        for method in OPS_METHODS:
            setattr(ops, method, self.wrap(f"fem.{method}", getattr(ops, method)))


class NullTracer:
    """The untraced stand-in: every hook is a no-op."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def instrument(self):
        return contextlib.nullcontext()

    def instrument_ops(self, ops) -> None:
        pass


@contextlib.contextmanager
def patched(module, **attrs):
    """Set attributes of ``module`` for the duration of the block."""
    originals = {name: getattr(module, name) for name in attrs}
    try:
        for name, value in attrs.items():
            setattr(module, name, value)
        yield
    finally:
        for name, value in originals.items():
            setattr(module, name, value)


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Self time and call count per span name.

    A span's self time is its duration minus the durations of its
    direct children; spans are properly nested because the benchmark
    runs in one thread.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(lambda: [0.0, 0])
    for (name, start, end, _), inner in zip(spans, child):
        totals[name][0] += end - start - inner
        totals[name][1] += 1
    return {name: (seconds, calls) for name, (seconds, calls) in totals.items()}
