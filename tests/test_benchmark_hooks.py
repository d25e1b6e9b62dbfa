"""The benchmark tracer patches solver internals by name; keep those names alive.

``perfbench/tracing.py`` replaces module attributes of the solvers and
shadows methods of ``DiscreteOperators``.  A rename in the package
would otherwise surface only when the benchmark itself runs.
"""

import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import numpy as np

from ductflow.augmented_lagrangian import Alg2Config, solve_alg2
from ductflow.fem import assemble
from ductflow.mesh import generate_disk_mesh, generate_square_mesh
from ductflow.objective import FluidParams
from ductflow.trust_region import TrsConfig, solve_trs

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_module_patches_resolve():
    tracing = load_tracing()
    for module, attrs in tracing.MODULE_PATCHES.items():
        for name in attrs:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_ops_methods_are_operator_methods():
    tracing = load_tracing()
    ops = assemble(generate_disk_mesh(2), f=1.0)
    for name in tracing.OPS_METHODS:
        assert inspect.ismethod(getattr(ops, name, None)), name


def test_module_patches_are_called(monkeypatch):
    # a patched name the solvers no longer call would read 0 in its
    # per-layer metric without any error
    tracing = load_tracing()
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, attrs in tracing.MODULE_PATCHES.items():
        for name in attrs:
            key = f"{module.__name__}.{name}"
            monkeypatch.setattr(module, name, counted(key, getattr(module, name)))

    tri = generate_square_mesh(8)
    ops = assemble(tri, f=1.0)
    params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
    abstol = 1e-4 * float(np.mean(tri.areas))
    solve_trs(params, ops, cfg=TrsConfig(abstol=abstol, reltol=1e-6))
    solve_alg2(params, ops, Alg2Config(abstol=abstol, reltol=1e-6))
    for module, attrs in tracing.MODULE_PATCHES.items():
        for name in attrs:
            key = f"{module.__name__}.{name}"
            assert calls[key] > 0, key
