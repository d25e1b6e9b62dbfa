"""The benchmark tracer patches solver internals by name; keep those names alive.

``perfbench/tracing.py`` replaces module attributes of the solvers and
shadows methods of ``DiscreteOperators``.  A rename in the package
would otherwise surface only when the benchmark itself runs.
"""

import importlib.util
import inspect
from pathlib import Path

from ductflow.fem import assemble
from ductflow.mesh import generate_disk_mesh

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
