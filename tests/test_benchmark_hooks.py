"""The benchmark calls and patches the package by name; keep those names alive.

``perfbench/tracing.py`` replaces module attributes of the solvers and
shadows methods of ``DiscreteOperators``; ``perfbench/workloads.py``
calls the writers and mesh I/O.  A rename in the package would otherwise
surface only when the benchmark itself runs.  ``workloads.py`` also keeps
its own copies of the grid, the arrested-flow bound, the reference error
table, the square mesher and the stopping tolerance; a change to the
package's values that did not reach the benchmark would fail here.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ductflow import experiments, export
from ductflow.augmented_lagrangian import Alg2Config, solve_alg2
from ductflow.fem import assemble
from ductflow.mesh import generate_disk_mesh, generate_square_mesh, load_mesh, save_mesh
from ductflow.objective import FluidParams
from ductflow.report import abstol_for
from ductflow.trust_region import TrsConfig, solve_trs
from test_acceptance import REFERENCE_TRS_ERRORS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # workloads.py imports its sibling modules by their bare names, and
    # its dataclasses look their module up in sys.modules
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        patch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return load_perfbench("workloads")


def test_module_patches_resolve():
    tracing = load_perfbench("tracing")
    for module, attrs in tracing.MODULE_PATCHES.items():
        for name in attrs:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_ops_methods_are_operator_methods():
    tracing = load_perfbench("tracing")
    ops = assemble(generate_disk_mesh(2), f=1.0)
    for name in tracing.OPS_METHODS:
        assert inspect.ismethod(getattr(ops, name, None)), name


def test_module_patches_are_called(monkeypatch):
    # a patched name the solvers no longer call would read 0 in its
    # per-layer metric without any error
    tracing = load_perfbench("tracing")
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
    abstol = abstol_for(tri)
    solve_trs(params, ops, cfg=TrsConfig(abstol=abstol, reltol=1e-6))
    solve_alg2(params, ops, Alg2Config(abstol=abstol, reltol=1e-6))
    for module, attrs in tracing.MODULE_PATCHES.items():
        for name in attrs:
            key = f"{module.__name__}.{name}"
            assert calls[key] > 0, key


def test_workload_names_resolve():
    # every name workloads.py imports from ductflow, and every attribute
    # it reads from an imported ductflow module, must exist
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("ductflow"):
            source = importlib.import_module(node.module)
            for alias in node.names:
                # as ``from package import name`` does, fall back to a submodule
                value = getattr(source, alias.name, None) or \
                    importlib.import_module(f"{node.module}.{alias.name}")
                if inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value
    assert "export" in modules
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            assert hasattr(modules[node.value.id], node.attr), f"{node.value.id}.{node.attr}"



def test_reference_generator_keywords_are_config_fields():
    # nothing runs make_square_refs.py, so a config field it sets and the
    # package drops would break the reference generator silently
    tree = ast.parse((PERFBENCH / "make_square_refs.py").read_text(encoding="utf-8"))
    configs = {"Alg2Config": Alg2Config, "TrsConfig": TrsConfig}
    used = {name: set() for name in configs}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in configs):
            used[node.func.id].update(kw.arg for kw in node.keywords)
    for name, keywords in used.items():
        fields = {field.name for field in dataclasses.fields(configs[name])}
        assert keywords and keywords <= fields, (name, keywords - fields)


def test_reference_generator_names_resolve():
    # nothing runs make_square_refs.py, so a name it imports from ductflow
    # and the package drops would break the reference generator silently
    tree = ast.parse((PERFBENCH / "make_square_refs.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("ductflow")]
    assert imports
    for node in imports:
        source = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(source, alias.name), f"{node.module}.{alias.name}"


def test_writers_accept_the_benchmark_calls(tmp_path):
    # the call shapes of workloads.Pass.export and Pass.mesh_round_trip
    tri = generate_disk_mesh(2)
    params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
    tau, y, report = solve_trs(params, assemble(tri, f=1.0))
    paths = [tmp_path / name for name in
             ("velocity_0.csv", "stress_0.csv", "solution_0.vtk", "report_0.json")]
    export.write_velocity_csv(paths[0], tri, y)
    export.write_stress_csv(paths[1], tau, params.tau0)
    export.write_vtk(paths[2], tri, y, tau, params.tau0)
    export.write_report_json(paths[3], report, {
        "solver": "trs", "alpha": params.alpha, "tau0": params.tau0, "kappa": params.kappa,
        "mesh": "disk:2", "n_nodes": tri.n_nodes, "n_triangles": tri.n_triangles})
    assert all(p.stat().st_size > 0 for p in paths)
    written = np.loadtxt(paths[0], delimiter=",", skiprows=1, ndmin=2)[:, 2]
    assert np.array_equal(written, export.expand_velocity(tri, y))

    save_mesh(tri, tmp_path / "mesh.txt")
    loaded = load_mesh(tmp_path / "mesh.txt")
    for a, b in ((loaded.nodes, tri.nodes), (loaded.triangles, tri.triangles),
                 (loaded.is_dirichlet, tri.is_dirichlet)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("mesh", ["disk:12", "disk:19", "disk:26", "disk:120", "square:32"])
def test_benchmark_tolerance_is_the_library_rule(workloads, mesh):
    kind, n = mesh.split(":")
    make = generate_disk_mesh if kind == "disk" else generate_square_mesh
    tri = make(int(n))
    assert workloads.abstol_for(tri).hex() == abstol_for(tri).hex()
    assert workloads.solver_configs(tri) == (TrsConfig(abstol=abstol_for(tri)),
                                             Alg2Config(abstol=abstol_for(tri)))


def without_wall_time(report):
    data = report.to_dict()
    del data["wall_time"]
    return data


@pytest.mark.parametrize("alpha", [1.5, 2.0])
@pytest.mark.parametrize("mesh", [generate_disk_mesh(4), generate_square_mesh(8)],
                         ids=["disk:4", "square:8"])
def test_solvers_given_no_config_solve_as_the_benchmark_does(workloads, mesh, alpha):
    # run_cell, solve and the README pass no config; pipe_grid passes its own
    ops = assemble(mesh, f=1.0)
    params = FluidParams(alpha=alpha, kappa=1.0, tau0=0.1)
    trs_cfg, alg2_cfg = workloads.solver_configs(mesh)
    tau, y, report = solve_trs(params, ops)
    tau_b, y_b, report_b = solve_trs(params, ops, trs_cfg)
    assert tau.tobytes() == tau_b.tobytes() and y.tobytes() == y_b.tobytes()
    assert without_wall_time(report) == without_wall_time(report_b)
    y, _, tau, report = solve_alg2(params, ops)
    y_b, _, tau_b, report_b = solve_alg2(params, ops, alg2_cfg)
    assert tau.tobytes() == tau_b.tobytes() and y.tobytes() == y_b.tobytes()
    assert without_wall_time(report) == without_wall_time(report_b)


def test_benchmark_copies_match_the_package(workloads):
    assert workloads.PIPE_REFINEMENTS == experiments.DEFAULT_REFINEMENTS
    assert workloads.PIPE_ALPHAS == experiments.DEFAULT_ALPHAS
    assert workloads.PIPE_TAU0S == experiments.DEFAULT_TAU0S
    assert workloads.ARRESTED_VELOCITY_GATE == experiments.ARRESTED_VELOCITY_BOUND
    assert workloads.TABLE_TRS_ERRORS == REFERENCE_TRS_ERRORS
    assert (workloads.mesh_fingerprint(workloads.square_duct_mesh())
            == workloads.mesh_fingerprint(generate_square_mesh(32)))
