"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

import json
import random

import numpy as np
import pytest

from ductflow import augmented_lagrangian, trust_region
from ductflow.mesh import generate_disk_mesh
from ductflow.objective import gradient
from run import ROOT, run_pass, write_spec
from tracing import MODULE_PATCHES, Tracer, self_times
from workloads import (SQUARE_N, Pass, abstol_for, load_square_refs, mesh_fingerprint,
                       square_duct_mesh)


def test_self_times_of_synthetic_spans():
    spans = [
        ["solve", 0.0, 10.0, -1],
        ["cg", 1.0, 4.0, 0],
        ["apply", 2.0, 3.0, 1],
        ["cg", 5.0, 6.0, 0],
        ["solve", 20.0, 22.0, -1],
    ]
    times = self_times(spans)
    assert times["solve"] == (6.0 + 2.0, 2)
    assert times["cg"] == (2.0 + 1.0, 2)
    assert times["apply"] == (1.0, 1)


def test_scaled_seconds_use_the_samples_around_each_region(tmp_path):
    from calibration import REFERENCE_S

    p = Pass(tmp_path)
    p.samples = [(0.0, REFERENCE_S), (2.0, 2.0 * REFERENCE_S), (5.0, 2.0 * REFERENCE_S)]
    p.regions = [("alg2", 0.5, 1.5), ("export", 3.0, 4.0)]
    p.seconds.update(alg2=1.0, export=1.0, calibration=0.5)
    p.seconds["pass"] = 3.5   # 1.0 s outside regions and calibration
    scaled = p.scaled_seconds()
    assert scaled["alg2"] == pytest.approx(1.0 / 1.5)
    assert scaled["export"] == pytest.approx(0.5)
    assert scaled["scale"] == pytest.approx(0.6)
    assert scaled["pass"] == pytest.approx(1.0 / 1.5 + 0.5 + 0.6)


def test_tracer_nests_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        tracer.wrap("inner", lambda: None)()
    (outer, o_start, o_end, o_parent), (inner, i_start, i_end, i_parent) = tracer.spans
    assert (outer, o_parent, inner, i_parent) == ("outer", -1, "inner", 0)
    assert o_start <= i_start <= i_end <= o_end


@pytest.mark.parametrize("n", [4, SQUARE_N])
def test_square_mesh_is_valid(n):
    tri = square_duct_mesh(n)
    assert tri.n_triangles == 2 * n * n
    assert tri.n_nodes == (n + 1) ** 2
    assert np.isclose(tri.areas.sum(), 4.0, rtol=0, atol=1e-12)
    on_rim = np.isclose(np.abs(tri.nodes).max(axis=1), 1.0, rtol=0, atol=0)
    assert np.array_equal(tri.is_dirichlet, on_rim)
    assert tri.n_free == (n - 1) ** 2


def test_square_references_match_the_mesh():
    refs = load_square_refs()
    tri = square_duct_mesh()
    assert refs["sha256"] == mesh_fingerprint(tri)
    for velocity in refs["velocity"].values():
        assert velocity.shape == (tri.n_free,)
        assert np.all(np.isfinite(velocity)) and velocity.max() > 0.0


def test_tolerance_conversion():
    tri = square_duct_mesh(32)
    assert abstol_for(tri) == pytest.approx(1e-4 * 4.0 / 2048, rel=1e-12)
    assert abstol_for(tri, 2e-4) == pytest.approx(2.0 * abstol_for(tri), rel=1e-12)
    # halving h quarters the area-weighted tolerance
    coarse = square_duct_mesh(16)
    assert abstol_for(coarse) == pytest.approx(4.0 * abstol_for(tri), rel=1e-12)
    disk = generate_disk_mesh(12)
    assert abstol_for(disk) == pytest.approx(1e-4 * disk.areas.sum() / disk.n_triangles)


class _SmallSquare:
    """Both solvers on one Herschel-Bulkley and one Bingham cell of an 8x8 square."""

    def __init__(self):
        self.fields = []

    def run(self, p, rng):
        from ductflow.objective import FluidParams

        ops = p.assemble(p.build(square_duct_mesh, 8))
        for alpha in (1.5, 2.0):
            for s in p.solve_both(FluidParams(alpha=alpha, kappa=1.0, tau0=0.1), ops):
                self.fields.append((s.y, s.tau, s.report.iterations))


def test_traced_velocities_are_bit_identical(tmp_path):
    originals = {(m, a): getattr(m, a) for m, attrs in MODULE_PATCHES.items() for a in attrs}
    untraced, traced = _SmallSquare(), _SmallSquare()
    run_pass(untraced, random.Random(0), tmp_path)
    traced_pass = run_pass(traced, random.Random(0), tmp_path, Tracer())
    assert len(untraced.fields) == len(traced.fields) == 4
    for (y_a, tau_a, it_a), (y_b, tau_b, it_b) in zip(untraced.fields, traced.fields):
        assert np.array_equal(y_a, y_b) and np.array_equal(tau_a, tau_b) and it_a == it_b
    names = {span[0] for span in traced_pass.tracer.spans}
    assert {"trust_region.solve", "objective.hessian_apply", "fem.solve_ddt",
            "augmented_lagrangian.solve", "fem.solve_stiffness"} <= names
    assert all(getattr(m, a) is fn for (m, a), fn in originals.items())
    assert trust_region.gradient is augmented_lagrangian.gradient is gradient


def test_pass_counts_unconverged_solves_as_failed(tmp_path):
    from ductflow.objective import FluidParams
    from ductflow.trust_region import TrsConfig

    p = Pass(tmp_path)
    ops = p.assemble(square_duct_mesh(8))
    p.solve_trs(FluidParams(alpha=2.0, tau0=0.1), ops, TrsConfig(abstol=1e-12, max_outer=2))
    p.gate(p.solves[-1])
    assert p.solves[-1].failure.startswith("max_iterations")
    assert not p.wrong


def test_benchmark_json_matches_the_definitions(tmp_path):
    write_spec(tmp_path / "BENCHMARK.json")
    assert (json.loads((tmp_path / "BENCHMARK.json").read_text())
            == json.loads((ROOT / "BENCHMARK.json").read_text()))
