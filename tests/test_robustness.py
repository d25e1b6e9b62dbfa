"""Unstructured-style meshes: asymmetric node placement and mixed
boundaries.  These runs start far from optimality and drive the
trust-region machinery (rejections, boundary exits, longer CG loops)
much harder than the symmetric ring meshes."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ductflow.augmented_lagrangian import Alg2Config, solve_alg2
from ductflow.fem import assemble
from ductflow.mesh import MeshError, Triangulation, generate_disk_mesh
from ductflow.objective import FluidParams
from ductflow.pipe import PipeSolution, exact_velocity, relative_difference, relative_error
from ductflow.report import abstol_for
from ductflow.trust_region import TrsConfig, solve_trs
from oracles import perturbed_disk


def half_disk(refinement):
    """Upper half disk: no-slip on the arc, free nodes on the diameter.

    The full pipe profile is symmetric about the diameter, so solving on
    the half domain with a traction-free cut must reproduce it.
    """
    n = refinement
    points = [(0.0, 0.0)]
    ring_start = [0]
    for i in range(1, n + 1):
        ring_start.append(len(points))
        angles = np.pi * np.arange(3 * i + 1) / (3 * i)
        radius = i / n
        points.extend(zip(radius * np.cos(angles), radius * np.sin(angles)))
    nodes = np.asarray(points)

    triangles = []
    first = ring_start[1]
    for j in range(3):
        triangles.append((0, first + j, first + j + 1))
    for i in range(2, n + 1):
        s_in, s_out = ring_start[i - 1], ring_start[i]
        m, big = 3 * (i - 1) + 1, 3 * i + 1
        a = b = 0
        while a < m - 1 or b < big - 1:
            next_in = np.pi * (a + 1) / (m - 1) if a < m - 1 else np.inf
            next_out = np.pi * (b + 1) / (big - 1) if b < big - 1 else np.inf
            if next_out <= next_in:
                triangles.append((s_in + a, s_out + b, s_out + b + 1))
                b += 1
            else:
                triangles.append((s_in + a, s_out + b, s_in + a + 1))
                a += 1

    radii = np.hypot(nodes[:, 0], nodes[:, 1])
    dirichlet = np.abs(radii - 1.0) <= 1e-12
    return Triangulation(nodes, np.asarray(triangles), dirichlet)


class TestPerturbedDisk:
    def test_mesh_is_valid_and_asymmetric(self):
        tri = perturbed_disk(8)
        assert tri.n_nodes == generate_disk_mesh(8).n_nodes
        # perturbation really moved the interior
        assert np.abs(tri.nodes - generate_disk_mesh(8).nodes).max() > 1e-3

    @pytest.mark.parametrize("alpha,tau0", [(2.0, 0.1), (2.0, 0.2), (1.5, 0.2)])
    def test_trs_converges_from_suboptimal_start(self, alpha, tau0):
        tri = perturbed_disk(10)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=alpha, kappa=1.0, tau0=tau0)
        tau, y, report = solve_trs(params, ops)
        assert report.converged
        assert report.kkt_history[-1] <= 1e-4
        # the asymmetric start actually exercises the outer loop
        assert report.iterations > 1
        bound = 1e-8 * (1.0 + np.abs(ops.f_h).max())
        assert max(report.feasibility_history) <= bound
        values = np.asarray(report.objective_history)
        assert np.all(np.diff(values) <= 1e-12 * (1.0 + values[0]))

    def test_solvers_agree_on_perturbed_mesh(self):
        tri = perturbed_disk(10)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=1.75, kappa=1.0, tau0=0.2)
        _, y_trs, rep_trs = solve_trs(params, ops)
        y_alg2, _, _, rep_alg2 = solve_alg2(params, ops)
        assert rep_trs.converged and rep_alg2.converged
        assert relative_difference(y_trs, y_alg2) <= 5e-3

    @settings(max_examples=20, deadline=None)
    @given(amplitude=st.floats(0.05, 0.3), alpha=st.sampled_from([1.5, 1.75, 2.0]),
           tau0=st.floats(0.05, 0.3), seed=st.integers(0, 2**32 - 1))
    def test_solver_invariants_hold_on_random_meshes(self, amplitude, alpha, tau0, seed):
        try:
            tri = perturbed_disk(6, amplitude, seed)
        except MeshError:
            reject()  # about 1 in 30 jiggles at amplitude 0.3 folds a triangle over
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=alpha, kappa=1.0, tau0=tau0)
        abstol = abstol_for(tri)
        _, y_trs, rep_trs = solve_trs(params, ops, cfg=TrsConfig(abstol=abstol, reltol=1e-6))
        y_alg2, _, _, rep_alg2 = solve_alg2(params, ops,
                                            cfg=Alg2Config(abstol=abstol, reltol=1e-6))
        for rep in (rep_trs, rep_alg2):
            assert rep.converged
            assert rep.kkt_history[-1] <= abstol
        assert max(rep_trs.feasibility_history) <= 1e-8 * (1.0 + np.abs(ops.f_h).max())
        assert np.all(np.diff(rep_trs.objective_history) <= 0.0)
        assert relative_difference(y_trs, y_alg2) <= 5e-3

    def test_error_against_profile_stays_reasonable(self):
        tri = perturbed_disk(12)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
        _, y, report = solve_trs(params, ops)
        assert report.converged
        assert relative_error(y, tri, PipeSolution(params)) <= 1e-2


class TestHalfDiskNeumann:
    def test_mesh_shape(self):
        tri = half_disk(8)
        assert tri.areas.sum() == pytest.approx(np.pi / 2, rel=0.02)
        # diameter nodes (including the two arc corners' neighbours) are free
        on_cut = np.abs(tri.nodes[:, 1]) <= 1e-12
        free_cut = on_cut & ~tri.is_dirichlet
        assert free_cut.sum() > 2

    @pytest.mark.parametrize("alpha,tau0", [(2.0, 0.1), (1.5, 0.2)])
    def test_reproduces_full_pipe_profile(self, alpha, tau0):
        # oracle: the symmetric pipe solution restricted to the half disk;
        # the cut contributes no boundary term because the exact stress is
        # radial there
        tri = half_disk(10)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=alpha, kappa=1.0, tau0=tau0)
        _, y, report = solve_trs(params, ops)
        assert report.converged

        sol = PipeSolution(params)
        coords = tri.nodes[tri.free_nodes]
        exact = exact_velocity(sol, np.hypot(coords[:, 0], coords[:, 1]))
        rel = np.linalg.norm(y - exact) / np.linalg.norm(exact)
        assert rel <= 1e-2

        # velocity on the traction-free cut is far from zero: the cut
        # passes through the centreline where the profile peaks
        cut = np.abs(coords[:, 1]) <= 1e-12
        assert cut.any()
        assert np.abs(y[cut]).max() > 0.5 * exact_velocity(sol, 0.0)

    def test_extreme_shear_thinning_converges(self):
        # near alpha = 1 the profile is almost a plug with a steep wall
        # layer; both solvers must still reach their stopping tests even
        # though P1 elements cannot resolve the layer accurately.  The
        # plain area-weighted stop: at abstol_for(tri) ALG2 runs to its cap
        tri = half_disk(8)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=1.1, kappa=1.0, tau0=0.2)
        _, _, rep_trs = solve_trs(params, ops, TrsConfig(abstol=1e-4, reltol=1e-4))
        _, _, _, rep_alg2 = solve_alg2(params, ops, Alg2Config(abstol=1e-4, reltol=1e-4))
        assert rep_trs.converged and rep_alg2.converged
        assert rep_trs.kkt_history[-1] <= 1e-4
        assert rep_alg2.kkt_history[-1] <= 1e-4

    def test_alg2_matches_trs_on_mixed_boundary(self):
        tri = half_disk(8)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.2)
        _, y_trs, rep_trs = solve_trs(params, ops)
        y_alg2, _, _, rep_alg2 = solve_alg2(params, ops)
        assert rep_trs.converged and rep_alg2.converged
        assert relative_difference(y_trs, y_alg2) <= 5e-3


def test_velocity_underflows_to_zero_near_alpha_one():
    # beta = 1/(alpha - 1) = 10^4: the stress exceeds tau0 by at most 0.4
    # (the wall stress f R / 2 = 0.5; 0.33 on this mesh), and 0.4^(10^4)
    # underflows, so the exact velocity is 0 in double precision.  TRS's
    # y = 0 is right, and ALG2's velocity is noise at its own tolerance.
    params = FluidParams(alpha=1.0001, kappa=1.0, tau0=0.1)
    assert exact_velocity(PipeSolution(params), 0.0) == 0.0
    ops = assemble(generate_disk_mesh(3), f=1.0)
    _, y_trs, _ = solve_trs(params, ops)
    y_alg2, _, _, _ = solve_alg2(params, ops)
    assert np.abs(y_trs).max() <= 1e-10
    assert np.abs(y_alg2).max() <= 1e-10
