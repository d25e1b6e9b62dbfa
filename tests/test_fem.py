import numpy as np
import pytest
from scipy.sparse.linalg import splu

from ductflow.augmented_lagrangian import solve_alg2
from ductflow.fem import FactorizationError, assemble
from ductflow.mesh import Triangulation, generate_disk_mesh
from ductflow.objective import FluidParams
from ductflow.trust_region import solve_trs
from oracles import (independent_constraint_matrix, independent_stiffness, jittered_square,
                     perturbed_disk)


def stiffness_inverse(ops):
    """Columns ``solve_stiffness(e_i)``: the inverse of the factorised stiffness."""
    return np.column_stack([ops.solve_stiffness(e) for e in np.eye(ops.n_free)])


class TestAssembly:
    def test_all_dirichlet_triangle_has_empty_free_set(self):
        # no free node: the 0 x 0 systems factorise and solve to empty
        # arrays, and both solvers stop at once on the projected start
        tri = Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)], np.ones(3, dtype=bool))
        ops = assemble(tri, f=1.0)
        assert ops.D.shape == (0, 2)
        assert ops.f_h.shape == (0,)
        assert ops.solve_ddt(np.zeros(0)).shape == (0,)
        assert ops.solve_stiffness(np.zeros(0)).shape == (0,)
        assert ops.recover_velocity(np.array([1.0, 2.0])).shape == (0,)
        np.testing.assert_array_equal(ops.project_feasible(np.array([1.0, 2.0])),
                                      [1.0, 2.0])
        np.testing.assert_array_equal(ops.project_nullspace(np.array([1.0, 2.0])),
                                      [1.0, 2.0])
        assert ops.momentum_residual(np.array([1.0, 2.0])) == 0.0

        start = ops.project_feasible(np.zeros(ops.n_stress))
        for alpha in (2.0, 1.5):
            params = FluidParams(alpha=alpha, kappa=1.0, tau0=0.1)
            tau, y, report = solve_trs(params, ops)
            assert report.status == "converged" and y.shape == (0,)
            np.testing.assert_array_equal(tau, start)
            y, _, tau, report = solve_alg2(params, ops)
            assert report.status == "converged" and y.shape == (0,)
            np.testing.assert_array_equal(tau, start)

    def test_load_vector_hand_quadrature(self, square_two_triangles):
        # derived by hand: the free node touches both half-area triangles,
        # each contributing |T|/3 = 1/6
        ops = assemble(square_two_triangles, f=1.0)
        np.testing.assert_allclose(ops.f_h, [1.0 / 3.0], rtol=1e-15)

    @pytest.mark.parametrize("force", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scalar_force_rejected(self, square_center_mesh, force):
        with pytest.raises(ValueError, match="finite"):
            assemble(square_center_mesh, f=force)

    @pytest.mark.parametrize("build", [perturbed_disk, jittered_square])
    def test_constraint_matrix_matches_reference_element_route(self, build):
        # every stored entry, entry by entry, against |T| times the
        # gradients of the reference-element map; one entry per free corner
        # and stress component, so the pattern is the reference's too
        tri = build(6)
        D = assemble(tri).D
        ref = independent_constraint_matrix(tri)
        assert D.nnz == 2 * int((tri.free_index[tri.triangles] >= 0).sum())
        np.testing.assert_allclose(D.toarray(), ref, rtol=0, atol=1e-14 * np.abs(ref).max())

    def test_cached_transpose_products_bit_identical(self, disk3_ops):
        rng = np.random.default_rng(11)
        for _ in range(3):
            v = rng.standard_normal(disk3_ops.n_free)
            np.testing.assert_array_equal(disk3_ops.DT @ v, disk3_ops.D.T @ v)

    def test_constant_force_scales_load(self, disk2_ops):
        tri = disk2_ops.tri
        double = assemble(tri, f=2.0)
        np.testing.assert_allclose(double.f_h, 2.0 * disk2_ops.f_h, rtol=1e-15)

    def test_area_diagonal(self, disk2_ops):
        tri = disk2_ops.tri
        assert disk2_ops.area2.shape == (2 * tri.n_triangles,)
        np.testing.assert_array_equal(disk2_ops.area2[0::2], tri.areas)
        np.testing.assert_array_equal(disk2_ops.area2[1::2], tri.areas)

    def test_rows_supported_on_incident_triangles(self, disk3_ops):
        tri = disk3_ops.tri
        D = disk3_ops.D.tocsr()
        for node in tri.free_nodes[:5]:
            row = D[tri.free_index[node]].toarray().ravel()
            incident = {k for k, tri_nodes in enumerate(tri.triangles) if node in tri_nodes}
            touched = {col // 2 for col in np.flatnonzero(row)}
            assert touched <= incident

    def test_stiffness_matches_independent_assembly(self, square_center_mesh):
        # the factorised matrix inverts the independently assembled one
        for tri in (square_center_mesh, generate_disk_mesh(2)):
            ops = assemble(tri, f=1.0)
            product = independent_stiffness(tri) @ stiffness_inverse(ops)
            assert np.abs(product - np.eye(ops.n_free)).max() <= 1e-12

    def test_stiffness_is_spd(self, disk3_ops):
        # a matrix is SPD exactly when its inverse is
        inverse = stiffness_inverse(disk3_ops)
        assert np.abs(inverse - inverse.T).max() <= 1e-14 * np.abs(inverse).max()
        assert np.linalg.eigvalsh(inverse).min() > 0.0

    @pytest.mark.parametrize("build", [generate_disk_mesh, perturbed_disk, jittered_square])
    def test_factorised_matrices_are_symmetric(self, monkeypatch, build):
        # the solves use the transposed factors, which solve the factorised
        # system itself only if it equals its transpose bit for bit
        import ductflow.fem as fem
        factorised = []
        def spy(matrix, **kwargs):
            factorised.append(matrix)
            return splu(matrix, **kwargs)
        monkeypatch.setattr(fem, "splu", spy)
        assemble(build(4), f=1.0)
        assert len(factorised) == 2
        for matrix in factorised:
            rows, cols = matrix.tocsr(), matrix.T.tocsr()
            np.testing.assert_array_equal(rows.indptr, cols.indptr)
            np.testing.assert_array_equal(rows.indices, cols.indices)
            assert rows.data.tobytes() == cols.data.tobytes()

    def test_rank_deficiency_reported(self, monkeypatch):
        import ductflow.fem as fem
        def boom(matrix, **kwargs):
            raise RuntimeError("Factor is exactly singular")
        monkeypatch.setattr(fem, "splu", boom)
        with pytest.raises(FactorizationError, match="D\\*D\\^T"):
            assemble(generate_disk_mesh(1), f=1.0)


class TestSolves:
    @pytest.mark.parametrize("which", ["ddt", "stiffness"])
    def test_zero_rhs(self, disk2_ops, which):
        solve = getattr(disk2_ops, f"solve_{which}")
        np.testing.assert_array_equal(solve(np.zeros(disk2_ops.n_free)), 0.0)

    def test_constructed_identity(self, disk2_ops):
        e1 = np.zeros(disk2_ops.n_free)
        e1[0] = 1.0
        gram = disk2_ops.D @ disk2_ops.D.T
        x = disk2_ops.solve_ddt(gram @ e1)
        assert np.abs(x - e1).max() <= 1e-10

    @pytest.mark.parametrize("which", ["ddt", "stiffness"])
    def test_matches_dense_oracle(self, square_center_mesh, disk2_ops, which):
        rng = np.random.default_rng(7)
        for ops in (assemble(square_center_mesh), disk2_ops, assemble(perturbed_disk(4))):
            rhs = rng.standard_normal(ops.n_free)
            if which == "ddt":
                dense = (ops.D @ ops.D.T).toarray()
                x = ops.solve_ddt(rhs)
            else:
                dense = independent_stiffness(ops.tri)
                x = ops.solve_stiffness(rhs)
            oracle = np.linalg.solve(dense, rhs)
            assert np.abs(x - oracle).max() <= 1e-10 * (1.0 + np.abs(oracle).max())

    def test_poisson_convergence_on_disk(self):
        # oracle: y(R) = (1 - R^2)/4 solves the unit-force Poisson problem
        errors = []
        for n in (3, 6, 12):
            tri = generate_disk_mesh(n)
            ops = assemble(tri, f=1.0)
            y = ops.solve_stiffness(ops.f_h)
            coords = tri.nodes[tri.free_nodes]
            exact = (1.0 - (coords ** 2).sum(axis=1)) / 4.0
            errors.append(np.abs(y - exact).max())
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 2e-3


class TestProjections:
    def test_project_feasible_reaches_manifold(self, disk3_ops):
        rng = np.random.default_rng(3)
        tau = rng.standard_normal(disk3_ops.n_stress)
        proj = disk3_ops.project_feasible(tau)
        bound = 1e-9 * (1.0 + np.abs(disk3_ops.f_h).max())
        assert disk3_ops.momentum_residual(proj) <= bound

    def test_projection_idempotent(self, disk3_ops):
        rng = np.random.default_rng(4)
        tau = rng.standard_normal(disk3_ops.n_stress)
        once = disk3_ops.project_feasible(tau)
        twice = disk3_ops.project_feasible(once)
        assert np.abs(twice - once).max() <= 1e-12 * (1.0 + np.abs(once).max())

    def test_feasible_point_unchanged(self, disk3_ops):
        tau = disk3_ops.project_feasible(np.zeros(disk3_ops.n_stress))
        again = disk3_ops.project_feasible(tau)
        assert np.abs(again - tau).max() <= 1e-12 * (1.0 + np.abs(tau).max())

    def test_zero_initializer_formula(self, disk3_ops):
        # projecting the origin must produce A^-1 D^T (D A^-1 D^T)^-1 f_h,
        # computed here by dense elimination
        ops = disk3_ops
        proj = ops.project_feasible(np.zeros(ops.n_stress))
        dense = np.linalg.solve(independent_stiffness(ops.tri), ops.f_h)
        expected = (ops.D.T @ dense) / ops.area2
        assert np.abs(proj - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())

    def test_recover_velocity_zero(self, disk2_ops):
        np.testing.assert_array_equal(
            disk2_ops.recover_velocity(np.zeros(disk2_ops.n_stress)), 0.0)

    def test_recover_velocity_exact_on_range(self, disk2_ops):
        rng = np.random.default_rng(5)
        w = rng.standard_normal(disk2_ops.n_free)
        y = disk2_ops.recover_velocity(disk2_ops.D.T @ w)
        assert np.abs(y - w).max() <= 1e-10 * (1.0 + np.abs(w).max())

    def test_recover_velocity_least_squares_orthogonality(self, disk2_ops):
        rng = np.random.default_rng(6)
        grad = rng.standard_normal(disk2_ops.n_stress)
        y = disk2_ops.recover_velocity(grad)
        residual = disk2_ops.D @ (grad - disk2_ops.D.T @ y)
        assert np.abs(residual).max() <= 1e-10 * (1.0 + np.abs(grad).max())

    def test_nullspace_annihilates_range_of_Dt(self, disk2_ops):
        rng = np.random.default_rng(8)
        w = rng.standard_normal(disk2_ops.n_free)
        g = disk2_ops.project_nullspace(disk2_ops.D.T @ w)
        assert np.abs(g).max() <= 1e-10 * (1.0 + np.abs(w).max())

    def test_nullspace_fixes_null_vectors(self, disk2_ops):
        rng = np.random.default_rng(9)
        v = disk2_ops.project_nullspace(rng.standard_normal(disk2_ops.n_stress))
        again = disk2_ops.project_nullspace(v)
        assert np.abs(again - v).max() <= 1e-12 * (1.0 + np.abs(v).max())

    def test_nullspace_range_orthogonal_to_range_of_Dt(self, disk2_ops):
        rng = np.random.default_rng(10)
        v = rng.standard_normal(disk2_ops.n_stress)
        w = rng.standard_normal(disk2_ops.n_free)
        inner = float(disk2_ops.project_nullspace(v) @ (disk2_ops.D.T @ w))
        assert abs(inner) <= 1e-10 * (1.0 + np.linalg.norm(v) * np.linalg.norm(w))

    def test_velocity_gradient_is_p0_gradient(self, square_center_mesh):
        # linear field y = x restricted to free nodes has gradient (1, 0);
        # check against the discrete gradient of the matching nodal vector
        ops = assemble(square_center_mesh)
        y_lin = square_center_mesh.nodes[square_center_mesh.free_nodes, 0]
        grad = ops.velocity_gradient(y_lin).reshape(-1, 2)
        # Dirichlet corners hold zeros, so compare with a hand value on the
        # bottom triangle (0, 1, 4) of area 1/4: only node 4 contributes,
        # 0.5 * grad phi_4 = 0.5 * perp((1, 0) - (0, 0)) / (2 * 1/4) = (0, 1)
        np.testing.assert_allclose(grad[0], [0.0, 1.0], rtol=1e-13)
