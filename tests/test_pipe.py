import numpy as np
import pytest

from ductflow.fem import assemble
from ductflow.mesh import generate_disk_mesh
from ductflow.objective import FluidParams
from ductflow.pipe import (PipeSolution, exact_velocity, relative_difference,
                           relative_error)
from ductflow.trust_region import solve_trs


def solution(alpha=2.0, tau0=0.1):
    return PipeSolution(FluidParams(alpha=alpha, kappa=1.0, tau0=tau0))


class TestExactVelocity:
    def test_bingham_centreline_value(self):
        # beta = 1, R0 = 0.2: y(0) = (1/4) * 0.8^2 = 0.16
        assert exact_velocity(solution(), 0.0) == pytest.approx(0.16, rel=1e-14)

    @pytest.mark.parametrize("alpha,tau0", [(2.0, 0.1), (1.5, 0.2), (1.75, 0.0)])
    def test_no_slip_at_wall(self, alpha, tau0):
        assert exact_velocity(solution(alpha, tau0), 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_arrested_for_large_yield_stress(self):
        sol = solution(tau0=0.5)  # plug radius 1
        assert exact_velocity(sol, 0.0) == 0.0
        assert exact_velocity(sol, 0.7) == 0.0

    def test_constant_in_plug_and_decreasing_outside(self):
        sol = solution(alpha=1.75, tau0=0.15)
        r0 = sol.plug_radius
        plug = exact_velocity(sol, np.linspace(0.0, r0, 10))
        assert np.ptp(plug) <= 1e-15
        outside = exact_velocity(sol, np.linspace(r0, 1.0, 50))
        assert np.all(np.diff(outside) < 0.0)

    def test_continuous_at_plug_radius(self):
        sol = solution(alpha=1.5, tau0=0.2)
        r0 = sol.plug_radius
        left = exact_velocity(sol, r0 - 1e-14)
        right = exact_velocity(sol, r0 + 1e-14)
        assert abs(left - right) <= 1e-13

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            exact_velocity(solution(), 1.5)
        with pytest.raises(ValueError):
            exact_velocity(solution(), -0.1)

    def test_radius_rounding_slack(self):
        assert exact_velocity(solution(), 1.0 + 1e-13) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.0001, 1.0 + 1.0 / 1030.0, 1.001])
    @pytest.mark.parametrize("tau0", [0.0, 0.1])
    def test_finite_next_to_alpha_one(self, alpha, tau0):
        values = exact_velocity(solution(alpha, tau0), np.linspace(0.0, 1.0, 11))
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)

    def test_coefficient_underflows_where_two_to_beta_overflows(self):
        # beta = 1030: 2^beta overflows, the centreline value 2^-beta/(1+beta)
        # is a subnormal double
        sol = solution(1.0 + 1.0 / 1030.0, 0.0)
        beta = sol.beta
        assert exact_velocity(sol, 0.0) == 0.5 ** beta / (1.0 + beta) > 0.0

    def test_non_unit_consistency_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            PipeSolution(FluidParams(alpha=2.0, kappa=2.0, tau0=0.1))


class TestRelativeError:
    def test_exact_samples_give_zero(self):
        tri = generate_disk_mesh(4)
        coords = tri.nodes[tri.free_nodes]
        sol = solution()
        exact = exact_velocity(sol, np.hypot(coords[:, 0], coords[:, 1]))
        assert relative_error(exact, tri, sol) == 0.0

    def test_scaling(self):
        tri = generate_disk_mesh(4)
        coords = tri.nodes[tri.free_nodes]
        sol = solution()
        exact = exact_velocity(sol, np.hypot(coords[:, 0], coords[:, 1]))
        assert relative_error(1.001 * exact, tri, sol) == pytest.approx(1e-3, rel=1e-10)

    def test_zero_reference_rejected(self):
        tri = generate_disk_mesh(2)
        sol = solution(tau0=0.5)
        with pytest.raises(ValueError):
            relative_error(np.zeros(tri.n_free), tri, sol)

    def test_error_decreases_under_refinement(self):
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
        sol = PipeSolution(params)
        errors = []
        for n in (6, 9, 12):
            tri = generate_disk_mesh(n)
            ops = assemble(tri, f=1.0)
            _, y, report = solve_trs(params, ops)
            assert report.converged
            errors.append(relative_error(y, tri, sol))
        assert errors[0] > errors[1] > errors[2]


class TestRelativeDifference:
    def test_identical_fields(self):
        y = np.array([1.0, 2.0, 3.0])
        assert relative_difference(y, y) == 0.0

    def test_solvers_agree_on_matched_configuration(self):
        # both solvers stop at the same stationarity tolerance, so their
        # velocities must sit within a few tolerance units of each other
        from ductflow.augmented_lagrangian import solve_alg2

        tri = generate_disk_mesh(8)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
        _, y_trs, rep_trs = solve_trs(params, ops)
        y_alg2, _, _, rep_alg2 = solve_alg2(params, ops)
        assert rep_trs.converged and rep_alg2.converged
        assert relative_difference(y_trs, y_alg2) <= 5e-3

    def test_doubled_field(self):
        y = np.array([1.0, -2.0, 0.5])
        assert relative_difference(2.0 * y, y) == pytest.approx(1.0, rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_difference(np.zeros(3), np.zeros(4))

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            relative_difference(np.ones(3), np.zeros(3))
