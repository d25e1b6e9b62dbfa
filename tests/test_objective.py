import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ductflow.fem import assemble
from ductflow.mesh import Triangulation
from ductflow.objective import (FluidParams, _norms_and_excess, block_norms, gradient, hessian,
                                hessian_apply, objective)
from oracles import (fd_gradient, fd_hessian, hessian_blocks, random_stress_blocks,
                     reference_hessian)


def unit_right_triangle_ops():
    tri = Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)], np.ones(3, dtype=bool))
    return assemble(tri, f=1.0)


class TestFluidParams:
    def test_shear_thickening_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            FluidParams(alpha=2.5)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 3.0])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError):
            FluidParams(alpha=alpha)

    def test_kappa_and_tau0_validation(self):
        with pytest.raises(ValueError):
            FluidParams(alpha=2.0, kappa=0.0)
        with pytest.raises(ValueError):
            FluidParams(alpha=2.0, tau0=-0.1)

    @pytest.mark.parametrize("bad", [
        dict(tau0=float("nan")), dict(tau0=float("inf")),
        dict(kappa=float("inf")), dict(kappa=float("nan")),
    ])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FluidParams(alpha=2.0, **bad)

    @pytest.mark.parametrize("alpha, kappa", [
        (1.5, 1e-300), (1.5, 1e300), (1.01, 1e-4), (1.01, 1e4),
        (2.0, 5e-324), (1.5, 1e-160),
    ])
    def test_kappa_power_out_of_double_range_rejected(self, alpha, kappa):
        # kappa^(1/(alpha-1)) underflows to 0 or a subnormal, whose
        # reciprocal overflows, or it overflows
        with pytest.raises(ValueError, match="out of range"):
            FluidParams(alpha=alpha, kappa=kappa)

    @pytest.mark.parametrize("alpha, kappa", [(1.5, 1e-150), (1.5, 1e150), (1.01, 1e-3)])
    def test_kappa_power_at_edge_of_double_range_kept(self, alpha, kappa):
        p = FluidParams(alpha=alpha, kappa=kappa)
        assert p.kappa_pow == kappa ** (1.0 / (alpha - 1.0))
        assert 0.0 < p.kappa_pow < float("inf")

    @pytest.mark.parametrize("alpha", [2.0, 1.75, 1.5, 1.1])
    def test_dual_exponent_identity(self, alpha):
        p = FluidParams(alpha=alpha)
        assert 1.0 / p.alpha + 1.0 / p.alpha_prime == pytest.approx(1.0, abs=1e-14)


_TINY = np.finfo(float).tiny
# Block components at the edges of the double range: squares that
# underflow (subnormals, 1e-160) or overflow (1e160, 1e308), mixed with
# ordinary values.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320, _TINY, -_TINY,
          1e-160, -1e-160, 1e160, -1e160, 1e308, -1e308]
_COMPONENT = st.one_of(st.sampled_from(_EDGES),
                       st.floats(-_TINY, _TINY, allow_subnormal=True),
                       st.floats(-1e300, 1e300, allow_nan=False))


class TestBlockNorms:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_COMPONENT, _COMPONENT), min_size=1, max_size=12))
    def test_matches_hypot_across_the_double_range(self, blocks):
        tau = np.array(blocks, dtype=float).ravel()
        x, y = tau[0::2], tau[1::2]
        got = block_norms(tau)
        want = np.hypot(x, y)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(want))
        np.testing.assert_array_equal(got == 0.0, (x == 0.0) & (y == 0.0))

    def test_empty(self):
        assert block_norms(np.zeros(0)).shape == (0,)


class TestObjective:
    def test_zero_inside_yield_surface(self):
        ops = unit_right_triangle_ops()
        params = FluidParams(alpha=2.0, tau0=0.5)
        assert objective(params, ops, np.array([0.3, 0.2])) == 0.0
        assert objective(params, ops, np.zeros(2)) == 0.0

    def test_hand_value(self):
        # 1/(2*1) * 0.5 * (1 - 0.2)^2 = 0.16
        ops = unit_right_triangle_ops()
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.2)
        assert objective(params, ops, np.array([1.0, 0.0])) == pytest.approx(0.16, rel=1e-14)

    def test_quadratic_limit(self, disk2_ops):
        rng = np.random.default_rng(0)
        tau = rng.standard_normal(disk2_ops.n_stress)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.0)
        quad = 0.5 * float(tau @ (disk2_ops.area2 * tau))
        assert objective(params, disk2_ops, tau) == pytest.approx(quad, rel=1e-13)

    def test_nonnegative_and_zero_iff_unyielded(self, disk2_ops):
        rng = np.random.default_rng(1)
        params = FluidParams(alpha=1.75, tau0=0.3)
        for _ in range(20):
            tau = 0.5 * rng.standard_normal(disk2_ops.n_stress)
            value = objective(params, disk2_ops, tau)
            assert value >= 0.0
            assert (value == 0.0) == bool(np.all(block_norms(tau) <= params.tau0))

    def test_convex_along_segments(self, disk2_ops):
        rng = np.random.default_rng(2)
        params = FluidParams(alpha=1.5, tau0=0.2)
        for _ in range(10):
            tau = rng.standard_normal(disk2_ops.n_stress)
            sigma = rng.standard_normal(disk2_ops.n_stress)
            for t in (0.25, 0.5, 0.75):
                mix = objective(params, disk2_ops, t * tau + (1 - t) * sigma)
                chord = (t * objective(params, disk2_ops, tau)
                         + (1 - t) * objective(params, disk2_ops, sigma))
                assert mix <= chord + 1e-12


class TestGradient:
    def test_zero_block_at_origin(self):
        ops = unit_right_triangle_ops()
        params = FluidParams(alpha=1.5, tau0=0.0)
        np.testing.assert_array_equal(gradient(params, ops, np.zeros(2)), 0.0)

    def test_zero_inside_yield_surface(self):
        ops = unit_right_triangle_ops()
        params = FluidParams(alpha=2.0, tau0=0.5)
        np.testing.assert_array_equal(gradient(params, ops, np.array([0.3, -0.2])), 0.0)

    def test_hand_value(self):
        ops = unit_right_triangle_ops()
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.2)
        np.testing.assert_allclose(gradient(params, ops, np.array([1.0, 0.0])),
                                   [0.4, 0.0], rtol=1e-14)

    @pytest.mark.parametrize("alpha", [2.0, 1.75, 1.5])
    def test_matches_finite_differences(self, alpha, disk3_ops):
        rng = np.random.default_rng(11)
        params = FluidParams(alpha=alpha, kappa=1.3, tau0=0.25)
        tau = random_stress_blocks(rng, disk3_ops.tri.n_triangles, params.tau0)
        g = gradient(params, disk3_ops, tau)
        fd = fd_gradient(params, disk3_ops, tau)
        assert np.abs(fd - g).max() <= 1e-6 * max(1.0, np.abs(g).max())


class TestHessian:
    def test_zero_inside_yield_surface(self):
        ops = unit_right_triangle_ops()
        params = FluidParams(alpha=2.0, tau0=0.5)
        np.testing.assert_array_equal(hessian(params, ops, np.array([0.3, 0.2])), 0.0)

    def test_hand_value(self):
        # prefactor 0.5, h11 = 1, h12 = 0, h22 = |tau| - tau0 = 0.8
        ops = unit_right_triangle_ops()
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.2)
        h = hessian(params, ops, np.array([1.0, 0.0]))
        np.testing.assert_allclose(h[:, 0], [0.5, 0.0, 0.4], rtol=1e-14)

    def test_rows_are_contiguous_components(self, disk2_ops):
        rng = np.random.default_rng(14)
        params = FluidParams(alpha=1.75, tau0=0.1)
        h = hessian(params, disk2_ops, rng.standard_normal(disk2_ops.n_stress))
        assert h.shape == (3, disk2_ops.tri.n_triangles) and h.dtype == np.float64
        assert h.flags.c_contiguous

    @pytest.mark.parametrize("alpha", [2.0, 1.75, 1.5])
    def test_matches_finite_differences(self, alpha, disk3_ops):
        rng = np.random.default_rng(12)
        params = FluidParams(alpha=alpha, kappa=0.8, tau0=0.3)
        tau = random_stress_blocks(rng, disk3_ops.tri.n_triangles, params.tau0)
        # all four entries of each FD block against (h11, h12, h12, h22)
        blocks = hessian_blocks(hessian(params, disk3_ops, tau))
        fd = fd_hessian(params, disk3_ops, tau)
        assert np.abs(fd - blocks).max() <= 1e-4 * max(1.0, np.abs(blocks).max())

    @pytest.mark.parametrize("alpha", [2.0, 1.75, 1.5])
    def test_blocks_positive_semidefinite(self, alpha, disk3_ops):
        rng = np.random.default_rng(13)
        params = FluidParams(alpha=alpha, tau0=0.2)
        tau = random_stress_blocks(rng, disk3_ops.tri.n_triangles, params.tau0)
        for block in hessian_blocks(hessian(params, disk3_ops, tau)):
            eigs = np.linalg.eigvalsh(block)
            assert eigs.min() >= -1e-12 * max(np.abs(block).max(), 1e-300)


    @pytest.mark.parametrize("tau0", [0.3, 0.0])
    @pytest.mark.parametrize("alpha", [2.0, 1.75, 1.5, 1.1])
    def test_bytes_match_the_closed_form_expression(self, alpha, tau0, disk3_ops):
        # blocks inside, near and far outside the yield surface, then
        # blocks exactly on it (or at the origin when tau0 = 0) and zero
        # blocks; at alpha = 2, tau0 = 0 every h12 is a signed zero
        rng = np.random.default_rng(15)
        params = FluidParams(alpha=alpha, kappa=0.8, tau0=tau0)
        blocks = random_stress_blocks(rng, disk3_ops.tri.n_triangles, tau0).reshape(-1, 2)
        blocks[:4] = [[tau0, 0.0], [0.0, -tau0], [-tau0, 0.0], [0.0, tau0]]
        blocks[4:8] = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]
        tau = blocks.ravel()
        triple = _norms_and_excess(tau, tau0)
        assert not triple[2][:8].any() and triple[2].any() and not triple[2].all()
        reference = reference_hessian(params, disk3_ops, tau).tobytes()
        assert hessian(params, disk3_ops, tau).tobytes() == reference
        assert hessian(params, disk3_ops, tau, triple).tobytes() == reference


class TestSharedNorms:
    @pytest.mark.parametrize("alpha", [2.0, 1.75, 1.5, 1.1])
    def test_given_triple_gives_the_same_bytes(self, alpha, disk3_ops):
        rng = np.random.default_rng(15)
        params = FluidParams(alpha=alpha, kappa=0.8, tau0=0.3)
        tau = random_stress_blocks(rng, disk3_ops.tri.n_triangles, params.tau0)
        triple = _norms_and_excess(tau, params.tau0)
        assert (objective(params, disk3_ops, tau, triple).hex()
                == objective(params, disk3_ops, tau).hex())
        for evaluate in (gradient, hessian):
            assert (evaluate(params, disk3_ops, tau, triple).tobytes()
                    == evaluate(params, disk3_ops, tau).tobytes())

    def test_triple_is_read_only(self):
        for array in _norms_and_excess(np.array([0.3, 0.4, 0.0, 0.1]), 0.2):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestHessianApply:
    def test_zero_vector(self, disk2_ops):
        params = FluidParams(alpha=1.5, tau0=0.1)
        rng = np.random.default_rng(15)
        h = hessian(params, disk2_ops, rng.standard_normal(disk2_ops.n_stress))
        np.testing.assert_array_equal(hessian_apply(h, np.zeros(disk2_ops.n_stress)), 0.0)

    def test_zero_blocks(self, disk2_ops):
        h = np.zeros((3, disk2_ops.tri.n_triangles))
        rng = np.random.default_rng(16)
        v = rng.standard_normal(disk2_ops.n_stress)
        np.testing.assert_array_equal(hessian_apply(h, v), 0.0)

    def test_matches_dense_block_diagonal(self):
        rng = np.random.default_rng(17)
        n_blocks = 8
        h = rng.standard_normal((3, n_blocks))
        v = rng.standard_normal(2 * n_blocks)
        dense = np.zeros((2 * n_blocks, 2 * n_blocks))
        for k, block in enumerate(hessian_blocks(h)):
            dense[2 * k:2 * k + 2, 2 * k:2 * k + 2] = block
        np.testing.assert_allclose(hessian_apply(h, v), dense @ v, rtol=1e-13)

    @pytest.mark.parametrize("n_blocks", [1, 7, 2048])
    def test_bit_identical_to_einsum(self, n_blocks):
        rng = np.random.default_rng(19 + n_blocks)
        scales = 10.0 ** rng.integers(-8, 8, n_blocks)
        h = scales * rng.standard_normal((3, n_blocks))
        v = rng.standard_normal(2 * n_blocks)
        reference = np.einsum("kij,kj->ki", hessian_blocks(h), v.reshape(-1, 2)).ravel()
        np.testing.assert_array_equal(hessian_apply(h, v), reference)

    def test_linear_in_v(self):
        rng = np.random.default_rng(18)
        h = rng.standard_normal((3, 5))
        u = rng.standard_normal(10)
        v = rng.standard_normal(10)
        np.testing.assert_allclose(hessian_apply(h, 2.0 * u + v),
                                   2.0 * hessian_apply(h, u) + hessian_apply(h, v),
                                   rtol=1e-12)

    # a (3, n_T) array of the wrong length, and blocks in the (n_T, 2, 2) layout
    @pytest.mark.parametrize("shape", [(3, 4), (5, 2, 2)])
    def test_block_count_must_match(self, shape):
        with pytest.raises(ValueError, match="block count"):
            hessian_apply(np.zeros(shape), np.zeros(10))
