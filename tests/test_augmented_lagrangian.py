import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from ductflow import augmented_lagrangian
from ductflow.augmented_lagrangian import (_RELAXATION, Alg2Config, ShrinkConvergenceError,
                                           _newton_magnitudes, _shrink_field, solve_alg2)
from ductflow.fem import assemble
from ductflow.mesh import generate_disk_mesh, generate_square_mesh
from ductflow.objective import FluidParams, gradient, objective
from ductflow.pipe import relative_difference
from ductflow.report import abstol_for
from ductflow.trust_region import TrsConfig, solve_trs
from oracles import dense_poisson_velocity, graded_square


def bisect_magnitude(alpha, kappa, r, tau0, w_norm, tol=1e-13):
    """Independent oracle: bisection on kappa m^(alpha-1) + r m = (w - tau0)_+."""
    rhs = max(w_norm - tau0, 0.0)
    if rhs == 0.0:
        return 0.0
    lo, hi = 0.0, rhs / r
    while hi - lo > tol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if kappa * mid ** (alpha - 1.0) + r * mid > rhs:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# the shrink step reads only the Newton tolerances; abstol is required
SHRINK = Alg2Config(abstol=1e-4)
TIGHT = Alg2Config(abstol=1e-4, newton_abstol=1e-13, newton_reltol=1e-14)


def cold_shrink(params, r, w_norms, cfg):
    """``_shrink_field`` of the norms in ``w_norms`` with no warm start."""
    w_norms = np.atleast_1d(np.asarray(w_norms, dtype=float))
    return _shrink_field(params, r, w_norms, cfg, np.zeros(w_norms.size))


class TestShrinkMagnitude:
    @pytest.mark.parametrize("alpha", [2.0, 1.5])
    def test_zero_at_or_below_yield(self, alpha):
        params = FluidParams(alpha=alpha, kappa=1.0, tau0=0.3)
        np.testing.assert_array_equal(cold_shrink(params, 10.0, [0.0, 0.3, 0.2999], TIGHT), 0.0)

    def test_bingham_closed_form(self):
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.2)
        (m,) = cold_shrink(params, 10.0, 1.2, TIGHT)
        assert m == pytest.approx(1.0 / 11.0, rel=1e-15)

    @pytest.mark.parametrize("cfg", [TIGHT, SHRINK], ids=["tight", "default"])
    def test_power_law_against_bisection(self, cfg):
        # m solves sqrt(m) + 10 m = 1
        params = FluidParams(alpha=1.5, kappa=1.0, tau0=0.0)
        (m,) = cold_shrink(params, 10.0, 1.0, cfg)
        oracle = bisect_magnitude(1.5, 1.0, 10.0, 0.0, 1.0)
        assert abs(m - oracle) <= 1e-10

    def test_monotone_in_w_norm(self):
        params = FluidParams(alpha=1.6, kappa=0.7, tau0=0.25)
        values = cold_shrink(params, 5.0, np.linspace(0.0, 3.0, 80), TIGHT)
        assert np.all(np.diff(values) >= -1e-12)

    def test_newton_branch_matches_closed_form_at_alpha_two(self):
        rng = np.random.default_rng(30)
        w = 0.2 + 3.0 * rng.random(50)
        rhs = np.maximum(w - 0.2, 0.0)
        newton = _newton_magnitudes(2.0, 1.0, 10.0, rhs, w, TIGHT, np.zeros(50))
        closed = rhs / (1.0 + 10.0)
        assert np.abs(newton - closed).max() <= 1e-12

    def test_newton_failure_names_element(self, monkeypatch):
        # a cold start at w = 5 needs five passes here; alpha = 1.6 because
        # alpha = 2, 7/4 and 3/2 shrink in closed form
        params = FluidParams(alpha=1.6, kappa=1.0, tau0=0.0)
        cramped = Alg2Config(abstol=1e-4, newton_abstol=1e-13, newton_reltol=1e-16)
        monkeypatch.setattr(augmented_lagrangian, "_NEWTON_MAX", 1)
        with pytest.raises(ShrinkConvergenceError, match="element 0"):
            cold_shrink(params, 10.0, 5.0, cramped)

    def test_newton_failure_skips_converged_elements(self, monkeypatch):
        # element 0 starts 1e-4 off its root and meets the step test in one
        # pass, still with a residual far above newton_abstol; element 1
        # starts cold and needs three passes
        params = FluidParams(alpha=1.6, kappa=1.0, tau0=0.0)
        (root,) = cold_shrink(params, 10.0, 1.0, TIGHT)
        previous = np.array([root * (1.0 + 1e-4), 0.0])
        cfg = Alg2Config(abstol=1e-4, newton_reltol=1e-3)
        monkeypatch.setattr(augmented_lagrangian, "_NEWTON_MAX", 2)
        with pytest.raises(ShrinkConvergenceError, match=r"element 1\b"):
            _shrink_field(params, 10.0, np.array([1.0, 5.0]), cfg, previous)

    def test_newton_failure_counts_elements_below_yield(self, monkeypatch):
        # elements 0 and 1 lie below the yield stress; the failing element
        # is named by its index in the whole field; it needs four passes
        params = FluidParams(alpha=1.6, kappa=1.0, tau0=0.2)
        monkeypatch.setattr(augmented_lagrangian, "_NEWTON_MAX", 1)
        with pytest.raises(ShrinkConvergenceError, match=r"element 2\b"):
            cold_shrink(params, 10.0, [0.0, 0.1, 5.0], SHRINK)

    def test_warm_start_at_root_takes_one_pass(self, monkeypatch):
        params = FluidParams(alpha=1.3, kappa=0.7, tau0=0.2)
        w = np.linspace(0.0, 4.0, 41)
        roots = _shrink_field(params, 10.0, w, SHRINK, np.zeros(w.size))
        monkeypatch.setattr(augmented_lagrangian, "_NEWTON_MAX", 1)
        again = _shrink_field(params, 10.0, w, SHRINK, roots)
        np.testing.assert_allclose(again, roots, rtol=1e-15, atol=0.0)


# Per-element warm starts: none, the exact root, or the root scaled by
# 10^e, from far below to far above it.
_WARM = st.one_of(st.just(("zero", 0)), st.just(("root", 0)),
                  st.tuples(st.just("scaled"), st.integers(-300, 300)))


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(1.1, 1.95), kappa=st.floats(0.1, 5.0), r=st.floats(0.5, 50.0),
       tau0=st.floats(0.0, 1.0),
       excess=st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 10.0)), min_size=1,
                       max_size=8),
       warm=st.lists(_WARM, min_size=8, max_size=8))
def test_warm_start_matches_cold_start_and_bisection(alpha, kappa, r, tau0, excess, warm):
    params = FluidParams(alpha=alpha, kappa=kappa, tau0=tau0)
    w = tau0 + np.array(excess)
    cfg = SHRINK
    cold = _shrink_field(params, r, w, cfg, np.zeros(w.size))
    previous = np.array([0.0 if kind == "zero" else m * 10.0 ** e
                         for m, (kind, e) in zip(cold, warm)])
    got = _shrink_field(params, r, w, cfg, previous)
    # Newton runs on t = ln m, so m = e^t carries the rounding of t, a
    # relative |t| eps; that exceeds 1e-14 only for roots below 1e-5
    log_m = np.log(np.where(cold > 0.0, cold, 1.0))
    rel_tol = np.maximum(1e-14, 4.0 * np.finfo(float).eps * np.abs(log_m))
    assert np.all(np.abs(got - cold) <= rel_tol * cold)
    oracle = [bisect_magnitude(alpha, kappa, r, tau0, w_k) for w_k in w]
    assert np.abs(got - oracle).max() <= 1e-10


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(1.1, 1.95), r=st.floats(0.5, 50.0), tau0=st.floats(0.0, 1.0),
       excess=st.lists(st.one_of(st.floats(-1.0, 0.0), st.floats(1e-12, 10.0)),
                       min_size=1, max_size=12),
       warm=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 10.0)), min_size=12,
                     max_size=12))
def test_entries_below_yield_do_not_change_the_rest(alpha, r, tau0, excess, warm):
    params = FluidParams(alpha=alpha, kappa=1.0, tau0=tau0)
    w = tau0 + np.array(excess)
    previous = np.array(warm[:w.size])
    got = _shrink_field(params, r, w, SHRINK, previous)
    above = w - tau0 > 0.0
    alone = _shrink_field(params, r, w[above], SHRINK, previous[above])
    np.testing.assert_array_equal(got[above], alone)
    np.testing.assert_array_equal(got[~above], 0.0)


def bisect_to_rounding(alpha, kappa, r, rhs):
    """Bisection on kappa m^(alpha-1) + r m = rhs until the bracket cannot shrink."""
    lo, hi = 0.0, rhs / r
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if kappa * mid ** (alpha - 1.0) + r * mid > rhs:
            hi = mid
        else:
            lo = mid


class TestThreeHalvesClosedForm:
    """At alpha = 3/2 the shrink equation is a quadratic in sqrt(m), solved in closed form."""

    @pytest.mark.parametrize("kappa", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("r", [0.5, 10.0, 50.0])
    def test_within_eight_eps_of_bisection(self, kappa, r):
        # rhs 1e-150 ... 1e300 keeps every root a normal double
        rhs = 10.0 ** np.arange(-150.0, 301.0, 25.0)
        got = cold_shrink(FluidParams(alpha=1.5, kappa=kappa, tau0=0.0), r, rhs, TIGHT)
        want = np.array([bisect_to_rounding(1.5, kappa, r, b) for b in rhs])
        assert np.all(np.abs(got - want) <= 8.0 * np.finfo(float).eps * want)

    def test_finite_where_four_r_rhs_overflows(self):
        # the textbook 2 rhs / (kappa + sqrt(kappa^2 + 4 r rhs)) is NaN here
        (m,) = cold_shrink(FluidParams(alpha=1.5, kappa=1.0, tau0=0.0), 10.0, 1e308, TIGHT)
        want = bisect_to_rounding(1.5, 1.0, 10.0, 1e308)
        assert np.isfinite(m) and abs(m - want) <= 8.0 * np.finfo(float).eps * want

    def test_smallest_subnormal_rhs_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (m,) = cold_shrink(FluidParams(alpha=1.5, kappa=1.0, tau0=0.0), 10.0, 5e-324, TIGHT)
        assert np.isfinite(m) and m >= 0.0

    def test_matches_newton_branch(self):
        rng = np.random.default_rng(31)
        w = 0.2 + 3.0 * rng.random(50)
        rhs = w - 0.2
        newton = _newton_magnitudes(1.5, 1.0, 10.0, rhs, w, TIGHT, np.zeros(50))
        closed = cold_shrink(FluidParams(alpha=1.5, kappa=1.0, tau0=0.2), 10.0, w, TIGHT)
        np.testing.assert_allclose(closed, newton, rtol=1e-14, atol=0.0)


class TestSevenQuartersClosedForm:
    """At alpha = 7/4 the shrink equation is a quartic in m^(1/4), solved in closed form."""

    KAPPAS = [1e-200, 1e-3, 1.0, 1e3, 1e200]
    RS = [1e-3, 10.0, 1e6]
    # from the smallest subnormal up: roots from exact 0 to beyond 1e300
    RHS = np.concatenate(([5e-324], 10.0 ** np.arange(-300.0, 301.0, 25.0)))

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("r", RS)
    def test_within_sixteen_eps_of_bisection(self, kappa, r):
        got = cold_shrink(FluidParams(alpha=1.75, kappa=kappa, tau0=0.0), r, self.RHS, TIGHT)
        want = np.array([bisect_to_rounding(1.75, kappa, r, b) for b in self.RHS.tolist()])
        assert np.all(np.abs(got - want) <= 16.0 * np.finfo(float).eps * want)

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("r", RS)
    def test_exactly_zero_at_or_below_yield(self, kappa, r):
        params = FluidParams(alpha=1.75, kappa=kappa, tau0=0.3)
        np.testing.assert_array_equal(cold_shrink(params, r, [0.0, 0.3, 0.2999], TIGHT), 0.0)

    def test_quiet_and_finite_over_the_whole_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for kappa in self.KAPPAS:
                for r in self.RS:
                    params = FluidParams(alpha=1.75, kappa=kappa, tau0=0.0)
                    m = cold_shrink(params, r, np.append(self.RHS, 0.0), TIGHT)
                    assert np.all(np.isfinite(m)) and np.all(m >= 0.0)

    def test_matches_newton_branch(self):
        rng = np.random.default_rng(32)
        w = 0.2 + 3.0 * rng.random(50)
        rhs = w - 0.2
        newton = _newton_magnitudes(1.75, 1.0, 10.0, rhs, w, TIGHT, np.zeros(50))
        closed = cold_shrink(FluidParams(alpha=1.75, kappa=1.0, tau0=0.2), 10.0, w, TIGHT)
        np.testing.assert_allclose(closed, newton, rtol=1e-14, atol=0.0)


class NewtonCalled(Exception):
    pass


@pytest.mark.parametrize("alpha, newton", [(2.0, False), (1.75, False), (1.5, False),
                                           (1.6, True)])
def test_only_exponents_without_a_closed_form_run_newton(monkeypatch, alpha, newton):
    def refuse(*args):
        raise NewtonCalled

    monkeypatch.setattr(augmented_lagrangian, "_newton_magnitudes", refuse)
    params = FluidParams(alpha=alpha, kappa=1.0, tau0=0.2)
    w = np.linspace(0.0, 3.0, 31)
    if newton:
        with pytest.raises(NewtonCalled):
            cold_shrink(params, 10.0, w, SHRINK)
    else:
        assert np.all(np.isfinite(cold_shrink(params, 10.0, w, SHRINK)))


@pytest.mark.parametrize("alpha", [1.6, 1.3, 1.1])
def test_newton_started_at_the_root_takes_one_sweep(monkeypatch, alpha):
    # no benchmark cell runs the strain-rate Newton, so this and the next
    # test guard its cost; here the warm start of a solve near its fixed
    # point: roots from 1e-300 to 1e2, and zeros at or below the yield stress
    w = np.concatenate([np.linspace(0.0, 3.0, 301), 0.2 + np.geomspace(1e-14, 1e2, 200)])
    rhs = np.maximum(w - 0.2, 0.0)
    root = _newton_magnitudes(alpha, 1.0, 10.0, rhs, w, SHRINK, np.zeros(w.size))
    monkeypatch.setattr(augmented_lagrangian, "_NEWTON_MAX", 1)
    again = _newton_magnitudes(alpha, 1.0, 10.0, rhs, w, SHRINK, root)
    assert np.array_equal(again == 0.0, root == 0.0)
    # m = e^t carries the rounding of t = ln m, a relative |t| eps, and its own
    live = root > 0.0
    tol = 4.0 * np.finfo(float).eps * (1.0 + np.abs(np.log(root[live])))
    assert np.all(np.abs(again[live] - root[live]) <= tol * root[live])


@pytest.mark.parametrize("generate, refinement, alpha, sweeps", [
    (generate_disk_mesh, 12, 1.6, 5), (generate_disk_mesh, 12, 1.3, 6),
    (generate_square_mesh, 16, 1.6, 6), (generate_square_mesh, 16, 1.3, 6)])
def test_a_solve_needs_few_newton_sweeps_per_shrink_step(monkeypatch, generate, refinement,
                                                         alpha, sweeps):
    # warm-started, each shrink step of these solves converges in at most
    # `sweeps` sweeps (the fewest that do), and capped there the solve
    # takes the same passes to the same velocity
    ops = assemble(generate(refinement), f=1.0)
    params = FluidParams(alpha=alpha, kappa=1.0, tau0=0.1)
    y, _, _, report = solve_alg2(params, ops)
    monkeypatch.setattr(augmented_lagrangian, "_NEWTON_MAX", sweeps)
    y_capped, _, _, capped = solve_alg2(params, ops)
    assert report.converged and capped.converged
    assert capped.iterations == report.iterations
    assert y_capped.tobytes() == y.tobytes()


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.75, 1.9])
@pytest.mark.parametrize("excess", [1e-12, 1e-10, 1e-8])
def test_cold_start_near_yield_surface_is_relatively_exact(alpha, excess):
    # roots from 1e-120 up to 1e-9: a residual test that does not scale
    # with rhs stops Newton while it is still far off
    params = FluidParams(alpha=alpha, kappa=1.0, tau0=0.3)
    w = np.array([0.3 + excess])
    got = _shrink_field(params, 1.0, w, SHRINK, np.zeros(1))[0]
    want = bisect_to_rounding(alpha, 1.0, 1.0, float(w[0]) - 0.3)
    # m = e^t carries the rounding of t = ln m, a relative |t| eps
    assert abs(got - want) <= max(1e-13, 4.0 * np.finfo(float).eps * abs(np.log(want))) * want


class TestConfig:
    @pytest.mark.parametrize("bad", [
        dict(r=0.0), dict(r=-1.0), dict(abstol=0.0), dict(newton_abstol=0.0),
        dict(max_outer=0), dict(r=float("inf")), dict(r=float("nan")),
        dict(abstol=float("nan")), dict(reltol=float("inf")), dict(newton_reltol=float("nan")),
        dict(max_outer=2.5), dict(max_outer=float("inf")), dict(max_outer="10"),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            Alg2Config(**{"abstol": 1e-4, **bad})

    def test_abstol_has_no_default(self):
        with pytest.raises(TypeError):
            Alg2Config()
        cfg = Alg2Config(abstol=1e-4)
        assert (cfg.r, cfg.reltol, cfg.max_outer) == (10.0, 1e-6, 5000)

    def test_numpy_integer_max_outer_accepted(self):
        assert Alg2Config(abstol=1e-4, max_outer=np.int64(3)).max_outer == 3


class TestSolveAlg2:
    def test_poisson_limit(self):
        # tau0 = 0, alpha = 2: the fixed point is the Poisson velocity
        tri = generate_disk_mesh(2)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.0)
        cfg = Alg2Config(abstol=1e-9, reltol=1e-9, max_outer=20000)
        y, q, tau, report = solve_alg2(params, ops, cfg)
        assert report.converged
        assert np.abs(y - dense_poisson_velocity(ops)).max() <= 1e-6

    def test_bingham_pipe_iteration_count(self):
        # with r = 10 and the over-relaxed steps this configuration takes
        # 45 passes (73 without relaxation) at the plain area-weighted stop
        tri = generate_disk_mesh(12)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
        y, q, tau, report = solve_alg2(params, ops, Alg2Config(abstol=1e-4, reltol=1e-4))
        assert report.converged
        assert 40 <= report.iterations <= 55
        assert report.kkt_history[-1] <= 1e-4

    @pytest.mark.parametrize("alpha, tau0", [(2.0, 0.1), (1.5, 0.2)])
    def test_iteration_count_is_mesh_independent(self, alpha, tau0):
        # at one strain-rate tolerance the augmented-Lagrangian iteration
        # count is famously mesh independent
        params = FluidParams(alpha=alpha, kappa=1.0, tau0=tau0)
        counts = []
        for n in (12, 19, 26):
            tri = generate_disk_mesh(n)
            cfg = Alg2Config(abstol=abstol_for(tri), reltol=1e-6)
            _, _, _, report = solve_alg2(params, assemble(tri, f=1.0), cfg)
            assert report.converged
            counts.append(report.iterations)
        assert max(counts) <= 1.1 * min(counts)

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_tight_solve_matches_trs(self, alpha):
        # relaxation keeps the fixed point: both solvers reach the same
        # discrete velocity
        ops = assemble(generate_disk_mesh(6), f=1.0)
        params = FluidParams(alpha=alpha, kappa=1.0, tau0=0.2)
        _, y_trs, rep_trs = solve_trs(params, ops, cfg=TrsConfig(abstol=1e-11, reltol=1e-10))
        y, _, _, report = solve_alg2(params, ops,
                                     Alg2Config(abstol=1e-9, reltol=1e-9, max_outer=20000))
        assert rep_trs.converged and report.converged
        assert relative_difference(y, y_trs) <= 1e-6

    def test_arrested_flow_has_zero_strain_rate(self):
        tri = generate_disk_mesh(6)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.6)
        y, q, tau, report = solve_alg2(params, ops)
        assert report.converged
        np.testing.assert_array_equal(q, 0.0)
        assert np.abs(y).max() <= 1e-4

    def test_shear_thinning_converges(self):
        tri = generate_disk_mesh(6)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=1.5, kappa=1.0, tau0=0.2)
        y, q, tau, report = solve_alg2(params, ops)
        assert report.converged
        assert report.kkt_history[-1] <= 1e-4

    def test_iterates_bounded(self):
        tri = generate_disk_mesh(6)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=1.75, kappa=1.0, tau0=0.2)
        cfg = Alg2Config(abstol=abstol_for(tri))
        y, q, tau, report = solve_alg2(params, ops, cfg)
        assert report.converged
        grad_y = ops.velocity_gradient(y)
        bound = (np.abs(grad_y).max() + np.abs(tau).max() / cfg.r + 1.0)
        assert np.abs(q).max() <= bound

    def test_momentum_defect_below_abstol_at_convergence(self):
        # the y-step uses the previous strain rate while the multiplier
        # update uses the new one, so feasibility is only approached as q
        # settles; the stopping test bounds it as well
        tri = generate_disk_mesh(5)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
        cfg = Alg2Config(abstol=abstol_for(tri))
        _, _, tau, report = solve_alg2(params, ops, cfg)
        assert report.converged
        assert ops.momentum_residual(tau) <= cfg.abstol
        assert report.feasibility_history[-1] <= cfg.abstol

    def test_iteration_cap_reported(self):
        tri = generate_disk_mesh(4)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
        _, _, _, report = solve_alg2(params, ops, Alg2Config(abstol=abstol_for(tri), max_outer=3))
        assert report.status == "max_iterations"
        assert report.iterations == 3

    @pytest.mark.parametrize("alpha", [2.0, 1.75, 1.5])
    def test_non_finite_load_stops(self, alpha):
        ops = assemble(generate_disk_mesh(4), f=1.0)
        ops.f_h = np.full(ops.n_free, np.nan)
        params = FluidParams(alpha=alpha, kappa=1.0, tau0=0.1)
        _, _, _, report = solve_alg2(params, ops)
        assert report.status == "non_finite"
        assert report.iterations == 1

    def test_objective_recorded_once_at_returned_iterate(self):
        ops = assemble(generate_disk_mesh(5), f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
        _, _, tau, report = solve_alg2(params, ops)
        assert report.converged
        assert report.objective_history == [objective(params, ops, tau)]


def test_square_duct_converges_at_tight_tolerance():
    # a shrink step that is only accurate to its Newton tolerance leaves
    # the stationarity residual on a floor above this abstol, and the
    # loop then runs to its cap
    tri = generate_square_mesh(8)
    ops = assemble(tri, f=1.0)
    params = FluidParams(alpha=1.75, kappa=1.0, tau0=0.1)
    cfg = Alg2Config(abstol=abstol_for(tri, 1e-5), reltol=1e-6, max_outer=1000)
    _, _, _, report = solve_alg2(params, ops, cfg)
    assert report.converged
    assert report.kkt_history[-1] <= cfg.abstol


@pytest.mark.parametrize("mesh", [generate_disk_mesh(4), generate_square_mesh(8)],
                         ids=["disk:4", "square:8"])
def test_kkt_history_is_the_stationarity_residual_alone(mesh):
    # the momentum defect exceeds the stationarity residual at these
    # exits; it belongs in feasibility_history, as for TRS, and must not
    # stand in for the stationarity residual in kkt_history
    ops = assemble(mesh, f=1.0)
    params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
    y, _, tau, report = solve_alg2(params, ops, strain_rate_config(ops))
    assert report.converged
    stationarity = float(np.abs(gradient(params, ops, tau) - ops.DT @ y).max())
    momentum = ops.momentum_residual(tau)
    assert momentum > stationarity
    assert report.kkt_history[-1] == stationarity
    assert report.feasibility_history[-1] == momentum


@pytest.fixture(scope="module")
def disk12_ops():
    return assemble(generate_disk_mesh(12), f=1.0)


@pytest.fixture(scope="module")
def square32_ops():
    return assemble(generate_square_mesh(32), f=1.0)


def strain_rate_config(ops):
    # the tolerances the benchmark solves with
    return Alg2Config(abstol=abstol_for(ops.tri), reltol=1e-6)


@pytest.fixture(scope="module")
def graded16_ops():
    return assemble(graded_square(16), f=1.0)


def check_gradient_identity(params, ops):
    y, q, tau, report = solve_alg2(params, ops, strain_rate_config(ops))
    assert report.converged
    area_q = ops.area2 * q
    grad = gradient(params, ops, tau)
    assert np.abs(grad - area_q).max() <= 1e-10 * np.abs(area_q).max()
    # the stopping pass records the gradient-based residual
    kkt = float(np.abs(grad - ops.DT @ y).max())
    assert report.kkt_history[-1] == kkt


@pytest.mark.parametrize("alpha", [2.0, 1.75, 1.5])
@pytest.mark.parametrize("tau0", [0.1, 0.2])
def test_area_weighted_strain_rate_is_the_gradient_on_the_pipe(alpha, tau0, disk12_ops):
    # after the shrink and multiplier steps grad J(tau) = A q exactly
    check_gradient_identity(FluidParams(alpha=alpha, kappa=1.0, tau0=tau0), disk12_ops)


@pytest.mark.parametrize("alpha, tau0", [(2.0, 0.1), (2.0, 0.3), (1.5, 0.1), (1.5, 0.3)])
def test_area_weighted_strain_rate_is_the_gradient_on_the_square(alpha, tau0, square32_ops):
    check_gradient_identity(FluidParams(alpha=alpha, kappa=1.0, tau0=tau0), square32_ops)


@pytest.mark.parametrize("alpha, tau0", [(2.0, 0.1), (2.0, 0.3), (1.5, 0.1), (1.5, 0.3)])
def test_area_weighted_strain_rate_is_the_gradient_on_a_graded_square(alpha, tau0,
                                                                       graded16_ops):
    # triangle areas differ by a factor of 103 on the graded 16^2
    check_gradient_identity(FluidParams(alpha=alpha, kappa=1.0, tau0=tau0), graded16_ops)


class CountingGradient:
    """Stand-in for ``augmented_lagrangian.gradient`` that counts calls and
    can spoil the first ``spoil`` results."""

    def __init__(self, spoil=0):
        self.calls = 0
        self.spoil = spoil

    def __call__(self, params, ops, tau):
        self.calls += 1
        grad = gradient(params, ops, tau)
        return grad + 1.0 if self.calls <= self.spoil else grad


def test_gradient_runs_once_per_converged_solve(monkeypatch, disk12_ops):
    counter = CountingGradient()
    monkeypatch.setattr(augmented_lagrangian, "gradient", counter)
    params = FluidParams(alpha=1.75, kappa=1.0, tau0=0.1)
    _, _, _, report = solve_alg2(params, disk12_ops, strain_rate_config(disk12_ops))
    assert report.converged and report.iterations > 1
    assert counter.calls == 1


def test_failed_confirmation_keeps_iterating(monkeypatch, disk12_ops):
    # a pass whose cheap residual passes but whose gradient check does
    # not is no stop: the loop goes on and stops at the next pass that
    # passes both
    params = FluidParams(alpha=1.75, kappa=1.0, tau0=0.1)
    cfg = strain_rate_config(disk12_ops)
    _, _, _, plain = solve_alg2(params, disk12_ops, cfg)
    counter = CountingGradient(spoil=1)
    monkeypatch.setattr(augmented_lagrangian, "gradient", counter)
    _, _, _, report = solve_alg2(params, disk12_ops, cfg)
    assert report.converged
    assert counter.calls == 2
    assert report.iterations == plain.iterations + 1
    assert report.kkt_history[plain.iterations - 1] >= 1.0 > cfg.abstol
    assert report.kkt_history[-1] <= cfg.abstol


def reference_alg2(params, ops, cfg, iterations):
    """Over-relaxed ALG2 as textbook formulas: every product formed afresh from ``D``."""
    y = np.zeros(ops.n_free)
    q = np.zeros(ops.n_stress)
    tau = np.zeros(ops.n_stress)
    stiffness = ops.D @ sp.diags(1.0 / ops.area2) @ ops.D.T
    for _ in range(iterations):
        rhs = ops.f_h - ops.D @ tau + cfg.r * (ops.D @ q)
        y = spsolve(stiffness.tocsc(), rhs) / cfg.r
        grad_y = (ops.D.T @ y) / ops.area2
        g_hat = _RELAXATION * grad_y + (1.0 - _RELAXATION) * q
        w = (tau + cfg.r * g_hat).reshape(-1, 2)
        for k, w_k in enumerate(w):
            norm = float(np.hypot(w_k[0], w_k[1]))
            (m,) = cold_shrink(params, cfg.r, norm, cfg)
            q[2 * k:2 * k + 2] = m / norm * w_k if norm > 0.0 else 0.0
        tau = tau + cfg.r * (g_hat - q)
    return y, q, tau


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_matches_reference_loop(alpha):
    ops = assemble(generate_disk_mesh(6), f=1.0)
    params = FluidParams(alpha=alpha, kappa=1.0, tau0=0.2)
    # tolerances no iterate can meet, so both loops run exactly 50 passes
    cfg = Alg2Config(abstol=1e-300, reltol=1e-300, newton_abstol=1e-13,
                     newton_reltol=1e-14, max_outer=50)
    y, q, tau, report = solve_alg2(params, ops, cfg)
    assert report.iterations == 50
    for got, want in zip((y, q, tau), reference_alg2(params, ops, cfg, 50)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
