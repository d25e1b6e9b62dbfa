from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from ductflow import trust_region
from ductflow.fem import assemble
from ductflow.mesh import MeshError, generate_disk_mesh, generate_square_mesh
from ductflow.objective import (FluidParams, block_norms, gradient, hessian, hessian_apply,
                                objective)
from ductflow.report import abstol_for
from ductflow.trust_region import (TrsConfig, _boundary_intersection, cg_steihaug, solve_trs,
                                   update_radius)
from oracles import (dense_poisson_velocity, dense_projected_newton_step, jittered_square,
                     perturbed_disk)


def run_cg(ops, grad, hess, delta, forcing=trust_region._CG_FORCING, path=None):
    """CG-Steihaug from the projected gradient, as the outer loop calls it.

    ``forcing`` stands in for ``_CG_FORCING`` during the run, and ``path``,
    if given, receives the run's path.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trust_region, "_CG_FORCING", forcing)
        return cg_steihaug(ops, grad, ops.project_nullspace(grad), hess, delta,
                           [] if path is None else path)


def path_iterates(path):
    """CG's iterates ``z_1, z_2, ...``, summed from ``path`` as ``_replay`` sums them.

    Bit-identical to the run's own iterates up to its first
    re-projection, after ``_REPROJECT_EVERY`` steps.
    """
    z = np.zeros(path[0][0].shape[0])
    for d, alpha, _, _, _ in path:
        z = z + alpha * d
        yield z


@st.composite
def jiggled(draw, build, refinements):
    """``build(refinement, amplitude, seed)`` with amplitude and seed drawn."""
    try:
        return build(draw(refinements), draw(st.floats(0.0, 0.3)), draw(st.integers(0, 99)))
    except MeshError:
        reject()  # a jiggle near amplitude 0.3 can fold a triangle over


class TestConfig:
    def test_defaults_match_documented_values(self):
        with pytest.raises(TypeError):
            TrsConfig()
        cfg = TrsConfig(abstol=1e-4)
        assert (cfg.abstol, cfg.reltol, cfg.max_outer) == (1e-4, 1e-6, 500)
        assert (trust_region._DIVTOL, trust_region._ETA) == (1e-10, 0.1)
        assert (trust_region._DELTA0, trust_region._DELTA_MAX) == (10.0, 1e5)
        assert trust_region._CG_PER_TRIANGLE == 10

    @pytest.mark.parametrize("bad", [
        dict(abstol=0.0), dict(abstol=-1.0), dict(reltol=0.0), dict(reltol=-1e-4),
        dict(abstol=float("inf")), dict(reltol=float("nan")), dict(max_outer=0),
        dict(abstol=float("nan")), dict(reltol=float("inf")), dict(max_outer=-1),
        dict(abstol=-float("inf")), dict(max_outer=2.5), dict(max_outer=float("inf")),
        dict(max_outer="10"),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            TrsConfig(**{"abstol": 1e-4, **bad})


class TestUpdateRadius:
    def test_perfect_model_keeps_radius(self):
        accepted, delta = update_radius(10.0, ared=1.0, pred=1.0, step_norm=1.0)
        assert accepted and delta == 10.0

    def test_good_model_doubles_step_norm(self):
        accepted, delta = update_radius(3.0, ared=0.5, pred=1.0, step_norm=4.0)
        assert accepted and delta == 8.0

    def test_zero_reduction_rejects_and_halves(self):
        accepted, delta = update_radius(10.0, ared=0.0, pred=1.0, step_norm=2.0)
        assert not accepted and delta == 1.0

    def test_marginal_acceptance_keeps_radius(self):
        accepted, delta = update_radius(7.0, ared=0.2, pred=1.0, step_norm=2.0)
        assert accepted and delta == 7.0

    def test_nonpositive_predicted_reduction_is_model_failure(self):
        accepted, delta = update_radius(10.0, ared=0.5, pred=0.0, step_norm=2.0)
        assert not accepted and delta == pytest.approx(0.2)
        accepted, delta = update_radius(10.0, ared=0.5, pred=-1.0, step_norm=2.0)
        assert not accepted and delta == pytest.approx(0.2)

    def test_radius_capped_and_positive(self):
        rng = np.random.default_rng(20)
        delta_max = trust_region._DELTA_MAX
        for _ in range(200):
            delta = 10.0 ** rng.uniform(-3, 6)
            delta = min(delta, delta_max)
            ared, pred = rng.standard_normal(), abs(rng.standard_normal()) + 1e-12
            step_norm = 10.0 ** rng.uniform(-3, 5)
            _, new_delta = update_radius(delta, ared, pred, step_norm)
            assert 0.0 < new_delta <= delta_max


class TestCgSteihaug:
    def test_zero_gradient_early_return(self, disk2_ops):
        params = FluidParams(alpha=2.0, tau0=0.0)
        hess = hessian(params, disk2_ops, np.zeros(disk2_ops.n_stress))
        step, reason, count = run_cg(disk2_ops, np.zeros(disk2_ops.n_stress), hess, 1.0)
        assert reason == "converged" and count == 0
        np.testing.assert_array_equal(step, 0.0)

    def test_matches_dense_projected_newton(self):
        # quadratic objective, positive definite Hessian, huge radius:
        # the CG limit is the exact Newton step of the KKT system
        tri = generate_disk_mesh(1)  # 6 triangles
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.0)
        rng = np.random.default_rng(22)
        tau = ops.project_feasible(rng.standard_normal(ops.n_stress))
        grad = gradient(params, ops, tau)
        hess = hessian(params, ops, tau)
        y = ops.recover_velocity(grad)

        step, reason, _ = run_cg(ops, grad, hess, 1e6, forcing=1e-12)
        oracle = dense_projected_newton_step(ops, grad, hess, y)
        assert reason == "converged"
        assert np.abs(step - oracle).max() <= 1e-8

    def test_zero_curvature_exits_on_first_iteration(self, disk2_ops):
        # entirely unyielded stress: all Hessian blocks vanish
        rng = np.random.default_rng(23)
        grad = rng.standard_normal(disk2_ops.n_stress)
        blocks = np.zeros((disk2_ops.tri.n_triangles, 2, 2))
        delta = 0.7
        step, reason, count = run_cg(disk2_ops, grad, blocks, delta)
        assert reason == "curvature" and count == 1
        assert np.linalg.norm(step) <= delta * (1.0 + 1e-12)
        model = float(step @ grad)  # quadratic part vanishes
        assert model < 0.0

    def test_flat_direction_stops_at_model_minimiser(self, disk2_ops):
        # Rayleigh quotient 1e-12 is below _DIVTOL, and the minimiser of
        # the model along -Pg lies far inside the radius
        rng = np.random.default_rng(26)
        grad = rng.standard_normal(disk2_ops.n_stress)
        blocks = np.broadcast_to(1e-12 * np.eye(2), (disk2_ops.tri.n_triangles, 2, 2))
        pg = disk2_ops.project_nullspace(grad)
        gr = float(pg @ pg)
        curvature = float(pg @ hessian_apply(blocks, pg))
        delta = 1e15 * float(np.linalg.norm(pg))
        step, reason, count = run_cg(disk2_ops, grad, blocks, delta)
        assert reason == "curvature" and count == 1
        np.testing.assert_allclose(step, -(gr / curvature) * pg, rtol=1e-14, atol=0.0)

    def test_step_stays_in_nullspace_and_inside_ball(self, disk3_ops):
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.2)
        tau = disk3_ops.project_feasible(np.zeros(disk3_ops.n_stress))
        grad = gradient(params, disk3_ops, tau)
        hess = hessian(params, disk3_ops, tau)
        for delta in (1e-3, 1e-1, 1e3):
            step, _, _ = run_cg(disk3_ops, grad, hess, delta, forcing=1e-8)
            assert np.linalg.norm(step) <= delta * (1.0 + 1e-12)
            bound = 1e-8 * (1.0 + np.abs(disk3_ops.f_h).max())
            assert np.abs(disk3_ops.D @ step).max() <= bound

    def test_iterate_norms_strictly_increase(self, disk3_ops):
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.2)
        tau = disk3_ops.project_feasible(np.zeros(disk3_ops.n_stress))
        grad = gradient(params, disk3_ops, tau)
        hess = hessian(params, disk3_ops, tau)
        path = []
        _, reason, count = run_cg(disk3_ops, grad, hess, 1e6, forcing=1e-6, path=path)
        assert reason == "converged" and count == len(path) < trust_region._REPROJECT_EVERY
        # each kept trial norm is the norm of the iterate CG moves to
        norms = [reach for _, _, reach, _, _ in path]
        assert norms == [float(np.sqrt(z @ z)) for z in path_iterates(path)]
        assert len(norms) >= 3
        diffs = np.diff(norms)
        assert np.all(diffs > -1e-14 * max(norms))
        assert np.all(diffs[:-1] > 0.0) and diffs[-1] >= 0.0

    def test_boundary_roots_are_asked_only_outward(self, monkeypatch):
        # z.d >= 0 at every boundary exit, so _boundary_intersection needs
        # no root formula for b = 2 z.d < 0
        signs = []

        def recording(z, d, delta):
            signs.append(float(z @ d))
            return _boundary_intersection(z, d, delta)

        monkeypatch.setattr(trust_region, "_boundary_intersection", recording)
        tri = generate_square_mesh(12)
        ops = assemble(tri, f=1.0)
        cfg = TrsConfig(abstol=abstol_for(tri), reltol=1e-6)
        for alpha, tau0 in ((2.0, 0.3), (1.5, 0.1)):
            solve_trs(FluidParams(alpha=alpha, kappa=1.0, tau0=tau0), ops, cfg=cfg)
        assert len(signs) >= 5 and min(signs) >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(z=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           d=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           scale=st.floats(1.0 + 1e-6, 1e6))
    def test_boundary_root_lies_on_the_sphere(self, z, d, scale):
        z, d = np.array(z), np.array(d)
        # a largest component of 1 keeps d @ d clear of underflow
        d = d / np.abs(d).max() if d.any() else np.array([1.0, 0.0, 0.0])
        if z @ d < 0.0:
            d = -d
        delta = scale * max(float(np.linalg.norm(z)), 1e-3)
        s = _boundary_intersection(z, d, delta)
        assert s > 0.0
        assert abs(np.linalg.norm(z + s * d) - delta) <= 1e-12 * delta

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.sampled_from([2.0, 1.5]), e=st.floats(-8.0, 4.0))
    def test_scaled_gradient_gives_scaled_step(self, alpha, e):
        # the projected gradient shrinks as TRS converges: neither the
        # curvature test nor the stopping test may depend on its size
        ops = assemble(generate_disk_mesh(3), f=1.0)
        params = FluidParams(alpha=alpha, kappa=1.0, tau0=0.2)
        tau = ops.project_feasible(np.zeros(ops.n_stress))
        grad = gradient(params, ops, tau)
        hess = hessian(params, ops, tau)
        c = 10.0 ** e
        step, reason, count = run_cg(ops, c * grad, hess, 1e6, forcing=1e-10)
        base, base_reason, base_count = run_cg(ops, grad, hess, 1e6, forcing=1e-10)
        assert (reason, count) == (base_reason, base_count)
        assert np.linalg.norm(step - c * base) <= 1e-9 * np.linalg.norm(c * base)

    def test_inner_cap_reported(self, disk3_ops, monkeypatch):
        # from this start CG needs 69 iterations to reach forcing 1e-14;
        # one per triangle caps it at 54.  Both runs pass the re-projection
        # after _REPROJECT_EVERY steps, and their steps stay in null(D).
        params = FluidParams(alpha=1.5, kappa=1.0, tau0=0.2)
        rng = np.random.default_rng(25)
        tau = disk3_ops.project_feasible(rng.standard_normal(disk3_ops.n_stress))
        grad = gradient(params, disk3_ops, tau)
        hess = hessian(params, disk3_ops, tau)
        bound = 1e-8 * (1.0 + np.abs(disk3_ops.f_h).max())
        step, reason, count = run_cg(disk3_ops, grad, hess, 1e6, forcing=1e-14)
        assert reason == "converged" and count > disk3_ops.tri.n_triangles
        assert np.abs(disk3_ops.D @ step).max() <= bound
        monkeypatch.setattr(trust_region, "_CG_PER_TRIANGLE", 1)
        step, reason, count = run_cg(disk3_ops, grad, hess, 1e6, forcing=1e-14)
        assert reason == "cap" and count == disk3_ops.tri.n_triangles
        assert count > trust_region._REPROJECT_EVERY
        assert np.isfinite(step).all()
        assert np.abs(disk3_ops.D @ step).max() <= bound


class TestSolveTrs:
    @pytest.mark.parametrize("refinement", [1, 2, 3])
    def test_quadratic_limit_single_iteration(self, refinement):
        tri = generate_disk_mesh(refinement)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.0)
        tau, y, report = solve_trs(params, ops)
        assert report.converged and report.iterations == 1
        assert np.abs(y - dense_poisson_velocity(ops)).max() <= 1e-8

    def test_quadratic_limit_stops_before_cg(self, disk3_ops):
        # the projected start is the minimiser: its projected gradient is
        # below abstol, so the first pass stops without a subproblem
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.0)
        _, _, report = solve_trs(params, disk3_ops)
        assert report.converged and report.iterations == 1
        assert report.cg_iterations == []

    def test_every_pass_but_the_last_takes_a_cg_step(self):
        # a projected gradient below abstol stops the loop on the pass
        # that sees it, not one pass later
        tri = generate_disk_mesh(12)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
        cfg = TrsConfig(abstol=abstol_for(tri), reltol=1e-6)
        _, _, report = solve_trs(params, ops, cfg=cfg)
        assert report.converged
        assert all(inner > 0 for inner, _ in report.cg_iterations)
        assert len(report.cg_iterations) == report.iterations - 1

    @pytest.mark.parametrize("tau0", [0.5, 0.6])
    def test_flow_stops_at_large_yield_stress(self, tau0):
        tri = generate_disk_mesh(8)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=tau0)
        tau, y, report = solve_trs(params, ops)
        assert report.converged
        assert np.abs(y).max() <= 1e-6
        assert block_norms(tau).max() <= tau0 + 1e-6
        assert report.objective_history[-1] == 0.0

    def test_bingham_pipe_matches_expected_scale(self):
        tri = generate_disk_mesh(12)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
        tau, y, report = solve_trs(params, ops)
        assert report.converged
        assert 1 <= report.iterations <= 20
        assert report.kkt_history[-1] <= 1e-4

    def test_cg_takes_newton_steps_on_the_pipe(self):
        # a projected-gradient step to the boundary on every pass means
        # the curvature test fired on a positive-curvature direction
        ops = assemble(generate_disk_mesh(12), f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
        _, _, report = solve_trs(params, ops)
        assert report.converged
        assert any(reason == "converged" and inner > 0
                   for inner, reason in report.cg_iterations)

    def test_square_duct_plug_converges(self):
        # large plugs on a square duct: every Hessian block on the plug is
        # zero, yet the yielded blocks give CG positive curvature to use
        tri = generate_square_mesh(12)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.3)
        cfg = TrsConfig(abstol=abstol_for(tri), reltol=1e-6)
        _, _, report = solve_trs(params, ops, cfg=cfg)
        assert report.converged
        assert report.iterations <= 100
        assert all(reason != "curvature" for _, reason in report.cg_iterations)

    def test_cg_reuses_the_stationarity_projection(self, monkeypatch):
        # grad - D^T y from the velocity recovery is CG's first projected
        # gradient, so each outer iteration that runs CG afresh saves one
        # D D^T solve and the iterates do not change; a pass that replays
        # the last CG path runs no CG at all
        tri = generate_square_mesh(8)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.3)
        cfg = TrsConfig(abstol=abstol_for(tri), reltol=1e-6)

        def counted_run(cg):
            ops = assemble(tri, f=1.0)
            solve, calls, runs = ops.solve_ddt, [], []
            ops.solve_ddt = lambda rhs: calls.append(rhs) or solve(rhs)
            monkeypatch.setattr(trust_region, "cg_steihaug",
                                lambda *args: runs.append(1) or cg(*args))
            return (*solve_trs(params, ops, cfg=cfg), len(calls), len(runs))

        def projecting_again(ops, grad, projected, hess, delta, path):
            return cg_steihaug(ops, grad, ops.project_nullspace(grad), hess, delta, path)

        tau, y, report, saved, runs = counted_run(cg_steihaug)
        tau_old, y_old, report_old, solves, runs_old = counted_run(projecting_again)
        assert report.converged and report.iterations > 10
        assert np.array_equal(tau, tau_old) and np.array_equal(y, y_old)
        assert report.kkt_history == report_old.kkt_history
        fresh = sum(inner > 0 for inner, _ in report.cg_iterations)
        assert solves - saved == runs == runs_old == fresh
        assert fresh < len(report.cg_iterations) == report.iterations - 1

    def test_iterates_stay_feasible(self):
        tri = generate_disk_mesh(6)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=1.5, kappa=1.0, tau0=0.2)
        _, _, report = solve_trs(params, ops)
        assert report.converged
        bound = 1e-8 * (1.0 + np.abs(ops.f_h).max())
        assert max(report.feasibility_history) <= bound

    def test_objective_history_non_increasing(self):
        tri = generate_disk_mesh(6)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=1.75, kappa=1.0, tau0=0.2)
        _, _, report = solve_trs(params, ops)
        values = np.asarray(report.objective_history)
        assert np.all(np.diff(values) <= 1e-12 * (1.0 + values[0]))

    def test_histories_align_with_iterations(self):
        tri = generate_disk_mesh(5)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.2)
        _, _, report = solve_trs(params, ops)
        assert report.converged
        assert len(report.kkt_history) == report.iterations
        assert len(report.objective_history) == report.iterations
        assert len(report.radius_history) == report.iterations

    def test_final_kkt_residual_below_abstol(self):
        tri = generate_disk_mesh(6)
        ops = assemble(tri, f=1.0)
        for alpha, tau0 in ((2.0, 0.1), (1.5, 0.2)):
            params = FluidParams(alpha=alpha, kappa=1.0, tau0=tau0)
            tau, y, report = solve_trs(params, ops)
            assert report.converged
            assert report.kkt_history[-1] <= 1e-4

    def test_iteration_cap_is_reported_not_raised(self):
        tri = generate_disk_mesh(6)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=1.5, kappa=1.0, tau0=0.2)
        _, _, full = solve_trs(params, ops)
        assert full.converged and full.iterations > 1
        _, _, capped = solve_trs(params, ops, cfg=TrsConfig(abstol=abstol_for(tri), max_outer=1))
        assert capped.status == "max_iterations"
        assert capped.iterations == 1

    def test_non_finite_start_stops_at_once(self, disk3_ops, monkeypatch):
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
        monkeypatch.setattr(trust_region, "gradient",
                            lambda params, ops, tau: np.full(ops.n_stress, np.nan))
        _, _, report = solve_trs(params, disk3_ops)
        assert report.status == "non_finite"
        assert report.iterations == 1
        assert not report.converged

    def test_non_finite_model_stops(self, disk3_ops):
        # kappa^(1/(alpha-1)) = 8.7e-308 is barely normal: the gradient and
        # Hessian are finite, but CG overflows, so the step and pred are not
        params = FluidParams(alpha=1.01, kappa=8.5e-4, tau0=0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            tau, _, report = solve_trs(params, disk3_ops)
        assert report.status == "non_finite"
        assert report.iterations <= 2
        assert np.all(np.isfinite(tau))

    # max_examples comes from the hypothesis profile (tests/conftest.py)
    @settings(deadline=None, derandomize=True)
    @given(tri=st.one_of(st.builds(generate_square_mesh, st.integers(4, 8)),
                         jiggled(perturbed_disk, st.integers(2, 4)),
                         jiggled(jittered_square, st.integers(4, 8))),
           alpha=st.floats(1.0, 2.0, exclude_min=True), tau0=st.floats(0.0, 0.6),
           max_outer=st.sampled_from([1, 2, 3, 200]))
    # a step on the last allowed pass would be accepted here; the result
    # must not pair that stress with the previous iterate's velocity
    @example(tri=generate_square_mesh(8), alpha=2.0, tau0=0.1, max_outer=1)
    @example(tri=generate_square_mesh(4), alpha=2.0, tau0=0.1, max_outer=200)  # stalls
    # the safeguards the draws reach, pinned by test_draws_reach_the_curvature_exit
    @example(tri=jittered_square(4, 0.18, 93), alpha=1.1, tau0=0.35, max_outer=200)
    @example(tri=generate_square_mesh(8), alpha=1.05, tau0=0.0, max_outer=200)
    def test_result_describes_one_iterate(self, tri, alpha, tau0, max_outer):
        # abstol 1e-12 lets every cap bite; max_outer = 200 ends converged
        # or stalled
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=alpha, kappa=1.0, tau0=tau0)
        tau, y, report = solve_trs(params, ops, cfg=TrsConfig(abstol=1e-12, max_outer=max_outer))
        grad = gradient(params, ops, tau)
        assert y.tobytes() == ops.recover_velocity(grad).tobytes()
        assert report.kkt_history[-1] == float(np.abs(grad - ops.DT @ y).max(initial=0.0))
        assert report.objective_history[-1] == objective(params, ops, tau)
        assert report.feasibility_history[-1] == ops.momentum_residual(tau)
        assert ops.momentum_residual(tau) <= 1e-8 * (1.0 + np.abs(ops.f_h).max())
        start = ops.project_feasible(np.zeros(ops.n_stress))
        assert report.objective_history[0] == objective(params, ops, start)
        values = np.asarray(report.objective_history)
        assert np.all(np.diff(values) <= 1e-12 * (1.0 + abs(values[0])))
        # projecting onto D tau = f_h twice moves the stress by rounding only
        once = ops.project_feasible(tau)
        eps = np.finfo(float).eps
        assert np.abs(ops.project_feasible(once) - once).max() <= 16 * eps * np.abs(once).max()


    @pytest.mark.parametrize("tri, alpha, tau0, past_reprojection", [
        (jittered_square(4, 0.18, 93), 1.1, 0.35, False),
        (generate_square_mesh(8), 1.05, 0.0, True),
    ])
    def test_draws_reach_the_curvature_exit(self, tri, alpha, tau0, past_reprojection):
        # inputs of test_result_describes_one_iterate that reach CG's
        # curvature exit; near alpha = 1 on the square a CG run passes the
        # re-projection after _REPROJECT_EVERY steps and exits there
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=alpha, kappa=1.0, tau0=tau0)
        _, _, report = solve_trs(params, ops, cfg=TrsConfig(abstol=1e-12, max_outer=200))
        assert report.converged
        exits = [inner for inner, reason in report.cg_iterations if reason == "curvature"]
        assert exits
        longest = max(inner for inner, _ in report.cg_iterations)
        assert (longest > trust_region._REPROJECT_EVERY) == past_reprojection
        assert (max(exits) > trust_region._REPROJECT_EVERY) == past_reprojection


def rejecting_square_cell():
    """8^2 plug cell at the benchmark tolerance: some of its steps are rejected."""
    tri = generate_square_mesh(8)
    params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.3)
    cfg = TrsConfig(abstol=abstol_for(tri), reltol=1e-6)
    return params, assemble(tri, f=1.0), cfg


class TestEvaluationReuse:
    def test_each_iterate_is_evaluated_once(self, monkeypatch):
        # a rejected step changes only the radius, so the pass after it
        # replays CG's path and evaluates the trial objective, nothing else
        params, ops, cfg = rejecting_square_cell()
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("gradient", "objective", "hessian"):
            monkeypatch.setattr(trust_region, name, counted(name, getattr(trust_region, name)))
        ops.recover_velocity = counted("recover_velocity", ops.recover_velocity)
        outcomes = []

        def recorded_update(*args):
            accepted, delta = update_radius(*args)
            outcomes.append(accepted)
            return accepted, delta

        monkeypatch.setattr(trust_region, "update_radius", recorded_update)
        _, _, report = solve_trs(params, ops, cfg=cfg)
        assert report.converged and report.rejected_steps > 0
        assert calls["gradient"] == calls["recover_velocity"] == report.accepted_steps + 1
        assert calls["objective"] == len(report.cg_iterations) + 1
        assert calls["hessian"] <= report.accepted_steps + 1
        after_rejection = [k + 1 for k, accepted in enumerate(outcomes) if not accepted]
        assert after_rejection
        for k in after_rejection:
            assert report.kkt_history[k] == report.kkt_history[k - 1]
            assert report.objective_history[k] == report.objective_history[k - 1]

    def test_reused_vectors_are_not_changed_by_cg(self, monkeypatch):
        # passes after a rejection hand CG the gradient and projected
        # gradient of an earlier pass; CG on copies must give the same run
        params, ops, cfg = rejecting_square_cell()
        tau, y, report = solve_trs(params, ops, cfg=cfg)
        assert report.rejected_steps > 0

        def on_copies(ops, grad, projected, hess, delta, path):
            return cg_steihaug(ops, grad.copy(), projected.copy(), hess, delta, path)

        monkeypatch.setattr(trust_region, "cg_steihaug", on_copies)
        tau_copy, y_copy, report_copy = solve_trs(params, ops, cfg=cfg)
        assert tau.tobytes() == tau_copy.tobytes() and y.tobytes() == y_copy.tobytes()
        for history in ("kkt_history", "objective_history", "radius_history",
                        "feasibility_history", "cg_iterations"):
            assert getattr(report, history) == getattr(report_copy, history)


def replay_subproblem(ops, case):
    """Gradient, Hessian blocks, radius and CG forcing of a path ending ``case``."""
    params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.2)
    tau = ops.project_feasible(np.zeros(ops.n_stress))
    grad = gradient(params, ops, tau)
    hess = hessian(params, ops, tau)
    if case == "boundary":
        # the iterate norms are 0.24, 0.34, 0.37, 0.39, 0.41, ...
        return grad, hess, 0.4, 1e-6
    if case == "converged":
        return grad, hess, 1e6, 1e-6
    if case == "curvature":
        # three triangles with eigenvalues +-trace: two CG steps, then a
        # direction of negative curvature
        rng = np.random.default_rng(19)
        blocks = hess.copy()
        bent = rng.choice(ops.tri.n_triangles, 3, replace=False)
        blocks[bent] = np.diag([1.0, -1.0]) * np.trace(hess[bent], axis1=1, axis2=2)[:, None, None]
        return grad, blocks, 1e6, 1e-6
    # flat: Rayleigh quotient 1e-12, so the curvature exit stops at the
    # model minimiser unless the boundary is nearer
    blocks = np.broadcast_to(1e-12 * np.eye(2), (ops.tri.n_triangles, 2, 2))
    return grad, blocks, 1e15 * float(np.linalg.norm(ops.project_nullspace(grad))), 0.5


class TestReplay:
    @pytest.mark.parametrize("case", ["boundary", "converged", "curvature", "flat"])
    def test_replay_matches_a_fresh_run(self, disk3_ops, case):
        grad, hess, delta, forcing = replay_subproblem(disk3_ops, case)
        path = []
        step, reason, count = run_cg(disk3_ops, grad, hess, delta, forcing, path)
        assert reason == ("curvature" if case == "flat" else case)
        assert len(path) == count >= (1 if case == "flat" else 3)
        reaches = [reach for _, _, reach, _, _ in path if np.isfinite(reach)]
        if reaches:
            # every kept crossing, exactly at its trial norm and between two
            radii = [reaches[0] / 2, *reaches, *((a + b) / 2 for a, b in zip(reaches, reaches[1:]))]
        else:
            # the flat exit, nearer the boundary and nearer the minimiser
            radii = [0.5 * float(np.linalg.norm(step)), 2.0 * float(np.linalg.norm(step))]
        for radius in radii:
            replayed = trust_region._replay(path, radius)
            fresh, fresh_reason, _ = run_cg(disk3_ops, grad, hess, radius, forcing)
            assert replayed is not None
            assert replayed[1] == fresh_reason
            assert replayed[0].tobytes() == fresh.tobytes()
        if case == "converged":
            # past the last trial norm the run ends at its converged step,
            # which is not kept
            assert trust_region._replay(path, 2.0 * reaches[-1]) is None

    def test_path_is_bounded_and_an_exit_past_it_runs_cg(self, disk3_ops):
        # from this start CG takes 69 iterations to reach forcing 1e-14
        params = FluidParams(alpha=1.5, kappa=1.0, tau0=0.2)
        rng = np.random.default_rng(25)
        tau = disk3_ops.project_feasible(rng.standard_normal(disk3_ops.n_stress))
        grad = gradient(params, disk3_ops, tau)
        hess = hessian(params, disk3_ops, tau)
        path = []
        step, _, count = run_cg(disk3_ops, grad, hess, 1e6, 1e-14, path)
        assert count > len(path) == trust_region._REPROJECT_EVERY
        # just past every kept trial norm the run ends beyond the kept steps
        radius = np.nextafter(max(reach for _, _, reach, _, _ in path), np.inf)
        assert trust_region._replay(path, radius) is None
        fresh, reason, fresh_count = run_cg(disk3_ops, grad, hess, radius, 1e-14)
        assert (reason, fresh_count) == ("converged", count)
        assert fresh.tobytes() == step.tobytes()

    def test_solve_is_unchanged_when_every_replay_declines(self, monkeypatch):
        # 12^2 plug cell at the benchmark tolerance: 16 rejected steps
        tri = generate_square_mesh(12)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.3)
        tau, y, report = solve_trs(params, ops)
        monkeypatch.setattr(trust_region, "_replay", lambda path, delta: None)
        tau_cg, y_cg, report_cg = solve_trs(params, ops)
        assert report.converged and report.rejected_steps == 16
        assert tau.tobytes() == tau_cg.tobytes() and y.tobytes() == y_cg.tobytes()
        for name in ("kkt_history", "objective_history", "radius_history",
                     "feasibility_history", "iterations", "accepted_steps",
                     "rejected_steps", "status"):
            assert getattr(report, name) == getattr(report_cg, name)
        # a replayed pass runs no CG and exits as the fresh run did; only
        # a rejection shrinks the radius, and every pass after one replays
        pairs = list(zip(report.cg_iterations, report_cg.cg_iterations))
        assert len(pairs) == len(report_cg.cg_iterations) == report.iterations - 1
        assert all(reason == fresh_reason and inner in (0, fresh)
                   for (inner, reason), (fresh, fresh_reason) in pairs)
        radius = report.radius_history
        replayed = {k for k, (inner, _) in enumerate(report.cg_iterations) if inner == 0}
        after_rejection = {k for k in range(1, len(pairs)) if radius[k] < radius[k - 1]}
        assert replayed == after_rejection
        assert all(fresh > 0 for fresh, _ in report_cg.cg_iterations)


class TestStall:
    @pytest.mark.parametrize("z_norm2, delta", [(1.0, 1.0), (1.5, 1.0), (0.0, 1e-170)])
    def test_boundary_intersection_is_zero_on_or_outside_the_ball(self, z_norm2, delta):
        # the last case is delta^2 underflowing to 0 with z = 0, where the
        # quadratic formula would give 0/0
        z = np.array([np.sqrt(z_norm2), 0.0])
        d = np.array([0.0, 1.0])
        assert _boundary_intersection(z, d, delta) == 0.0

    def test_tight_tolerance_stalls_instead_of_crashing(self):
        # 12^2, alpha = 1.5, tau0 = 0.3 at 1e-10 mean|T_k|: once the model
        # decrease is below the rounding of J, trial steps are rejected
        # and, without the stall stop, the radius shrinks until delta^2
        # underflows and the boundary root is 0/0
        tri = generate_square_mesh(12)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=1.5, kappa=1.0, tau0=0.3)
        cfg = TrsConfig(abstol=abstol_for(tri, 1e-10), reltol=1e-6, max_outer=5000)
        tau, y, report = solve_trs(params, ops, cfg=cfg)
        assert report.status == "stalled"
        assert not report.converged
        assert report.iterations < cfg.max_outer
        assert report.rejected_steps >= 1
        assert report.radius_history[-1] > 0.0
        assert np.all(np.isfinite(report.kkt_history)) and np.all(np.isfinite(y))
        bound = 1e-8 * (1.0 + np.abs(ops.f_h).max())
        assert ops.momentum_residual(tau) <= bound
