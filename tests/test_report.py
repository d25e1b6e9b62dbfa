"""The count rule and the positive-finite rule, through every setting they
check, and the outer-loop driver's contract, through both solvers."""

import math
import re

import numpy as np
import pytest

from ductflow import (Alg2Config, FluidParams, TrsConfig, generate_disk_mesh,
                      generate_square_mesh, solve_alg2, solve_trs)

NAN, INF = float("nan"), float("inf")

# (setting's owner, setting, out-of-range value); the generators take the
# refinement positionally
BAD_SETTINGS = [
    *[(TrsConfig, name, value) for name, value in
      [("abstol", NAN), ("reltol", 0.0), ("max_outer", 2.5)]],
    *[(Alg2Config, name, value) for name, value in
      [("r", INF), ("abstol", -1.0), ("reltol", NAN), ("newton_abstol", 0.0),
       ("newton_reltol", "1e-8"), ("max_outer", 0)]],
    *[(FluidParams, "kappa", value) for value in (0.0, -INF, NAN, "1")],
    # a fractional refinement is rejected, not truncated to the integer
    # below it
    *[(generate, "refinement", value) for generate in (generate_disk_mesh, generate_square_mesh)
      for value in (0, -1, 2.5, 3.9, INF, "3")],
]


def build(owner, name, value):
    if owner is FluidParams:
        return FluidParams(alpha=2.0, kappa=value)
    if name == "refinement":
        return owner(value)
    return owner(**{"abstol": 1e-4, name: value})


@pytest.mark.parametrize("owner, name, value", BAD_SETTINGS,
                         ids=[f"{owner.__name__}-{name}-{value!r}"
                              for owner, name, value in BAD_SETTINGS])
def test_out_of_range_setting_is_rejected_by_name(owner, name, value):
    rule = "at least 1 and an integer" if name in ("max_outer", "refinement") else \
        "positive and finite"
    message = f"{name} must be {rule}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(owner, name, value)


def test_numpy_integer_counts_accepted():
    assert TrsConfig(abstol=1e-4, max_outer=np.int64(3)).max_outer == 3
    for generate, n in ((generate_disk_mesh, 3), (generate_square_mesh, 4)):
        expected, tri = generate(n), generate(np.int64(n))
        assert np.array_equal(tri.nodes, expected.nodes)
        assert np.array_equal(tri.triangles, expected.triangles)
        assert np.array_equal(tri.is_dirichlet, expected.is_dirichlet)


# per solver: its report, its config, and an ops method with a stand-in
# that makes the first pass's momentum defect (TRS) or velocity (ALG2) NaN
SOLVERS = {
    "trs": (lambda params, ops, cfg: solve_trs(params, ops, cfg)[2], TrsConfig,
            "momentum_residual", lambda tau: math.nan),
    "alg2": (lambda params, ops, cfg: solve_alg2(params, ops, cfg)[3], Alg2Config,
             "solve_stiffness", lambda rhs: np.full_like(rhs, np.nan)),
}


def check_driver_contract(solver, report):
    assert len(report.kkt_history) == len(report.feasibility_history) == report.iterations
    assert report.wall_time > 0.0
    if solver == "trs":
        # every pass but the last solved one subproblem and judged its step
        assert report.accepted_steps + report.rejected_steps == len(report.cg_iterations)
        assert len(report.cg_iterations) == report.iterations - 1
    else:
        assert len(report.objective_history) == 1


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("max_outer", [None, 1, 3])
def test_driver_stops_converged_or_at_the_cap(solver, max_outer, disk3_ops):
    solve, config, _, _ = SOLVERS[solver]
    # no config is the rule, where both converge; abstol 1e-14 lets each cap bite
    cfg = None if max_outer is None else config(abstol=1e-14, max_outer=max_outer)
    report = solve(FluidParams(alpha=2.0, tau0=0.1), disk3_ops, cfg)
    check_driver_contract(solver, report)
    if max_outer is None:
        assert report.converged and report.iterations > 1
    else:
        assert (report.status, report.iterations) == ("max_iterations", max_outer)


@pytest.mark.parametrize("solver", SOLVERS)
def test_driver_stops_non_finite_on_the_first_nan(solver, disk3_ops, monkeypatch):
    solve, _, method, stand_in = SOLVERS[solver]
    monkeypatch.setattr(disk3_ops, method, stand_in)
    report = solve(FluidParams(alpha=2.0, tau0=0.1), disk3_ops, None)
    check_driver_contract(solver, report)
    assert (report.status, report.iterations) == ("non_finite", 1)
