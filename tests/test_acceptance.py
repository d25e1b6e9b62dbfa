"""Acceptance suite for the duct-flow solvers.

Every test prints one ``[PASS]/[FAIL]`` line for its criterion.  Heavy
shared computations (the full benchmark grid, the arrested-flow and
quadratic-limit runs) happen once in a session fixture and are reused by
the individual criteria.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest

from ductflow.augmented_lagrangian import Alg2Config, _shrink_field, solve_alg2
from ductflow.experiments import (ARRESTED_VELOCITY_BOUND, DEFAULT_ALPHAS,
                                  DEFAULT_REFINEMENTS, DEFAULT_TAU0S, run_cell)
from ductflow.fem import assemble
from ductflow.mesh import generate_disk_mesh
from ductflow.objective import FluidParams, block_norms, gradient, hessian
from ductflow.report import abstol_for
from ductflow.trust_region import _REPROJECT_EVERY, solve_trs
from oracles import (dense_poisson_velocity, dense_projected_newton_step,
                     fd_gradient, fd_hessian, hessian_blocks, random_stress_blocks)

TARGET_NODES = (559, 1129, 2169)

# Reference TRS relative errors of the benchmark tables, one value per
# refinement level (coarse to fine).
REFERENCE_TRS_ERRORS = {
    (2.00, 0.1): (1.48e-3, 6.35e-4, 3.40e-4),
    (2.00, 0.2): (2.19e-3, 8.97e-4, 5.30e-4),
    (1.75, 0.1): (1.97e-3, 8.79e-4, 4.56e-4),
    (1.75, 0.2): (3.03e-3, 1.33e-4, 7.28e-4),
    (1.50, 0.1): (3.38e-3, 1.50e-3, 7.87e-4),
    (1.50, 0.2): (5.68e-3, 2.69e-3, 1.46e-3),
}


def check(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@dataclass
class GridResults:
    cells: list = field(default_factory=list)       # (level, ExperimentRow, bound)
    level_abstols: list = field(default_factory=list)   # abstol_for(tri), one per level
    plug_runs: list = field(default_factory=list)   # (tau0, tau, y, report, bound)
    quad_runs: list = field(default_factory=list)   # (n_free, y, y_dense, trs_rep, y_alg2)

    def trs_reports_with_bounds(self):
        for _, row, bound in self.cells:
            yield row.trs, bound
        for _, _, _, report, bound in self.plug_runs:
            yield report, bound
        for run in self.quad_runs:
            yield run[3], run[5]


@pytest.fixture(scope="session")
def grid():
    results = GridResults()

    for level, refinement in enumerate(DEFAULT_REFINEMENTS):
        ops = assemble(generate_disk_mesh(refinement), f=1.0)
        bound = 1e-8 * (1.0 + float(np.abs(ops.f_h).max()))
        results.level_abstols.append(abstol_for(ops.tri))
        for alpha in DEFAULT_ALPHAS:
            for tau0 in DEFAULT_TAU0S:
                results.cells.append((level, run_cell(alpha, tau0, ops), bound))

    plug_tri = generate_disk_mesh(DEFAULT_REFINEMENTS[0])
    plug_ops = assemble(plug_tri, f=1.0)
    plug_bound = 1e-8 * (1.0 + float(np.abs(plug_ops.f_h).max()))
    for tau0 in (0.5, 0.6):
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=tau0)
        tau, y, report = solve_trs(params, plug_ops)
        results.plug_runs.append((tau0, tau, y, report, plug_bound))

    alg2_tight = Alg2Config(abstol=1e-9, reltol=1e-9, max_outer=50000)
    for refinement in (1, 2, 3):
        tri = generate_disk_mesh(refinement)
        ops = assemble(tri, f=1.0)
        bound = 1e-8 * (1.0 + float(np.abs(ops.f_h).max()))
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.0)
        _, y, report = solve_trs(params, ops)
        y_alg2, _, _, alg2_report = solve_alg2(params, ops, alg2_tight)
        results.quad_runs.append((tri.n_free, y, dense_poisson_velocity(ops),
                                  report, y_alg2, bound, alg2_report))
    return results


def test_criterion_1_analytic_accuracy(grid):
    # the fixture appends cells coarse to fine
    rows = [row for _, row, _ in grid.cells if row.alpha == 2.0 and row.tau0 == 0.1]
    errors = [r.error_trs for r in rows]
    times = [r.trs.wall_time + r.alg2.wall_time for r in rows]
    ok = (7e-4 <= errors[0] <= 3e-3
          and errors[0] > errors[1] > errors[2]
          and all(r.trs.converged for r in rows)
          and all(t <= 10.0 for t in times))
    check("criterion 1 (analytic accuracy)", ok,
          f"errors={['%.3e' % e for e in errors]}, band [7e-4, 3e-3], "
          f"times={['%.2fs' % t for t in times]}")


def test_criterion_2_table_grid(grid):
    assert len(grid.cells) == 18
    failures = []
    trs_not_worse = 0
    for level, row, _ in grid.cells:
        in_band = abs(row.n_nodes - TARGET_NODES[level]) <= 0.3 * TARGET_NODES[level]
        # the stationarity residual in strain-rate units at most 1e-4
        abstol = grid.level_abstols[level]
        converged = (row.trs.converged and row.alg2.converged
                     and row.trs.kkt_history[-1] <= abstol
                     and row.alg2.kkt_history[-1] <= abstol)
        reference = REFERENCE_TRS_ERRORS[(row.alpha, row.tau0)][level]
        error_ok = (row.error_trs <= row.error_alg2
                    or row.error_trs <= 2.0 * reference)
        if row.trs.iterations <= row.alg2.iterations:
            trs_not_worse += 1
        if not (in_band and converged and error_ok):
            failures.append((row.alpha, row.tau0, row.n_nodes,
                             in_band, converged, error_ok))
    ok = not failures and trs_not_worse >= 16
    check("criterion 2 (table grid reproduction)", ok,
          f"18 cells, trs_iterations <= alg2_iterations in {trs_not_worse}/18, "
          f"failures={failures}")


def test_grid_solvers_iterate_to_one_accuracy(grid):
    # at a tolerance in strain-rate units TRS leaves its starting
    # projection and both solvers reach the discretisation error; a
    # tolerance that loosens with the mesh lets TRS stop at pass 1 with
    # errors up to 5.5x apart from ALG2's
    failures = []
    for _, row, _ in grid.cells:   # every grid cell flows
        gap = abs(row.error_trs - row.error_alg2)
        if not (row.trs.iterations >= 2 and gap <= 0.05 * row.error_alg2):
            failures.append((row.alpha, row.tau0, row.n_nodes, row.trs.iterations,
                             f"{gap / row.error_alg2:.1%}"))
    check("grid stopping tolerance", not failures,
          f"{len(grid.cells)} cells, TRS >= 2 passes and errors within 5 % of ALG2's, "
          f"failures={failures}")


def test_criterion_3_quadratic_limit_oracle(grid):
    details = []
    ok = True
    for n_free, y, y_dense, trs_rep, y_alg2, _, alg2_rep in grid.quad_runs:
        trs_gap = float(np.abs(y - y_dense).max())
        alg2_gap = float(np.abs(y_alg2 - y_dense).max())
        good = (n_free <= 50 and trs_rep.converged and trs_rep.iterations == 1
                and trs_gap <= 1e-8 and alg2_rep.converged and alg2_gap <= 1e-6)
        ok &= good
        details.append(f"n_free={n_free}: trs_it={trs_rep.iterations} "
                       f"trs_gap={trs_gap:.1e} alg2_gap={alg2_gap:.1e}")
    check("criterion 3 (quadratic-limit oracle)", ok, "; ".join(details))


def test_criterion_4_flow_stop(grid):
    details = []
    ok = True
    for tau0, tau, y, report, _ in grid.plug_runs:
        vmax = float(np.abs(y).max()) if y.size else 0.0
        smax = float(block_norms(tau).max())
        good = (report.converged and vmax <= ARRESTED_VELOCITY_BOUND
                and smax <= tau0 + 1e-6)
        ok &= good
        details.append(f"tau0={tau0}: max|y|={vmax:.1e} max|tau_k|={smax:.4f}")
    check("criterion 4 (flow-stop plasticity)", ok, "; ".join(details))


def test_criterion_5_derivative_consistency():
    ops = assemble(generate_disk_mesh(3), f=1.0)   # 54 triangles per field
    n_t = ops.tri.n_triangles
    rng = np.random.default_rng(1234)
    worst_grad, worst_hess, worst_eig, blocks_seen = 0.0, 0.0, 0.0, 0
    for alpha in DEFAULT_ALPHAS:
        params = FluidParams(alpha=alpha, kappa=1.0, tau0=0.3)
        for _ in range(2):   # 108 random blocks per alpha
            tau = random_stress_blocks(rng, n_t, params.tau0)
            blocks_seen += n_t

            g = gradient(params, ops, tau)
            fd_g = fd_gradient(params, ops, tau, h=1e-6)
            worst_grad = max(worst_grad,
                             float(np.abs(fd_g - g).max()) / max(1.0, float(np.abs(g).max())))

            blocks = hessian_blocks(hessian(params, ops, tau))
            fd_h = fd_hessian(params, ops, tau, h=1e-5)
            worst_hess = max(worst_hess,
                             float(np.abs(fd_h - blocks).max()) / max(1.0, float(np.abs(blocks).max())))

            for block in blocks:
                scale = max(float(np.abs(block).max()), 1e-300)
                worst_eig = min(worst_eig, float(np.linalg.eigvalsh(block).min()) / scale)
    ok = (blocks_seen >= 3 * 100 and worst_grad <= 1e-6 and worst_hess <= 1e-4
          and worst_eig >= -1e-12)
    check("criterion 5 (derivative consistency)", ok,
          f"{blocks_seen // 3} blocks/alpha, grad_err={worst_grad:.2e} (<=1e-6), "
          f"hess_err={worst_hess:.2e} (<=1e-4), min_eig_ratio={worst_eig:.1e}")


def test_criterion_6_feasibility_and_monotonicity(grid):
    worst_feas_ratio = 0.0
    monotone = True
    runs = 0
    for report, bound in grid.trs_reports_with_bounds():
        runs += 1
        worst_feas_ratio = max(worst_feas_ratio,
                               max(report.feasibility_history) / bound)
        values = np.asarray(report.objective_history)
        if not np.all(np.diff(values) <= 1e-12 * (1.0 + values[0])):
            monotone = False
    ok = worst_feas_ratio <= 1.0 and monotone
    check("criterion 6 (feasibility and monotonicity)", ok,
          f"{runs} runs, worst feasibility at {worst_feas_ratio:.1e} of bound, "
          f"objective monotone={monotone}")


def test_criterion_7_cgs_structure():
    from test_trust_region import path_iterates, run_cg

    # (a) inner iterates: strictly increasing norms, steps stay in null(D).
    # A run shorter than _REPROJECT_EVERY keeps every step in its path,
    # and the iterates summed from the path are CG's own, bit for bit.
    ops = assemble(generate_disk_mesh(12), f=1.0)
    params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.2)
    tau = ops.project_feasible(np.zeros(ops.n_stress))
    grad = gradient(params, ops, tau)
    hess = hessian(params, ops, tau)
    path = []
    _, _, count = run_cg(ops, grad, hess, 1e6, forcing=1e-6, path=path)
    norms = [reach for _, _, reach, _, _ in path]
    drifts = [float(np.abs(ops.D @ z).max()) for z in path_iterates(path)]
    every_iterate = len(path) == count < _REPROJECT_EVERY
    increasing = (len(norms) >= 3
                  and all(b - a > -1e-14 * max(norms) for a, b in zip(norms, norms[1:])))
    in_nullspace = max(drifts) <= 1e-8

    # (b) dense saddle-point oracle on a 6-triangle mesh
    small = assemble(generate_disk_mesh(1), f=1.0)
    qparams = FluidParams(alpha=2.0, kappa=1.0, tau0=0.0)
    rng = np.random.default_rng(99)
    tau_q = small.project_feasible(rng.standard_normal(small.n_stress))
    grad_q = gradient(qparams, small, tau_q)
    hess_q = hessian(qparams, small, tau_q)
    y_q = small.recover_velocity(grad_q)
    step, reason, _ = run_cg(small, grad_q, hess_q, 1e6, forcing=1e-13)
    newton_gap = float(np.abs(step - dense_projected_newton_step(
        small, grad_q, hess_q, y_q)).max())

    ok = (every_iterate and increasing and in_nullspace and reason == "converged"
          and newton_gap <= 1e-8)
    check("criterion 7 (CGS structure)", ok,
          f"{len(norms)} of {count} CG iterates read from the path, "
          f"norms increasing={increasing}, "
          f"max|D z|={max(drifts):.1e} (<=1e-8), newton_gap={newton_gap:.1e} (<=1e-8)")


def test_criterion_8_shrink_oracle():
    from test_augmented_lagrangian import bisect_magnitude

    tight = Alg2Config(abstol=1e-4, newton_abstol=1e-13, newton_reltol=1e-14)
    rng = np.random.default_rng(4321)
    worst = 0.0
    zero_rule = True
    for i in range(1000):
        alpha = 2.0 if i % 4 == 0 else float(rng.uniform(1.001, 2.0))
        kappa = float(rng.uniform(0.1, 5.0))
        r = float(rng.uniform(0.5, 50.0))
        tau0 = float(rng.uniform(0.0, 2.0))
        w = float(rng.uniform(0.0, 5.0))
        params = FluidParams(alpha=alpha, kappa=kappa, tau0=tau0)
        m = float(_shrink_field(params, r, np.array([w]), tight, np.zeros(1))[0])
        if w <= tau0 and m != 0.0:
            zero_rule = False
        worst = max(worst, abs(m - bisect_magnitude(alpha, kappa, r, tau0, w)))
    ok = worst <= 1e-10 and zero_rule
    check("criterion 8 (shrink inner-solve oracle)", ok,
          f"1000 samples, worst |m - bisection|={worst:.2e} (<=1e-10), "
          f"zero below yield={zero_rule}")
