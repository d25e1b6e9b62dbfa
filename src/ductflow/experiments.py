"""Cylindrical-pipe benchmark grid comparing both solvers.

Runs the 18-cell grid {alpha in 2, 1.75, 1.5} x {tau0 in 0.1, 0.2} x three
disk refinements.  Each row holds both solvers' ``SolveReport``s and the
relative errors against the closed-form profile; the ALG2/TRS speedup is
computed from the reports.  One arrested-flow sanity run at tau0 = 0.6
follows, and its row fails unless TRS converges with max |y| at most
``ARRESTED_VELOCITY_BOUND``.  Every run has the unit constant force
density the profile assumes.  Wall times are reported for orientation
only; they depend on the host and are never part of pass/fail decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .augmented_lagrangian import solve_alg2
from .fem import assemble
from .mesh import generate_disk_mesh
from .objective import FluidParams
from .pipe import PipeSolution, relative_error
from .report import SolveReport
from .trust_region import solve_trs

# Ring counts giving 469 / 1141 / 2107 nodes, comparable to the
# 559 / 1129 / 2169-node meshes the benchmark grid targets.
DEFAULT_REFINEMENTS = (12, 19, 26)
DEFAULT_ALPHAS = (2.0, 1.75, 1.5)
DEFAULT_TAU0S = (0.1, 0.2)

PLUG_STOP_TAU0 = 0.6
# Largest max |y| an arrested flow may keep.
ARRESTED_VELOCITY_BOUND = 1e-6


def speedup_of(trs: SolveReport, alg2: SolveReport) -> float:
    """ALG2/TRS wall-time ratio; NaN when the TRS time is zero."""
    return alg2.wall_time / trs.wall_time if trs.wall_time > 0 else math.nan


@dataclass
class ExperimentRow:
    alpha: float
    tau0: float
    n_nodes: int
    trs: SolveReport = field(default_factory=SolveReport)
    alg2: SolveReport = field(default_factory=SolveReport)
    error_trs: float = math.nan
    error_alg2: float = math.nan
    status: str = "ok"

    @property
    def speedup(self) -> float:
        return speedup_of(self.trs, self.alg2) if self.status == "ok" else math.nan


@dataclass
class PlugStopRow:
    tau0: float
    n_nodes: int
    max_velocity: float
    trs: SolveReport = field(default_factory=SolveReport)
    status: str = "ok"


@dataclass
class ExperimentTable:
    rows: list[ExperimentRow] = field(default_factory=list)
    plug_rows: list[PlugStopRow] = field(default_factory=list)

    @property
    def all_converged(self) -> bool:
        return (all(r.status == "ok" for r in self.rows)
                and all(r.status == "ok" for r in self.plug_rows))

    def to_csv(self) -> str:
        lines = ["kind,alpha,tau0,n_nodes,error_trs,error_alg2,"
                 "iterations_trs,iterations_alg2,time_trs,time_alg2,speedup,status"]
        for r in self.rows:
            lines.append(
                f"cylinder,{r.alpha!r},{r.tau0!r},{r.n_nodes},{r.error_trs!r},"
                f"{r.error_alg2!r},{r.trs.iterations},{r.alg2.iterations},"
                f"{r.trs.wall_time!r},{r.alg2.wall_time!r},{r.speedup!r},{r.status}"
            )
        for p in self.plug_rows:
            lines.append(
                f"plug_stop,2.0,{p.tau0!r},{p.n_nodes},{p.max_velocity!r},,"
                f"{p.trs.iterations},,,,,{p.status}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = (f"{'alpha':>6} {'tau0':>5} {'nodes':>6} "
                  f"{'err TRS':>10} {'err ALG2':>10} {'it TRS':>7} {'it ALG2':>8} "
                  f"{'t TRS':>8} {'t ALG2':>8} {'speedup':>8}  status")
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.alpha:>6.3g} {r.tau0:>5.3g} {r.n_nodes:>6d} "
                f"{r.error_trs:>10.3e} {r.error_alg2:>10.3e} "
                f"{r.trs.iterations:>7d} {r.alg2.iterations:>8d} "
                f"{r.trs.wall_time:>8.2f} {r.alg2.wall_time:>8.2f} {r.speedup:>8.2g}  {r.status}"
            )
        for p in self.plug_rows:
            lines.append(
                f"{'2':>6} {p.tau0:>5.3g} {p.n_nodes:>6d} "
                f"arrested flow: max |y| = {p.max_velocity:.2e} "
                f"({p.trs.iterations} iterations)  {p.status}"
            )
        return "\n".join(lines) + "\n"


def run_cell(alpha, tau0, ops, trs_cfg=None, alg2_cfg=None) -> ExperimentRow:
    """Run both solvers on one parameter combination."""
    params = FluidParams(alpha=alpha, kappa=1.0, tau0=tau0)
    sol = PipeSolution(params)
    _, y_trs, rep_trs = solve_trs(params, ops, cfg=trs_cfg)
    y_alg2, _, _, rep_alg2 = solve_alg2(params, ops, cfg=alg2_cfg)
    row = ExperimentRow(alpha=alpha, tau0=tau0, n_nodes=ops.tri.n_nodes,
                        trs=rep_trs, alg2=rep_alg2)
    if rep_trs.converged:
        row.error_trs = relative_error(y_trs, ops.tri, sol)
    if rep_alg2.converged:
        row.error_alg2 = relative_error(y_alg2, ops.tri, sol)
    if not (rep_trs.converged and rep_alg2.converged):
        row.status = "FAILED"
    return row


def reproduce_tables(refinements=DEFAULT_REFINEMENTS, progress=None) -> ExperimentTable:
    """Run the full benchmark grid plus the arrested-flow row at default settings."""
    table = ExperimentTable()
    for refinement in refinements:
        tri = generate_disk_mesh(refinement)
        ops = assemble(tri, f=1.0)
        for alpha in DEFAULT_ALPHAS:
            for tau0 in DEFAULT_TAU0S:
                row = run_cell(alpha, tau0, ops)
                table.rows.append(row)
                if progress is not None:
                    progress(row)

    tri = generate_disk_mesh(refinements[0])
    ops = assemble(tri, f=1.0)
    params = FluidParams(alpha=2.0, kappa=1.0, tau0=PLUG_STOP_TAU0)
    _, y, rep = solve_trs(params, ops)
    plug = PlugStopRow(tau0=PLUG_STOP_TAU0, n_nodes=tri.n_nodes,
                       max_velocity=float(abs(y).max()), trs=rep)
    if not (rep.converged and plug.max_velocity <= ARRESTED_VELOCITY_BOUND):
        plug.status = "FAILED"
    table.plug_rows.append(plug)
    return table
