"""Inputs, solver settings, correctness gates and one timed pass per workload.

Every solve uses one tolerance stated in strain-rate units (see
``abstol_for``); iteration caps and Newton tolerances stay at the solver
defaults.  A pass is closed loop and single threaded: each solve starts
only after the previous one has finished.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from time import perf_counter

import numpy as np

from ductflow import augmented_lagrangian, experiments, export, trust_region
from ductflow.augmented_lagrangian import Alg2Config
from ductflow.fem import assemble
from ductflow.mesh import Triangulation, generate_disk_mesh, load_mesh, save_mesh
from ductflow.objective import FluidParams
from ductflow.pipe import PipeSolution, relative_difference, relative_error
from ductflow.trust_region import TrsConfig

from calibration import REFERENCE_S
from tracing import NullTracer, patched

HERE = Path(__file__).resolve().parent
SQUARE_REFS = HERE / "square_refs.json"

# The stopping tolerance, in strain-rate units, and the relative
# velocity-increment tolerance shared by both solvers.
STRAIN_RATE_TOL = 1e-4
RELTOL = 1e-6

PHASES = ("setup", "trs", "alg2", "export", "mesh_io")
# Least wall time between two calibration samples within a pass.
SAMPLE_EVERY_S = 1.0

PIPE_REFINEMENTS = (12, 19, 26)
PIPE_ALPHAS = (2.0, 1.75, 1.5)
PIPE_TAU0S = (0.1, 0.2)
FINE_REFINEMENT = 120
SQUARE_N = 32
SQUARE_CELLS = ((2.0, 0.1), (2.0, 0.3), (1.5, 0.1), (1.5, 0.3))
FINE_CELL = (1.75, 0.1)

# Pipe velocities must be within twice the benchmark table's TRS error
# for the cell (refinements 12/19/26; the table tests/test_acceptance.py
# checks against), and the gate is never looser than the 3e-3 upper end
# of that suite's analytic-accuracy band.
TABLE_TRS_ERRORS = {
    (2.00, 0.1): (1.48e-3, 6.35e-4, 3.40e-4),
    (2.00, 0.2): (2.19e-3, 8.97e-4, 5.30e-4),
    (1.75, 0.1): (1.97e-3, 8.79e-4, 4.56e-4),
    (1.75, 0.2): (3.03e-3, 1.33e-4, 7.28e-4),
    (1.50, 0.1): (3.38e-3, 1.50e-3, 7.87e-4),
    (1.50, 0.2): (5.68e-3, 2.69e-3, 1.46e-3),
}
PIPE_ERROR_FLOOR = 3e-3
# Square velocities must be within a relative 1e-3, ten times the
# strain-rate tolerance, of the committed tight references.
SQUARE_ERROR_GATE = 10.0 * STRAIN_RATE_TOL
ARRESTED_VELOCITY_GATE = 1e-6


class BenchmarkError(RuntimeError):
    """The benchmark's own inputs are missing or inconsistent."""


def abstol_for(tri: Triangulation, strain_rate_tol: float = STRAIN_RATE_TOL) -> float:
    """Convert a strain-rate tolerance into a solver ``abstol`` for ``tri``.

    The solvers' stationarity residual is weighted by triangle area, so
    a fixed ``abstol`` loosens as the mesh is refined; scaling by the
    mean area states the same strain-rate accuracy on every mesh.
    """
    return strain_rate_tol * float(np.mean(tri.areas))


def solver_configs(tri: Triangulation) -> tuple[TrsConfig, Alg2Config]:
    abstol = abstol_for(tri)
    return TrsConfig(abstol=abstol, reltol=RELTOL), Alg2Config(abstol=abstol, reltol=RELTOL)


def square_duct_mesh(n: int = SQUARE_N) -> Triangulation:
    """Uniform ``n x n`` triangulation of [-1, 1]^2 with a no-slip rim.

    Each grid square is cut along the same diagonal, giving ``2 n^2``
    triangles.
    """
    x = np.linspace(-1.0, 1.0, n + 1)
    gx, gy = np.meshgrid(x, x)
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    col, row = np.meshgrid(np.arange(n), np.arange(n))
    a = (row * (n + 1) + col).ravel()
    b, c, d = a + 1, a + n + 2, a + n + 1
    triangles = np.concatenate([np.column_stack([a, b, c]), np.column_stack([a, c, d])])
    rim = (np.abs(nodes[:, 0]) == 1.0) | (np.abs(nodes[:, 1]) == 1.0)
    return Triangulation(nodes, triangles, rim)


def mesh_fingerprint(tri: Triangulation) -> str:
    digest = hashlib.sha256()
    for arr in (tri.nodes, tri.triangles, tri.is_dirichlet):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def load_square_refs(path: Path = SQUARE_REFS) -> dict:
    """Committed reference velocities keyed by ``(alpha, tau0)``."""
    try:
        data = json.loads(path.read_text(encoding="ascii"))
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read square-duct references {path}: {exc}") from exc
    if data.get("mesh") != f"square:{SQUARE_N}":
        raise BenchmarkError(f"references are for mesh {data.get('mesh')!r}, "
                             f"expected square:{SQUARE_N}")
    refs = {(c["alpha"], c["tau0"]): np.asarray(c["velocity"], dtype=float)
            for c in data["cells"]}
    missing = set(SQUARE_CELLS) - set(refs)
    if missing:
        raise BenchmarkError(f"references lack cells {sorted(missing)}")
    return {"sha256": data["mesh_sha256"], "velocity": refs}


@dataclass
class Solve:
    solver: str
    params: FluidParams
    ops: object
    report: object
    y: np.ndarray
    tau: np.ndarray
    error: float = math.nan
    failure: str | None = None


class Pass:
    """One timed pass: phase timers, calibration samples, solve records and spans.

    A solve that did not converge or failed a gate gets a ``failure``;
    an output that claims success but is not correct also goes to
    ``wrong``.
    """

    def __init__(self, out_dir: Path, tracer=None, calibration=None):
        self.out_dir = out_dir
        self.tracer = tracer if tracer is not None else NullTracer()
        self.calibration = calibration
        self.seconds = dict.fromkeys(PHASES + ("calibration", "pass"), 0.0)
        self.samples: list[tuple[float, float]] = []   # (time, kernel seconds)
        self.regions: list[tuple[str, float, float]] = []   # (phase, start, end)
        self.solves: list[Solve] = []
        self.wrong: list[str] = []
        self.export_bytes = 0

    def sample(self, force: bool = False) -> None:
        """Time the calibration kernel, at most once per ``SAMPLE_EVERY_S``."""
        if self.calibration is None:
            return
        start = perf_counter()
        if not force and self.samples and start - self.samples[-1][0] < SAMPLE_EVERY_S:
            return
        with self.tracer.span("calibration"):
            kernel = self.calibration.sample()
        end = perf_counter()
        self.samples.append((end, kernel))
        self.seconds["calibration"] += end - start

    @contextlib.contextmanager
    def timed(self, phase: str, span: str):
        self.sample()
        start = perf_counter()
        with self.tracer.span(span):
            yield
        end = perf_counter()
        self.seconds[phase] += end - start
        self.regions.append((phase, start, end))
        self.sample()

    def scaled_seconds(self) -> dict[str, float]:
        """Phase and pass times at the calibration kernel's reference speed.

        Each timed region is scaled by the mean of the kernel samples
        just before and just after it; the rest of the pass by the mean
        of all samples.  Calibration time itself is left out.  Without
        samples, the wall times are returned.
        """
        if not self.samples:
            return {**self.seconds, "scale": 1.0}
        times = [t for t, _ in self.samples]
        out = dict.fromkeys(PHASES, 0.0)
        for phase, start, end in self.regions:
            before = self.samples[bisect.bisect_right(times, start) - 1][1]
            after = self.samples[bisect.bisect_left(times, end)][1]
            out[phase] += (end - start) * REFERENCE_S / (0.5 * (before + after))
        scale = REFERENCE_S / statistics.mean(k for _, k in self.samples)
        rest = (self.seconds["pass"] - self.seconds["calibration"]
                - sum(self.seconds[phase] for phase in PHASES))
        out["pass"] = sum(out.values()) + rest * scale
        out["scale"] = scale
        return out

    # -- layer calls -----------------------------------------------------

    def build(self, make, *args):
        with self.timed("setup", "mesh.build"):
            return make(*args)

    def assemble(self, tri):
        with self.timed("setup", "fem.assemble"):
            ops = assemble(tri, f=1.0)
        self.tracer.instrument_ops(ops)
        return ops

    def solve_trs(self, params, ops, cfg=None):
        with self.timed("trs", "trust_region.solve"):
            tau, y, report = trust_region.solve_trs(params, ops, cfg=cfg)
        self.solves.append(Solve("trs", params, ops, report, y, tau))
        return tau, y, report

    def solve_alg2(self, params, ops, cfg=None):
        with self.timed("alg2", "augmented_lagrangian.solve"):
            y, q, tau, report = augmented_lagrangian.solve_alg2(params, ops, cfg=cfg)
        self.solves.append(Solve("alg2", params, ops, report, y, tau))
        return y, q, tau, report

    def solve_both(self, params, ops):
        trs_cfg, alg2_cfg = solver_configs(ops.tri)
        self.solve_trs(params, ops, trs_cfg)
        self.solve_alg2(params, ops, alg2_cfg)
        return self.solves[-2:]

    def export(self, solves: list[Solve], mesh: str) -> None:
        """Write every export format for each solve, as ``ductflow solve`` does."""
        for i, s in enumerate(solves):
            tri, tau0 = s.ops.tri, s.params.tau0
            paths = [self.out_dir / f"{name}_{i}.{ext}" for name, ext in
                     (("velocity", "csv"), ("stress", "csv"), ("solution", "vtk"),
                      ("report", "json"))]
            with self.timed("export", "export.write_velocity_csv"):
                export.write_velocity_csv(paths[0], tri, s.y)
            with self.timed("export", "export.write_stress_csv"):
                export.write_stress_csv(paths[1], s.tau, tau0)
            with self.timed("export", "export.write_vtk"):
                export.write_vtk(paths[2], tri, s.y, s.tau, tau0)
            with self.timed("export", "export.write_report_json"):
                export.write_report_json(paths[3], s.report, {
                    "solver": s.solver, "alpha": s.params.alpha, "tau0": tau0,
                    "kappa": s.params.kappa, "mesh": mesh, "n_nodes": tri.n_nodes,
                    "n_triangles": tri.n_triangles})
            self.export_bytes += sum(p.stat().st_size for p in paths)
            written = np.loadtxt(paths[0], delimiter=",", skiprows=1, ndmin=2)[:, 2]
            if not np.array_equal(written, export.expand_velocity(tri, s.y)):
                self.wrong.append(f"velocity CSV of {s.solver} solve {i} does not "
                                  "round-trip the solver's velocity")

    def mesh_round_trip(self, tri: Triangulation) -> None:
        path = self.out_dir / "mesh.txt"
        with self.timed("mesh_io", "mesh.save"):
            save_mesh(tri, path)
        with self.timed("mesh_io", "mesh.load"):
            loaded = load_mesh(path)
        if not all(np.array_equal(a, b) for a, b in (
                (loaded.nodes, tri.nodes), (loaded.triangles, tri.triangles),
                (loaded.is_dirichlet, tri.is_dirichlet))):
            self.wrong.append("save_mesh -> load_mesh changed the mesh")

    def close(self) -> None:
        """Drop fields and operators, keeping the pass's record small."""
        for s in self.solves:
            s.ops = s.y = s.tau = None

    # -- correctness gates -----------------------------------------------

    def gate(self, s: Solve, error_gate: float | None = None, arrested: bool = False) -> None:
        """Record why ``s`` counts as failed, if it does."""
        ops = s.ops
        problems, wrong = [], False
        if s.solver == "trs":
            # TRS iterates lie on the momentum manifold whether or not the
            # run converged.  Computed here, not by the traced operators.
            bound = 1e-8 * (1.0 + float(np.abs(ops.f_h).max()))
            defect = float(np.abs(ops.D @ s.tau - ops.f_h).max())
            if defect > bound:
                problems.append(f"momentum residual {defect:.2e} > {bound:.2e}")
                wrong = True
        if not s.report.converged:
            problems.append(f"{s.report.status} after {s.report.iterations} iterations")
        elif arrested and float(np.abs(s.y).max()) > ARRESTED_VELOCITY_GATE:
            problems.append(f"arrested flow moves: max|y| = {np.abs(s.y).max():.2e}")
            wrong = True
        elif error_gate is not None and not s.error <= error_gate:
            problems.append(f"velocity error {s.error:.2e} > {error_gate:.2e}")
            wrong = True
        if problems:
            s.failure = "; ".join(problems)
            if wrong:
                self.wrong.append(f"{s.solver} alpha={s.params.alpha} "
                                  f"tau0={s.params.tau0}: {s.failure}")


def pipe_error_gate(alpha: float, tau0: float, refinement: int) -> float:
    table = TABLE_TRS_ERRORS.get((alpha, tau0))
    if table is None or refinement not in PIPE_REFINEMENTS:
        return PIPE_ERROR_FLOOR
    return max(PIPE_ERROR_FLOOR, 2.0 * table[PIPE_REFINEMENTS.index(refinement)])


def _gate_pipe(p: Pass, solves: list[Solve], refinement: int) -> None:
    for s in solves:
        s.error = relative_error(s.y, s.ops.tri, PipeSolution(s.params))
        p.gate(s, pipe_error_gate(s.params.alpha, s.params.tau0, refinement))


class PipeGrid:
    name = "pipe_grid"
    why = ("paper's disk grid 12/19/26 through run_cell plus arrested flow; "
           "projection does most TRS work")

    @staticmethod
    def meshes():
        return {f"disk:{n}": generate_disk_mesh(n) for n in PIPE_REFINEMENTS}

    def run(self, p: Pass, rng) -> None:
        groups = [*PIPE_REFINEMENTS, "arrested"]
        rng.shuffle(groups)
        with patched(experiments, solve_trs=p.solve_trs, solve_alg2=p.solve_alg2):
            for group in groups:
                refinement = PIPE_REFINEMENTS[0] if group == "arrested" else group
                tri = p.build(generate_disk_mesh, refinement)
                ops = p.assemble(tri)
                p.mesh_round_trip(tri)
                if group == "arrested":
                    params = FluidParams(alpha=2.0, kappa=1.0, tau0=experiments.PLUG_STOP_TAU0)
                    for s in p.solve_both(params, ops):
                        p.gate(s, arrested=True)
                    continue
                cells = list(product(PIPE_ALPHAS, PIPE_TAU0S))
                rng.shuffle(cells)
                first = len(p.solves)
                trs_cfg, alg2_cfg = solver_configs(tri)
                for alpha, tau0 in cells:
                    with p.tracer.span("experiments.run_cell"):
                        experiments.run_cell(alpha, tau0, ops, trs_cfg=trs_cfg,
                                             alg2_cfg=alg2_cfg)
                _gate_pipe(p, p.solves[first:], refinement)
                if refinement == PIPE_REFINEMENTS[-1]:
                    p.export(p.solves[first:], f"disk:{refinement}")


class SquareDuct:
    name = "square_duct"
    why = ("32x32 square duct, TRS must iterate; keeps the TRS plug stall and "
           "ALG2 Newton floor visible")

    def __init__(self):
        self.refs = load_square_refs()

    @staticmethod
    def meshes():
        return {f"square:{SQUARE_N}": square_duct_mesh()}

    def run(self, p: Pass, rng) -> None:
        tri = p.build(square_duct_mesh)
        if mesh_fingerprint(tri) != self.refs["sha256"]:
            raise BenchmarkError("square-duct mesh no longer matches the mesh its "
                                 "references were computed on; regenerate them")
        ops = p.assemble(tri)
        cells = list(SQUARE_CELLS)
        rng.shuffle(cells)
        first = len(p.solves)
        for alpha, tau0 in cells:
            params = FluidParams(alpha=alpha, kappa=1.0, tau0=tau0)
            for s in p.solve_both(params, ops):
                s.error = relative_difference(s.y, self.refs["velocity"][(alpha, tau0)])
                p.gate(s, SQUARE_ERROR_GATE)
        p.export(p.solves[first:], f"square:{SQUARE_N}")
        p.mesh_round_trip(tri)


class FinePipe:
    name = "fine_pipe"
    why = ("disk:120, 86,400 triangles: large working set, few iterations; "
           "set-up, export, mesh I/O weigh")

    @staticmethod
    def meshes():
        return {f"disk:{FINE_REFINEMENT}": generate_disk_mesh(FINE_REFINEMENT)}

    def run(self, p: Pass, rng) -> None:
        tri = p.build(generate_disk_mesh, FINE_REFINEMENT)
        ops = p.assemble(tri)
        alpha, tau0 = FINE_CELL
        solves = p.solve_both(FluidParams(alpha=alpha, kappa=1.0, tau0=tau0), ops)
        _gate_pipe(p, solves, FINE_REFINEMENT)
        p.export(solves, f"disk:{FINE_REFINEMENT}")
        p.mesh_round_trip(tri)


WORKLOADS = {w.name: w for w in (PipeGrid, SquareDuct, FinePipe)}

