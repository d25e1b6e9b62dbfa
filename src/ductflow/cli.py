"""Command-line driver.

Subcommands::

    ductflow solve     --solver trs|alg2|both --mesh disk:N|square:N|file:PATH ...
    ductflow reproduce --out DIR
    ductflow mesh gen   --refinement N --out FILE
    ductflow mesh check FILE

Exit codes: 0 success, 1 configuration or argument error, 2 solver
non-convergence, 3 I/O error.  Every ``solve`` option is both a flag
(``--max-outer``) and a key of a ``key = value`` file read with
``--config`` (``max_outer``); flags win over the file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import export
from .augmented_lagrangian import Alg2Config, ShrinkConvergenceError, solve_alg2
from .experiments import reproduce_tables
from .fem import FactorizationError, assemble
from .mesh import generate_disk_mesh, generate_square_mesh, load_mesh, save_mesh
from .objective import FluidParams
from .pipe import PipeSolution, relative_difference, relative_error
from .trust_region import TrsConfig, solve_trs

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_IO = 3

_FORMATS = ("csv", "vtk", "json")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    solver: str = "trs"
    mesh: str = "disk:8"
    alpha: float = 2.0
    tau0: float = 0.1
    kappa: float = 1.0
    force: float = 1.0
    out: str = "out"
    formats: tuple[str, ...] = ("csv",)
    trs: TrsConfig = field(default_factory=TrsConfig)
    alg2: Alg2Config = field(default_factory=Alg2Config)

    def __post_init__(self):
        if self.solver not in ("trs", "alg2", "both"):
            raise ConfigError(f"unknown solver {self.solver!r} (use trs, alg2 or both)")
        if not self.formats:
            raise ConfigError("at least one output format is required")
        for fmt in self.formats:
            if fmt not in _FORMATS:
                raise ConfigError(f"unknown format {fmt!r} (use csv, vtk, json)")


def run(cfg: RunConfig) -> int:
    """Execute one solve per requested solver and write all outputs."""
    try:
        tri, is_disk = _make_mesh(cfg.mesh)
        params = FluidParams(alpha=cfg.alpha, kappa=cfg.kappa, tau0=cfg.tau0)
        ops = assemble(tri, f=cfg.force)
    except (ConfigError, ValueError, FactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    sol = None
    if is_disk and cfg.kappa == 1.0 and cfg.force == 1.0:
        sol = PipeSolution(params)

    try:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)

        all_converged = True
        results = {}
        for solver in ("trs", "alg2") if cfg.solver == "both" else (cfg.solver,):
            if solver == "trs":
                tau, y, rep = solve_trs(params, ops, cfg=cfg.trs)
            else:
                y, _, tau, rep = solve_alg2(params, ops, cfg=cfg.alg2)
            results[solver] = (tau, y, rep)
            all_converged &= rep.converged

            error = None
            if sol is not None and rep.converged:
                try:
                    error = relative_error(y, tri, sol)
                except ValueError:  # the analytic profile is zero at every node
                    pass
            _write_solution(out_dir, solver, cfg, tri, tau, y, rep, error)
            line = (f"[{solver}] status={rep.status} iterations={rep.iterations} "
                    f"kkt={rep.kkt_history[-1]:.3e}")
            if error is not None:
                line += f" error_vs_analytic={error:.3e}"
            print(line)

        if cfg.solver == "both":
            _print_comparison(results, tri)
    except ShrinkConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def _write_solution(out_dir, solver, cfg, tri, tau, y, rep, error):
    if "csv" in cfg.formats:
        export.write_velocity_csv(out_dir / f"velocity_{solver}.csv", tri, y)
        export.write_stress_csv(out_dir / f"stress_{solver}.csv", tau, cfg.tau0)
    if "vtk" in cfg.formats:
        export.write_vtk(out_dir / f"solution_{solver}.vtk", tri, y, tau, cfg.tau0)
    extra = {
        "solver": solver,
        "alpha": cfg.alpha,
        "tau0": cfg.tau0,
        "kappa": cfg.kappa,
        "mesh": cfg.mesh,
        "n_nodes": tri.n_nodes,
        "n_triangles": tri.n_triangles,
    }
    if error is not None:
        extra["error_vs_analytic"] = error
    export.write_report_json(out_dir / f"report_{solver}.json", rep, extra)


def _print_comparison(results, tri):
    tau_t, y_t, rep_t = results["trs"]
    tau_a, y_a, rep_a = results["alg2"]
    if float(np.linalg.norm(y_a)) > 0.0:
        diff = relative_difference(y_t, y_a)
        diff_text = f"{diff:.3e}"
    else:
        diff_text = "n/a (zero flow)"
    speedup = rep_a.wall_time / rep_t.wall_time if rep_t.wall_time > 0 else float("nan")
    print(f"[both] n_nodes={tri.n_nodes} relative_difference={diff_text} "
          f"iterations trs/alg2 = {rep_t.iterations}/{rep_a.iterations} "
          f"time trs/alg2 = {rep_t.wall_time:.2f}/{rep_a.wall_time:.2f} s "
          f"speedup={speedup:.2g}")


_GENERATORS = {"disk": generate_disk_mesh, "square": generate_square_mesh}


def _make_mesh(spec: str):
    """The mesh of ``spec`` and whether it is the unit disk."""
    kind, _, arg = spec.partition(":")
    if kind in _GENERATORS:
        try:
            refinement = int(arg)
        except ValueError:
            raise ConfigError(f"{kind} mesh needs an integer refinement, got {arg!r}") from None
        return _GENERATORS[kind](refinement), kind == "disk"
    if kind == "file":
        if not arg:
            raise ConfigError("file mesh needs a path, e.g. file:duct.mesh")
        return load_mesh(arg), False
    raise ConfigError(f"unknown mesh spec {spec!r} (use disk:N, square:N or file:PATH)")


# -- argument handling -----------------------------------------------------

class _Option(NamedTuple):
    """A ``solve`` option: flag ``--name`` (``-`` for ``_``) and file key
    ``name``; its value goes to each ``section.field`` in ``sets``."""

    name: str
    parse: Callable[[str], object]
    help: str
    sets: str

    @property
    def flag(self):
        return "--" + self.name.replace("_", "-")

    def value(self, where, text):
        try:
            return self.parse(text)
        except ValueError:
            raise ConfigError(f"{where}: invalid {self.name} value {text!r}") from None


def _formats(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


_OPTIONS = (
    _Option("solver", str, "trs, alg2 or both", "run.solver"),
    _Option("mesh", str, "disk:N, square:N or file:PATH", "run.mesh"),
    _Option("alpha", float, "power-law exponent in (1, 2]", "run.alpha"),
    _Option("tau0", float, "yield stress", "run.tau0"),
    _Option("kappa", float, "consistency", "run.kappa"),
    _Option("force", float, "constant force density", "run.force"),
    _Option("out", str, "output directory", "run.out"),
    _Option("format", _formats, "comma-separated subset of csv,vtk,json", "run.formats"),
    _Option("abstol", float, "stationarity tolerance, both solvers", "trs.abstol alg2.abstol"),
    _Option("reltol", float, "relative step tolerance, both solvers", "trs.reltol alg2.reltol"),
    _Option("max_outer", int, "TRS: outer-iteration cap", "trs.max_outer"),
    _Option("r", float, "ALG2: augmentation parameter", "alg2.r"),
    _Option("alg2_max_outer", int, "ALG2: iteration cap", "alg2.max_outer"),
    _Option("newton_abstol", float,
            "ALG2: Newton residual tolerance (used only when alpha is not 2 or 3/2)",
            "alg2.newton_abstol"),
    _Option("newton_reltol", float,
            "ALG2: Newton log-step tolerance (used only when alpha is not 2 or 3/2)",
            "alg2.newton_reltol"),
)
_BY_NAME = {opt.name: opt for opt in _OPTIONS}


def _read_config_file(path):
    """Options of a ``key = value`` file, each checked and typed as it is read."""
    values = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file must be ASCII, found byte "
                          f"{exc.object[exc.start]:#04x} at offset {exc.start}") from None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip().replace("-", "_")
        if key not in _BY_NAME:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = _BY_NAME[key].value(f"{path}:{lineno}", value.strip())
    return values


def _merged(args) -> RunConfig:
    """Flags win over the config file, which wins over the dataclass defaults."""
    values = _read_config_file(args.config) if args.config else {}
    for opt in _OPTIONS:
        text = getattr(args, opt.name)
        if text is not None:
            values[opt.name] = opt.value(opt.flag, text)
    kwargs = {"run": {}, "trs": {}, "alg2": {}}
    for name, value in values.items():
        for target in _BY_NAME[name].sets.split():
            section, _, attr = target.partition(".")
            kwargs[section][attr] = value
    try:
        return RunConfig(trs=TrsConfig(**kwargs["trs"]), alg2=Alg2Config(**kwargs["alg2"]),
                         **kwargs["run"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1 through ``ConfigError``, not argparse's 2."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="ductflow", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on one configuration")
    for opt in _OPTIONS:
        solve.add_argument(opt.flag, dest=opt.name, help=opt.help)
    solve.add_argument("--config", help="key = value configuration file")

    reproduce = sub.add_parser("reproduce", help="run the full benchmark grid")
    reproduce.add_argument("--out", default="out")

    mesh = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = mesh.add_subparsers(dest="mesh_command", required=True)
    gen = mesh_sub.add_parser("gen", help="generate a disk mesh file")
    gen.add_argument("--refinement", type=int, required=True)
    gen.add_argument("--out", required=True)
    check = mesh_sub.add_parser("check", help="validate a mesh file")
    check.add_argument("path")

    return parser


def _cmd_reproduce(args) -> int:
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        table = reproduce_tables(progress=lambda row: print(
            f"  alpha={row.alpha:g} tau0={row.tau0:g} nodes={row.n_nodes} "
            f"-> {row.status}", flush=True))
        (out_dir / "tables.csv").write_text(table.to_csv(), encoding="ascii")
        text = table.to_text()
        (out_dir / "tables.txt").write_text(text, encoding="ascii")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(text)
    return EXIT_OK if table.all_converged else EXIT_NOT_CONVERGED


def _cmd_mesh(args) -> int:
    try:
        if args.mesh_command == "gen":
            tri = generate_disk_mesh(args.refinement)
            save_mesh(tri, args.out)
            print(f"wrote {args.out}: {tri.n_nodes} nodes, {tri.n_triangles} triangles")
        else:
            tri = load_mesh(args.path)
            print(f"OK: {tri.n_nodes} nodes ({tri.n_free} free), "
                  f"{tri.n_triangles} triangles, area={tri.areas.sum():.6g}, "
                  f"h={tri.h_max():.6g}")
    except ValueError as exc:  # MeshError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "solve":
            return run(_merged(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "reproduce":
        return _cmd_reproduce(args)
    return _cmd_mesh(args)


if __name__ == "__main__":
    sys.exit(main())
