"""Command-line driver.

Subcommands::

    ductflow solve     --solver trs|alg2|both --mesh disk:N|square:N|file:PATH ...
    ductflow reproduce --out DIR
    ductflow mesh gen   --mesh disk:N|square:N|file:PATH --out FILE
    ductflow mesh check FILE

Exit codes: 0 success; 1 configuration, argument or mesh error, or a
failed factorisation; 2 solver non-convergence, including a strain-rate
Newton failure in ``solve`` or ``reproduce``; 3 I/O error.  Every command
maps failures the same way: ``main`` alone prints the ``error:`` line
and picks the code.  Every ``solve`` option is declared once, as a
``RunConfig`` field: the field ``max_outer`` is the flag ``--max-outer``
and the key ``max_outer`` of a ``key = value`` file read with
``--config``, its annotation picks the parser and its metadata holds the
help text; flags win over the file.  ``--abstol`` is the stationarity
residual of both solvers in strain-rate units (``report.abstol_for``);
at its default ``solve`` stops where a solver given no config stops.
"""

import argparse
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import export
from .augmented_lagrangian import Alg2Config, ShrinkConvergenceError, solve_alg2
from .experiments import reproduce_tables, speedup_of
from .fem import FactorizationError, assemble
from .mesh import _non_ascii_byte, generate_disk_mesh, generate_square_mesh, load_mesh, save_mesh
from .objective import FluidParams
from .pipe import PipeSolution, relative_difference, relative_error
from .report import STRAIN_RATE_TOL, abstol_for, check_count, check_positive
from .trust_region import TrsConfig, solve_trs

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_IO = 3

_FORMATS = ("csv", "vtk", "json")


def _option(default, help):
    return field(default=default, metadata={"help": help})


@dataclass
class RunConfig:
    """The ``solve`` options, one field each."""

    solver: str = _option("trs", "trs, alg2 or both")
    mesh: str = _option("disk:8", "disk:N, square:N or file:PATH")
    alpha: float = _option(2.0, "power-law exponent in (1, 2]")
    tau0: float = _option(0.1, "yield stress")
    kappa: float = _option(1.0, "consistency")
    force: float = _option(1.0, "constant force density")
    out: str = _option("out", "output directory")
    format: tuple[str, ...] = _option(("csv",), "comma-separated subset of csv,vtk,json; the "
                                      "JSON report is always written, json alone writes no CSV")
    abstol: float = _option(STRAIN_RATE_TOL,
                            "stationarity tolerance in strain-rate units, both solvers")
    max_outer: int = _option(TrsConfig.max_outer, "TRS: outer-iteration cap")
    r: float = _option(Alg2Config.r, "ALG2: augmentation parameter")
    alg2_max_outer: int = _option(Alg2Config.max_outer, "ALG2: iteration cap")

    def __post_init__(self):
        if self.solver not in ("trs", "alg2", "both"):
            raise ValueError(f"unknown solver {self.solver!r} (use trs, alg2 or both)")
        if not self.format:
            raise ValueError("at least one output format is required")
        for fmt in self.format:
            if fmt not in _FORMATS:
                raise ValueError(f"unknown format {fmt!r} (use csv, vtk, json)")
        check_positive(abstol=self.abstol, r=self.r)
        check_count(max_outer=self.max_outer, alg2_max_outer=self.alg2_max_outer)


def run(cfg: RunConfig) -> int:
    """Execute one solve per requested solver and write all outputs."""
    params = FluidParams(alpha=cfg.alpha, kappa=cfg.kappa, tau0=cfg.tau0)
    tri, is_disk = _make_mesh(cfg.mesh)
    abstol = abstol_for(tri, cfg.abstol)
    trs_cfg = TrsConfig(abstol=abstol, max_outer=cfg.max_outer)
    alg2_cfg = Alg2Config(abstol=abstol, r=cfg.r, max_outer=cfg.alg2_max_outer)
    ops = assemble(tri, f=cfg.force)

    sol = PipeSolution(params) if is_disk and cfg.kappa == 1.0 and cfg.force == 1.0 else None

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    all_converged = True
    results = {}
    for solver in ("trs", "alg2") if cfg.solver == "both" else (cfg.solver,):
        if solver == "trs":
            tau, y, rep = solve_trs(params, ops, cfg=trs_cfg)
        else:
            y, _, tau, rep = solve_alg2(params, ops, cfg=alg2_cfg)
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
        _print_comparison(results, ops)
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def _write_solution(out_dir, solver, cfg, tri, tau, y, rep, error):
    if "csv" in cfg.format:
        export.write_velocity_csv(out_dir / f"velocity_{solver}.csv", tri, y)
        export.write_stress_csv(out_dir / f"stress_{solver}.csv", tau, cfg.tau0)
    if "vtk" in cfg.format:
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


def _print_comparison(results, ops):
    _, y_t, rep_t = results["trs"]
    _, y_a, rep_a = results["alg2"]
    # unconverged runs are not compared; an arrested flow leaves both
    # velocities at rounding level, where a difference measures only noise
    if not (rep_t.converged and rep_a.converged):
        diff_text = "n/a (not converged)"
    elif max(np.abs(y_t).max(initial=0.0), np.abs(y_a).max(initial=0.0)) <= ops.rounding_floor():
        diff_text = "n/a (zero flow)"
    else:
        diff_text = f"{relative_difference(y_t, y_a):.3e}"
    speedup = speedup_of(rep_t, rep_a)
    print(f"[both] n_nodes={ops.tri.n_nodes} relative_difference={diff_text} "
          f"iterations trs/alg2 = {rep_t.iterations}/{rep_a.iterations} "
          f"time trs/alg2 = {rep_t.wall_time:.2f}/{rep_a.wall_time:.2f} s "
          f"speedup={'n/a' if np.isnan(speedup) else f'{speedup:.2g}'}")


_GENERATORS = {"disk": generate_disk_mesh, "square": generate_square_mesh}


def _make_mesh(spec: str):
    """The mesh of ``spec`` and whether it is the unit disk."""
    kind, _, arg = spec.partition(":")
    if kind in _GENERATORS:
        try:
            refinement = int(arg)
        except ValueError:
            raise ValueError(f"{kind} mesh needs an integer refinement, got {arg!r}") from None
        return _GENERATORS[kind](refinement), kind == "disk"
    if kind == "file":
        if not arg:
            raise ValueError("file mesh needs a path, e.g. file:duct.mesh")
        return load_mesh(arg), False
    raise ValueError(f"unknown mesh spec {spec!r} (use disk:N, square:N or file:PATH)")


# -- argument handling -----------------------------------------------------

# by annotation, not type(default): bool("False") is True; an int default rejects "1.5"
_PARSERS = {
    str: str,
    float: float,
    int: int,
    tuple[str, ...]: lambda text: tuple(part.strip() for part in text.split(",") if part.strip()),
}
_FIELDS = {f.name: f for f in fields(RunConfig)}


def _flag(name):
    return "--" + name.replace("_", "-")


def _parsed(name, where, text):
    try:
        return _PARSERS[_FIELDS[name].type](text)
    except ValueError:
        raise ValueError(f"{where}: invalid {name} value {text!r}") from None


def _read_config_file(path):
    """Options of a ``key = value`` file, each checked and typed as it is read."""
    values = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        lineno, byte = _non_ascii_byte(path)
        raise ValueError(f"{path}: config file must be ASCII, found byte {byte:#04x} "
                         f"on line {lineno}") from None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip().replace("-", "_")
        if key not in _FIELDS:
            raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = _parsed(key, f"{path}:{lineno}", value.strip())
    return values


def _merged(args) -> RunConfig:
    """Flags win over the config file, which wins over the dataclass defaults."""
    values = _read_config_file(args.config) if args.config else {}
    for name in _FIELDS:
        text = getattr(args, name)
        if text is not None:
            values[name] = _parsed(name, _flag(name), text)
    return RunConfig(**values)


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1 through ``ValueError``, not argparse's 2."""

    def error(self, message):
        raise ValueError(message)


def _build_parser():
    parser = _Parser(prog="ductflow", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on one configuration")
    for name, f in _FIELDS.items():
        solve.add_argument(_flag(name), dest=name, help=f.metadata["help"])
    solve.add_argument("--config", help="key = value configuration file")

    reproduce = sub.add_parser("reproduce", help="run the full benchmark grid")
    reproduce.add_argument("--out", default="out")

    mesh = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = mesh.add_subparsers(dest="mesh_command", required=True)
    gen = mesh_sub.add_parser("gen", help="write a built-in mesh to a file")
    gen.add_argument("--mesh", required=True, help=_FIELDS["mesh"].metadata["help"])
    gen.add_argument("--out", required=True)
    check = mesh_sub.add_parser("check", help="validate a mesh file")
    check.add_argument("path")

    return parser


def _cmd_reproduce(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = reproduce_tables(progress=lambda row: print(
        f"  alpha={row.alpha:g} tau0={row.tau0:g} nodes={row.n_nodes} "
        f"-> {row.status}", flush=True))
    (out_dir / "tables.csv").write_text(table.to_csv(), encoding="ascii")
    text = table.to_text()
    (out_dir / "tables.txt").write_text(text, encoding="ascii")
    print(text)
    return EXIT_OK if table.all_converged else EXIT_NOT_CONVERGED


def _cmd_mesh(args) -> int:
    if args.mesh_command == "gen":
        tri, _ = _make_mesh(args.mesh)
        save_mesh(tri, args.out)
        print(f"wrote {args.out}: {tri.n_nodes} nodes, {tri.n_triangles} triangles")
    else:
        tri = load_mesh(args.path)
        print(f"OK: {tri.n_nodes} nodes ({tri.n_free} free), "
              f"{tri.n_triangles} triangles, area={tri.areas.sum():.6g}, "
              f"h={tri.h_max():.6g}")
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command; the only place a failure becomes an exit code."""
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "solve":
            return run(_merged(args))
        if args.command == "reproduce":
            return _cmd_reproduce(args)
        return _cmd_mesh(args)
    # ValueError covers option and config-file errors, MeshError and the
    # parameter range checks; a non-ASCII file is one of the first two
    except (ValueError, FactorizationError, ShrinkConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ShrinkConvergenceError):
            return EXIT_NOT_CONVERGED
        return EXIT_IO if isinstance(exc, OSError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
