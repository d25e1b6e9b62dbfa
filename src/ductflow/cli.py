"""Command-line driver.

Subcommands::

    ductflow solve     --solver trs|alg2|both --mesh disk:N|file:PATH ...
    ductflow reproduce --out DIR
    ductflow mesh gen   --refinement N --out FILE
    ductflow mesh check FILE

Exit codes: 0 success, 1 configuration error, 2 solver non-convergence,
3 I/O error.  Options may also be given in a plain ``key = value``
configuration file (``--config``); command-line flags win, and a file
key that names no option is a configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import export
from .augmented_lagrangian import Alg2Config, solve_alg2
from .experiments import reproduce_tables
from .fem import assemble
from .mesh import MeshError, generate_disk_mesh, load_mesh, save_mesh
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
    trs: TrsConfig | None = None
    alg2: Alg2Config | None = None

    def __post_init__(self):
        if self.solver not in ("trs", "alg2", "both"):
            raise ConfigError(f"unknown solver {self.solver!r} (use trs, alg2 or both)")
        if not self.formats:
            raise ConfigError("at least one output format is required")
        for fmt in self.formats:
            if fmt not in _FORMATS:
                raise ConfigError(f"unknown format {fmt!r} (use csv, vtk, json)")
        if self.trs is None:
            self.trs = TrsConfig()
        if self.alg2 is None:
            self.alg2 = Alg2Config()


def run(cfg: RunConfig) -> int:
    """Execute one solve per requested solver and write all outputs."""
    try:
        tri, is_disk = _make_mesh(cfg.mesh)
        params = FluidParams(alpha=cfg.alpha, kappa=cfg.kappa, tau0=cfg.tau0)
    except (ConfigError, MeshError, ValueError) as exc:
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
        ops = assemble(tri, f=cfg.force)

        all_converged = True
        results = {}
        for solver in ("trs", "alg2") if cfg.solver == "both" else (cfg.solver,):
            if solver == "trs":
                tau, y, rep = solve_trs(params, ops, cfg=cfg.trs)
            else:
                y, _, tau, rep = solve_alg2(params, ops, cfg=cfg.alg2)
            results[solver] = (tau, y, rep)
            all_converged &= rep.converged

            error = relative_error(y, tri, sol) if (sol is not None and rep.converged
                                                    and sol.plug_radius < 1.0) else None
            _write_solution(out_dir, solver, cfg, tri, tau, y, rep, error)
            line = (f"[{solver}] status={rep.status} iterations={rep.iterations} "
                    f"kkt={rep.kkt_history[-1]:.3e}")
            if error is not None:
                line += f" error_vs_analytic={error:.3e}"
            print(line)

        if cfg.solver == "both":
            _print_comparison(results, tri)
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


def _make_mesh(spec: str):
    kind, _, arg = spec.partition(":")
    if kind == "disk":
        try:
            refinement = int(arg)
        except ValueError:
            raise ConfigError(f"disk mesh needs an integer refinement, got {arg!r}") from None
        if refinement < 1:
            raise ConfigError("disk refinement must be >= 1")
        return generate_disk_mesh(refinement), True
    if kind == "file":
        if not arg:
            raise ConfigError("file mesh needs a path, e.g. file:duct.mesh")
        return load_mesh(arg), False
    raise ConfigError(f"unknown mesh spec {spec!r} (use disk:N or file:PATH)")


# -- argument handling -----------------------------------------------------

_STR_KEYS = {"solver", "mesh", "out", "format"}
_FLOAT_KEYS = {"alpha", "tau0", "kappa", "force", "abstol", "reltol", "divtol",
               "delta0", "delta_max", "eta", "gamma", "r",
               "newton_abstol", "newton_reltol"}
_INT_KEYS = {"max_outer", "max_cg", "alg2_max_outer", "newton_max"}


def _read_config_file(path):
    """Options of a ``key = value`` file, each checked and coerced as it is read."""
    values = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip().replace("-", "_")
        values[key] = _coerce(f"{path}:{lineno}", key, value.strip())
    return values


def _coerce(where, key, text):
    try:
        if key in _FLOAT_KEYS:
            return float(text)
        if key in _INT_KEYS:
            return int(text)
    except ValueError:
        raise ConfigError(f"{where}: invalid value {text!r} for option {key!r}") from None
    if key in _STR_KEYS:
        return text
    raise ConfigError(f"{where}: unknown option {key!r}")


def _merged(args) -> RunConfig:
    """Flags win over the config file, which wins over the dataclass defaults."""
    file_values = _read_config_file(args.config) if args.config else {}

    def given(key):
        value = getattr(args, key, None)
        return file_values.get(key) if value is None else value

    def build(cls, **values):
        for f in fields(cls):
            if f.name not in values:
                values[f.name] = given(f.name)
        return cls(**{key: value for key, value in values.items() if value is not None})

    formats = given("format")
    if formats is not None:
        formats = tuple(part.strip() for part in formats.split(",") if part.strip())
    alg2_max_outer = given("max_outer")
    if alg2_max_outer is None:
        alg2_max_outer = given("alg2_max_outer")
    try:
        return build(RunConfig, formats=formats, trs=build(TrsConfig),
                     alg2=build(Alg2Config, max_outer=alg2_max_outer))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_parser():
    parser = argparse.ArgumentParser(prog="ductflow", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on one configuration")
    solve.add_argument("--solver", choices=("trs", "alg2", "both"))
    solve.add_argument("--mesh", help="disk:N or file:PATH")
    solve.add_argument("--alpha", type=float)
    solve.add_argument("--tau0", type=float)
    solve.add_argument("--kappa", type=float)
    solve.add_argument("--force", type=float, help="constant force density")
    solve.add_argument("--out", help="output directory")
    solve.add_argument("--format", help="comma-separated subset of csv,vtk,json")
    solve.add_argument("--abstol", type=float)
    solve.add_argument("--reltol", type=float)
    solve.add_argument("--divtol", type=float,
                       help="TRS: least Rayleigh quotient d'Hd/d'd a CG direction "
                            "may have before it counts as negative curvature")
    solve.add_argument("--delta0", type=float)
    solve.add_argument("--delta-max", dest="delta_max", type=float)
    solve.add_argument("--eta", type=float)
    solve.add_argument("--gamma", type=float)
    solve.add_argument("--max-outer", dest="max_outer", type=int)
    solve.add_argument("--max-cg", dest="max_cg", type=int)
    solve.add_argument("--r", type=float, help="ALG2 augmentation parameter")
    solve.add_argument("--newton-abstol", dest="newton_abstol", type=float)
    solve.add_argument("--newton-reltol", dest="newton_reltol", type=float)
    solve.add_argument("--newton-max", dest="newton_max", type=int)
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
    if args.mesh_command == "gen":
        if args.refinement < 1:
            print("error: refinement must be >= 1", file=sys.stderr)
            return EXIT_CONFIG
        try:
            tri = generate_disk_mesh(args.refinement)
            save_mesh(tri, args.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote {args.out}: {tri.n_nodes} nodes, {tri.n_triangles} triangles")
        return EXIT_OK

    try:
        tri = load_mesh(args.path)
    except MeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"OK: {tri.n_nodes} nodes ({tri.n_free} free), "
          f"{tri.n_triangles} triangles, area={tri.areas.sum():.6g}, "
          f"h={tri.h_max():.6g}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "solve":
        try:
            cfg = _merged(args)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        return run(cfg)
    if args.command == "reproduce":
        return _cmd_reproduce(args)
    if args.command == "mesh":
        return _cmd_mesh(args)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
