"""Closed-loop, single-threaded benchmark of the ductflow solvers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pipe_grid --seed 1 --seconds 30 --trace 0

After one warm-up pass that is left out, passes of the workload run
back to back until ``--seconds`` have elapsed.  With ``--trace 0`` the
end-to-end metrics (medians over passes) are reported; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics (medians
over traced passes) plus the tracing overhead are reported.  Every metric
is printed by name and unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Times are wall seconds scaled to a reference host speed by a calibration
kernel sampled during each pass (see ``calibration.py``); the raw wall
times of every pass are printed too.

``python3 perfbench/run.py --write-spec`` rewrites ``BENCHMARK.json``
from the definitions below.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

RUN_SECONDS = 30

# name, unit, better, bound (share of the parent's median it may worsen by).
# Ten-run quartile spreads of the times on a shared 2-vCPU host were
# 0.05-0.08 for solver and pass times and up to 0.17 for the short I/O
# phases, so every time gets the largest bound the contract allows.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),       # mesh build and validation plus assemble
    ("trs_s", "s", "lower", 0.25),         # total solve_trs time
    ("alg2_s", "s", "lower", 0.25),        # total solve_alg2 time
    ("export_s", "s", "lower", 0.25),      # the four writers
    ("mesh_io_s", "s", "lower", 0.25),     # save_mesh plus load_mesh
    ("pass_s", "s", "lower", 0.25),        # the whole pass
    ("trs_err", "1", "lower", 0.2),        # max relative velocity error over cells, TRS
    ("alg2_err", "1", "lower", 0.2),       # the same for ALG2
    ("solved_frac", "1", "higher", 0.01),  # 1 - failed_frac
    ("peak_rss_mb", "MB", "lower", 0.1),   # peak resident memory
]

# Self times (_s) and call counts (_n) of spans, then counts taken from
# the solve reports.
PER_LAYER = [
    ("mesh.build_s", "s", "lower"),
    ("mesh.save_s", "s", "lower"),
    ("mesh.load_s", "s", "lower"),
    ("fem.assemble_s", "s", "lower"),
    ("fem.project_feasible_s", "s", "lower"),
    ("fem.solve_ddt_s", "s", "lower"),
    ("fem.solve_ddt_n", "count", "lower"),
    ("fem.project_nullspace_s", "s", "lower"),
    ("fem.project_nullspace_n", "count", "lower"),
    ("fem.recover_velocity_s", "s", "lower"),
    ("fem.recover_velocity_n", "count", "lower"),
    ("fem.solve_stiffness_s", "s", "lower"),
    ("fem.solve_stiffness_n", "count", "lower"),
    ("fem.velocity_gradient_s", "s", "lower"),
    ("fem.momentum_residual_s", "s", "lower"),
    ("objective.gradient_s", "s", "lower"),
    ("objective.gradient_n", "count", "lower"),
    ("objective.hessian_s", "s", "lower"),
    ("objective.hessian_n", "count", "lower"),
    ("objective.hessian_apply_s", "s", "lower"),
    ("objective.hessian_apply_n", "count", "lower"),
    ("objective.objective_s", "s", "lower"),
    ("objective.objective_n", "count", "lower"),
    ("trust_region.solve_s", "s", "lower"),
    ("trust_region.cg_steihaug_s", "s", "lower"),
    ("trust_region.outer_iters", "count", "lower"),
    ("trust_region.cg_iters", "count", "lower"),
    ("trust_region.cg_exit.converged", "count", "higher"),
    ("trust_region.cg_exit.boundary", "count", "higher"),
    ("trust_region.cg_exit.curvature", "count", "lower"),
    ("trust_region.cg_exit.cap", "count", "lower"),
    ("trust_region.accept_ratio", "ratio", "higher"),
    ("augmented_lagrangian.solve_s", "s", "lower"),
    ("augmented_lagrangian.iters", "count", "lower"),
    ("export.write_velocity_csv_s", "s", "lower"),
    ("export.write_stress_csv_s", "s", "lower"),
    ("export.write_vtk_s", "s", "lower"),
    ("export.write_report_json_s", "s", "lower"),
    ("export.bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

CG_EXITS = ("converged", "boundary", "curvature", "cap")


def bootstrap() -> None:
    """Pin BLAS to one thread and import ductflow from this checkout's ``src``."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "ductflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no ductflow package under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import ductflow
    if Path(ductflow.__file__).resolve().parent != (SRC / "ductflow").resolve():
        raise SystemExit(f"error: imported ductflow from {ductflow.__file__}, not {SRC}")


# -- measurement ---------------------------------------------------------------

def run_pass(workload, rng, out_dir, tracer=None, calibration=None):
    from workloads import Pass

    p = Pass(out_dir, tracer, calibration)
    start = perf_counter()
    p.sample(force=True)
    with p.tracer.instrument():
        workload.run(p, rng)
    p.sample(force=True)
    p.seconds["pass"] = perf_counter() - start
    p.scaled = p.scaled_seconds()
    p.close()
    return p


def max_error(p, solver: str) -> float:
    """Largest velocity error of ``solver`` in the pass; arrested-flow solves have none."""
    return max(s.error for s in p.solves if s.solver == solver and not math.isnan(s.error))


def end_to_end(passes) -> dict:
    med = statistics.median
    solves = [s for p in passes for s in p.solves]
    failed = sum(s.failure is not None for s in solves)
    return {
        **{f"{phase}_s": med([p.scaled[phase] for p in passes])
           for phase in ("setup", "trs", "alg2", "export", "mesh_io", "pass")},
        "trs_err": med([max_error(p, "trs") for p in passes]),
        "alg2_err": med([max_error(p, "alg2") for p in passes]),
        "solved_frac": 1.0 - failed / len(solves),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(traced, untraced) -> dict:
    from tracing import self_times

    rows = []
    for p in traced:
        spans = self_times(p.tracer.spans)
        trs = [s.report for s in p.solves if s.solver == "trs"]
        alg2 = [s.report for s in p.solves if s.solver == "alg2"]
        exits = [reason for r in trs for _, reason in r.cg_iterations]
        accepted = sum(r.accepted_steps for r in trs)
        rejected = sum(r.rejected_steps for r in trs)
        row = {
            "trust_region.outer_iters": sum(r.iterations for r in trs),
            "trust_region.cg_iters": sum(n for r in trs for n, _ in r.cg_iterations),
            **{f"trust_region.cg_exit.{e}": exits.count(e) for e in CG_EXITS},
            "trust_region.accept_ratio": accepted / (accepted + rejected)
            if accepted + rejected else 1.0,
            "augmented_lagrangian.iters": sum(r.iterations for r in alg2),
            "export.bytes": p.export_bytes,
        }
        for name, _, _ in PER_LAYER:
            if name not in row and name != "trace.overhead_s":
                seconds, calls = spans.get(name[:-2], (0.0, 0))
                row[name] = seconds * p.scaled["scale"] if name.endswith("_s") else calls
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    metrics["trace.overhead_s"] = (statistics.median(p.scaled["pass"] for p in traced)
                                   - statistics.median(p.scaled["pass"] for p in untraced))
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, out_dir: Path):
    from calibration import Calibration
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    rng = random.Random(seed)
    calibration = Calibration()
    warmup = run_pass(workload, rng, out_dir)
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    while True:
        untraced.append(run_pass(workload, rng, out_dir, None, calibration))
        if trace:
            traced.append(run_pass(workload, rng, out_dir, Tracer(), calibration))
        if perf_counter() >= deadline:
            break
    measured = untraced + traced
    metrics = per_layer(traced, untraced) if trace else end_to_end(untraced)
    return warmup, measured, metrics


# -- reporting -----------------------------------------------------------------

def run_record(args) -> dict:
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text(encoding="ascii").strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text(encoding="ascii").strip() if ref_file.is_file() else "unknown"
        sha = ref
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": platform.node(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": sha,
    }


def write_spec(path: Path) -> None:
    from workloads import STRAIN_RATE_TOL, WORKLOADS, abstol_for

    workloads = []
    for name, cls in WORKLOADS.items():
        abstols = "/".join(f"{abstol_for(tri):.2g}" for tri in cls.meshes().values())
        workloads.append({"name": name, "why": f"{cls.why}; strain-rate tol "
                          f"{STRAIN_RATE_TOL:.0e} = abstol {abstols}"})
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    path.write_text(json.dumps(spec, indent=2) + "\n", encoding="ascii")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("pipe_grid", "square_duct", "fine_pipe"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")

    bootstrap()
    if args.write_spec:
        write_spec(ROOT / "BENCHMARK.json")
        return 0

    from tracing import Tracer
    from workloads import BenchmarkError

    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        warmup, measured, metrics = measure(args.workload, args.seed, args.seconds,
                                            bool(args.trace), out_dir)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    record = run_record(args)
    record["passes"] = len(measured)
    print("run record: " + json.dumps(record))
    for i, p in enumerate(measured):
        kind = "traced " if isinstance(p.tracer, Tracer) else ""
        print(f"{kind}pass {i}: speed scale {p.scaled['scale']:.4f}; wall " + ", ".join(
            f"{k} {v:.4f} s" for k, v in p.seconds.items()))
    solves = [s for p in measured for s in p.solves]
    failed = [s for s in solves if s.failure is not None]
    wrong = sorted({w for p in [warmup, *measured] for w in p.wrong})
    for w in wrong:
        print(f"WRONG: {w}")
    for s in sorted({(s.solver, s.params.alpha, s.params.tau0, s.failure) for s in failed}):
        print("failed solve: {} alpha={} tau0={}: {}".format(*s))
    print(f"failed_frac = {len(failed)}/{len(solves)}")
    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    metrics = {name: metrics[name] for name in units if name in metrics}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if args.trace:
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(measured[-1].tracer.spans), encoding="ascii")
        print(f"spans of the last traced pass: {trace_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
