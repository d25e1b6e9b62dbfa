"""Compute the square-duct reference velocities in ``square_refs.json``.

Run from the root of a checkout (takes a few minutes)::

    python3 perfbench/make_square_refs.py

Each reference is an ALG2 solve with tight outer and Newton tolerances.
As a cross-check, TRS is run at a ladder of looser tolerances and its
relative difference from the reference is recorded at the tightest one
where it converges (TRS stalls on the plug before reaching the
reference tolerance).  The file also stores each reference's final KKT
residual and a fingerprint of the mesh, so that a drifted mesh fails
loudly.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, bootstrap

# Tolerance of the references, in strain-rate units: three orders of
# magnitude below the benchmark's.  ALG2 converges sublinearly here; at
# alpha=1.5, tau0=0.3 it needs about 1e5 iterations for 1e-7.
REF_STRAIN_RATE_TOL = 1e-7
REF_RELTOL = 1e-10
REF_NEWTON_ABSTOL = 1e-13
REF_NEWTON_RELTOL = 1e-14
REF_ALG2_MAX_OUTER = 500_000
REF_TRS_MAX_OUTER = 20_000
TRS_STRAIN_RATE_TOLS = (1e-6, 1e-5, 1e-4)


def main() -> int:
    bootstrap()
    import numpy as np

    from ductflow import Alg2Config, FluidParams, TrsConfig, assemble, solve_alg2, solve_trs
    from ductflow.pipe import relative_difference
    from workloads import (SQUARE_CELLS, SQUARE_N, abstol_for, mesh_fingerprint,
                           square_duct_mesh)

    tri = square_duct_mesh(SQUARE_N)
    ops = assemble(tri, f=1.0)
    mean_area = float(np.mean(tri.areas))
    abstol = abstol_for(tri, REF_STRAIN_RATE_TOL)
    alg2_cfg = Alg2Config(abstol=abstol, reltol=REF_RELTOL, newton_abstol=REF_NEWTON_ABSTOL,
                          newton_reltol=REF_NEWTON_RELTOL, max_outer=REF_ALG2_MAX_OUTER)

    cells = []
    for alpha, tau0 in SQUARE_CELLS:
        params = FluidParams(alpha=alpha, kappa=1.0, tau0=tau0)
        start = time.perf_counter()
        y, _, _, rep = solve_alg2(params, ops, alg2_cfg)
        if not rep.converged:
            print(f"error: ALG2 reference alpha={alpha} tau0={tau0} did not converge "
                  f"(residual {rep.kkt_history[-1]:.2e})", file=sys.stderr)
            return 1
        cross = None
        for tol in TRS_STRAIN_RATE_TOLS:
            cfg = TrsConfig(abstol=abstol_for(tri, tol), reltol=REF_RELTOL,
                            max_outer=REF_TRS_MAX_OUTER)
            _, y_trs, rep_trs = solve_trs(params, ops, cfg=cfg)
            if rep_trs.converged:
                cross = {"strain_rate_tol": tol, "iterations": rep_trs.iterations,
                         "relative_difference": relative_difference(y_trs, y)}
                break
        cells.append({
            "alpha": alpha, "tau0": tau0,
            "alg2_iterations": rep.iterations,
            "kkt_residual": rep.kkt_history[-1],
            "kkt_residual_strain_rate": rep.kkt_history[-1] / mean_area,
            "trs_cross_check": cross,
            "velocity": [float(v) for v in y],
        })
        print(f"alpha={alpha} tau0={tau0}: ALG2 {rep.iterations} iterations, residual "
              f"{rep.kkt_history[-1]:.2e}; TRS cross-check {cross}; "
              f"{time.perf_counter() - start:.1f} s")

    data = {
        "mesh": f"square:{SQUARE_N}",
        "mesh_sha256": mesh_fingerprint(tri),
        "strain_rate_tol": REF_STRAIN_RATE_TOL,
        "abstol": abstol,
        "reltol": REF_RELTOL,
        "newton_abstol": REF_NEWTON_ABSTOL,
        "newton_reltol": REF_NEWTON_RELTOL,
        "cells": cells,
    }
    path = HERE / "square_refs.json"
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="ascii")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
