"""Plot-ready output of converged fields: CSV, legacy VTK and JSON.

Floats are written with ``repr`` so identical runs produce bit-identical
files (wall time excluded from determinism guarantees).
"""

from __future__ import annotations

import json

import numpy as np

from .mesh import Triangulation, write_rows
from .objective import block_norms
from .report import SolveReport


def expand_velocity(tri: Triangulation, y: np.ndarray) -> np.ndarray:
    """Free-node velocities padded with the Dirichlet zeros."""
    full = np.zeros(tri.n_nodes)
    full[tri.free_nodes] = y
    return full


def _yield_columns(tau: np.ndarray, tau0: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle stress magnitudes and yielded flags (``|t_k| > tau0``)."""
    mags = block_norms(tau)
    return mags, (mags > tau0).astype(np.int8)


def write_velocity_csv(path, tri: Triangulation, y: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,y,velocity\n")
        write_rows(fh, "{},{},{}\n", *tri.nodes.T, expand_velocity(tri, y))


def write_stress_csv(path, tau: np.ndarray, tau0: float) -> None:
    mags, yielded = _yield_columns(tau, tau0)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("triangle,stress_magnitude,yielded\n")
        write_rows(fh, "{},{},{}\n", np.arange(mags.size), mags, yielded)


def write_vtk(path, tri: Triangulation, y: np.ndarray, tau: np.ndarray,
              tau0: float) -> None:
    """Legacy ASCII unstructured grid with point and cell data."""
    mags, yielded = _yield_columns(tau, tau0)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("viscoplastic duct flow\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {tri.n_nodes} double\n")
        write_rows(fh, "{} {} 0.0\n", *tri.nodes.T)
        fh.write(f"CELLS {tri.n_triangles} {4 * tri.n_triangles}\n")
        write_rows(fh, "3 {} {} {}\n", *tri.triangles.T)
        fh.write(f"CELL_TYPES {tri.n_triangles}\n")
        fh.write("5\n" * tri.n_triangles)
        fh.write(f"POINT_DATA {tri.n_nodes}\n")
        fh.write("SCALARS velocity double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        write_rows(fh, "{}\n", expand_velocity(tri, y))
        fh.write(f"CELL_DATA {tri.n_triangles}\n")
        fh.write("SCALARS stress_magnitude double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        write_rows(fh, "{}\n", mags)
        fh.write("SCALARS yielded int 1\n")
        fh.write("LOOKUP_TABLE default\n")
        write_rows(fh, "{}\n", yielded)


def write_report_json(path, report: SolveReport, extra: dict | None = None) -> None:
    data = report.to_dict()
    if extra:
        data.update(extra)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
