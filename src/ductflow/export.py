"""Plot-ready output of converged fields: CSV, legacy VTK and JSON.

Floats are written with ``repr`` so identical runs produce bit-identical
files (wall time excluded from determinism guarantees).
"""

from __future__ import annotations

import json

import numpy as np

from .mesh import Triangulation
from .objective import block_norms
from .report import SolveReport


def expand_velocity(tri: Triangulation, y: np.ndarray) -> np.ndarray:
    """Free-node velocities padded with the Dirichlet zeros."""
    full = np.zeros(tri.n_nodes)
    full[tri.free_nodes] = y
    return full


def write_velocity_csv(path, tri: Triangulation, y: np.ndarray) -> None:
    full = expand_velocity(tri, y)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,y,velocity\n")
        for (px, py), v in zip(tri.nodes, full):
            fh.write(f"{float(px)!r},{float(py)!r},{float(v)!r}\n")


def write_stress_csv(path, tau: np.ndarray, tau0: float) -> None:
    mags = block_norms(tau)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("triangle,stress_magnitude,yielded\n")
        for k, mag in enumerate(mags):
            fh.write(f"{k},{float(mag)!r},{int(mag > tau0)}\n")


def write_vtk(path, tri: Triangulation, y: np.ndarray, tau: np.ndarray,
              tau0: float) -> None:
    """Legacy ASCII unstructured grid with point and cell data."""
    full = expand_velocity(tri, y)
    mags = block_norms(tau)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("viscoplastic duct flow\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {tri.n_nodes} double\n")
        for px, py in tri.nodes:
            fh.write(f"{float(px)!r} {float(py)!r} 0.0\n")
        fh.write(f"CELLS {tri.n_triangles} {4 * tri.n_triangles}\n")
        for a, b, c in tri.triangles:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {tri.n_triangles}\n")
        for _ in range(tri.n_triangles):
            fh.write("5\n")
        fh.write(f"POINT_DATA {tri.n_nodes}\n")
        fh.write("SCALARS velocity double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        for v in full:
            fh.write(f"{float(v)!r}\n")
        fh.write(f"CELL_DATA {tri.n_triangles}\n")
        fh.write("SCALARS stress_magnitude double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        for mag in mags:
            fh.write(f"{float(mag)!r}\n")
        fh.write("SCALARS yielded int 1\n")
        fh.write("LOOKUP_TABLE default\n")
        for mag in mags:
            fh.write(f"{int(mag > tau0)}\n")


def write_report_json(path, report: SolveReport, extra: dict | None = None) -> None:
    data = report.to_dict()
    if extra:
        data.update(extra)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
