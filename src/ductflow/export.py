"""Plot-ready output of converged fields: CSV, legacy VTK and JSON.

Floats are written with ``repr`` so identical runs produce bit-identical
files (wall time excluded from determinism guarantees).  The node and
triangle rows come from the mesh's own text, formatted once per mesh
(``Triangulation.node_text`` and ``triangle_text``), and each writer
changes only their separators; value columns are joined in bulk.  The
bytes are the same as formatting every row afresh.
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
        write_rows(fh, tri.node_text.replace(" ", ",").splitlines(),
                   expand_velocity(tri, y), sep=",")


def write_stress_csv(path, tau: np.ndarray, tau0: float) -> None:
    mags, yielded = _yield_columns(tau, tau0)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("triangle,stress_magnitude,yielded\n")
        write_rows(fh, np.arange(mags.size), mags, yielded, sep=",")


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
        fh.write(tri.node_text.replace("\n", " 0.0\n"))
        fh.write(f"CELLS {tri.n_triangles} {4 * tri.n_triangles}\n")
        # "3 " before each row: the last newline starts no row
        fh.write("3 ")
        fh.write(tri.triangle_text.replace("\n", "\n3 ", tri.n_triangles - 1))
        fh.write(f"CELL_TYPES {tri.n_triangles}\n")
        fh.write("5\n" * tri.n_triangles)
        fh.write(f"POINT_DATA {tri.n_nodes}\n")
        fh.write("SCALARS velocity double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        write_rows(fh, expand_velocity(tri, y))
        fh.write(f"CELL_DATA {tri.n_triangles}\n")
        fh.write("SCALARS stress_magnitude double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        write_rows(fh, mags)
        fh.write("SCALARS yielded int 1\n")
        fh.write("LOOKUP_TABLE default\n")
        write_rows(fh, yielded)


def write_report_json(path, report: SolveReport, extra: dict | None = None) -> None:
    data = report.to_dict()
    if extra:
        data.update(extra)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
