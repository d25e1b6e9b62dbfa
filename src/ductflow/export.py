"""Plot-ready output of converged fields: CSV, legacy VTK and JSON.

Floats are written with ``repr`` so identical runs produce bit-identical
files (wall time excluded from determinism guarantees).  The node and
triangle rows come from the mesh's own text, formatted once per mesh
(``Triangulation.node_text`` and ``triangle_text``), and each writer
changes only their separators.  A float value column (velocities or
stress magnitudes) is formatted once per distinct content and the text
is shared by the CSV and VTK writers: it is cached under the column's
exact bytes, so ``-0.0`` and ``0.0`` or two NaN payloads never share
text, and a field changed in place is formatted afresh.  The bytes are
the same as formatting every row afresh.  Integer columns (the
triangle rows, and the stress CSV's triangle-index column, formatted
afresh by every call) are formatted by digit arithmetic in
``mesh.rows_text``, with the same bytes as ``repr``; the yielded flags
by ``mesh.flag_lines``, as a mesh file's Dirichlet flags.

The JSON report is standard JSON: a NaN or infinite value is written
as ``null``.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .mesh import Triangulation, flag_lines, rows_text, write_rows
from .objective import _norms_and_excess
from .report import SolveReport


def expand_velocity(tri: Triangulation, y: np.ndarray) -> np.ndarray:
    """Free-node velocities padded with the Dirichlet zeros."""
    full = np.zeros(tri.n_nodes)
    full[tri.free_nodes] = y
    return full


@functools.lru_cache(maxsize=2)
def _float_lines(key: bytes) -> str:
    """``repr`` of each float64 packed in ``key``, one per line."""
    return rows_text(np.frombuffer(key))


def _column_text(values: np.ndarray) -> str:
    """Lines of a float column, formatted once for as long as it is cached.

    Two slots cover one solve's export: the velocity column and the
    stress-magnitude column, each written by a CSV and by the VTK.
    """
    return _float_lines(np.ascontiguousarray(values, dtype=float).tobytes())


def _yield_columns(tau: np.ndarray, tau0: float) -> tuple[str, str]:
    """Lines of the per-triangle stress magnitudes and yielded flags, by the objective's rule."""
    mags, _, yielded = _norms_and_excess(tau, tau0)
    return _column_text(mags), flag_lines(yielded)


def write_velocity_csv(path, tri: Triangulation, y: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,y,velocity\n")
        write_rows(fh, tri.node_text.replace(" ", ","), _column_text(expand_velocity(tri, y)),
                   sep=",")


def write_stress_csv(path, tau: np.ndarray, tau0: float) -> None:
    mags, yielded = _yield_columns(tau, tau0)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("triangle,stress_magnitude,yielded\n")
        write_rows(fh, rows_text(np.arange(len(tau) // 2)), mags, yielded, sep=",")


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
        fh.write(_column_text(expand_velocity(tri, y)))
        fh.write(f"CELL_DATA {tri.n_triangles}\n")
        fh.write("SCALARS stress_magnitude double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        fh.write(mags)
        fh.write("SCALARS yielded int 1\n")
        fh.write("LOOKUP_TABLE default\n")
        fh.write(yielded)


def _null_non_finite(value):
    """``value`` with every NaN or infinite float replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _null_non_finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_null_non_finite(v) for v in value]
    return value


def write_report_json(path, report: SolveReport, extra: dict | None = None) -> None:
    data = report.to_dict()
    if extra:
        data.update(extra)
    text = json.dumps(_null_non_finite(data), indent=2, allow_nan=False)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")
