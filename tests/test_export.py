"""Writers against per-line reference loops: the row helper must not
change a byte of any exported or saved file."""

import numpy as np
import pytest

from ductflow.augmented_lagrangian import solve_alg2
from ductflow.export import write_stress_csv, write_velocity_csv, write_vtk
from ductflow.fem import assemble
from ductflow.mesh import generate_disk_mesh, save_mesh
from ductflow.objective import FluidParams, block_norms


def reference_velocity_csv(path, tri, y):
    full = np.zeros(tri.n_nodes)
    full[tri.free_nodes] = y
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,y,velocity\n")
        for (px, py), v in zip(tri.nodes, full):
            fh.write(f"{float(px)!r},{float(py)!r},{float(v)!r}\n")


def reference_stress_csv(path, tau, tau0):
    mags = block_norms(tau)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("triangle,stress_magnitude,yielded\n")
        for k, mag in enumerate(mags):
            fh.write(f"{k},{float(mag)!r},{int(mag > tau0)}\n")


def reference_vtk(path, tri, y, tau, tau0):
    full = np.zeros(tri.n_nodes)
    full[tri.free_nodes] = y
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


def reference_mesh(path, tri):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"nodes {tri.n_nodes}\n")
        for (x, y), d in zip(tri.nodes, tri.is_dirichlet):
            fh.write(f"{float(x)!r} {float(y)!r} {int(d)}\n")
        fh.write(f"triangles {tri.n_triangles}\n")
        for a, b, c in tri.triangles:
            fh.write(f"{a} {b} {c}\n")


@pytest.fixture(scope="module")
def disk3_solution():
    tri = generate_disk_mesh(3)
    params = FluidParams(alpha=1.75, kappa=1.0, tau0=0.2)
    y, _, tau, _ = solve_alg2(params, assemble(tri, f=1.0))
    mags = block_norms(tau)
    # both sides of the yield surface, so the flag column is not constant
    assert (mags > params.tau0).any() and (mags <= params.tau0).any()
    return tri, y, tau, params.tau0


@pytest.mark.parametrize("name", ["velocity_csv", "stress_csv", "vtk", "mesh"])
def test_writer_bytes_match_reference_loop(tmp_path, disk3_solution, name):
    tri, y, tau, tau0 = disk3_solution
    writers = {
        "velocity_csv": (lambda p: write_velocity_csv(p, tri, y),
                         lambda p: reference_velocity_csv(p, tri, y)),
        "stress_csv": (lambda p: write_stress_csv(p, tau, tau0),
                       lambda p: reference_stress_csv(p, tau, tau0)),
        "vtk": (lambda p: write_vtk(p, tri, y, tau, tau0),
                lambda p: reference_vtk(p, tri, y, tau, tau0)),
        "mesh": (lambda p: save_mesh(tri, p), lambda p: reference_mesh(p, tri)),
    }
    write, reference = writers[name]
    write(tmp_path / "new")
    reference(tmp_path / "reference")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "reference").read_bytes()
