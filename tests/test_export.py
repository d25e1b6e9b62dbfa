"""Writers against per-line reference loops: the row helper and the
shared column text must not change a byte of any exported or saved file."""

import copy
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ductflow import export, trust_region
from ductflow.augmented_lagrangian import solve_alg2
from ductflow.export import write_report_json, write_stress_csv, write_velocity_csv, write_vtk
from ductflow.fem import assemble
from ductflow.mesh import Triangulation, generate_disk_mesh, save_mesh
from ductflow.objective import FluidParams, _norms_and_excess, block_norms
from ductflow.report import SolveReport
from ductflow.trust_region import solve_trs


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


def test_disk120_integer_columns_match_reference_loop(tmp_path):
    # 86,400 triangles, node indices of five digits and fewer: the triangle
    # rows and the stress CSV's index column at the benchmark's largest mesh
    tri = generate_disk_mesh(120)
    tau = np.random.default_rng(120).standard_normal(2 * tri.n_triangles)
    pairs = [(lambda p: save_mesh(tri, p), lambda p: reference_mesh(p, tri)),
             (lambda p: write_stress_csv(p, tau, 1.0),
              lambda p: reference_stress_csv(p, tau, 1.0))]
    for write, reference in pairs:
        write(tmp_path / "new")
        reference(tmp_path / "reference")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "reference").read_bytes()


def assert_all_writers_match(out, tri, y, tau, tau0):
    """Every writer against its reference loop, in the order a solve exports."""
    pairs = [
        (lambda p: write_velocity_csv(p, tri, y), lambda p: reference_velocity_csv(p, tri, y)),
        (lambda p: write_stress_csv(p, tau, tau0), lambda p: reference_stress_csv(p, tau, tau0)),
        (lambda p: write_vtk(p, tri, y, tau, tau0),
         lambda p: reference_vtk(p, tri, y, tau, tau0)),
    ]
    for write, reference in pairs:
        write(out / "new")
        reference(out / "reference")
        assert (out / "new").read_bytes() == (out / "reference").read_bytes()


def assert_mesh_file_matches(out, tri):
    save_mesh(tri, out / "new.mesh")
    reference_mesh(out / "reference.mesh", tri)
    assert (out / "new.mesh").read_bytes() == (out / "reference.mesh").read_bytes()


def test_cached_mesh_text_carries_no_field_data(tmp_path, disk3_solution):
    # a fresh mesh, so the first save_mesh builds its text; two solutions
    # exported after it must not see each other, nor change a later save
    _, y_alg2, tau_alg2, tau0 = disk3_solution
    tri = generate_disk_mesh(3)
    assert_mesh_file_matches(tmp_path, tri)
    assert {"node_text", "triangle_text"} <= vars(tri).keys()
    tau_trs, y_trs, _ = solve_trs(FluidParams(alpha=2.0, kappa=1.0, tau0=0.1),
                                  assemble(tri, f=1.0))
    assert not np.array_equal(y_trs, y_alg2)
    for y, tau, t0 in ((y_trs, tau_trs, 0.1), (y_alg2, tau_alg2, tau0), (y_trs, tau_trs, 0.1)):
        assert_all_writers_match(tmp_path, tri, y, tau, t0)
    assert_mesh_file_matches(tmp_path, tri)


@settings(max_examples=25, deadline=None)
@given(scale=st.sampled_from([1e-7, 1e17]), sign=st.sampled_from([1.0, -1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_exponent_and_negative_zero_text(scale, sign, seed):
    # sign -1 turns the centre node and the axis nodes' zeros into -0.0;
    # either scale gives every other coordinate an exponent in its repr
    disk = generate_disk_mesh(2)
    tri = Triangulation(sign * scale * disk.nodes, disk.triangles, disk.is_dirichlet)
    assert "e" in tri.node_text
    assert ("-0.0" in tri.node_text) == (sign < 0)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(tri.n_free) * 10.0 ** rng.integers(-30, 30, tri.n_free)
    y[::3] = -0.0
    tau = rng.standard_normal(2 * tri.n_triangles) * scale
    tau0 = float(np.median(block_norms(tau)))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        assert_mesh_file_matches(out, tri)
        assert_all_writers_match(out, tri, y, tau, tau0)


@pytest.mark.parametrize("tau0, flags", [(0.5, [0, 0, 1, 0, 0, 0]), (0.0, [1, 1, 1, 0, 0, 1])])
def test_yielded_flags_follow_the_objective_rule(tmp_path, tau0, flags):
    # norms exactly 0.5, just above it, +-0.0 and the least subnormal: a
    # block is flagged exactly where the objective's excess |t_k| - tau0
    # is positive
    above = float(np.nextafter(0.5, np.inf))
    tau = np.array([0.5, 0.0, 0.0, -0.5, above, 0.0, 0.0, -0.0, -0.0, 0.0, 5e-324, 0.0])
    tri = generate_disk_mesh(1)
    assert tri.n_triangles == len(tau) // 2
    write_stress_csv(tmp_path / "stress.csv", tau, tau0)
    write_vtk(tmp_path / "flow.vtk", tri, np.zeros(tri.n_free), tau, tau0)
    csv_flags = [int(line.rsplit(",", 1)[1])
                 for line in (tmp_path / "stress.csv").read_text().splitlines()[1:]]
    vtk_flags = [int(v) for v in (tmp_path / "flow.vtk").read_text().split(
        "SCALARS yielded int 1\nLOOKUP_TABLE default\n")[1].split()]
    assert csv_flags == vtk_flags == flags
    assert _norms_and_excess(tau, tau0)[2].astype(int).tolist() == flags


def test_column_text_follows_in_place_changes(tmp_path, disk3_solution):
    tri, y0, tau0_field, tau0 = disk3_solution
    y, tau = y0.copy(), tau0_field.copy()
    assert_all_writers_match(tmp_path, tri, y, tau, tau0)
    y *= 1.5
    tau[::3] *= -2.0
    assert_all_writers_match(tmp_path, tri, y, tau, tau0)


def test_vtk_before_csvs_gives_the_same_bytes(tmp_path, disk3_solution):
    tri, y, tau, tau0 = disk3_solution
    export._float_lines.cache_clear()
    pairs = [
        (lambda p: write_vtk(p, tri, y, tau, tau0),
         lambda p: reference_vtk(p, tri, y, tau, tau0)),
        (lambda p: write_velocity_csv(p, tri, y), lambda p: reference_velocity_csv(p, tri, y)),
        (lambda p: write_stress_csv(p, tau, tau0), lambda p: reference_stress_csv(p, tau, tau0)),
    ]
    for write, reference in pairs:
        write(tmp_path / "new")
        reference(tmp_path / "reference")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "reference").read_bytes()
    # the VTK formatted both columns, and the CSVs reused them
    assert export._float_lines.cache_info().misses == 2


def test_stress_csv_matches_reference_across_a_chunk_boundary(tmp_path):
    # 20,000 rows cross a write_rows chunk boundary
    rng = np.random.default_rng(13)
    for n in (7, 20_000):
        tau = rng.standard_normal(2 * n)
        write_stress_csv(tmp_path / "new", tau, 1.0)
        reference_stress_csv(tmp_path / "reference", tau, 1.0)
        assert (tmp_path / "new").read_bytes() == (tmp_path / "reference").read_bytes()


NAN_PAYLOADS = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.uint64).view(float)


@pytest.mark.parametrize("first, second", [(0.0, -0.0), tuple(NAN_PAYLOADS)],
                         ids=["signed_zero", "nan_payload"])
def test_columns_differing_in_bits_only_get_their_own_text(tmp_path, disk3_solution,
                                                           first, second):
    tri, y, _, _ = disk3_solution
    texts = []
    export._float_lines.cache_clear()
    for value in (first, second):
        y_mod = y.copy()
        y_mod[0] = value
        write_velocity_csv(tmp_path / "new", tri, y_mod)
        reference_velocity_csv(tmp_path / "reference", tri, y_mod)
        assert (tmp_path / "new").read_bytes() == (tmp_path / "reference").read_bytes()
        texts.append((tmp_path / "new").read_text())
    assert export._float_lines.cache_info().misses == 2
    # the two NaNs both print as nan; the zeros keep their sign
    assert (texts[0] == texts[1]) == np.isnan(first)


def test_cache_holds_at_most_two_columns(tmp_path, disk3_solution):
    tri, y_alg2, tau_alg2, tau0 = disk3_solution
    ops = assemble(tri, f=1.0)
    trs_params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
    alg2_params = FluidParams(alpha=1.5, kappa=1.0, tau0=0.1)
    tau_trs, y_trs, _ = solve_trs(trs_params, ops)
    y_b, _, tau_b, _ = solve_alg2(alg2_params, ops)
    for y, tau, t0 in ((y_alg2, tau_alg2, tau0), (y_trs, tau_trs, 0.1), (y_b, tau_b, 0.1)):
        before = export._float_lines.cache_info()
        assert_all_writers_match(tmp_path, tri, y, tau, t0)
        after = export._float_lines.cache_info()
        # one solve formats its velocity and magnitude columns once each
        assert after.misses - before.misses == 2
        assert after.hits - before.hits == 2
        assert after.currsize <= 2


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_report_json_is_standard_json(tmp_path):
    report = SolveReport(kkt_history=[1.0, float("nan"), float("inf"), float("-inf")],
                         status="non_finite")
    write_report_json(tmp_path / "report.json", report,
                      {"error_vs_analytic": float("nan"), "alpha": 2.0})
    data = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject_constant)
    assert data["schema_version"] == 2
    assert data["kkt_history"] == [1.0, None, None, None]
    assert data["error_vs_analytic"] is None
    assert data["alpha"] == 2.0
    assert data["status"] == "non_finite"


def reference_report_json(path, report, extra):
    data = {"schema_version": 2, **dataclasses.asdict(report)}
    data["cg_iterations"] = [[count, reason] for count, reason in report.cg_iterations]
    data.update(extra)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(export._null_non_finite(data), fh, indent=2, allow_nan=False)
        fh.write("\n")


def test_report_json_bytes_match_reference(tmp_path, disk3_solution):
    ops = assemble(disk3_solution[0], f=1.0)
    params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
    reports = [solve_trs(params, ops)[2], solve_alg2(params, ops)[3],
               SolveReport(kkt_history=[1.0, float("nan")], cg_iterations=[(3, "boundary")],
                           status="non_finite", wall_time=float("inf"))]
    extra = {"solver": "trs", "alpha": 2.0, "error_vs_analytic": float("nan")}
    for report in reports:
        write_report_json(tmp_path / "new", report, extra)
        reference_report_json(tmp_path / "reference", report, extra)
        assert (tmp_path / "new").read_bytes() == (tmp_path / "reference").read_bytes()


def test_report_dict_holds_copies():
    report = SolveReport(kkt_history=[1.0], objective_history=[2.0], radius_history=[3.0],
                         feasibility_history=[4.0], cg_iterations=[(1, "converged")])
    before = copy.deepcopy(report)
    for value in report.to_dict().values():
        if isinstance(value, list):
            value.append(0.0)
    assert report == before


def test_non_finite_run_writes_standard_json(tmp_path, disk3_solution, monkeypatch):
    tri = disk3_solution[0]
    ops = assemble(tri, f=1.0)
    monkeypatch.setattr(trust_region, "gradient",
                        lambda params, ops, tau, norms_excess=None:
                        np.full(ops.n_stress, np.nan))
    _, _, report = solve_trs(FluidParams(alpha=2.0, kappa=1.0, tau0=0.1), ops)
    assert report.status == "non_finite"
    assert not np.all(np.isfinite(report.kkt_history))
    write_report_json(tmp_path / "report.json", report)
    data = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject_constant)
    assert data["status"] == "non_finite"
    assert data["kkt_history"] == [v if np.isfinite(v) else None for v in report.kkt_history]
