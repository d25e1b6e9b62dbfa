import hashlib
import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ductflow import fem, mesh
from ductflow.fem import assemble
from ductflow.mesh import (MeshError, Triangulation, generate_disk_mesh, generate_square_mesh,
                           load_mesh, save_mesh)
from oracles import jiggled_disk_nodes, perturbed_disk

SQUARE_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "square_refs.json"


def reference_disk_mesh(n):
    """Disk nodes, triangles and Dirichlet mask built ring by ring, as the
    mesher once did, merging each pair of rings one triangle per pass."""
    points = [(0.0, 0.0)]
    ring_start = [0]
    for i in range(1, n + 1):
        ring_start.append(len(points))
        count = 6 * i
        angles = 2.0 * np.pi * np.arange(count) / count
        radius = i / n
        points.extend(zip(radius * np.cos(angles), radius * np.sin(angles)))
    nodes = np.asarray(points)

    first = ring_start[1]
    triangles = [(0, first + j, first + (j + 1) % 6) for j in range(6)]
    for i in range(2, n + 1):
        s_in, s_out = ring_start[i - 1], ring_start[i]
        m, big = 6 * (i - 1), 6 * i
        a = b = 0
        while a < m or b < big:
            next_in = 2.0 * np.pi * (a + 1) / m if a < m else np.inf
            next_out = 2.0 * np.pi * (b + 1) / big if b < big else np.inf
            if next_out <= next_in:
                triangles.append((s_in + a % m, s_out + b % big, s_out + (b + 1) % big))
                b += 1
            else:
                triangles.append((s_in + a % m, s_out + b % big, s_in + (a + 1) % m))
                a += 1

    radii = np.sqrt((nodes ** 2).sum(axis=1))
    return nodes, np.asarray(triangles), np.abs(radii - 1.0) <= 1e-12


# Values at each side of a new decimal digit and of the uint32 range,
# and the largest int64
INT_EDGES = [0, 9, 10, 99, 100, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1]


@st.composite
def integer_columns(draw):
    """One to three equal-length arrays of non-negative integers, each at
    most its own bound from ``INT_EDGES`` (so their widths differ), in a
    dtype that holds that bound."""
    n = draw(st.integers(0, 12))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        top = draw(st.sampled_from(INT_EDGES))
        dtype = draw(st.sampled_from([np.int64, np.uint64, np.min_scalar_type(top)]))
        values = st.one_of(st.sampled_from([v for v in INT_EDGES if v <= top]),
                           st.integers(0, top))
        columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype))
    return columns


def mesh_arrays_equal(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("nodes", "triangles", "is_dirichlet", "areas"))


def area_gradients(tri):
    """``|T| grad phi`` of each triangle's three hat functions, shape ``(n_T, 3, 2)``."""
    return np.stack(fem._half_rotated_edges(tri), axis=-1)


def reference_repeated_edge(triangles):
    """First directed edge seen twice, scanning edges (0,1), (1,2), (2,0) in turn."""
    seen = set()
    for a, b in np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                                triangles[:, [2, 0]]]):
        key = (int(a), int(b))
        if key in seen:
            return key
        seen.add(key)
    return None


def signed_areas(tri):
    p = tri.nodes[tri.triangles]
    u = p[:, 1] - p[:, 0]
    v = p[:, 2] - p[:, 0]
    return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


# Two triangles apart from each other; only the first has Dirichlet nodes.
TWO_PART_MESH = ("nodes 6\n0 0 1\n1 0 1\n0 1 1\n5 5 0\n6 5 0\n5 6 0\n"
                 "triangles 2\n0 1 2\n3 4 5\n")

class TestDiskMesh:
    def test_coarse_mesh_is_valid(self):
        tri = generate_disk_mesh(1)
        assert tri.n_nodes == 7 and tri.n_triangles == 6
        assert np.all(signed_areas(tri) > 0.0)
        assert tri.is_dirichlet.sum() == 6

    def test_counts_follow_ring_construction(self):
        for n in (1, 2, 5):
            tri = generate_disk_mesh(n)
            assert tri.n_nodes == 1 + 3 * n * (n + 1)
            assert tri.n_triangles == 6 * n * n
            assert tri.is_dirichlet.sum() == 6 * n

    def test_h_decreases_monotonically(self):
        sizes = [generate_disk_mesh(n).h_max() for n in (1, 2, 3, 5, 8)]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_total_area_converges_to_pi(self):
        # derived oracle: the inscribed polygon area must approach pi
        # with strictly decreasing defect under refinement
        defects = [np.pi - generate_disk_mesh(n).areas.sum() for n in (3, 6, 12)]
        assert all(d > 0 for d in defects)
        assert defects[0] > defects[1] > defects[2]
        assert defects[2] < 0.01

    def test_boundary_nodes_on_unit_circle(self):
        tri = generate_disk_mesh(4)
        radii = np.hypot(tri.nodes[:, 0], tri.nodes[:, 1])
        assert np.all(np.abs(radii[tri.is_dirichlet] - 1.0) <= 1e-12)
        assert np.all(radii[~tri.is_dirichlet] < 1.0 - 1e-6)

    def test_hat_gradients_partition_of_unity(self):
        grads = area_gradients(generate_disk_mesh(3))
        sums = grads.sum(axis=1)
        scale = np.abs(grads).max()
        assert np.abs(sums).max() <= 1e-14 * scale

    def test_free_index_is_a_bijection(self):
        tri = generate_disk_mesh(3)
        assert tri.n_free + tri.is_dirichlet.sum() == tri.n_nodes
        positions = tri.free_index[tri.free_nodes]
        assert np.array_equal(np.sort(positions), np.arange(tri.n_free))
        assert np.all(tri.free_index[tri.is_dirichlet] == -1)

    def test_refinement_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_disk_mesh(0)

    @pytest.mark.parametrize("n", [*range(1, 41), 120])
    def test_matches_ring_by_ring_construction(self, n):
        nodes, triangles, dirichlet = reference_disk_mesh(n)
        tri = generate_disk_mesh(n)
        assert np.array_equal(tri.nodes, nodes)
        assert np.array_equal(tri.triangles, triangles)
        assert np.array_equal(tri.is_dirichlet, dirichlet)


class TestSquareMesh:
    def test_matches_benchmark_reference_mesh(self):
        # hashed as the benchmark fingerprints the mesh its references use
        refs = json.loads(SQUARE_REFS.read_text(encoding="ascii"))
        assert refs["mesh"] == "square:32"
        tri = generate_square_mesh(32)
        digest = hashlib.sha256()
        for arr in (tri.nodes, tri.triangles, tri.is_dirichlet):
            digest.update(np.ascontiguousarray(arr).tobytes())
        assert digest.hexdigest() == refs["mesh_sha256"]

    def test_counts_and_rim(self):
        tri = generate_square_mesh(4)
        assert tri.n_nodes == 25 and tri.n_triangles == 32
        assert tri.is_dirichlet.sum() == 16
        assert tri.areas.sum() == pytest.approx(4.0, rel=1e-14)
        assert np.all(tri.areas > 0.0)

    def test_refinement_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_square_mesh(0)


class TestTriangleGeometry:
    def unit_right_triangle(self, shift=(0.0, 0.0), scale=1.0):
        base = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        return Triangulation(scale * base + np.asarray(shift), [(0, 1, 2)],
                             np.ones(3, dtype=bool))

    def test_reference_element(self):
        # |T| grad phi is half the opposite edge turned by 90 degrees: exact here
        tri = self.unit_right_triangle()
        assert tri.areas[0] == pytest.approx(0.5, abs=1e-15)
        expected = np.array([(-0.5, -0.5), (0.5, 0.0), (0.0, 0.5)])
        np.testing.assert_array_equal(area_gradients(tri)[0], expected)

    def test_translation_invariance(self):
        base = self.unit_right_triangle()
        moved = self.unit_right_triangle(shift=(3.7, -1.2))
        assert moved.areas[0] == pytest.approx(base.areas[0], rel=1e-14)
        np.testing.assert_allclose(area_gradients(moved)[0], area_gradients(base)[0], atol=1e-13)

    def test_clockwise_input_gives_the_same_geometry(self):
        # swapping two vertices negates the signed area exactly, so the
        # reoriented mesh, and its constraint matrix, are bit for bit the
        # counter-clockwise ones
        disk = generate_disk_mesh(5)
        flipped = Triangulation(disk.nodes, disk.triangles[:, [0, 2, 1]], disk.is_dirichlet)
        assert mesh_arrays_equal(flipped, disk)
        a, b = assemble(flipped).D, assemble(disk).D
        for name in ("data", "indices", "indptr"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_scaling_law(self):
        # |T| grad phi is linear in the mesh size, exactly so for a factor of 2
        base = self.unit_right_triangle()
        scaled = self.unit_right_triangle(scale=2.0)
        assert scaled.areas[0] == pytest.approx(4.0 * base.areas[0], rel=1e-14)
        np.testing.assert_array_equal(area_gradients(scaled)[0], 2.0 * area_gradients(base)[0])


class TestLoadSave:
    def test_round_trip_bit_identical(self, tmp_path):
        tri = generate_disk_mesh(3)
        path = tmp_path / "disk.mesh"
        save_mesh(tri, path)
        back = load_mesh(path)
        assert np.array_equal(back.nodes, tri.nodes)
        assert np.array_equal(back.triangles, tri.triangles)
        assert np.array_equal(back.is_dirichlet, tri.is_dirichlet)

    @pytest.mark.parametrize("n", [0, 1, mesh._CHUNK_ROWS, 2 * mesh._CHUNK_ROWS + 3])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_text_columns_are_split_chunk_by_chunk(self, n, final_newline):
        # a text column gives the same rows as the array it was formatted
        # from, with or without a newline after its last line
        values = np.arange(n) * 0.5
        text = mesh.rows_text(values)
        if not final_newline:
            text = text.removesuffix("\n")
        expected, got = io.StringIO(), io.StringIO()
        mesh.write_rows(expected, np.arange(n), values, sep=",")
        mesh.write_rows(got, np.arange(n), text, sep=",")
        assert got.getvalue() == expected.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(columns=integer_columns())
    @example(columns=[np.array(INT_EDGES, dtype=np.int64)])
    @example(columns=[np.array(INT_EDGES, dtype=np.uint64), np.array(INT_EDGES[::-1]),
                      np.arange(len(INT_EDGES), dtype=np.uint8)])
    @example(columns=[np.array([], dtype=np.int64), np.array([], dtype=np.uint32)])
    def test_integer_rows_are_their_repr_text(self, columns):
        # formatted by digit arithmetic, in the bytes of a repr per value
        rows = zip(*(column.tolist() for column in columns))
        assert mesh.rows_text(*columns) == "".join(
            " ".join(map(repr, row)) + "\n" for row in rows)

    @pytest.mark.parametrize("columns", [
        [np.array([3, -1, 10])],
        [np.array([3, 1, 10]), np.array([0.5, -0.0, 1e300])],
        [np.array([3, 1, 10]), "a\nb\nc\n"],
        [np.array([3, 1, 10]), np.array([7, 70])],
    ], ids=["negative", "float", "text", "unequal_lengths"])
    def test_other_rows_are_their_repr_text(self, columns):
        # the repr path, and rows up to the shortest column as zip gives them
        expected = io.StringIO()
        for row in zip(*(c.split() if isinstance(c, str) else c.tolist() for c in columns)):
            expected.write(" ".join(v if isinstance(v, str) else repr(v) for v in row) + "\n")
        assert mesh.rows_text(*columns) == expected.getvalue()

    def test_square_file(self, tmp_path):
        path = tmp_path / "square.mesh"
        path.write_text(
            "# simple square\n"
            "nodes 4\n"
            "0 0 1\n"
            "1 0 1\n"
            "1 1 0\n"
            "0 1 1\n"
            "triangles 2\n"
            "0 1 2\n"
            "0 2 3\n"
        )
        tri = load_mesh(path)
        assert tri.n_nodes == 4 and tri.n_triangles == 2
        assert tri.n_free == 1

    def test_clockwise_triangle_reoriented(self, tmp_path):
        path = tmp_path / "cw.mesh"
        path.write_text(
            "nodes 3\n0 0 1\n1 0 1\n0 1 1\n"
            "triangles 1\n0 2 1\n"  # clockwise on purpose
        )
        tri = load_mesh(path)
        assert np.all(signed_areas(tri) > 0.0)

    def test_orphan_node_rejected(self, tmp_path):
        path = tmp_path / "orphan.mesh"
        path.write_text(
            "nodes 4\n0 0 1\n1 0 1\n0 1 1\n5 5 0\n"
            "triangles 1\n0 1 2\n"
        )
        with pytest.raises(MeshError, match="orphan node 3"):
            load_mesh(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("nodes 2\n0 0 1\n1 oops 1\ntriangles 0\n")
        with pytest.raises(MeshError, match="line 3"):
            load_mesh(path)

    def test_degenerate_triangle_names_index(self, tmp_path):
        path = tmp_path / "degenerate.mesh"
        path.write_text(
            "nodes 4\n0 0 1\n1 0 1\n0 1 1\n2 0 1\n"
            "triangles 2\n0 1 2\n0 1 3\n"  # second triangle is collinear
        )
        with pytest.raises(MeshError, match="triangle 1"):
            load_mesh(path)

    def test_missing_dirichlet_rejected(self, tmp_path):
        path = tmp_path / "free.mesh"
        path.write_text("nodes 3\n0 0 0\n1 0 0\n0 1 0\ntriangles 1\n0 1 2\n")
        with pytest.raises(MeshError, match="mesh part containing node 0 has no Dirichlet node"):
            load_mesh(path)

    def test_part_without_dirichlet_node_rejected(self, tmp_path):
        # one triangle held by no-slip nodes, a second one apart from it
        # with none: its velocity would be fixed only up to a constant
        path = tmp_path / "two_parts.mesh"
        path.write_text(TWO_PART_MESH)
        with pytest.raises(MeshError, match="mesh part containing node 3 has no Dirichlet node"):
            load_mesh(path)

    def test_bad_flag_rejected(self, tmp_path):
        path = tmp_path / "flag.mesh"
        path.write_text("nodes 3\n0 0 1\n1 0 2\n0 1 1\ntriangles 1\n0 1 2\n")
        with pytest.raises(MeshError, match="line 3"):
            load_mesh(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.mesh"
        path.write_text("nodes 3\n0 0 1\n1 0 1\n")
        with pytest.raises(MeshError, match="unexpected end of file"):
            load_mesh(path)

    @pytest.mark.parametrize("body,line", [
        ("nodes 100000000000\n0 0 1\n", 1),
        ("nodes 3\n0 0 1\n1 0 1\n0 1 0\ntriangles 100000000000\n0 1 2\n", 5),
    ], ids=["nodes", "triangles"])
    def test_count_beyond_file_rejected_before_allocating(self, tmp_path, body, line):
        # a header count is checked against the lines that follow, so a
        # huge one never reaches the array allocation (a MemoryError)
        path = tmp_path / "huge.mesh"
        path.write_text(body)
        with pytest.raises(MeshError, match=f"line {line}: unexpected end of file"):
            load_mesh(path)

    @pytest.mark.parametrize("body,line", [
        ("nodes -5\n", 1),
        ("nodes 1\n0 0 1\ntriangles -2\n", 3),
    ])
    def test_negative_counts_rejected(self, tmp_path, body, line):
        path = tmp_path / "negative.mesh"
        path.write_text(body)
        with pytest.raises(MeshError, match=f"line {line}"):
            load_mesh(path)


SQUARE = "nodes 3\n0 0 1\n1 0 1\n0 1 1\ntriangles 1\n0 1 2\n"
NODES_3 = "nodes 3\n0 0 1\n1 0 1\n"

# Malformed files and the exact message the reader gives, whether the
# bad section is met in bulk or one row at a time.
MALFORMED = [
    ("bad_float", NODES_3.replace("1 0 1", "1 oops 1") + "0 1 1\n",
     "line 3: invalid y coordinate 'oops'"),
    ("bad_exponent", "nodes 3\n0 0 1\n1e 0 1\n0 1 1\n", "line 3: invalid x coordinate '1e'"),
    ("nan", "nodes 3\n0 0 1\nnan 0 1\n0 1 1\n", "line 3: non-finite x coordinate 'nan'"),
    ("inf", NODES_3 + "0 -inf 1\n", "line 4: non-finite y coordinate '-inf'"),
    ("float_overflow", NODES_3 + "0 1e999 1\n", "line 4: non-finite y coordinate '1e999'"),
    ("flag_2", "nodes 3\n0 0 1\n1 0 2\n0 1 1\n", "line 3: dirichlet flag must be 0 or 1, got 2"),
    ("flag_minus_1", "nodes 3\n0 0 -1\n1 0 1\n0 1 1\n",
     "line 2: dirichlet flag must be 0 or 1, got -1"),
    ("flag_1.0", "nodes 3\n0 0 1\n1 0 1.0\n0 1 1\n", "line 3: invalid dirichlet flag '1.0'"),
    ("node_2_fields", "nodes 3\n0 0 1\n1 0\n0 1 1\n", "line 3: expected 'x y dirichlet_flag'"),
    ("node_4_fields", "nodes 3\n0 0 1\n1 0 1 7\n0 1 1\n",
     "line 3: expected 'x y dirichlet_flag'"),
    ("hash_in_token", "nodes 3\n0 0 1\n1 0#1\n0 1 1\n", "line 3: expected 'x y dirichlet_flag'"),
    ("triangle_2_fields", SQUARE.replace("0 1 2\n", "0 1\n"),
     "line 6: expected three node indices"),
    ("triangle_4_fields", SQUARE.replace("0 1 2\n", "0 1 2 3\n"),
     "line 6: expected three node indices"),
    ("bad_index", SQUARE.replace("0 1 2\n", "0 1 two\n"), "line 6: invalid node index 'two'"),
    ("float_index", SQUARE.replace("0 1 2\n", "0 1 2.0\n"), "line 6: invalid node index '2.0'"),
    # beyond int64: reading by row must not let numpy's OverflowError through
    ("huge_index", SQUARE.replace("0 1 2\n", "0 1 99999999999999999999\n"),
     "line 6: node index '99999999999999999999' out of range"),
    ("huge_negative_index", SQUARE.replace("0 1 2\n", "-9223372036854775809 1 2\n"),
     "line 6: node index '-9223372036854775809' out of range"),
    ("index_2_pow_63", SQUARE.replace("0 1 2\n", "0 9223372036854775808 2\n"),
     "line 6: node index '9223372036854775808' out of range"),
    ("index_out_of_range", SQUARE.replace("0 1 2\n", "0 1 3\n"),
     "triangle references a node index out of range"),
    ("nodes_typo", SQUARE.replace("nodes", "node"), "line 1: expected 'nodes <count>'"),
    ("nodes_no_count", SQUARE.replace("nodes 3", "nodes"), "line 1: expected 'nodes <count>'"),
    ("nodes_bad_count", SQUARE.replace("nodes 3", "nodes three"),
     "line 1: invalid node count 'three'"),
    ("triangles_typo", SQUARE.replace("triangles", "triangle"),
     "line 5: expected 'triangles <count>'"),
    ("triangles_two_counts", SQUARE.replace("triangles 1", "triangles 1 2"),
     "line 5: expected 'triangles <count>'"),
    ("triangles_float_count", SQUARE.replace("triangles 1", "triangles 1.0"),
     "line 5: invalid triangle count '1.0'"),
    ("too_few_nodes", SQUARE.replace("nodes 3", "nodes 4"),
     "line 5: expected 'x y dirichlet_flag'"),
    ("too_many_nodes", SQUARE.replace("nodes 3", "nodes 2"),
     "line 4: expected 'triangles <count>'"),
    ("trailing_content", SQUARE + "0 2 1\n", "line 7: trailing content after triangle list"),
    ("trailing_after_comment", SQUARE + "# end\n\nmore\n",
     "line 9: trailing content after triangle list"),
    ("no_triangle_header", NODES_3 + "0 1 1\n",
     "line 5: unexpected end of file, expected 'triangles <count>'"),
    ("short_triangle_list", SQUARE.replace("triangles 1", "triangles 2"),
     "line 5: unexpected end of file, 2 triangles announced but 1 content line(s) follow"),
    ("empty", "", "line 1: unexpected end of file, expected 'nodes <count>'"),
    ("only_comments", "# a mesh\n\n   # nothing here\n",
     "line 4: unexpected end of file, expected 'nodes <count>'"),
    ("blank_and_comment_lines", "# square\n\nnodes 3  # three\n0 0 1\n\n   # the second\n"
     "1 0 1\n0 1 x\n", "line 8: invalid dirichlet flag 'x'"),
    ("crlf", SQUARE.replace("0 1 1", "0 1 oops").replace("\n", "\r\n"),
     "line 4: invalid dirichlet flag 'oops'"),
    ("lone_cr", SQUARE.replace("0 1 1", "0 1 oops").replace("\n", "\r"),
     "line 4: invalid dirichlet flag 'oops'"),
    # readlines breaks lines at "\n" only, never at "\f", "\v" or "\x1c"-"\x1e"
    ("form_feed_line", "nodes 3\n\f\n0 0 1\n1 0 1\n0 1 x\n", "line 5: invalid dirichlet flag 'x'"),
    ("separators_in_lines", "nodes 3\n0\f0 1\n1\v0 1\n0\x1c1 x\n",
     "line 4: invalid dirichlet flag 'x'"),
    ("separator_lines", "nodes 3\n\x1d\n0 0 1\n\x1e  \n1 0 1\n0 1 x\n",
     "line 6: invalid dirichlet flag 'x'"),
    ("nul", "nodes 3\n0 0 1\n1 0 1\x00\n0 1 1\n", "line 3: invalid dirichlet flag '1\\x00'"),
    ("no_final_newline", SQUARE.replace("0 1 2\n", "0 1"), "line 6: expected three node indices"),
]


def bulk_only():
    """Make reading rows one at a time fail, so every section must be read in bulk."""
    walked = AssertionError("walked")
    return mock.patch.multiple(mesh, _node_rows=mock.Mock(side_effect=walked),
                               _triangle_rows=mock.Mock(side_effect=walked))


class TestBulkParse:
    @pytest.mark.parametrize("body, message", [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_malformed_file_message(self, tmp_path, body, message):
        path = tmp_path / "bad.mesh"
        path.write_bytes(body.encode("ascii"))
        with pytest.raises(MeshError) as err:
            load_mesh(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("pad, newline",
                             [(0, "\n"), (2000, "\n"), (2000, "\r\n"), (2000, "\r")],
                             ids=["short", "long", "long_crlf", "long_cr"])
    def test_non_ascii_byte_names_its_line(self, tmp_path, pad, newline):
        # a text read decodes 8 KB at a time, so its own offset would count
        # from the chunk; the line counts from the file's start
        body = "# pad\n" * pad + NODES_3 + "0 1 1  # \u00e9\ntriangles 1\n0 1 2\n"
        path = tmp_path / "accent.mesh"
        path.write_bytes(body.replace("\n", newline).encode("utf-8"))
        assert (path.stat().st_size > 8192) == (pad > 0)
        with pytest.raises(MeshError) as err:
            load_mesh(path)
        assert str(err.value) == f"line {pad + 4}: non-ASCII byte 0xc3"

    @pytest.mark.parametrize("body", [
        "# unit triangle\n\nnodes 3  # count\n0 0 1\n  # inner comment\n1 0 1\n\f\n0 1 1\n"
        "triangles 1\n\n0 1 2   # last\n# end\n\n",
        SQUARE,
        SQUARE.replace("\n", "\r\n"),
        SQUARE.replace("\n", "\r"),
        SQUARE.replace("0 0 1", "0\t0\f1").replace("0 1 2", "\v0\x1c1 2 "),
        SQUARE.rstrip("\n"),
        SQUARE + "# no final newline",
    ], ids=["comments", "lf", "crlf", "lone_cr", "separators", "no_final_newline",
            "final_comment"])
    def test_irregular_layout_parsed_in_bulk(self, tmp_path, body):
        path = tmp_path / "tri.mesh"
        path.write_bytes(body.encode("ascii"))
        plain = tmp_path / "plain.mesh"
        plain.write_text(SQUARE)
        with bulk_only():
            tri = load_mesh(path)
        assert mesh_arrays_equal(tri, load_mesh(plain))

    def test_digit_separators_fall_back_to_row_reading(self, tmp_path):
        # float() and int() accept "0_1"; loadtxt does not
        path = tmp_path / "underscores.mesh"
        path.write_text(SQUARE.replace("1 0 1", "0_1 0 1").replace("0 1 2", "0 0_1 2"))
        plain = tmp_path / "plain.mesh"
        plain.write_text(SQUARE)
        with pytest.raises(AssertionError, match="walked"), bulk_only():
            load_mesh(path)
        assert mesh_arrays_equal(load_mesh(path), load_mesh(plain))

    def test_only_the_section_loadtxt_cannot_read_is_read_by_row(self, tmp_path):
        # the node rows are read in bulk; only the triangle rows, which
        # hold a digit separator, are read one at a time
        path = tmp_path / "underscores.mesh"
        path.write_text(SQUARE.replace("0 1 2", "0 0_1 2"))
        plain = tmp_path / "plain.mesh"
        plain.write_text(SQUARE)
        node_rows = mock.Mock(side_effect=AssertionError("walked"))
        triangle_rows = mock.Mock(wraps=mesh._triangle_rows)
        with mock.patch.multiple(mesh, _node_rows=node_rows, _triangle_rows=triangle_rows):
            tri = load_mesh(path)
        assert triangle_rows.call_count == 1
        assert mesh_arrays_equal(tri, load_mesh(plain))

    def test_whitespace_mask_matches_str_isspace(self):
        expected = [not chr(c).isspace() for c in range(128)]
        assert [bool(b) for b in bytes(range(128)).translate(mesh._NON_BLANK)] == expected

    @settings(max_examples=40, deadline=None)
    @given(refinement=st.integers(1, 3), data=st.data())
    def test_round_trip_with_comments_and_blank_lines(self, refinement, data):
        tri = perturbed_disk(refinement, seed=refinement) if refinement > 1 else \
            generate_disk_mesh(1)
        filler = st.sampled_from(["\n", "   \n", "\t\f\n", "\x1c\n", "# note\n",
                                  "  # nodes 3\n", "#\n"])
        suffix = st.sampled_from(["", " ", "\t", "  # x y flag", "#0 0 1"])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "disk.mesh"
            save_mesh(tri, path)
            lines = path.read_text().splitlines()
            out = []
            for line in lines:
                out.extend(data.draw(st.lists(filler, max_size=2)))
                out.append(line + data.draw(suffix) + "\n")
            out.extend(data.draw(st.lists(filler, max_size=2)))
            path.write_text("".join(out))
            with bulk_only():
                back = load_mesh(path)
        assert mesh_arrays_equal(back, tri)

    @settings(max_examples=200, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 2),
                                    st.sampled_from("0123456789.-+e_n#\n \t\f\x1c\x00xi")),
                          min_size=1, max_size=4))
    def test_bulk_result_is_the_row_by_row_result(self, edits):
        # whenever a section of a corrupted file is read in bulk, reading
        # its rows one at a time accepts them too and gives the same arrays
        text = SQUARE.replace("triangles 1\n0 1 2\n", "0.5 0.5 0\ntriangles 3\n0 1 3\n1 2 3\n"
                              "2 0 3\n").replace("nodes 3", "nodes 4")
        for at, drop, char in edits:
            at = at % (len(text) + 1)
            text = text[:at] + char + text[at + drop:]
        lines = mesh._split_lines(text)
        content = mesh._content_lines(text)
        # the rows below each header of the uncorrupted layout
        for read, by_row, rows in [(mesh._read_nodes, "_node_rows", content[1:5]),
                                   (mesh._read_triangles, "_triangle_rows", content[6:9])]:
            with bulk_only():
                try:
                    got = read(lines, rows)
                except AssertionError:
                    continue  # not read in bulk
            expected = getattr(mesh, by_row)(lines, rows)
            for a, b in zip(*(r if isinstance(r, tuple) else (r,) for r in (got, expected))):
                assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


class TestDirichletMask:
    NODES = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    BOW_TIE = [(0, 1, 2), (0, 3, 4)]  # two triangles sharing only node 0

    @pytest.mark.parametrize("dirichlet", [{0, 1}, [0, 1], [1, 1, 0, 0, 0],
                                           np.ones(4, dtype=bool)],
                             ids=["index_set", "index_list", "int_flags", "short_mask"])
    def test_only_a_boolean_mask_over_the_nodes(self, dirichlet):
        with pytest.raises(MeshError, match="boolean mask over the 5 nodes"):
            Triangulation(self.NODES, self.BOW_TIE, dirichlet)

    def test_parts_joined_at_a_vertex_share_its_dirichlet_node(self):
        # node 1 holds the first triangle, and through node 0 the second
        mask = np.array([False, True, False, False, False])
        tri = Triangulation(self.NODES, self.BOW_TIE, mask)
        ops = assemble(tri, f=1.0)
        y = ops.solve_stiffness(ops.f_h)
        assert tri.n_free == 4 and np.all(np.isfinite(y))

    def test_each_loose_part_is_named_by_its_first_node(self):
        # three disjoint triangles, only the middle one held
        nodes = [(3.0 * k + x, y) for k in range(3) for x, y in ((0, 0), (1, 0), (0, 1))]
        mask = np.zeros(9, dtype=bool)
        mask[3:6] = True
        with pytest.raises(MeshError, match="containing node 0 has"):
            Triangulation(nodes, [(0, 1, 2), (3, 4, 5), (6, 7, 8)], mask)
        mask[:3] = True
        with pytest.raises(MeshError, match="containing node 6 has"):
            Triangulation(nodes, [(0, 1, 2), (3, 4, 5), (6, 7, 8)], mask)


class TestNodeIndices:
    NODES = [(0, 0), (1, 0), (0, 1), (1, 1)]
    MASK = np.array([True, True, True, False])

    @pytest.mark.parametrize("bad, shown", [(1.7, "1.7"), (float("nan"), "nan"),
                                            (float("inf"), "inf"), (2 ** 70, str(2 ** 70)),
                                            ("2", "'2'"), (2.0, "2.0"), (True, "True")],
                             ids=["fraction", "nan", "inf", "beyond_int64", "text",
                                  "integral_float", "bool"])
    def test_non_integer_node_index_named(self, bad, shown):
        # a cast alone would truncate 1.7, parse '2' and read True as node 1;
        # an integral float is rejected too, as report.check_count and
        # load_mesh reject one
        message = f"node index {shown} is not an int64 integer"
        with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
            Triangulation(self.NODES, [(0, 1, 2), (1, bad, 2)], self.MASK)

    def test_integer_inputs_accepted(self):
        expected = np.array([(0, 1, 2), (1, 3, 2)])
        for triangles in (expected.tolist(), expected.astype(np.int32),
                          expected.astype(np.uint64), expected.astype(object)):
            tri = Triangulation(self.NODES, triangles, self.MASK)
            assert tri.triangles.dtype == np.int64
            np.testing.assert_array_equal(tri.triangles, expected)


class TestNodeCoordinates:
    TRIANGLES = [(0, 1, 2), (1, 3, 2)]
    MASK = np.array([True, True, True, False])

    @pytest.mark.parametrize("nodes, shown", [
        ([(0, 0), (1, 0), ("0", "1"), (1, 1)], "'0'"),
        ([(0.0, 0.0), (1.0, 0.0), (0.0, True), (1.0, 1.0)], "True"),
        (np.array([(0, 0), (1, 0), (0, 1), (1, 1)], dtype=bool), "False"),
    ], ids=["text", "bool_among_floats", "bool_array"])
    def test_non_real_coordinate_named(self, nodes, shown):
        # a cast to float would parse the text and read a bool as 0 or 1
        message = f"node coordinate {shown} is not a real number"
        with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
            Triangulation(nodes, self.TRIANGLES, self.MASK)

    def test_real_inputs_accepted(self):
        expected = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        for nodes in (expected.tolist(), expected.astype(int).tolist(),
                      expected.astype(np.float32), expected.astype(object)):
            tri = Triangulation(nodes, self.TRIANGLES, self.MASK)
            assert tri.nodes.dtype == np.float64
            np.testing.assert_array_equal(tri.nodes, expected)


class TestRaggedRows:
    NODES = [(0, 0), (1, 0), (0, 1), (1, 1)]
    TRIANGLES = [(0, 1, 2), (1, 3, 2)]
    MASK = np.array([True, True, True, False])

    @pytest.mark.parametrize("nodes, triangles, message", [
        ([(0, 0), (1, 0), (0, 1, 5), (1, 1)], TRIANGLES, "node 2 is (0, 1, 5), not 2 coordinates"),
        (NODES, [(0, 1, 2), (1, 3)], "triangle 1 is (1, 3), not 3 node indices"),
        (NODES, [(0, 1, 2), (1, (3, 2), 2)],
         "triangle 1 is (1, (3, 2), 2), not 3 node indices"),
    ], ids=["nodes", "triangles", "nested"])
    def test_ragged_row_named(self, nodes, triangles, message):
        # numpy alone raises a bare ValueError about an inhomogeneous shape
        with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
            Triangulation(nodes, triangles, self.MASK)


class TestConformity:
    def test_repeated_directed_edge_rejected(self):
        nodes = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        # both triangles traverse edge (0, 1) in the same direction
        with pytest.raises(MeshError, match="non-conforming"):
            Triangulation(nodes, [(0, 1, 2), (0, 1, 3)], np.array([True, True, False, False]))

    @pytest.mark.parametrize("where", ["deep", "first_key", "last_key"])
    def test_repeated_edge_deep_in_large_mesh_named(self, where):
        disk = generate_disk_mesh(40)
        triangles = np.array(disk.triangles)
        n_t = triangles.shape[0]
        # key a n + b of each triangle's directed edges (a, b)
        keys = triangles * disk.n_nodes + np.roll(triangles, -1, axis=1)
        # an extra copy of triangle k, inserted at row ``at``
        k, at = {
            "deep": (n_t // 2, 3 * (n_t // 2) // 2),  # after 3/4 of the list
            # the copy repeats the smallest key, the first once sorted
            "first_key": (int(keys.min(axis=1).argmin()), n_t),
            # the copy repeats the largest key, the last once sorted
            "last_key": (int(keys.max(axis=1).argmax()), 0),
        }[where]
        corrupted = np.insert(triangles, at, triangles[k], axis=0)
        a, b = reference_repeated_edge(corrupted)
        assert (a, b) == tuple(int(v) for v in triangles[k][:2])
        with pytest.raises(MeshError, match=rf"directed edge \({a}, {b}\) repeated"):
            Triangulation(disk.nodes, corrupted, disk.is_dirichlet)

    # Two triangles on one side of their shared edge, the one named
    # clockwise; the nodes are numbered so that the edge it repeats once
    # reoriented has the smallest or the largest key.
    FOLDS = {
        "smallest_key": ([(0, 0), (2, 0), (1, 1), (1, 0.5)], [(1, 0, 3), (0, 1, 2)], 0),
        "largest_key": ([(1, 1), (1, 0.5), (2, 0), (0, 0)], [(3, 2, 0), (2, 3, 1)], 1),
    }

    @pytest.mark.parametrize("fold", ["jiggled_disk", *FOLDS])
    def test_folded_triangle_named_as_inverted(self, fold):
        if fold == "jiggled_disk":
            # this jiggle folds triangle 17 over a neighbour
            base = generate_disk_mesh(6)
            nodes = jiggled_disk_nodes(base, 6, 0.28125, seed=9215)
            triangles, mask, named = base.triangles, base.is_dirichlet, 17
        else:
            nodes, triangles, named = self.FOLDS[fold]
            mask = np.ones(4, dtype=bool)
        message = f"invariant violated: inverted (clockwise) triangle {named} folds over a neighbour"
        with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
            Triangulation(nodes, triangles, mask)
        p = np.asarray(nodes, dtype=float)[np.asarray(triangles)[named]]
        u, v = p[1] - p[0], p[2] - p[0]
        assert u[0] * v[1] - u[1] * v[0] < 0.0

    def test_repeated_edge_of_clockwise_file_not_called_inverted(self):
        # both triangles are clockwise, so reorienting them is no fold
        nodes = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        with pytest.raises(MeshError, match=r"directed edge \(0, 1\) repeated"):
            Triangulation(nodes, [(0, 2, 1), (0, 3, 1)], np.array([True, True, False, False]))

    def test_shared_edges_have_both_orientations(self):
        tri = generate_disk_mesh(3)
        edges = {}
        for a, b, c in tri.triangles:
            for e in ((a, b), (b, c), (c, a)):
                edges[e] = edges.get(e, 0) + 1
        assert all(count == 1 for count in edges.values())
        interior = [e for e in edges if (e[1], e[0]) in edges]
        assert len(interior) > 0

    def test_repeated_vertex_rejected(self):
        # a repeated vertex, in any two places, gives an area of exactly 0
        # and is named as a degenerate triangle with its index
        nodes = [(0, 0), (1, 0), (0, 1), (1, 1)]
        for second in [(1, 3, 3), (3, 1, 3), (1, 1, 3)]:
            with pytest.raises(MeshError, match=r"degenerate \(non-positive area\) triangle 1$"):
                Triangulation(nodes, [(0, 1, 2), second], np.array([True, True, True, False]))
