import re

import numpy as np
import pytest

from conftest import jiggled_disk_nodes, perturbed_disk
from ductflow.mesh import MeshError, Triangulation, generate_disk_mesh, load_mesh, save_mesh


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
        tri = generate_disk_mesh(3)
        sums = tri.grad_phi.sum(axis=1)
        scale = np.abs(tri.grad_phi).max()
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


class TestTriangleGeometry:
    def unit_right_triangle(self, shift=(0.0, 0.0), scale=1.0):
        base = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        return Triangulation(scale * base + np.asarray(shift), [(0, 1, 2)], {0, 1, 2})

    def test_reference_element(self):
        tri = self.unit_right_triangle()
        assert tri.areas[0] == pytest.approx(0.5, abs=1e-15)
        expected = np.array([(-1.0, -1.0), (1.0, 0.0), (0.0, 1.0)])
        np.testing.assert_allclose(tri.grad_phi[0], expected, atol=1e-14)

    def test_translation_invariance(self):
        base = self.unit_right_triangle()
        moved = self.unit_right_triangle(shift=(3.7, -1.2))
        assert moved.areas[0] == pytest.approx(base.areas[0], rel=1e-14)
        np.testing.assert_allclose(moved.grad_phi[0], base.grad_phi[0], atol=1e-13)

    def test_scaling_law(self):
        base = self.unit_right_triangle()
        scaled = self.unit_right_triangle(scale=2.0)
        assert scaled.areas[0] == pytest.approx(4.0 * base.areas[0], rel=1e-14)
        np.testing.assert_allclose(scaled.grad_phi[0], 0.5 * base.grad_phi[0], atol=1e-14)


class TestLoadSave:
    def test_round_trip_bit_identical(self, tmp_path):
        tri = generate_disk_mesh(3)
        path = tmp_path / "disk.mesh"
        save_mesh(tri, path)
        back = load_mesh(path)
        assert np.array_equal(back.nodes, tri.nodes)
        assert np.array_equal(back.triangles, tri.triangles)
        assert np.array_equal(back.is_dirichlet, tri.is_dirichlet)

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
        with pytest.raises(MeshError, match="Dirichlet"):
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


class TestConformity:
    def test_repeated_directed_edge_rejected(self):
        nodes = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        # both triangles traverse edge (0, 1) in the same direction
        with pytest.raises(MeshError, match="non-conforming"):
            Triangulation(nodes, [(0, 1, 2), (0, 1, 3)], {0, 1})

    def test_repeated_edge_deep_in_large_mesh_named(self):
        disk = generate_disk_mesh(40)
        triangles = np.array(disk.triangles)
        k = triangles.shape[0] // 2
        # an extra copy of triangle k, inserted after 3/4 of the list
        corrupted = np.insert(triangles, 3 * k // 2, triangles[k], axis=0)
        a, b = reference_repeated_edge(corrupted)
        assert (a, b) == tuple(int(v) for v in triangles[k][:2])
        with pytest.raises(MeshError, match=rf"directed edge \({a}, {b}\) repeated"):
            Triangulation(disk.nodes, corrupted, disk.is_dirichlet)

    def test_folded_triangle_named_as_inverted(self):
        # this jiggle folds one triangle over a neighbour
        base = generate_disk_mesh(6)
        nodes = jiggled_disk_nodes(base, 6, 0.28125, seed=9215)
        with pytest.raises(MeshError, match=r"inverted \(clockwise\) triangle \d+") as err:
            perturbed_disk(6, 0.28125, seed=9215)
        named = int(re.search(r"triangle (\d+)", str(err.value)).group(1))
        p = nodes[base.triangles[named]]
        u, v = p[1] - p[0], p[2] - p[0]
        assert u[0] * v[1] - u[1] * v[0] < 0.0

    def test_repeated_edge_of_clockwise_file_not_called_inverted(self):
        # both triangles are clockwise, so reorienting them is no fold
        nodes = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        with pytest.raises(MeshError, match=r"directed edge \(0, 1\) repeated"):
            Triangulation(nodes, [(0, 2, 1), (0, 3, 1)], {0, 1})

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
        with pytest.raises(MeshError, match="repeated"):
            Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 1)], {0})
