import numpy as np
import pytest
from hypothesis import settings

from ductflow.fem import assemble
from ductflow.mesh import Triangulation, generate_disk_mesh

# Hypothesis profiles, chosen with --hypothesis-profile.  Only tests whose
# @settings leave max_examples out (the TRS property test
# test_result_describes_one_iterate) take it from the profile: "default"
# keeps tier-1 fast, "ci" draws more meshes and parameters.
settings.register_profile("default", max_examples=60)
settings.register_profile("ci", max_examples=500)


@pytest.fixture
def square_two_triangles():
    """Unit square split along the diagonal; only node (1,1) is free."""
    nodes = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    triangles = [(0, 1, 2), (0, 2, 3)]
    return Triangulation(nodes, triangles, np.array([True, True, False, True]))


@pytest.fixture
def square_center_mesh():
    """Unit square with its centre as the only free node, 4 triangles."""
    nodes = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]
    triangles = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    return Triangulation(nodes, triangles, np.array([True, True, True, True, False]))


@pytest.fixture
def disk2_ops():
    return assemble(generate_disk_mesh(2), f=1.0)


@pytest.fixture
def disk3_ops():
    return assemble(generate_disk_mesh(3), f=1.0)
