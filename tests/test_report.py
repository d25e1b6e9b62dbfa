"""The count rule and the positive-finite rule, through every setting they check."""

import re

import numpy as np
import pytest

from ductflow import Alg2Config, FluidParams, TrsConfig, generate_disk_mesh, generate_square_mesh

NAN, INF = float("nan"), float("inf")

# (setting's owner, setting, out-of-range value); the generators take the
# refinement positionally
BAD_SETTINGS = [
    *[(TrsConfig, name, value) for name, value in
      [("abstol", NAN), ("reltol", 0.0), ("max_outer", 2.5)]],
    *[(Alg2Config, name, value) for name, value in
      [("r", INF), ("abstol", -1.0), ("reltol", NAN), ("newton_abstol", 0.0),
       ("newton_reltol", "1e-8"), ("max_outer", 0)]],
    *[(FluidParams, "kappa", value) for value in (0.0, -INF, NAN, "1")],
    # a fractional refinement is rejected, not truncated to the integer
    # below it
    *[(generate, "refinement", value) for generate in (generate_disk_mesh, generate_square_mesh)
      for value in (0, -1, 2.5, 3.9, INF, "3")],
]


def build(owner, name, value):
    if owner is FluidParams:
        return FluidParams(alpha=2.0, kappa=value)
    if name == "refinement":
        return owner(value)
    return owner(**{"abstol": 1e-4, name: value})


@pytest.mark.parametrize("owner, name, value", BAD_SETTINGS,
                         ids=[f"{owner.__name__}-{name}-{value!r}"
                              for owner, name, value in BAD_SETTINGS])
def test_out_of_range_setting_is_rejected_by_name(owner, name, value):
    rule = "at least 1 and an integer" if name in ("max_outer", "refinement") else \
        "positive and finite"
    message = f"{name} must be {rule}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(owner, name, value)


def test_numpy_integer_counts_accepted():
    assert TrsConfig(abstol=1e-4, max_outer=np.int64(3)).max_outer == 3
    for generate, n in ((generate_disk_mesh, 3), (generate_square_mesh, 4)):
        expected, tri = generate(n), generate(np.int64(n))
        assert np.array_equal(tri.nodes, expected.nodes)
        assert np.array_equal(tri.triangles, expected.triangles)
        assert np.array_equal(tri.is_dirichlet, expected.is_dirichlet)
