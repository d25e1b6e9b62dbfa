"""The yield-limit oracle: a linear program brackets the discrete critical
yield stress, the smallest ``tau0`` at which the flow is arrested."""

import math

import numpy as np
import pytest

from ductflow.augmented_lagrangian import solve_alg2
from ductflow.experiments import ARRESTED_VELOCITY_BOUND
from ductflow.fem import assemble
from ductflow.mesh import generate_disk_mesh, generate_square_mesh
from ductflow.objective import FluidParams
from ductflow.trust_region import solve_trs
from oracles import yield_limit_bracket

# Critical yield stress at f = 1 of the continuous problem: the square
# [-1, 1]^2 (its Cheeger constant's inverse) and the unit disk.
SQUARE_LIMIT = 2.0 / (2.0 + math.sqrt(math.pi))
DISK_LIMIT = 0.5

MESHES = {"square:4": (generate_square_mesh, 4, SQUARE_LIMIT),
          "square:8": (generate_square_mesh, 8, SQUARE_LIMIT),
          "disk:4": (generate_disk_mesh, 4, DISK_LIMIT),
          "disk:6": (generate_disk_mesh, 6, DISK_LIMIT)}


def bracket(name, f=1.0):
    make, n, _ = MESHES[name]
    return yield_limit_bracket(assemble(make(n), f=f))


@pytest.mark.parametrize("name", MESHES)
def test_below_the_continuous_limit(name):
    # by duality the limit is the largest ratio f_h.v / sum |T_k| |grad v_k|
    # over P1 velocities v, which are continuous velocities too, so the
    # discrete limit lies below the continuous one on every mesh
    lower, upper = bracket(name)
    assert 0.0 < lower <= upper <= MESHES[name][2]


def test_does_not_fall_on_nested_refinement():
    # the 8 x 8 grid refines the 4 x 4 one, so its P1 velocities include
    # the coarser ones and the largest ratio cannot fall
    assert bracket("square:4")[1] <= bracket("square:8")[0]


@pytest.mark.parametrize("name", ["square:4", "disk:4"])
def test_linear_in_the_force(name):
    lower, upper = bracket(name)
    lower_2f, upper_2f = bracket(name, f=2.0)
    assert lower_2f == pytest.approx(2.0 * lower, rel=1e-9)
    assert upper_2f == pytest.approx(2.0 * upper, rel=1e-9)


def test_alg2_arrests_the_flow_above_the_limit():
    ops = assemble(generate_square_mesh(8), f=1.0)
    _, upper = yield_limit_bracket(ops)
    params = FluidParams(alpha=2.0, kappa=1.0, tau0=1.05 * upper)
    y, _, _, report = solve_alg2(params, ops)
    assert report.converged
    assert float(np.abs(y).max()) <= ARRESTED_VELOCITY_BOUND


@pytest.mark.parametrize("name", ["square:8", "disk:6"])
def test_both_solvers_flow_below_the_limit(name):
    # 5 % below the bracket's lower end the flow is not arrested; max|y|
    # is about 6.4e-3 on square:8 and 4.1e-3 on disk:6, far above the
    # bound.  At alpha = 1.5 ALG2 runs to its cap on square:8 instead.
    make, n, _ = MESHES[name]
    ops = assemble(make(n), f=1.0)
    lower, _ = yield_limit_bracket(ops)
    params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.95 * lower)
    _, y_trs, trs = solve_trs(params, ops)
    y_alg2, _, _, alg2 = solve_alg2(params, ops)
    assert trs.converged and alg2.converged
    assert float(np.abs(y_trs).max()) > ARRESTED_VELOCITY_BOUND
    assert float(np.abs(y_alg2).max()) > ARRESTED_VELOCITY_BOUND
