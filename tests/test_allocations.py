"""Allocation pins for the kernels that work in place.

``objective.hessian``, ``objective.hessian_apply`` and ALG2's alpha = 7/4
closed form ``_seven_quarters_magnitudes`` form their results through a
few work arrays.  Their plain-expression forms compute the same values
but allocate more, and the closed form's is about twice as slow (ROADMAP
item 9, "Measured and not taken").  ``tracemalloc`` traces numpy's data
buffers, so a rewrite that forms fresh temporaries raises the traced
peak past its bound here.

Peaks are counted in arrays of ``N`` doubles, at the 86,400 triangles of
disk:120.  Each bound is the peak of the in-place kernel plus half an
array: 3.13 for the closed form, 7.0 for ``hessian`` and 3.0 for
``hessian_apply``.  Written as plain whole-array expressions (for
``hessian``, as ``oracles.reference_hessian``), the three peak at 10.1,
8.0 and 4.0.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ductflow.augmented_lagrangian import _seven_quarters_magnitudes
from ductflow.objective import FluidParams, _norms_and_excess, hessian, hessian_apply

N = 86_400


def traced_peak(call):
    """Peak memory traced while ``call()`` runs, in arrays of ``N`` doubles."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / (8 * N)
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="module")
def stress(rng):
    """A stress field, the parameters it is yielded at in part, and a
    stand-in ``ops`` carrying only the triangle areas ``hessian`` reads."""
    params = FluidParams(alpha=1.5, kappa=1.0, tau0=0.3)
    ops = SimpleNamespace(tri=SimpleNamespace(areas=0.5 + rng.random(N)))
    tau = rng.standard_normal(2 * N)
    return params, ops, tau, _norms_and_excess(tau, params.tau0)


def test_seven_quarters_closed_form(rng):
    # every beta = 1e3 rhs lies in the closed form's range; rhs = 0 on a
    # fifth of the elements, as below the yield stress
    rhs = np.maximum(rng.random(N) - 0.2, 0.0)
    assert traced_peak(lambda: _seven_quarters_magnitudes(1.0, 10.0, rhs)) <= 3.13 + 0.5


def test_hessian(stress):
    params, ops, tau, norms_excess = stress
    assert norms_excess[2].any() and not norms_excess[2].all()
    assert traced_peak(lambda: hessian(params, ops, tau, norms_excess)) <= 7.0 + 0.5


def test_hessian_apply(stress):
    params, ops, tau, norms_excess = stress
    h = hessian(params, ops, tau, norms_excess)
    assert traced_peak(lambda: hessian_apply(h, tau)) <= 3.0 + 0.5
