"""Discrete operators of the P1-P0 pair on a triangulation.

The stress is piecewise constant (two components per triangle, stacked as
``tau[2k:2k+2]``), the velocity piecewise linear on free nodes.  The
constraint matrix ``D`` has entry ``|T_k| * (grad phi_j)_c`` in row
``free_index[j]`` and column ``2k + c``: half the edge of ``T_k`` opposite
node ``j`` turned by 90 degrees, formed without areas.  ``D @ tau = f_h``
is the discrete momentum balance, and ``D @ tau`` evaluates ``(tau, grad
phi_j)`` exactly (the integrands are piecewise constant, no quadrature error).

``A`` (``area2``) is the diagonal holding each triangle's area once per
stress component; ``D A^-1 D^T`` coincides with the standard P1
stiffness matrix on free nodes and ``A^-1 D^T`` is the discrete
gradient.  Both SPD matrices, ``D D^T`` and ``D A^-1 D^T``, are
factorised once, by one helper in SuperLU's symmetric mode
(minimum-degree ordering on ``M + M^T``, diagonal pivots), and reused
by every solver iteration.  Both are symmetric bit for bit (the
stiffness is averaged with its transpose, which evens out the 1-ulp
rounding differences of the triple product on non-uniform meshes), so
the transposed factors solve the same system.  Every solve goes through
them: with scipy 1.17 on a shared 2-vCPU host, the ``trans="T"`` solve
was measured 10-36 % faster per call than the default on meshes of 397
to 16,129 unknowns and 8-16 % faster at 42,841 (disk:120), with the
same iterates.  ``D^T`` is likewise built once, as the CSR
matrix ``DT``: ``D.T`` of a CSR matrix is a new CSC object on every
access, and its products equal those of ``DT`` bit for bit.

The force density is a finite constant.  A mesh with no free node needs
no special case: its ``0 x 0`` matrices factorise and solve to empty arrays.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .mesh import Triangulation


class FactorizationError(RuntimeError):
    """SPD factorisation failed, i.e. an operator is rank deficient."""


class DiscreteOperators:
    """Assembled matrices, load vector and factorisations for one mesh.

    Instances are immutable after assembly and every method is a
    read-only solve or product, so one operator set can serve any number
    of concurrent solver runs.

    Parameters
    ----------
    tri : Triangulation
    f : float
        Constant force density, finite; the load vector's vertex
        quadrature ``|T|/3`` per corner is exact for it.
    """

    def __init__(self, tri: Triangulation, f=1.0):
        self.tri = tri
        self.area2 = np.repeat(tri.areas, 2)
        self.D = _constraint_matrix(tri)
        self.DT = self.D.T.tocsr()
        self.f_h = _load_vector(tri, f)

        # D diag(1/A) D^T rounds differently on either side of the diagonal
        # where triangle areas differ; the average is symmetric bit for bit
        stiffness = self.D @ sp.diags(1.0 / self.area2) @ self.DT
        try:
            self._solve_gram = _factor_spd(self.D @ self.DT)
            self._solve_stiffness = _factor_spd((stiffness + stiffness.T) * 0.5)
        except RuntimeError as exc:
            raise FactorizationError(
                f"factorisation of D*D^T / D*A^-1*D^T failed ({exc}); "
                "constraint matrix is rank deficient"
            ) from exc

        self.n_free = tri.n_free
        self.n_stress = 2 * tri.n_triangles
        self.area2.flags.writeable = False
        self.f_h.flags.writeable = False

    def rounding_floor(self) -> float:
        """``1e-12 (1 + max |f_h|)``: a velocity or an increment below it is rounding noise."""
        return 1e-12 * (1.0 + float(np.abs(self.f_h).max(initial=0.0)))

    # -- SPD solves ------------------------------------------------------

    def solve_ddt(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(D D^T) x = rhs``."""
        return self._solve_gram(np.asarray(rhs, dtype=float))

    def solve_stiffness(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(D A^-1 D^T) x = rhs`` (discrete Laplacian solve)."""
        return self._solve_stiffness(np.asarray(rhs, dtype=float))

    # -- projections and recovery ----------------------------------------

    def project_feasible(self, tau: np.ndarray) -> np.ndarray:
        """Project onto the momentum manifold ``{tau : D tau = f_h}``.

        Returns ``tau - A^-1 D^T (D A^-1 D^T)^-1 (D tau - f_h)``.
        """
        tau = np.asarray(tau, dtype=float)
        defect = self.D @ tau - self.f_h
        return tau - (self.DT @ self.solve_stiffness(defect)) / self.area2

    def recover_velocity(self, grad: np.ndarray) -> np.ndarray:
        """Least-squares multiplier ``y = (D D^T)^-1 D grad``.

        Minimises ``|grad - D^T y|^2`` over nodal velocities.
        """
        return self.solve_ddt(self.D @ np.asarray(grad, dtype=float))

    def project_nullspace(self, v: np.ndarray) -> np.ndarray:
        """Euclidean projection onto ``null(D)``: ``v - D^T (D D^T)^-1 D v``.

        The difference is taken in the array the product ``D^T x``
        returned, so the result is a fresh array and ``v`` is not written.
        """
        v = np.asarray(v, dtype=float)
        projected = self.DT @ self.solve_ddt(self.D @ v)
        return np.subtract(v, projected, out=projected)

    def velocity_gradient(self, y: np.ndarray) -> np.ndarray:
        """Per-triangle gradient of a P1 velocity field: ``A^-1 D^T y``."""
        return (self.DT @ np.asarray(y, dtype=float)) / self.area2

    def momentum_residual(self, tau: np.ndarray) -> float:
        """``max |D tau - f_h|``, the feasibility defect."""
        return float(np.abs(self.D @ tau - self.f_h).max(initial=0.0))


def assemble(tri: Triangulation, f=1.0) -> DiscreteOperators:
    """Assemble all discrete operators for ``tri`` with constant force density ``f``."""
    return DiscreteOperators(tri, f)


def _factor_spd(matrix):
    """Factorise an SPD matrix in SuperLU's symmetric mode; return its solve.

    The solve is bound to the transposed factors, ``trans="T"``, which
    solve ``matrix^T x = b``: the system ``matrix x = b`` only because
    ``matrix`` is symmetric bit for bit, as both callers build it.  The
    transposed path is chosen because it was measured faster per call
    (module docstring); why SuperLU's is faster was not examined.
    """
    lu = splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    return partial(lu.solve, trans="T")


def _constraint_matrix(tri: Triangulation) -> sp.csr_matrix:
    free = tri.free_index[tri.triangles]  # (n_T, 3)
    keep = free >= 0
    k = np.nonzero(keep)[0]  # the triangle of each free corner
    rows, cols = np.tile(free[keep], 2), np.concatenate([2 * k, 2 * k + 1])
    vals = np.concatenate([part[keep] for part in _half_rotated_edges(tri)])
    return sp.coo_matrix((vals, (rows, cols)), shape=(tri.n_free, 2 * tri.n_triangles)).tocsr()


def _half_rotated_edges(tri: Triangulation):
    """``|T| grad phi_i`` at corner ``i`` of each triangle, as ``(x, y)`` parts of shape
    ``(n_T, 3)``: half the opposite edge ``p_{i+2} - p_{i+1}``, ``perp(vx, vy) = (-vy, vx)``."""
    x, y = tri.nodes.T
    tail, head = tri.triangles[:, [1, 2, 0]], tri.triangles[:, [2, 0, 1]]
    return -0.5 * (y[head] - y[tail]), 0.5 * (x[head] - x[tail])


def _load_vector(tri: Triangulation, f) -> np.ndarray:
    f = float(f)
    if not np.isfinite(f):
        raise ValueError("force density must be finite")
    full = np.zeros(tri.n_nodes)
    np.add.at(full, tri.triangles, (tri.areas / 3.0 * f)[:, None])
    return full[tri.free_nodes]
