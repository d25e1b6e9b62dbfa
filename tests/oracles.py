"""Plain helpers shared by the package tests: dense oracles, finite
differences and randomised inputs.  Fixtures live in ``conftest.py``."""

import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, hstack, identity, kron

from ductflow.mesh import Triangulation, generate_disk_mesh, generate_square_mesh


def jiggled_disk_nodes(base, refinement, amplitude, seed):
    """Nodes of ``base`` with the interior ones moved by up to ``amplitude / refinement``."""
    rng = np.random.default_rng(seed)
    nodes = base.nodes.copy()
    interior = ~base.is_dirichlet
    jiggle = (amplitude / refinement) * (2.0 * rng.random((int(interior.sum()), 2)) - 1.0)
    nodes[interior] += jiggle
    return nodes


def perturbed_disk(refinement, amplitude=0.25, seed=0):
    """Disk mesh with interior nodes jiggled off the symmetric pattern."""
    base = generate_disk_mesh(refinement)
    nodes = jiggled_disk_nodes(base, refinement, amplitude, seed)
    return Triangulation(nodes, base.triangles, base.is_dirichlet)


def jittered_square(n, amplitude=0.25, seed=0):
    """``n x n`` square mesh with interior nodes jiggled off the grid."""
    base = generate_square_mesh(n)
    nodes = jiggled_disk_nodes(base, n, amplitude, seed)
    return Triangulation(nodes, base.triangles, base.is_dirichlet)


def graded_square(n):
    """``n x n`` square mesh on Chebyshev-Lobatto nodes ``-cos(pi (x + 1) / 2)``.

    The map fixes -1 and 1 exactly, so the rim stays on the square's
    sides; the triangles grow from the rim to the centre, by an area
    ratio of 25 on 8^2 and 103 on 16^2.
    """
    base = generate_square_mesh(n)
    return Triangulation(-np.cos(0.5 * np.pi * (base.nodes + 1.0)), base.triangles,
                         base.is_dirichlet)


def reference_element_gradients(tri):
    """``(corners, area, grads)`` of each triangle, through the reference-element map.

    Oracle route: the hat-function gradients ``grads[a]`` come from the
    inverse transpose of the edge matrix instead of the rotated-edge
    formula used by the fem module.
    """
    ref_grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    for corners in tri.triangles:
        p = tri.nodes[corners]
        B = np.column_stack([p[1] - p[0], p[2] - p[0]])
        yield corners, 0.5 * abs(np.linalg.det(B)), ref_grads @ np.linalg.inv(B)


def independent_stiffness(tri):
    """P1 stiffness assembled through the reference-element map."""
    n_free = tri.n_free
    K = np.zeros((n_free, n_free))
    for tri_nodes, area, grads in reference_element_gradients(tri):
        for a in range(3):
            ia = tri.free_index[tri_nodes[a]]
            if ia < 0:
                continue
            for b in range(3):
                ib = tri.free_index[tri_nodes[b]]
                if ib < 0:
                    continue
                K[ia, ib] += area * float(grads[a] @ grads[b])
    return K


def independent_constraint_matrix(tri):
    """Dense ``D``, entry ``|T_k| (grad phi_j)_c`` in row ``free_index[j]`` and
    column ``2k + c``, through the reference-element map."""
    D = np.zeros((tri.n_free, 2 * tri.n_triangles))
    for k, (corners, area, grads) in enumerate(reference_element_gradients(tri)):
        for node, grad in zip(corners, grads):
            if tri.free_index[node] >= 0:
                D[tri.free_index[node], 2 * k:2 * k + 2] = area * grad
    return D


def dense_poisson_velocity(ops):
    """Dense Gaussian-elimination solve of the independently assembled stiffness system."""
    return np.linalg.solve(independent_stiffness(ops.tri), ops.f_h)


def hessian_blocks(h):
    """The ``(n_T, 2, 2)`` symmetric blocks of a ``(3, n_T)`` Hessian."""
    return h[[0, 1, 1, 2]].T.reshape(-1, 2, 2)


def reference_hessian(params, ops, tau):
    """Hessian components ``(3, n_T)`` by the closed form written out as
    whole-array expressions, each row a fresh array, then stacked."""
    from ductflow.objective import _norms_and_excess

    t = np.asarray(tau, dtype=float).reshape(-1, 2)
    norms, excess, yielded = _norms_and_excess(tau, params.tau0)
    am1 = params.alpha - 1.0
    t1 = t[:, 0]
    t2 = t[:, 1]
    coeff = ops.tri.areas / (params.kappa_pow * am1) * excess ** (1.0 / am1 - 1.0)
    prefactor = np.divide(coeff, norms ** 3, out=np.zeros_like(norms), where=yielded)
    return np.stack((prefactor * (am1 * t2 ** 2 * excess + t1 ** 2 * norms),
                     prefactor * (-t1 * t2 * (am1 * excess - norms)),
                     prefactor * (am1 * t1 ** 2 * excess + t2 ** 2 * norms)))


def textbook_cg_steihaug(ops, grad, hess, delta, *, forcing, divtol, reproject_every, max_cg):
    """Projected CG-Steihaug as Nocedal & Wright's Alg. 7.2 writes it.

    Every vector is a fresh array, the direction is updated as ``d = -g
    + beta d``, the projection is ``v - D^T (D D^T)^-1 D v`` and the
    Hessian is applied through its full symmetric 2x2 blocks.  The
    stopping rules are those ``trust_region.cg_steihaug`` documents:
    converged once ``|P r| < forcing |P grad|``; a direction is flat
    when ``d^T H d < divtol d^T d`` and is followed to the model
    minimiser or the boundary, whichever is nearer; the boundary root
    of ``|z + s d| = delta`` is ``-2c / (b + sqrt(b^2 - 4ac))``; the
    iterate is re-projected every ``reproject_every`` steps and the run
    stops after ``max_cg``.  Returns ``(step, exit_reason, iterations)``.
    """
    blocks = hessian_blocks(hess)

    def project(v):
        return v - ops.DT @ ops.solve_ddt(ops.D @ v)

    def apply(v):
        w = v.reshape(-1, 2)
        return np.column_stack((blocks[:, 0, 0] * w[:, 0] + blocks[:, 0, 1] * w[:, 1],
                                blocks[:, 1, 0] * w[:, 0] + blocks[:, 1, 1] * w[:, 1])).ravel()

    def to_boundary(z, d, s_max=math.inf):
        a = float(d @ d)
        b = 2.0 * float(z @ d)
        c = float(z @ z) - delta * delta
        s = 0.0
        if a != 0.0 and c < 0.0:
            s = -2.0 * c / (b + math.sqrt(max(b * b - 4.0 * a * c, 0.0)))
        return z + min(s, s_max) * d

    z = np.zeros(grad.shape[0])
    r = grad
    g = project(r)
    d = -g
    gr = float(g @ g)
    if gr == 0.0:
        return z, "converged", 0
    stop = forcing * math.sqrt(gr)
    for j in range(max_cg):
        hd = apply(d)
        curvature = float(d @ hd)
        if curvature < divtol * float(d @ d):
            s_max = gr / curvature if curvature > 0.0 else math.inf
            return to_boundary(z, d, s_max), "curvature", j + 1
        alpha = gr / curvature
        z_next = z + alpha * d
        if math.sqrt(float(z_next @ z_next)) >= delta:
            return to_boundary(z, d), "boundary", j + 1
        z = z_next
        if (j + 1) % reproject_every == 0:
            z = project(z)
        r = r + alpha * hd
        g = project(r)
        gr_next = float(g @ g)
        if gr_next == 0.0 or math.sqrt(gr_next) < stop:
            return z, "converged", j + 1
        d = -g + (gr_next / gr) * d
        gr = gr_next
    return z, "cap", max_cg


def dense_projected_newton_step(ops, grad, hess, y):
    """Dense saddle-point solve for the full Newton step in null(D).

    Solves ``[[H, -D^T], [D, 0]] [s, dy] = [-(grad - D^T y), 0]``.
    """
    n = ops.n_stress
    m = ops.n_free
    H = np.zeros((n, n))
    for k, block in enumerate(hessian_blocks(hess)):
        H[2 * k:2 * k + 2, 2 * k:2 * k + 2] = block
    D = ops.D.toarray()
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = H
    kkt[:n, n:] = -D.T
    kkt[n:, :n] = D
    rhs = np.concatenate([-(grad - D.T @ y), np.zeros(m)])
    return np.linalg.solve(kkt, rhs)[:n]


def fd_gradient(params, ops, tau, h=1e-6):
    """Central finite differences of the objective."""
    from ductflow.objective import objective

    fd = np.zeros_like(tau)
    for i in range(tau.size):
        plus = tau.copy()
        minus = tau.copy()
        plus[i] += h
        minus[i] -= h
        fd[i] = (objective(params, ops, plus) - objective(params, ops, minus)) / (2 * h)
    return fd


def fd_hessian(params, ops, tau, h=1e-5):
    """Central finite differences of the gradient, returned blockwise."""
    from ductflow.objective import gradient

    n_t = tau.size // 2
    fd = np.zeros((n_t, 2, 2))
    for i in range(tau.size):
        plus = tau.copy()
        minus = tau.copy()
        plus[i] += h
        minus[i] -= h
        column = (gradient(params, ops, plus) - gradient(params, ops, minus)) / (2 * h)
        fd[i // 2, :, i % 2] = column.reshape(-1, 2)[i // 2]
    return fd


def random_stress_blocks(rng, n_blocks, tau0, band=1e-3):
    """Stress field with block norms inside, near-but-outside, and far
    outside the yield surface, avoiding the excluded band around tau0."""
    inside = max(tau0 - 2.0 * band, 0.0) * rng.random(n_blocks)
    near = tau0 + 2.0 * band + 0.1 * rng.random(n_blocks)
    far = tau0 + 0.5 + 2.0 * rng.random(n_blocks)
    choice = rng.integers(0, 3, size=n_blocks)
    norms = np.choose(choice, [inside, near, far])
    angles = 2.0 * np.pi * rng.random(n_blocks)
    return (norms[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])).ravel()


# sides of the polygon standing in for the Euclidean norm in yield_limit_bracket
YIELD_LIMIT_SIDES = 32


def yield_limit_bracket(ops):
    """Bracket ``(t, t / cos(pi/32))`` of the discrete critical yield stress.

    The flow is arrested exactly when a stress with ``D tau = f_h`` stays
    inside the yield ball on every triangle, so the critical yield stress
    is ``min {max_k |tau_k| : D tau = f_h}``.  With the Euclidean norm
    replaced by the largest projection on the 32 directions ``(cos
    theta_j, sin theta_j)``, ``theta_j = 2 pi j / 32``, this is a linear
    program in ``(tau, t)``, solved by HiGHS.  That polygon norm lies
    between ``cos(pi/32) |tau_k|`` and ``|tau_k|``, so its optimum ``t``
    and ``t / cos(pi/32)`` bracket the critical yield stress.
    """
    n_t = ops.tri.n_triangles
    theta = 2.0 * np.pi * np.arange(YIELD_LIMIT_SIDES) / YIELD_LIMIT_SIDES
    directions = csr_matrix(np.column_stack([np.cos(theta), np.sin(theta)]))
    # row (k, j): theta_j's projection of tau_k, less t, is at most 0
    a_ub = hstack([kron(identity(n_t), directions, format="csr"),
                   -np.ones((YIELD_LIMIT_SIDES * n_t, 1))])
    a_eq = hstack([ops.D, csr_matrix((ops.n_free, 1))])
    cost = np.zeros(2 * n_t + 1)
    cost[-1] = 1.0
    result = linprog(cost, A_ub=a_ub.tocsr(), b_ub=np.zeros(a_ub.shape[0]),
                     A_eq=a_eq.tocsr(), b_eq=ops.f_h,
                     bounds=[(None, None)] * (2 * n_t) + [(0.0, None)], method="highs")
    assert result.status == 0, result.message
    t = float(result.x[-1])
    return t, t / math.cos(math.pi / YIELD_LIMIT_SIDES)
