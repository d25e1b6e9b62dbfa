"""Plain helpers shared by the package tests: dense oracles, finite
differences and randomised inputs.  Fixtures live in ``conftest.py``."""

import numpy as np

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


def independent_stiffness(tri):
    """P1 stiffness assembled through the reference-element map.

    Oracle route: hat-function gradients come from the inverse transpose
    of the edge matrix instead of the rotated-edge formula used by the
    mesh module.
    """
    ref_grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    n_free = tri.n_free
    K = np.zeros((n_free, n_free))
    for tri_nodes in tri.triangles:
        p = tri.nodes[tri_nodes]
        B = np.column_stack([p[1] - p[0], p[2] - p[0]])
        area = 0.5 * abs(np.linalg.det(B))
        grads = ref_grads @ np.linalg.inv(B)
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


def dense_poisson_velocity(ops):
    """Dense Gaussian-elimination solve of the independently assembled stiffness system."""
    return np.linalg.solve(independent_stiffness(ops.tri), ops.f_h)


def dense_projected_newton_step(ops, grad, hess_blocks, y):
    """Dense saddle-point solve for the full Newton step in null(D).

    Solves ``[[H, -D^T], [D, 0]] [s, dy] = [-(grad - D^T y), 0]``.
    """
    n = ops.n_stress
    m = ops.n_free
    H = np.zeros((n, n))
    for k in range(hess_blocks.shape[0]):
        H[2 * k:2 * k + 2, 2 * k:2 * k + 2] = hess_blocks[k]
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
