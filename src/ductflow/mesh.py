"""Conforming triangulations of polygonal duct cross-sections.

A mesh consists of node coordinates, counter-clockwise triangles and a
Dirichlet marking of the no-slip boundary nodes.  All remaining nodes
(interior or traction-free boundary) are "free" and carry velocity
unknowns.

Plain-text file format (whitespace separated, ``#`` starts a comment)::

    nodes <n_N>
    x y dirichlet_flag          # one line per node, flag 0 or 1
    triangles <n_T>
    i j k                       # 0-based node indices

Triangles stored clockwise in a file are reoriented on load; a triangle
folded over a neighbour (oriented against it) is rejected as inverted.
"""

from __future__ import annotations

import numpy as np

# Triangles thinner than this fraction of the bounding-box area are
# rejected as degenerate.
DEGENERATE_REL_AREA = 1e-14

# Nodes of generated disk meshes within this distance of radius 1 are
# marked Dirichlet.
BOUNDARY_RADIUS_TOL = 1e-12


class MeshError(ValueError):
    """Raised for unreadable mesh files or invalid mesh data."""


class Triangulation:
    """Immutable conforming triangle mesh with Dirichlet marking.

    ``dirichlet`` is either a boolean mask over the nodes or an iterable
    of node indices.  All arrays are frozen after construction, so a
    mesh can be shared freely between solver runs.

    Attributes
    ----------
    nodes : ndarray, shape (n_nodes, 2)
    triangles : ndarray, shape (n_triangles, 3)
        Counter-clockwise vertex indices.
    is_dirichlet : ndarray of bool, shape (n_nodes,)
    free_index : ndarray of int, shape (n_nodes,)
        Position of each free node in [0, n_free); -1 for Dirichlet nodes.
    free_nodes : ndarray of int, shape (n_free,)
        Node indices of the free nodes, in increasing order.
    areas : ndarray, shape (n_triangles,)
        Triangle areas (all positive).
    grad_phi : ndarray, shape (n_triangles, 3, 2)
        Constant gradients of the three local hat functions.
    """

    def __init__(self, nodes, triangles, dirichlet):
        nodes = np.ascontiguousarray(nodes, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise MeshError(f"nodes must have shape (n, 2), got {nodes.shape}")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError(f"triangles must have shape (m, 3), got {triangles.shape}")
        if not np.all(np.isfinite(nodes)):
            raise MeshError("non-finite node coordinate")

        n_nodes = nodes.shape[0]
        if triangles.size and (triangles.min() < 0 or triangles.max() >= n_nodes):
            raise MeshError("triangle references a node index out of range")
        if np.any(np.sort(triangles, axis=1)[:, :-1] == np.sort(triangles, axis=1)[:, 1:]):
            raise MeshError("triangle with repeated vertex")

        triangles, flipped = _orient_ccw(nodes, triangles)
        _check_degenerate(nodes, triangles)
        _check_orphans(n_nodes, triangles)
        _check_conformity(triangles, flipped)

        if isinstance(dirichlet, np.ndarray) and dirichlet.dtype == bool:
            if dirichlet.shape != (n_nodes,):
                raise MeshError("boolean dirichlet mask has wrong length")
            is_dirichlet = dirichlet.copy()
        else:
            indices = np.asarray(sorted(dirichlet), dtype=np.int64)
            if indices.size and (indices.min() < 0 or indices.max() >= n_nodes):
                raise MeshError("dirichlet node index out of range")
            is_dirichlet = np.zeros(n_nodes, dtype=bool)
            is_dirichlet[indices] = True
        if not is_dirichlet.any():
            raise MeshError("invariant violated: no Dirichlet nodes (boundary must have positive measure)")

        self.nodes = nodes
        self.triangles = triangles
        self.is_dirichlet = is_dirichlet
        self.free_nodes = np.flatnonzero(~is_dirichlet)
        self.free_index = np.full(n_nodes, -1, dtype=np.int64)
        self.free_index[self.free_nodes] = np.arange(self.free_nodes.size)
        self.areas, self.grad_phi = _geometry(nodes, triangles)

        for arr in (self.nodes, self.triangles, self.is_dirichlet, self.free_nodes,
                    self.free_index, self.areas, self.grad_phi):
            arr.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_free(self) -> int:
        return self.free_nodes.size

    def h_max(self) -> float:
        """Longest edge over the whole mesh."""
        p = self.nodes[self.triangles]
        edges = p - np.roll(p, 1, axis=1)
        return float(np.sqrt((edges ** 2).sum(axis=2)).max())


def _orient_ccw(nodes, triangles):
    """Swap two vertices of every clockwise triangle.

    Returns the reoriented triangles and the mask of those swapped.
    """
    cw = _signed_areas(nodes, triangles) < 0
    oriented = triangles.copy()
    oriented[cw] = oriented[cw][:, [0, 2, 1]]
    return oriented, cw


def _signed_areas(nodes, triangles):
    p0, p1, p2 = (nodes[triangles[:, i]] for i in range(3))
    u = p1 - p0
    v = p2 - p0
    return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


def _check_degenerate(nodes, triangles):
    if triangles.shape[0] == 0:
        raise MeshError("mesh has no triangles")
    areas = _signed_areas(nodes, triangles)
    span = nodes.max(axis=0) - nodes.min(axis=0)
    bbox = float(span[0] * span[1]) or 1.0
    bad = np.flatnonzero(areas < DEGENERATE_REL_AREA * bbox)
    if bad.size:
        raise MeshError(f"invariant violated: degenerate (non-positive area) triangle {bad[0]}")


def _check_orphans(n_nodes, triangles):
    used = np.zeros(n_nodes, dtype=bool)
    used[triangles] = True
    orphans = np.flatnonzero(~used)
    if orphans.size:
        raise MeshError(f"orphan node {orphans[0]}: referenced by no triangle")


def _check_conformity(triangles, flipped):
    # In a conforming CCW mesh every directed edge occurs at most once and
    # interior edges occur once per orientation.  A triangle folded over
    # a neighbour has the opposite orientation; once reoriented it
    # repeats the neighbour's shared edge, and it is named as the cause.
    edges = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    keys = edges[:, 0] * (int(triangles.max()) + 1) + edges[:, 1]
    _, first = np.unique(keys, return_index=True)
    if first.size < keys.size:
        repeated = np.ones(keys.size, dtype=bool)
        repeated[first] = False
        at = np.argmax(repeated)
        owners = np.flatnonzero(keys == keys[at]) % triangles.shape[0]
        inverted = owners[flipped[owners]]
        if 0 < inverted.size < owners.size:
            raise MeshError("invariant violated: inverted (clockwise) triangle "
                            f"{int(inverted[0])} folds over a neighbour")
        a, b = edges[at]
        raise MeshError("invariant violated: non-conforming mesh, directed edge "
                        f"{(int(a), int(b))} repeated")


def _geometry(nodes, triangles):
    p = nodes[triangles]  # (n_T, 3, 2)
    areas = _signed_areas(nodes, triangles)
    # grad phi_i = perp(p_{i+2} - p_{i+1}) / (2 |T|), perp(vx, vy) = (-vy, vx)
    grads = np.empty((triangles.shape[0], 3, 2))
    for i in range(3):
        edge = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -edge[:, 1]
        grads[:, i, 1] = edge[:, 0]
    grads /= (2.0 * areas)[:, None, None]
    return areas, grads


def generate_disk_mesh(refinement: int) -> Triangulation:
    """Structured triangulation of the unit disk.

    Nodes are placed on concentric rings at radii i/refinement, ring i
    carrying 6*i equally spaced nodes plus one centre node.  All nodes on
    the unit circle are marked Dirichlet.  Node and triangle counts are
    1 + 3n(n+1) and 6n**2 for ``refinement = n``.
    """
    if refinement < 1:
        raise ValueError("refinement must be >= 1")
    n = int(refinement)

    points = [(0.0, 0.0)]
    ring_start = [0]
    for i in range(1, n + 1):
        ring_start.append(len(points))
        count = 6 * i
        angles = 2.0 * np.pi * np.arange(count) / count
        radius = i / n
        points.extend(zip(radius * np.cos(angles), radius * np.sin(angles)))
    nodes = np.asarray(points)

    triangles = []
    # innermost fan around the centre node
    first = ring_start[1]
    for j in range(6):
        triangles.append((0, first + j, first + (j + 1) % 6))
    # zip consecutive rings by increasing angle
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
    dirichlet = np.abs(radii - 1.0) <= BOUNDARY_RADIUS_TOL
    return Triangulation(nodes, np.asarray(triangles), dirichlet)


def load_mesh(path) -> Triangulation:
    """Read a mesh file, validating all Triangulation invariants."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()

    tokens = []  # (line_number, [fields])
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            tokens.append((lineno, text.split()))

    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(tokens):
            raise MeshError(f"line {len(lines) + 1}: unexpected end of file, expected {what}")
        item = tokens[pos]
        pos += 1
        return item

    def check_count(count, lineno, what):
        # before allocating: a header count beyond the file's own length
        # would otherwise ask for an array of any size
        if count > len(tokens) - pos:
            raise MeshError(f"line {lineno}: unexpected end of file, {count} {what} "
                            f"announced but {len(tokens) - pos} content line(s) follow")

    lineno, fields = take("'nodes <count>'")
    if len(fields) != 2 or fields[0] != "nodes":
        raise MeshError(f"line {lineno}: expected 'nodes <count>'")
    n_nodes = _parse_int(fields[1], lineno, "node count")
    if n_nodes < 0:
        raise MeshError(f"line {lineno}: node count must be non-negative, got {n_nodes}")
    check_count(n_nodes, lineno, "nodes")

    nodes = np.empty((n_nodes, 2))
    flags = np.empty(n_nodes, dtype=bool)
    for i in range(n_nodes):
        lineno, fields = take("a node line 'x y flag'")
        if len(fields) != 3:
            raise MeshError(f"line {lineno}: expected 'x y dirichlet_flag'")
        nodes[i, 0] = _parse_float(fields[0], lineno, "x coordinate")
        nodes[i, 1] = _parse_float(fields[1], lineno, "y coordinate")
        flag = _parse_int(fields[2], lineno, "dirichlet flag")
        if flag not in (0, 1):
            raise MeshError(f"line {lineno}: dirichlet flag must be 0 or 1, got {flag}")
        flags[i] = bool(flag)

    lineno, fields = take("'triangles <count>'")
    if len(fields) != 2 or fields[0] != "triangles":
        raise MeshError(f"line {lineno}: expected 'triangles <count>'")
    n_triangles = _parse_int(fields[1], lineno, "triangle count")
    if n_triangles < 0:
        raise MeshError(f"line {lineno}: triangle count must be non-negative, got {n_triangles}")
    check_count(n_triangles, lineno, "triangles")

    triangles = np.empty((n_triangles, 3), dtype=np.int64)
    for i in range(n_triangles):
        lineno, fields = take("a triangle line 'i j k'")
        if len(fields) != 3:
            raise MeshError(f"line {lineno}: expected three node indices")
        for c in range(3):
            triangles[i, c] = _parse_int(fields[c], lineno, "node index")

    if pos != len(tokens):
        lineno = tokens[pos][0]
        raise MeshError(f"line {lineno}: trailing content after triangle list")
    return Triangulation(nodes, triangles, flags)


def save_mesh(tri: Triangulation, path) -> None:
    """Write a mesh file; coordinates round-trip bit-identically."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"nodes {tri.n_nodes}\n")
        write_rows(fh, "{} {} {}\n", *tri.nodes.T, tri.is_dirichlet.astype(np.int8))
        fh.write(f"triangles {tri.n_triangles}\n")
        write_rows(fh, "{} {} {}\n", *tri.triangles.T)


def write_rows(fh, template, *columns) -> None:
    """Write ``template.format(*row)`` for each row across ``columns``.

    Columns become Python numbers, so floats are written by ``repr`` and
    text files round-trip bit for bit.  Rows are streamed one at a time.
    """
    fh.writelines(map(template.format, *(np.asarray(col).tolist() for col in columns)))


def _parse_int(text, lineno, what):
    try:
        return int(text)
    except ValueError:
        raise MeshError(f"line {lineno}: invalid {what} {text!r}") from None


def _parse_float(text, lineno, what):
    try:
        value = float(text)
    except ValueError:
        raise MeshError(f"line {lineno}: invalid {what} {text!r}") from None
    if not np.isfinite(value):
        raise MeshError(f"line {lineno}: non-finite {what} {text!r}")
    return value
