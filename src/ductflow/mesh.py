"""Conforming triangulations of polygonal duct cross-sections.

A mesh consists of node coordinates, counter-clockwise triangles and a
boolean mask of the no-slip (Dirichlet) nodes, at least one in each
vertex-connected part of the mesh.  All remaining nodes (interior or
traction-free boundary) are "free" and carry velocity unknowns.

Plain-text file format (whitespace separated, ``#`` starts a comment)::

    nodes <n_N>
    x y dirichlet_flag          # one line per node, flag 0 or 1
    triangles <n_T>
    i j k                       # 0-based node indices

``load_mesh`` is one reader: it reads the file once, finds its content
lines in one pass over the bytes, checks each header's count against
the lines left, and reads each section with one ``np.loadtxt`` call.
Only a section that loadtxt cannot read (a bad line, or a ``_`` digit
separator, which ``float`` and ``int`` accept) is read one row at a
time, naming the first bad line.

Triangles stored clockwise in a file are reoriented on load; a triangle
folded over a neighbour (oriented against it) is rejected as inverted.

Floats are written by ``repr``, so coordinates round-trip bit for bit.
Integer columns (triangle rows, the stress CSV's triangle index) are
formatted by digit arithmetic, in the same bytes as ``repr``.
A mesh formats its node and triangle rows once, on first use; the mesh
file and the velocity CSV and VTK of every solve on it reuse that text.
Dirichlet and yielded flags are both written by ``flag_lines``.
"""

from __future__ import annotations

import io
import numbers
import re
from functools import cached_property

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .report import check_count

# Triangles thinner than this fraction of the bounding-box area are
# rejected as degenerate.
DEGENERATE_REL_AREA = 1e-14


class MeshError(ValueError):
    """Raised for unreadable mesh files or invalid mesh data."""


class Triangulation:
    """Immutable conforming triangle mesh with Dirichlet marking.

    ``dirichlet`` is a boolean mask over the nodes.  All arrays are
    frozen after construction, so a mesh can be shared freely between
    solver runs.  Node and triangle arrays that need no conversion (and
    no reorientation) are kept as given, not copied, and are frozen too.

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
    node_text : str
        ``"x y\n"`` rows of the node coordinates, built on first use.
    triangle_text : str
        ``"i j k\n"`` rows of the triangles, built on first use.
    """

    def __init__(self, nodes, triangles, dirichlet):
        nodes = np.ascontiguousarray(
            _checked_entries(nodes, "fiu", _check_coordinate, "node", 2, "coordinates"),
            dtype=float)
        triangles = np.ascontiguousarray(
            _checked_entries(triangles, "iu", _check_node_index, "triangle", 3, "node indices"),
            dtype=np.int64)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise MeshError(f"nodes must have shape (n, 2), got {nodes.shape}")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError(f"triangles must have shape (m, 3), got {triangles.shape}")
        if not np.all(np.isfinite(nodes)):
            raise MeshError("non-finite node coordinate")

        n_nodes = nodes.shape[0]
        if triangles.size and (triangles.min() < 0 or triangles.max() >= n_nodes):
            raise MeshError("triangle references a node index out of range")

        triangles, flipped, areas = _orient_ccw(nodes, triangles)
        _check_degenerate(nodes, areas)
        _check_orphans(n_nodes, triangles)
        _check_conformity(triangles, flipped)

        is_dirichlet = np.array(dirichlet)
        if is_dirichlet.dtype != bool or is_dirichlet.shape != (n_nodes,):
            raise MeshError(f"dirichlet must be a boolean mask over the {n_nodes} nodes")
        _check_held(n_nodes, triangles, is_dirichlet)

        self.nodes = nodes
        self.triangles = triangles
        self.is_dirichlet = is_dirichlet
        self.free_nodes = np.flatnonzero(~is_dirichlet)
        self.free_index = np.full(n_nodes, -1, dtype=np.int64)
        self.free_index[self.free_nodes] = np.arange(self.free_nodes.size)
        self.areas = areas

        for arr in (self.nodes, self.triangles, self.is_dirichlet, self.free_nodes,
                    self.free_index, self.areas):
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

    @cached_property
    def node_text(self) -> str:
        return rows_text(*self.nodes.T)

    @cached_property
    def triangle_text(self) -> str:
        return rows_text(*self.triangles.T)

    def h_max(self) -> float:
        """Longest edge over the whole mesh."""
        p = self.nodes[self.triangles]
        edges = p - np.roll(p, 1, axis=1)
        return float(np.sqrt((edges ** 2).sum(axis=2)).max())


def _checked_entries(values, kinds, check, row, width, unit):
    """``values`` as an array, after ``check`` has passed each of its entries.

    A cast alone would truncate ``1.7``, parse ``'2'``, read ``True`` as 1
    and raise numpy's bare ``ValueError`` on a ragged list.  An ndarray of
    a dtype kind in ``kinds``, as the generators and ``load_mesh`` pass,
    holds no such entry and is returned unchecked.  Anything else, a list
    of ints too (a bool among them is cast to 1), is checked entry by entry.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in kinds:
        return values
    try:
        raw = np.asarray(values)
    except ValueError:
        _name_ragged_row(values, row, width, unit)
        raise
    # as objects, the entries of a list keep their own types
    for value in np.asarray(values, dtype=object).ravel().tolist():
        check(value)
    return raw


def _name_ragged_row(values, row, width, unit):
    """Raise a ``MeshError`` naming the first row of ``values`` that is not
    a flat sequence of ``width`` values."""
    for at, entries in enumerate(values):
        try:
            flat = np.shape(entries) == (width,)
        except ValueError:
            flat = False
        if not flat:
            raise MeshError(f"{row} {at} is {entries!r}, not {width} {unit}")


def _check_coordinate(value):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise MeshError(f"node coordinate {value!r} is not a real number")


def _check_node_index(value):
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not -2 ** 63 <= value < 2 ** 63):
        raise MeshError(f"node index {value!r} is not an int64 integer")


def _orient_ccw(nodes, triangles):
    """Swap two vertices of every clockwise triangle.

    Returns the reoriented triangles (``triangles`` itself if none is
    clockwise), the mask of those swapped and the signed areas of the
    reoriented triangles.  Swapping two vertices negates the area
    formula's result exactly, so the areas need not be computed again.
    """
    areas = _signed_areas(nodes, triangles)
    cw = areas < 0
    if not cw.any():
        return triangles, cw, areas
    oriented = triangles.copy()
    oriented[cw] = oriented[cw][:, [0, 2, 1]]
    areas[cw] = -areas[cw]
    return oriented, cw, areas


def _signed_areas(nodes, triangles):
    # one coordinate at a time: gathering scalars is cheaper than rows
    x, y = nodes.T
    t0, t1, t2 = triangles.T
    x0, y0 = x[t0], y[t0]
    return 0.5 * ((x[t1] - x0) * (y[t2] - y0) - (y[t1] - y0) * (x[t2] - x0))


def _check_degenerate(nodes, areas):
    if areas.size == 0:
        raise MeshError("mesh has no triangles")
    x, y = nodes.T
    bbox = float((x.max() - x.min()) * (y.max() - y.min())) or 1.0
    # a triangle with a repeated vertex has an area of exactly 0
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
    n = int(triangles.max()) + 1
    keys = _edge_keys(triangles, n)
    keys.sort()
    if not (keys[1:] == keys[:-1]).any():
        return
    # name the first repeat in edge order, which the sort lost
    keys = _edge_keys(triangles, n)
    _, first = np.unique(keys, return_index=True)
    repeated = np.ones(keys.size, dtype=bool)
    repeated[first] = False
    at = np.argmax(repeated)
    owners = np.flatnonzero(keys == keys[at]) % triangles.shape[0]
    inverted = owners[flipped[owners]]
    if 0 < inverted.size < owners.size:
        raise MeshError("invariant violated: inverted (clockwise) triangle "
                        f"{int(inverted[0])} folds over a neighbour")
    a, b = divmod(int(keys[at]), n)
    raise MeshError("invariant violated: non-conforming mesh, directed edge "
                    f"{(a, b)} repeated")


def _edge_keys(triangles, n):
    """Key ``a n + b`` of each directed edge ``(a, b)``, taking the edges
    (0, 1), (1, 2) and (2, 0) of every triangle in turn."""
    t0, t1, t2 = triangles.T
    return np.concatenate([t0 * n + t1, t1 * n + t2, t2 * n + t0])


def _check_held(n_nodes, triangles, is_dirichlet):
    # a vertex-connected part with no Dirichlet node makes the stiffness
    # singular; graph vertex n_nodes + k is triangle k, linked to its corners
    n_t = len(triangles)
    starts = np.concatenate([np.zeros(n_nodes, dtype=np.int64), 3 * np.arange(n_t + 1)])
    links = csr_matrix((np.ones(3 * n_t), triangles.ravel(), starts),
                       shape=(n_nodes + n_t, n_nodes + n_t))
    part = csgraph.connected_components(links, directed=False)[1][:n_nodes]
    held = np.zeros(part.max() + 1, dtype=bool)
    held[part[is_dirichlet]] = True
    loose = np.flatnonzero(~held[part])
    if loose.size:
        raise MeshError("invariant violated: the mesh part containing node "
                        f"{loose[0]} has no Dirichlet node")


def generate_disk_mesh(refinement: int) -> Triangulation:
    """Structured triangulation of the unit disk.

    Nodes are placed on concentric rings at radii i/refinement, ring i
    carrying 6*i equally spaced nodes plus one centre node.  All nodes on
    the unit circle are marked Dirichlet.  Node and triangle counts are
    1 + 3n(n+1) and 6n**2 for ``refinement = n``, an integer of at least 1.
    """
    check_count(refinement=refinement)
    rings = np.arange(1, refinement + 1)
    ring_start = 1 + 3 * rings * (rings - 1)  # first node of ring i is ring_start[i - 1]

    ring = np.repeat(rings, 6 * rings)  # ring of each node but the centre
    within = np.arange(1, ring.size + 1) - ring_start[ring - 1]
    angles = 2.0 * np.pi * within / (6 * ring)
    radius = ring / refinement
    nodes = np.zeros((ring.size + 1, 2))
    nodes[1:, 0] = radius * np.cos(angles)
    nodes[1:, 1] = radius * np.sin(angles)

    # innermost fan around the centre node
    j = np.arange(6)
    fan = np.column_stack([np.zeros(6, dtype=np.int64), 1 + j, 1 + (j + 1) % 6])
    triangles = np.concatenate([fan, _ring_bands(ring_start, refinement)])

    dirichlet = np.zeros(nodes.shape[0], dtype=bool)
    dirichlet[ring_start[-1]:] = True
    return Triangulation(nodes, triangles, dirichlet)


def _ring_bands(ring_start, n):
    """Triangles of the bands joining each ring ``i >= 2`` to ring ``i - 1``.

    Every node ``b`` of the outer ring (``6 i`` nodes) and every node
    ``a`` of the inner ring (``m = 6(i - 1)`` nodes) starts one triangle
    of the band, which ends at angle ``2 pi (b + 1) / 6i`` or ``2 pi
    (a + 1) / m``.  Sorting a band's triangles by that angle, outer
    first on ties, zips the two rings; a triangle's vertex on the other
    ring is the number of that ring's triangles sorted before it.
    """
    outer = np.arange(2, n + 1)
    band_size = 12 * outer - 6
    band = np.repeat(outer, band_size)
    local = np.arange(band.size) - np.repeat(np.cumsum(band_size) - band_size, band_size)
    # each band lists its outer ring's triangles first, then its inner ring's
    big, m = 6 * band, 6 * (band - 1)
    inner = local >= big
    own = np.where(inner, local - big, local)
    angle = 2.0 * np.pi * (own + 1) / np.where(inner, m, big)
    # a stable sort, so outer triangles stay first on ties; the bands keep
    # their places, so ``local`` is then each triangle's place in its band
    order = np.lexsort((angle, band))
    inner, own = inner[order], own[order]
    other = local - own
    a = np.where(inner, own, other)
    b = np.where(inner, other, own)
    s_in, s_out = ring_start[band - 2], ring_start[band - 1]
    third = np.where(inner, s_in + (a + 1) % m, s_out + (b + 1) % big)
    return np.column_stack([s_in + a % m, s_out + b % big, third])


def generate_square_mesh(n: int) -> Triangulation:
    """Uniform ``n x n`` triangulation of [-1, 1]^2 with a no-slip rim.

    Each grid square is cut along the same diagonal, giving ``(n + 1)^2``
    nodes and ``2 n^2`` triangles for an integer ``n >= 1``.
    """
    check_count(refinement=n)
    x = np.linspace(-1.0, 1.0, n + 1)
    gx, gy = np.meshgrid(x, x)
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    col, row = np.meshgrid(np.arange(n), np.arange(n))
    a = (row * (n + 1) + col).ravel()
    b, c, d = a + 1, a + n + 2, a + n + 1
    triangles = np.concatenate([np.column_stack([a, b, c]), np.column_stack([a, c, d])])
    rim = (np.abs(nodes[:, 0]) == 1.0) | (np.abs(nodes[:, 1]) == 1.0)
    return Triangulation(nodes, triangles, rim)


_COMMENT = re.compile(rb"#[^\n]*")
_NON_ASCII = re.compile(rb"[\x80-\xff]")
_NODE_ROW = np.dtype([("x", float), ("y", float), ("flag", np.int64)])
# A bytes.translate table: 0 for the bytes that are str.isspace
# whitespace (tab to carriage return, 0x1c to 0x1f and space), else 1.
_NON_BLANK = bytes(0 if 9 <= c <= 13 or 28 <= c <= 32 else 1 for c in range(256))


def load_mesh(path) -> Triangulation:
    """Read a mesh file, validating all Triangulation invariants.

    Header counts are checked against the content lines left before
    anything is allocated; each section is then read in bulk, or by row
    where the bulk read fails (see the module docstring).
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        lineno, byte = _non_ascii_byte(path)
        raise MeshError(f"line {lineno}: non-ASCII byte {byte:#04x}") from None
    lines = _split_lines(text)
    content = _content_lines(text)

    def section(at, keyword, what):
        """Content-line indices of the rows under the header ``content[at]``."""
        if at == content.size:
            raise MeshError(f"line {len(lines) + 1}: unexpected end of file, "
                            f"expected '{keyword} <count>'")
        lineno = int(content[at]) + 1
        count = _count(_fields(lines[content[at]]), lineno, keyword, what)
        # before allocating: a count beyond the file's own length would
        # otherwise ask for an array of any size
        left = content.size - at - 1
        if count > left:
            raise MeshError(f"line {lineno}: unexpected end of file, {count} {keyword} "
                            f"announced but {left} content line(s) follow")
        return content[at + 1:at + 1 + count]

    node_rows = section(0, "nodes", "node count")
    nodes, flags = _read_nodes(lines, node_rows)
    triangle_rows = section(node_rows.size + 1, "triangles", "triangle count")
    triangles = _read_triangles(lines, triangle_rows)
    end = node_rows.size + triangle_rows.size + 2
    if end < content.size:
        raise MeshError(f"line {content[end] + 1}: trailing content after triangle list")
    return Triangulation(nodes, triangles, flags)


def _non_ascii_byte(path) -> tuple[int, int]:
    """Line number and value of the first non-ASCII byte of the file ``path``.

    For the error path of a text read: the decoder's own offset counts
    from the start of the chunk it was decoding, not of the file.  Lines
    are counted with universal newlines, as a text-mode read splits them.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    at = _NON_ASCII.search(data).start()
    head = data[:at]
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1, data[at]


def _split_lines(text):
    """The lines of ``text``, as ``readlines`` gives them but without
    their newlines.

    A text-mode read ends every line but a last one with ``"\\n"``; after
    a final newline the split leaves an empty string, which is no line.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _content_lines(text):
    """Indices of the lines holding more than whitespace before any ``#``."""
    data = text.encode("ascii")
    if b"#" in data:
        data = _COMMENT.sub(b"", data)
    chars = np.frombuffer(data, dtype=np.uint8)
    starts = np.concatenate([[0], np.flatnonzero(chars == ord("\n")) + 1])
    if starts[-1] == chars.size:  # no line after the last newline, or no text
        starts = starts[:-1]
    non_blank = np.frombuffer(data.translate(_NON_BLANK), dtype=bool)
    return np.flatnonzero(np.logical_or.reduceat(non_blank, starts))


def _fields(raw):
    return raw.split("#", 1)[0].split()


def _count(fields, lineno, keyword, what):
    """The count of a ``<keyword> <count>`` section header."""
    if len(fields) != 2 or fields[0] != keyword:
        raise MeshError(f"line {lineno}: expected '{keyword} <count>'")
    count = _parse_int(fields[1], lineno, what)
    if count < 0:
        raise MeshError(f"line {lineno}: {what} must be non-negative, got {count}")
    return count


def _loadtxt(lines, rows, dtype, shape):
    """The lines ``rows`` read by ``np.loadtxt``, or None if it cannot.

    Its C parser splits on the same whitespace as ``str.split`` and
    reads a token as ``float`` and ``int`` do, apart from rejecting
    ``_`` digit separators.  Blank and comment lines between the rows
    are skipped.
    """
    if rows.size == 0:
        return None
    try:
        values = np.loadtxt(lines[rows[0]:rows[-1] + 1], dtype=dtype, ndmin=len(shape))
    except ValueError:
        return None
    return values if values.shape == shape else None


def _read_nodes(lines, rows):
    """Coordinates and Dirichlet mask of the node lines ``rows``."""
    values = _loadtxt(lines, rows, _NODE_ROW, rows.shape)
    if values is not None:
        nodes = np.column_stack([values["x"], values["y"]])
        flags = values["flag"]
        if np.isfinite(nodes).all() and ((flags == 0) | (flags == 1)).all():
            return nodes, flags == 1
    return _node_rows(lines, rows)


def _read_triangles(lines, rows):
    """Node indices of the triangle lines ``rows``."""
    values = _loadtxt(lines, rows, np.int64, (rows.size, 3))
    return _triangle_rows(lines, rows) if values is None else values


def _node_rows(lines, rows):
    """``_read_nodes`` one line at a time, naming the first bad line."""
    nodes = np.empty((rows.size, 2))
    flags = np.empty(rows.size, dtype=bool)
    for i, at in enumerate(rows.tolist()):
        lineno, fields = at + 1, _fields(lines[at])
        if len(fields) != 3:
            raise MeshError(f"line {lineno}: expected 'x y dirichlet_flag'")
        nodes[i, 0] = _parse_float(fields[0], lineno, "x coordinate")
        nodes[i, 1] = _parse_float(fields[1], lineno, "y coordinate")
        flag = _parse_int(fields[2], lineno, "dirichlet flag")
        if flag not in (0, 1):
            raise MeshError(f"line {lineno}: dirichlet flag must be 0 or 1, got {flag}")
        flags[i] = bool(flag)
    return nodes, flags


def _triangle_rows(lines, rows):
    """``_read_triangles`` one line at a time, naming the first bad line."""
    triangles = np.empty((rows.size, 3), dtype=np.int64)
    for i, at in enumerate(rows.tolist()):
        lineno, fields = at + 1, _fields(lines[at])
        if len(fields) != 3:
            raise MeshError(f"line {lineno}: expected three node indices")
        for c in range(3):
            try:
                triangles[i, c] = _parse_int(fields[c], lineno, "node index")
            except OverflowError:  # beyond int64, so beyond any node count
                raise MeshError(f"line {lineno}: node index {fields[c]!r} out of range") from None
    return triangles


_FLAG_LINES = np.array([b"0\n", b"1\n"])


def flag_lines(mask: np.ndarray) -> str:
    """A ``0`` or ``1`` line for each entry of the boolean array ``mask``."""
    return _FLAG_LINES[mask.view(np.int8)].tobytes().decode("ascii")


def save_mesh(tri: Triangulation, path) -> None:
    """Write a mesh file; coordinates round-trip bit-identically."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"nodes {tri.n_nodes}\n")
        write_rows(fh, tri.node_text, flag_lines(tri.is_dirichlet))
        fh.write(f"triangles {tri.n_triangles}\n")
        fh.write(tri.triangle_text)


# Rows per chunk in write_rows: bounds the joined rows, and the strings of
# a numeric column's values, alive at once.
_CHUNK_ROWS = 1 << 14


def _chunks(column):
    """Entries of ``column`` as strings, ``_CHUNK_ROWS`` at a time.

    Text is split one chunk at a time, so no more than a chunk of
    per-line strings is alive at once.
    """
    while len(column):
        if isinstance(column, str):
            chunk = column.split("\n", _CHUNK_ROWS)
            column = chunk.pop()  # the unsplit rest, or all after the last newline
            if len(chunk) < _CHUNK_ROWS:
                if column:  # a last line without a final newline
                    chunk.append(column)
                column = ""
        else:
            chunk = map(repr, column[:_CHUNK_ROWS].tolist())
            column = column[_CHUNK_ROWS:]
        yield chunk


def write_rows(fh, *columns, sep=" ") -> None:
    """Write rows joining one entry of each column by ``sep``, one per line.

    A column is a numeric array, whose values become Python numbers
    written by ``repr`` (so floats round-trip bit for bit), or ready-made
    text with one entry per line.  Each chunk of rows is joined at C
    speed, without a ``str.format`` call per row.
    """
    for cells in zip(*map(_chunks, columns)):
        rows = cells[0] if len(cells) == 1 else map(sep.join, zip(*cells))
        fh.write("\n".join(rows))
        fh.write("\n")


def rows_text(*columns) -> str:
    """Space-separated rows of ``columns`` as one string, in the bytes of
    ``write_rows``; non-negative integer arrays by ``_digit_rows``."""
    if columns and all(isinstance(c, np.ndarray) and c.dtype.kind in "iu"
                       and c.min(initial=0) >= 0 for c in columns):
        return _digit_rows(columns)
    buf = io.StringIO()
    write_rows(buf, *columns)
    return buf.getvalue()


def _digit_rows(columns) -> str:
    """Rows of non-negative integer arrays, their digits peeled off by
    ``// 10`` into ``width`` bytes per value plus a separator; the places
    before a value's leading digit are masked to NUL bytes, dropped at the end.
    """
    top = max(int(c.max(initial=0)) for c in columns)
    width = len(str(top))
    n = min(map(len, columns))  # the rows write_rows zips
    rest = np.empty((n, len(columns)), np.uint32 if top < 2 ** 32 else np.uint64)
    for at, column in enumerate(columns):
        rest[:, at] = column[:n]
    text = np.empty((n, len(columns), width + 1), np.uint8)
    text[:, :, width] = ord(" ")
    text[:, -1, width] = ord("\n")
    for place in range(width - 1, -1, -1):
        quotient = rest // 10
        digit = rest - 10 * quotient + ord("0")
        if place < width - 1:  # the units digit shows even for 0
            digit *= rest != 0
        text[:, :, place] = digit
        rest = quotient
    return text.tobytes().replace(b"\0", b"").decode("ascii")


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
