"""2D triangulated polygonal domains with tagged boundary edges.

P1 (piecewise linear) triangles only; element geometry (areas, constant
shape-function gradients, edge lengths and outward normals) and the
sparse discrete-gradient operator G are precomputed at construction;
``mass_action`` applies the scalar P1 mass matrix to nodal columns.  A
line-oriented text format supports round-trip persistence:

    # comment
    v <x> <y>
    t <i> <j> <k>        (0-based node indices, counterclockwise)
    e <i> <j> <tag>      (boundary edge with tag)
    u <i> <vx> <vy>      (nodal solution: none, or exactly one per node)

A tag is one word: non-empty, without whitespace or '#', so that it
reads back as written.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp


class MeshFormatError(ValueError):
    """Malformed mesh text or dangling node index."""


class MeshOrientationError(ValueError):
    """Element with non-positive signed area."""


class MeshTopologyError(ValueError):
    """Boundary edge list inconsistent with the triangulation."""


class _LazyTranspose:
    """``A.T @ x`` through a CSR copy of A', built on the first product.

    The CSR product sums each row in the order of ``A.T @ x``, so the bits
    agree, in less than half the time for G at 32x32.  A mesh and its
    operator bundles share the one of G, so G' is built at most once per
    mesh and only where a product needs it, and a bundle reaches it
    without referring to the mesh.
    """

    def __init__(self, A):
        self._A = A

    @cached_property
    def csr(self):
        return self._A.T.tocsr()

    def __matmul__(self, x):
        return self.csr @ x


class Mesh:
    """Immutable triangulation with tagged boundary edges.

    Attributes
    ----------
    nodes : (n, 2) float array
    elements : (m, 3) int array, counterclockwise triangles
    edge_nodes : (k, 2) int array, boundary edge endpoints
    edge_tags : list of k tag strings (each one word without '#')
    edge_owner : (k,) int array, owning element of each boundary edge
    areas : (m,) element areas, all positive
    G : (4m, 2n) sparse CSR discrete gradient; maps interleaved nodal values
        (v[2a + i] = v_i at node a) to row-major element gradients
        ((G v)[4e + 2i + j] = dv_i/dx_j on element e)
    GT : G' for ``GT @ x``, built as CSR on the first product and shared
        with the mesh's operator bundles
    mean_weights : (n,) nodal weights of the domain mean of a P1 field
    centroids : (m, 2) element centroids
    edge_lengths : (k,)
    edge_normals : (k, 2) outward unit normals
    operator_cache : dict, Density -> fem.Operators, filled by fem.operators
    """

    def __init__(self, nodes, elements, boundary_edges):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        self.elements = np.ascontiguousarray(elements, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise MeshFormatError("nodes must be an (n, 2) array")
        if self.elements.ndim != 2 or self.elements.shape[1] != 3:
            raise MeshFormatError("elements must be an (m, 3) array")
        n = len(self.nodes)
        if self.elements.size and (self.elements.min() < 0 or self.elements.max() >= n):
            bad = int(np.argmax((self.elements < 0) | (self.elements >= n)).item())
            raise MeshFormatError(f"element {bad // 3} references a node out of range")

        # x[e, k], y[e, k]: the coordinates of local node k of element e
        x, y = self.nodes[:, 0][self.elements], self.nodes[:, 1][self.elements]
        x0, x1, x2 = x.T
        y0, y1, y2 = y.T
        signed = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        if np.any(signed <= 0.0):
            bad = int(np.argmax(signed <= 0.0))
            raise MeshOrientationError(
                f"element {bad} has non-positive area {signed[bad]!r} (clockwise or degenerate)"
            )
        self.areas = signed
        self.area = float(np.sum(signed))

        # row 4e + 2i + j holds the 3 entries g[e, j, k] at columns 2 elements[e, k] + i,
        # written block by block: raveling broadcast views takes twice as long
        m = len(self.elements)
        data = np.empty((m, 2, 2, 3))
        # g[e, j, k] = d phi_k / dx_j, the hat function at local node k:
        # ((y_k+1 - y_k+2), (x_k+2 - x_k+1)) / (2A), written straight into G's data.
        # A new array of m values is fresh memory whose page faults can cost as
        # much as the arithmetic on it, so the differences reuse one buffer
        g = data[:, 0]
        inv2a = 1.0 / (2.0 * signed)
        diff = np.empty(m)
        for k in range(3):
            j, l = (k + 1) % 3, (k + 2) % 3
            np.multiply(np.subtract(y[:, j], y[:, l], out=diff), inv2a, out=g[:, 0, k])
            np.multiply(np.subtract(x[:, l], x[:, j], out=diff), inv2a, out=g[:, 1, k])
        data[:, 1] = g
        cols = np.empty(data.shape, dtype=np.int32)
        np.multiply(self.elements, 2, out=cols[:, 0, 0], casting="unsafe")
        np.add(cols[:, 0, 0], 1, out=cols[:, 1, 0])
        cols[:, :, 1] = cols[:, :, 0]
        self.G = sp.csr_matrix((data.ravel(), cols.ravel(),
                                np.arange(0, cols.size + 1, 3, dtype=np.int32)),
                               shape=(4 * m, 2 * n))
        # P1 quadrature of the domain mean: (1/|Omega|) int v dx = mean_weights @ v
        self.mean_weights = np.bincount(self.elements.ravel(), np.repeat(signed / 3.0, 3),
                                        minlength=n) / self.area
        self.centroids = np.column_stack([(x0 + x1 + x2) / 3.0, (y0 + y1 + y2) / 3.0])
        self.GT = _LazyTranspose(self.G)
        self.operator_cache = {}

        self._init_boundary(boundary_edges)

    def _init_boundary(self, boundary_edges):
        entries = list(boundary_edges)
        i_col, j_col, tag_col = zip(*entries) if entries else ((), (), ())
        try:
            ij = np.column_stack([np.array(i_col, dtype=np.int64),
                                  np.array(j_col, dtype=np.int64)])
        except OverflowError:
            i, j = next((int(i), int(j)) for i, j in zip(i_col, j_col)
                        if max(abs(int(i)), abs(int(j))) >= 2**63)
            raise MeshFormatError(f"boundary edge ({i}, {j}) references a node out of range") \
                from None
        tags = [str(tag) for tag in tag_col]
        for (i, j), tag in zip(ij.tolist(), tags):
            if tag.split() != [tag] or "#" in tag:
                raise MeshFormatError(f"boundary edge ({i}, {j}) has tag {tag!r}: a tag must "
                                      "be one non-empty word without whitespace or '#'")

        n = len(self.nodes)
        # each run of equal element-edge codes is one edge: its first entry names
        # the owner, and its length counts the owners
        codes = _element_edge_codes(self.elements, n)
        order, first = _stable_runs(codes)
        starts = np.flatnonzero(first)
        owner = order[starts]
        codes, count = codes[owner], np.diff(starts, append=len(order))
        # a sentinel above every code keeps the search positions of tagged edges in range
        codes, owner, count = np.append(codes, n * n), np.append(owner, -1), np.append(count, 0)
        in_range = np.all((ij >= 0) & (ij < n), axis=1)
        tagged = _edge_codes(np.where(in_range[:, None], ij, 0), n)
        pos = np.searchsorted(codes, tagged)
        is_edge = in_range & (codes[pos] == tagged)
        order, first = _stable_runs(tagged)
        repeat = np.empty(len(ij), dtype=bool)
        repeat[order] = ~first
        # the first offending edge in list order, reported with its first failed check
        failures = (
            (~in_range, MeshFormatError, "references a node out of range"),
            (in_range & ~is_edge, MeshTopologyError, "is not an element edge"),
            (is_edge & (count[pos] > 1), MeshTopologyError, "is interior (two owners)"),
            (repeat, MeshTopologyError, "listed twice"),
        )
        bad = np.column_stack([mask for mask, _, _ in failures])
        if bad.any():
            row = int(np.argmax(bad.any(axis=1)))
            _, error, what = failures[int(np.argmax(bad[row]))]
            i, j = ij[row].tolist()
            raise error(f"boundary edge ({i}, {j}) {what}")
        tagged_edge = np.zeros(len(codes), dtype=bool)
        tagged_edge[pos] = True
        missing = codes[(count == 1) & ~tagged_edge]
        if missing.size:
            i, j = divmod(int(missing[0]), n)
            raise MeshTopologyError(f"triangulation boundary edge ({i}, {j}) has no tag entry")

        self.edge_nodes = ij
        self.edge_tags = tags
        self.edge_owner = owner[pos] // 3

        pa = self.nodes[self.edge_nodes[:, 0]]
        pb = self.nodes[self.edge_nodes[:, 1]]
        dv = pb - pa
        self.edge_lengths = np.hypot(dv[:, 0], dv[:, 1])
        # normal = edge direction rotated -90deg, sign fixed away from the owner centroid
        normals = np.column_stack([dv[:, 1], -dv[:, 0]]) / self.edge_lengths[:, None]
        cent = self.nodes[self.elements[self.edge_owner]].mean(axis=1)
        mid = 0.5 * (pa + pb)
        flip = np.sum(normals * (mid - cent), axis=1) < 0.0
        normals[flip] *= -1.0
        self.edge_normals = normals

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_elements(self):
        return len(self.elements)

    def tags(self):
        """Sorted set of boundary tags present."""
        return sorted(set(self.edge_tags))


def mass_action(mesh, f):
    """M f for the scalar P1 mass matrix M, unassembled, on each column of f, shape (n, k):
    (M f)_a = sum over triangles T containing a of |T| (f_a + sum_{b in T} f_b) / 12."""
    out = np.empty_like(f)
    # gathers from a contiguous column and sums the three corners as two adds,
    # each several times faster than its strided or reducing form
    for c, column in enumerate(f.T.copy()):
        fe = column[mesh.elements]
        fe += (fe[:, 0] + fe[:, 1] + fe[:, 2])[:, None]
        fe *= mesh.areas[:, None] / 12.0
        out[:, c] = np.bincount(mesh.elements.ravel(), fe.ravel(), minlength=mesh.n_nodes)
    return out


def _element_edge_codes(elements, n):
    """(3m,) ``_edge_codes`` of the element edges: entry 3e + k codes the edge
    that joins local nodes k and k + 1 (mod 3) of element e."""
    rolled = np.roll(elements, -1, axis=1)
    codes = np.minimum(elements, rolled)
    codes *= n
    codes += np.maximum(elements, rolled, out=rolled)
    return codes.ravel()


def _edge_codes(pairs, n):
    """Orientation-free key min * n + max of each node pair, n the node count."""
    return np.minimum(pairs[:, 0], pairs[:, 1]) * n + np.maximum(pairs[:, 0], pairs[:, 1])


def rect_mesh(nx, ny, x_range=(-0.5, 0.5), y_range=(-0.5, 0.5)):
    """Structured triangulation of a rectangle.

    (nx+1)*(ny+1) nodes and 2*nx*ny triangles, every cell split on the
    fixed lower-left to upper-right diagonal.  Boundary edges are tagged
    "left", "right", "top", "bottom".
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be at least 1")
    x0, x1 = map(float, x_range)
    y0, y1 = map(float, y_range)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("degenerate coordinate range")

    xs = x0 + (x1 - x0) * np.arange(nx + 1) / nx
    ys = y0 + (y1 - y0) * np.arange(ny + 1) / ny
    nodes = np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)])

    # cell (i, j) has lower-left node a = j (nx + 1) + i and is split into (a, b, c), (a, c, d)
    a = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    b, c, d = a + 1, a + nx + 2, a + nx + 1
    elements = np.column_stack([a, b, c, a, c, d]).reshape(-1, 3)

    i = np.arange(nx)
    j = np.arange(ny) * (nx + 1)
    bottom = np.column_stack([i, i + 1])
    left = np.column_stack([j, j + nx + 1])
    ends = np.concatenate([np.stack([bottom, bottom + ny * (nx + 1)], axis=1).reshape(-1, 2),
                           np.stack([left, left + nx], axis=1).reshape(-1, 2)])
    tags = ["bottom", "top"] * nx + ["left", "right"] * ny
    return Mesh(nodes, elements, zip(ends[:, 0].tolist(), ends[:, 1].tolist(), tags))


def refine(mesh):
    """Uniform red refinement: every triangle is split into four.

    Boundary edges are split in two and keep their tags.
    """
    n = mesh.n_nodes
    codes, first, inverse = np.unique(_element_edge_codes(mesh.elements, n),
                                      return_index=True, return_inverse=True)
    # midpoints are numbered in the order their edges first appear, element by element
    order = np.argsort(first)
    midpoint = np.empty_like(order)
    midpoint[order] = np.arange(n, n + len(order))
    e, k = np.divmod(first[order], 3)
    pa, pb = mesh.elements[e, k], mesh.elements[e, (k + 1) % 3]
    nodes = np.concatenate([mesh.nodes, 0.5 * (mesh.nodes[pa] + mesh.nodes[pb])])

    a, b, c = mesh.elements.T
    mab, mbc, mca = midpoint[inverse].reshape(-1, 3).T
    elements = np.column_stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca])

    i, j = mesh.edge_nodes.T
    mid = midpoint[np.searchsorted(codes, _edge_codes(mesh.edge_nodes, n))]
    halves = np.column_stack([i, mid, mid, j]).reshape(-1, 2)
    tags = [tag for tag in mesh.edge_tags for _ in range(2)]
    return Mesh(nodes, elements.reshape(-1, 3),
                zip(halves[:, 0].tolist(), halves[:, 1].tolist(), tags))


def write_mesh(mesh, solution=None):
    """Serialize a mesh (optionally with nodal solution lines ``u i vx vy``).

    ``solution`` must have shape (n_nodes, 2).  The ``t`` lines, about
    three quarters of the text of a mesh, are assembled as bytes by
    ``_element_lines``.  The ``v``, ``e`` and ``u`` lines go through one
    ``%`` template per kind: each float is written as its shortest
    round-trip ``repr``, formatted once per distinct float64 bit pattern
    of the array it belongs to, and a tag as the ``str`` it is.
    """
    n, m, k = mesh.n_nodes, mesh.n_elements, len(mesh.edge_tags)
    if solution is not None:
        values = np.asarray(solution, dtype=float)
        if values.shape != (n, 2):
            raise ValueError(f"solution has shape {values.shape}, expected ({n}, 2)")
    parts = [("v %s %s\n" * n) % tuple(_float_strings(mesh.nodes)),
             _element_lines(mesh.elements, n),
             ("e %d %d %s\n" * k)
             % tuple(_interleave(*mesh.edge_nodes.T.tolist(), mesh.edge_tags))]
    if solution is not None:
        text = _float_strings(values)
        parts.append(("u %d %s %s\n" * n) % tuple(_interleave(range(n), text[0::2], text[1::2])))
    return "".join(parts)


def _element_lines(elements, n):
    """The ``t`` lines of ``elements``, whose node indices lie below n.

    Every line is laid out in fixed-width slots: ``t``, then for each
    index a space and its decimal digits, right-aligned in the width of
    n - 1 behind 0 bytes, then a newline.  The slots are gathered from a
    uint8 table of the slots of 0 ... n - 1, and one compaction drops the
    0 bytes.
    """
    width = len(str(max(n - 1, 0)))
    index = np.arange(n)
    table = np.zeros((n, 1 + width), dtype=np.uint8)
    table[:, 0] = ord(" ")
    for c in range(1, width + 1):
        power = 10 ** (width - c)
        table[:, c] = np.where(index >= power, index // power % 10 + ord("0"), 0)
    table[:1, width] = ord("0")     # the one index with no digit at or above its units
    m = len(elements)
    lines = np.empty((m, 2 + 3 * (1 + width)), dtype=np.uint8)
    lines[:, 0] = ord("t")
    np.take(table, elements, axis=0, out=lines[:, 1:-1].reshape(m, 3, 1 + width))
    lines[:, -1] = ord("\n")
    flat = lines.ravel()
    return str(flat[flat != 0], "ascii")


def _float_strings(values):
    """List of the floats of float64 ``values`` in row-major order, ready for ``%s``.

    repr runs once per distinct bit pattern, not per value, so -0.0 and
    0.0 keep their own strings.  A pattern that occurs once stays a float,
    which ``%s`` formats by the same repr, so a dump without repeats never
    holds all its strings at once.
    """
    flat = values.ravel()
    # return_index makes np.unique sort stably, by the int64 sort that the mesh
    # topology already runs; its default sort loads about 0.3 MB more of numpy
    _, first, inverse, counts = np.unique(flat.view(np.int64), return_index=True,
                                          return_inverse=True, return_counts=True)
    text = flat[first].astype(object)
    repeated = counts > 1
    text[repeated] = [repr(x) for x in flat[first[repeated]].tolist()]
    return text[inverse].tolist()


def _stable_runs(keys):
    """``(order, first)``: ``keys[order]`` is sorted, equal keys in index order,
    and ``first[i]`` is whether sorted position i starts a run of equal keys."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return order, first


def _interleave(*columns):
    """Flat list c0[0], c1[0], ..., c0[1], c1[1], ... of equal-length columns."""
    flat = [None] * sum(map(len, columns))
    for offset, column in enumerate(columns):
        flat[offset::len(columns)] = column
    return flat


def read_mesh(text):
    """Parse the mesh text format.

    Returns (mesh, solution): solution is None, or the (n, 2) array of the
    ``u`` lines, exactly one per node.  Orientation is never repaired: a
    clockwise triangle is an error.
    """
    nodes = []
    elements = []
    edges = []
    solution = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        try:
            if kind == "v":
                if len(args) != 2:
                    raise ValueError("expected: v <x> <y>")
                nodes.append((float(args[0]), float(args[1])))
            elif kind == "t":
                if len(args) != 3:
                    raise ValueError("expected: t <i> <j> <k>")
                elements.append(tuple(int(a) for a in args))
            elif kind == "e":
                if len(args) != 3:
                    raise ValueError("expected: e <i> <j> <tag>")
                edges.append((int(args[0]), int(args[1]), args[2]))
            elif kind == "u":
                if len(args) != 3:
                    raise ValueError("expected: u <i> <vx> <vy>")
                if int(args[0]) in solution:
                    raise ValueError(f"second solution line for node {int(args[0])}")
                solution[int(args[0])] = (float(args[1]), float(args[2]))
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except ValueError as exc:
            raise MeshFormatError(f"line {lineno}: {exc}") from None
    if not nodes:
        raise MeshFormatError("mesh has no nodes")
    mesh = Mesh(np.asarray(nodes), np.asarray(elements, dtype=np.int64).reshape(-1, 3), edges)
    if not solution:
        return mesh, None
    for i in solution:
        if not 0 <= i < mesh.n_nodes:
            raise MeshFormatError(f"solution line references node {i} out of range")
    for i in range(mesh.n_nodes):
        if i not in solution:
            raise MeshFormatError(f"node {i} has no solution line")
    return mesh, np.array([solution[i] for i in range(mesh.n_nodes)])

