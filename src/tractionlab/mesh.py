"""2D triangulated polygonal domains with tagged boundary edges.

P1 (piecewise linear) triangles only; element geometry (areas, constant
shape-function gradients, edge lengths and outward normals) and the
sparse discrete-gradient operator G are precomputed at construction;
``mass_action`` applies the P1 mass matrix.  A line-oriented text format
supports round-trip persistence:

    # comment
    v <x> <y>
    t <i> <j> <k>        (0-based node indices, counterclockwise)
    e <i> <j> <tag>      (boundary edge with tag)
    u <i> <vx> <vy>      (nodal solution: none, or exactly one per node)

A tag is one word: non-empty, without whitespace or '#', so that it
reads back as written.
"""

import numpy as np
import scipy.sparse as sp


class MeshFormatError(ValueError):
    """Malformed mesh text or dangling node index."""


class MeshOrientationError(ValueError):
    """Element with non-positive signed area."""


class MeshTopologyError(ValueError):
    """Boundary edge list inconsistent with the triangulation."""


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

        p0 = self.nodes[self.elements[:, 0]]
        p1 = self.nodes[self.elements[:, 1]]
        p2 = self.nodes[self.elements[:, 2]]
        signed = 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                        - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0]))
        if np.any(signed <= 0.0):
            bad = int(np.argmax(signed <= 0.0))
            raise MeshOrientationError(
                f"element {bad} has non-positive area {signed[bad]!r} (clockwise or degenerate)"
            )
        self.areas = signed
        self.area = float(np.sum(signed))

        # grad of hat function at local node i: ((y_j - y_k), (x_k - x_j)) / (2A)
        inv2a = 1.0 / (2.0 * signed)
        g = np.empty((len(self.elements), 3, 2))
        pts = (p0, p1, p2)
        for i in range(3):
            pj = pts[(i + 1) % 3]
            pk = pts[(i + 2) % 3]
            g[:, i, 0] = (pj[:, 1] - pk[:, 1]) * inv2a
            g[:, i, 1] = (pk[:, 0] - pj[:, 0]) * inv2a

        # row 4e + 2i + j holds the 3 entries g[e, k, j] at columns 2 elements[e, k] + i
        shape = (len(g), 2, 2, 3)
        data = np.broadcast_to(g.transpose(0, 2, 1)[:, None], shape).ravel()
        cols = np.broadcast_to((2 * self.elements[:, None, :] + np.arange(2)[:, None])[:, :, None],
                               shape).ravel()
        self.G = sp.csr_matrix((data, cols, np.arange(0, cols.size + 1, 3)),
                               shape=(4 * len(g), 2 * n))
        # P1 quadrature of the domain mean: (1/|Omega|) int v dx = mean_weights @ v
        self.mean_weights = np.bincount(self.elements.ravel(), np.repeat(signed / 3.0, 3),
                                        minlength=n) / self.area
        self.centroids = (p0 + p1 + p2) / 3.0
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
        codes, owner, count = np.unique(_edge_codes(_element_edges(self.elements), n),
                                        return_index=True, return_counts=True)
        # a sentinel above every code keeps the search positions of tagged edges in range
        codes, owner, count = np.append(codes, n * n), np.append(owner, -1), np.append(count, 0)
        in_range = np.all((ij >= 0) & (ij < n), axis=1)
        tagged = _edge_codes(np.where(in_range[:, None], ij, 0), n)
        pos = np.searchsorted(codes, tagged)
        is_edge = in_range & (codes[pos] == tagged)
        order = np.argsort(tagged, kind="stable")
        repeat = np.zeros(len(ij), dtype=bool)
        repeat[order[1:]] = tagged[order[1:]] == tagged[order[:-1]]
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
        missing = np.setdiff1d(codes[count == 1], tagged)
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


def mass_action(mesh, x):
    """M x for the consistent P1 vector mass matrix M, without assembling M.

    ``x`` holds interleaved nodal dofs, shape (2n,) or (2n, k).  Per
    scalar component, (M f)_a = sum over triangles T containing a of
    |T| (f_a + sum_{b in T} f_b) / 12.
    """
    x = np.asarray(x, dtype=float)
    return _scalar_mass_action(mesh, x.reshape(mesh.n_nodes, -1)).reshape(x.shape)


def _scalar_mass_action(mesh, f):
    """The scalar P1 mass matrix applied to each column of the nodal fields f, shape (n, k)."""
    out = np.empty_like(f)
    for c in range(f.shape[1]):
        fe = f[mesh.elements, c]
        fe += fe.sum(axis=1, keepdims=True)
        fe *= mesh.areas[:, None] / 12.0
        out[:, c] = np.bincount(mesh.elements.ravel(), fe.ravel(), minlength=mesh.n_nodes)
    return out


def _element_edges(elements):
    """(3m, 2) endpoints: row 3e + k joins local nodes k and k + 1 (mod 3) of element e."""
    return np.column_stack([elements.ravel(), np.roll(elements, -1, axis=1).ravel()])


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
    ends = _element_edges(mesh.elements)
    codes, first, inverse = np.unique(_edge_codes(ends, n), return_index=True,
                                      return_inverse=True)
    # midpoints are numbered in the order their edges first appear, element by element
    order = np.argsort(first)
    midpoint = np.empty_like(order)
    midpoint[order] = np.arange(n, n + len(order))
    pa, pb = ends[first[order]].T
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
    """Serialize a mesh (optionally with nodal solution lines ``u i vx vy``)."""
    n, m, k = mesh.n_nodes, mesh.n_elements, len(mesh.edge_tags)
    # %r of a Python float is its repr, the shortest round-trip form
    parts = [("v %r %r\n" * n) % tuple(mesh.nodes.ravel().tolist()),
             ("t %d %d %d\n" * m) % tuple(mesh.elements.ravel().tolist()),
             ("e %d %d %s\n" * k)
             % tuple(_interleave(*mesh.edge_nodes.T.tolist(), mesh.edge_tags))]
    if solution is not None:
        values = np.asarray(solution, dtype=float)
        parts.append(("u %d %r %r\n" * len(values))
                     % tuple(_interleave(range(len(values)), *values.T.tolist())))
    return "".join(parts)


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

