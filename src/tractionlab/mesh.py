"""2D triangulated polygonal domains with tagged boundary edges.

P1 (piecewise linear) triangles only; element geometry (areas, constant
shape-function gradients, edge lengths and outward normals) and the
sparse discrete-gradient operator G are precomputed at construction.  A
line-oriented text format supports round-trip persistence:

    # comment
    v <x> <y>
    t <i> <j> <k>        (0-based node indices, counterclockwise)
    e <i> <j> <tag>      (boundary edge with tag)
"""

import io

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
    edge_tags : list of k tag strings
    edge_owner : (k,) int array, owning element of each boundary edge
    areas : (m,) element areas, all positive
    grads : (m, 3, 2) constant shape-function gradients
    G : (4m, 2n) sparse CSR discrete gradient; maps interleaved nodal values
        (v[2a + i] = v_i at node a) to row-major element gradients
        ((G v)[4e + 2i + j] = dv_i/dx_j on element e)
    edge_lengths : (k,)
    edge_normals : (k, 2) outward unit normals
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
        self.grads = g

        # row 4e + 2i + j holds the 3 entries g[e, k, j] at columns 2 elements[e, k] + i
        e, i, j, k = np.indices((len(g), 2, 2, 3))
        cols = (2 * self.elements[e, k] + i).ravel()
        self.G = sp.csr_matrix((g[e, k, j].ravel(), cols, np.arange(0, cols.size + 1, 3)),
                               shape=(4 * len(g), 2 * n))

        self._init_boundary(boundary_edges)

    def _init_boundary(self, boundary_edges):
        owner_of = {}
        for e, tri in enumerate(self.elements):
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (min(a, b), max(a, b))
                owner_of.setdefault(key, []).append(e)
        single = {k for k, v in owner_of.items() if len(v) == 1}

        edge_nodes = []
        edge_tags = []
        edge_owner = []
        seen = set()
        n = len(self.nodes)
        for i, j, tag in boundary_edges:
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n):
                raise MeshFormatError(f"boundary edge ({i}, {j}) references a node out of range")
            key = (min(i, j), max(i, j))
            if key not in owner_of:
                raise MeshTopologyError(f"boundary edge ({i}, {j}) is not an element edge")
            if key not in single:
                raise MeshTopologyError(f"boundary edge ({i}, {j}) is interior (two owners)")
            if key in seen:
                raise MeshTopologyError(f"boundary edge ({i}, {j}) listed twice")
            seen.add(key)
            edge_nodes.append((i, j))
            edge_tags.append(str(tag))
            edge_owner.append(owner_of[key][0])
        missing = single - seen
        if missing:
            i, j = sorted(missing)[0]
            raise MeshTopologyError(f"triangulation boundary edge ({i}, {j}) has no tag entry")

        self.edge_nodes = np.asarray(edge_nodes, dtype=np.int64).reshape(len(edge_nodes), 2)
        self.edge_tags = edge_tags
        self.edge_owner = np.asarray(edge_owner, dtype=np.int64)

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


def rect_mesh(nx, ny, x_range=(-0.5, 0.5), y_range=(-0.5, 0.5), tag_scheme="sides"):
    """Structured triangulation of a rectangle.

    (nx+1)*(ny+1) nodes and 2*nx*ny triangles, every cell split on the
    fixed lower-left to upper-right diagonal.  Boundary edges are tagged
    "left", "right", "top", "bottom" (tag_scheme="sides") or all
    "boundary" (tag_scheme="uniform").
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be at least 1")
    x0, x1 = map(float, x_range)
    y0, y1 = map(float, y_range)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("degenerate coordinate range")
    if tag_scheme not in ("sides", "uniform"):
        raise ValueError(f"unknown tag_scheme {tag_scheme!r}")

    xs = x0 + (x1 - x0) * np.arange(nx + 1) / nx
    ys = y0 + (y1 - y0) * np.arange(ny + 1) / ny
    nodes = np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)])

    def nid(i, j):
        return j * (nx + 1) + i

    elements = []
    for j in range(ny):
        for i in range(nx):
            a, b = nid(i, j), nid(i + 1, j)
            c, d = nid(i + 1, j + 1), nid(i, j + 1)
            elements.append((a, b, c))
            elements.append((a, c, d))

    def side(name):
        return name if tag_scheme == "sides" else "boundary"

    edges = []
    for i in range(nx):
        edges.append((nid(i, 0), nid(i + 1, 0), side("bottom")))
        edges.append((nid(i, ny), nid(i + 1, ny), side("top")))
    for j in range(ny):
        edges.append((nid(0, j), nid(0, j + 1), side("left")))
        edges.append((nid(nx, j), nid(nx, j + 1), side("right")))
    return Mesh(nodes, elements, edges)


def refine(mesh):
    """Uniform red refinement: every triangle is split into four.

    Boundary edges are split in two and keep their tags.
    """
    midpoint_id = {}
    new_nodes = [tuple(p) for p in mesh.nodes]

    def mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoint_id:
            midpoint_id[key] = len(new_nodes)
            new_nodes.append(tuple(0.5 * (mesh.nodes[a] + mesh.nodes[b])))
        return midpoint_id[key]

    elements = []
    for a, b, c in mesh.elements:
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        elements.extend([(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)])

    edges = []
    for (i, j), tag in zip(mesh.edge_nodes, mesh.edge_tags):
        m = mid(i, j)
        edges.append((i, m, tag))
        edges.append((m, j, tag))
    return Mesh(np.asarray(new_nodes), elements, edges)


def write_mesh(mesh, solution=None):
    """Serialize a mesh (optionally with nodal solution lines ``u i vx vy``)."""
    out = io.StringIO()
    for x, y in mesh.nodes:
        out.write(f"v {float(x)!r} {float(y)!r}\n")
    for a, b, c in mesh.elements:
        out.write(f"t {a} {b} {c}\n")
    for (i, j), tag in zip(mesh.edge_nodes, mesh.edge_tags):
        out.write(f"e {i} {j} {tag}\n")
    if solution is not None:
        values = np.asarray(solution)
        for i, (vx, vy) in enumerate(values):
            out.write(f"u {i} {float(vx)!r} {float(vy)!r}\n")
    return out.getvalue()


def read_mesh(text):
    """Parse the mesh text format.

    Returns (mesh, solution) where solution is an (n, 2) array when the
    text carries ``u`` lines and None otherwise.  Orientation is never
    repaired: a clockwise triangle is an error.
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
    values = np.zeros((mesh.n_nodes, 2))
    for i, v in solution.items():
        if not 0 <= i < mesh.n_nodes:
            raise MeshFormatError(f"solution line references node {i} out of range")
        values[i] = v
    return mesh, values


def edge_gauss2(mesh):
    """Two-point Gauss points and weights on every boundary edge.

    Returns (points, weights) with shapes (k, 2, 2) and (k, 2); exact for
    cubic integrands along each edge.
    """
    pa = mesh.nodes[mesh.edge_nodes[:, 0]]
    pb = mesh.nodes[mesh.edge_nodes[:, 1]]
    s = 0.5 / np.sqrt(3.0)
    t = np.array([0.5 - s, 0.5 + s])
    pts = pa[:, None, :] + t[None, :, None] * (pb - pa)[:, None, :]
    wts = np.repeat(0.5 * mesh.edge_lengths[:, None], 2, axis=1)
    return pts, wts


def tri_midpoint3(mesh):
    """Edge-midpoint quadrature on every element, exact for quadratics.

    Returns (points, weights) with shapes (m, 3, 2) and (m, 3), plus the
    P1 hat-function values at those points, shape (3, 3) indexed as
    [point, local node].
    """
    p = mesh.nodes[mesh.elements]   # (m, 3, 2)
    pts = 0.5 * (p + np.roll(p, -1, axis=1))
    wts = np.repeat(mesh.areas[:, None] / 3.0, 3, axis=1)
    hat = np.array([
        [0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5],
    ])
    return pts, wts, hat
