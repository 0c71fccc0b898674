"""The array-built mesh topology against the loop-based code it replaced.

``oracle_init_boundary`` and ``oracle_refine`` are verbatim copies of the
per-element loops that ``Mesh._init_boundary`` and ``refine`` used before
they were rewritten with sorted edge codes; the new code must give the
same arrays, the same node numbering and the same errors.  ``per_line_text``
is the text format written one line at a time, the oracle of ``write_mesh``.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractionlab.mesh import (Mesh, MeshFormatError, MeshTopologyError, read_mesh,
                              rect_mesh, refine, write_mesh)

from conftest import jittered_mesh


def oracle_init_boundary(self, boundary_edges):
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


def oracle_refine(mesh):
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


def _edge_list(mesh):
    return [(int(i), int(j), tag) for (i, j), tag in zip(mesh.edge_nodes, mesh.edge_tags)]


def _oracle_boundary(mesh, edges):
    ref = SimpleNamespace(nodes=mesh.nodes, elements=mesh.elements)
    oracle_init_boundary(ref, edges)
    return ref


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _error_of(build):
    try:
        build()
    except (MeshFormatError, MeshTopologyError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def meshes(draw):
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    if draw(st.booleans()):
        return jittered_mesh(nx, ny, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    x0, y0 = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    w, h = draw(st.floats(0.05, 4.0)), draw(st.floats(0.05, 4.0))
    return rect_mesh(nx, ny, (x0, x0 + w), (y0, y0 + h))


CORRUPTIONS = ("drop", "reversed_duplicate", "interior_diagonal", "out_of_range", "non_edge")


def _corrupt(mesh, edges, kind, data):
    """Apply one corruption to the edge list at a drawn position."""
    edges = list(edges)
    spot = data.draw(st.integers(0, len(edges) - 1))
    n = mesh.n_nodes
    element_edges = {frozenset(p) for tri in mesh.elements.tolist()
                     for p in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))}
    boundary = {frozenset(p) for p in mesh.edge_nodes.tolist()}
    if kind == "drop":
        del edges[spot]
        return edges
    if kind == "reversed_duplicate":
        i, j, tag = edges[spot]
        new = (j, i, tag)
    elif kind == "interior_diagonal":
        inner = sorted(tuple(sorted(p)) for p in element_edges - boundary)
        new = (*inner[data.draw(st.integers(0, len(inner) - 1))], "diag")
    elif kind == "out_of_range":
        i, j, tag = edges[spot]
        bad = data.draw(st.sampled_from([-1, n, n + 7]))
        new = (i, bad, tag) if data.draw(st.booleans()) else (bad, j, tag)
    else:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if frozenset((a, b)) not in element_edges]
        new = (*pairs[data.draw(st.integers(0, len(pairs) - 1))], "nowhere")
    edges.insert(data.draw(st.integers(0, len(edges))), new)
    return edges


class TestTopologyAgainstLoops:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=meshes())
    def test_boundary_and_refine_match(self, mesh):
        ref = _oracle_boundary(mesh, _edge_list(mesh))
        assert _same_bits(mesh.edge_nodes, ref.edge_nodes)
        assert mesh.edge_tags == ref.edge_tags
        assert _same_bits(mesh.edge_owner, ref.edge_owner)
        assert _same_bits(mesh.edge_normals, ref.edge_normals)

        fine, fine_ref = refine(mesh), oracle_refine(mesh)
        assert _same_bits(fine.nodes, fine_ref.nodes)
        assert _same_bits(fine.elements, fine_ref.elements)
        assert _same_bits(fine.edge_nodes, fine_ref.edge_nodes)
        assert fine.edge_tags == fine_ref.edge_tags
        assert _same_bits(fine.edge_owner, fine_ref.edge_owner)

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(mesh=meshes(), second=st.sampled_from((None,) + CORRUPTIONS), data=st.data())
    def test_corrupted_edge_lists_fail_alike(self, kind, mesh, second, data):
        edges = _corrupt(mesh, _edge_list(mesh), kind, data)
        if second is not None:
            edges = _corrupt(mesh, edges, second, data)
        expected = _error_of(lambda: _oracle_boundary(mesh, edges))
        assert _error_of(lambda: Mesh(mesh.nodes, mesh.elements, edges)) == expected
        # a second corruption may undo the first (dropping the inserted edge)
        assert expected is not None or second is not None


def per_line_text(mesh, solution=None):
    """The mesh text format written one line at a time."""
    lines = [f"v {float(x)!r} {float(y)!r}\n" for x, y in mesh.nodes]
    lines += [f"t {a} {b} {c}\n" for a, b, c in mesh.elements]
    lines += [f"e {i} {j} {tag}\n" for (i, j), tag in zip(mesh.edge_nodes, mesh.edge_tags)]
    if solution is not None:
        lines += [f"u {i} {float(vx)!r} {float(vy)!r}\n" for i, (vx, vy) in enumerate(solution)]
    return "".join(lines)


class TestWriteMeshBytes:
    AWKWARD = np.array([[-0.0, 1e-7], [1e16, 5e-324], [2.0, np.nan]])

    @pytest.fixture
    def awkward_mesh(self):
        nodes = np.array([[-0.0, 5e-324], [1e16, 1e-7], [2.0, 1e16]])
        return Mesh(nodes, [[0, 1, 2]], [(0, 1, "a"), (1, 2, "b-1"), (2, 0, "c_2")])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_awkward_values_byte_identical(self, awkward_mesh, dtype):
        solution = self.AWKWARD.astype(dtype)
        assert write_mesh(awkward_mesh) == per_line_text(awkward_mesh)
        assert write_mesh(awkward_mesh, solution) == per_line_text(awkward_mesh, solution)

    X = 0.1 + 0.2
    # signed zeros, 1-ulp neighbours and subnormals: equal or near values with distinct bits
    POOL = (0.0, -0.0, X, np.nextafter(X, -np.inf), np.nextafter(X, np.inf), 5e-324, -5e-324,
            1e16, 1e-7, np.inf, np.nan)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), jitter=st.booleans(), dtype=st.sampled_from([np.float64, np.float32]))
    def test_repeated_awkward_values_byte_identical(self, data, jitter, dtype):
        nx, ny = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        mesh = (jittered_mesh(nx, ny, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
                if jitter else rect_mesh(nx, ny))
        entries = data.draw(st.lists(st.sampled_from(self.POOL), min_size=2 * mesh.n_nodes,
                                     max_size=2 * mesh.n_nodes))
        solution = np.array(entries, dtype=dtype).reshape(-1, 2)
        text = write_mesh(mesh, solution)
        assert text == per_line_text(mesh, solution)
        back, values = read_mesh(text)
        assert _same_bits(back.nodes, mesh.nodes)
        finite = np.isfinite(solution)
        assert _same_bits(values[finite], solution.astype(np.float64)[finite])

    @staticmethod
    def fan_mesh(n, rng):
        """A closed fan of n - 1 triangles around one centre node, one per rim node,
        node labels shuffled, so that the top index n - 1 lands at a random place
        in the ``t`` lines.  Each rim angle is jittered by at most half its even
        spacing, so no gap reaches pi and every triangle turns counter-clockwise."""
        angle = (np.arange(n - 1) + rng.uniform(0.0, 0.5, n - 1)) * (2.0 * np.pi / (n - 1))
        points = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angle), np.sin(angle)])])
        label = rng.permutation(n)
        nodes = np.empty_like(points)
        nodes[label] = points
        rim = label[1:]
        elements = np.column_stack([np.full(n - 1, label[0]), rim, np.roll(rim, -1)])
        return Mesh(nodes, elements, [(i, j, "rim") for i, j in elements[:, 1:].tolist()])

    # the digit width of a node index changes past 9, 99 and 999
    @pytest.mark.parametrize("top", [9, 10, 99, 100, 1000, 1024])
    @pytest.mark.parametrize("field", ["affine", "random"])
    def test_index_widths_byte_identical(self, top, field):
        rng = np.random.default_rng(top)
        mesh = rect_mesh(40, 24) if top == 1024 else self.fan_mesh(top + 1, rng)
        assert mesh.n_nodes == top + 1
        if field == "affine":
            solution = mesh.nodes @ rng.standard_normal((2, 2)).T + rng.standard_normal(2)
        else:
            solution = rng.standard_normal((mesh.n_nodes, 2)) * 10.0 ** rng.integers(-9, 9, 2)
        assert write_mesh(mesh) == per_line_text(mesh)
        text = write_mesh(mesh, solution)
        assert text == per_line_text(mesh, solution)
        back, values = read_mesh(text)
        assert _same_bits(back.elements, mesh.elements)
        assert _same_bits(values, solution)

    def test_non_ascii_tag_byte_identical(self):
        # the tags go through the % template, the element lines through bytes:
        # both parts of the dump must join into the same text and UTF-8 bytes
        m = rect_mesh(3, 2)
        mesh = Mesh(m.nodes, m.elements, [(i, j, ("bord-é", "côté_2", "底")[k % 3])
                                          for k, (i, j) in enumerate(m.edge_nodes.tolist())])
        solution = np.arange(2.0 * m.n_nodes).reshape(-1, 2) / 3.0
        text = write_mesh(mesh, solution)
        assert text.encode("utf-8") == per_line_text(mesh, solution).encode("utf-8")
        back, values = read_mesh(text)
        assert back.edge_tags == mesh.edge_tags
        assert _same_bits(back.elements, mesh.elements)
        assert _same_bits(values, solution)

    def test_jittered_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(8)
        mesh = jittered_mesh(9, 6, rng)
        solution = rng.standard_normal((mesh.n_nodes, 2)) * 10.0 ** rng.integers(-9, 9, (1, 2))
        text = write_mesh(mesh, solution)
        assert text == per_line_text(mesh, solution)
        back, values = read_mesh(text)
        assert _same_bits(back.nodes, mesh.nodes)
        assert _same_bits(values, solution)
        assert _same_bits(back.elements, mesh.elements)
        assert back.edge_tags == mesh.edge_tags
