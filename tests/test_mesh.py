import numpy as np
import pytest
import scipy.sparse as sp

from conftest import jittered_mesh, shape_gradients
from tractionlab.mesh import (Mesh, MeshFormatError, MeshOrientationError,
                              MeshTopologyError, read_mesh, rect_mesh, refine,
                              write_mesh)

UNIT_SQUARE_TEXT = """\
# two-triangle unit square
v -0.5 -0.5
v 0.5 -0.5
v 0.5 0.5
v -0.5 0.5
t 0 1 2
t 0 2 3
e 0 1 bottom
e 1 2 right
e 2 3 top
e 3 0 left
"""


class TestRectMesh:
    def test_single_cell_counts(self):
        m = rect_mesh(1, 1)
        assert m.n_nodes == 4
        assert m.n_elements == 2
        assert len(m.edge_nodes) == 4
        assert m.area == pytest.approx(1.0, abs=1e-15)

    def test_two_by_one_counts(self):
        m = rect_mesh(2, 1)
        assert m.n_nodes == 6
        assert m.n_elements == 4
        assert len(m.edge_nodes) == 6

    def test_node_and_element_counts_general(self):
        for nx, ny in ((3, 2), (5, 5), (1, 7)):
            m = rect_mesh(nx, ny)
            assert m.n_nodes == (nx + 1) * (ny + 1)
            assert m.n_elements == 2 * nx * ny
            assert len(m.edge_nodes) == 2 * (nx + ny)

    def test_area_sum(self):
        m = rect_mesh(7, 3, (-1.0, 2.0), (0.5, 1.25))
        assert np.sum(m.areas) == pytest.approx(3.0 * 0.75, rel=1e-12)

    def test_closed_boundary_normal_sum(self):
        for m in (rect_mesh(4, 4), rect_mesh(3, 5, (0.0, 2.0), (-1.0, 0.0))):
            total = np.sum(m.edge_lengths[:, None] * m.edge_normals, axis=0)
            assert np.allclose(total, 0.0, atol=1e-13)

    def test_normals_unit_and_outward(self):
        m = rect_mesh(4, 4)
        assert np.allclose(np.linalg.norm(m.edge_normals, axis=1), 1.0, atol=1e-14)
        for e in range(len(m.edge_nodes)):
            tag = m.edge_tags[e]
            n = m.edge_normals[e]
            expected = {"left": [-1, 0], "right": [1, 0], "top": [0, 1], "bottom": [0, -1]}[tag]
            assert np.allclose(n, expected, atol=1e-14)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            rect_mesh(2, 2, (0.0, 0.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            rect_mesh(0, 2)


class TestGeometry:
    def test_divergence_identity_midpoint_rule(self):
        # int_boundary n (x) x dH = |Omega| I, edge midpoint quadrature
        for m in (rect_mesh(1, 1), rect_mesh(5, 3), refine(rect_mesh(4, 4)),
                  rect_mesh(6, 2, (0.25, 1.75), (-2.0, -0.5))):
            mids = 0.5 * (m.nodes[m.edge_nodes[:, 0]] + m.nodes[m.edge_nodes[:, 1]])
            total = np.einsum("e,ei,ej->ij", m.edge_lengths, m.edge_normals, mids)
            assert np.allclose(total, m.area * np.eye(2), atol=1e-12 * max(1.0, m.area))

    def test_shape_gradients_reproduce_linear_fields(self):
        rng = np.random.default_rng(21)
        m = rect_mesh(5, 4, (-0.3, 1.1), (0.2, 0.9))
        A = rng.standard_normal((2, 2))
        b = rng.standard_normal(2)
        nodal = m.nodes @ A.T + b
        grad = np.einsum("mki,mkj->mij", nodal[m.elements], shape_gradients(m))
        assert np.allclose(grad, A[None], atol=1e-13)

    def test_areas_positive(self):
        m = rect_mesh(3, 3)
        assert np.all(m.areas > 0.0)

    @pytest.mark.parametrize("mesh", [
        rect_mesh(5, 3, (-0.3, 1.1), (0.2, 0.9)),
        jittered_mesh(6, 4, np.random.default_rng(22)),
        refine(rect_mesh(3, 4)),
    ], ids=["rect", "jittered", "refined"])
    def test_gradient_operator_matches_index_construction(self, mesh):
        # the same G from explicit index arrays, one per axis of (m, 2, 2, 3)
        g = shape_gradients(mesh)
        e, i, j, k = np.indices((len(g), 2, 2, 3))
        cols = (2 * mesh.elements[e, k] + i).ravel()
        ref = sp.csr_matrix((g[e, k, j].ravel(), cols, np.arange(0, cols.size + 1, 3)),
                            shape=(4 * len(g), 2 * mesh.n_nodes))
        for name in ("indptr", "indices", "data"):
            got, want = getattr(mesh.G, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestTextFormat:
    def test_parse_unit_square(self):
        m, sol = read_mesh(UNIT_SQUARE_TEXT)
        assert sol is None
        assert m.n_nodes == 4
        assert m.n_elements == 2
        assert sorted(m.tags()) == ["bottom", "left", "right", "top"]
        assert m.area == pytest.approx(1.0, abs=1e-15)

    def test_round_trip_identity(self):
        m = rect_mesh(4, 4, (-0.5, 0.5), (-0.5, 0.5))
        m2, _ = read_mesh(write_mesh(m))
        assert np.array_equal(m.nodes, m2.nodes)
        assert np.array_equal(m.elements, m2.elements)
        assert np.array_equal(m.edge_nodes, m2.edge_nodes)
        assert m.edge_tags == m2.edge_tags

    def test_round_trip_with_solution(self):
        m = rect_mesh(2, 2)
        values = np.arange(2.0 * m.n_nodes).reshape(-1, 2) / 7.0
        m2, sol = read_mesh(write_mesh(m, solution=values))
        assert np.array_equal(values, sol)
        assert np.array_equal(m.nodes, m2.nodes)

    def test_missing_solution_line_is_format_error(self):
        text = write_mesh(rect_mesh(2, 2), solution=np.ones((9, 2)))
        with pytest.raises(MeshFormatError, match="^node 4 has no solution line$"):
            read_mesh(text.replace("u 4 1.0 1.0\n", ""))

    def test_repeated_solution_line_is_format_error(self):
        text = write_mesh(rect_mesh(2, 2), solution=np.ones((9, 2))) + "u 3 2.0 2.0\n"
        lineno = text.count("\n")
        with pytest.raises(MeshFormatError,
                           match=f"^line {lineno}: second solution line for node 3$"):
            read_mesh(text)

    def test_clockwise_triangle_is_orientation_error(self):
        text = UNIT_SQUARE_TEXT.replace("t 0 1 2", "t 0 2 1")
        with pytest.raises(MeshOrientationError, match="element 0"):
            read_mesh(text)

    def test_dangling_node_is_format_error(self):
        text = UNIT_SQUARE_TEXT.replace("t 0 2 3", "t 0 2 9")
        with pytest.raises(MeshFormatError):
            read_mesh(text)

    def test_interior_edge_is_topology_error(self):
        text = UNIT_SQUARE_TEXT + "e 0 2 diag\n"
        with pytest.raises(MeshTopologyError):
            read_mesh(text)

    def test_missing_boundary_edge_is_topology_error(self):
        text = UNIT_SQUARE_TEXT.replace("e 3 0 left\n", "")
        with pytest.raises(MeshTopologyError, match="no tag entry"):
            read_mesh(text)

    def test_index_beyond_int64_is_format_error(self):
        text = UNIT_SQUARE_TEXT.replace("e 1 2 right", "e 1 99999999999999999999 right")
        with pytest.raises(MeshFormatError, match="out of range"):
            read_mesh(text)

    def test_non_edge_pair_is_topology_error(self):
        text = UNIT_SQUARE_TEXT.replace("e 3 0 left", "e 1 3 left")
        with pytest.raises(MeshTopologyError):
            read_mesh(text)

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(MeshFormatError, match="line 2"):
            read_mesh("v 0 0\nv 1\n")

    def test_comments_and_blank_lines_ignored(self):
        m, _ = read_mesh("\n# hi\n" + UNIT_SQUARE_TEXT + "\n# bye\n")
        assert m.n_nodes == 4


class TestRefine:
    def test_counts_and_area(self):
        m = rect_mesh(2, 3, (0.0, 1.0), (0.0, 1.5))
        r = refine(m)
        assert r.n_elements == 4 * m.n_elements
        assert len(r.edge_nodes) == 2 * len(m.edge_nodes)
        assert np.sum(r.areas) == pytest.approx(np.sum(m.areas), rel=1e-14)
        assert sorted(r.tags()) == sorted(m.tags())

    def test_orientation_preserved(self):
        r = refine(refine(rect_mesh(2, 2)))
        assert np.all(r.areas > 0.0)


class TestConstructorValidation:
    def test_duplicate_boundary_edge(self):
        with pytest.raises(MeshTopologyError, match="twice"):
            Mesh(
                np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]),
                [(0, 1, "a"), (1, 0, "b"), (1, 2, "c"), (2, 0, "d")],
            )

    def test_single_triangle_ok(self):
        m = Mesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 1, 2]]),
            [(0, 1, "a"), (1, 2, "b"), (2, 0, "c")],
        )
        assert m.area == pytest.approx(0.5)

    @pytest.mark.parametrize("tag", ["my side", "", "x#1"])
    def test_tag_that_cannot_round_trip_rejected(self, tag):
        m = rect_mesh(2, 2)
        edges = [(i, j, t) for (i, j), t in zip(m.edge_nodes.tolist(), m.edge_tags)]
        edges[3] = (*edges[3][:2], tag)
        with pytest.raises(MeshFormatError, match="tag"):
            Mesh(m.nodes, m.elements, edges)

    def test_one_word_tags_round_trip(self):
        m = rect_mesh(2, 1)
        edges = [(i, j, f"side-{k}_{t}") for k, ((i, j), t)
                 in enumerate(zip(m.edge_nodes.tolist(), m.edge_tags))]
        m2, _ = read_mesh(write_mesh(Mesh(m.nodes, m.elements, edges)))
        assert m2.edge_tags == [t for _, _, t in edges]
