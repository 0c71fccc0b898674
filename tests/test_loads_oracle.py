"""The array-built load assembly against the per-edge loop it replaced.

``oracle_assembly`` is a verbatim copy of the loop over boundary edges and
Gauss points that ``LoadAssembly.__init__`` ran before the tractions were
evaluated once per tag and scattered with ``np.add.at``.  Both add the
same products in the same order, so the nodal load vector and the moment
matrix must agree bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tractionlab.loads import BodyForce, LoadSpec, TractionRule, assemble_loads
from tractionlab.mesh import Mesh, edge_gauss2, rect_mesh, tri_midpoint3

from conftest import jittered_mesh


def oracle_assembly(mesh, spec):
    """(load_vector, moment_matrix) by the loop over edges and Gauss points."""
    for tag in mesh.tags():
        spec.rule_for(tag)

    ell = np.zeros((mesh.n_nodes, 2))
    S = np.zeros((2, 2))

    pts, wts = edge_gauss2(mesh)
    gauss_t = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
    for e in range(len(mesh.edge_nodes)):
        rule = spec.rule_for(mesh.edge_tags[e])
        f = rule.evaluate(mesh.edge_normals[e])
        i, j = mesh.edge_nodes[e]
        for q, tq in enumerate(gauss_t):
            w = wts[e, q]
            ell[i] += w * (1.0 - tq) * f
            ell[j] += w * tq * f
            S += w * np.outer(f, pts[e, q])

    if spec.body.kind != "zero":
        qpts, qwts, hat = tri_midpoint3(mesh)
        g = spec.body.evaluate(qpts)            # (m, 3, 2)
        wg = qwts[:, :, None] * g
        contrib = np.einsum("mqi,qk->mki", wg, hat)
        np.add.at(ell, mesh.elements.reshape(-1), contrib.reshape(-1, 2))
        S += np.einsum("mqi,mqj->ij", wg, qpts)
    return ell, S


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def affine_mesh(mesh, A):
    """The mesh with every node mapped by x -> A x (det A > 0 keeps orientation)."""
    edges = [(i, j, tag) for (i, j), tag in zip(mesh.edge_nodes.tolist(), mesh.edge_tags)]
    return Mesh(mesh.nodes @ np.asarray(A).T, mesh.elements, edges)


def one_tag_mesh(mesh):
    """The mesh with every boundary edge tagged 'boundary': one rule, many normals."""
    edges = [(i, j, "boundary") for i, j in mesh.edge_nodes.tolist()]
    return Mesh(mesh.nodes, mesh.elements, edges)


values = st.floats(-5.0, 5.0)
rules = st.one_of(
    st.tuples(values, values).map(lambda v: TractionRule("constant", v)),
    values.map(lambda p: TractionRule("pressure", (p,))),
    values.map(lambda s: TractionRule("tangential", (s,))),
)
bodies = st.one_of(
    st.just(BodyForce()),
    st.tuples(values, values).map(lambda v: BodyForce("constant", v)),
    st.tuples(values, values, values, values).map(lambda v: BodyForce("linear", v)),
)


@st.composite
def meshes(draw):
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["rect", "jittered", "affine"]))
    if kind == "jittered":
        return jittered_mesh(nx, ny, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    x0, y0 = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    w, h = draw(st.floats(0.05, 4.0)), draw(st.floats(0.05, 4.0))
    mesh = rect_mesh(nx, ny, (x0, x0 + w), (y0, y0 + h))
    if draw(st.booleans()):
        mesh = one_tag_mesh(mesh)
    if kind == "affine":
        # a rotation times an upper-triangular stretch: slanted edges, det > 0
        theta = draw(st.floats(0.0, 2.0 * np.pi))
        shear = np.array([[draw(st.floats(0.3, 3.0)), draw(st.floats(-2.0, 2.0))],
                          [0.0, draw(st.floats(0.3, 3.0))]])
        c, s = np.cos(theta), np.sin(theta)
        mesh = affine_mesh(mesh, np.array([[c, -s], [s, c]]) @ shear)
    return mesh


class TestAssemblyAgainstLoop:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=meshes(), data=st.data())
    def test_load_vector_and_moments_match(self, mesh, data):
        spec = LoadSpec({tag: data.draw(rules) for tag in mesh.tags()}, data.draw(bodies))
        ell, S = oracle_assembly(mesh, spec)
        asm = assemble_loads(mesh, spec)
        assert _same_bits(asm.load_vector, ell)
        assert _same_bits(asm.moment_matrix, S)

    def test_all_rule_kinds_on_one_slanted_mesh(self):
        mesh = affine_mesh(jittered_mesh(5, 4, np.random.default_rng(3)), [[1.2, 0.7], [-0.4, 0.9]])
        spec = LoadSpec({"left": TractionRule("constant", (0.3, -1.1)),
                         "right": TractionRule("pressure", (2.5,)),
                         "top": TractionRule("tangential", (-0.8,)),
                         "bottom": TractionRule("tangential", (1.7,))})
        ell, S = oracle_assembly(mesh, spec)
        asm = assemble_loads(mesh, spec)
        assert _same_bits(asm.load_vector, ell)
        assert _same_bits(asm.moment_matrix, S)

    def test_rule_evaluates_a_stack_of_normals_row_by_row(self):
        normals = np.random.default_rng(4).standard_normal((6, 2))
        for rule in (TractionRule("constant", (0.3, -1.1)), TractionRule("pressure", (2.5,)),
                     TractionRule("tangential", (-0.8,))):
            stacked = rule.evaluate(normals)
            assert stacked.shape == (6, 2)
            for k, normal in enumerate(normals):
                assert _same_bits(stacked[k], rule.evaluate(normal))
