"""The closed-form load assembly against quadrature and against exact identities.

``oracle_assembly`` is a verbatim copy of the loop over boundary edges and
Gauss points that ``LoadAssembly.__init__`` once ran, with the two-point
Gauss rule on edges and the edge-midpoint rule on triangles it used
(``edge_gauss2`` and ``tri_midpoint3``, kept here as its reference
quadrature).  Both rules are exact for these loads, so the closed form
agrees with the loop to round-off: |dl| <= 1e-14 max|l| and |dS| <=
1e-14 times the largest entry of the term scale of S, the sum of the
absolute values of its terms.  The divergence identities check the
assembly with no quadrature at all.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tractionlab.fem import mass_matrix
from tractionlab.loads import BodyForce, LoadSpec, TractionRule, assemble_loads
from tractionlab.mesh import Mesh, rect_mesh

from conftest import jittered_mesh


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


def moment_scale(mesh, spec):
    """sum_e |e| |f_e| (x) |m_e| + (M |g|)' |x|: the terms of S in absolute value."""
    f = np.array([spec.rule_for(tag).evaluate(normal)
                  for tag, normal in zip(mesh.edge_tags, mesh.edge_normals)])
    mid = 0.5 * (mesh.nodes[mesh.edge_nodes[:, 0]] + mesh.nodes[mesh.edge_nodes[:, 1]])
    g = np.abs(spec.body.evaluate(mesh.nodes))
    Mg = (mass_matrix(mesh) @ g.reshape(-1)).reshape(-1, 2)
    return (mesh.edge_lengths[:, None] * np.abs(f)).T @ np.abs(mid) + Mg.T @ np.abs(mesh.nodes)


def assert_matches_oracle(mesh, spec):
    ell, S = oracle_assembly(mesh, spec)
    asm = assemble_loads(mesh, spec)
    assert np.max(np.abs(asm.load_vector - ell)) <= 1e-14 * np.max(np.abs(ell))
    assert np.max(np.abs(asm.moment_matrix - S)) <= 1e-14 * np.max(moment_scale(mesh, spec))


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
def mapped_rects(draw):
    """(mesh, (x0, x1, y0, y1), B): a mesh of the rectangle mapped by x -> B x."""
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["rect", "jittered", "affine"]))
    if kind == "jittered":
        mesh = jittered_mesh(nx, ny, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        return mesh, (-0.5, 0.5, -0.5, 0.5), np.eye(2)
    x0, y0 = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    w, h = draw(st.floats(0.05, 4.0)), draw(st.floats(0.05, 4.0))
    mesh = rect_mesh(nx, ny, (x0, x0 + w), (y0, y0 + h))
    if draw(st.booleans()):
        mesh = one_tag_mesh(mesh)
    B = np.eye(2)
    if kind == "affine":
        # a rotation times an upper-triangular stretch: slanted edges, det > 0
        theta = draw(st.floats(0.0, 2.0 * np.pi))
        shear = np.array([[draw(st.floats(0.3, 3.0)), draw(st.floats(-2.0, 2.0))],
                          [0.0, draw(st.floats(0.3, 3.0))]])
        c, s = np.cos(theta), np.sin(theta)
        B = np.array([[c, -s], [s, c]]) @ shear
        mesh = affine_mesh(mesh, B)
    return mesh, (x0, x0 + w, y0, y0 + h), B


def meshes():
    return mapped_rects().map(lambda drawn: drawn[0])


class TestAssemblyAgainstLoop:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=meshes(), data=st.data())
    def test_load_vector_and_moments_match(self, mesh, data):
        spec = LoadSpec({tag: data.draw(rules) for tag in mesh.tags()}, data.draw(bodies))
        assert_matches_oracle(mesh, spec)

    def test_all_rule_kinds_on_one_slanted_mesh(self):
        mesh = affine_mesh(jittered_mesh(5, 4, np.random.default_rng(3)), [[1.2, 0.7], [-0.4, 0.9]])
        spec = LoadSpec({"left": TractionRule("constant", (0.3, -1.1)),
                         "right": TractionRule("pressure", (2.5,)),
                         "top": TractionRule("tangential", (-0.8,)),
                         "bottom": TractionRule("tangential", (1.7,))})
        assert_matches_oracle(mesh, spec)

    def test_rule_evaluates_a_stack_of_normals_row_by_row(self):
        normals = np.random.default_rng(4).standard_normal((6, 2))
        for rule in (TractionRule("constant", (0.3, -1.1)), TractionRule("pressure", (2.5,)),
                     TractionRule("tangential", (-0.8,))):
            stacked = rule.evaluate(normals)
            assert stacked.shape == (6, 2)
            for k, normal in enumerate(normals):
                assert _same_bits(stacked[k], rule.evaluate(normal))


R = np.array([[0.0, -1.0], [1.0, 0.0]])
# a subnormal load keeps too few significant bits for a relative bound
normal_values = st.floats(-5.0, 5.0, allow_subnormal=False)


class TestDivergenceIdentities:
    """Exact values of l and S that no quadrature rule produces."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=meshes(), p=normal_values, s=normal_values)
    def test_pressure_and_shear_act_as_a_constant_stress(self, mesh, p, s):
        # f = sigma n on every edge with sigma = pI + sR, so by the divergence
        # theorem S = |Omega| sigma and l_a = int sigma grad(phi_a)
        sigma = p * np.eye(2) + s * R
        ell, S, scale = np.zeros((mesh.n_nodes, 2)), np.zeros((2, 2)), np.zeros((2, 2))
        for rule in (TractionRule("pressure", (p,)), TractionRule("tangential", (s,))):
            spec = LoadSpec({tag: rule for tag in mesh.tags()})
            asm = assemble_loads(mesh, spec)
            ell += asm.load_vector
            S += asm.moment_matrix
            scale += moment_scale(mesh, spec)
        exact_ell = (mesh.G.T @ np.kron(mesh.areas, sigma.ravel())).reshape(-1, 2)
        assert np.max(np.abs(S - mesh.area * sigma)) <= 1e-14 * np.max(scale)
        assert np.max(np.abs(ell - exact_ell)) <= 1e-14 * np.max(np.abs(exact_ell))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(drawn=mapped_rects(), A=st.tuples(*[normal_values] * 4))
    def test_linear_body_force_moments(self, drawn, A):
        # S = int A x (x) x = A X with X = int x (x) x, and over the mapped
        # rectangle B Rect, X = det(B) B (int_Rect x (x) x) B'
        mesh, (x0, x1, y0, y1), B = drawn
        A = np.reshape(A, (2, 2))
        zero = TractionRule("constant", (0.0, 0.0))
        asm = assemble_loads(mesh, LoadSpec({tag: zero for tag in mesh.tags()},
                                            BodyForce("linear", A)))
        # about its centre c, a w x h rectangle has int x (x) x = wh (c (x) c + diag(w^2, h^2) / 12)
        w, h, c = x1 - x0, y1 - y0, np.array([x0 + x1, y0 + y1]) / 2.0
        rect = w * h * (np.outer(c, c) + np.diag([w * w, h * h]) / 12.0)
        det = np.linalg.det(B)
        X = det * B @ rect @ B.T
        scale = np.abs(A) @ (det * np.abs(B) @ np.abs(rect) @ np.abs(B).T)
        assert np.max(np.abs(asm.moment_matrix - A @ X)) <= 1e-14 * np.max(scale)
