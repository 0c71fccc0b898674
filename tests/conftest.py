import numpy as np
import pytest

from tractionlab import (Density, LoadSpec, Mesh, assemble_loads, pressure, rect_mesh,
                         solve_linear)
from tractionlab.limit import minimize_limit
from tractionlab.loads import DEFAULT_TOL, INCOMPATIBLE, BodyForce, TractionRule

SIDES = ("left", "right", "top", "bottom")


def pressure_spec(p):
    return LoadSpec({tag: pressure(p) for tag in SIDES})


def infmany_spec():
    return LoadSpec({
        "right": TractionRule("constant", (0.0, 1.0)),
        "left": TractionRule("constant", (0.0, -1.0)),
        "top": TractionRule("constant", (1.0, 0.0)),
        "bottom": TractionRule("constant", (-1.0, 0.0)),
    })


def body_spec(A):
    """Zero tractions plus the linear body force g = A x."""
    zero = TractionRule("constant", (0.0, 0.0))
    return LoadSpec({tag: zero for tag in SIDES}, BodyForce("linear", A))


def stress_spec(S):
    """Tractions S n on the four sides of a rectangle."""
    normals = {"left": (-1.0, 0.0), "right": (1.0, 0.0), "top": (0.0, 1.0),
               "bottom": (0.0, -1.0)}
    return LoadSpec({tag: TractionRule("constant", S @ normals[tag]) for tag in SIDES})


def zero_spec():
    return LoadSpec({tag: TractionRule("constant", (0.0, 0.0)) for tag in SIDES})


def zero_loads(mesh):
    """Zero loads on every boundary tag of mesh: Fh and its gradient keep only the stored part."""
    return assemble_loads(mesh, LoadSpec({tag: TractionRule("constant", (0.0, 0.0))
                                          for tag in mesh.tags()}))


def sweep_inputs(mesh, density, spec, tol=DEFAULT_TOL):
    """(assembly, limit) of spec on mesh, as h_sweep takes them.

    The loads are assembled and classified at tol; limit is the
    LimitReport of their linear solution, None for incompatible loads,
    which have no limit minimizer.
    """
    assembly = assemble_loads(mesh, spec, tol)
    limit = None
    if assembly.classification.compat_class != INCOMPATIBLE:
        linear = solve_linear(density, assembly)
        limit = minimize_limit(density, assembly, linear)
    return assembly, limit


def jittered_mesh(nx, ny, rng, amplitude=0.2):
    """rect_mesh(nx, ny) with each interior node moved by up to amplitude cells per axis.

    A right triangle with legs a and b has altitudes at least ab/sqrt(a^2 + b^2);
    with every vertex moved by at most sqrt(2) amplitude min(a, b), amplitude < 1/4
    keeps each distance to the opposite side positive, so the triangles stay
    counterclockwise (Mesh raises otherwise).  Boundary nodes and tags are kept.
    """
    base = rect_mesh(nx, ny)
    step = amplitude * min(1.0 / nx, 1.0 / ny)
    nodes = base.nodes.copy()
    interior = np.setdiff1d(np.arange(base.n_nodes), base.edge_nodes)
    nodes[interior] += rng.uniform(-step, step, (len(interior), 2))
    edges = [(i, j, tag) for (i, j), tag in zip(base.edge_nodes, base.edge_tags)]
    return Mesh(nodes, base.elements, edges)


def l_shaped_mesh(n, rng, amplitude=0.2):
    """jittered_mesh(n, n), n even, without its upper-right quarter: a nonconvex domain.

    Every boundary edge is tagged "side".
    """
    base = rect_mesh(n, n)
    used, elements = np.unique(base.elements[np.any(base.centroids < 0.0, axis=1)],
                               return_inverse=True)
    elements = elements.reshape(-1, 3)
    nodes = base.nodes[used]
    # an edge is on the boundary when no other triangle runs through it backwards
    directed = {(int(a), int(b)) for tri in elements for a, b in zip(tri, np.roll(tri, -1))}
    boundary = [(a, b) for a, b in directed if (b, a) not in directed]
    interior = np.setdiff1d(np.arange(len(nodes)), np.array(boundary))
    nodes[interior] += rng.uniform(-1.0, 1.0, (len(interior), 2)) * amplitude / n
    return Mesh(nodes, elements, [(a, b, "side") for a, b in sorted(boundary)])


def shape_gradients(mesh):
    """(m, 3, 2) gradients of the hat functions, the reference for ``mesh.G``.

    Local node i of a triangle with vertices i, j = i + 1, k = i + 2 (mod 3)
    has the gradient ((y_j - y_k), (x_k - x_j)) / 2|T|.
    """
    p = mesh.nodes[mesh.elements]                    # (m, 3, 2)
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    inv2a = 1.0 / (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    pj, pk = np.roll(p, -1, axis=1), np.roll(p, -2, axis=1)
    g = np.stack([pj[..., 1] - pk[..., 1], pk[..., 0] - pj[..., 0]], axis=-1)
    return g * inv2a[:, None, None]


@pytest.fixture(scope="session")
def mesh8():
    return rect_mesh(8, 8)


@pytest.fixture(scope="session")
def mesh16():
    return rect_mesh(16, 16)


@pytest.fixture(scope="session")
def density11():
    return Density(1.0, 1.0)


@pytest.fixture(scope="session")
def tension16(mesh16):
    return assemble_loads(mesh16, pressure_spec(16.0))


@pytest.fixture(scope="session")
def compression16(mesh16):
    return assemble_loads(mesh16, pressure_spec(-1.0))


@pytest.fixture(scope="session")
def infmany16(mesh16):
    return assemble_loads(mesh16, infmany_spec())


def rigid_fields(mesh, density):
    """The columns of the bundle's rigid basis ``Zeu`` as fields, times sqrt(n).

    The scale gives nodal values of order one: each translation is a unit vector.
    """
    from tractionlab.fem import DisplacementField, operators

    Zeu = operators(mesh, density).Zeu
    return [DisplacementField(mesh, np.sqrt(mesh.n_nodes) * z) for z in Zeu.T]


def random_field_values(mesh, rng, amplitude=1.0):
    return amplitude * rng.standard_normal((mesh.n_nodes, 2))


def admissible_field(mesh, rng, h, amplitude=0.5):
    """Random nodal field scaled until every element keeps orientation safely."""
    from tractionlab.fem import DisplacementField

    values = random_field_values(mesh, rng, amplitude)
    for _ in range(60):
        G = DisplacementField(mesh, values).gradient_columns().reshape(-1, 2, 2)
        F00 = 1.0 + h * G[:, 0, 0]
        F11 = 1.0 + h * G[:, 1, 1]
        dets = F00 * F11 - h * h * G[:, 0, 1] * G[:, 1, 0]
        if np.all(dets > 0.25):
            return DisplacementField(mesh, values)
        values *= 0.5
    raise AssertionError("could not produce an admissible random field")
