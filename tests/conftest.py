import numpy as np
import pytest

from tractionlab import (Density, LoadSpec, Mesh, assemble_loads, pressure, rect_mesh,
                         solve_linear)
from tractionlab.limit import minimize_limit
from tractionlab.loads import (DEFAULT_TOL, INCOMPATIBLE, BodyForce, TractionRule,
                               classify_compatibility)

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


def sweep_inputs(mesh, density, spec, tol=DEFAULT_TOL):
    """(assembly, classification, limit) of spec on mesh, as h_sweep takes them.

    The loads are classified at tol; limit is the LimitReport of their
    linear solution, None for incompatible loads, which have no limit
    minimizer.
    """
    assembly = assemble_loads(mesh, spec)
    classification = classify_compatibility(assembly, tol)
    limit = None
    if classification.compat_class != INCOMPATIBLE:
        linear = solve_linear(mesh, density, assembly)
        limit = minimize_limit(mesh, density, assembly, classification, linear)
    return assembly, classification, limit


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


def random_field_values(mesh, rng, amplitude=1.0):
    return amplitude * rng.standard_normal((mesh.n_nodes, 2))


def admissible_field(mesh, rng, h, amplitude=0.5):
    """Random nodal field scaled until every element keeps orientation safely."""
    from tractionlab.fem import DisplacementField, element_gradients

    values = random_field_values(mesh, rng, amplitude)
    for _ in range(60):
        G = element_gradients(mesh, values)
        F00 = 1.0 + h * G[:, 0, 0]
        F11 = 1.0 + h * G[:, 1, 1]
        dets = F00 * F11 - h * h * G[:, 0, 1] * G[:, 1, 0]
        if np.all(dets > 0.25):
            return DisplacementField(mesh, values)
        values *= 0.5
    raise AssertionError("could not produce an admissible random field")
