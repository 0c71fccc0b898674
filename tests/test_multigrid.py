"""The smoothed-aggregation multigrid that preconditions K^+."""

import gc
import weakref

import numpy as np
import pytest

import tractionlab.fem as fem
from conftest import body_spec, infmany_spec, jittered_mesh, pressure_spec
from tractionlab.algebra import Density
from tractionlab.fem import operators, solve_linear
from tractionlab.loads import assemble_loads
from tractionlab.mesh import rect_mesh

DENSITY = Density(1.0, 1.0)
# a mesh with two coarsened levels below the fine one
N_AMG = 64


@pytest.fixture(scope="module", params=["rect", "jittered"])
def mesh(request):
    if request.param == "rect":
        return rect_mesh(N_AMG, N_AMG)
    return jittered_mesh(N_AMG, N_AMG, np.random.default_rng(61))


@pytest.fixture(scope="module")
def ops(mesh):
    return operators(mesh, DENSITY)


def _complement(ops, U):
    Z = ops.Zeu
    return U - Z @ (Z.T @ U)


def test_vcycle_symmetric(ops):
    rng = np.random.default_rng(62)
    U = rng.standard_normal((ops.K.shape[0], 4))
    VU = np.column_stack([ops.vcycle(u) for u in U.T])
    G = U.T @ VU
    scale = np.outer(np.linalg.norm(U, axis=0), np.linalg.norm(VU, axis=0))
    assert np.max(np.abs(G - G.T) / scale) <= 1e-12


def test_vcycle_positive_on_rigid_complement(ops):
    U = _complement(ops, np.random.default_rng(63).standard_normal((ops.K.shape[0], 6)))
    G = U.T @ np.column_stack([ops.vcycle(u) for u in U.T])
    assert np.linalg.eigvalsh(0.5 * (G + G.T))[0] > 0.0


def test_prolongators_keep_rigid_modes(ops):
    # rebuild each level's coarse near-null space with the builder's own
    # aggregation: the smoothed prolongator maps it into the kernel of A
    B, bs = ops.Z, 2
    assert len(ops.vcycle.levels) >= 2
    for A, _, P, R in ops.vcycle.levels:
        agg = fem._aggregate(fem._node_graph(A, bs))
        T, B = fem._tentative_prolongator(agg, bs, B)
        PB = P @ B
        assert np.linalg.norm(A @ PB) <= 1e-13 * abs(A).sum(axis=1).max() * np.linalg.norm(PB)
        assert (R != P.T).nnz == 0
        bs = 3


def _solutions(ops, b, tol=1e-12):
    # the multigrid solution and one preconditioned by the diagonal of K
    Z = ops.Zeu
    b = b - Z @ (Z.T @ b)
    inv_diag = 1.0 / ops.K.diagonal()
    out = []
    for precondition in (ops.vcycle, lambda r: inv_diag * r):
        x, _, _ = fem._projected_pcg(ops.K, b, Z, tol, precondition)
        out.append(x - Z @ (Z.T @ x))
    return out


@pytest.mark.parametrize("spec", [pressure_spec(16.0), infmany_spec(),
                                  body_spec((1.3, 0.3, 0.3, 0.7))],
                         ids=["tension", "infmany", "bodyforce"])
def test_amg_agrees_with_jacobi(mesh, ops, spec):
    amg, jacobi = _solutions(ops, assemble_loads(mesh, spec).load_vector.reshape(-1))
    assert np.linalg.norm(amg - jacobi) <= 1e-9 * np.linalg.norm(jacobi)


def test_amg_agrees_with_jacobi_random_rhs(ops):
    b = np.random.default_rng(64).standard_normal(ops.K.shape[0])
    amg, jacobi = _solutions(ops, b)
    assert np.linalg.norm(amg - jacobi) <= 1e-9 * np.linalg.norm(jacobi)


def test_iterations_do_not_grow_with_the_mesh():
    its = []
    for n in (N_AMG, 2 * N_AMG):
        m = rect_mesh(n, n)
        its.append(solve_linear(m, DENSITY, assemble_loads(m, pressure_spec(16.0))).iterations)
    assert max(its) <= 60
    assert max(its) <= 1.5 * min(its)


def test_bundle_is_memoized_per_density():
    m = rect_mesh(4, 4)
    ops = operators(m, Density(1.0, 1.0))
    assert operators(m, Density(1, 1)) is ops
    assert operators(m, Density(1.0, 0.5)) is not ops


def test_bundle_forms_no_reference_cycle():
    # the bundle lives on its mesh; it must not keep the mesh alive itself,
    # or every large mesh would wait for the cycle collector
    gc.disable()
    try:
        m = rect_mesh(N_AMG, N_AMG)
        sol = solve_linear(m, DENSITY, assemble_loads(m, pressure_spec(16.0)))
        refs = [weakref.ref(m), weakref.ref(operators(m, DENSITY).vcycle)]
        del m, sol
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
