"""The K^+ solve: its affine start and the smoothed-aggregation multigrid that preconditions it."""

import gc
import json
import weakref

import numpy as np
import pytest

import tractionlab.fem as fem
from conftest import body_spec, infmany_spec, jittered_mesh, pressure_spec, stress_spec
from tractionlab.algebra import Density
from tractionlab.cli import main
from tractionlab.fem import operators, solve_linear
from tractionlab.loads import assemble_loads
from tractionlab.mesh import rect_mesh

DENSITY = Density(1.0, 1.0)
BODY = body_spec((1.3, 0.3, 0.3, 0.7))
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


def _jacobi_cg(ops, b, tol):
    # zero-start CG on the rigid complement, preconditioned by the diagonal
    # of K: a reference that shares neither the start nor the V-cycle
    Z = ops.Zeu
    inv_diag = 1.0 / ops.K.diagonal()

    def precondition(r):
        z = inv_diag * r
        return z - Z @ (Z.T @ z)

    x = np.zeros_like(b)
    r = b.copy()
    z = precondition(r)
    p, rho = z, r @ z
    stop = tol * np.sqrt(b @ (inv_diag * b))
    for _ in range(20 * b.size):
        if np.sqrt(r @ (inv_diag * r)) <= stop:
            return x
        Kp = ops.K @ p
        alpha = rho / (p @ Kp)
        x += alpha * p
        r -= alpha * Kp
        r -= Z @ (Z.T @ r)
        z = precondition(r)
        rho, rho_old = r @ z, rho
        p = z + (rho / rho_old) * p
    raise AssertionError("Jacobi CG did not converge")


def _solutions(ops, b, tol=1e-12):
    # the solution from the affine start and the multigrid, and the
    # zero-start Jacobi one of the rigid-free part of b
    Z = ops.Zeu
    x, _, _ = ops.kplus(b, tol)
    y = _jacobi_cg(ops, b - Z @ (Z.T @ b), tol)
    return [x, y - Z @ (Z.T @ y)]


def _assert_solved_past_the_switch(ops, b, tol=1e-10):
    # the solve runs through the Jacobi phase into the multigrid, and the
    # restart there keeps it to its tolerance.  The check is at
    # solve_linear's 1e-10: at 1e-12 the true residual of the body force
    # lies up to 20% above the recursive one that stops the solve, with or
    # without the Jacobi phase, as round-off in K x reaches that level
    x, it, _ = ops.kplus(b, tol)
    assert it > fem._JACOBI_STEPS
    assert _relative_residual(ops, b, x) <= tol


@pytest.mark.parametrize("spec", [pressure_spec(16.0), infmany_spec(), BODY],
                         ids=["tension", "infmany", "bodyforce"])
def test_amg_agrees_with_jacobi(mesh, ops, spec):
    b = assemble_loads(mesh, spec).load_vector.reshape(-1)
    amg, jacobi = _solutions(ops, b)
    assert np.linalg.norm(amg - jacobi) <= 1e-9 * np.linalg.norm(jacobi)
    if spec is BODY:
        _assert_solved_past_the_switch(ops, b)


def test_amg_agrees_with_jacobi_random_rhs(ops):
    # the second b is rigid but for a part 1e-12 of its size, which kplus
    # must remove before it scales its stopping rule by b
    rng = np.random.default_rng(64)
    noise = rng.standard_normal(ops.K.shape[0])
    for b in (noise, ops.Zeu @ rng.standard_normal(3) + 1e-12 * noise):
        amg, jacobi = _solutions(ops, b)
        assert np.linalg.norm(amg - jacobi) <= 1e-9 * np.linalg.norm(jacobi)
        _assert_solved_past_the_switch(ops, b)


def test_iterations_do_not_grow_with_the_mesh():
    # the pressure load has an affine solution, which the start gives; the
    # body force's solution is not affine, so the multigrid iterates
    its = []
    for n in (N_AMG, 2 * N_AMG):
        m = rect_mesh(n, n)
        assert solve_linear(DENSITY, assemble_loads(m, pressure_spec(16.0))).iterations == 0
        its.append(solve_linear(DENSITY, assemble_loads(m, BODY)).iterations)
    assert max(its) <= 60
    assert max(its) <= 1.5 * min(its)


def _relative_residual(ops, b, x):
    # sqrt(r' D^-1 r) / sqrt(b' D^-1 b) of r = P(b - K x), with b made rigid-free
    Z = ops.Zeu
    b = b - Z @ (Z.T @ b)
    r = b - ops.K @ x
    r -= Z @ (Z.T @ r)
    d = ops.K.diagonal()
    return np.sqrt((r @ (r / d)) / (b @ (b / d)))


@pytest.mark.parametrize("load", ["tension", "infmany", "stress"])
def test_homogeneous_loads_need_no_iteration(mesh, ops, load):
    # a homogeneous load has an affine minimizer, so the affine start solves it
    if load == "stress":
        A = np.random.default_rng(66).standard_normal((2, 2))
        spec = stress_spec(A + A.T)
    else:
        spec = pressure_spec(16.0) if load == "tension" else infmany_spec()
    asm = assemble_loads(mesh, spec)
    tol = 1e-10
    sol = solve_linear(DENSITY, asm, tol=tol)
    assert sol.iterations == 0
    assert _relative_residual(ops, asm.load_vector.reshape(-1),
                              sol.field.values.reshape(-1)) <= tol


def test_start_is_the_galerkin_projection():
    # on a random right-hand side the start is the K-orthogonal projection
    # of the exact solution onto the affine fields: its residual is
    # orthogonal to them, and it is no farther from the solution than 0
    m = jittered_mesh(8, 7, np.random.default_rng(67))
    ops = operators(m, DENSITY)
    Z = ops.Zeu
    b = np.random.default_rng(68).standard_normal(ops.K.shape[0])
    b -= Z @ (Z.T @ b)
    K = ops.K.toarray()
    exact = np.linalg.pinv(K, hermitian=True) @ b
    # the largest finite tolerance is above every residual: kplus returns its start
    x0, it, _ = ops.kplus(b, np.finfo(float).max)
    assert it == 0
    gap = ops.X.T @ (b - K @ x0)
    assert np.max(np.abs(gap)) <= 1e-12 * np.abs(ops.X).sum(axis=0).max() * np.abs(b).max()
    err = exact - x0
    assert err @ K @ err <= exact @ K @ exact
    assert err @ K @ err > 0.0


def test_multigrid_built_only_when_an_iteration_needs_it(tmp_path, monkeypatch):
    built = []

    class Counted(fem._VCycle):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(fem, "_VCycle", Counted)
    m = rect_mesh(16, 16)
    assert solve_linear(DENSITY, assemble_loads(m, pressure_spec(16.0))).iterations == 0
    assert built == []

    # the tension sweep at 32x32 iterates, but only on round-off above its
    # tolerance, which the Jacobi phase settles
    assert main(["run", "tension", "--out", str(tmp_path / "t")]) == 0
    report = json.loads((tmp_path / "t" / "report.json").read_text())
    assert sum(p["cg_iters"] for p in report["nonlinear"]["sweep"]) > 0
    assert built == []

    # a right-hand side 5e-8 of the gradient it is measured by, as the
    # L-BFGS initial matrix hands kplus after a point's first step.  It is
    # K times white noise, the residual of a round-off error in x; white
    # noise itself, whose smooth part the diagonal barely reaches, takes 11
    # to 13 steps
    m = rect_mesh(32, 32)
    ops = operators(m, DENSITY)
    ref = assemble_loads(m, BODY).load_vector.reshape(-1)
    noise = ops.K @ np.random.default_rng(69).standard_normal(ref.size)
    b = 5e-8 * np.linalg.norm(ref) / np.linalg.norm(noise) * noise
    x, it, rel = ops.kplus(b, 1e-8, ref)
    assert 0 < it <= fem._JACOBI_STEPS
    assert rel <= 1e-8
    assert "vcycle" not in ops.__dict__

    # the body force runs past the Jacobi phase and builds the hierarchy once
    assert main(["run", "bodyforce", "--out", str(tmp_path / "b")]) == 0
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    assert report["linear"]["cg_iterations"] > fem._JACOBI_STEPS
    assert all(p["cg_iters"] > 0 for p in report["nonlinear"]["sweep"])
    assert built == [1]


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
        sol = solve_linear(DENSITY, assemble_loads(m, pressure_spec(16.0)))
        refs = [weakref.ref(m), weakref.ref(operators(m, DENSITY).vcycle)]
        del m, sol
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
