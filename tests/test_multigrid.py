"""The K^+ solve: its affine start and the smoothed-aggregation multigrid that preconditions it."""

import gc
import json
import weakref

import numpy as np
import pytest

import tractionlab.fem as fem
from conftest import (body_spec, infmany_spec, jittered_mesh, l_shaped_mesh, pressure_spec,
                      stress_spec)
from tractionlab.algebra import Density
from tractionlab.cli import main
from tractionlab.fem import (assemble_stiffness, integral_mean, mass_matrix, operators,
                             solve_linear)
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
    B, bs = ops.Zeu, 2
    assert len(ops.vcycle.levels) >= 2
    for A, _, P, R in ops.vcycle.levels:
        agg = fem._aggregate(fem._node_graph(A, bs))
        T, B = fem._tentative_prolongator(agg, bs, B)
        PB = P @ B
        assert np.linalg.norm(A @ PB) <= 1e-13 * abs(A).sum(axis=1).max() * np.linalg.norm(PB)
        assert (R != P.T).nnz == 0
        bs = 3


def test_coarsest_level_is_the_pseudo_inverse(ops):
    # rebuild the coarsest level's matrix and near-null space: the dense
    # operator there is A^+, which vanishes on that space
    B, bs = ops.Zeu, 2
    for A, _, P, R in ops.vcycle.levels:
        _, B = fem._tentative_prolongator(fem._aggregate(fem._node_graph(A, bs)), bs, B)
        bs = 3
    A = (R @ (A @ P)).toarray()
    A = 0.5 * (A + A.T)
    C = ops.vcycle.coarsest
    assert np.max(np.abs(C - C.T)) <= 1e-14 * np.max(np.abs(C))
    assert np.max(np.abs(A @ C @ A - A)) <= 1e-12 * np.max(np.abs(A))
    assert np.max(np.abs(C @ B)) <= 1e-12 * np.max(np.abs(C)) * np.max(np.abs(B))


def test_tentative_prolongators_read_only_the_span():
    # the V-cycle is built on the Euclidean basis Zeu.  A mass-orthonormal
    # basis, the raw generators through a Cholesky factor of their mass Gram
    # matrix, is Zeu U with U upper triangular and a positive diagonal, so the
    # per-aggregate Gram-Schmidt of either gives the same prolongator on every
    # level, and coarse near-null spaces that again differ by such a U
    m = jittered_mesh(N_AMG, N_AMG, np.random.default_rng(61))
    ops = operators(m, DENSITY)
    centred = m.nodes - integral_mean(m, m.nodes)
    raw = np.zeros((2 * m.n_nodes, 3))
    raw[0::2, 0] = raw[1::2, 1] = 1.0
    raw[0::2, 2] = centred[:, 1]
    raw[1::2, 2] = -centred[:, 0]
    L = np.linalg.cholesky(raw.T @ (mass_matrix(m) @ raw))
    Bm, B, bs = raw @ np.linalg.inv(L).T, ops.Zeu, 2
    assert len(ops.vcycle.levels) >= 2
    for A, _, _, _ in ops.vcycle.levels:
        agg = fem._aggregate(fem._node_graph(A, bs))
        T, B = fem._tentative_prolongator(agg, bs, B)
        Tm, Bm = fem._tentative_prolongator(agg, bs, Bm)
        assert abs(T - Tm).max() <= 1e-13
        bs = 3


def test_coarsening_that_stops_on_no_reduction(monkeypatch):
    # with no size limit, coarsening goes on until one aggregate holds the
    # last node: 162 and 27 dofs, then 3, where it stops.  The 3 dofs span
    # only the rigid modes, on whose complement A^+ is zero
    monkeypatch.setattr(fem, "_COARSEST_DOFS", 0)
    m = rect_mesh(8, 8)
    ops = operators(m, DENSITY)
    vcycle = ops.vcycle
    assert [A.shape[0] for A, _, _, _ in vcycle.levels] == [162, 27]
    assert vcycle.coarsest.shape == (3, 3)
    assert np.max(np.abs(vcycle.coarsest)) <= 1e-14
    b = assemble_loads(m, BODY).load_vector.reshape(-1)
    x, it, rel = ops.kplus(b, 1e-10)
    assert it > fem._JACOBI_STEPS
    assert rel <= 1e-10
    exact = np.linalg.pinv(ops.K.toarray(), hermitian=True) @ _complement(ops, b)
    assert np.linalg.norm(x - exact) <= 1e-9 * np.linalg.norm(exact)


def test_coarse_shift_in_the_units_of_the_moduli():
    # on an 8x8 mesh the coarsest level is K itself.  Its shift is the mean
    # diagonal of K, so the pseudo-inverse is exact and the solve takes the
    # same steps for moduli of any size
    m = rect_mesh(8, 8)
    b = assemble_loads(m, BODY).load_vector.reshape(-1)
    counts = [operators(m, Density(c, 1.5 * c)).kplus(b, 1e-10)[1]
              for c in (1e-9, 1.0, 1e6, 8e10)]
    assert len(set(counts)) == 1
    ops = operators(m, Density(1e6, 1e6))
    assert ops.vcycle.levels == []
    K, C = ops.K.toarray(), ops.vcycle.coarsest
    assert np.linalg.norm(K @ C @ K - K) <= 1e-12 * np.linalg.norm(K)


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


def _assert_solved_by_the_multigrid(ops, b, tol=1e-10):
    # the affine start lies far above tol, so the solve iterates with the
    # multigrid, and keeps to its tolerance.  The check is at
    # solve_linear's 1e-10: at 1e-12 the true residual of the body force
    # lies up to 20% above the recursive one that stops the solve, as
    # round-off in K x reaches that level
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
        _assert_solved_by_the_multigrid(ops, b)


def test_amg_agrees_with_jacobi_random_rhs(ops):
    # the second b is rigid but for a part 1e-12 of its size, which kplus
    # must remove before it scales its stopping rule by b
    rng = np.random.default_rng(64)
    noise = rng.standard_normal(ops.K.shape[0])
    for b in (noise, ops.Zeu @ rng.standard_normal(3) + 1e-12 * noise):
        amg, jacobi = _solutions(ops, b)
        assert np.linalg.norm(amg - jacobi) <= 1e-9 * np.linalg.norm(jacobi)
        _assert_solved_by_the_multigrid(ops, b)


def _vcycle_cg(ops, b, tol):
    # CG from the affine start, preconditioned by the V-cycle from its first
    # step, with kplus's stopping rule: its iteration count
    Z, K = ops.Zeu, ops.K
    inv_diag = 1.0 / K.diagonal()
    b = b - Z @ (Z.T @ b)
    denom = np.sqrt(b @ (inv_diag * b))
    x = ops.X @ np.linalg.solve(ops.XKX, ops.X.T @ b)
    r = b - K @ x
    r -= Z @ (Z.T @ r)
    it = 0
    while np.sqrt(r @ (inv_diag * r)) / denom > tol:
        z = ops.vcycle(r)
        rho_new = r @ z
        p = z if it == 0 else z + (rho_new / rho) * p
        rho = rho_new
        Kp = K @ p
        alpha = rho / (p @ Kp)
        x += alpha * p
        r -= alpha * Kp
        it += 1
    return it


def test_far_start_skips_the_jacobi_phase(mesh, ops):
    # the residual of the body force's affine start is above 1e7 tol: kplus
    # takes the V-cycle from the first step, as the reference does
    b = assemble_loads(mesh, BODY).load_vector.reshape(-1)
    _, it, _ = ops.kplus(b, 1e-10)
    assert it == _vcycle_cg(ops, b, 1e-10)


def test_near_start_restarts_after_the_jacobi_phase(ops):
    # white noise measured against a reference 1e6 times its size: the
    # residual of the start is about 100 tol, within _JACOBI_START tol, so
    # the Jacobi phase runs; the diagonal barely reaches the smooth part of
    # the noise, and CG restarts from its x with the V-cycle, which settles
    # it to tol in 8 steps.  Carrying the Jacobi phase's search direction
    # into the V-cycle phase instead takes 138 or 139
    b = _complement(ops, np.random.default_rng(65).standard_normal(ops.K.shape[0]))
    tol = 1e-8
    x, it, rel = ops.kplus(b, tol, 1e6 * b)
    assert fem._JACOBI_STEPS < it <= fem._JACOBI_STEPS + 20
    assert rel <= tol
    assert rel == pytest.approx(_relative_residual(ops, b, x) / 1e6, rel=1e-12)


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


@pytest.mark.parametrize("lam", [1.0, 100.0])
def test_returned_residual_is_the_true_one(mesh, lam):
    # CG stops on its recursive residual but reports the true one of x.  On
    # stiff material the two differ, and at 1e-12 the true one stays above tol
    ops = operators(mesh, Density(1.0, lam))
    b = assemble_loads(mesh, BODY).load_vector.reshape(-1)
    x, it, rel = ops.kplus(b, 1e-12)
    assert it > 0
    assert rel == pytest.approx(_relative_residual(ops, b, x), rel=1e-12)
    if lam == 100.0:
        assert rel > 1e-12


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


def test_galerkin_matrix_in_closed_form():
    # X' K X is |Omega| times the density on the three constant gradients:
    # it agrees with the product, and the shear field is exactly uncoupled
    # from the normal ones, which the product with K is only to round-off
    meshes = (jittered_mesh(8, 7, np.random.default_rng(67)),
              rect_mesh(8, 7, (-0.35, 0.85), (0.1, 0.73)))
    for m, lam in ((m, lam) for m in meshes for lam in (0.0, 1.0, 100.0)):
        ops = operators(m, Density(1.0, lam))
        XKX = ops.X.T @ (ops.K @ ops.X)
        assert np.max(np.abs(ops.XKX - XKX)) <= 1e-13 * np.max(np.abs(XKX))
        assert ops.XKX[0, 2] == ops.XKX[1, 2] == 0.0


@pytest.mark.parametrize("lam", [0.0, 1.0, 100.0])
def test_diagonal_and_affine_forces_from_the_elements(lam):
    # the bundle's inverse diagonal and K X are built without K, on a jittered
    # square and on a nonconvex domain; K itself, built on first use, is the
    # mesh's stiffness
    for m in (jittered_mesh(9, 7, np.random.default_rng(70)),
              l_shaped_mesh(8, np.random.default_rng(71))):
        density = Density(1.0, lam)
        ops = operators(m, density)
        assert "K" not in ops.__dict__
        ref = 1.0 / ops.K.diagonal()
        assert np.max(np.abs(ops.inv_diag - ref) / ref) <= 1e-15
        KX = ops.K @ ops.X
        assert np.max(np.abs(ops.KX.toarray() - KX)) <= 1e-14 * np.max(np.abs(KX))
        assert (ops.K != assemble_stiffness(m, density)).nnz == 0


def test_homogeneous_solves_build_no_stiffness(tmp_path, monkeypatch):
    # the affine start settles every K^+ solve of these runs, so none of them
    # assembles K or builds the multigrid
    def refuse(*args, **kwargs):
        raise AssertionError("built on a path that the affine start settles")

    monkeypatch.setattr(fem, "assemble_stiffness", refuse)
    monkeypatch.setattr(fem, "_VCycle", refuse)
    runs = ((["solve-limit", "tension", "--mesh-n", "64"], 0),
            (["solve-limit", "infmany", "--mesh-n", "64"], 0),
            (["run", "infmany"], 0), (["run", "compression"], 2))
    for k, (argv, code) in enumerate(runs):
        assert main(argv + ["--out", str(tmp_path / str(k))]) == code


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

    # the body force's start lies far above its tolerance: it iterates with
    # the multigrid from the first step and builds the hierarchy once
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
        ops = operators(m, DENSITY)
        refs = [weakref.ref(m), weakref.ref(ops.K), weakref.ref(ops.vcycle)]
        del m, sol, ops
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()
