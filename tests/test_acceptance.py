"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from conftest import (admissible_field, infmany_spec, pressure_spec, sweep_inputs,
                      zero_loads, zero_spec)
from tractionlab.algebra import Density, J2, rodrigues, skew2
from tractionlab.fem import (DisplacementField, element_strains, linear_field,
                             solve_linear)
from tractionlab.limit import limit_report, minimize_limit, shifted_minimizer
from tractionlab.loads import (INCOMPATIBLE, STRICT, WEAK, assemble_loads,
                               classify_moment_matrix)
from tractionlab.mesh import rect_mesh
from tractionlab.nonlinear import (CONVERGED, DIVERGED, eval_rescaled, h_sweep,
                                   minimize_rescaled, rescaled_gradient)
from tractionlab.scenarios import builtin_scenarios
from test_loads import brute_force_class, fibonacci_sphere
from test_nonlinear import homogeneous_oracle


def ok(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def density():
    return Density(1.0, 1.0)


@pytest.fixture(scope="module")
def tension_ctx(density):
    sc = builtin_scenarios()["tension"]
    mesh = sc.build_mesh()     # 32 x 32
    assembly = assemble_loads(mesh, sc.load_spec(), sc.tol)
    t0 = time.perf_counter()
    linear = solve_linear(density, assembly)
    limit = minimize_limit(density, assembly, linear)
    elapsed = time.perf_counter() - t0
    return {"scenario": sc, "mesh": mesh, "assembly": assembly,
            "linear": linear, "limit": limit, "seconds": elapsed}


@pytest.fixture(scope="module")
def sweep_ctx(density):
    sc = builtin_scenarios()["tension"]
    mesh = sc.build_mesh()
    t0 = time.perf_counter()
    result = h_sweep(density, *sweep_inputs(mesh, density, sc.load_spec(), sc.tol),
                     sc.h_list)
    elapsed = time.perf_counter() - t0
    return {"result": result, "seconds": elapsed, "h_list": sc.h_list}


@pytest.fixture(scope="module")
def infmany_ctx(density):
    sc = builtin_scenarios()["infmany"]
    mesh = sc.build_mesh()
    assembly, limit = sweep_inputs(mesh, density, sc.load_spec(), sc.tol)
    return {"mesh": mesh, "assembly": assembly, "limit": limit, "scenario": sc}


def test_criterion_1_minimum_coincidence(tension_ctx):
    # tension, 32x32: min F = min E = -16 with W_star = 0, within 5 s
    lim = tension_ctx["limit"]
    lin = tension_ctx["linear"]
    assert lin.energy == pytest.approx(-16.0, abs=1e-9)
    assert np.linalg.norm(lim.W_star) <= 1e-6
    assert abs(lim.F_value - lim.E_value) <= 1e-9 * (1.0 + abs(lim.E_value))
    assert lim.F_value == pytest.approx(-16.0, abs=1e-9)
    assert tension_ctx["seconds"] <= 5.0
    ok(1, f"min F = {lim.F_value!r}, |W_star| = {np.linalg.norm(lim.W_star):.1e}, "
          f"{tension_ctx['seconds']:.2f} s")


def test_criterion_2_classification_trichotomy(density):
    mesh = rect_mesh(32, 32)
    landmarks = [
        (pressure_spec(1.0), STRICT, np.eye(2)),
        (pressure_spec(-1.0), INCOMPATIBLE, -np.eye(2)),
        (infmany_spec(), WEAK, np.array([[0.0, 1.0], [1.0, 0.0]])),
    ]
    for spec, expected_class, expected_S in landmarks:
        cls = assemble_loads(mesh, spec).classification
        assert cls.compat_class == expected_class
        assert np.max(np.abs(cls.moment_matrix - expected_S)) <= 1e-12
        if expected_class == INCOMPATIBLE:
            assert cls.witness is not None and cls.sup_gap == np.inf
    # the built-in scenarios themselves classify the same way
    for name, expected in (("tension", STRICT), ("compression", INCOMPATIBLE),
                           ("infmany", WEAK)):
        sc = builtin_scenarios()[name]
        m = sc.build_mesh()
        cls = assemble_loads(m, sc.load_spec(), sc.tol).classification
        assert cls.compat_class == expected
    ok(2, "strict / incompatible(witness) / weak with S = I, -I, e1e2+e2e1 to 1e-12")


def test_criterion_3_unboundedness_certificate(density):
    mesh = rect_mesh(32, 32)
    compression = assemble_loads(mesh, pressure_spec(-1.0))
    W = skew2(1.0)
    for h in (0.2, 0.1, 0.05):
        A = (0.5 * (W @ W) + 0.5 * np.sqrt(3.0) * W) / h
        val = eval_rescaled(density, compression, linear_field(mesh, A), h)
        assert val == pytest.approx(-1.0 / h, rel=1e-12)
    res = minimize_rescaled(mesh, density, compression, 0.1)
    assert res.status == DIVERGED
    assert res.certificate is not None
    assert np.min(res.certificate.trace) <= -10.0
    ok(3, "rotation sequence reproduces f|Omega|/h to 1e-12; minimizer Diverged")


def test_criterion_4_slow_rotation_sequence():
    mesh = rect_mesh(16, 16)
    d = Density(1.0, 0.0)
    for h in (1e-2, 1e-3, 1e-4):
        v = linear_field(mesh, h ** -0.25 * J2)
        val = eval_rescaled(d, zero_loads(mesh), v, h)
        assert val == pytest.approx(2.0 * h, rel=1e-12)
    ok(4, "Fh(h^(-1/4) J x) = 2 h |Omega| to 1e-12 for h in {1e-2, 1e-3, 1e-4}")


def test_criterion_5_limit_convergence_surrogate(sweep_ctx):
    result = sweep_ctx["result"]
    records = result.records
    assert [r.h for r in records] == list(sweep_ctx["h_list"])
    assert all(r.status == CONVERGED for r in records)
    gaps = [abs(r.Fh - (-16.0)) for r in records]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    oracle_h01 = homogeneous_oracle(0.1)
    assert oracle_h01 == pytest.approx(-14.655, abs=1e-3)
    for r in records:
        assert r.Fh <= homogeneous_oracle(r.h) + 1e-8
        assert r.W_proxy <= 1e-4
    dists = [r.moment_dist for r in records]
    assert all(a > b for a, b in zip(dists, dists[1:])), dists
    assert sweep_ctx["seconds"] <= 60.0
    ok(5, f"|min Fh + 16| strictly decreasing {['%.4f' % g for g in gaps]}, "
          f"W-proxy <= 1e-4, {sweep_ctx['seconds']:.1f} s")


def test_criterion_6_extra_minimizers(infmany_ctx, density):
    lim = infmany_ctx["limit"]
    for t in (0.5, 1.0, 2.0):
        _, rec = shifted_minimizer(density, infmany_ctx["assembly"], lim, t)
        assert rec.F_delta <= 1e-8 * (1.0 + abs(lim.F_value))
        assert rec.E_delta > 0.0
    ok(6, "F(v0 - t x) stays minimal while E strictly grows, t in {0.5, 1, 2}")


def test_criterion_7_property_suites(density):
    mesh = rect_mesh(8, 8)
    tension = assemble_loads(mesh, pressure_spec(16.0))
    rng = np.random.default_rng(71)

    # gradient versus central finite differences at 20 admissible states
    h = 0.1
    for _ in range(20):
        v = admissible_field(mesh, rng, h)
        g = rescaled_gradient(density, tension, v, h).reshape(-1)
        flat = v.values.reshape(-1)
        eps = 1e-6 * (1.0 + np.linalg.norm(flat))
        fd = np.empty_like(flat)
        for i in range(flat.size):
            up, dn = flat.copy(), flat.copy()
            up[i] += eps
            dn[i] -= eps
            fd[i] = (eval_rescaled(density, tension, DisplacementField(mesh, up), h)
                     - eval_rescaled(density, tension, DisplacementField(mesh, dn), h)
                     ) / (2.0 * eps)
        assert np.linalg.norm(fd - g) <= 1e-6 * (1.0 + np.linalg.norm(g))

    # limit energy never exceeds the classical one on 200 random fields,
    # and the 2D gap formula matches the direct inner minimization
    zero = assemble_loads(mesh, zero_spec())
    for _ in range(200):
        v = DisplacementField(mesh, rng.standard_normal((mesh.n_nodes, 2)))
        rep = limit_report(mesh, density, zero, v)
        assert rep.gap >= -1e-12
        assert rep.gap == pytest.approx(rep.gap_formula, abs=1e-10 * (1 + abs(rep.E_value)))

    # patch test on three resolutions
    from tractionlab.loads import LoadSpec, constant_traction
    for n in (4, 8, 16):
        m = rect_mesh(n, n)
        Estar = np.array([[0.8, -0.3], [-0.3, 1.4]])
        G = density.quadratic_gradient(Estar)
        spec = LoadSpec({
            "left": constant_traction(*(-G[:, 0])),
            "right": constant_traction(*G[:, 0]),
            "bottom": constant_traction(*(-G[:, 1])),
            "top": constant_traction(*G[:, 1]),
        })
        sol = solve_linear(density, assemble_loads(m, spec), tol=1e-12)
        assert np.max(np.abs(element_strains(sol.field) - Estar[None])) <= 1e-10

    # frame indifference spot checks
    for _ in range(10):
        v = admissible_field(mesh, rng, h)
        R = rodrigues(rng.uniform(0, 2 * np.pi), skew2(1.0))
        rotated = DisplacementField(
            mesh, ((mesh.nodes + h * v.values) @ R.T - mesh.nodes) / h)
        a = eval_rescaled(density, zero_loads(mesh), v, h)
        b = eval_rescaled(density, zero_loads(mesh), rotated, h)
        assert b == pytest.approx(a, rel=1e-10)

    # 3D classifier against the sphere-grid brute force on 50 random matrices
    grid = fibonacci_sphere(10_000)
    rng3 = np.random.default_rng(34)
    for _ in range(50):
        S = rng3.standard_normal((3, 3))
        cls, *_ = classify_moment_matrix(S)
        brute = brute_force_class(S, grid, 1e-3 * np.linalg.norm(S))
        assert brute != WEAK        # seed chosen away from the boundary band
        assert cls == brute

    ok(7, "gradient fd, F <= E, gap formula, patch test, frame indifference, "
          "3D brute force: all within stated tolerances")


def test_criterion_8_qualitative_lower_bound(sweep_ctx):
    result = sweep_ctx["result"]
    floor = result.energy_floor
    assert np.isfinite(floor)
    # strict loads: Fh is bounded below, so the floor stays finite and modest
    floor_bound = 1e6
    assert floor > -floor_bound
    for r in result.records:
        assert r.Fh >= floor - 1e-12
    ok(8, f"finite recorded floor {floor:.6f}; no evaluation fell below it")
