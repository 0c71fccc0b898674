import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from campaigns import LbfgsDraw, lbfgs_draws, lbfgs_run
from conftest import (SIDES, admissible_field, body_spec, infmany_spec, jittered_mesh,
                      pressure_spec, spd_body_spec, stress_spec, sweep_inputs,
                      two_side_pressures, zero_loads, zero_spec)
from tractionlab import fem, loads, nonlinear
from tractionlab.algebra import Density, J2, rodrigues, skew2
from tractionlab.fem import (DisplacementField, NotEquilibratedError, elastic_energy,
                             element_strains, integral_mean, linear_field, solve_linear)
from tractionlab.limit import IncompatibleLoadsError, limit_report, minimize_limit
from tractionlab.loads import (INCOMPATIBLE, BodyForce, LoadSpec, MeshMismatchError,
                               TractionRule, assemble_loads, constant_traction, pressure)
from tractionlab.mesh import rect_mesh, refine
from tractionlab.nonlinear import (_H0_CG_TOL, CONVERGED, DIVERGED, ITER_LIMIT, STALLED,
                                   InadmissibleStateError, SweepRefusedError,
                                   _h0, eval_rescaled, h_sweep,
                                   mean_skew_gradient, minimize_rescaled,
                                   rescaled_gradient, rotation_path_field, strain_moments)
from tractionlab.scenarios import DEFAULT_H_LIST, Scenario

W_UNIT = skew2(1.0)


@pytest.fixture(scope="module")
def mesh():
    return rect_mesh(8, 8)


@pytest.fixture(scope="module")
def density():
    return Density(1.0, 1.0)


@pytest.fixture(scope="module")
def tension(mesh):
    return assemble_loads(mesh, pressure_spec(16.0))


@pytest.fixture(scope="module")
def compression(mesh):
    return assemble_loads(mesh, pressure_spec(-1.0))


def homogeneous_oracle(h, p=16.0, modulus=16.0):
    """1-D oracle: minimize modulus*(g + h g^2/2)^2 - 2 p g over gamma."""
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(
        lambda g: modulus * (g + 0.5 * h * g * g) ** 2 - 2.0 * p * g,
        bounds=(0.0, 2.0), method="bounded", options={"xatol": 1e-14},
    )
    return res.fun


class TestEval:
    def test_reference_state_is_zero(self, mesh, density, tension):
        v = DisplacementField(mesh, np.zeros((mesh.n_nodes, 2)))
        assert eval_rescaled(density, tension, v, 0.3) == 0.0

    @pytest.mark.parametrize("h", [0.2, 0.1, 0.05])
    def test_rotation_sequence_compression(self, mesh, density, compression, h):
        # stored term vanishes by frame indifference; value is f |Omega| / h
        W = W_UNIT
        A = (0.5 * (W @ W) + 0.5 * np.sqrt(3.0) * W) / h
        v = linear_field(mesh, A)
        val = eval_rescaled(density, compression, v, h)
        assert val == pytest.approx(-1.0 / h, rel=1e-12)

    @pytest.mark.parametrize("h", [1e-2, 1e-3, 1e-4])
    def test_slow_rotation_sequence(self, mesh, h):
        # v = h^(-1/4) J x with the plain quadratic density: value 2 h |Omega|
        d = Density(1.0, 0.0)
        v = linear_field(mesh, h ** -0.25 * J2)
        val = eval_rescaled(d, zero_loads(mesh), v, h)
        assert val == pytest.approx(2.0 * h, rel=1e-12)

    def test_orientation_loss_infinite(self, mesh, density):
        v = linear_field(mesh, np.diag([-2.0, 0.0]))
        assert eval_rescaled(density, zero_loads(mesh), v, 1.0) == np.inf

    def test_rejects_nonpositive_h(self, mesh, density, tension):
        v = DisplacementField(mesh, np.zeros((mesh.n_nodes, 2)))
        with pytest.raises(ValueError):
            eval_rescaled(density, tension, v, 0.0)

    @pytest.mark.parametrize("h", [np.inf, np.nan, 0.0, -1.0])
    def test_h_must_be_finite_and_positive(self, mesh, density, tension, compression, h):
        # checked where every evaluation forms the deformation, and, for
        # incompatible loads, before the certificate's field divides by h
        v = DisplacementField(mesh, np.zeros((mesh.n_nodes, 2)))
        calls = (lambda: eval_rescaled(density, tension, v, h),
                 lambda: rescaled_gradient(density, tension, v, h),
                 lambda: minimize_rescaled(mesh, density, tension, h),
                 lambda: minimize_rescaled(mesh, density, compression, h))
        for call in calls:
            with pytest.raises(ValueError, match="h must be finite and positive"):
                call()

    def test_frame_indifference_of_stored_term(self, mesh, density):
        # replacing y = x + h v by R y leaves the stored term unchanged
        rng = np.random.default_rng(61)
        h = 0.1
        for _ in range(10):
            v = admissible_field(mesh, rng, h)
            R = rodrigues(rng.uniform(0, 2 * np.pi), W_UNIT)
            rotated = DisplacementField(
                mesh, ((mesh.nodes + h * v.values) @ R.T - mesh.nodes) / h
            )
            a = eval_rescaled(density, zero_loads(mesh), v, h)
            b = eval_rescaled(density, zero_loads(mesh), rotated, h)
            assert b == pytest.approx(a, rel=1e-10)

    def test_energy_consistency_rate(self, mesh, density, tension):
        # eval + L converges to the quadratic energy at rate O(h)
        rng = np.random.default_rng(62)
        v = admissible_field(mesh, rng, 0.1, amplitude=0.4)
        target = elastic_energy(density, tension, v) \
            + float(np.sum(tension.load_vector * v.values))
        errs = []
        hs = (1e-1, 1e-2, 1e-3)
        for h in hs:
            val = eval_rescaled(density, zero_loads(mesh), v, h)
            errs.append(abs(val - target))
        # err <= C h with C fitted at the largest h (higher-order terms only
        # shrink the ratio as h decreases)
        C = errs[0] / hs[0]
        for h, err in zip(hs, errs):
            assert err <= C * h * (1.0 + 1e-12)
        ratios = [e / h for e, h in zip(errs, hs)]
        assert all(a >= b * (1.0 - 1e-12) for a, b in zip(ratios, ratios[1:]))


class TestGradient:
    def test_zero_state_zero_loads(self, mesh, density):
        v = DisplacementField(mesh, np.zeros((mesh.n_nodes, 2)))
        g = rescaled_gradient(density, zero_loads(mesh), v, 0.2)
        assert np.max(np.abs(g)) == 0.0

    def test_zero_state_with_loads(self, mesh, density, tension):
        v = DisplacementField(mesh, np.zeros((mesh.n_nodes, 2)))
        g = rescaled_gradient(density, tension, v, 0.2)
        assert np.array_equal(g, -tension.load_vector)

    def test_inadmissible_state_rejected(self, mesh, density):
        v = linear_field(mesh, np.diag([-2.0, 0.0]))
        with pytest.raises(InadmissibleStateError):
            rescaled_gradient(density, zero_loads(mesh), v, 1.0)

    def test_assembly_on_another_mesh_rejected(self, density):
        # the same 4x4 connectivity on another rectangle: the energy and its
        # gradient both refuse loads assembled on the first mesh
        mesh, other = rect_mesh(4, 4), rect_mesh(4, 4, x_range=(-1.0, 1.0))
        asm = assemble_loads(mesh, pressure_spec(16.0))
        v = admissible_field(other, np.random.default_rng(64), 0.2)
        for evaluate in (eval_rescaled, rescaled_gradient):
            with pytest.raises(MeshMismatchError):
                evaluate(density, asm, v, 0.2)

    def test_matches_central_differences(self, mesh, density, tension):
        rng = np.random.default_rng(63)
        h = 0.1
        for _ in range(20):
            v = admissible_field(mesh, rng, h)
            g = rescaled_gradient(density, tension, v, h).reshape(-1)
            flat = v.values.reshape(-1)
            eps = 1e-6 * (1.0 + np.linalg.norm(flat))
            fd = np.empty_like(flat)
            for i in range(flat.size):
                up = flat.copy()
                dn = flat.copy()
                up[i] += eps
                dn[i] -= eps
                fp = eval_rescaled(density, tension,
                                   DisplacementField(mesh, up), h)
                fm = eval_rescaled(density, tension,
                                   DisplacementField(mesh, dn), h)
                fd[i] = (fp - fm) / (2.0 * eps)
            assert np.linalg.norm(fd - g) <= 1e-6 * (1.0 + np.linalg.norm(g))


class TestMinimize:
    def test_tension_upper_bounded_by_homogeneous_oracle(self, mesh, density, tension):
        h = 0.1
        init = solve_linear(density, tension).field
        res = minimize_rescaled(mesh, density, tension, h, init=init)
        assert res.status == CONVERGED
        assert res.value <= -14.65
        oracle = homogeneous_oracle(h)
        assert res.value <= oracle + 1e-8
        assert res.grad_norm <= 1e-8 * (1.0 + abs(res.value))

    def test_zero_loads_stay_at_reference(self, mesh, density):
        asm = assemble_loads(mesh, zero_spec())
        res = minimize_rescaled(mesh, density, asm, 0.1)
        assert res.status == CONVERGED
        assert res.value == 0.0
        assert res.iterations == 0

    def test_compression_diverges_with_certificate(self, mesh, density, compression):
        h = 0.1
        res = minimize_rescaled(mesh, density, compression, h)
        assert res.status == DIVERGED
        cert = res.certificate
        assert cert is not None
        # the certificate lies below f |Omega| / h = -10, the value at theta = pi/3
        assert np.min(cert.trace) <= -10.0
        assert np.any(cert.trace <= -10.0 + 1e-9)
        # at theta = pi, Fh = 2 tr S / h = 2 (-2) / 0.1 on the unit square
        assert list(cert.thetas) == [np.pi]
        assert cert.trace[0] == pytest.approx(-40.0, rel=1e-12)
        assert cert.witness_work == pytest.approx(1.0, rel=1e-12)

    def test_descent_monotonicity(self, mesh, density, tension):
        init = solve_linear(density, tension).field
        res = minimize_rescaled(mesh, density, tension, 0.1, init=init)
        trace = np.asarray(res.energy_trace)
        assert np.all(np.diff(trace) <= 1e-12 * (1.0 + np.abs(trace[:-1])))

    def test_floor_not_above_final_value(self, mesh, density, tension):
        init = solve_linear(density, tension).field
        res = minimize_rescaled(mesh, density, tension, 0.1, init=init)
        assert res.energy_floor <= res.value
        assert np.isfinite(res.energy_floor)

    def test_inputs_on_another_mesh_rejected(self, density):
        # the same 4x4 connectivity on another rectangle
        mesh, other = rect_mesh(4, 4), rect_mesh(4, 4, x_range=(-1.0, 1.0))
        asm = assemble_loads(mesh, pressure_spec(16.0))
        init = DisplacementField(other, np.zeros((other.n_nodes, 2)))
        with pytest.raises(MeshMismatchError):
            minimize_rescaled(mesh, density, asm, 0.2, init=init)
        with pytest.raises(MeshMismatchError):
            minimize_rescaled(other, density, asm, 0.2)

    def test_inadmissible_init_rejected(self, mesh, density, tension):
        bad = linear_field(mesh, np.diag([-20.0, 0.0]))
        with pytest.raises(InadmissibleStateError):
            minimize_rescaled(mesh, density, tension, 0.1, init=bad)

    def test_one_deformation_per_evaluation(self, mesh, density, tension, monkeypatch):
        # Fh = +inf is the one orientation test: no trial and no iterate forms
        # the deformation outside an energy or a gradient evaluation
        calls = dict.fromkeys(("_deformation", "eval_rescaled", "rescaled_gradient"), 0)
        for name in calls:
            def counted(*args, f=getattr(nonlinear, name), name=name):
                calls[name] += 1
                return f(*args)
            monkeypatch.setattr(nonlinear, name, counted)
        res = minimize_rescaled(mesh, density, tension, 0.2)
        assert res.status == CONVERGED and res.iterations > 0
        assert calls["_deformation"] == calls["eval_rescaled"] + calls["rescaled_gradient"]

    def test_not_equilibrated_rejected(self, mesh, density):
        # the constant traction (1, 0) on every side has resultant (4, 0): Fh
        # falls without bound along translations, so no status may be returned
        spec = LoadSpec({tag: constant_traction(1.0, 0.0) for tag in SIDES})
        asm = assemble_loads(mesh, spec)
        with pytest.raises(NotEquilibratedError) as err:
            minimize_rescaled(mesh, density, asm, 0.1)
        assert err.value.force_residual == pytest.approx(4.0, rel=1e-12)
        shift = DisplacementField(mesh, np.tile([1000.0, 0.0], (mesh.n_nodes, 1)))
        assert eval_rescaled(density, asm, shift, 0.1) == pytest.approx(-4000.0, rel=1e-12)

    def test_line_search_exhaustion_returns_the_start(self, mesh, density, tension,
                                                      monkeypatch):
        # every trial after the start is outside the domain of Fh: 80 halvings
        # each hit the barrier, and the minimization ends at its start
        evaluate = nonlinear.eval_rescaled
        calls = []

        def barrier_after_start(*args):
            calls.append(1)
            return evaluate(*args) if len(calls) == 1 else np.inf

        monkeypatch.setattr(nonlinear, "eval_rescaled", barrier_after_start)
        init = solve_linear(density, tension).field
        res = minimize_rescaled(mesh, density, tension, 0.1, init=init)
        assert res.status == ITER_LIMIT
        assert res.barrier_hits == 80
        assert res.iterations == 1
        assert res.energy_trace == [res.value]
        start = init.values - integral_mean(mesh, init.values)
        assert np.array_equal(res.field.values, start)

    def test_infimum_on_the_orientation_barrier_stalls(self):
        # with lam = 0 the iterates press against det(I + h grad v) = 0, where the
        # gradient does not vanish, and the minimization stops short of a
        # minimum.  This is a rotation trap, not an infimum: with phi = x~ + h v,
        # l.phi < 0, so the half turn phi -> -phi lowers Fh by 2 |l.phi| / h.
        # The last bits of the start decide whether the run ends stalled or its
        # line search is exhausted at the barrier (iter_limit); the trap, its
        # energy and that the barrier is hit do not depend on them
        mesh = rect_mesh(8, 8)
        density = Density(1.0, 0.0)
        h = 0.8
        spec = LoadSpec({"left": pressure(25.05), "right": pressure(25.05),
                         "top": pressure(23.99), "bottom": pressure(23.99)})
        asm, lim = sweep_inputs(mesh, density, spec)
        centred = mesh.nodes - integral_mean(mesh, mesh.nodes)
        v = lim.field.values
        eps = np.finfo(float).eps
        starts = [v] + [v * (1.0 + eps * np.random.default_rng(seed).uniform(-1.0, 1.0, v.shape))
                        for seed in range(8)]
        for start in starts:
            res = minimize_rescaled(mesh, density, asm, h, init=DisplacementField(mesh, start))
            assert res.status == STALLED or (res.status == ITER_LIMIT and res.iterations < 2000)
            assert res.barrier_hits > 0
            assert res.grad_norm > 10.0
            assert res.value == pytest.approx(76.704758, rel=1e-6)
            work = float(np.sum(asm.load_vector * (centred + h * res.field.values)))
            assert work == pytest.approx(-10.2042, rel=1e-5)


def sweep(mesh, density, spec, h_list):
    return h_sweep(density, *sweep_inputs(mesh, density, spec), h_list)


class TestSweep:
    def test_tension_sweep_monotone(self, mesh, density):
        asm, lim = sweep_inputs(mesh, density, pressure_spec(16.0))
        sw = h_sweep(density, asm, lim, (0.2, 0.1, 0.05))
        assert all(r.status == CONVERGED for r in sw.records)
        gaps = [abs(r.Fh + 16.0) for r in sw.records]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        proxies = [r.W_proxy for r in sw.records]
        assert max(proxies) <= 1e-4
        dists = [r.moment_dist for r in sw.records]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert np.isfinite(sw.energy_floor)
        assert all(r.Fh >= sw.energy_floor - 1e-12 for r in sw.records)
        assert lim.F_value == pytest.approx(-16.0, abs=1e-9)
        assert np.sum(lim.W_star ** 2) <= 1e-12

    def test_upper_bound_by_oracle(self, mesh, density):
        sw = sweep(mesh, density, pressure_spec(16.0), (0.2, 0.1))
        for r in sw.records:
            assert r.Fh <= homogeneous_oracle(r.h) + 1e-8

    def test_compression_refused(self, mesh, density):
        # incompatible loads have no limit minimizer: sweep_inputs passes None
        with pytest.raises(IncompatibleLoadsError):
            sweep(mesh, density, pressure_spec(-1.0), (0.2, 0.1))

    def test_weak_refused(self, mesh, density):
        with pytest.raises(SweepRefusedError, match="compactness"):
            sweep(mesh, density, infmany_spec(), (0.2, 0.1))

    def test_h_list_must_decrease(self, mesh, density):
        with pytest.raises(ValueError):
            sweep(mesh, density, pressure_spec(16.0), (0.1, 0.2))

    def test_refinements_argument(self, density):
        # refinement belongs to the scenario's mesh, and the sweep runs on it
        sc = Scenario(nx=4, ny=4, refinements=1, tractions=pressure_spec(16.0).tractions)
        m = sc.build_mesh()
        fine = refine(rect_mesh(4, 4))
        assert m.n_nodes == 81
        assert np.array_equal(m.nodes, fine.nodes)
        assert np.array_equal(m.elements, fine.elements)
        assert m.edge_tags == fine.edge_tags
        sw = sweep(m, density, sc.load_spec(), (0.2, 0.1))
        assert all(r.status == CONVERGED for r in sw.records)

    def test_given_limit_minimizer_is_the_warm_start(self, mesh, density):
        asm, lim = sweep_inputs(mesh, density, pressure_spec(16.0))
        sw = h_sweep(density, asm, lim, (0.2, 0.1))
        first = minimize_rescaled(mesh, density, asm, 0.2, init=lim.field)
        assert (sw.records[0].Fh, sw.records[0].iters) == (first.value, first.iterations)
        dist = np.linalg.norm(strain_moments(first.field) - strain_moments(lim.field))
        assert sw.records[0].moment_dist == dist

    def test_strict_sweep_never_probes(self, mesh, density, monkeypatch):
        # strict loads have Tr S > 0, so no sweep point classifies them incompatible
        calls = []
        monkeypatch.setattr(nonlinear, "_instability_probe",
                            lambda *args, **kw: calls.append(args))
        sw = sweep(mesh, density, pressure_spec(16.0), (0.2, 0.1))
        assert [r.status for r in sw.records] == [CONVERGED] * 2
        assert len(calls) == 0

    def test_assembly_tol_decides(self, mesh, density):
        # infmany plus a 1e-6 pressure: weak at tol 1e-3, strict at the default 1e-9
        spec = LoadSpec({tag: TractionRule("constant", v) for tag, v in
                         (("right", (1e-6, 1.0)), ("left", (-1e-6, -1.0)),
                          ("top", (1.0, 1e-6)), ("bottom", (-1.0, -1e-6)))})
        asm, lim = sweep_inputs(mesh, density, spec, 1e-3)
        assert asm.classification.compat_class == "weak"
        with pytest.raises(SweepRefusedError, match="compactness"):
            h_sweep(density, asm, lim, (0.1, 0.05))
        asm, lim = sweep_inputs(mesh, density, spec, 1e-9)
        assert asm.classification.compat_class == "strict"
        sw = h_sweep(density, asm, lim, (0.1,))
        assert [r.status for r in sw.records] == [CONVERGED]

    def test_loads_classified_once(self, mesh, density, monkeypatch):
        # assemble_loads classifies; no later stage classifies again
        calls = []
        classify = loads.classify_moment_matrix
        monkeypatch.setattr(loads, "classify_moment_matrix",
                            lambda *args: calls.append(args) or classify(*args))
        asm = assemble_loads(mesh, pressure_spec(16.0))
        compression = assemble_loads(mesh, pressure_spec(-1.0))
        assert len(calls) == 2
        lim = minimize_limit(density, asm, solve_linear(density, asm))
        sw = h_sweep(density, asm, lim, (0.2, 0.1))
        assert [r.status for r in sw.records] == [CONVERGED] * 2
        minimize_rescaled(mesh, density, asm, 0.2, init=lim.field)
        assert minimize_rescaled(mesh, density, compression, 0.2).status == DIVERGED
        assert len(calls) == 2

    def test_not_equilibrated_rejected(self, mesh, density):
        # strict moment matrix, but the constant body force (1, 0) leaves a
        # resultant; the sweep raises from its first minimization
        spec = LoadSpec(pressure_spec(16.0).tractions, BodyForce("constant", (1.0, 0.0)))
        asm = assemble_loads(mesh, spec)
        cls = asm.classification
        assert cls.compat_class == "strict" and not cls.equilibrated
        zero = DisplacementField(mesh, np.zeros((mesh.n_nodes, 2)))
        with pytest.raises(NotEquilibratedError):
            h_sweep(density, asm, limit_report(mesh, density, asm, zero), (0.2, 0.1))

    def test_inputs_on_another_mesh_rejected(self, mesh, density):
        spec = pressure_spec(16.0)
        asm, lim = sweep_inputs(mesh, density, spec)
        other = rect_mesh(8, 8)
        asm_other, lim_other = sweep_inputs(other, density, spec)
        for a, lm in ((asm_other, lim), (asm, lim_other)):
            with pytest.raises(MeshMismatchError):
                h_sweep(density, a, lm, (0.2, 0.1))


class TestPreconditionedSolver:
    def test_h0_symmetric_positive_definite(self, mesh, density):
        ops = fem.operators(mesh, density)
        rng = np.random.default_rng(64)
        U = rng.standard_normal((6, 2 * mesh.n_nodes))
        for gamma in (1.0, 1e-3):
            G = U @ np.array([_h0(ops, u, gamma, u)[0] for u in U]).T
            assert np.all(np.diag(G) > 0.0)
            assert np.linalg.eigvalsh(0.5 * (G + G.T))[0] > 0.0
            # K^+ is applied by an inner solve, so symmetry holds to its tolerance
            scale = np.sqrt(np.outer(np.diag(G), np.diag(G)))
            assert np.max(np.abs(G - G.T) / scale) <= 10.0 * _H0_CG_TOL

    def test_h0_scales_rigid_span_by_gamma(self, mesh, density):
        ops = fem.operators(mesh, density)
        Z = ops.Zeu
        for k in range(3):
            assert np.allclose(_h0(ops, Z[:, k], 0.25, Z[:, k])[0], 0.25 * Z[:, k], atol=1e-14)

    @staticmethod
    def _h0_solves(density, spec, monkeypatch):
        # sweep spec on a 16x16 mesh and record, per point, every K^+
        # application's PCG iterations and its Jacobi-norm residual
        # relative to P g, recomputed here
        mesh = rect_mesh(16, 16)
        asm, lim = sweep_inputs(mesh, density, spec)
        Zeu = fem.operators(mesh, density).Zeu
        two_loop, kplus, minimize = (nonlinear._two_loop, fem.Operators.kplus,
                                     nonlinear.minimize_rescaled)
        points, grads = [], []

        def new_point(*args, **kw):
            points.append([])
            return minimize(*args, **kw)

        def record_gradient(grad, *args):
            grads.append(grad)
            return two_loop(grad, *args)

        def record_solve(ops, b, *args):
            x, it, rel = kplus(ops, b, *args)
            K = ops.K
            inv_diag = 1.0 / K.diagonal()
            r = b - K @ x
            r -= Zeu @ (Zeu.T @ r)
            pg = grads[-1] - Zeu @ (Zeu.T @ grads[-1])
            points[-1].append((it, np.sqrt(r @ (inv_diag * r) / (pg @ (inv_diag * pg)))))
            return x, it, rel
        monkeypatch.setattr(nonlinear, "minimize_rescaled", new_point)
        monkeypatch.setattr(nonlinear, "_two_loop", record_gradient)
        monkeypatch.setattr(fem.Operators, "kplus", record_solve)
        sw = h_sweep(density, asm, lim, (0.2, 0.1, 0.05, 0.025))
        assert [r.status for r in sw.records] == [CONVERGED] * 4
        assert [len(p) for p in points] == [r.iters for r in sw.records]
        assert [sum(it for it, _ in p) for p in points] == [r.cg_iters for r in sw.records]
        for p in points:
            assert all(res <= _H0_CG_TOL for _, res in p)
        return points

    def test_h0_residual_relative_to_projected_gradient(self, density, monkeypatch):
        # each K^+ application stops at 1e-8 of the Jacobi norm of P g; the
        # tension sweep's minimizers are affine, and so is K^+ of every
        # gradient it meets, which the affine start of the solve gives
        points = self._h0_solves(density, pressure_spec(16.0), monkeypatch)
        assert all(it <= 1 for p in points for it, _ in p)

    def test_h0_residual_relative_to_projected_gradient_bodyforce(self, density, monkeypatch):
        # a load whose K^+ solves are not affine: the multigrid iterations
        # still stop at 1e-8 of P g and add up to the points' cg_iters
        points = self._h0_solves(density, body_spec((1.3, 0.3, 0.3, 0.7)), monkeypatch)
        assert sum(it for p in points for it, _ in p) > 0

    @pytest.mark.parametrize("n", [16, 32])
    def test_sweep_iterations_mesh_independent(self, density, n):
        sw = sweep(rect_mesh(n, n), density, pressure_spec(16.0), (0.2, 0.1, 0.05, 0.025))
        assert all(r.status == CONVERGED for r in sw.records)
        assert max(r.iters for r in sw.records) <= 15

    @pytest.mark.parametrize("spec", [pressure_spec(16.0), body_spec((1.0, 0.0, 0.0, 1.0))],
                             ids=["tension", "bodyforce"])
    def test_sweep_warm_start_is_linear_minimizer(self, mesh, density, spec):
        asm, lim = sweep_inputs(mesh, density, spec)
        linear = solve_linear(density, asm).field.values
        warm = lim.field.values
        assert np.max(np.abs(warm - linear)) <= 1e-12 * (1.0 + np.max(np.abs(linear)))

    def test_anisotropic_body_force(self, density):
        # a strict load whose minimizer is not symmetric: the sweep must move
        # the rotation, which the stiffness block of H0 does not see
        mesh = rect_mesh(16, 16)
        spec = body_spec((1.3, 0.3, 0.3, 0.7))
        hs = (0.1, 0.05)
        sw = sweep(mesh, density, spec, hs)
        assert [r.status for r in sw.records] == [CONVERGED] * len(hs)
        assert all(r.W_proxy > 1e-5 for r in sw.records)

        asm = assemble_loads(mesh, spec)
        linear = solve_linear(density, asm).field
        warm = linear
        for h, rec in zip(hs, sw.records):
            res = minimize_rescaled(mesh, density, asm, h, init=warm)
            assert res.value == rec.Fh
            g = rescaled_gradient(density, asm, res.field, h)
            assert np.linalg.norm(g) <= 1e-8 * (1.0 + abs(rec.Fh))
            assert rec.Fh <= eval_rescaled(density, asm, linear, h)
            warm = res.field


class TestMoments:
    def test_identity_strain_moments(self, mesh):
        # E = I: the I-panel moment is int Tr E = 2 |Omega|; the trace-free
        # panel tensors and the centered first moments all vanish
        moments = strain_moments(linear_field(mesh, np.eye(2)))
        assert moments[0] == pytest.approx(2.0, rel=1e-13)
        assert np.allclose(moments[1:], 0.0, atol=1e-13)

    def test_mean_skew_gradient(self, mesh):
        v = linear_field(mesh, 0.3 * J2)
        skew = mean_skew_gradient(v)
        assert np.allclose(skew, 0.3 * J2, atol=1e-13)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_fields_match_element_references(self, seed):
        # references built from the (m, 2, 2) strain and gradient blocks
        rng = np.random.default_rng(seed)
        mesh = jittered_mesh(*rng.integers(1, 8, 2), rng)
        field = DisplacementField(mesh, rng.standard_normal((mesh.n_nodes, 2)))
        E = element_strains(field)
        x1, x2 = mesh.centroids.T
        panel = (np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        ref = np.array([np.sum(mesh.areas * w * np.einsum("mij,ij->m", E, T))
                        for T in panel for w in (1.0, x1, x2)])
        moments = strain_moments(field)
        assert np.max(np.abs(moments - ref)) <= 1e-13 * np.max(np.abs(ref))
        G = np.sum(mesh.areas[:, None, None] * field.gradient_columns().reshape(-1, 2, 2),
                   axis=0)
        ref_skew = 0.5 * (G - G.T) / mesh.area
        skew = mean_skew_gradient(field)
        assert np.max(np.abs(skew - ref_skew)) <= 1e-13 * np.max(np.abs(ref_skew))


_MAGNITUDES = st.floats(1.0, 30.0)
_STRICT_LOADS = st.one_of(
    st.builds(pressure_spec, _MAGNITUDES),
    st.builds(spd_body_spec, st.floats(0.0, np.pi), _MAGNITUDES, _MAGNITUDES),
    st.builds(two_side_pressures, _MAGNITUDES, _MAGNITUDES),
)


def incompatible_spec(kind, a, b, c):
    """Pressures a and c (b unused), tractions S n or the body force g = S x, S = [[a, b], [b, c]]."""
    if kind == "pressures":
        return two_side_pressures(a, c)
    S = np.array([[a, b], [b, c]])
    return stress_spec(S) if kind == "tractions" else body_spec(tuple(S.ravel()))


_ENTRIES = st.floats(-30.0, 30.0)
# tr S <= -0.5: incompatible at the default classification tolerance
_INCOMPATIBLE_LOADS = st.builds(
    incompatible_spec, st.sampled_from(["pressures", "tractions", "body"]),
    _ENTRIES, _ENTRIES, _ENTRIES,
).filter(lambda spec: np.trace(assemble_loads(rect_mesh(1, 1), spec).moment_matrix) <= -0.5)


class TestFlatEnergy:
    """Trial steps on energy that is flat to round-off are judged by their slope."""

    @pytest.mark.parametrize("n, lam, p, h", [(8, 1.0, 28.0, 0.8), (16, 5.0, 24.0, 0.8),
                                              (32, 1.0, 16.0, 1.0)])
    def test_converges_from_linear_minimizer(self, n, lam, p, h):
        # the last steps change Fh by less than its round-off, so Armijo alone
        # can reject every trial and end the run at iter_limit
        mesh = rect_mesh(n, n)
        density = Density(1.0, lam)
        asm = assemble_loads(mesh, pressure_spec(p))
        res = minimize_rescaled(mesh, density, asm, h, init=solve_linear(density, asm).field)
        assert res.status == CONVERGED
        g = rescaled_gradient(density, asm, res.field, h)
        assert np.linalg.norm(g) <= 1e-8 * (1.0 + abs(res.value))

    def test_campaign_cases_need_the_slope_test(self):
        # single points of seeded campaigns of strict sweeps, from the linear
        # minimizer: three two-side pressures of an earlier campaign, exact
        # floats (two decimals change the path), and three draws of
        # campaigns.lbfgs_draws.  Each converges from its start and from 16
        # one-ulp changes of it; without the slope test each fails from 15%
        # to 70% of such starts, and at least one fails from the exact start
        cases = [(LbfgsDraw(12, 1925306114, 1.0, "two_side",
                            (22.540255128236147, 17.838933051731853)), 1.0),
                 (LbfgsDraw(8, 1490541066, 5.0, "two_side",
                            (22.169688221059886, 4.282943623231467)), 1.0),
                 (LbfgsDraw(12, 1518948225, 5.0, "two_side",
                            (17.050311171717656, 24.404326660865323)), 0.8)]
        draws = lbfgs_draws()
        cases += [(draws[25], 1.0), (draws[51], 0.8), (draws[100], 0.8)]
        for draw, h in cases:
            res = lbfgs_run(draw, h)
            assert res.status == CONVERGED, (draw, h)
            assert res.grad_norm <= 1e-8 * (1.0 + abs(res.value))

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(8, 16), jitter=st.booleans(), lam=st.sampled_from([0.0, 1.0, 5.0]),
           spec=_STRICT_LOADS, seed=st.integers(0, 2**32 - 1))
    def test_random_strict_sweeps_converge(self, n, jitter, lam, spec, seed):
        mesh = jittered_mesh(n, n, np.random.default_rng(seed)) if jitter else rect_mesh(n, n)
        density = Density(1.0, lam)
        asm, lim = sweep_inputs(mesh, density, spec)
        assert asm.classification.compat_class == "strict"
        sw = h_sweep(density, asm, lim, DEFAULT_H_LIST)
        assert [r.status for r in sw.records] == [CONVERGED] * len(DEFAULT_H_LIST)


class TestCertificate:
    """Incompatible loads are certified by Fh = 2 tr S / h at theta = pi on the witness orbit."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 12), jitter=st.booleans(), lam=st.sampled_from([0.0, 1.0, 5.0]),
           h=st.floats(0.01, 1.0), spec=_INCOMPATIBLE_LOADS, seed=st.integers(0, 2**32 - 1))
    def test_least_value_on_the_rotation_orbit(self, n, jitter, lam, h, spec, seed):
        mesh = jittered_mesh(n, n, np.random.default_rng(seed)) if jitter else rect_mesh(n, n)
        density = Density(1.0, lam)
        asm = assemble_loads(mesh, spec)
        cls = asm.classification
        assert cls.compat_class == INCOMPATIBLE
        res = minimize_rescaled(mesh, density, asm, h)
        assert res.status == DIVERGED
        assert res.value == pytest.approx(2.0 * np.trace(asm.moment_matrix) / h, rel=1e-12)
        assert list(res.certificate.thetas) == [np.pi]
        assert list(res.certificate.trace) == [res.value]
        # the body is turned over: F = I + h grad v = -I on every element
        F = np.eye(2) + h * res.field.gradient_columns().reshape(-1, 2, 2)
        assert np.max(np.abs(F + np.eye(2))) <= 1e-12
        # no angle pi k / 64 of the orbit goes lower
        for k in range(1, 65):
            v = rotation_path_field(mesh, cls.witness, np.pi * k / 64, h)
            assert eval_rescaled(density, asm, v, h) >= res.value - 1e-12 * abs(res.value)

    def test_one_energy_and_one_gradient_evaluation(self, mesh, density, compression, monkeypatch):
        calls = []
        for name in ("eval_rescaled", "rescaled_gradient"):
            f = getattr(nonlinear, name)
            monkeypatch.setattr(nonlinear, name,
                                lambda *args, f=f, name=name: calls.append(name) or f(*args))
        for h in (0.2, 0.1):
            calls.clear()
            assert minimize_rescaled(mesh, density, compression, h).status == DIVERGED
            assert sorted(calls) == ["eval_rescaled", "rescaled_gradient"]


def turned_field(mesh, v, theta, h):
    """v_theta = (R_theta phi - x) / h for phi = x + h v, gauged; x the centred nodes."""
    x = mesh.nodes - integral_mean(mesh, mesh.nodes)
    R = rodrigues(theta, skew2(1.0))
    v_theta = ((x + h * v.values) @ R.T - x) / h
    return DisplacementField(mesh, v_theta - integral_mean(mesh, v_theta))


class TestFrameIndifference:
    """Turning the deformed body by R_theta changes the discrete Fh by its load work only."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 10), jitter=st.booleans(), lam=st.sampled_from([0.0, 1.0, 5.0]),
           h=st.floats(0.02, 1.0), spec=_STRICT_LOADS, seed=st.integers(0, 2**32 - 1))
    def test_turned_energy_is_shifted_by_the_load_work(self, n, jitter, lam, h, spec, seed):
        rng = np.random.default_rng(seed)
        mesh = jittered_mesh(n, n, rng) if jitter else rect_mesh(n, n)
        density = Density(1.0, lam)
        asm = assemble_loads(mesh, spec)
        v = admissible_field(mesh, rng, h)
        # phi = x + h v with x the centred nodes; a = l . phi and b = l . J phi
        phi = mesh.nodes - integral_mean(mesh, mesh.nodes) + h * v.values
        a = float(np.sum(asm.load_vector * phi))
        b = float(np.sum(asm.load_vector * (phi @ J2.T)))
        Fh = eval_rescaled(density, asm, v, h)
        scale = abs(Fh) + (abs(a) + abs(b)) / h
        for theta in (np.pi, *rng.uniform(-np.pi, np.pi, 4)):
            expected = Fh - ((np.cos(theta) - 1.0) * a + np.sin(theta) * b) / h
            turned = eval_rescaled(density, asm, turned_field(mesh, v, theta, h), h)
            assert abs(turned - expected) <= 1e-13 * scale
