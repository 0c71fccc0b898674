import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar

from conftest import (body_spec, infmany_spec, pressure_spec, rigid_fields, sweep_inputs,
                      zero_spec)
import tractionlab.limit as limit_module
from tractionlab.algebra import Density, skew2
from tractionlab.fem import (DisplacementField, elastic_energy, element_strains,
                             linear_field, mass_matrix, solve_linear)
from tractionlab.limit import (IncompatibleLoadsError, inner_skew_minimum,
                               inner_skew_minimum_3d, limit_report,
                               minimize_limit, shifted_minimizer)
from tractionlab.loads import WEAK, MeshMismatchError, assemble_loads, load_work
from tractionlab.mesh import rect_mesh


@pytest.fixture(scope="module")
def mesh():
    return rect_mesh(8, 8)


@pytest.fixture(scope="module")
def density():
    return Density(1.0, 1.0)


@pytest.fixture(scope="module")
def zero_assembly(mesh):
    return assemble_loads(mesh, zero_spec())


def constant_strain_field(mesh, E):
    return linear_field(mesh, E)


def axis_of(W):
    """The axis w of a 3D skew matrix, W x = w x x."""
    return np.array([W[2, 1], W[0, 2], W[1, 0]])


class TestInnerMinimum:
    def test_uniform_contraction_fully_relaxed(self, mesh, density):
        # int div v = -2 gives a*^2 = 2 and the offset strain vanishes
        W, energy, a2 = inner_skew_minimum(density,
                                           constant_strain_field(mesh, -np.eye(2)))
        assert a2 == pytest.approx(2.0, rel=1e-13)
        assert energy == pytest.approx(0.0, abs=1e-12)
        assert W[0, 1] == pytest.approx(np.sqrt(2.0), rel=1e-13)

    def test_uniform_expansion_keeps_zero_skew(self, mesh, density):
        W, energy, a2 = inner_skew_minimum(density, constant_strain_field(mesh, np.eye(2)))
        assert a2 == 0.0
        assert energy == pytest.approx(16.0, rel=1e-13)

    def test_zero_strain(self, mesh, density):
        zero = DisplacementField(mesh, np.zeros((mesh.n_nodes, 2)))
        W, energy, a2 = inner_skew_minimum(density, zero)
        assert a2 == 0.0 and energy == 0.0

    def test_canonical_sign_nonnegative(self, mesh, density):
        rng = np.random.default_rng(51)
        for _ in range(20):
            f = DisplacementField(mesh, rng.standard_normal((mesh.n_nodes, 2)))
            W, _, _ = inner_skew_minimum(density, f)
            assert W[0, 1] >= 0.0

    def test_matches_scalar_scan_oracle(self, mesh, density):
        # independent route: minimize the offset energy over a directly
        rng = np.random.default_rng(52)
        for _ in range(10):
            f = DisplacementField(mesh, rng.standard_normal((mesh.n_nodes, 2)))
            strains = element_strains(f)
            _, energy, a2 = inner_skew_minimum(density, f)

            def phi(a):
                off = strains + 0.5 * a * a * np.eye(2)
                return float(np.sum(mesh.areas * (
                    4.0 * np.einsum("mij,mij->m", off, off)
                    + 2.0 * np.einsum("mii->m", off) ** 2
                )))

            res = minimize_scalar(phi, bounds=(0.0, 10.0), method="bounded",
                                  options={"xatol": 1e-12})
            assert energy <= res.fun + 1e-10
            assert abs(energy - phi(np.sqrt(a2))) <= 1e-12 * (1.0 + abs(energy))


class TestLimitReport:
    def test_zero_everything(self, mesh, density, zero_assembly):
        rep = limit_report(mesh, density, zero_assembly,
                           DisplacementField(mesh, np.zeros((mesh.n_nodes, 2))))
        assert rep.F_value == 0.0 and rep.E_value == 0.0 and rep.gap == 0.0

    def test_uniform_contraction_gap(self, mesh, density, zero_assembly):
        # gap formula: (1/4) (1/16) * 32^2 = 16
        rep = limit_report(mesh, density, zero_assembly,
                           constant_strain_field(mesh, -np.eye(2)))
        assert rep.F_value == pytest.approx(0.0, abs=1e-12)
        assert rep.E_value == pytest.approx(16.0, rel=1e-13)
        assert rep.gap == pytest.approx(16.0, rel=1e-12)
        assert rep.gap_formula == pytest.approx(16.0, rel=1e-12)

    def test_half_skew_square_field(self, mesh, density, zero_assembly):
        # v = (1/2) W^2 x with |W|^2 = 2: F = 0 strictly below E = 4
        W2 = skew2(1.0) @ skew2(1.0)
        rep = limit_report(mesh, density, zero_assembly,
                           constant_strain_field(mesh, 0.5 * W2))
        assert rep.F_value == pytest.approx(0.0, abs=1e-12)
        assert rep.E_value == pytest.approx(4.0, rel=1e-13)

    def test_gap_nonnegative_random_fields(self, mesh, density, zero_assembly):
        rng = np.random.default_rng(53)
        for _ in range(200):
            f = DisplacementField(mesh, rng.standard_normal((mesh.n_nodes, 2)))
            rep = limit_report(mesh, density, zero_assembly, f)
            assert rep.gap >= -1e-12
            assert rep.a_star_sq >= 0.0
            if rep.a_star_sq == 0.0:
                assert rep.F_value == pytest.approx(rep.E_value, abs=1e-12)

    def test_gap_formula_cross_check_random(self, mesh, density, zero_assembly):
        rng = np.random.default_rng(54)
        for _ in range(50):
            f = DisplacementField(mesh, 2.0 * rng.standard_normal((mesh.n_nodes, 2)))
            rep = limit_report(mesh, density, zero_assembly, f)
            assert rep.gap == pytest.approx(rep.gap_formula, abs=1e-10 * (1 + abs(rep.E_value)))

    def test_inner_sign_symmetry(self, mesh, density):
        # the inner objective takes the same value at +W* and -W*
        rng = np.random.default_rng(55)
        f = DisplacementField(mesh, rng.standard_normal((mesh.n_nodes, 2)))
        strains = element_strains(f)
        W, energy, a2 = inner_skew_minimum(density, f)

        def offset_energy(Wp):
            off = strains - 0.5 * (Wp @ Wp)
            return float(np.sum(mesh.areas * (
                4.0 * np.einsum("mij,mij->m", off, off)
                + 2.0 * np.einsum("mii->m", off) ** 2
            )))

        plus = offset_energy(W)
        minus = offset_energy(-W)
        assert abs(plus - minus) <= 1e-13 * (1.0 + abs(plus))

    def test_one_gradient_per_report(self, mesh, density, monkeypatch):
        # the inner minimum and the classical energy share one gradient of the
        # field, and still match their public functions
        calls = []
        gradient_columns = DisplacementField.gradient_columns

        def counting(field):
            calls.append(1)
            return gradient_columns(field)

        field = DisplacementField(mesh, np.random.default_rng(80).standard_normal((81, 2)))
        asm = assemble_loads(mesh, body_spec((0.4, 0.1, 0.1, -0.3)))
        monkeypatch.setattr(DisplacementField, "gradient_columns", counting)
        rep = limit_report(mesh, density, asm, field)
        assert len(calls) == 1
        _, offset_energy, _ = inner_skew_minimum(density, field)
        assert rep.F_value == offset_energy - load_work(asm, field)
        assert rep.E_value == elastic_energy(density, asm, field)

    def test_one_density_evaluation_without_skew_offset(self, mesh, density, monkeypatch):
        # with a*^2 = 0 the offset energy of the inner minimum is the stored
        # energy, which the report then does not evaluate again
        calls = []
        quadratic_sym2 = Density.quadratic_sym2
        monkeypatch.setattr(Density, "quadratic_sym2",
                            lambda self, *args: calls.append(1) or quadratic_sym2(self, *args))
        asm = assemble_loads(mesh, pressure_spec(16.0))
        for A, a2_zero in ((np.eye(2), True), (-np.eye(2), False)):
            field = linear_field(mesh, A)
            calls.clear()
            rep = limit_report(mesh, density, asm, field)
            assert (rep.a_star_sq == 0.0) == a2_zero
            assert len(calls) == (1 if a2_zero else 2)
            assert rep.E_value == elastic_energy(density, asm, field)

    def test_inputs_on_another_mesh_rejected(self, density):
        # the same 4x4 connectivity on another rectangle
        mesh, other = rect_mesh(4, 4), rect_mesh(4, 4, x_range=(-1.0, 1.0))
        asm = assemble_loads(mesh, pressure_spec(16.0))
        field = solve_linear(density, asm).field
        cases = ((other, asm, field),
                 (mesh, assemble_loads(other, pressure_spec(16.0)), field),
                 (mesh, asm, DisplacementField(other, field.values)))
        for m, a, f in cases:
            with pytest.raises(MeshMismatchError):
                limit_report(m, density, a, f)

    def test_rigid_shift_covariance(self, mesh, density):
        asm = assemble_loads(mesh, pressure_spec(16.0))
        rng = np.random.default_rng(56)
        v = DisplacementField(mesh, rng.standard_normal((mesh.n_nodes, 2)))
        base = limit_report(mesh, density, asm, v).F_value
        for z in rigid_fields(mesh, density):
            shifted = DisplacementField(mesh, v.values + 1.3 * z.values)
            val = limit_report(mesh, density, asm, shifted).F_value
            assert abs(val - base) <= 1e-11 * (1.0 + abs(base))


class TestMinimize:
    def test_tension_coincides_with_linear(self, mesh, density):
        _, lim = sweep_inputs(mesh, density, pressure_spec(16.0))
        assert np.linalg.norm(lim.W_star) <= 1e-6
        assert lim.F_value == pytest.approx(-16.0, abs=1e-9)
        assert abs(lim.F_value - lim.E_value) <= 1e-9 * (1.0 + abs(lim.E_value))

    def test_compression_refused_with_witness(self, mesh, density):
        asm = assemble_loads(mesh, pressure_spec(-1.0))
        with pytest.raises(IncompatibleLoadsError) as err:
            minimize_limit(density, asm, solve_linear(density, asm))
        assert err.value.witness is not None
        assert err.value.witness_work == pytest.approx(1.0, rel=1e-12)
        assert "unbounded" in str(err.value) or "-infinity" in str(err.value)

    def test_infmany_equal_minima(self, mesh, density):
        _, lim = sweep_inputs(mesh, density, infmany_spec())
        assert abs(lim.F_value - lim.E_value) <= 1e-9 * (1.0 + abs(lim.E_value))
        assert np.linalg.norm(lim.W_star) <= 1e-6

    def test_weak_body_force_round_off_is_no_skew(self, density):
        # g = A x with tr A = 0 is weak.  CG noise leaves int div v_lin within
        # about 1e-12 of zero, of either sign; taken as a negative part, it
        # would give |W_star| up to 3.8e-7 instead of 0
        for n in (16, 32):
            mesh = rect_mesh(n, n)
            for A in ((6.0, 4.0, 4.0, -6.0), (1.0, 0.3, 0.3, -1.0), (2.0, 0.0, 0.0, -2.0)):
                asm = assemble_loads(mesh, body_spec(A))
                assert asm.classification.compat_class == WEAK
                lim = minimize_limit(density, asm, solve_linear(density, asm, tol=1e-10))
                assert lim.a_star_sq == 0.0
                assert not lim.W_star.any()

    def test_argmin_coincidence_strict(self, mesh, density):
        asm, lim = sweep_inputs(mesh, density, pressure_spec(16.0))
        lin = solve_linear(density, asm)
        M = mass_matrix(mesh)
        diff = (lim.field.values - lin.field.values).reshape(-1)
        vE = lin.field.values.reshape(-1)
        dist = np.sqrt(diff @ (M @ diff))
        norm = np.sqrt(vE @ (M @ vE))
        assert dist <= 1e-7 * (1.0 + norm)


class TestOneSolve:
    """The limit minimizer is the given linear solution; the limit layer solves nothing."""

    @pytest.mark.parametrize("spec", [pressure_spec(16.0), infmany_spec(),
                                      body_spec((1.3, 0.3, 0.3, 0.7))],
                             ids=["tension", "infmany", "anisotropic_body"])
    def test_one_solve_returns_linear_field(self, mesh, density, spec):
        asm = assemble_loads(mesh, spec)
        lin = solve_linear(density, asm)
        lim = minimize_limit(density, asm, lin)
        assert lim.field is lin.field
        fresh = limit_report(mesh, density, asm, lin.field)
        assert fresh.field is lim.field and np.array_equal(fresh.W_star, lim.W_star)
        assert ((fresh.F_value, fresh.E_value, fresh.gap, fresh.a_star_sq, fresh.gap_formula)
                == (lim.F_value, lim.E_value, lim.gap, lim.a_star_sq, lim.gap_formula))
        assert np.linalg.norm(lim.W_star) <= 1e-6
        assert abs(lim.F_value - lim.E_value) <= 1e-9 * (1.0 + abs(lim.E_value))

    def test_given_linear_solution_is_reused(self, mesh, density):
        asm = assemble_loads(mesh, infmany_spec())
        lin = solve_linear(density, asm)
        lim = minimize_limit(density, asm, lin)
        assert lim.field is lin.field
        # F comes from the inner minimization, E from the classical energy
        _, offset_energy, _ = inner_skew_minimum(density, lin.field)
        assert lim.F_value == offset_energy - load_work(asm, lin.field)
        assert lim.E_value == elastic_energy(density, asm, lin.field)
        # the module has no solver or classifier to fall back on
        for name in ("solve_linear", "classify_moment_matrix", "element_strains"):
            assert not hasattr(limit_module, name)


@pytest.fixture(scope="module")
def setup(mesh, density):
    asm, lim = sweep_inputs(mesh, density, infmany_spec())
    return mesh, density, asm, lim


class TestShiftedMinimizers:

    def test_zero_shift_is_identity(self, setup):
        mesh, density, asm, lim = setup
        field, rec = shifted_minimizer(density, asm, lim, 0.0)
        assert np.array_equal(field.values, lim.field.values)
        assert abs(rec.F_delta) <= 1e-10
        assert abs(rec.E_delta) <= 1e-10

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_shifts_stay_minimal_for_limit_energy(self, setup, t):
        mesh, density, asm, lim = setup
        field, rec = shifted_minimizer(density, asm, lim, t)
        assert rec.F_delta <= 1e-8 * (1.0 + abs(lim.F_value))
        assert rec.E_delta > 0.0
        # the shift field is exactly -t x in 2D
        assert np.allclose(field.values, lim.field.values - t * mesh.nodes, atol=1e-14)

    def test_classical_energy_grows_quadratically(self, setup):
        mesh, density, asm, lim = setup
        _, rec1 = shifted_minimizer(density, asm, lim, 1.0)
        _, rec2 = shifted_minimizer(density, asm, lim, 2.0)
        # E(v* - t x) - min E = 16 t^2 on the unit square
        assert rec1.E_delta == pytest.approx(16.0, rel=1e-9)
        assert rec2.E_delta == pytest.approx(64.0, rel=1e-9)

    def test_strict_load_refused(self, mesh, density):
        asm, lim = sweep_inputs(mesh, density, pressure_spec(16.0))
        with pytest.raises(ValueError, match="weak"):
            shifted_minimizer(density, asm, lim, 1.0)

    def test_negative_t_rejected(self, setup):
        mesh, density, asm, lim = setup
        # nan and inf as well: the shifted field would be nan, or -inf x
        for t in (-0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="nonnegative"):
                shifted_minimizer(density, asm, lim, t)


class TestInner3D:
    def test_planar_contraction_fully_relaxed(self):
        # E = diag(-1, -1, 0) is half the square of the unit skew with axis e3
        d = Density(1.0, 1.0)
        W, val = inner_skew_minimum_3d(d, np.diag([-1.0, -1.0, 0.0]))
        assert val == pytest.approx(0.0, abs=1e-12)
        axis = axis_of(W)
        assert abs(axis[2]) == pytest.approx(np.sqrt(2.0), rel=1e-6)
        assert np.hypot(axis[0], axis[1]) <= 1e-6

    def test_expansion_keeps_zero(self):
        d = Density(1.0, 1.0)
        W, val = inner_skew_minimum_3d(d, np.eye(3))
        assert np.linalg.norm(axis_of(W)) <= 1e-8
        assert val == pytest.approx(d.quadratic(np.eye(3)), rel=1e-12)

    def test_matches_independent_minimizer(self):
        # Nelder-Mead polish from many random starts as the oracle
        rng = np.random.default_rng(57)
        d = Density(1.0, 0.5)
        for _ in range(5):
            E = rng.standard_normal((3, 3))
            E = 0.5 * (E + E.T)
            W, val = inner_skew_minimum_3d(d, E)

            def q(w):
                G = 0.5 * (np.outer(w, w) - float(w @ w) * np.eye(3))
                return d.quadratic(E - G)

            best = np.inf
            for _ in range(40):
                w0 = rng.standard_normal(3) * rng.uniform(0.2, 3.0)
                res = minimize(q, w0, method="Nelder-Mead",
                               options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
                best = min(best, res.fun)
            assert val <= best + 1e-8 * (1.0 + abs(best))

    def test_canonical_axis_sign(self):
        d = Density(1.0, 1.0)
        W, _ = inner_skew_minimum_3d(d, np.diag([0.0, -1.0, -1.0]))
        axis = axis_of(W)
        nz = axis[np.abs(axis) > 1e-8]
        assert nz.size and nz[0] > 0.0


def _inner_objective(density, E):
    """w -> quadratic(E - W^2/2) and its gradient, W^2 = w (x) w - |w|^2 I written out.

    With D = quadratic_gradient(B) and dB/dw_k = -(e_k (x) w + w (x) e_k)/2
    + w_k I, the gradient is (Tr D I - D) w.
    """
    def q(w):
        B = E - 0.5 * (np.outer(w, w) - float(w @ w) * np.eye(3))
        D = density.quadratic_gradient(B)
        return density.quadratic(B), (np.trace(D) * np.eye(3) - D) @ w
    return q


_entries = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def _strains(draw):
    """Symmetric 3x3 strains; half of them with a repeated top eigenvalue."""
    if draw(st.booleans()):
        top = draw(_entries)
        low = draw(st.floats(-3.0, top))
        R, _ = np.linalg.qr(np.array(draw(st.lists(_entries, min_size=9, max_size=9)))
                            .reshape(3, 3))
        E = R @ np.diag([low, top, top]) @ R.T
    else:
        E = np.array(draw(st.lists(_entries, min_size=9, max_size=9))).reshape(3, 3)
    return 0.5 * (E + E.T)


class TestInner3DProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(E=_strains(), mu=st.floats(0.1, 10.0),
           lam=st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    def test_closed_form_is_the_minimum(self, E, mu, lam):
        d = Density(mu, lam)
        W, val = inner_skew_minimum_3d(d, E)
        q = _inner_objective(d, E)

        # the value is the objective at the returned W, with W^2 from its axis
        w = axis_of(W)
        assert np.array_equal(W.T, -W)
        assert abs(val - q(w)[0]) <= 1e-12 * (1.0 + abs(val))

        # canonical sign: first nonzero axis component positive
        nz = [c for c in w if c != 0.0]
        assert not nz or nz[0] > 0.0

        # no start of an independent quasi-Newton search does better
        scale = np.sqrt(1.0 + np.linalg.norm(E))
        starts = [np.zeros(3)] + [m * e for e in np.vstack([np.eye(3), -np.eye(3),
                                                            np.ones((1, 3)) / np.sqrt(3.0)])
                                  for m in (0.5 * scale, 2.0 * scale)]
        best = min(minimize(q, w0, jac=True, method="BFGS", options={"gtol": 1e-10}).fun
                   for w0 in starts)
        assert val <= best + 1e-8 * (1.0 + abs(best))
