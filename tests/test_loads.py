import numpy as np
import pytest

from conftest import SIDES, infmany_spec, pressure_spec, zero_spec
from tractionlab.algebra import rodrigues, skew2
from tractionlab.fem import DisplacementField, linear_field
from tractionlab.loads import (INCOMPATIBLE, STRICT, WEAK, BodyForce, LoadSpec,
                               MeshMismatchError, MissingTractionRuleError,
                               TractionRule, assemble_loads, check_equilibrated,
                               classify_compatibility, classify_moment_matrix,
                               load_work)
from tractionlab.mesh import rect_mesh


@pytest.fixture(scope="module")
def mesh():
    return rect_mesh(8, 8)


class TestAssembly:
    def test_unit_pressure_moment_matrix(self, mesh):
        # divergence identity: int n (x) x = |Omega| I, quadrature exact
        asm = assemble_loads(mesh, pressure_spec(1.0))
        assert np.allclose(asm.moment_matrix, np.eye(2), atol=1e-14)
        assert np.allclose(asm.resultant_force, 0.0, atol=1e-14)
        assert asm.torque == pytest.approx(0.0, abs=1e-14)

    def test_infmany_moment_matrix(self, mesh):
        asm = assemble_loads(mesh, infmany_spec())
        expected = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(asm.moment_matrix, expected, atol=1e-14)
        assert np.allclose(asm.resultant_force, 0.0, atol=1e-14)

    def test_linear_body_force_moment_matrix(self, mesh):
        # g = x gives S = int x (x) x = I/12 on the centered unit square
        spec = LoadSpec(zero_spec().tractions, BodyForce("linear", (1.0, 0.0, 0.0, 1.0)))
        asm = assemble_loads(mesh, spec)
        assert np.allclose(asm.moment_matrix, np.eye(2) / 12.0, atol=1e-15)
        assert np.allclose(asm.resultant_force, 0.0, atol=1e-15)

    def test_constant_body_force_resultant(self, mesh):
        spec = LoadSpec(zero_spec().tractions, BodyForce("constant", (2.0, -1.0)))
        asm = assemble_loads(mesh, spec)
        assert np.allclose(asm.resultant_force, [2.0, -1.0], atol=1e-13)

    def test_missing_tag_rule(self, mesh):
        with pytest.raises(MissingTractionRuleError) as exc:
            assemble_loads(mesh, LoadSpec({"left": TractionRule("pressure", (1.0,))}))
        # the plain message, not the quoted repr that a KeyError prints
        assert str(exc.value) == "no traction rule for boundary tag 'bottom'"

    @pytest.mark.parametrize("make, message", [
        (lambda: TractionRule("pressure", (np.nan,)),
         r"pressure traction must be finite, got \[nan\]"),
        (lambda: TractionRule("constant", (np.inf, 0.0)), "constant traction must be finite"),
        (lambda: TractionRule("tangential", (-np.inf,)), "tangential traction must be finite"),
        (lambda: BodyForce("constant", (np.inf, 0.0)),
         r"constant body force must be finite, got \[inf, 0.0\]"),
        (lambda: BodyForce("linear", (1.0, np.nan, 0.0, 1.0)), "linear body force must be finite"),
    ])
    def test_non_finite_rules_rejected(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            make()

    def test_tangential_rule_direction(self, mesh):
        # tangential traction on the right side (n = e1) points along +e2
        spec = LoadSpec({
            "right": TractionRule("tangential", (3.0,)),
            "left": TractionRule("constant", (0.0, 0.0)),
            "top": TractionRule("constant", (0.0, 0.0)),
            "bottom": TractionRule("constant", (0.0, 0.0)),
        })
        asm = assemble_loads(mesh, spec)
        assert np.allclose(asm.resultant_force, [0.0, 3.0], atol=1e-13)


class TestLoadWork:
    def test_unit_pressure_on_identity_field(self, mesh):
        asm = assemble_loads(mesh, pressure_spec(1.0))
        v = linear_field(mesh, np.eye(2))
        assert load_work(asm, v) == pytest.approx(2.0, rel=1e-13)

    def test_equilibrated_on_constant_field(self, mesh):
        asm = assemble_loads(mesh, pressure_spec(1.0))
        v = DisplacementField(mesh, np.tile([0.7, -0.3], (mesh.n_nodes, 1)))
        assert load_work(asm, v) == pytest.approx(0.0, abs=1e-13)

    def test_infmany_on_identity_field(self, mesh):
        asm = assemble_loads(mesh, infmany_spec())
        v = linear_field(mesh, np.eye(2))
        assert load_work(asm, v) == pytest.approx(0.0, abs=1e-13)

    def test_linearity(self, mesh):
        rng = np.random.default_rng(31)
        asm = assemble_loads(mesh, infmany_spec())
        for _ in range(20):
            a, b = rng.standard_normal(2)
            u = DisplacementField(mesh, rng.standard_normal((mesh.n_nodes, 2)))
            v = DisplacementField(mesh, rng.standard_normal((mesh.n_nodes, 2)))
            combo = DisplacementField(mesh, a * u.values + b * v.values)
            lhs = load_work(asm, combo)
            rhs = a * load_work(asm, u) + b * load_work(asm, v)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_rigid_shift_invariance(self, mesh):
        from tractionlab.fem import rigid_basis
        asm = assemble_loads(mesh, pressure_spec(16.0))
        rng = np.random.default_rng(32)
        v = DisplacementField(mesh, rng.standard_normal((mesh.n_nodes, 2)))
        base = load_work(asm, v)
        for z in rigid_basis(mesh).fields:
            shifted = DisplacementField(mesh, v.values + z.values)
            assert abs(load_work(asm, shifted) - base) <= 1e-11 * (1.0 + abs(base))

    def test_mesh_mismatch(self, mesh):
        asm = assemble_loads(mesh, pressure_spec(1.0))
        other = rect_mesh(2, 2)
        with pytest.raises(MeshMismatchError):
            load_work(asm, linear_field(other, np.eye(2)))


class TestEquilibration:
    def test_pressure_is_equilibrated(self, mesh):
        chk = check_equilibrated(assemble_loads(mesh, pressure_spec(1.0)))
        assert chk.equilibrated
        assert chk.force_residual <= 1e-14
        assert chk.torque_residual <= 1e-14

    def test_constant_traction_everywhere_unbalanced(self, mesh):
        spec = LoadSpec({tag: TractionRule("constant", (1.0, 0.0)) for tag in SIDES})
        chk = check_equilibrated(assemble_loads(mesh, spec))
        assert not chk.equilibrated
        assert chk.force_residual == pytest.approx(4.0, rel=1e-13)

    def test_infmany_is_equilibrated(self, mesh):
        assert check_equilibrated(assemble_loads(mesh, infmany_spec())).equilibrated

    def test_pure_torque_unbalanced(self, mesh):
        # tangential load on the whole boundary: zero force, nonzero torque
        spec = LoadSpec({tag: TractionRule("tangential", (1.0,)) for tag in SIDES})
        chk = check_equilibrated(assemble_loads(mesh, spec))
        assert not chk.equilibrated
        assert chk.force_residual <= 1e-13
        assert chk.torque_residual > 0.1


class TestClassification:
    def test_tension_strict(self, mesh):
        cls = classify_compatibility(assemble_loads(mesh, pressure_spec(1.0)))
        assert cls.compat_class == STRICT
        assert cls.sup_gap == 0.0
        assert cls.witness is None

    def test_compression_incompatible(self, mesh):
        cls = classify_compatibility(assemble_loads(mesh, pressure_spec(-1.0)))
        assert cls.compat_class == INCOMPATIBLE
        assert cls.sup_gap == np.inf
        assert cls.witness is not None
        # witness work L(z_W) = -Tr(S)/2 = 1 for the unit witness
        assert cls.witness_work == pytest.approx(1.0, rel=1e-12)

    def test_infmany_weak_with_full_kernel(self, mesh):
        cls = classify_compatibility(assemble_loads(mesh, infmany_spec()))
        assert cls.compat_class == WEAK
        assert len(cls.kernel) == 1
        U = cls.kernel[0]
        work = float(np.sum((U @ U) * cls.moment_matrix))
        assert abs(work) <= 1e-12

    def test_zero_loads_weak(self, mesh):
        cls = classify_compatibility(assemble_loads(mesh, zero_spec()))
        assert cls.compat_class == WEAK

    def test_3d_landmark_matrix(self):
        cls, kernel, witness, work, gap = classify_moment_matrix(np.diag([1.0, 1.0, -3.0]))
        assert cls == INCOMPATIBLE
        assert gap == np.inf
        axis = np.abs([witness[2, 1], witness[0, 2], witness[1, 0]])
        # pair sums 2, -2, -2: witness axis e1 or e2
        assert np.allclose(sorted(axis), [0.0, 0.0, 1.0], atol=1e-12)
        assert axis[2] <= 1e-12
        assert work == pytest.approx(1.0, rel=1e-12)

    def test_3d_strict_identity(self):
        cls, kernel, witness, work, gap = classify_moment_matrix(np.eye(3))
        assert cls == STRICT and gap == 0.0

    def test_rotation_covariance(self):
        # rotate nodes and constant tractions by the same rotation
        rng = np.random.default_rng(33)
        theta = 0.6
        R = rodrigues(theta, skew2(1.0))
        for spec_fn in (lambda: pressure_spec(1.0), lambda: pressure_spec(-2.0), infmany_spec):
            base_mesh = rect_mesh(6, 6)
            base = classify_compatibility(assemble_loads(base_mesh, spec_fn()))

            from tractionlab.mesh import Mesh
            rot_nodes = base_mesh.nodes @ R.T
            rot_edges = [
                (int(i), int(j), tag)
                for (i, j), tag in zip(base_mesh.edge_nodes, base_mesh.edge_tags)
            ]
            rot_mesh_ = Mesh(rot_nodes, base_mesh.elements, rot_edges)
            spec = spec_fn()
            rot_tractions = {}
            for tag, rule in spec.tractions.items():
                if rule.kind == "constant":
                    rot_tractions[tag] = TractionRule("constant", tuple(R @ np.asarray(rule.value)))
                else:
                    rot_tractions[tag] = rule     # pressure/tangential co-rotate with n
            rot = classify_compatibility(assemble_loads(rot_mesh_, LoadSpec(rot_tractions)))
            assert rot.compat_class == base.compat_class

    def test_positive_scaling_invariance(self, mesh):
        for spec_fn, expected in ((lambda s: pressure_spec(s), STRICT),
                                  (lambda s: pressure_spec(-s), INCOMPATIBLE)):
            for scale in (1e-3, 1.0, 1e4):
                cls = classify_compatibility(assemble_loads(mesh, spec_fn(scale)))
                assert cls.compat_class == expected


def fibonacci_sphere(n):
    k = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / n)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * k
    return np.column_stack([
        np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)
    ])


def brute_force_class(S, grid, band):
    """Sign scan of Q(w) = w' M w - Tr M over a dense unit sphere grid."""
    M = 0.5 * (S + S.T)
    Q = np.einsum("ki,ij,kj->k", grid, M, grid) - np.trace(M)
    if np.max(Q) > band:
        return INCOMPATIBLE
    if np.max(Q) >= -band:
        return WEAK
    return STRICT


class TestBruteForce3D:
    def test_classifier_agrees_with_sphere_scan(self):
        rng = np.random.default_rng(34)
        grid = fibonacci_sphere(10_000)
        for _ in range(50):
            S = rng.standard_normal((3, 3))
            norm = np.linalg.norm(S)
            cls, *_ = classify_moment_matrix(S)
            # grid resolution limits the scan near the weak boundary
            band = 1e-3 * norm
            brute = brute_force_class(S, grid, band)
            if brute == WEAK:
                continue   # scan cannot resolve the boundary band
            assert cls == brute

    def test_sphere_scan_weak_case(self):
        grid = fibonacci_sphere(10_000)
        S = np.diag([1.0, 1.0, -1.0])   # pair sums 2, 0, 0
        cls, kernel, *_ = classify_moment_matrix(S)
        assert cls == WEAK and len(kernel) == 2
        assert brute_force_class(S, grid, 1e-3) == WEAK
