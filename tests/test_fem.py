import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SIDES, admissible_field, body_spec, infmany_spec, jittered_mesh,
                      pressure_spec, shape_gradients, zero_loads)
from tractionlab.algebra import Density, J2
from tractionlab.fem import (DisplacementField, NotEquilibratedError,
                             assemble_stiffness, elastic_energy,
                             element_strains, linear_field,
                             mass_action, mass_matrix, operators, rigid_basis,
                             solve_linear)
from tractionlab.loads import LoadSpec, assemble_loads, constant_traction
from tractionlab.mesh import rect_mesh
from tractionlab.nonlinear import eval_rescaled, rescaled_gradient


@pytest.fixture(scope="module")
def mesh():
    return rect_mesh(8, 8)


@pytest.fixture(scope="module")
def density():
    return Density(1.0, 1.0)


class TestRigidBasis:
    def test_dimension(self, mesh):
        assert len(rigid_basis(mesh).fields) == 3

    def test_basis_keeps_its_mesh(self):
        # built on a temporary mesh, the basis must still reach it
        rb = rigid_basis(rect_mesh(4, 4))
        assert rb.mesh.n_nodes == 25
        assert all(f.mesh is rb.mesh for f in rb.fields)

    def test_strain_free_on_dyadic_mesh(self, mesh):
        # raw generators are exactly strain free; normalization scales by an
        # irrational factor, leaving per-entry rounding only
        rb = rigid_basis(mesh)
        for f in rb.fields:
            E = element_strains(f)
            assert np.max(np.abs(E)) <= 5e-14

    def test_strain_free_on_general_mesh(self):
        m = rect_mesh(3, 5, (-0.35, 0.85), (0.1, 0.73))
        for f in rigid_basis(m).fields:
            E = element_strains(f)
            assert np.max(np.abs(E)) <= 1e-12

    def test_mass_gram_identity(self, mesh):
        rb = rigid_basis(mesh)
        M = mass_matrix(mesh)
        gram = rb.matrix.T @ (M @ rb.matrix)
        assert np.allclose(gram, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: rect_mesh(7, 5, (-0.3, 0.7), (0.1, 0.9)),
        lambda: jittered_mesh(6, 5, np.random.default_rng(31)),
    ], ids=["rect", "jittered"])
    def test_mass_action_matches_assembled_matrix(self, make):
        m = make()
        M = mass_matrix(m)
        X = np.random.default_rng(32).standard_normal((2 * m.n_nodes, 4))
        for x in (X, X[:, 0]):
            ref = M @ x
            assert np.max(np.abs(mass_action(m, x) - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_bundle_keeps_the_mass_image_of_the_basis(self, density):
        m = jittered_mesh(6, 5, np.random.default_rng(33))
        ops = operators(m, density)
        ref = mass_matrix(m) @ ops.Z
        assert np.max(np.abs(ops.MZ - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestStrain:
    def test_identity_field(self, mesh):
        E = element_strains(linear_field(mesh, np.eye(2)))
        assert np.allclose(E, np.eye(2)[None], atol=1e-14)

    def test_skew_field_strain_free(self, mesh):
        E = element_strains(linear_field(mesh, 0.7 * J2))
        assert np.max(np.abs(E)) <= 1e-14

    def test_shear_field(self, mesh):
        # v = (x2, 0) has strain sym(e1 (x) e2): off-diagonal one half
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        E = element_strains(linear_field(mesh, A))
        assert np.allclose(E, [[0.0, 0.5], [0.5, 0.0]], atol=1e-14)


class TestStiffness:
    def test_energy_of_identity_field(self, mesh, density):
        K = assemble_stiffness(mesh, density)
        v = linear_field(mesh, np.eye(2)).values.reshape(-1)
        assert v @ (K @ v) == pytest.approx(32.0, rel=1e-12)

    def test_exactly_symmetric(self, mesh, density):
        K = assemble_stiffness(mesh, density)
        assert (K - K.T).nnz == 0 or np.max(np.abs((K - K.T).data)) == 0.0

    def test_rigid_fields_in_kernel(self, mesh, density):
        K = assemble_stiffness(mesh, density)
        knorm = np.max(np.abs(K.data))
        for f in rigid_basis(mesh).fields:
            assert np.max(np.abs(K @ f.values.reshape(-1))) <= 1e-12 * knorm

    def test_kernel_dimension_is_three(self, density):
        m = rect_mesh(3, 3)
        K = assemble_stiffness(m, density).toarray()
        vals = np.linalg.eigvalsh(K)
        scale = vals[-1]
        assert np.sum(vals < 1e-12 * scale) == 3

    def test_positive_semidefinite(self, mesh, density):
        K = assemble_stiffness(mesh, density)
        rng = np.random.default_rng(41)
        for _ in range(20):
            v = rng.standard_normal(2 * mesh.n_nodes)
            assert v @ (K @ v) >= -1e-12 * (v @ v)

    @pytest.mark.parametrize("mu, lam", [(1.0, 1.0), (1.0, 0.0), (2.5, 0.4)])
    @pytest.mark.parametrize("grid", [(8, 8), (3, 5, (-0.35, 0.85), (0.1, 0.73))],
                             ids=["dyadic", "general"])
    def test_quadratic_form_matches_energy_density(self, grid, mu, lam):
        mesh = rect_mesh(*grid)
        rng = np.random.default_rng(42)
        K = assemble_stiffness(mesh, Density(mu, lam))
        for _ in range(10):
            vals = rng.standard_normal((mesh.n_nodes, 2))
            f = DisplacementField(mesh, vals)
            E = element_strains(f)
            stored = float(np.sum(mesh.areas * (
                4.0 * mu * np.einsum("mij,mij->m", E, E)
                + 2.0 * lam * np.einsum("mii->m", E) ** 2
            )))
            quad = 0.5 * float(vals.reshape(-1) @ (K @ vals.reshape(-1)))
            assert quad == pytest.approx(stored, rel=1e-12)


class TestSolve:
    def test_uniform_tension_constant_strain(self, mesh, density):
        # Euler-Lagrange oracle: strain I carries traction gradient(I) n = 16 n
        asm = assemble_loads(mesh, pressure_spec(16.0))
        sol = solve_linear(density, asm)
        assert sol.energy == pytest.approx(-16.0, abs=1e-9)
        E = element_strains(sol.field)
        assert np.allclose(E, np.eye(2)[None], atol=1e-9)

    def test_zero_loads(self, mesh, density):
        spec = LoadSpec({tag: constant_traction(0.0, 0.0) for tag in SIDES})
        sol = solve_linear(density, assemble_loads(mesh, spec))
        assert sol.energy == 0.0
        assert np.max(np.abs(sol.field.values)) == 0.0

    def test_not_equilibrated_rejected(self, mesh, density):
        spec = LoadSpec({tag: constant_traction(1.0, 0.0) for tag in SIDES})
        with pytest.raises(NotEquilibratedError) as err:
            solve_linear(density, assemble_loads(mesh, spec))
        assert err.value.force_residual == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, mesh, density, tol):
        # a nan fails every comparison and would stop CG at the affine start;
        # a tol <= 0 would run 20 * ndof iterations before giving up
        asm = assemble_loads(mesh, body_spec((1.0, 0.0, 0.0, 1.0)))
        with pytest.raises(ValueError, match="tolerance"):
            solve_linear(density, asm, tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            operators(mesh, density).kplus(asm.load_vector.reshape(-1), tol)

    def test_gauge_is_mass_orthogonal(self, mesh, density):
        asm = assemble_loads(mesh, pressure_spec(16.0))
        sol = solve_linear(density, asm)
        M = mass_matrix(mesh)
        rb = rigid_basis(mesh)
        coeffs = rb.matrix.T @ (M @ sol.field.values.reshape(-1))
        assert np.max(np.abs(coeffs)) <= 1e-10

    def test_energy_gauge_invariance(self, mesh, density):
        asm = assemble_loads(mesh, pressure_spec(16.0))
        sol = solve_linear(density, asm)
        base = elastic_energy(density, asm, sol.field)
        for z in rigid_basis(mesh).fields:
            shifted = DisplacementField(mesh, sol.field.values + 0.8 * z.values)
            val = elastic_energy(density, asm, shifted)
            assert abs(val - base) <= 1e-11 * (1.0 + abs(base))

    def test_patch_test_three_resolutions(self, density):
        rng = np.random.default_rng(44)
        for n in (4, 8, 16):
            m = rect_mesh(n, n)
            for _ in range(2):
                Estar = rng.standard_normal((2, 2))
                Estar = 0.5 * (Estar + Estar.T)
                G = density.quadratic_gradient(Estar)
                spec = LoadSpec({
                    "left": constant_traction(*(-G[:, 0])),
                    "right": constant_traction(*(G[:, 0])),
                    "bottom": constant_traction(*(-G[:, 1])),
                    "top": constant_traction(*(G[:, 1])),
                })
                sol = solve_linear(density, assemble_loads(m, spec), tol=1e-12)
                E = element_strains(sol.field)
                assert np.max(np.abs(E - Estar[None])) <= 1e-10

    def test_infmany_solution_is_exactly_linear(self, density):
        # the infmany tractions equal G n for the constant symmetric
        # G = e1 (x) e2 + e2 (x) e1: the exact solution is linear and the
        # discrete energy is resolution independent
        energies = []
        for n in (4, 8):
            m = rect_mesh(n, n)
            sol = solve_linear(density, assemble_loads(m, infmany_spec()), tol=1e-12)
            energies.append(sol.energy)
            E = element_strains(sol.field)
            assert np.allclose(E, [[0.0, 0.125], [0.125, 0.0]], atol=1e-10)
        assert energies[0] == pytest.approx(energies[1], abs=1e-12)

    def test_refinement_energy_monotone_nonsmooth(self, density):
        # equilibrated load not of the form G n (corner singularities):
        # nested P1 spaces on doubled resolutions give decreasing energies
        spec = LoadSpec({
            "right": constant_traction(0.0, 1.0),
            "left": constant_traction(0.0, 1.0),
            "top": constant_traction(0.0, -1.0),
            "bottom": constant_traction(0.0, -1.0),
        })
        energies = []
        for n in (4, 8, 16):
            m = rect_mesh(n, n)
            sol = solve_linear(density, assemble_loads(m, spec), tol=1e-12)
            energies.append(sol.energy)
        assert energies[1] < energies[0]
        assert energies[2] < energies[1]
        assert abs(energies[2] - energies[1]) < abs(energies[1] - energies[0])


_seeds = st.integers(0, 2**32 - 1)


class TestGradientOperatorProperties:
    """The mesh's sparse gradient G on jittered (non-structured) meshes."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(nx=st.integers(1, 6), ny=st.integers(1, 6), seed=_seeds)
    def test_matches_elementwise_gradients(self, nx, ny, seed):
        rng = np.random.default_rng(seed)
        m = jittered_mesh(nx, ny, rng)
        v = rng.standard_normal((m.n_nodes, 2))
        g = shape_gradients(m)
        ref = np.einsum("mki,mkj->mij", v[m.elements], g)
        scale = np.einsum("mki,mkj->mij", np.abs(v[m.elements]), np.abs(g))
        assert m.G.shape == (4 * m.n_elements, 2 * m.n_nodes)
        G = DisplacementField(m, v).gradient_columns().reshape(-1, 2, 2)
        assert np.all(np.abs(G - ref) <= 1e-14 * scale)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(nx=st.integers(1, 6), ny=st.integers(1, 6), seed=_seeds)
    def test_adjoint_identity(self, nx, ny, seed):
        rng = np.random.default_rng(seed)
        m = jittered_mesh(nx, ny, rng)
        v = rng.standard_normal(2 * m.n_nodes)
        w = rng.standard_normal(4 * m.n_elements)
        scale = np.abs(w) @ (abs(m.G) @ np.abs(v))
        assert abs((m.G.T @ w) @ v - w @ (m.G @ v)) <= 1e-13 * scale

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(seed=_seeds, h=st.floats(0.05, 1.0), mu=st.floats(0.2, 5.0),
           lam=st.floats(0.0, 5.0))
    def test_rescaled_gradient_matches_central_differences(self, seed, h, mu, lam):
        rng = np.random.default_rng(seed)
        m = jittered_mesh(4, 4, rng)
        d = Density(mu, lam)
        v = admissible_field(m, rng, h)
        zero = zero_loads(m)
        g = rescaled_gradient(d, zero, v, h).reshape(-1)
        flat = v.values.reshape(-1)
        eps = 1e-6 * (1.0 + np.linalg.norm(flat))
        fd = np.empty_like(flat)
        for i in range(flat.size):
            step = np.zeros_like(flat)
            step[i] = eps
            fp = eval_rescaled(d, zero, DisplacementField(m, flat + step), h)
            fm = eval_rescaled(d, zero, DisplacementField(m, flat - step), h)
            fd[i] = (fp - fm) / (2.0 * eps)
        assert np.linalg.norm(fd - g) <= 1e-6 * (1.0 + np.linalg.norm(g))
