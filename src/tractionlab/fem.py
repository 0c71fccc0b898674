"""P1 vector finite elements for the pure-traction linear-elastic problem.

The pure-Neumann stiffness operator is singular with kernel equal to the
infinitesimal rigid displacements (dimension 3 in 2D).  Solves run
conjugate gradients on the rigid-mode complement: residuals are
projected every iteration and the returned field carries the gauge
P v = 0 in the L2 mass inner product.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .algebra import J2


class NotEquilibratedError(RuntimeError):
    """Loads do not vanish on rigid displacements; the singular system is unsolvable."""

    def __init__(self, force_residual, torque_residual):
        self.force_residual = force_residual
        self.torque_residual = torque_residual
        super().__init__(
            "loads are not equilibrated: "
            f"|resultant force| = {force_residual:.3e}, |skew moment| = {torque_residual:.3e}"
        )


class NoConvergenceError(RuntimeError):
    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"no convergence after {iterations} iterations (residual {residual:.3e})")


@dataclass
class DisplacementField:
    """Nodal vector field on a mesh, values of shape (n_nodes, 2)."""

    mesh: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float).reshape(self.mesh.n_nodes, 2)

    def copy(self):
        return DisplacementField(self.mesh, self.values.copy())


def field_from_function(mesh, fn):
    """Interpolate a callable x -> R^2 at the mesh nodes."""
    vals = np.array([fn(x) for x in mesh.nodes], dtype=float)
    return DisplacementField(mesh, vals)


def linear_field(mesh, A, b=(0.0, 0.0)):
    """Nodal interpolant of v(x) = A x + b (exact for P1)."""
    A = np.asarray(A, dtype=float)
    return DisplacementField(mesh, mesh.nodes @ A.T + np.asarray(b, dtype=float))


def element_gradients(mesh, values):
    """Per-element displacement gradient, shape (m, 2, 2), (grad v)_ij = dv_i/dx_j."""
    return (mesh.G @ np.asarray(values).reshape(-1)).reshape(-1, 2, 2)


def element_strains(mesh, field):
    """Per-element infinitesimal strain sym(grad v), shape (m, 2, 2)."""
    G = element_gradients(mesh, field.values)
    return 0.5 * (G + np.swapaxes(G, 1, 2))


def mass_matrix(mesh):
    """Consistent P1 vector mass matrix, dofs interleaved (node-major)."""
    Me = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    data = mesh.areas[:, None, None] * Me[None]
    rows = np.repeat(mesh.elements[:, :, None], 3, axis=2)
    cols = np.repeat(mesh.elements[:, None, :], 3, axis=1)
    n = mesh.n_nodes
    scalar = sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))
    return sp.kron(scalar, sp.eye(2), format="csr")


def integral_mean(mesh, values):
    """Domain mean of a nodal field, exact for P1: (1/|Omega|) int v dx."""
    v = np.asarray(values).reshape(mesh.n_nodes, 2)
    sums = v[mesh.elements].sum(axis=1)          # (m, 2)
    return (mesh.areas[:, None] * sums).sum(axis=0) / (3.0 * mesh.area)


@dataclass
class RigidBasis:
    """Mass-orthonormal basis of the rigid displacements (dimension 3 in 2D)."""

    mesh: object
    fields: list
    matrix: np.ndarray          # (2n, 3), mass-orthonormal columns
    euclid: np.ndarray          # (2n, 3), Euclidean-orthonormal columns, same span

    def project_coeffs(self, values, M):
        return self.matrix.T @ (M @ np.asarray(values).reshape(-1))


def rigid_basis(mesh, M=None):
    """Translations plus the rotation J (x - centroid), mass-orthonormalized."""
    if M is None:
        M = mass_matrix(mesh)
    n = mesh.n_nodes
    raw = np.zeros((2 * n, 3))
    raw[0::2, 0] = 1.0
    raw[1::2, 1] = 1.0
    rot = (mesh.nodes - integral_mean(mesh, mesh.nodes)) @ J2.T
    raw[:, 2] = rot.reshape(-1)

    # Z = raw L^-T with raw' M raw = L L' (Cholesky): mass-orthonormal, same span
    L = np.linalg.cholesky(raw.T @ (M @ raw))
    Z = np.linalg.solve(L, raw.T).T
    Zeu, _ = np.linalg.qr(Z)
    fields = [DisplacementField(mesh, Z[:, k].reshape(n, 2)) for k in range(3)]
    return RigidBasis(mesh, fields, Z, Zeu)


def assemble_stiffness(mesh, density):
    """Sparse symmetric stiffness K = G' (diag(areas) (x) C) G.

    (1/2) v' K v = int quadratic(E(v)) dx.  G is the mesh's discrete
    gradient; column kl of the 4x4 matrix C is
    quadratic_gradient(sym(e_k (x) e_l)) in row-major order, so that
    h' C h = 2 quadratic(sym H) for the flattened gradient h of H.
    """
    C = np.stack([density.quadratic_gradient(0.5 * (E + E.T)).ravel()
                  for E in np.eye(4).reshape(4, 2, 2)], axis=1)
    G = mesh.G
    K = G.T @ (sp.kron(sp.diags(mesh.areas), C, format="csr") @ G)
    return (0.5 * (K + K.T)).tocsr()


def elastic_energy(mesh, density, assembly, field):
    """Classical linear-elastic energy int quadratic(E(v)) dx - L(v)."""
    E = element_strains(mesh, field)
    stored = float(
        np.sum(mesh.areas * (
            4.0 * density.mu * np.einsum("mij,mij->m", E, E)
            + 2.0 * density.lam * np.einsum("mii->m", E) ** 2
        ))
    )
    return stored - float(np.sum(assembly.load_vector * field.values))


@dataclass
class LinearSolution:
    field: DisplacementField
    energy: float
    iterations: int
    residual: float


def _projected_pcg(K, b, Zeu, tol):
    """Jacobi-preconditioned CG for K x = b on the complement of span(Zeu).

    ``b`` must be Euclidean-orthogonal to the columns of ``Zeu``; the
    residual is re-projected every iteration.  Stops when the Jacobi-norm
    residual relative to ``b`` is at most ``tol``.  Returns
    ``(x, iterations, relative residual)``; ``x`` is not projected.

    Raises NoConvergenceError after 20 * len(b) iterations.
    """
    n = b.size
    inv_diag = 1.0 / K.diagonal()

    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    rho = r @ z
    denom = np.sqrt(b @ (inv_diag * b))
    if denom == 0.0:
        return x, 0, 0.0
    p = z.copy()
    rel = np.sqrt(rho) / denom
    it = 0
    while rel > tol:
        if it >= 20 * n:
            raise NoConvergenceError(it, float(rel))
        Kp = K @ p
        alpha = rho / (p @ Kp)
        x += alpha * p
        r -= alpha * Kp
        r -= Zeu @ (Zeu.T @ r)
        z = inv_diag * r
        rho_new = r @ z
        p = z + (rho_new / rho) * p
        rho = rho_new
        rel = np.sqrt(max(rho, 0.0)) / denom
        it += 1
    return x, it, float(rel)


def solve_linear(mesh, density, assembly, tol=1e-10, equilibrium_tol=1e-9):
    """Minimize int quadratic(E(v)) dx - L(v) over the rigid-mode complement.

    Jacobi-preconditioned conjugate gradients on the singular SPD system;
    rigid components of the residual are projected out every iteration and
    the returned minimizer carries the gauge P v = 0 (mass projection).

    Raises
    ------
    NotEquilibratedError
        when the loads do not vanish on rigid displacements.
    NoConvergenceError
        when CG fails within 20 * ndof iterations.
    """
    from .loads import check_equilibrated

    eq = check_equilibrated(assembly, equilibrium_tol)
    if not eq.equilibrated:
        raise NotEquilibratedError(eq.force_residual, eq.torque_residual)

    K = assemble_stiffness(mesh, density)
    M = mass_matrix(mesh)
    rb = rigid_basis(mesh, M)

    b_raw = assembly.load_vector.reshape(-1)
    Zeu = rb.euclid
    b = b_raw - Zeu @ (Zeu.T @ b_raw)

    x, it, rel = _projected_pcg(K, b, Zeu, tol)
    x -= rb.matrix @ (rb.matrix.T @ (M @ x))
    energy = 0.5 * float(x @ (K @ x)) - float(x @ b_raw)
    sol = DisplacementField(mesh, x.reshape(-1, 2))
    return LinearSolution(sol, energy, it, rel)
