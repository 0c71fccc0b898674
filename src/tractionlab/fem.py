"""P1 vector finite elements for the pure-traction linear-elastic problem.

The pure-Neumann stiffness operator K is singular with kernel equal to
the infinitesimal rigid displacements (dimension 3 in 2D).
``operators(mesh, density)`` builds the stiffness, the rigid basis with
its mass image ``M Z`` and the Galerkin matrix of the symmetric affine
fields once per (mesh, density) and keeps them on the mesh.  The solve
path never assembles the mass matrix: ``mesh.mass_action`` (also
reachable here) applies it element by element, and ``mass_matrix``
stays as the assembled reference.  Only the functions that build
something on a mesh take one; ``solve_linear``, ``elastic_energy`` and
``element_strains`` read it from their assembly or field, and every
element gradient in the package is ``DisplacementField.gradient_columns``.
``solve_linear`` refuses loads that ``assembly.classification`` does not
find equilibrated.

Every K^+ is ``Operators.kplus(b, tol, ref)``, on the complement of the
rigid displacements: ``solve_linear`` and the initial inverse Hessian of
the rescaled-energy L-BFGS both call it.  It makes b Euclidean-
orthogonal to the rigid modes.  Conjugate gradients then start from
the Galerkin solution on the symmetric affine fields, x0 = X (X' K X)^-1
X' b: the K-orthogonal projection of K^+ b onto them, never farther
from the solution in the energy norm than a zero start, and exact for a
homogeneous load, which then takes no iteration.  The residual and the
preconditioned residual are made rigid-free every iteration.  The solve
stops when the Jacobi-norm residual sqrt(r' D^-1 r) of r = P(b - K x),
relative to that of the rigid-free ``ref`` (default ``b``; ``b`` again
when ``ref`` is rigid), is at most ``tol``.  The test comes before every
preconditioner call, and the returned x is Euclidean-orthogonal to the
rigid modes.  The first ``_JACOBI_STEPS`` = 10 iterations are
preconditioned by the diagonal of K: they settle a start whose residual
is round-off just above ``tol``, as the L-BFGS initial-matrix solves of
a homogeneous load have, for far less than building a multigrid.  A
solve still above ``tol`` after them restarts CG from its x with a
symmetric smoothed-aggregation multigrid V-cycle, whose near-null space
is the rigid modes, built on that first use.  The iteration count hardly
grows with the mesh: on the body force g = x, 10 Jacobi and 48 V-cycle
iterations to 1e-10 at 128x128 and 10 + 63 at 256x256, against 700 and
1360 with Jacobi alone.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .algebra import J2
from .loads import load_work
from .mesh import _scalar_mass_action, mass_action


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

    def gradient_columns(self):
        """Per-element gradient components, shape (m, 4): the columns a, b, c, d
        = dv_0/dx_0, dv_0/dx_1, dv_1/dx_0, dv_1/dx_1 of ``mesh.G @ v``."""
        return (self.mesh.G @ self.values.reshape(-1)).reshape(-1, 4)


def linear_field(mesh, A):
    """Nodal interpolant of v(x) = A x (exact for P1)."""
    A = np.asarray(A, dtype=float)
    return DisplacementField(mesh, mesh.nodes @ A.T)


def element_strains(field):
    """Per-element infinitesimal strain sym(grad v), shape (m, 2, 2)."""
    G = field.gradient_columns().reshape(-1, 2, 2)
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
    return mesh.mean_weights @ np.asarray(values).reshape(mesh.n_nodes, 2)


@dataclass
class RigidBasis:
    """Mass-orthonormal basis of the rigid displacements (dimension 3 in 2D)."""

    mesh: object
    fields: list
    matrix: np.ndarray          # (2n, 3), mass-orthonormal columns
    euclid: np.ndarray          # (2n, 3), Euclidean-orthonormal columns, same span
    mass: np.ndarray            # (2n, 3), M @ matrix


def _centred_nodes(mesh):
    """Node coordinates relative to the centroid of the domain, shape (n, 2)."""
    return mesh.nodes - integral_mean(mesh, mesh.nodes)


def rigid_basis(mesh):
    """Translations plus the rotation J (x - centroid), mass-orthonormalized."""
    n = mesh.n_nodes
    centred = _centred_nodes(mesh)
    raw = np.zeros((2 * n, 3))
    raw[0::2, 0] = 1.0
    raw[1::2, 1] = 1.0
    raw[:, 2] = (centred @ J2.T).reshape(-1)
    # M raw from the mass actions of 1 and of the centred coordinates, each
    # taken once: J2 only permutes and negates, so the products are exact
    m = _scalar_mass_action(mesh, np.column_stack([np.ones(n), centred]))
    Mraw = np.zeros_like(raw)
    Mraw[0::2, 0] = m[:, 0]
    Mraw[1::2, 1] = m[:, 0]
    Mraw[:, 2] = (m[:, 1:] @ J2.T).reshape(-1)

    # Z = raw L^-T with raw' M raw = L L' (Cholesky): mass-orthonormal, same span
    L = np.linalg.cholesky(raw.T @ Mraw)
    Z = np.linalg.solve(L, raw.T).T
    MZ = np.linalg.solve(L, Mraw.T).T
    Zeu, _ = np.linalg.qr(Z)
    fields = [DisplacementField(mesh, Z[:, k].reshape(n, 2)) for k in range(3)]
    return RigidBasis(mesh, fields, Z, Zeu, MZ)


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


def elastic_energy(density, assembly, field):
    """Classical linear-elastic energy int quadratic(E(v)) dx - L(v).

    Raises MeshMismatchError for an assembly on another mesh than ``field``.
    """
    a, b, c, d = field.gradient_columns().T
    stored = float(field.mesh.areas @ density.quadratic_sym2(a, 0.5 * (b + c), d))
    return stored - load_work(assembly, field)


# Smoothed-aggregation multigrid (Vanek, Mandel and Brezina, Computing 56,
# 1996) for K^+ on the rigid-mode complement.  Every level aggregates the
# node graph of its matrix, orthonormalizes the near-null space (the
# rigid modes) per aggregate into the tentative prolongator and smooths
# that once with damped Jacobi; the coarse matrices are Galerkin products.

# K^+ iterates with the diagonal of K as preconditioner for at most this
# many steps before it builds the V-cycle and restarts with it.  A start
# whose residual is round-off above tol needs a few of them.  Ten cost
# about 0.5 ms at 32x32 against 9 ms to build the hierarchy, and 6 ms at
# 128x128 against 115 ms (BLAS on one thread)
_JACOBI_STEPS = 10
# levels stop coarsening at this many dofs, solved by a dense pseudo-inverse
_COARSEST_DOFS = 300
# the coarsest matrix keeps the rigid modes as a null space whose computed
# eigenvalues are round-off; its nonzero spectrum is far above this cutoff
_COARSEST_RCOND = 1e-10


def _node_graph(A, bs):
    """Node adjacency (diagonal included) of a matrix with bs x bs node blocks."""
    rows = np.repeat(np.arange(A.shape[0]) // bs, np.diff(A.indptr))
    n = A.shape[0] // bs
    return sp.csr_matrix((np.ones(rows.size), (rows, A.indices // bs)), shape=(n, n))


def _aggregate(S):
    """Aggregate index of every node of the graph S (CSR, diagonal included).

    The roots are a maximal independent set of the distance-2 graph, found
    by Luby's rule with fixed random weights: an undecided node becomes a
    root when its weight is the largest among the undecided nodes within
    distance 2, and the undecided nodes within distance 2 of a new root
    drop out.  Distance-2 maxima are two row maxima over S, so S^2 is
    never formed.  Each root takes its neighbours, and a node left over
    (at distance 2 from a root) joins the largest-numbered aggregate among
    its neighbours.
    """
    n = S.shape[0]
    starts = S.indptr[:-1]

    def row_max(values):
        return np.maximum.reduceat(values[S.indices], starts)

    weight = np.random.default_rng(0).permutation(n).astype(float)
    undecided = np.ones(n, dtype=bool)
    is_root = np.zeros(n, dtype=bool)
    while undecided.any():
        live = np.where(undecided, weight, -1.0)
        new = undecided & (live == row_max(row_max(live)))
        is_root |= new
        undecided &= row_max(row_max(new.astype(float))) == 0.0

    agg = np.where(is_root, np.cumsum(is_root) - 1, -1)
    # roots are at distance >= 3, so a neighbour of a root sees only that one
    agg = np.where(is_root, agg, row_max(agg))
    return np.where(agg < 0, row_max(agg), agg)


def _tentative_prolongator(agg, bs, B):
    """Per-aggregate QR of the near-null space B: T (Q blocks) and the coarse B."""
    seg = np.repeat(agg, bs)
    na = int(agg.max()) + 1
    nc = B.shape[1]
    Q = np.empty_like(B)
    R = np.zeros((na, nc, nc))
    # modified Gram-Schmidt, each inner product a segment sum over an aggregate
    for k in range(nc):
        v = B[:, k].copy()
        for j in range(k):
            R[:, j, k] = np.bincount(seg, Q[:, j] * v, na)
            v -= R[seg, j, k] * Q[:, j]
        R[:, k, k] = np.sqrt(np.bincount(seg, v * v, na))
        Q[:, k] = v / R[seg, k, k]
    cols = (nc * seg)[:, None] + np.arange(nc)
    T = sp.csr_matrix((Q.ravel(), cols.ravel(), np.arange(0, Q.size + 1, nc)),
                      shape=(B.shape[0], nc * na))
    return T, R.reshape(nc * na, nc)


def _jacobi_weight(A, inv_diag):
    """omega = (4/3) / rho(D^-1 A), rho by 12 power steps and a D-Rayleigh quotient."""
    x = np.random.default_rng(1).standard_normal(A.shape[0])
    for _ in range(12):
        x = inv_diag * (A @ x)
        x /= np.linalg.norm(x)
    rho = (x @ (A @ x)) / (x @ (x / inv_diag))
    return (4.0 / 3.0) / rho


class _VCycle:
    """Symmetric smoothed-aggregation V-cycle for K with near-null space B.

    Calling it on r gives an approximation of K^+ r that is symmetric and
    positive definite on the complement of span(B): one damped-Jacobi
    sweep before and one after each coarse correction, and a dense
    pseudo-inverse on the coarsest level.
    """

    def __init__(self, K, B):
        self.levels = []
        A, bs = K, 2
        while A.shape[0] > _COARSEST_DOFS:
            inv_diag = 1.0 / A.diagonal()
            omega = _jacobi_weight(A, inv_diag)
            T, B = _tentative_prolongator(_aggregate(_node_graph(A, bs)), bs, B)
            if T.shape[1] >= A.shape[0]:
                break
            AT = A @ T
            AT.data *= np.repeat(omega * inv_diag, np.diff(AT.indptr))
            P = (T - AT).tocsr()
            del T, AT
            R = P.T.tocsr()
            self.levels.append((A, omega * inv_diag, P, R))
            A = R @ (A @ P)
            A = (0.5 * (A + A.T)).tocsr()
            bs = B.shape[1]
        self.coarsest = np.linalg.pinv(A.toarray(), rcond=_COARSEST_RCOND, hermitian=True)

    def __call__(self, b, k=0):
        if k == len(self.levels):
            return self.coarsest @ b
        A, wd, P, R = self.levels[k]
        x = wd * b
        x += P @ self(R @ (b - A @ x), k + 1)
        x += wd * (b - A @ x)
        return x


@dataclass
class Operators:
    """Linear-elastic operators of one (mesh, density), built once by ``operators``.

    ``K`` stiffness and ``inv_diag`` the inverse of its diagonal, ``Z``
    and ``Zeu`` the mass- and Euclidean-orthonormal rigid bases of
    ``rigid_basis``, ``MZ = M Z`` (the only use of the mass matrix, so M
    itself is never assembled), ``X`` the symmetric affine fields
    (x~, 0), (0, y~) and (y~, x~) of the centred node coordinates as
    columns, and ``XKX = X' K X`` their Galerkin matrix.  ``vcycle``, the
    smoothed-aggregation V-cycle preconditioning K^+, is built on first
    use, so solves that the affine start and the Jacobi phase of
    ``kplus`` settle never build it.  Nothing in the bundle refers to
    the mesh, so the bundle cached on the mesh forms no reference cycle.
    """

    K: object
    inv_diag: np.ndarray
    MZ: np.ndarray
    Z: np.ndarray
    Zeu: np.ndarray
    X: np.ndarray
    XKX: np.ndarray

    @cached_property
    def vcycle(self):
        return _VCycle(self.K, self.Z)

    def rigid_part(self, v):
        """Zeu Zeu' v, the Euclidean projection of v onto the rigid displacements."""
        return self.Zeu @ (self.Zeu.T @ v)

    def kplus(self, b, tol, ref=None):
        """K^+ b on the rigid-mode complement: ``(x, iterations, relative residual)``.

        The solve of the module docstring; ``ref`` (default ``b``) sets
        the scale of the stopping rule.  CG runs from the affine start
        with the diagonal of K as preconditioner for at most
        ``_JACOBI_STEPS`` iterations, then, if the residual is still
        above ``tol``, restarts from its x with the V-cycle.
        ``iterations`` counts both phases.  Raises ValueError unless
        0 < tol < inf, and NoConvergenceError after 20 * len(b)
        iterations.
        """
        if not 0.0 < tol < np.inf:
            raise ValueError(f"K^+ tolerance must be finite and positive, got {tol}")
        K, inv_diag, X = self.K, self.inv_diag, self.X
        b = b - self.rigid_part(b)
        denom = np.sqrt(b @ (inv_diag * b))
        if denom == 0.0:
            return np.zeros(b.size), 0, 0.0
        if ref is not None:
            ref = ref - self.rigid_part(ref)
            denom = np.sqrt(ref @ (inv_diag * ref)) or denom

        x = X @ np.linalg.solve(self.XKX, X.T @ b)
        r = b - K @ x
        r -= self.rigid_part(r)
        rel = np.sqrt(r @ (inv_diag * r)) / denom
        it = 0
        while rel > tol:
            if it >= 20 * b.size:
                raise NoConvergenceError(it, float(rel))
            z = inv_diag * r if it < _JACOBI_STEPS else self.vcycle(r)
            z -= self.rigid_part(z)
            rho_new = r @ z
            # the search direction restarts where the preconditioner changes
            p = z if it in (0, _JACOBI_STEPS) else z + (rho_new / rho) * p
            rho = rho_new
            Kp = K @ p
            alpha = rho / (p @ Kp)
            x += alpha * p
            r -= alpha * Kp
            r -= self.rigid_part(r)
            rel = np.sqrt(r @ (inv_diag * r)) / denom
            it += 1
        x -= self.rigid_part(x)
        return x, it, float(rel)


def operators(mesh, density):
    """The Operators of ``mesh`` and ``density``, memoized on the mesh."""
    ops = mesh.operator_cache.get(density)
    if ops is None:
        K = assemble_stiffness(mesh, density)
        rb = rigid_basis(mesh)
        xc, yc = _centred_nodes(mesh).T
        X = np.zeros((2 * mesh.n_nodes, 3))
        X[0::2, 0] = xc
        X[1::2, 1] = yc
        X[0::2, 2] = yc
        X[1::2, 2] = xc
        ops = Operators(K, 1.0 / K.diagonal(), rb.mass, rb.matrix, rb.euclid, X,
                        X.T @ (K @ X))
        mesh.operator_cache[density] = ops
    return ops


@dataclass
class LinearSolution:
    field: DisplacementField
    energy: float
    iterations: int
    residual: float


def solve_linear(density, assembly, tol=1e-10):
    """Minimize int quadratic(E(v)) dx - L(v) over the rigid-mode complement.

    The problem lives on ``assembly.mesh``.  The minimizer is
    ``Operators.kplus`` of the load vector to ``tol``, moved to the gauge
    P v = 0 (mass projection).  A homogeneous load (``tension``,
    ``infmany``, ``compression``) has an affine minimizer: 0 iterations,
    and the V-cycle is never built.

    Raises
    ------
    NotEquilibratedError
        when ``assembly.classification`` finds that the loads do not
        vanish on rigid displacements.
    ValueError
        unless 0 < tol < inf.
    NoConvergenceError
        when CG fails within 20 * ndof iterations.
    """
    cls = assembly.classification
    if not cls.equilibrated:
        raise NotEquilibratedError(cls.force_residual, cls.torque_residual)

    mesh = assembly.mesh
    ops = operators(mesh, density)
    b = assembly.load_vector.reshape(-1)
    x, it, rel = ops.kplus(b, tol)
    x -= ops.Z @ (ops.MZ.T @ x)
    energy = 0.5 * float(x @ (ops.K @ x)) - float(x @ b)
    sol = DisplacementField(mesh, x.reshape(-1, 2))
    return LinearSolution(sol, energy, it, rel)
