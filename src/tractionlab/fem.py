"""P1 vector finite elements for the pure-traction linear-elastic problem.

The pure-Neumann stiffness operator K is singular with kernel equal to
the infinitesimal rigid displacements (dimension 3 in 2D).  It is
assembled as the Gram product K = H' H of the weighted strain operator
H, three rows per element, so it is symmetric bit for bit by
construction.
``operators(mesh, density)`` builds, once per (mesh, density) and kept
on the mesh, what every K^+ solve reads: the one rigid basis ``Zeu``,
Euclidean-orthonormal in closed form, with its mass dual ``Zdual``, the
symmetric affine fields X with their Galerkin matrix X' K X and their
nodal forces K X, and the diagonal of K.  All of them are closed forms
over the nodes, the elements or the boundary edges, and the Jacobi phase
of a solve applies K element by element, so the bundle assembles K
itself only where it builds the V-cycle: a solve that the affine start
or the Jacobi phase settles builds neither.  The solve path never
assembles the mass matrix: ``mesh.mass_action`` applies it element by
element, and ``mass_matrix`` stays as the assembled reference.  Only the
functions that build something on a mesh take one; ``solve_linear``,
``elastic_energy`` and ``element_strains`` read it from their assembly
or field, and every element gradient in the package is
``DisplacementField.gradient_columns``.
``solve_linear`` refuses loads that ``assembly.classification`` does not
find equilibrated.

Every K^+ is ``Operators.kplus(b, tol, ref)``, on the complement of the
rigid displacements: ``solve_linear`` and the initial inverse Hessian of
the rescaled-energy L-BFGS both call it.  It makes b Euclidean-
orthogonal to the rigid modes by P = I - Zeu Zeu', and conjugate
gradients start from the Galerkin solution on the symmetric affine
fields, x0 = X c with c = (X' K X)^-1 X' b: the K-orthogonal projection
of K^+ b onto them, never farther from it in the energy norm than a zero
start, and exact for a homogeneous load, which then takes no iteration.  Its residual b - (K X) c
needs no K.  The loop projects nothing: K p lies in the range of K, the
rigid-mode complement, so r stays rigid-free up to round-off, and
neither r' z nor K p sees the rigid part of the preconditioned z; x and
its true residual are projected once at exit.  The solve stops when the
Jacobi-norm residual sqrt(r' D^-1 r) of r = P(b - K x), relative to that
of the rigid-free ``ref`` (default ``b``; ``b`` again when ``ref`` is rigid), is
at most ``tol``, tested before every preconditioner call, and returns the
true residual of its x.  A start whose residual is at most
``_JACOBI_START`` = 1e3 times ``tol``, as the L-BFGS initial-matrix
solves of a homogeneous load have, gets ``_JACOBI_STEPS`` = 10
iterations preconditioned by the diagonal of K, which settle such
round-off for far less than building a multigrid.  They apply K element
by element, as G'(|T| quadratic_gradient(sym G p)), whether or not K is
built, so the bits of a solve depend on its own inputs only.  A solve
still above ``tol`` after them, or from a start farther above it, runs
CG from its x with a symmetric smoothed-aggregation multigrid V-cycle,
built on that first use together with K, whose near-null space is
``Zeu``: smoothed aggregation reads
only the span of that basis on each aggregate, so any basis of the rigid
modes builds the same levels; its iteration count hardly grows with the
mesh.  The rule reads only the solve's own start, so a solve's count
does not depend on the solves before it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .loads import load_work
from .mesh import mass_action


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


def assemble_stiffness(mesh, density):
    """Sparse stiffness K = H' H, symmetric bit for bit.

    (1/2) v' K v = int quadratic(E(v)) dx.  Column kl of the 4x4 matrix C
    is quadratic_gradient(sym(e_k (x) e_l)) in row-major order, so that
    h' C h = 2 quadratic(sym H) for the flattened gradient h of H.  C = L L'
    with L (4 x 3) its eigenvectors of the positive eigenvalues (all but
    the skew one) times their square roots, and H has the three rows
    sqrt|T| L' G_T per triangle T, one 3 x 2 block per triangle and node.
    Entries (i, j) and (j, i) of H' H sum the same products in the same order.
    ``mesh`` is a Mesh or any object with its ``G``, ``areas`` and
    ``elements``, such as the ``Operators`` bundle.
    """
    C = np.stack([density.quadratic_gradient(0.5 * (E + E.T)).ravel()
                  for E in np.eye(4).reshape(4, 2, 2)], axis=1)
    w, V = np.linalg.eigh(C)
    L = (V[:, 1:] * np.sqrt(w[1:])).reshape(2, 2, 3)
    m = len(mesh.areas)
    # g[e, j, k] = sqrt|T_e| d phi_k / dx_j, and block (e, k) of H is
    # [r, i] = sum_j L[i, j, r] g[e, j, k]
    g = mesh.G.data.reshape(m, 2, 2, 3)[:, 0] * np.sqrt(mesh.areas)[:, None, None]
    blocks = np.tensordot(g, L.transpose(1, 2, 0), axes=([1], [0]))
    H = sp.bsr_matrix((blocks.reshape(3 * m, 3, 2), mesh.elements.ravel(),
                       np.arange(0, 3 * m + 1, 3)), shape=(3 * m, mesh.G.shape[1]))
    K = (H.T @ H).tocsr()
    # the exact cancellations of a structured mesh would cost every K @ x and
    # join nodes in the aggregation graph; sorted rows make K @ x faster.  A
    # speed measure: at 128x128 they are 14% of the stored entries, and
    # dropping them takes the V-cycle build from 90-114 to 86-89 ms and the
    # 48-iteration body-force solve from 96-130 to 89-99 ms (one BLAS
    # thread, five runs each)
    K.eliminate_zeros()
    K.sort_indices()
    return K


def _stiffness_diagonal(mesh, density):
    """The diagonal of ``assemble_stiffness`` from one pass over the elements.

    The dof of component i at node k has K_cc = 2 sum_T |T|
    quadratic(sym(e_i (x) grad phi_k)) over the triangles T at k.
    """
    g = mesh.G.data.reshape(-1, 2, 2, 3)[:, 0]
    w = 2.0 * mesh.areas
    # terms[i, e, k] = the term of element e at its local node k in K_cc for
    # component i, one local node at a time, which keeps the temporaries at m
    # values each; gx, gy = grad phi_k, copied out of G's strided rows, which
    # would slow every product below
    terms = np.empty((2,) + mesh.elements.shape)
    for k in range(3):
        gx, gy = g[:, 0, k].copy(), g[:, 1, k].copy()
        np.multiply(w, density.quadratic_sym2(gx, 0.5 * gy, 0.0), out=terms[0, :, k])
        np.multiply(w, density.quadratic_sym2(0.0, 0.5 * gx, gy), out=terms[1, :, k])
    nodes, n = mesh.elements.ravel(), mesh.n_nodes
    diag = np.empty(2 * n)
    diag[0::2] = np.bincount(nodes, terms[0].ravel(), n)
    diag[1::2] = np.bincount(nodes, terms[1].ravel(), n)
    return diag


def elastic_energy(density, assembly, field):
    """Classical linear-elastic energy int quadratic(E(v)) dx - L(v).

    Raises MeshMismatchError for an assembly on another mesh than ``field``.
    """
    return _stored_energy(density, field.mesh, field.gradient_columns()) \
        - load_work(assembly, field)


def _stored_energy(density, mesh, columns):
    """int quadratic(E(v)) dx from the gradient columns of v, shape (m, 4)."""
    a, b, c, d = columns.T
    return float(mesh.areas @ density.quadratic_sym2(a, 0.5 * (b + c), d))


# Smoothed-aggregation multigrid (Vanek, Mandel and Brezina, Computing 56,
# 1996) for K^+ on the rigid-mode complement.  Every level aggregates the
# node graph of its matrix, orthonormalizes the near-null space (the
# rigid modes) per aggregate into the tentative prolongator and smooths
# that once with damped Jacobi; the coarse matrices are Galerkin products.

# K^+ iterates with the diagonal of K as preconditioner for at most this
# many steps, which settle a start round-off above tol for far less than
# the V-cycle it builds and restarts with after them
_JACOBI_STEPS = 10
# ... but only from an affine start at most this many times tol: the
# starts of homogeneous loads lie within 20 tol (``run tension``, 32x32 to
# 128x128), those of a body force 4e7 tol and more above it, which the
# V-cycle takes from the first step
_JACOBI_START = 1e3
# levels stop coarsening at this many dofs, solved by a dense inverse
_COARSEST_DOFS = 300


def _node_graph(A, bs):
    """Node adjacency (diagonal included) of a matrix with bs x bs node blocks:
    the block pattern of A, whose indices in a row may come in any order."""
    blocks = A.tobsr(blocksize=(bs, bs))
    n = A.shape[0] // bs
    return sp.csr_matrix((np.ones(len(blocks.indices)), blocks.indices, blocks.indptr),
                         shape=(n, n))


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
    sweep before and one after each coarse correction, and on the
    coarsest level, singular on the span of the near-null basis Q carried
    down to it (orthonormal), the exact A^+ = (A + s QQ')^-1 - QQ' / s,
    with the shift s the mean diagonal of K.  The coarse matrices P' A P
    are symmetric to round-off, and so is the V-cycle; only the coarsest
    inverse, whose asymmetry grows with the condition of A + s QQ', is
    symmetrized.
    """

    def __init__(self, K, B):
        self.levels = []
        # the coarsest shift, in the units of the moduli: a unit shift
        # leaves A + QQ' ill conditioned for moduli far from 1
        shift = K.diagonal().mean()
        A, bs = K, 2
        while A.shape[0] > _COARSEST_DOFS:
            inv_diag = 1.0 / A.diagonal()
            omega = _jacobi_weight(A, inv_diag)
            T, Bc = _tentative_prolongator(_aggregate(_node_graph(A, bs)), bs, B)
            if T.shape[1] >= A.shape[0]:
                break
            AT = A @ T
            AT.data *= np.repeat(omega * inv_diag, np.diff(AT.indptr))
            P = (T - AT).tocsr()
            del T, AT
            R = P.T.tocsr()
            self.levels.append((A, omega * inv_diag, P, R))
            A = R @ (A @ P)
            B, bs = Bc, Bc.shape[1]
        # A is singular exactly on span(B) = span(Q): (A + s QQ')^-1 = A^+ + QQ' / s
        Q, _ = np.linalg.qr(B)
        QQ = Q @ Q.T
        C = np.linalg.inv(A.toarray() + shift * QQ)
        # the inverse is symmetric only to round-off, which grows with the
        # condition of A + s QQ': the coarser levels have smaller entries than K
        self.coarsest = 0.5 * (C + C.T) - QQ / shift

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

    ``density`` and the mesh's ``G``, ``areas`` and ``elements``, all that
    ``assemble_stiffness`` reads, and its ``GT``, shared with the mesh, for
    ``element_action``; ``inv_diag`` the inverse of the diagonal
    of K, summed over the elements; ``Zeu`` the one rigid basis, the
    Euclidean-orthonormal columns e_x / sqrt(n), e_y / sqrt(n) and the
    normalized rotation J x~, with x~ the node coordinates centred on
    their arithmetic mean; ``Zdual = M Zeu (Zeu' M Zeu)^-1`` its mass dual,
    Zdual' Zeu = I, so Zeu Zdual' is the mass projection onto the rigid
    displacements (the only use of the mass matrix, so M itself is never
    assembled); ``X`` the symmetric affine fields (x~, 0), (0, y~) and
    (y~, x~) as columns, ``KX = K X`` their nodal forces, nonzero only at
    boundary nodes and stored by column, and ``XKX = X' K X`` their
    Galerkin matrix, both in closed form.  ``vcycle``, the
    smoothed-aggregation V-cycle preconditioning K^+ with ``Zeu`` as its
    near-null space, and the stiffness ``K`` it is built from and applied
    with are built on first use, so a solve that the affine start or the
    Jacobi phase of ``kplus`` settles builds neither.  Nothing in the
    bundle refers to the mesh, so the bundle cached on the mesh forms no
    reference cycle.
    """

    density: object
    G: object
    GT: object
    areas: np.ndarray
    elements: np.ndarray
    inv_diag: np.ndarray
    Zeu: np.ndarray
    Zdual: np.ndarray
    X: np.ndarray
    KX: np.ndarray
    XKX: np.ndarray

    @cached_property
    def K(self):
        # the bundle holds all that assemble_stiffness reads of a mesh
        return assemble_stiffness(self, self.density)

    @cached_property
    def vcycle(self):
        return _VCycle(self.K, self.Zeu)

    def rigid_part(self, v):
        """Zeu Zeu' v, the Euclidean projection of v onto the rigid displacements."""
        return self.Zeu @ (self.Zeu.T @ v)

    def kplus(self, b, tol, ref=None):
        """K^+ b on the rigid-mode complement: ``(x, iterations, relative residual)``.

        The solve of the module docstring; ``ref`` (default ``b``) sets
        the scale of the stopping rule, and ``b``, ``ref``, the residual of
        the start, the true residual at exit and the returned x are made
        rigid-free by ``rigid_part``.  The start and its residual come
        from ``X``, ``KX`` and ``XKX``.  From an affine start at most
        ``_JACOBI_START`` times ``tol``, CG runs with the diagonal of K as
        preconditioner and ``element_action`` as K for at most
        ``_JACOBI_STEPS`` iterations, then, if the residual is still above
        ``tol``, restarts from its x with the V-cycle and ``K``; from a
        start farther above ``tol`` it takes the V-cycle from the first
        step.  So a solve that the start or the Jacobi phase settles builds
        neither ``K`` nor ``vcycle``.  ``iterations`` counts both phases;
        the residual is the true one of x, from the K of the last phase.
        Raises ValueError unless 0 < tol < inf, and NoConvergenceError
        after 20 * len(b) iterations.
        """
        if not 0.0 < tol < np.inf:
            raise ValueError(f"K^+ tolerance must be finite and positive, got {tol}")
        inv_diag, X = self.inv_diag, self.X
        b = b - self.rigid_part(b)
        denom = np.sqrt(b @ (inv_diag * b))
        if denom == 0.0:
            return np.zeros(b.size), 0, 0.0
        if ref is not None:
            ref = ref - self.rigid_part(ref)
            denom = np.sqrt(ref @ (inv_diag * ref)) or denom

        def projected(r):
            r -= self.rigid_part(r)
            return r, np.sqrt(r @ (inv_diag * r)) / denom

        c = np.linalg.solve(self.XKX, X.T @ b)
        x = X @ c
        r, rel = projected(b - self.KX @ c)
        # rel / _JACOBI_START, not tol * _JACOBI_START, which overflows for a huge tol
        jacobi = _JACOBI_STEPS if rel / _JACOBI_START <= tol else 0
        it = 0
        while rel > tol:
            if it >= 20 * b.size:
                raise NoConvergenceError(it, float(rel))
            z = inv_diag * r if it < jacobi else self.vcycle(r)
            rho_new = r @ z
            # the search direction restarts where the preconditioner changes
            p = z if it in (0, jacobi) else z + (rho_new / rho) * p
            rho = rho_new
            Kp = self.element_action(p) if it < jacobi else self.K @ p
            alpha = rho / (p @ Kp)
            x += alpha * p
            r -= alpha * Kp
            rel = np.sqrt(r @ (inv_diag * r)) / denom
            it += 1
        x -= self.rigid_part(x)
        if it:
            # CG stopped on its recursive r, which drifts from the true one
            Kx = self.element_action(x) if it <= jacobi else self.K @ x
            _, rel = projected(b - Kx)
        return x, it, float(rel)

    def element_action(self, v):
        """K v element by element, G'(|T| quadratic_gradient(sym G v)), with no K assembled.

        It equals ``K @ v`` to round-off, not bit for bit; the Jacobi phase
        of ``kplus`` uses it whether or not K is built, so the bits of a
        solve depend on its own inputs only.
        """
        a, b, c, d = (self.G @ v).reshape(-1, 4).T
        S00, S01, S11 = self.density.quadratic_gradient_sym2(a, 0.5 * (b + c), d)
        stress = np.empty((len(self.areas), 4))
        stress[:, 0] = S00
        stress[:, 1] = stress[:, 2] = S01
        stress[:, 3] = S11
        stress *= self.areas[:, None]
        return self.GT @ stress.reshape(-1)


def operators(mesh, density):
    """The Operators of ``mesh`` and ``density``, memoized on the mesh."""
    ops = mesh.operator_cache.get(density)
    if ops is None:
        n = mesh.n_nodes
        # the node coordinates centred on their arithmetic mean, from the
        # column means, which nodes.mean(axis=0) takes several times longer to sum
        x, y = mesh.nodes.T
        xc, yc = x - x.mean(), y - y.mean()
        # the rigid basis in closed form: e_x / sqrt(n), e_y / sqrt(n) and the
        # normalized rotation J (x - xbar) = (yc, -xc), Euclidean-orthonormal
        # up to round-off.  Its mass image takes M 1 = |Omega| mean_weights
        # and the mass action of the rotation column alone
        Zeu = np.zeros((2 * n, 3))
        Zeu[0::2, 0] = Zeu[1::2, 1] = 1.0 / np.sqrt(n)
        Zeu[:, 2] = np.stack([yc, -xc], axis=1).ravel()
        Zeu[:, 2] /= np.linalg.norm(Zeu[:, 2])
        MZeu = np.zeros_like(Zeu)
        MZeu[0::2, 0] = MZeu[1::2, 1] = mesh.area * mesh.mean_weights / np.sqrt(n)
        MZeu[:, 2] = mass_action(mesh, Zeu[:, 2].reshape(n, 2)).reshape(-1)
        Zdual = MZeu @ np.linalg.inv(Zeu.T @ MZeu)
        X = np.zeros((2 * n, 3))
        X[0::2, 0] = xc
        X[1::2, 1] = yc
        X[0::2, 2] = yc
        X[1::2, 2] = xc
        # the fields have the constant gradients E and stresses S.  X' K X,
        # exact where the product with K is not, is |Omega| times the
        # density's energy.  K X is the nodal force of each stress, int S grad
        # phi_a = the integral of its traction S n against phi_a over the
        # boundary: |e| S n / 2 at each end of an edge e, as LoadAssembly
        # spreads a traction, and zero inside
        E = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]],
                      [[0.0, 1.0], [1.0, 0.0]]])
        S = np.array([density.quadratic_gradient(Eq) for Eq in E])
        XKX = mesh.area * np.einsum("pij,qij->pq", E, S)
        # force[e, i, q] = |e| (S_q n_e)_i / 2, at rows 2 a + i of both ends a
        force = 0.5 * np.einsum("e,qij,ej->eiq", mesh.edge_lengths, S, mesh.edge_normals)
        rows = 2 * mesh.edge_nodes[:, :, None, None] + np.arange(2)[:, None]
        force, rows, cols = np.broadcast_arrays(force[:, None], rows, np.arange(3))
        KX = sp.csc_matrix((force.ravel(), (rows.ravel(), cols.ravel())),
                           shape=(2 * mesh.n_nodes, 3))
        ops = Operators(density, mesh.G, mesh.GT, mesh.areas, mesh.elements,
                        1.0 / _stiffness_diagonal(mesh, density), Zeu, Zdual, X, KX, XKX)
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
    ``Operators.kplus`` of the load vector to ``tol``, moved to the mass
    gauge Zdual' v = 0 by v -= Zeu Zdual' v, so its rigid part in the
    mass inner product vanishes; the energy is ``elastic_energy`` of it.  A
    homogeneous load (``tension``, ``infmany``, ``compression``) has an
    affine minimizer: 0 iterations, and neither K nor the V-cycle is built.

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
    x -= ops.Zeu @ (ops.Zdual.T @ x)
    sol = DisplacementField(mesh, x.reshape(-1, 2))
    return LinearSolution(sol, elastic_energy(density, assembly, sol), it, rel)
