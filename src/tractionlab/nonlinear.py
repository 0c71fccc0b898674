"""Rescaled nonlinear energy on the P1 space and the h-sweep experiment.

The rescaled energy of a displacement v at parameter h > 0 is

    Fh(v) = int rescaled_density(grad v) dx - L(v),

+infinity as soon as some element loses orientation
(det(I + h grad v) <= 0).  The integrand is polynomial in the constant
per-element gradient, so one-point quadrature is exact.  The element
kernels work on the four gradient components of
``DisplacementField.gradient_columns`` as flat arrays: F = I + h grad v,
det F and the Green strain come from one helper, and the density and its
stress from ``Density.quadratic_sym2`` and
``Density.quadratic_gradient_sym2``, for the L-BFGS steps and the
rotation-path probe alike.  The minimization forms that deformation once
per trial: the energy evaluation keeps it, and the gradient of an
accepted trial, or of a start, reads it instead of forming it again.  The
gradient scatters its element terms through the mesh's stored G'.

Minimization uses limited-memory BFGS with a backtracking line search
that enforces the Armijo decrease; the orientation barrier is the
domain of Fh itself, det(I + h grad v) > 0, so a trial where Fh is
+infinity halves the step.  Where Fh is flat to round-off, a trial step
is judged by its slope instead (the approximate Wolfe test).  As h -> 0,
h^-2 W(I + h B) tends to quadratic(sym B), so the Hessian of Fh at v = 0
is the linear-elastic stiffness K for every h.  The two-loop recursion therefore starts from
the inverse of K on the complement of the rigid displacements (Nocedal &
Wright, Numerical Optimization, sec. 7.2), which makes the iteration
count independent of the mesh.  Only the translation gauge is imposed
(subtract the mass-mean displacement each iteration); rotations are not
a symmetry of Fh under loads and are deliberately not gauged out.  K
does not see them, so on the rigid span the initial matrix keeps the
scalar L-BFGS scaling and the curvature pairs supply the rest.  A run
whose accepted steps stop lowering Fh (a gradient tolerance below
round-off, or iterates pressed against the orientation barrier) ends as
stalled.  Such a stall need not be near a minimum: turning the deformed
body phi = x + h v keeps the stored energy and moves only the load
work, a step that L-BFGS does not take.
At fixed h > 0, Fh is bounded below for every equilibrated load: the
density grows quartically in grad v and the load work is linear.  What
incompatible loads make unbounded is the h-family.  Along the witness
rotation path v = h^-1 (R_theta - I) x the stored energy vanishes and
Fh = (1 - cos theta) tr S / h, least at theta = pi, where it is
2 tr S / h and tends to -inf as h -> 0 when tr S < 0.  The certificate is that one state: the
discrete Fh and its gradient are evaluated once at theta = pi, and Fh at
the given h is not minimized.

Independent sweep points must not be parallelized: each h is
warm-started from the minimizer of the previous one.  The functions here
read the mesh from their field or load assembly, and the compatibility
class from ``assembly.classification``; ``minimize_rescaled`` still takes
a leading mesh as well, and checks it against both.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .algebra import rodrigues
from .fem import (DisplacementField, NotEquilibratedError, integral_mean, linear_field,
                  operators)
from .limit import IncompatibleLoadsError
from .loads import INCOMPATIBLE, STRICT, MeshMismatchError, load_work

CONVERGED = "converged"
DIVERGED = "diverged"
ITER_LIMIT = "iter_limit"
STALLED = "stalled"

_ARMIJO = 1e-4
# residual of the inner K^+ solve, relative to the Jacobi norm of the
# rigid-projected gradient P g, not of the two-loop vector b = P q it
# solves for (the inexact-Newton test of Dembo, Eisenstat and Steihaug,
# 1982).  After a point's first step the first loop has already cut q to
# 1e-8 ... 1e-2 of g, and a residual relative to b would be resolved far
# below anything the next step sees.  The tension sweep at 32x32 takes
# 1/0/0/0 inner iterations per point, as the affine start of the solve
# meets the test or leaves round-off that a Jacobi step of K^+ settles,
# so it never builds the multigrid; at 1e-8 of b it takes 109/86/58/54.
# The body force g = x, whose solves iterate with the multigrid from the
# first step, takes 61/61/61/32 against 62/62/62/32, with the same L-BFGS
# iterations in all four
_H0_CG_TOL = 1e-8
# a trial step that fails Armijo but raises Fh by at most this, relative
# to 1 + |Fh|, is on energy that is flat to round-off; it is accepted on
# the approximate Wolfe test of Hager and Zhang (SIAM J. Optim. 16, 2005)
# instead, with slope bounds _WOLFE_SIGMA g'd <= g_cand'd <= -_WOLFE_UPPER g'd
_FLAT_ENERGY = 1e-13
_WOLFE_SIGMA = 0.9
_WOLFE_UPPER = 0.8
# consecutive accepted steps that do not lower Fh after which the
# minimization stops as stalled: Fh is flat to round-off there, and a
# grad_tol below what round-off allows is never reached
_STALL_STEPS = 10
_MEMORY = 10        # L-BFGS curvature pairs kept
_MAX_ITER = 2000    # iteration limit of one minimization


class InadmissibleStateError(ValueError):
    """Gradient requested at a state with det(I + h grad v) <= 0 somewhere."""


class SweepRefusedError(RuntimeError):
    """Sweep preconditions not met (classification is not strict)."""


def _check_h(h):
    """ValueError unless 0 < h < inf."""
    if not 0.0 < h < np.inf:
        raise ValueError(f"h must be finite and positive, got {h}")


def _deformation(field, h):
    """Per-element F = I + h grad v, det F and the rescaled Green strain, in components.

    Every evaluation of Fh or its gradient passes here, so this is where h
    is checked, by ``_check_h``; so is the rotation-path field, which
    divides by h before anything is evaluated.  The four columns of
    ``field.gradient_columns()`` are the gradient components
    a, b, c, d = dv_0/dx_0, dv_0/dx_1, dv_1/dx_0, dv_1/dx_1.  Returns
    ``((F00, F01, F10, F11), det F, (e00, e01, e11))`` with e = Eh / h =
    sym(grad v) + (h/2) grad v' grad v, the Green strain Eh of F divided
    by h.
    """
    _check_h(h)
    a, b, c, d = field.gradient_columns().T
    F00 = 1.0 + h * a
    F01 = h * b
    F10 = h * c
    F11 = 1.0 + h * d
    det = F00 * F11 - F01 * F10
    half_h = 0.5 * h
    e00 = a + half_h * (a * a + c * c)
    e01 = 0.5 * (b + c) + half_h * (a * b + c * d)
    e11 = d + half_h * (b * b + d * d)
    return (F00, F01, F10, F11), det, (e00, e01, e11)


def _energy(density, assembly, field, h):
    """``(Fh(v), deformation)``, with the ``_deformation`` that Fh was evaluated
    at, for ``_gradient`` to read; ``(inf, None)`` when some element has lost
    orientation."""
    deformation = _deformation(field, h)
    _, det, e = deformation
    if np.any(det <= 0.0):
        return np.inf, None
    # h^-2 quadratic(Eh) = quadratic(Eh / h)
    stored = float(field.mesh.areas @ density.quadratic_sym2(*e))
    return stored - load_work(assembly, field), deformation


def _gradient(density, assembly, deformation):
    """Nodal gradient of Fh, shape (n, 2), from an admissible ``_deformation``
    of a field on ``assembly.mesh``."""
    mesh = assembly.mesh
    (F00, F01, F10, F11), det, (e00, e01, e11) = deformation
    # d/dG of h^-2 quadratic(Eh) is F S with S = quadratic_gradient(Eh / h)
    S00, S01, S11 = density.quadratic_gradient_sym2(e00, e01, e11)
    dPsi = np.empty((len(det), 4))
    dPsi[:, 0] = F00 * S00 + F01 * S01
    dPsi[:, 1] = F00 * S01 + F01 * S11
    dPsi[:, 2] = F10 * S00 + F11 * S01
    dPsi[:, 3] = F10 * S01 + F11 * S11
    dPsi *= mesh.areas[:, None]
    out = (mesh.GT @ dPsi.reshape(-1)).reshape(-1, 2)
    return out - assembly.load_vector


def eval_rescaled(density, assembly, field, h):
    """Rescaled total energy Fh(v), +inf when some element has lost orientation."""
    return _energy(density, assembly, field, h)[0]


def rescaled_gradient(density, assembly, field, h):
    """Exact nodal gradient of the discrete rescaled energy, shape (n, 2).

    Raises MeshMismatchError for an assembly on another mesh than
    ``field``, and InadmissibleStateError when some element has lost
    orientation.
    """
    if field.mesh is not assembly.mesh:
        raise MeshMismatchError("field and load assembly use different meshes")
    deformation = _deformation(field, h)
    det = deformation[1]
    if np.any(det <= 0.0):
        bad = int(np.argmin(det))
        raise InadmissibleStateError(
            f"element {bad} has det(I + h grad v) = {det[bad]!r} <= 0"
        )
    return _gradient(density, assembly, deformation)


@dataclass(frozen=True)
class DivergenceCertificate:
    """Witness of unbounded descent under incompatible loads.

    ``thetas``/``trace`` record Fh on the rotation path at its least
    value, the single angle theta = pi; ``witness_work`` is L(z_W) > 0
    for the unit witness skew direction.
    """

    thetas: np.ndarray
    trace: np.ndarray
    witness_work: float


@dataclass
class NonlinearResult:
    status: str
    field: DisplacementField
    value: float
    grad_norm: float
    iterations: int
    cg_iterations: int              # inner K^+ PCG iterations, over all steps
    barrier_hits: int
    energy_floor: float
    energy_trace: list = None       # accepted energies, initial state first
    certificate: DivergenceCertificate | None = None


def _gauge(mesh, values):
    return values - integral_mean(mesh, values)


def rotation_path_field(mesh, witness, theta, h):
    """The rotation-path displacement v = h^-1 (R_theta - I) x, R_theta = exp(theta W)."""
    _check_h(h)
    return linear_field(mesh, (rodrigues(theta, witness) - np.eye(2)) / h)


def _instability_probe(density, assembly, h):
    """Fh at theta = pi on the witness rotation orbit; exact descent certificate.

    There v = -2 h^-1 x, the stored energy vanishes and the load work is
    exact on the affine field, so Fh = 2 tr S / h, the least value on the
    orbit.  Fh is evaluated on the mesh, not taken from that closed form,
    so the two check each other.
    """
    cls = assembly.classification
    fld = rotation_path_field(assembly.mesh, cls.witness, np.pi, h)
    # F = I + h grad v = -I there, so det F = 1 and the state is admissible
    value, deformation = _energy(density, assembly, fld, h)
    grad = _gradient(density, assembly, deformation)
    return NonlinearResult(
        status=DIVERGED,
        field=fld,
        value=value,
        grad_norm=float(np.linalg.norm(grad)),
        iterations=0,
        cg_iterations=0,
        barrier_hits=0,
        energy_floor=value,
        energy_trace=[value],
        certificate=DivergenceCertificate(
            thetas=np.array([np.pi]),
            trace=np.array([value]),
            witness_work=cls.witness_work,
        ),
    )


def _h0(ops, q, gamma, grad):
    """``(H0 q, PCG iterations)`` for the initial inverse Hessian H0 = P K^+ P + gamma (I - P).

    K is the linear-elastic stiffness and P the Euclidean projection onto
    the complement of the rigid displacements, both of ``ops =
    operators(mesh, density)``.  ``Operators.kplus`` applies K^+ to q at
    tolerance _H0_CG_TOL relative to grad, so H0 is symmetric positive
    definite up to that tolerance; the rigid part of q is scaled by gamma.
    """
    x, it, _ = ops.kplus(q, _H0_CG_TOL, grad)
    return x + gamma * ops.rigid_part(q), it


def _two_loop(grad, pairs, ops):
    """``(H grad, PCG iterations)`` for the L-BFGS inverse Hessian H of the
    (s, y, rho) ``pairs``, oldest first, started from ``_h0``."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    gamma = 1.0
    if pairs:
        s, y, _ = pairs[-1]
        gamma = (s @ y) / (y @ y)
    q, iterations = _h0(ops, q, gamma, grad)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q, iterations


def minimize_rescaled(mesh, density, assembly, h, init=None, grad_tol=1e-8):
    """Quasi-Newton minimization of the rescaled energy at fixed h.

    L-BFGS (memory 10, at most 2000 iterations) with a backtracking line
    search from the unit step.  A trial outside the domain of Fh, where
    some element has det(I + h grad v) <= 0 and Fh = +inf, is a barrier
    hit and halves the step; so every iterate has det > 0 everywhere.  A
    trial is accepted on the Armijo decrease, or, when it raises Fh by at
    most 1e-13 (1 + |Fh|) and so lies where Fh is flat to round-off, when
    its gradient passes the approximate Wolfe test 0.9 g'd <= g_cand'd <=
    -0.8 g'd (Hager and Zhang, 2005).  The two-loop recursion
    starts from ``fem.Operators.kplus`` on the rigid-mode complement, to
    a residual of 1e-8 of the rigid-free gradient, and from the scalar
    sy/yy on the rigid span, so the iteration count does not grow with
    the mesh; a pair with s'y <= 0 is not kept, so the inverse Hessian
    stays positive definite, to the tolerance of its K^+ solves, and -H g
    is a descent direction.  ``cg_iterations`` of the result counts the
    PCG iterations of those solves.  Each trial forms its deformation
    once: its gradient, when it is needed, reads the deformation that its
    energy evaluation formed.
    Converged means |grad| <= grad_tol * (1 + |Fh|).  Stalled means that
    10 accepted steps in a row did not lower Fh: grad_tol is below what
    round-off in Fh allows, or the iterates press against the orientation
    barrier, where the gradient does not vanish.  The second can be a
    rotation trap rather than a minimum (seen with lam = 0): where
    l.phi < 0 for phi = x + h v, the half turn phi -> -phi lowers Fh by
    2 |l.phi| / h, but the gradient has no part along it.  At such a trap
    round-off in the start picks the status: the same run can stall or
    end iter_limit with its line search exhausted at the barrier, at the
    same Fh.  Diverged is declared only for loads that
    ``assembly.classification`` finds incompatible, the one class whose
    h-family is unbounded below (Fh = 2 tr S / h on the rotation path at
    theta = pi); Fh at this h is
    bounded below for every equilibrated load.  The result is then the
    rotation-orbit certificate, with no minimization.  The solver reports
    gradient-norm stationarity only, never global optimality.

    ``energy_floor`` records the lowest finite energy seen across all
    accepted and trial states.  Loads that are not equilibrated raise
    NotEquilibratedError first, as in ``solve_linear``.  ``mesh`` must be
    the mesh of ``assembly`` and of ``init``; MeshMismatchError otherwise.
    """
    cls = assembly.classification
    if not cls.equilibrated:
        raise NotEquilibratedError(cls.force_residual, cls.torque_residual)
    if assembly.mesh is not mesh or (init is not None and init.mesh is not mesh):
        raise MeshMismatchError("the loads and the initial state must live on the given mesh")
    if cls.compat_class == INCOMPATIBLE:
        return _instability_probe(density, assembly, h)

    ops = operators(mesh, density)
    x = np.zeros((mesh.n_nodes, 2)) if init is None else np.asarray(init.values, dtype=float)
    x = _gauge(mesh, x)
    f, deformation = _energy(density, assembly, DisplacementField(mesh, x), h)
    if not np.isfinite(f):
        raise InadmissibleStateError("initial state has lost orientation")
    g = _gradient(density, assembly, deformation).reshape(-1)
    floor = f
    barrier_hits = 0
    cg_iterations = 0
    pairs = deque(maxlen=_MEMORY)
    xf = x.reshape(-1)
    energy_trace = [f]

    status = ITER_LIMIT
    it = 0
    flat_steps = 0
    for it in range(1, _MAX_ITER + 1):
        if np.linalg.norm(g) <= grad_tol * (1.0 + abs(f)):
            status = CONVERGED
            it -= 1
            break

        Hg, cg = _two_loop(g, pairs, ops)
        cg_iterations += cg
        d = -Hg
        t = 1.0
        gd = g @ d
        for _ in range(80):
            # gauged before it is evaluated, so an accepted trial point is the
            # next iterate with its energy already known
            x_new = _gauge(mesh, (xf + t * d).reshape(-1, 2)).reshape(-1)
            f_new, deformation = _energy(density, assembly, DisplacementField(mesh, x_new), h)
            if f_new == np.inf:
                barrier_hits += 1
            floor = min(floor, f_new)
            armijo = f_new <= f + _ARMIJO * t * gd
            if armijo or f_new <= f + _FLAT_ENERGY * (1.0 + abs(f)):
                g_new = _gradient(density, assembly, deformation).reshape(-1)
                if armijo or _WOLFE_SIGMA * gd <= g_new @ d <= -_WOLFE_UPPER * gd:
                    break
            t *= 0.5
        else:
            # line search exhausted at floating-point resolution
            status = ITER_LIMIT
            break

        s = x_new - xf
        y = g_new - g
        sy = s @ y
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        flat_steps = flat_steps + 1 if f_new >= f else 0
        xf, f, g = x_new, f_new, g_new
        energy_trace.append(f)
        if flat_steps >= _STALL_STEPS:
            status = STALLED
            break

    return NonlinearResult(
        status=status,
        field=DisplacementField(mesh, xf.reshape(-1, 2)),
        value=f,
        grad_norm=float(np.linalg.norm(g)),
        iterations=it,
        cg_iterations=cg_iterations,
        barrier_hits=barrier_hits,
        energy_floor=floor,
        energy_trace=energy_trace,
    )


# fixed panel of polynomial test tensors for the weak-convergence surrogate:
# three constant symmetric directions, each also weighted by x1 and x2, as
# columns in the row-major order of the gradient columns
_PANEL = np.stack([T.ravel() for T in (
    np.array([[1.0, 0.0], [0.0, 1.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
)], axis=1)


def _moment_weights(mesh):
    """int 1, int x1 and int x2 over each element, shape (m, 3)."""
    return mesh.areas[:, None] * np.column_stack([np.ones(mesh.n_elements), mesh.centroids])


def _strain_moments(columns, weights):
    # the panel tensors are symmetric, so E(v) : T = grad v : T
    return ((columns @ _PANEL).T @ weights).reshape(-1)


def strain_moments(field):
    """Strain moments int E(v) : T_k dx for the fixed 9-tensor panel."""
    return _strain_moments(field.gradient_columns(), _moment_weights(field.mesh))


def _mean_skew(mesh, columns):
    Gm = (np.einsum("m,mk->k", mesh.areas, columns) / mesh.area).reshape(2, 2)
    return 0.5 * (Gm - Gm.T)


def mean_skew_gradient(field):
    """Area-averaged skew part of grad v, a 2x2 skew matrix."""
    return _mean_skew(field.mesh, field.gradient_columns())


@dataclass(frozen=True)
class SweepRecord:
    """One sweep point; its fields, in order, are the columns of sweep.csv."""

    h: float
    Fh: float
    W_proxy: float
    moment_dist: float
    iters: int
    cg_iters: int
    status: str


@dataclass
class SweepResult:
    records: list
    energy_floor: float


class SweepAbortedError(RuntimeError):
    """A sweep point did not start or did not converge; ``records`` holds those computed."""

    def __init__(self, records, h, reason):
        self.records = records
        super().__init__(f"sweep aborted at h = {h!r}: {reason}")


def h_sweep(density, assembly, limit, h_list, grad_tol=1e-8):
    """Minimize Fh along a descending h list and compare with the limit.

    ``assembly`` holds the loads and their compatibility class, and
    ``limit`` the LimitReport that ``minimize_limit`` returns for them;
    the sweep runs on ``assembly.mesh``.  Only loads that
    ``assembly.classification`` finds strictly compatible are accepted;
    incompatible loads have no limit minimizer, so ``limit`` is not
    looked at for them.  Each h is warm-started from the previous
    minimizer, the first from the limit minimizer (for strict loads it is
    the linear-elastic one), tracking the minimizing branch.  Raises
    MeshMismatchError when ``limit`` lives on another mesh than
    ``assembly``, NotEquilibratedError as ``minimize_rescaled`` does, and
    SweepAbortedError, with the points computed so far, when a point
    does not converge or its warm start has lost orientation at its h.  Returns records (h, min Fh, the proxy
    |sqrt(h) mean skew grad|, strain-moment distances to the limit
    minimizer) plus the lowest energy seen over all points.
    """
    hs = [float(h) for h in h_list]
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h_list must be strictly decreasing")
    cls = assembly.classification
    if cls.compat_class == INCOMPATIBLE:
        raise IncompatibleLoadsError(cls.witness, cls.witness_work)
    if cls.compat_class != STRICT:
        raise SweepRefusedError(
            "sweep requires strictly compatible loads: under weak compatibility "
            "minimizing sequences may lose compactness (extra limit minimizers "
            "with unbounded skew gradients)",
        )
    mesh = assembly.mesh
    if limit.field.mesh is not mesh:
        raise MeshMismatchError("the sweep's loads and limit minimizer must live on one mesh")

    # each point's gradient columns serve both of its measures
    weights = _moment_weights(mesh)
    limit_moments = _strain_moments(limit.field.gradient_columns(), weights)
    warm = limit.field
    records = []
    floor = np.inf
    for h in hs:
        try:
            res = minimize_rescaled(mesh, density, assembly, h, init=warm, grad_tol=grad_tol)
        except InadmissibleStateError as exc:
            raise SweepAbortedError(records, h, f"warm start is inadmissible: {exc}") from None
        floor = min(floor, res.energy_floor)
        columns = res.field.gradient_columns()
        records.append(SweepRecord(
            h=h,
            Fh=float(res.value),
            W_proxy=math.sqrt(h) * float(np.linalg.norm(_mean_skew(mesh, columns))),
            moment_dist=float(np.linalg.norm(_strain_moments(columns, weights) - limit_moments)),
            iters=res.iterations,
            cg_iters=res.cg_iterations,
            status=res.status,
        ))
        if res.status != CONVERGED:
            raise SweepAbortedError(records, h, (
                f"minimizer status {res.status!r} (value {res.value:.6g}, "
                f"grad norm {res.grad_norm:.3e})"))
        warm = res.field
    return SweepResult(records=records, energy_floor=float(floor))
