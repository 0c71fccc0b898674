"""Rescaled nonlinear energy on the P1 space and the h-sweep experiment.

The rescaled energy of a displacement v at parameter h > 0 is

    Fh(v) = int rescaled_density(grad v) dx - L(v),

+infinity as soon as some element loses orientation
(det(I + h grad v) <= 0).  The integrand is polynomial in the constant
per-element gradient, so one-point quadrature is exact.  The element
kernels work on the four gradient components of ``mesh.G @ v`` as flat
arrays: F = I + h grad v, det F and the Green strain come from one
helper, and the density and its derivative are written out component by
component, for the L-BFGS steps and the rotation-path probe alike.

Minimization uses limited-memory BFGS with a backtracking line search
that enforces both the Armijo decrease and the orientation barrier
det(I + h grad v) >= delta.  As h -> 0, h^-2 W(I + h B) tends to
quadratic(sym B), so the Hessian of Fh at v = 0 is the linear-elastic
stiffness K for every h.  The two-loop recursion therefore starts from
the inverse of K on the complement of the rigid displacements (Nocedal &
Wright, Numerical Optimization, sec. 7.2), which makes the iteration
count independent of the mesh.  Only the translation gauge is imposed
(subtract the mass-mean displacement each iteration); rotations are not
a symmetry of Fh under loads and are deliberately not gauged out.  K
does not see them, so on the rigid span the initial matrix keeps the
scalar L-BFGS scaling and the curvature pairs supply the rest.  A run
whose accepted steps stop lowering Fh (a gradient tolerance below
round-off) ends as stalled instead of running to its iteration limit.
At fixed h > 0, Fh is bounded below unless the loads are incompatible
(the density grows quartically and vanishes only on rotations); that one
unbounded regime is certified by the rotation-path probe, not minimized.

Independent sweep points must not be parallelized: each h is
warm-started from the minimizer of the previous one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fem import (DisplacementField, _projected_pcg, element_gradients,
                  element_strains, integral_mean, linear_field, operators)
from .limit import IncompatibleLoadsError
from .loads import (INCOMPATIBLE, STRICT, MeshMismatchError, classify_compatibility,
                    load_work)

CONVERGED = "converged"
DIVERGED = "diverged"
ITER_LIMIT = "iter_limit"
STALLED = "stalled"

_BARRIER_DELTA = 1e-8
_ARMIJO = 1e-4
# relative residual of the inner K^+ solve.  With the multigrid V-cycle each
# factor of 100 costs only a few PCG iterations per application, and an H0
# that close to K^+ saves outer L-BFGS iterations on the first h: the
# tension sweep takes 5/4/3/3 at 32x32 and 128x128 against 11/4/3/3 and
# 8/4/3/3 at 1e-6, for about the same number of inner iterations in total
_H0_CG_TOL = 1e-8
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

    def __init__(self, compat_class, reason):
        self.compat_class = compat_class
        self.reason = reason
        super().__init__(reason)


def _deformation(mesh, values, h):
    """Per-element F = I + h grad v, det F and the rescaled Green strain, in components.

    The four columns of ``mesh.G @ values`` are the gradient components
    a, b, c, d = dv_0/dx_0, dv_0/dx_1, dv_1/dx_0, dv_1/dx_1.  Returns
    ``((F00, F01, F10, F11), det F, (e00, e01, e11))`` with e = Eh / h =
    sym(grad v) + (h/2) grad v' grad v, the Green strain Eh of F divided
    by h.
    """
    a, b, c, d = (mesh.G @ np.asarray(values).reshape(-1)).reshape(-1, 4).T
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


def _element_dets(mesh, values, h):
    return _deformation(mesh, values, h)[1]


def stored_rescaled(mesh, density, values, h):
    """Stored part of the rescaled energy; +inf when orientation is lost."""
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    _, det, e = _deformation(mesh, values, h)
    if np.any(det <= 0.0):
        return np.inf
    # h^-2 quadratic(Eh) = quadratic(Eh / h)
    return float(mesh.areas @ density.quadratic_sym2(*e))


def eval_rescaled(mesh, density, assembly, field, h):
    """Rescaled total energy Fh(v); assembly may be None for zero loads."""
    stored = stored_rescaled(mesh, density, field.values, h)
    if not np.isfinite(stored):
        return np.inf
    if assembly is None:
        return stored
    return stored - load_work(assembly, field)


def rescaled_gradient(mesh, density, assembly, field, h):
    """Exact nodal gradient of the discrete rescaled energy, shape (n, 2).

    Raises InadmissibleStateError when some element has lost orientation.
    """
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    (F00, F01, F10, F11), det, (e00, e01, e11) = _deformation(mesh, field.values, h)
    if np.any(det <= 0.0):
        bad = int(np.argmin(det))
        raise InadmissibleStateError(
            f"element {bad} has det(I + h grad v) = {det[bad]!r} <= 0"
        )
    # d/dG of h^-2 quadratic(Eh) is F S with S = quadratic_gradient(Eh / h)
    mu8, lam4tr = 8.0 * density.mu, 4.0 * density.lam * (e00 + e11)
    S00 = mu8 * e00 + lam4tr
    S01 = mu8 * e01
    S11 = mu8 * e11 + lam4tr
    dPsi = np.empty((len(det), 4))
    dPsi[:, 0] = F00 * S00 + F01 * S01
    dPsi[:, 1] = F00 * S01 + F01 * S11
    dPsi[:, 2] = F10 * S00 + F11 * S01
    dPsi[:, 3] = F10 * S01 + F11 * S11
    dPsi *= mesh.areas[:, None]
    out = (mesh.G.T @ dPsi.reshape(-1)).reshape(-1, 2)
    if assembly is not None:
        out = out - assembly.load_vector
    return out


@dataclass(frozen=True)
class DivergenceCertificate:
    """Witness of unbounded descent under incompatible loads.

    ``direction`` is the explicit zero-stored-energy rotation field at
    theta = pi/3 scaled by 1/h; ``thetas``/``trace`` record Fh along the
    whole rotation path; ``witness_work`` is L(z_W) > 0 for the unit
    witness skew direction.
    """

    direction: DisplacementField
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
    barrier_hits: int
    energy_floor: float
    energy_trace: list = None       # accepted energies, initial state first
    certificate: DivergenceCertificate | None = None


def _gauge(mesh, values):
    return values - integral_mean(mesh, values)


def rotation_path_field(mesh, witness, theta, h):
    """The rotation-path displacement v = h^-1 (sin(t) W + (1-cos(t)) W^2) x."""
    W = witness.matrix()
    A = (math.sin(theta) * W + (1.0 - math.cos(theta)) * (W @ W)) / h
    return linear_field(mesh, A)


def _instability_probe(mesh, density, assembly, h, classification, n_theta=64):
    """Trace Fh along the witness rotation orbit; exact descent certificate."""
    thetas = np.pi * np.arange(1, n_theta + 1) / n_theta
    # pi/3 is the landmark angle where the path is an exact rotation field
    thetas = np.unique(np.concatenate([thetas, [np.pi / 3.0]]))
    trace = np.empty(len(thetas))
    for i, th in enumerate(thetas):
        fld = rotation_path_field(mesh, classification.witness, th, h)
        trace[i] = eval_rescaled(mesh, density, assembly, fld, h)
    k = int(np.argmin(trace))
    worst = rotation_path_field(mesh, classification.witness, thetas[k], h)
    grad = rescaled_gradient(mesh, density, assembly, worst, h)
    return NonlinearResult(
        status=DIVERGED,
        field=worst,
        value=float(trace[k]),
        grad_norm=float(np.linalg.norm(grad)),
        iterations=0,
        barrier_hits=0,
        energy_floor=float(trace[k]),
        energy_trace=[float(v) for v in trace],
        certificate=DivergenceCertificate(
            direction=rotation_path_field(mesh, classification.witness, np.pi / 3.0, h),
            thetas=thetas,
            trace=trace,
            witness_work=classification.witness_work,
        ),
    )


def _stiffness_h0(mesh, density):
    """Initial inverse Hessian H0 = P K^+ P + gamma Zeu Zeu^T of the two-loop recursion.

    K is the linear-elastic stiffness, Zeu the Euclidean-orthonormal rigid
    basis and P = I - Zeu Zeu^T, all taken from ``operators(mesh,
    density)``.  Returns ``apply(q, gamma)``; K^+ is applied by projected
    PCG with the bundle's preconditioner to relative residual _H0_CG_TOL,
    so H0 is symmetric positive definite up to that tolerance.
    """
    ops = operators(mesh, density)
    K, Zeu = ops.K, ops.Zeu

    def apply(q, gamma):
        rigid = Zeu @ (Zeu.T @ q)
        b = q - rigid
        # second pass: b must be rigid-free relative to its own size, also
        # when q is nearly rigid, or CG meets an inconsistent system
        b -= Zeu @ (Zeu.T @ b)
        x, _, _ = _projected_pcg(K, b, Zeu, _H0_CG_TOL, ops.vcycle)
        return x - Zeu @ (Zeu.T @ x) + gamma * rigid
    return apply


def _two_loop(grad, s_list, y_list, rho_list, h0):
    q = grad.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    gamma = 1.0
    if s_list:
        s, y = s_list[-1], y_list[-1]
        gamma = (s @ y) / (y @ y)
    q = h0(q, gamma)
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def minimize_rescaled(mesh, density, assembly, h, init=None, grad_tol=1e-8):
    """Quasi-Newton minimization of the rescaled energy at fixed h.

    L-BFGS (memory 10, at most 2000 iterations) with a backtracking line
    search from the unit step that first halves the step until every
    element satisfies det(I + h grad v) >= 1e-8 and then enforces the
    Armijo decrease.  The two-loop recursion starts from the stiffness
    inverse K^+ on the rigid-mode complement and from the scalar sy/yy on
    the rigid span, so the iteration count does not grow with the mesh.
    Converged means |grad| <= grad_tol * (1 + |Fh|).  Stalled means that
    10 accepted steps in a row did not lower Fh (grad_tol is below what
    round-off in Fh allows).  Diverged is declared only for loads
    classified incompatible, the one regime where Fh is unbounded below:
    the result is then the rotation-orbit certificate, with no
    minimization.  The solver reports gradient-norm stationarity only; it
    never claims global optimality.

    ``energy_floor`` records the lowest finite energy seen across all
    accepted and trial states.
    """
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    classification = classify_compatibility(assembly)
    if classification.compat_class == INCOMPATIBLE:
        return _instability_probe(mesh, density, assembly, h, classification)

    h0 = _stiffness_h0(mesh, density)
    x = np.zeros((mesh.n_nodes, 2)) if init is None else np.asarray(init.values, dtype=float)
    x = _gauge(mesh, x)
    fld = DisplacementField(mesh, x)
    f = eval_rescaled(mesh, density, assembly, fld, h)
    if not np.isfinite(f):
        raise InadmissibleStateError("initial state has lost orientation")
    g = rescaled_gradient(mesh, density, assembly, fld, h).reshape(-1)
    floor = f
    barrier_hits = 0
    s_list, y_list, rho_list = [], [], []
    xf = x.reshape(-1)
    energy_trace = [f]

    status = ITER_LIMIT
    it = 0
    flat_steps = 0
    for it in range(1, _MAX_ITER + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= grad_tol * (1.0 + abs(f)) \
                and np.all(_element_dets(mesh, xf, h) >= _BARRIER_DELTA):
            status = CONVERGED
            it -= 1
            break

        d = -_two_loop(g, s_list, y_list, rho_list, h0)
        if d @ g >= 0.0:
            d = -g
        t = 1.0
        gd = g @ d
        accepted = False
        for _ in range(80):
            # gauged before it is evaluated, so an accepted trial point is the
            # next iterate with its energy already known
            cand = _gauge(mesh, (xf + t * d).reshape(-1, 2)).reshape(-1)
            if np.any(_element_dets(mesh, cand, h) < _BARRIER_DELTA):
                barrier_hits += 1
                t *= 0.5
                continue
            f_cand = eval_rescaled(
                mesh, density, assembly, DisplacementField(mesh, cand), h
            )
            if np.isfinite(f_cand):
                floor = min(floor, f_cand)
            if f_cand <= f + _ARMIJO * t * gd:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # line search exhausted at floating-point resolution
            status = ITER_LIMIT
            break

        x_new, f_new = cand, f_cand
        g_new = rescaled_gradient(
            mesh, density, assembly, DisplacementField(mesh, x_new), h
        ).reshape(-1)
        s = x_new - xf
        y = g_new - g
        sy = s @ y
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            if len(s_list) > _MEMORY:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
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
        barrier_hits=barrier_hits,
        energy_floor=floor,
        energy_trace=energy_trace,
    )


# fixed panel of polynomial test tensors for the weak-convergence surrogate:
# three constant symmetric directions, each also weighted by x1 and x2
_PANEL_CONST = (
    np.array([[1.0, 0.0], [0.0, 1.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
)


def strain_moments(mesh, field):
    """Strain moments int E(v) : T_k dx for the fixed 9-tensor panel."""
    panel = np.stack([T.ravel() for T in _PANEL_CONST], axis=1)
    base = element_strains(mesh, field).reshape(-1, 4) @ panel          # (m, 3)
    # int 1, int x1 and int x2 over each element
    weights = mesh.areas[:, None] * np.column_stack([np.ones(mesh.n_elements), mesh.centroids])
    return (base.T @ weights).reshape(-1)


def mean_skew_gradient(mesh, field):
    """Area-averaged skew part of grad v, a 2x2 skew matrix."""
    G = element_gradients(mesh, field.values)
    Gm = np.einsum("m,mij->ij", mesh.areas, G) / mesh.area
    return 0.5 * (Gm - Gm.T)


@dataclass(frozen=True)
class SweepRecord:
    h: float
    Fh: float
    W_proxy: float
    moment_dist: float
    iters: int
    status: str
    moments: np.ndarray


@dataclass
class SweepResult:
    records: list
    limit_value: float          # min of the limit energy
    limit_W0_norm: float
    limit_moments: np.ndarray
    energy_floor: float


class SweepAbortedError(RuntimeError):
    def __init__(self, records, result):
        self.records = records
        self.result = result
        super().__init__(
            f"sweep aborted at h = {records[-1].h if records else '?'}: "
            f"minimizer status {result.status!r} (value {result.value:.6g}, "
            f"grad norm {result.grad_norm:.3e})"
        )


def h_sweep(mesh, density, assembly, classification, limit, h_list, grad_tol=1e-8):
    """Minimize Fh along a descending h list and compare with the limit.

    ``assembly`` holds the loads assembled on ``mesh``, ``classification``
    their compatibility class and ``limit`` their LimitMinimum on the same
    mesh.  Only strictly compatible loads are accepted; incompatible loads
    have no limit minimizer, so ``limit`` is not looked at for them.  Each
    h is warm-started from the previous minimizer, the first from the limit
    minimizer (for strict loads it is the linear-elastic one), tracking the
    minimizing branch.  Raises MeshMismatchError when ``assembly`` or
    ``limit`` lives on another mesh.  Returns records (h, min Fh, the proxy
    |sqrt(h) mean skew grad|, strain-moment distances to the limit
    minimizer) plus the limit comparison values.
    """
    hs = [float(h) for h in h_list]
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h_list must be strictly decreasing")
    if classification.compat_class == INCOMPATIBLE:
        raise IncompatibleLoadsError(classification.witness, classification.witness_work)
    if classification.compat_class != STRICT:
        raise SweepRefusedError(
            classification.compat_class,
            "sweep requires strictly compatible loads: under weak compatibility "
            "minimizing sequences may lose compactness (extra limit minimizers "
            "with unbounded skew gradients)",
        )
    if assembly.mesh is not mesh or limit.field.mesh is not mesh:
        raise MeshMismatchError("the sweep's loads and limit minimizer must live on its mesh")

    limit_moments = strain_moments(mesh, limit.field)
    limit_W0_norm = math.sqrt(limit.W0.norm_sq())

    warm = limit.field
    records = []
    floor = np.inf
    for h in hs:
        res = minimize_rescaled(mesh, density, assembly, h, init=warm, grad_tol=grad_tol)
        floor = min(floor, res.energy_floor)
        moments = strain_moments(mesh, res.field)
        rec = SweepRecord(
            h=h,
            Fh=res.value,
            W_proxy=math.sqrt(h) * float(np.linalg.norm(mean_skew_gradient(mesh, res.field))),
            moment_dist=float(np.linalg.norm(moments - limit_moments)),
            iters=res.iterations,
            status=res.status,
            moments=moments,
        )
        records.append(rec)
        if res.status != CONVERGED:
            raise SweepAbortedError(records, res)
        warm = res.field
    return SweepResult(
        records=records,
        limit_value=limit.F_value,
        limit_W0_norm=limit_W0_norm,
        limit_moments=limit_moments,
        energy_floor=float(floor),
    )
