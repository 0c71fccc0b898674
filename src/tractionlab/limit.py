"""The limit energy with inner minimization over constant skew matrices.

For a displacement v the limit energy is

    F(v) = min_W int quadratic(E(v) - W^2/2) dx - L(v),

minimized over constant skew W.  In 2D, W^2 = -a^2 I reduces the inner
problem to one scalar with the closed form

    a*^2 = (int quadratic(I))^-1 * (int quadratic_gradient(I) : E(v))^-

(negative part), which for the isotropic density equals
(1/|Omega|) (int div v)^-.  In 3D, for a constant strain, the inner
minimizer is a closed-form multiple of the top eigenvector of sym E.  The
inner minimizer is unique up to sign; the canonical representative has
a* >= 0 (2D) or first nonzero axis component positive (3D), and
``W_star`` is that skew matrix.  The outer 2D minimizer is the
linear-elastic one, which ``minimize_limit`` evaluates.  Every function
here reads the mesh from its field or assembly, and the compatibility
class from ``assembly.classification``; ``limit_report`` still takes a
leading mesh as well, and checks it against both.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _canonical_axis, skew2, skew3
from .fem import DisplacementField, _stored_energy
from .loads import INCOMPATIBLE, WEAK, MeshMismatchError, load_work

# dead band for the negative-part trigger, relative to the integral mass.
# Under weakly compatible loads int quadratic_gradient(I) : E(v_lin) is zero
# up to CG noise: 1.4e-11 for the 128x128 tangential pattern of amplitude 2
# at cg_tol 1e-10.  Taken as a negative part, that noise would give
# |W_star| = sqrt(2 * 1.4e-11 / 16) = 1.3e-6, above the 1e-6 tolerance the
# report checks W0_norm against.
_NEGATIVE_PART_SNAP = 1e-10


class IncompatibleLoadsError(RuntimeError):
    """Loads violate compatibility: the limit energy is unbounded from below."""

    def __init__(self, witness, witness_work):
        self.witness = witness
        self.witness_work = witness_work
        super().__init__(
            "incompatible loads: inf F = -infinity along the witness skew direction "
            f"(L(z_W) = {witness_work:.6g} > 0 for the unit witness, F decays like "
            "min E - tau * L(z_W) as tau -> +infinity)"
        )


@dataclass(frozen=True)
class LimitReport:
    """Limit and classical energies of one displacement field."""

    field: DisplacementField
    F_value: float
    E_value: float
    gap: float
    W_star: np.ndarray      # the inner minimizer, a skew matrix
    a_star_sq: float
    gap_formula: float      # E - F (2D) in closed form from a_star_sq


def inner_skew_minimum(density, field):
    """2D inner minimization over skew offsets of the strain E(v), by exact quadrature.

    Reads the gradient columns a, b, c, d of ``field.gradient_columns()``,
    so E(v) = [[a, (b + c)/2], [(b + c)/2, d]] per element.

    Returns
    -------
    (W_star, offset_energy, a_star_sq) with offset_energy =
    int quadratic(E + (a*^2/2) I) dx and canonical a* >= 0.
    """
    return _inner_skew_minimum(density, field.mesh, field.gradient_columns())


def _inner_skew_minimum(density, mesh, columns):
    """``inner_skew_minimum`` from the gradient columns of the field, shape (m, 4)."""
    a, b, c, d = columns.T
    q = density.quadratic_gradient(np.eye(2))[0, 0]      # quadratic_gradient(I) = q I
    per_elem = q * a + q * d
    num = float(np.sum(mesh.areas * per_elem))
    den = mesh.area * density.quadratic(np.eye(2))
    snap = _NEGATIVE_PART_SNAP * (1.0 + float(np.sum(mesh.areas * np.abs(per_elem))))
    a2 = (-num / den) if num < -snap else 0.0
    shift = 0.5 * a2
    energy = float(mesh.areas @ density.quadratic_sym2(a + shift, 0.5 * (b + c), d + shift))
    return skew2(math.sqrt(a2)), energy, a2


def inner_skew_minimum_3d(density, strain):
    """3D inner minimization for a constant strain (analysis path), in closed form.

    With W = sqrt(r) [q]x and |q| = 1 the objective quadratic(E - W^2/2) is

        4 mu (|E|^2 + r (tr E - q'Eq) + r^2/2) + 2 lam (tr E + r)^2,

    linear in q'Eq with a nonpositive coefficient.  So q is the top
    eigenvector of sym E, and minimizing the quadratic in r >= 0 gives
    r = max(0, -(mu (tr E - e_max) + lam tr E) / (mu + lam)).

    Returns (W_star, offset_energy) with the canonical axis sign (first
    nonzero component positive); offset_energy is the objective at W_star.
    """
    S = np.asarray(strain, dtype=float)
    E = 0.5 * (S + S.T)
    vals, Q = np.linalg.eigh(E)
    tr = float(np.trace(E))
    mu, lam = density.mu, density.lam
    r = max(0.0, -(mu * (tr - vals[-1]) + lam * tr) / (mu + lam))
    W_star = skew3(_canonical_axis(math.sqrt(r) * Q[:, -1]))
    return W_star, density.quadratic(E - 0.5 * (W_star @ W_star))


def limit_report(mesh, density, assembly, field):
    """Evaluate the limit energy F, the classical energy E and their gap.

    The 2D gap E - F is cross-checked against its closed form
    (1/4) int quadratic(I) (a*^2)^2 in ``gap_formula``, which equals
    (1/4) (int quadratic(I))^-1 [ (int quadratic_gradient(I):E)^- ]^2
    only for the right a*^2.  Raises MeshMismatchError when ``mesh`` is not
    the mesh of ``field`` or of ``assembly``.
    """
    if field.mesh is not mesh or assembly.mesh is not mesh:
        raise MeshMismatchError("the field and the load assembly must live on the given mesh")
    # both energies read one gradient of the field and one load work; with
    # a*^2 = 0 the offset energy is the stored energy itself
    columns = field.gradient_columns()
    W_star, offset_energy, a2 = _inner_skew_minimum(density, mesh, columns)
    work = load_work(assembly, field)
    F_value = offset_energy - work
    stored = offset_energy if a2 == 0.0 else _stored_energy(density, mesh, columns)
    E_value = stored - work
    return LimitReport(
        field=field,
        F_value=F_value,
        E_value=E_value,
        gap=E_value - F_value,
        W_star=W_star,
        a_star_sq=a2,
        gap_formula=0.25 * mesh.area * density.quadratic(np.eye(2)) * a2 * a2,
    )


def minimize_limit(density, assembly, linear):
    """Minimize the limit energy: the minimizer is the linear-elastic one.

    Substituting v = w - (a^2/2) x turns the limit energy at the skew
    offset aJ into E(w) + (a^2/2) Tr S with S the load moment matrix, and
    Tr S >= 0 for compatible loads.  So (v_lin, W = 0) is a minimizer:
    the only one up to rigid motions for strict loads, one of the ray
    v_lin - t x for weak loads.  ``linear`` is the LinearSolution of
    ``assembly``; nothing is solved here.

    Returns ``limit_report`` of ``linear.field``: F_value and W_star come
    from the inner minimization and E_value from the classical energy, so
    |F_value - E_value| remains an independent check of the coincidence of
    minima.  Refuses loads that ``assembly.classification`` finds
    incompatible (the infimum is -infinity).
    """
    cls = assembly.classification
    if cls.compat_class == INCOMPATIBLE:
        raise IncompatibleLoadsError(cls.witness, cls.witness_work)
    return limit_report(linear.field.mesh, density, assembly, linear.field)


@dataclass(frozen=True)
class ShiftRecord:
    """Verification record for one shifted minimizer candidate."""

    t: float
    F_delta: float              # F(v) - min F, expected ~ 0
    E_delta: float              # E(v) - min E, expected > 0 for t > 0


def shifted_minimizer(density, assembly, limit, t):
    """Shift a minimizer along the load kernel: v = v_star - t x.

    ``limit`` is the LimitReport of the minimizer v_star, as
    ``minimize_limit`` returns it, and ``assembly.classification`` must
    be weak.  In 2D every kernel direction U is +-J, with U^2 = -I, so
    the shift t U^2 x is -t x.  Raises ValueError unless 0 <= t < inf.

    Returns (field, ShiftRecord).
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"shift parameter t must be finite and nonnegative, got {t}")
    compat_class = assembly.classification.compat_class
    if compat_class != WEAK:
        raise ValueError(f"shifted minimizers require weak compatibility, got {compat_class!r}")
    mesh = limit.field.mesh
    field = DisplacementField(mesh, limit.field.values - t * mesh.nodes)
    rep = limit_report(mesh, density, assembly, field)
    record = ShiftRecord(
        t=float(t),
        F_delta=rep.F_value - limit.F_value,
        E_delta=rep.E_value - limit.E_value,
    )
    return field, record
