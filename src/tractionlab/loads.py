"""Load specification, discrete load functional and compatibility classification.

A load system is boundary tractions (one rule per boundary tag) plus a
body force.  Assembly produces the nodal load vector, the resultants and
the moment matrix

    S = int_{boundary} f (x) x dH + int_{domain} g (x) x dx,

whose trace (2D) or symmetric-part eigenstructure (3D) decides the
strict / weak / incompatible trichotomy for the quadratic form
Q(W) = L(W^2 x) over skew matrices W, the classification's ``witness``
and ``kernel`` directions (``algebra.skew2``/``skew3``).  The loads are
classified once, at one tolerance, when they are assembled: the
equilibrium test and the trichotomy are ``assembly.classification``,
and every later stage reads them from there.

Both are exact closed forms.  A traction rule depends only on the edge
normal, so f = f_e is constant on edge e, whose endpoints take |e| f_e / 2
and which adds |e| f_e (x) m_e to S (m_e its midpoint).  A zero, constant
or linear body force g is its own P1 interpolant: l gains M g, S (M g)' x.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _canonical_axis, skew2, skew3
from .mesh import _scalar_mass_action

STRICT = "strict"
WEAK = "weak"
INCOMPATIBLE = "incompatible"

DEFAULT_TOL = 1e-9


class MissingTractionRuleError(LookupError):
    """A boundary tag present in the mesh has no traction rule."""


class MeshMismatchError(ValueError):
    """Field and assembly live on different meshes."""


@dataclass(frozen=True)
class TractionRule:
    """Per-tag traction: constant vector, pressure p*n, or tangential s*t.

    The tangent t is the outward normal rotated +90 degrees,
    t = (-n_y, n_x).
    """

    kind: str
    value: tuple

    def __post_init__(self):
        if self.kind not in ("constant", "pressure", "tangential"):
            raise ValueError(f"unknown traction kind {self.kind!r}")
        object.__setattr__(self, "value", tuple(float(v) for v in np.atleast_1d(self.value)))
        if self.kind == "constant" and len(self.value) != 2:
            raise ValueError("constant traction needs a 2-vector")
        if self.kind in ("pressure", "tangential") and len(self.value) != 1:
            raise ValueError(f"{self.kind} traction needs a scalar")
        if not np.isfinite(self.value).all():
            raise ValueError(f"{self.kind} traction must be finite, got {list(self.value)}")

    def evaluate(self, normal):
        """Traction for one outward normal (2,) or a stack of them (k, 2)."""
        normal = np.asarray(normal, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(np.asarray(self.value), normal.shape).copy()
        if self.kind == "pressure":
            return self.value[0] * normal
        return self.value[0] * np.stack([-normal[..., 1], normal[..., 0]], axis=-1)


def constant_traction(cx, cy):
    return TractionRule("constant", (cx, cy))


def pressure(p):
    return TractionRule("pressure", (p,))


def tangential(s):
    return TractionRule("tangential", (s,))


@dataclass(frozen=True)
class BodyForce:
    """Body force rule: zero, a constant vector, or the linear field A x."""

    kind: str = "zero"
    value: tuple = ()

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "linear"):
            raise ValueError(f"unknown body force kind {self.kind!r}")
        flat = tuple(float(v) for v in np.asarray(self.value, dtype=float).reshape(-1))
        object.__setattr__(self, "value", flat)
        if self.kind == "constant" and len(flat) != 2:
            raise ValueError("constant body force needs a 2-vector")
        if self.kind == "linear" and len(flat) != 4:
            raise ValueError("linear body force needs a 2x2 matrix")
        if not np.isfinite(flat).all():
            raise ValueError(f"{self.kind} body force must be finite, got {list(flat)}")

    def evaluate(self, points):
        """Body force values at an array of points, same leading shape."""
        if self.kind == "zero":
            return np.zeros_like(points)
        if self.kind == "constant":
            return np.broadcast_to(np.asarray(self.value), points.shape).copy()
        A = np.asarray(self.value).reshape(2, 2)
        return points @ A.T


@dataclass(frozen=True)
class LoadSpec:
    """Traction rules keyed by boundary tag, plus one body force rule."""

    tractions: dict
    body: BodyForce = BodyForce()

    def rule_for(self, tag):
        try:
            return self.tractions[tag]
        except KeyError:
            raise MissingTractionRuleError(f"no traction rule for boundary tag {tag!r}") from None


class LoadAssembly:
    """Discrete load functional, its geometric invariants and its classification.

    Attributes
    ----------
    load_vector : (n, 2) nodal vector l, so L(v) = sum(l * v_nodal)
    resultant_force : (2,)
    torque : float, scalar torque about the origin
    moment_matrix : (2, 2) matrix S
    classification : Classification of the loads at the tolerance ``tol``
    """

    def __init__(self, mesh, spec, tol):
        tags = np.asarray(mesh.edge_tags)
        f = np.zeros((len(tags), 2))
        for tag in mesh.tags():
            on_tag = tags == tag
            f[on_tag] = spec.rule_for(tag).evaluate(mesh.edge_normals[on_tag])

        lf = mesh.edge_lengths[:, None] * f
        ell = np.zeros((mesh.n_nodes, 2))
        np.add.at(ell, mesh.edge_nodes, 0.5 * lf[:, None, :])
        S = lf.T @ mesh.nodes[mesh.edge_nodes].mean(axis=1)

        if spec.body.kind != "zero":
            Mg = _scalar_mass_action(mesh, spec.body.evaluate(mesh.nodes))
            ell += Mg
            S += Mg.T @ mesh.nodes

        self.mesh = mesh
        self.load_vector = ell
        self.resultant_force = ell.sum(axis=0)
        self.moment_matrix = S
        self.torque = float(S[1, 0] - S[0, 1])

        # equilibrium residuals are absolute, against tol (1 + |l|): L vanishes
        # on translations iff the resultant force is zero, and on infinitesimal
        # rotations iff S is symmetric
        force_res = float(np.linalg.norm(self.resultant_force))
        torque_res = float(np.linalg.norm(0.5 * (S - S.T)))
        bound = tol * (1.0 + float(np.linalg.norm(ell)))
        compat_class, kernel, witness, work, sup_gap = classify_moment_matrix(S, tol)
        self.classification = Classification(
            equilibrated=force_res <= bound and torque_res <= bound,
            force_residual=force_res,
            torque_residual=torque_res,
            compat_class=compat_class,
            kernel=kernel,
            witness=witness,
            witness_work=work,
            sup_gap=sup_gap,
            moment_matrix=S.copy(),
            tol=tol,
        )


def assemble_loads(mesh, spec, tol=DEFAULT_TOL):
    """Assemble the nodal load vector, resultants and moment matrix, classified at ``tol``.

    Raises ValueError unless 0 < tol < inf.
    """
    return LoadAssembly(mesh, spec, tol)


def load_work(assembly, field):
    """Virtual work L(v) of the load system on a nodal field."""
    if field.mesh is not assembly.mesh:
        raise MeshMismatchError("field and load assembly use different meshes")
    return float(np.sum(assembly.load_vector * field.values))


@dataclass(frozen=True)
class Classification:
    """Result of the load compatibility analysis.

    compat_class is "strict", "weak" or "incompatible".  For weak loads
    ``kernel`` lists skew matrices with L(W^2 x) = 0 within tolerance;
    for incompatible loads ``witness`` is a unit skew matrix
    (|W|^2 = 2) with L(W^2 x) > 0 and ``witness_work`` its value
    L(z_W) = L(W^2 x / 2).  sup_gap is sup_W L(z_W): +inf exactly in the
    incompatible case, else 0 by positive homogeneity.
    """

    equilibrated: bool
    force_residual: float
    torque_residual: float
    compat_class: str
    kernel: tuple
    witness: np.ndarray | None
    witness_work: float | None
    sup_gap: float
    moment_matrix: np.ndarray
    tol: float


def classify_moment_matrix(S, tol=DEFAULT_TOL):
    """Trichotomy of Q(W) = L(W^2 x) = W^2 : S from the moment matrix alone.

    2D: W^2 = -a^2 I so the sign of Tr S decides.  3D: for a unit axis w,
    Q(w) = w' M w - Tr M with M = sym S, so the pairwise eigenvalue sums
    of M decide.  Threshold band is tol * |S| (Frobenius).

    Returns (compat_class, kernel, witness, witness_work, sup_gap).
    Raises ValueError unless 0 < tol < inf.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"classification tolerance must be finite and positive, got {tol}")
    S = np.asarray(S, dtype=float)
    band = tol * float(np.linalg.norm(S))
    if S.shape == (2, 2):
        tr = float(np.trace(S))
        if tr > band:
            return STRICT, (), None, None, 0.0
        if tr >= -band:
            return WEAK, (skew2(1.0),), None, None, 0.0
        return INCOMPATIBLE, (), skew2(1.0), -0.5 * tr, math.inf
    if S.shape != (3, 3):
        raise ValueError(f"expected a 2x2 or 3x3 moment matrix, got shape {S.shape}")

    M = 0.5 * (S + S.T)
    vals, Q = np.linalg.eigh(M)
    total = float(np.sum(vals))
    # pair sum excluding eigenvalue i; axis q_i gives Q(q_i) = -(pair sum)
    pair_sums = total - vals
    worst = int(np.argmin(pair_sums))
    if pair_sums[worst] < -band:
        axis = _canonical_axis(Q[:, worst])
        return INCOMPATIBLE, (), skew3(axis), 0.5 * (-pair_sums[worst]), math.inf
    kernel = tuple(
        skew3(_canonical_axis(Q[:, i])) for i in range(3) if abs(pair_sums[i]) <= band
    )
    if kernel:
        return WEAK, kernel, None, None, 0.0
    return STRICT, (), None, None, 0.0
