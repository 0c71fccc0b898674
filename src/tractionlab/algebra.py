"""Dense small-matrix algebra and isotropic elastic energy densities.

Dimensions N = 2, 3 only.  The fixed 2D skew convention is

    J = e1 (x) e2 - e2 (x) e1 = [[0, 1], [-1, 0]],

so a 2D skew matrix is W = a*J with |W|^2 = 2 a^2 and W^2 = -a^2 I.
A 3D skew matrix has an axis vector w, W x = w x x, with |W|^2 = 2 |w|^2
and W^2 = w (x) w - |w|^2 I.  Skew matrices are plain arrays: ``skew2``
and ``skew3`` build them, their squares are W @ W, and only
``report.skew_dict`` turns them back into coefficients.
"""

from dataclasses import dataclass

import numpy as np

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

_UNIT_NORM_TOL = 1e-12


def skew2(a):
    """The 2D skew matrix a*J, a new array."""
    return a * J2


def skew3(w):
    """The 3D skew matrix with axis vector w: W x = w x x."""
    wx, wy, wz = (float(c) for c in w)
    return np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])


def _canonical_axis(v):
    """Fix the +- ambiguity: first nonzero component positive."""
    for c in v:
        if c != 0.0:
            return v if c > 0.0 else -v
    return v


def rodrigues(theta, W):
    """Rotation exp(theta W) = I + sin(theta) W + (1 - cos(theta)) W^2, skew W with |W|^2 = 2."""
    nsq = float(np.sum(W * W))
    if abs(nsq - 2.0) > _UNIT_NORM_TOL:
        raise ValueError(f"rodrigues requires |W|^2 = 2, got {nsq!r}")
    return np.eye(len(W)) + np.sin(theta) * W + (1.0 - np.cos(theta)) * (W @ W)


@dataclass(frozen=True)
class Density:
    """Isotropic stored-energy description with moduli (mu, lam).

    The finite-strain density is mu*|C - I|^2 + (lam/2)*Tr(C - I)^2 with
    C = F^T F, quadratic in the nonlinear strain, so the rescaled density
    h^-2 W(I + h B) is quadratic(Eh / h); the ``nonlinear`` kernels take it
    and its stress from ``quadratic_sym2`` and ``quadratic_gradient_sym2``.
    lam = 0 recovers the plain quadratic |C - I|^2 density (with mu = 1).
    """

    mu: float
    lam: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.mu < np.inf:
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")

    def quadratic(self, B):
        """Small-strain energy density 4 mu |B|^2 + 2 lam (Tr B)^2.

        B is expected symmetric; the value dominates 4 mu |B|^2 (ellipticity).
        """
        B = np.asarray(B)
        return 4.0 * self.mu * float(np.sum(B * B)) + 2.0 * self.lam * float(np.trace(B)) ** 2

    def quadratic_sym2(self, e00, e01, e11):
        """``quadratic`` of the symmetric 2x2 matrices [[e00, e01], [e01, e11]].

        The components are scalars or arrays of one shape; the result has
        that shape.
        """
        tr = e00 + e11
        return 4.0 * self.mu * (e00 * e00 + 2.0 * (e01 * e01) + e11 * e11) \
            + 2.0 * self.lam * (tr * tr)

    def quadratic_gradient(self, B):
        """Gradient of ``quadratic`` in B: 8 mu B + 4 lam (Tr B) I."""
        B = np.asarray(B)
        return 8.0 * self.mu * B + 4.0 * self.lam * np.trace(B) * np.eye(B.shape[0])

    def quadratic_gradient_sym2(self, e00, e01, e11):
        """``quadratic_gradient`` of the ``quadratic_sym2`` matrices, as (S00, S01, S11)."""
        mu8, lam4tr = 8.0 * self.mu, 4.0 * self.lam * (e00 + e11)
        return mu8 * e00 + lam4tr, mu8 * e01, mu8 * e11 + lam4tr

