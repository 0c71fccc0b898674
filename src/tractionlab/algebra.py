"""Dense small-matrix algebra and isotropic elastic energy densities.

Dimensions N = 2, 3 only.  The fixed 2D skew convention is

    J = e1 (x) e2 - e2 (x) e1 = [[0, 1], [-1, 0]],

so a 2D skew matrix is W = a*J with |W|^2 = 2 a^2 and W^2 = -a^2 I.
A 3D skew matrix is parametrized by its axis vector w, W x = w x x,
with |W|^2 = 2 |w|^2 and W^2 = w (x) w - |w|^2 I.
"""

from dataclasses import dataclass

import numpy as np

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

_UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class SkewParam:
    """Parametrized skew-symmetric matrix.

    dim 2: ``coeffs`` is a single scalar a, the matrix is a*J.
    dim 3: ``coeffs`` is the axis vector w, the matrix sends x to w x x.
    """

    dim: int
    coeffs: tuple

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        c = tuple(float(v) for v in np.atleast_1d(self.coeffs))
        expected = 1 if self.dim == 2 else 3
        if len(c) != expected:
            raise ValueError(f"dim {self.dim} needs {expected} coefficients, got {len(c)}")
        object.__setattr__(self, "coeffs", c)

    def matrix(self):
        """Materialize the skew matrix."""
        if self.dim == 2:
            return self.coeffs[0] * J2
        wx, wy, wz = self.coeffs
        return np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])

    def norm_sq(self):
        """Squared Frobenius norm |W|^2 (= 2 for the unit normalization)."""
        if self.dim == 2:
            return 2.0 * self.coeffs[0] ** 2
        return 2.0 * float(np.dot(self.coeffs, self.coeffs))


def skew2(a):
    """2D skew parameter a*J."""
    return SkewParam(2, (a,))


def skew3(w):
    """3D skew parameter with axis vector w."""
    return SkewParam(3, tuple(np.asarray(w, dtype=float)))


def skew_square(w):
    """Return W^2 for the materialized skew matrix W.

    The result is symmetric negative semidefinite:
    2D gives -a^2 I, 3D gives w (x) w - |w|^2 I.
    """
    if w.dim == 2:
        a = w.coeffs[0]
        return -(a * a) * np.eye(2)
    axis = np.asarray(w.coeffs)
    return np.outer(axis, axis) - float(np.dot(axis, axis)) * np.eye(3)


def rodrigues(theta, w):
    """Rotation matrix exp(theta*W) = I + sin(theta) W + (1-cos(theta)) W^2.

    Parameters
    ----------
    theta : float
        Rotation angle in radians.
    w : SkewParam
        Unit-normalized skew parameter, |W|^2 = 2 required.

    Returns
    -------
    ndarray
        Proper rotation matrix of shape (dim, dim).
    """
    nsq = w.norm_sq()
    if abs(nsq - 2.0) > _UNIT_NORM_TOL:
        raise ValueError(f"rodrigues requires |W|^2 = 2, got {nsq!r}")
    W = w.matrix()
    return np.eye(w.dim) + np.sin(theta) * W + (1.0 - np.cos(theta)) * (W @ W)


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
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.lam < 0.0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")

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


def sym_eigs(S):
    """Eigen-decomposition of a 2x2 or 3x3 symmetric matrix (``np.linalg.eigh``).

    Returns
    -------
    (vals, Q) : eigenvalues ascending and orthonormal eigenvector columns
        with S @ Q[:, i] = vals[i] * Q[:, i].
    """
    S = np.asarray(S, dtype=float)
    if S.shape not in ((2, 2), (3, 3)):
        raise ValueError(f"expected a 2x2 or 3x3 matrix, got shape {S.shape}")
    return np.linalg.eigh(S)
