"""Eigen-factorization of the second-derivative matrix, real by construction.

With sigma = sin(xi) the similarity ``S = diag(1/sigma) Dxx diag(sigma)`` is
symmetric up to rounding, because ``W Dxx`` is for the quadrature weights
``W = diag(1/sigma^2)``; it is symmetrized explicitly.  Its kernel is known
exactly, the unit vector ``z`` proportional to ``1/sigma``, because ``Dxx``
maps constants to zero.  A Householder reflector that sends ``z`` onto the
first coordinate axis deflates that mode, and
one symmetric eigensolve of the remaining ``(N-1)x(N-1)`` block gives the
strictly negative rest of the spectrum.  The kernel eigenvalue is then an
exact 0 with the exact constant eigenvector, the eigenvector matrix is
orthogonal up to the diagonal similarity, and its inverse needs no solve:
the kernel row of ``Pinv`` is the normalized quadrature weights, so the
eigenbasis coefficient of the kernel mode is the discrete mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PositiveEigenvalue, SingularMatrix
from .grid import Grid1D, build_diff_matrices


@dataclass(frozen=True)
class SpectralFactor:
    """Diagonalization ``Dxx = P @ diag(lam) @ Pinv`` with an exact kernel.

    ``lam`` is sorted ascending and real by construction: ``lam[zero_index]``
    is the exact 0 at the end and every other entry is strictly negative.
    Column ``zero_index`` of ``P`` is the constant vector with entries
    ``N**-0.5``, and row ``zero_index`` of ``Pinv`` is ``sqrt(N) * w / sum(w)``
    for the quadrature weights ``w = 1/sin(xi)**2``.  Columns of ``P`` have
    unit norm, and ``Pinv`` is their exact inverse up to rounding.
    ``raw_zero_lambda`` keeps the Rayleigh quotient of the exact kernel
    vector, purely as a diagnostic of rounding in the matrix.
    """

    N: int
    P: np.ndarray
    Pinv: np.ndarray
    lam: np.ndarray
    zero_index: int
    raw_zero_lambda: float


def factorize(grid: Grid1D) -> SpectralFactor:
    """Diagonalize the grid's second-derivative matrix with its kernel deflated.

    Raises
    ------
    PositiveEigenvalue
        if an eigenvalue outside the kernel mode is not strictly negative.
    """
    n = grid.N
    sigma = np.sin(grid.xi)
    S = build_diff_matrices(grid).Dxx * (sigma[None, :] / sigma[:, None])
    S = 0.5 * (S + S.T)
    z = 1.0 / sigma
    z /= np.linalg.norm(z)
    # H = I - 2 u u^T maps z to -e_0; H S H = S - u k^T - k u^T, in place
    u = z.copy()
    u[0] += 1.0
    u /= np.linalg.norm(u)
    Su = S @ u
    k = 2.0 * (Su - (u @ Su) * u)
    S -= np.outer(u, k)
    S -= np.outer(k, u)
    lam, Qp = np.linalg.eigh(S[1:, 1:])
    if np.any(lam >= 0.0):
        raise PositiveEigenvalue(
            f"eigenvalue {float(np.max(lam)):.6e} outside the kernel is not negative"
        )
    # eigenvectors of S: H applied to [0; Qp], then the kernel vector z
    Q = np.empty((n, n))
    Q[1:, :-1] = Qp
    Q[0, :-1] = 0.0
    Q[:, :-1] -= 2.0 * np.outer(u, u[1:] @ Qp)
    Q[:, -1] = z
    P = sigma[:, None] * Q
    norms = np.linalg.norm(P, axis=0)
    P /= norms
    P[:, -1] = n ** -0.5  # sigma * z normalized, without its rounding
    # P = diag(sigma) Q / norms with orthogonal Q, so no solve is needed
    Pinv = np.ascontiguousarray(Q.T / sigma * norms[:, None])
    lam = np.append(lam, 0.0)
    for a in (P, Pinv, lam):
        a.flags.writeable = False
    return SpectralFactor(
        N=n, P=P, Pinv=Pinv, lam=lam, zero_index=n - 1, raw_zero_lambda=float(S[0, 0])
    )


def condition_number(P: np.ndarray) -> float:
    """Spectral-norm condition number, largest over smallest singular value."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {P.shape}")
    sv = np.linalg.svd(P, compute_uv=False)
    if sv[-1] == 0.0:
        raise SingularMatrix("smallest singular value is exactly zero")
    return float(sv[0] / sv[-1])
