"""Eigen-factorization of the second-derivative matrix, real and parity-split by construction.

The grid is mirror-symmetric, ``Dxx[N-1-i, N-1-j] == Dxx[i, j]``, so every
eigenvector is even or odd under the reflection i -> N-1-i and ``Dxx``
splits into an even block of size h = ceil(N/2) and an odd block of size
m = floor(N/2), both acting on the top h (or m) grid rows (``parity_fold``).
With sigma = sin(xi), even under the reflection, the similarity
``diag(1/g) B diag(g)`` of each block B is symmetric up to rounding, because
``W Dxx`` is for the quadrature weights ``W = diag(1/sigma^2)``; here g is
sigma on the top rows, times sqrt(2) on a middle row that the even fold
counts once.  The kernel of the even similarity, symmetrized explicitly,
is known exactly, the unit vector ``z`` proportional to ``1/g``, because
``Dxx`` maps constants to zero.  A Householder reflector that sends ``z``
onto the first coordinate axis deflates that mode, and a symmetric
eigensolve of the remaining ``(h-1)x(h-1)`` block gives the strictly
negative rest of the even spectrum.  That is all ``factorize`` solves: a
mirror-symmetric field reads only the even modes, and no built-in field
is otherwise.  The odd block, symmetrized the same way, waits for the first
read of anything odd, then one ``eigh`` gives its eigenvalues and
eigenvectors together.
The kernel eigenvalue is then an exact 0 with the exact constant
eigenvector, the eigenvectors are orthogonal up to the diagonal similarity,
and the inverse needs no solve: the kernel row of ``Pinv`` is the
normalized quadrature weights, so the eigenbasis coefficient of the kernel
mode is the discrete mass.  The modes keep the block layout, the even
block and then the odd one, in every array of the factor and in every
contraction with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PositiveEigenvalue, SingularMatrix
from .grid import Grid1D, make_grid, top_diff_rows
from .tensor_ops import parity_fold, parity_unfold


@dataclass(frozen=True)
class SpectralFactor:
    """Diagonalization ``Dxx = P @ diag(lam) @ Pinv`` with an exact kernel, stored by parity.

    The modes are held even ones first: with h = ceil(N/2) and
    m = floor(N/2), columns 0..h-1 of ``P`` and rows 0..h-1 of ``Pinv`` are
    mirror-even and the last m are mirror-odd.  ``lam`` is real by
    construction, each block ascending: ``lam_even``, its first h entries,
    ends with the exact kernel 0 at ``zero_index`` = h-1, and every other
    entry is strictly negative.  Only the square half blocks are stored:
    ``P_even`` and ``P_odd`` are the top h and m rows of the even and odd
    columns of ``P``, ``Pinv_even`` and ``Pinv_odd`` the left h and m
    columns of the even and odd rows of ``Pinv``.  A mirror-symmetric field
    reads only the even blocks, so the factor holds those alone; the odd
    block is solved by one ``eigh`` the first time ``lam_odd``, ``lam``,
    ``P_odd``, ``Pinv_odd`` or anything built on them is read, then kept.
    ``P`` and ``Pinv`` rebuild the dense matrices, whose bottom halves are
    exact mirror copies, ``P[N-1-i, k] == +-P[i, k]``, and ``rows`` reads
    rows of ``P`` from the half blocks alone.
    The kernel column of ``P`` is the constant vector with entries
    ``N**-0.5``, and the kernel row of ``Pinv`` is ``sqrt(N) * w / sum(w)``
    for the quadrature weights ``w = 1/sin(xi)**2``.  Columns of ``P`` have
    unit norm, and ``Pinv`` is their exact inverse up to rounding.
    ``raw_zero_lambda`` keeps the Rayleigh quotient of the exact kernel
    vector, purely as a diagnostic of rounding in the matrix.
    """

    N: int
    P_even: np.ndarray
    Pinv_even: np.ndarray
    lam_even: np.ndarray
    zero_index: int
    raw_zero_lambda: float

    @cached_property
    def _odd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``lam_odd``, ``P_odd``, ``Pinv_odd`` and ``P_odd`` under h - m zero rows, from one ``eigh``."""
        # the factor depends only on N, so the odd block is assembled again
        folded, g, mult = _folded_rows(make_grid(self.N, 1.0))
        h, m = len(g), self.N // 2
        lam, Q = np.linalg.eigh(_symmetric_block(folded[:m, h:], g[:m]))
        _check_negative(lam)
        P, Pinv = _unit_columns(Q, g[:m], mult[:m])
        padded = np.zeros((h, m))
        padded[:m] = P
        for a in (lam, padded, Pinv):
            a.flags.writeable = False
        return lam, padded[:m], Pinv, padded

    @cached_property
    def Pinv_fold(self) -> np.ndarray:
        """Read-only ``Pinv_even diag(mu)``: the top rows of a mirror-symmetric vector to its even modes."""
        A = self.Pinv_even * _fold_weights(self.N)
        A.flags.writeable = False
        return A

    lam_odd = property(lambda self: self._odd[0])
    P_odd = property(lambda self: self._odd[1])
    Pinv_odd = property(lambda self: self._odd[2])

    @cached_property
    def lam(self) -> np.ndarray:
        """Read-only spectrum in mode order, ``lam_even`` then ``lam_odd``."""
        lam = np.concatenate([self.lam_even, self.lam_odd])
        lam.flags.writeable = False
        return lam

    @property
    def P(self) -> np.ndarray:
        """Dense read-only eigenvector matrix, rebuilt on each access."""
        return self._dense(self.P_even, self.P_odd, 0)

    @property
    def Pinv(self) -> np.ndarray:
        """Dense read-only inverse eigenvector matrix, rebuilt on each access."""
        return self._dense(self.Pinv_even, self.Pinv_odd, 1)

    def _dense(self, even: np.ndarray, odd: np.ndarray, grid_axis: int) -> np.ndarray:
        h = len(even)
        A = np.zeros((self.N, self.N))
        A[:h, :h], A[h:, h:] = even, odd
        A = parity_unfold(A, grid_axis)
        A.flags.writeable = False
        return A

    def rows(self, i: np.ndarray | int) -> np.ndarray:
        """Rows ``i`` of ``P``, ``P[i]``, read from the half blocks."""
        i = np.asarray(i)
        top = np.minimum(i, self.N - 1 - i)
        odd = self._odd[3][top]
        return np.concatenate([self.P_even[top], np.where(i == top, 1.0, -1.0)[..., None] * odd], -1)


def _check_negative(lam: np.ndarray) -> None:
    if np.any(lam >= 0.0):
        raise PositiveEigenvalue(
            f"eigenvalue {float(np.max(lam)):.6e} outside the kernel is not negative"
        )


def _symmetric_block(B: np.ndarray, g: np.ndarray) -> np.ndarray:
    S = B * (g[None, :] / g[:, None])
    return 0.5 * (S + S.T)


def _fold_weights(N: int) -> np.ndarray:
    """mu: 2 on the floor(N/2) paired top rows, for themselves and their mirror images, 1 on a middle row."""
    return np.where(np.arange((N + 1) // 2) < N // 2, 2.0, 1.0)


def _folded_rows(grid: Grid1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The top h rows of ``Dxx`` folded by parity, the similarity g and the row weights.

    The even block of ``Dxx`` is the top-left h x h of the folded rows, the
    odd block their top-right m x m.
    """
    folded = parity_fold(top_diff_rows(grid)[1], 1)
    mult = _fold_weights(grid.N)  # mirror-extended rows count twice in a norm
    g = np.sin(grid.xi[:len(mult)]) * np.sqrt(2.0 / mult)
    return folded, g, mult


def _unit_columns(Q: np.ndarray, g: np.ndarray, mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top rows of the unit columns P = g Q / norms and of Pinv, with Pinv diag(mult) P = I."""
    P = g[:, None] * Q
    norms = np.sqrt(mult @ P**2)
    P /= norms
    return P, np.ascontiguousarray(Q.T / (g * mult) * norms[:, None])


def factorize(grid: Grid1D) -> SpectralFactor:
    """Diagonalize the even block of the grid's second-derivative matrix, kernel deflated.

    The odd block is left to the factor's first odd read.

    Raises
    ------
    PositiveEigenvalue
        if an even eigenvalue outside the kernel mode is not strictly negative.
    """
    n = grid.N
    h = (n + 1) // 2
    folded, g, mult = _folded_rows(grid)
    S = _symmetric_block(folded[:, :h], g)
    z = 1.0 / g
    z /= np.linalg.norm(z)
    # H = I - 2 u u^T maps z to -e_0; H S H = S - u k^T - k u^T, in place
    u = z.copy()
    u[0] += 1.0
    u /= np.linalg.norm(u)
    Su = S @ u
    k = 2.0 * (Su - (u @ Su) * u)
    S -= np.outer(u, k)
    S -= np.outer(k, u)
    lam_e, Qp = np.linalg.eigh(S[1:, 1:])
    _check_negative(lam_e)
    # eigenvectors of the even block: H applied to [0; Qp], then the kernel vector z
    Q_e = np.empty((h, h))
    Q_e[1:, :-1] = Qp
    Q_e[0, :-1] = 0.0
    Q_e[:, :-1] -= 2.0 * np.outer(u, u[1:] @ Qp)
    Q_e[:, -1] = z
    P_even, Pinv_even = _unit_columns(Q_e, g, mult)
    P_even[:, -1] = n ** -0.5  # g * z normalized, without its rounding
    lam_even = np.append(lam_e, 0.0)  # the kernel ends the even block
    for a in (P_even, Pinv_even, lam_even):
        a.flags.writeable = False
    return SpectralFactor(
        N=n, P_even=P_even, Pinv_even=Pinv_even, lam_even=lam_even,
        zero_index=h - 1, raw_zero_lambda=float(S[0, 0]),
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
