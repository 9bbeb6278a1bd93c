"""Eigen-factorization of the second-derivative matrix, real and parity-split by construction.

The grid is mirror-symmetric, ``Dxx[N-1-i, N-1-j] == Dxx[i, j]``, so every
eigenvector is even or odd under the reflection i -> N-1-i and ``Dxx``
splits into an even block of size h = ceil(N/2) and an odd block of size
m = floor(N/2), both on the top h (or m) rows, written by ``_parity_block``.
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
from numpy.lib.stride_tricks import as_strided

from .errors import PositiveEigenvalue, SingularMatrix
from .grid import Grid1D, angular_first_deriv_row, angular_second_deriv_row, make_grid
from .tensor_ops import parity_unfold


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
        S, g, mult = _parity_block(make_grid(self.N, 1.0), odd=True)
        lam, Q = np.linalg.eigh(S)
        _check_negative(lam)
        P, Pinv = _unit_columns(Q * g[:, None], g, mult)
        padded = np.zeros(((self.N + 1) // 2, len(g)))
        padded[:len(g)] = P
        for a in (lam, padded, Pinv):
            a.flags.writeable = False
        return lam, padded[:len(g)], Pinv, padded

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


def _fold_weights(N: int) -> np.ndarray:
    """mu: 2 on the floor(N/2) paired top rows, for themselves and their mirror images, 1 on a middle row."""
    return np.where(np.arange((N + 1) // 2) < N // 2, 2.0, 1.0)


def _parity_block(grid: Grid1D, odd: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Dxx``'s even (h x h) or odd (m x m) block B as the symmetrized ``diag(1/g) B diag(g)``, with g and mu.

    B[i, j] is Dxx[i, j] +- Dxx[i, N-1-j], a middle column counted once.  The
    angular matrices are Toeplitz in a 2N-periodic row c, so folded they read
    ``T(j - i) + H(i + j)``, ``T(d) = c(d) +- c(d - N)``, ``H(t) = c(-1 - t) +-
    c(N - 1 - t)``, a middle column twice; rows take the chain-rule scales.
    """
    N = grid.N
    n = N // 2 if odd else (N + 1) // 2
    sign = -1.0 if odd else 1.0
    mult = _fold_weights(N)[:n]  # mirror-extended rows count twice in a norm
    sigma = np.sin(grid.xi[:n])
    g = sigma * np.sqrt(2.0 / mult)
    s2x = np.sin(2.0 * grid.xi[:n])
    col = 0.5 * g  # with the 1/2 of the symmetrization, exact
    if n > N // 2:  # the middle row and column of an odd N
        s2x[-1] = 0.0  # sin(pi), zeroed as in top_diff_rows
        col[-1] *= 0.5
    d, t = np.arange(1 - n, n), np.arange(2 * n - 1)

    def folded(c: np.ndarray, r: np.ndarray) -> np.ndarray:
        T = c[d % (2 * N)] + sign * c[(d - N) % (2 * N)]
        H = c[(-1 - t) % (2 * N)] + sign * c[(N - 1 - t) % (2 * N)]
        # row i reads T[n - 1 - i:] and H[i:]; the views go no further than np.add
        W = np.add(as_strided(T[n - 1:], (n, n), (-8, 8)), as_strided(H, (n, n), (8, 8)))
        return np.multiply(W, r[:, None], out=W)

    S = folded(angular_second_deriv_row(N), sigma**4 / g)
    S += folded(angular_first_deriv_row(N), sigma**2 * s2x / g)
    S *= col
    return S + S.T, g, mult


def _unit_columns(P: np.ndarray, g: np.ndarray, mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P = diag(g) Q`` scaled in place to unit columns, and ``Pinv`` with Pinv diag(mult) P = I."""
    norms = np.sqrt(mult @ P**2)
    Pinv = np.multiply(P.T, norms[:, None], out=np.empty(P.shape[::-1]))
    Pinv /= g * g * mult
    P /= norms
    return P, Pinv


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
    S, g, mult = _parity_block(grid, odd=False)
    z = 1.0 / g
    z /= np.linalg.norm(z)
    # H = I - 2 u u^T maps z to -e_0; H S H = S - u k^T - k u^T, in place
    u = z.copy()
    u[0] += 1.0
    u /= np.linalg.norm(u)
    Su = S @ u
    k = 2.0 * (Su - (u @ Su) * u)
    S -= np.stack([u, k], 1) @ np.stack([k, u])
    lam_e, Qp = np.linalg.eigh(S[1:, 1:])
    _check_negative(lam_e)
    # g times the eigenvectors of the even block: H applied to [0; Qp], then the kernel vector z
    P_even = np.zeros((h, h))
    np.multiply(g[1:, None], Qp, out=P_even[1:, :-1])
    P_even[:, :-1] -= np.multiply.outer(2.0 * g * u, u[1:] @ Qp)
    P_even[:, -1] = g * z
    P_even, Pinv_even = _unit_columns(P_even, g, mult)
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
