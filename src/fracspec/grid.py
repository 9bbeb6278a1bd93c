"""Collocation grid on the real line and its differentiation matrices.

The grid places N first-kind Chebyshev angles

    xi_j = pi*(2j - 1)/(2N),   j = 1..N,

on (0, pi) and maps them to physical nodes x_j = L*cot(xi_j), which tile the
whole real axis with algebraic clustering controlled by the scale L.  Samples
u(x_j) are extended evenly across xi = pi, differentiated
with the trigonometric spectral matrices for 2N equispaced points, and mapped
back by the chain rule.  Only the first ceil(N/2) rows, or (``eigen``) the
parity blocks, are assembled; the rest follow from the reflection symmetry.

Matrices returned here are unscaled: ``Dx @ u`` approximates ``L * u'`` and
``Dxx @ u`` approximates ``L**2 * u''``.  Callers divide by the scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import checked_nodes, checked_positive


@dataclass(frozen=True)
class Grid1D:
    """Mapped collocation grid: angles ``xi`` on (0, pi) and nodes ``x``.

    ``x`` is strictly decreasing and antisymmetric, ``x[N-1-k] == -x[k]``
    exactly; for odd N the middle node is exactly 0.
    """

    N: int
    L: float
    xi: np.ndarray
    x: np.ndarray


@dataclass(frozen=True)
class DiffMatrices:
    """Unscaled first and second derivative matrices on a Grid1D."""

    Dx: np.ndarray
    Dxx: np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def make_grid(N: int, L: float) -> Grid1D:
    """Build the N-node grid with map scale L.

    Parameters
    ----------
    N : int
        Number of collocation nodes, N >= 2.
    L : float
        Map scale, L > 0.  Larger L spreads nodes farther out.

    Returns
    -------
    Grid1D
    """
    N = checked_nodes(N)
    L = checked_positive("L", L)
    j = np.arange(1, N + 1, dtype=float)
    xi = (2.0 * j - 1.0) * (np.pi / (2.0 * N))
    half = (N + 1) // 2
    x = np.empty(N)
    # cot evaluated only on (0, pi/2], where it is well conditioned; the
    # remaining nodes are exact negated mirror copies.
    x[:half] = L / np.tan(xi[:half])
    if N % 2 == 1:
        x[half - 1] = 0.0
    x[half:] = -x[N - half - 1 :: -1]
    return Grid1D(N=N, L=L, xi=_freeze(xi), x=_freeze(x))


def angular_first_deriv_row(N: int) -> np.ndarray:
    """First row of the 2N-point trigonometric first-derivative matrix.

    Returned as a length-3N vector: entries 0..2N-1 are the row itself and
    entries 2N..3N-1 repeat the leading N entries, so shifted windows of
    length N can be read for every matrix row without index wrapping.
    All cotangent arguments lie in (0, pi/2); the rest of the vector is
    filled from the sign symmetry of the row.
    """
    N = checked_nodes(N)
    c = np.zeros(3 * N)
    k = np.arange(1, N)
    c[1:N] = 0.5 * np.where(k % 2 == 0, -1.0, 1.0) / np.tan(np.pi * k / (2.0 * N))
    # antisymmetric mirror about index N, then periodic copy
    c[N + 1 : 2 * N] = -c[1:N][::-1]
    c[2 * N : 3 * N] = c[0:N]
    return c


def angular_second_deriv_row(N: int) -> np.ndarray:
    """First row of the 2N-point trigonometric second-derivative matrix.

    Same length-3N layout as ``angular_first_deriv_row``.  Diagonal entries
    equal -(2N^2 + 1)/6 and all inverse-square-sine arguments lie in
    (0, pi/2]; the mirror half is a symmetric copy.
    """
    N = checked_nodes(N)
    c = np.zeros(3 * N)
    diag = -(2.0 * N * N + 1.0) / 6.0
    c[0] = diag
    k = np.arange(1, N)
    c[1:N] = 0.5 * np.where(k % 2 == 0, -1.0, 1.0) / np.sin(np.pi * k / (2.0 * N)) ** 2
    c[N] = -0.5 * (-1.0) ** N
    c[N + 1 : 2 * N] = c[1:N][::-1]
    c[2 * N] = diag
    c[2 * N + 1 : 3 * N] = c[1:N]
    return c


def folded_rows(c: np.ndarray, N: int) -> np.ndarray:
    """Fold a length-3N circulant row into the first ceil(N/2) matrix rows.

    The 2N-column differentiation matrix applied to the even extension of
    an N-vector collapses, column pair by column pair, to an N-column
    matrix.  Row i (0-based), column q of the result is

        c[2N + q - i] + c[2N - 1 - q - i].
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size != 3 * N:
        raise ValueError(f"expected a flat vector of length {3 * N}, got shape {c.shape}")
    half = (N + 1) // 2
    # window j is c[j : j + N]; row i adds window 2N - i to window N - i reversed
    windows = np.lib.stride_tricks.sliding_window_view(c, N)
    return np.add(windows[2 * N : 2 * N - half : -1], windows[N : N - half : -1, ::-1])


def top_diff_rows(grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """The top ceil(N/2) rows of ``Dx`` and ``Dxx``, as ``build_diff_matrices`` states them."""
    N = grid.N
    half = (N + 1) // 2
    xi_top = grid.xi[:half]
    s2 = np.sin(xi_top) ** 2
    s4 = s2 * s2
    s2x = np.sin(2.0 * xi_top)
    if N % 2 == 1:
        # sin(2*xi) at the middle node is sin(pi); zero it so the middle row
        # keeps the exact reflection symmetry instead of picking up the
        # rounding of the float pi.
        s2x[-1] = 0.0
    dx_top = folded_rows(angular_first_deriv_row(N), N)
    dx_top *= -s2[:, None]
    dxx_top = folded_rows(angular_second_deriv_row(N), N)
    dxx_top *= s4[:, None]
    dxx_top -= s2x[:, None] * dx_top
    return dx_top, dxx_top


def build_diff_matrices(grid: Grid1D) -> DiffMatrices:
    """Assemble the unscaled N-by-N derivative matrices for a grid.

    The reflection fill used for the bottom rows relies on the even
    extension.  The top ceil(N/2) rows are

        Dx  = -diag(sin(xi)^2) * (Dxi  folded),
        Dxx =  diag(sin(xi)^4) * (Dxixi folded) - diag(sin(2 xi)) * Dx,

    and the bottom rows follow from Dx[N-1-i, N-1-j] = -Dx[i, j] and
    Dxx[N-1-i, N-1-j] = Dxx[i, j], which then hold exactly for all i, j.
    """
    N = grid.N
    half = (N + 1) // 2
    dx_top, dxx_top = top_diff_rows(grid)
    Dx = np.empty((N, N))
    Dxx = np.empty((N, N))
    Dx[:half] = dx_top
    Dxx[:half] = dxx_top
    Dx[half:] = -dx_top[N - half - 1 :: -1, ::-1]
    Dxx[half:] = dxx_top[N - half - 1 :: -1, ::-1]
    return DiffMatrices(Dx=_freeze(Dx), Dxx=_freeze(Dxx))


def differentiate(dm: DiffMatrices, samples: np.ndarray, L: float) -> tuple[np.ndarray, np.ndarray]:
    """Apply the scaled derivative matrices to one sample vector.

    Returns (ux, uxx) where ux approximates u' and uxx approximates u'' at
    the grid nodes.
    """
    samples = np.asarray(samples, dtype=float)
    N = dm.Dx.shape[0]
    if samples.shape != (N,):
        raise ValueError(f"samples must have shape ({N},), got {samples.shape}")
    L = checked_positive("L", L)
    ux = (dm.Dx @ samples) / L
    uxx = (dm.Dxx @ samples) / (L * L)
    return ux, uxx
