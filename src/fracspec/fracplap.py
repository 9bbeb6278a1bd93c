"""Nonlinear fractional p-Laplacian via pointwise linear reductions.

Evaluating the operator at a grid point amounts to applying a linear
fractional Laplacian of order s*p/2 to the odd-power difference field
sgn(u(x0) - u)|u(x0) - u|^(p-1), reading off the value at x0, and scaling
by a constant depending on (s, p) only.  Two evaluations implement the
same arithmetic:

  * ``apply_plap_pointwise``: loop over grid points, one difference field
    at a time through the eigenbasis; the reference for the other;
  * ``apply_plap``: the u-independent M x M kernel (M = prod(N_j)) times the
    quadrature weights, A = W K, which is symmetric, applied in row blocks
    over the upper triangle.  The kernel is cached on the operator when its
    8 * M**2 bytes fit the memory budget; otherwise each block rebuilds its
    rows and drops them.

Route agreement is a standing test target, so neither shortcuts
through the other or through the linear operator, even at p = 2 where the
difference-field reduction collapses algebraically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .checks import checked_dimension, checked_exponent, checked_field, checked_order
from .eigen import SpectralFactor
from .errors import PoleError
from .fraclap import _grouped, _power_tensor, _to_grouped
from .grid import make_grid
from .tensor_ops import mode_product, parity_unfold

# byte budget for the cached kernel
DEFAULT_MEM_BUDGET = 2**31
# rows per block of the kernel and of each evaluation; fastest measured at M = 501
_BLOCK_ROWS = 64
_POLE_TOL = 1e-12


@dataclass(frozen=True)
class FracPOperator:
    """Immutable fractional p-Laplacian of order s, exponent p.

    ``pow_tensor`` caches the entrywise s*p/2 power of the negated
    eigenvalue-sum tensor (scale division included); ``c_const`` is the
    closed-form constant multiplying every pointwise evaluation.
    """

    factors: tuple[SpectralFactor, ...]
    scales: tuple[float, ...]
    s: float
    p: float
    pow_tensor: np.ndarray
    c_const: float

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.N for f in self.factors)

    @cached_property
    def grouped_pow(self) -> np.ndarray:
        """Read-only ``pow_tensor`` with every axis in parity-grouped mode order."""
        T = _grouped(self.factors, self.pow_tensor)
        T.flags.writeable = False
        return T

    @cached_property
    def weights(self) -> np.ndarray:
        """Read-only ``quad_mass`` weights 1/sin(xi)**2, multiplied across axes, column-major flat."""
        w = reduce(np.kron, [1 / np.sin(make_grid(f.N, 1.0).xi) ** 2 for f in self.factors[::-1]])
        w.flags.writeable = False
        return w

    @cached_property
    def kernel(self) -> np.ndarray:
        """Read-only W * c_const * P diag(pow_tensor) P^-1, W the ``weights``,
        symmetric to rounding, over column-major flat indices: 8 * prod(N)**2
        bytes, built in place by ``_kernel_rows`` block by block on first use, then kept.
        """
        m = math.prod(self.shape)
        A = np.empty((m, m))
        for a in range(0, m, _BLOCK_ROWS):
            _kernel_rows(self, a, min(a + _BLOCK_ROWS, m), out=A[a:a + _BLOCK_ROWS])
        A.flags.writeable = False
        return A


def signed_power(t: np.ndarray | float, p: float) -> np.ndarray:
    """Odd power sgn(t)|t|**(p-1), elementwise, with sgn(0) = 0.

    Defined for every real t and p >= 1; p = 2 short-circuits to the
    identity.  Allocates one array of t's size.
    """
    p = checked_exponent(p)
    t = np.asarray(t, dtype=float)
    if p == 2.0:
        return t.copy()
    if p == 1.0:  # |0|**0 = 1 would lose sgn(0) = 0
        return np.sign(t)
    out = np.abs(t, out=np.empty_like(t))
    out **= p - 1.0
    return np.copysign(out, t, out=out)


def plap_constant(n: int, s: float, p: float) -> float:
    """Scaling constant for the pointwise reduction.

    Equals -sqrt(pi) * 2**(2s - sp - 1) * Gamma(1 - sp/2)
    / (Gamma((p+1)/2) * Gamma(1 - s)).  The dimension argument is kept for
    signature symmetry; the value does not depend on it.  At p = 2 the
    constant collapses to -1.
    """
    checked_dimension(n)
    s = checked_order(s)
    p = checked_exponent(p)
    half_sp = 0.5 * s * p
    nearest = round(half_sp)
    if nearest >= 1 and abs(half_sp - nearest) <= _POLE_TOL:
        raise PoleError(f"sp/2 = {half_sp!r} is a positive integer")
    return (
        -math.sqrt(math.pi)
        * 2.0 ** (2.0 * s - s * p - 1.0)
        * math.gamma(1.0 - half_sp)
        / (math.gamma(0.5 * (p + 1.0)) * math.gamma(1.0 - s))
    )


def build_fracplap(
    factors: Sequence[SpectralFactor],
    scales: Sequence[float],
    s: float,
    p: float,
) -> FracPOperator:
    """Assemble the operator; raises PoleError when sp/2 is a positive integer."""
    s = checked_order(s)
    p = checked_exponent(p)
    factors = tuple(factors)
    scales = tuple(float(L) for L in scales)
    pow_tensor = _power_tensor(factors, scales, 0.5 * s * p)
    return FracPOperator(
        factors=factors,
        scales=scales,
        s=s,
        p=p,
        pow_tensor=pow_tensor,
        c_const=plap_constant(len(factors), s, p),
    )


def _point_value(op: FracPOperator, U: np.ndarray, idx: tuple[int, ...]) -> float:
    W = signed_power(U[idx] - U, op.p)
    G = _to_grouped(op.factors, W)
    G *= op.grouped_pow
    for f, i in zip(op.factors, idx):
        G = np.tensordot(f.rows(i), G, axes=(0, 0))
    return op.c_const * float(G)


def apply_plap_pointwise(op: FracPOperator, U: np.ndarray) -> np.ndarray:
    """Evaluate the operator one grid point at a time, one difference field each.

    Memory stays at a few copies of the field regardless of size.  It shares
    no kernel with ``apply_plap``, so it is the reference that route is
    tested against (acceptance gates 3, 4 and 5).
    """
    U = checked_field(U, op.shape)
    out = np.empty(op.shape)
    for idx in np.ndindex(op.shape):
        out[idx] = _point_value(op, U, idx)
    return out


def kernel_fits(op: FracPOperator, mem_budget: int) -> bool:
    """Whether the 8 * prod(N)**2-byte kernel fits ``mem_budget``."""
    return 8 * math.prod(op.shape) ** 2 <= mem_budget


def _kernel_rows(op: FracPOperator, a: int, b: int, out: np.ndarray) -> np.ndarray:
    """Rows a:b of the symmetric kernel, built in and returned as ``out``.

    ``out`` is a C-contiguous (b - a) x prod(N) array, such as rows a:b of the kernel.
    """
    n = len(op.shape)
    idx = np.unravel_index(np.arange(a, b), op.shape, order="F")
    # grid axes reversed after the row axis, so the rows come out column-major flat
    G = out.reshape((b - a,) + op.shape[::-1])
    work = np.empty_like(G)
    np.multiply((op.c_const * op.weights[a:b]).reshape(-1, *(1,) * n), op.grouped_pow.T, out=G)
    for k, (f, i) in enumerate(zip(op.factors, idx)):
        axis = n - k
        G *= f.rows(i).reshape([b - a] + [f.N if j == axis else 1 for j in range(1, n + 1)])
        h = len(f.P_even)
        for block, half in ((f.Pinv_even.T, slice(0, h)), (f.Pinv_odd.T, slice(h, None))):
            index = (slice(None),) * axis + (half,)
            mode_product(block, G[index], axis, out=work[index])
        parity_unfold(work, axis, out=G)
    return out


def apply_plap(
    op: FracPOperator,
    U: np.ndarray,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> np.ndarray:
    """Evaluate (1/w_i) sum_j A_ij signed_power(u_i - u_j), A = ``op.kernel``.

    Each block of ``_BLOCK_ROWS`` rows adds its row sums to its own points
    and, as A is symmetric and the odd power antisymmetric, subtracts its
    column sums from the points after it.  Rows come from the cached kernel
    when ``kernel_fits``, else from ``_kernel_rows`` per block; the blocks
    are the same, so ``mem_budget`` changes memory, never values.
    """
    U = checked_field(U, op.shape)
    u = U.reshape(-1, order="F")
    cached = kernel_fits(op, mem_budget)
    out = np.zeros(u.size)
    for a in range(0, u.size, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, u.size)
        rows = op.kernel[a:b, a:] if cached else _kernel_rows(op, a, b, np.empty((b - a, u.size)))[:, a:]
        T = signed_power(u[a:b, None] - u[a:], op.p) * rows
        out[a:b] += T.sum(1)
        out[b:] -= T[:, b - a:].sum(0)
    return (out / op.weights).reshape(op.shape, order="F")
