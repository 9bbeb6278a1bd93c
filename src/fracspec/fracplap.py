"""Nonlinear fractional p-Laplacian via pointwise linear reductions.

Evaluating the operator at a grid point amounts to applying a linear
fractional Laplacian of order s*p/2 to the odd-power difference field
sgn(u(x0) - u)|u(x0) - u|^(p-1), reading off the value at x0, and scaling
by a constant depending on (s, p) only.  Two evaluation routes implement
the same arithmetic:

  * pointwise: loop over grid points, one difference field at a time,
    bounded memory, optionally thread-parallel (points are independent);
  * batched: build the u-independent M x M kernel (M = prod(N_j)) once per
    operator and cache it; each evaluation is then one weighted row sum of
    the kernel against the square table of every odd-power difference.

Route agreement is a standing test target, so neither route shortcuts
through the other or through the linear operator, even at p = 2 where the
difference-field reduction collapses algebraically.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .eigen import SpectralFactor
from .errors import MemoryGuardError, PoleError
from .fraclap import from_eigenbasis, to_eigenbasis
# mode_product stays bound here: the benchmark's tracer self-test wraps this binding
from .tensor_ops import eigen_sum_tensor, hadamard_pow_neg, mode_product, tuple_iter

# square difference-table budget for the batched route
DEFAULT_MEM_BUDGET = 2**31
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
    def kernel(self) -> np.ndarray:
        """Read-only c_const * P diag(pow_tensor) P^-1 over column-major flat
        indices: 8 * prod(N)**2 bytes, built on first access and then kept.
        """
        m = math.prod(self.shape)
        # M x M inputs go in unnamed, so each is freed by the mode product that
        # consumes it: two are alive at a time, plus tensordot's copies at n > 1
        K = from_eigenbasis(
            self.factors,
            self.c_const * self.pow_tensor[..., None]
            * to_eigenbasis(self.factors, np.eye(m).reshape(*self.shape, m, order="F")),
        ).reshape(m, m, order="F")
        K.flags.writeable = False
        return K


def signed_power(t: np.ndarray | float, p: float) -> np.ndarray:
    """Odd power sgn(t)|t|**(p-1), elementwise, with sgn(0) = 0.

    Defined for every real t and p >= 1; p = 2 short-circuits to the
    identity.  Allocates one array of t's size.
    """
    if not p >= 1:
        raise ValueError(f"p must be at least 1, got {p!r}")
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
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    s = float(s)
    p = float(p)
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s!r}")
    if not p >= 1:
        raise ValueError(f"p must be at least 1, got {p!r}")
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
    s = float(s)
    p = float(p)
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie strictly inside (0, 1), got {s!r}")
    factors = tuple(factors)
    scales = tuple(float(L) for L in scales)
    if len(factors) != len(scales):
        raise ValueError(f"{len(factors)} factors but {len(scales)} scales")
    if not factors:
        raise ValueError("at least one dimension required")
    if any(L <= 0 for L in scales):
        raise ValueError(f"scales must be positive, got {scales!r}")
    c_const = plap_constant(len(factors), s, p)
    lam = eigen_sum_tensor([f.lam for f in factors], scales)
    pow_tensor = hadamard_pow_neg(lam, 0.5 * s * p)
    pow_tensor.flags.writeable = False
    return FracPOperator(
        factors=factors,
        scales=scales,
        s=s,
        p=p,
        pow_tensor=pow_tensor,
        c_const=c_const,
    )


def _point_value(op: FracPOperator, U: np.ndarray, tup: tuple[int, ...]) -> float:
    idx = tuple(i - 1 for i in tup)
    W = signed_power(U[idx] - U, op.p)
    G = op.pow_tensor * to_eigenbasis(op.factors, W)
    for f, i in zip(op.factors, tup):
        G = np.tensordot(f.P[i - 1], G, axes=(0, 0))
    return op.c_const * float(G)


def apply_plap_pointwise(
    op: FracPOperator,
    U: np.ndarray,
    threads: int | None = None,
) -> np.ndarray:
    """Evaluate the operator one grid point at a time.

    Memory stays at a few copies of the field regardless of size.  Points
    are independent, so ``threads`` > 1 splits them across a thread pool;
    every point's arithmetic is identical either way.
    """
    U = np.asarray(U, dtype=float)
    if U.shape != op.shape:
        raise ValueError(f"field shape {U.shape} does not match grid {op.shape}")
    if threads is None or threads <= 0:
        threads = os.cpu_count() or 1
    out = np.empty(op.shape)
    points = [tup for tup, _ in tuple_iter(op.shape)]

    def run(chunk: list[tuple[int, ...]]) -> None:
        for tup in chunk:
            out[tuple(i - 1 for i in tup)] = _point_value(op, U, tup)

    if threads == 1 or len(points) < 2 * threads:
        run(points)
        return out
    step = (len(points) + threads - 1) // threads
    chunks = [points[k : k + step] for k in range(0, len(points), step)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for done in pool.map(run, chunks):
            pass
    return out


def apply_plap_batched(
    op: FracPOperator,
    U: np.ndarray,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> np.ndarray:
    """Row sums of ``op.kernel`` times the table of signed_power(u_i - u_j).

    Holds the cached kernel plus, per call, the table and one temporary of
    its size, 8 * prod(N)**2 bytes each.  Raises MemoryGuardError, before
    any allocation, when one table exceeds ``mem_budget``.
    """
    U = np.asarray(U, dtype=float)
    if U.shape != op.shape:
        raise ValueError(f"field shape {U.shape} does not match grid {op.shape}")
    m = U.size
    need = 8 * m * m
    if need > mem_budget:
        raise MemoryGuardError(
            f"difference table needs {need} bytes, budget is {mem_budget}"
        )
    uf = U.reshape(-1, order="F")
    table = signed_power(uf[:, None] - uf[None, :], op.p)
    return np.einsum("ij,ij->i", op.kernel, table).reshape(op.shape, order="F")
