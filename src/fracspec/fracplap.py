"""Nonlinear fractional p-Laplacian via pointwise linear reductions.

Evaluating the operator at a grid point amounts to applying a linear
fractional Laplacian of order s*p/2 to the odd-power difference field
sgn(u(x0) - u)|u(x0) - u|^(p-1), reading off the value at x0, and scaling
by a constant depending on (s, p) only.  Two evaluations implement the
same arithmetic:

  * ``apply_plap_pointwise``: loop over grid points, one difference field
    at a time through the eigenbasis; the reference for the other;
  * ``apply_plap``: the u-independent M x M kernel (M = prod(N_j)) times the
    quadrature weights, A = W K, which is symmetric, folded onto the field's
    ``invariant_orbits`` and applied in row blocks of its circulant packing;
    each block builds its rows and drops them, never holding the whole kernel.

The block loop itself, ``apply_folded``, runs over the orbits of a symmetry
group of the grid (``grid_orbits``).  On a field invariant under the group
the output is invariant too, and it follows from one value per orbit: with
the folded kernel B[O, O'] = sum_{i in O, j in O'} A_ij, which is symmetric,
the output at orbit O is (1/(mu_O w_O)) sum_O' B[O, O'] phi(u_O - u_O'),
mu_O the orbit size.  As B is symmetric and phi odd, each unordered pair of
the R orbits takes one term, added to one orbit and subtracted from the
other, so B is held circulant-packed: row O keeps its floor(R/2) partners
O+1, O+2, ... modulo R, which names every pair once (for an even R the
antipodal pair only in its row O < R/2).  Summing a column with its
mirror image cancels every odd mode, so under the axis mirrors B is built
from the even half blocks of the factors on the top half of every axis,
never from A; the axis swap of a square plane then adds the two columns of
each swapped pair.  The trivial group, every point its own orbit, gives A
itself; a field with no symmetry takes it.

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
from numpy.lib.stride_tricks import as_strided

from .checks import checked_dimension, checked_exponent, checked_field, checked_order
from .eigen import SpectralFactor
from .errors import PoleError
from .fraclap import _half_products, _power_tensor, to_eigenbasis
from .grid import make_grid
from .tensor_ops import mirror_axes, mode_product, parity_unfold

# rows per block of the kernel and of each evaluation
_BLOCK_ROWS = 64
_POLE_TOL = 1e-12
# symmetry groups of the grid, each containing the one before
GROUPS = ("none", "mirror", "mirror+swap")


@dataclass(frozen=True)
class FracPOperator:
    """Immutable fractional p-Laplacian of order s, exponent p.

    ``pow_even`` holds the read-only entrywise s*p/2 power of the negated
    eigenvalue-sum tensor (scale division included) on the even modes of
    every axis, all the mirror-folded kernels read; ``pow_tensor``, over all
    modes, is built for the trivial group and ``apply_plap_pointwise`` when
    first read, then kept, with ``pow_even`` as its leading block.
    ``c_const`` is the closed-form constant multiplying every pointwise
    evaluation.
    """

    factors: tuple[SpectralFactor, ...]
    scales: tuple[float, ...]
    s: float
    p: float
    pow_even: np.ndarray
    c_const: float

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.N for f in self.factors)

    @cached_property
    def pow_tensor(self) -> np.ndarray:
        return _power_tensor([f.lam for f in self.factors], self.scales, 0.5 * self.s * self.p)


@dataclass(frozen=True)
class Orbits:
    """The orbits of a symmetry group of the grid, one representative each.

    ``reps`` holds the column-major flat grid index of each orbit's
    representative, ascending, ``mult`` the orbit sizes mu_O as floats,
    ``weight`` the orbit weights mu_O w_O, with w the ``quad_mass`` weights
    1/sin(xi)**2 multiplied across axes in ``np.kron``'s order, and
    ``index``, shaped like the grid, the position in ``reps`` of every grid
    point's orbit.  Under the mirrors every representative lies in the top
    ceil(N/2) rows of each axis, and under the swap its first index is at
    most its second.
    """

    group: str
    shape: tuple[int, ...]
    reps: np.ndarray
    mult: np.ndarray
    weight: np.ndarray
    index: np.ndarray

    @property
    def kernel_bytes(self) -> int:
        """Bytes of the circulant-packed folded kernel, 8 * R * floor(R/2) for R = len(reps)."""
        return 8 * len(self.reps) * (len(self.reps) // 2)

    def fold(self, U: np.ndarray) -> np.ndarray:
        """The values of a grid field at the representatives."""
        return checked_field(U, self.shape).reshape(-1, order="F")[self.reps]

    def unfold(self, u: np.ndarray) -> np.ndarray:
        """The C-ordered grid field taking each representative's value on its orbit."""
        return u[self.index]


def grid_orbits(shape: Sequence[int], group: str) -> Orbits:
    """The orbits of ``group`` on a grid of ``shape``.

    "none" leaves every point alone, "mirror" adds the reflection
    i -> N-1-i of each axis, and "mirror+swap" also the swap of the two
    axes of a square plane.
    """
    shape = tuple(int(N) for N in shape)
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}, got {group!r}")
    if group == "mirror+swap" and (len(shape) != 2 or shape[0] != shape[1]):
        raise ValueError(f"the axis swap needs a square plane, got shape {shape}")
    idx = np.indices(shape)
    if group != "none":
        idx = np.minimum(idx, np.reshape(shape, (-1,) + (1,) * len(shape)) - 1 - idx)
    if group == "mirror+swap":
        idx = np.stack([idx.min(0), idx.max(0)])
    # a representative is the grid point its orbit's canonical index names
    key = np.ravel_multi_index(tuple(idx), shape, order="F")
    reps = np.flatnonzero(key.ravel(order="F") == np.arange(key.size))
    position = np.empty(key.size, dtype=np.intp)
    position[reps] = np.arange(len(reps))
    index = position[key]
    mult = np.bincount(index.ravel(), minlength=len(reps)).astype(float)
    at_reps = np.unravel_index(reps, shape, order="F")[::-1]
    w = reduce(np.multiply, [(1 / np.sin(make_grid(N, 1.0).xi) ** 2)[i] for N, i in zip(shape[::-1], at_reps)])
    orbits = Orbits(group, shape, reps, mult, mult * w, index)
    for a in (orbits.reps, orbits.mult, orbits.weight, orbits.index):
        a.flags.writeable = False
    return orbits


def invariant_orbits(U: np.ndarray, scales: Sequence[float]) -> tuple[Orbits, dict]:
    """The orbits every p-Laplacian evaluation of U folds onto, and a record of the choice.

    The group is the largest of ``GROUPS`` that leaves U unchanged under
    ``==`` (as in ``mirror_axes``, +0 and -0 count as equal) and commutes
    with the operator: the axis swap needs a square plane and equal map
    scales.  The record names the group and why, the number of
    representatives and the bytes of the folded kernel.
    """
    U = np.asarray(U, dtype=float)
    mirrored = mirror_axes(U)
    both = "the field is mirror-symmetric along both axes"
    if not all(mirrored):
        group, reason = "none", f"the field is not mirror-symmetric along axis {mirrored.index(False)}"
    elif U.ndim != 2 or U.shape[0] != U.shape[1]:
        group, reason = "mirror", "the field is mirror-symmetric along every axis"
    elif not np.array_equal(U, U.T):
        group, reason = "mirror", f"{both} but not swap-symmetric"
    elif scales[0] != scales[1]:
        group, reason = "mirror", f"{both} and swap-symmetric, but the scales {tuple(scales)} differ"
    else:
        group, reason = "mirror+swap", f"{both} and swap-symmetric"
    orbits = grid_orbits(np.shape(U), group)
    return orbits, {"group": group, "group_reason": reason,
                    "representatives": len(orbits.reps), "kernel_bytes": orbits.kernel_bytes}


def signed_power(t: np.ndarray | float, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """Odd power sgn(t)|t|**(p-1), elementwise, with sgn(0) = 0.

    Defined for every real t and p >= 1; p = 2 short-circuits to the
    identity.  The result is written to ``out`` when given, an array of
    t's shape that must not overlap t, and otherwise to one new array.
    """
    p = checked_exponent(p)
    t = np.asarray(t, dtype=float)
    if out is None:
        out = np.empty_like(t)
    if p == 2.0:
        np.copyto(out, t)
        return out
    if p == 1.0:  # |0|**0 = 1 would lose sgn(0) = 0
        return np.sign(t, out=out)
    np.abs(t, out=out)
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
    return FracPOperator(
        factors=factors,
        scales=scales,
        s=s,
        p=p,
        pow_even=_power_tensor([f.lam_even for f in factors], scales, 0.5 * s * p),
        c_const=plap_constant(len(factors), s, p),
    )


def _point_value(op: FracPOperator, U: np.ndarray, idx: tuple[int, ...]) -> float:
    W = signed_power(U[idx] - U, op.p)
    G = to_eigenbasis(op.factors, W)
    G *= op.pow_tensor
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


def _checked_orbits(op: FracPOperator, orbits: Orbits) -> Orbits:
    # the grid is mirror-exact, so only the swap needs more: equal scales
    if orbits.shape != op.shape or (orbits.group == "mirror+swap" and op.scales[0] != op.scales[1]):
        raise ValueError(
            f"{orbits.group} orbits on {orbits.shape} are not a symmetry of the "
            f"operator on {op.shape} with scales {op.scales}"
        )
    return orbits


def _kernel_rows(op: FracPOperator, orbits: Orbits, a: int, b: int, out: np.ndarray) -> np.ndarray:
    """Rows a:b of the folded kernel B of ``orbits``, built in and returned as ``out``.

    ``out`` is a C-contiguous (b - a) x len(orbits.reps) array.
    """
    n = len(op.shape)
    idx = np.unravel_index(orbits.reps[a:b], op.shape, order="F")
    mirrored = orbits.group != "none"
    # the mirror column sums keep the even modes on the top half of every axis
    power = op.pow_even if mirrored else op.pow_tensor
    side = power.shape
    # grid axes reversed after the row axis, so the rows come out column-major flat
    dims = (b - a,) + side[::-1]
    G = np.empty(dims) if orbits.group == "mirror+swap" else out.reshape(dims)
    work = np.empty_like(G)
    np.multiply((op.c_const * orbits.weight[a:b]).reshape(-1, *(1,) * n), power.T, out=G)
    for k, (f, i) in enumerate(zip(op.factors, idx)):
        axis = n - k
        shape = [b - a] + [1] * n
        shape[axis] = side[k]
        if mirrored:
            G *= f.P_even[i].reshape(shape)
            G, work = mode_product(f.Pinv_fold.T, G, axis, out=work), G
        else:
            G *= f.rows(i).reshape(shape)
            parity_unfold(_half_products(f.Pinv_even.T, f.Pinv_odd.T, G, axis, work), axis, out=G)
    if orbits.group == "mirror+swap":
        # the quadrant columns (i, j) and (j, i) of each representative
        i, j = np.unravel_index(orbits.reps, op.shape, order="F")
        h = side[0]
        G = G.reshape(b - a, -1)
        np.take(G, i + h * j, axis=1, out=out)
        off = i != j
        out[:, off] += G[:, (j + h * i)[off]]
    elif not np.may_share_memory(G, out):
        out.reshape(dims)[...] = G
    return out


def _packed_rows(op: FracPOperator, orbits: Orbits, a: int, b: int, out: np.ndarray) -> np.ndarray:
    """Rows a:b of the circulant-packed folded kernel, built in and returned as ``out``.

    Entry (O, j) of the packing is B[O, (O + 1 + j) mod R], j < floor(R/2),
    taken from the full rows ``_kernel_rows`` builds; for an even R the
    antipodal column j = R/2 - 1 is 0 in the rows O >= R/2, whose pair
    row O - R/2 holds.
    """
    r, h = len(orbits.reps), len(orbits.reps) // 2
    rows = _kernel_rows(op, orbits, a, b, np.empty((b - a, r)))
    O = np.arange(a, b)[:, None]
    np.take(rows, (O - a) * r + (O + 1 + np.arange(h)) % r, out=out)
    if r % 2 == 0:
        out[max(h - a, 0):, h - 1] = 0.0
    return out


def folded_kernel(op: FracPOperator, orbits: Orbits) -> np.ndarray:
    """Read-only circulant packing of B[O, O'] = sum_{i in O, j in O'} A_ij over the orbits, A = W K.

    B is symmetric to rounding, and the packing (``_packed_rows``) holds
    each unordered pair of orbits once: ``orbits.kernel_bytes`` bytes,
    built in place block by block.  The trivial group packs A itself.
    """
    r = len(_checked_orbits(op, orbits).reps)
    K = np.empty((r, r // 2))
    for a in range(0, r, _BLOCK_ROWS):
        _packed_rows(op, orbits, a, min(a + _BLOCK_ROWS, r), out=K[a:a + _BLOCK_ROWS])
    K.flags.writeable = False
    return K


def apply_folded(op: FracPOperator, orbits: Orbits, u: np.ndarray, kernel: np.ndarray | None) -> np.ndarray:
    """The operator at the representatives of a field invariant under ``orbits.group``.

    ``u = orbits.fold(U)`` holds the field's values at the representatives,
    and the result is (1/(mu_O w_O)) sum_O' B[O, O'] signed_power(u_O - u_O').
    Each block of ``_BLOCK_ROWS`` packed rows O forms the pair terms
    T[O, j] = signed_power(u_O - u_{O+1+j}) K[O, j] and, as the odd power is
    antisymmetric, adds its row sums to its own orbits and subtracts each
    term from its partner: the block's terms sit in a zero-padded
    m x (h + m) array, h = floor(R/2), whose flat reading at row length
    h + m - 1 moves term (i, j) to column i + j, so the column sums are the
    partner sums of orbits a+1, a+2, ..., folded modulo R at the end.  Rows
    come from ``kernel``, the ``folded_kernel`` of ``orbits``, or when it is
    None from ``_packed_rows`` per block; the blocks are the same, so the
    two give the same values.
    """
    u = checked_field(u, _checked_orbits(op, orbits).reps.shape)
    r, h = u.size, u.size // 2
    # partners[O] = u_{O+1}, ..., u_{O+h}, indices modulo R
    partners = as_strided(np.concatenate([u, u[:h]]), (r + 1, h), (8, 8), writeable=False)
    # row sums land at O, partner sums at O + 1 + j < R + h
    acc = np.zeros(r + h)
    T = None
    for a in range(0, r, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, r)
        m = b - a
        if T is None or len(T) != m:  # the first and the last block
            diff, T, padded = np.empty((m, h)), np.empty((m, h)), np.zeros((m, h + m))
            sheared = padded.reshape(-1)[:m * (h + m - 1)].reshape(m, h + m - 1)
        rows = kernel[a:b] if kernel is not None else _packed_rows(op, orbits, a, b, np.empty((m, h)))
        np.subtract(u[a:b, None], partners[a + 1:b + 1], out=diff)
        np.multiply(signed_power(diff, op.p, out=T), rows, out=T)
        acc[a:b] += T.sum(1)
        # the terms are computed contiguous, which numpy runs faster than in the padded rows
        padded[:, :h] = T
        acc[a + 1:b + h] -= sheared.sum(0)
    out = acc[:r]
    out[:h] += acc[r:]
    return out / orbits.weight


def apply_plap(op: FracPOperator, U: np.ndarray) -> np.ndarray:
    """Evaluate (1/w_i) sum_j A_ij signed_power(u_i - u_j), A = W K.

    This is ``apply_folded`` on the orbits of ``invariant_orbits``, with
    every block's rows rebuilt and dropped, unfolded to the grid.  A caller
    that applies one operator many times holds ``folded_kernel`` and calls
    ``apply_folded`` itself, as ``run_evolution`` does.
    """
    orbits = invariant_orbits(checked_field(U, op.shape), op.scales)[0]
    return orbits.unfold(apply_folded(op, orbits, orbits.fold(U), None))
