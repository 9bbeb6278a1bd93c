"""Linear fractional Laplacian on tensor-product collocation grids.

The per-axis second-derivative matrices diagonalize as P Lambda P^-1 with
nonpositive spectra, so the n-dimensional operator acts mode by mode: move
the sample tensor into the eigenbasis along every axis, multiply entrywise
by the fractional power of the (negated, scale-divided) eigenvalue sums,
and move back.  The power tensor has exactly one zero entry, the product of
the per-axis constant modes, which annihilates constant fields exactly.

Each move folds one axis at a time into its mirror-even and mirror-odd
halves (``parity_fold``) and runs two half-size mode products, one per
parity block of the factor, so the modes of every axis come out in the
factor's order, the even ones and then the odd ones.

``apply_fraclap`` runs under ``on_mirror_half``, which hands it the top
ceil(N/2) rows of every axis along which the field equals its own
reflection and copies the output's bottom rows from its top ones.  The odd
half of such an axis is zero, so the axis runs one mode product each way,
with the factor's ``Pinv_fold``, which weighs each paired row for itself
and its mirror image, and with ``P_even``.  On a plane mirrored along both
axes this is a quarter of the mode-product work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .checks import checked_field, checked_order
from .eigen import SpectralFactor, factorize
from .errors import NumericalContractError
from .grid import make_grid
from .tensor_ops import eigen_sum_tensor, hadamard_pow_neg, mode_product, on_mirror_half, parity_fold, parity_unfold


@dataclass(frozen=True)
class FracLapOperator:
    """Immutable fractional Laplacian of order ``s`` on a fixed grid.

    ``pow_even`` holds the read-only entrywise ``s`` power of the negated
    eigenvalue-sum tensor, scale division included, on the even modes of
    every axis, the only block a mirror-symmetric field reads, so repeated
    applies cost only mode products.  ``pow_tensor``, over all modes, is
    built the first time a field without that symmetry reads it, then kept;
    ``pow_even`` is its leading block.
    """

    factors: tuple[SpectralFactor, ...]
    scales: tuple[float, ...]
    s: float
    pow_even: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.N for f in self.factors)

    @cached_property
    def pow_tensor(self) -> np.ndarray:
        return _power_tensor([f.lam for f in self.factors], self.scales, self.s)


def build_axis_factors(dims: Sequence[int]) -> tuple[SpectralFactor, ...]:
    """Eigen-factorize the unscaled second-derivative matrix per axis.

    The angular matrices depend only on the node count, so physical scales
    enter later through the eigenvalue division, and axes with the same
    count share one read-only factor, factorized once.
    """
    dims = [int(N) for N in dims]
    factors = {N: factorize(make_grid(N, 1.0)) for N in dict.fromkeys(dims)}
    return tuple(factors[N] for N in dims)


def _power_tensor(lambdas: Sequence[np.ndarray], scales: Sequence[float], order: float) -> np.ndarray:
    """Read-only entrywise ``order`` power of the negated eigenvalue sums, zero on exactly one mode.

    ``eigen_sum_tensor`` refuses an empty axis list, a factor/scale count
    mismatch and a nonpositive scale, and ``hadamard_pow_neg`` a positive
    sum; more or fewer than one zero raises ``NumericalContractError``.
    """
    pow_tensor = hadamard_pow_neg(eigen_sum_tensor(lambdas, scales), order)
    zeros = int(np.count_nonzero(pow_tensor == 0.0))
    if zeros != 1:
        raise NumericalContractError(
            f"power tensor must vanish on exactly one mode, found {zeros}"
        )
    pow_tensor.flags.writeable = False
    return pow_tensor


def build_fraclap(
    factors: Sequence[SpectralFactor],
    scales: Sequence[float],
    s: float,
) -> FracLapOperator:
    """Assemble the operator of order s in (0, 1), strict at both ends."""
    s = checked_order(s)
    factors = tuple(factors)
    scales = tuple(float(L) for L in scales)
    pow_even = _power_tensor([f.lam_even for f in factors], scales, s)
    return FracLapOperator(factors=factors, scales=scales, s=s, pow_even=pow_even)


def _half_products(
    even: np.ndarray, odd: np.ndarray, X: np.ndarray, axis: int, out: np.ndarray
) -> np.ndarray:
    """Mode-multiply the square blocks ``even`` and ``odd`` into the matching halves of ``axis``."""
    h = len(even)
    for block, half in ((even, slice(0, h)), (odd, slice(h, None))):
        index = (slice(None),) * axis + (half,)
        mode_product(block, X[index], axis, out=out[index])
    return out


def _other(buffers: tuple[np.ndarray, np.ndarray], X: np.ndarray) -> np.ndarray:
    """The one of two work buffers that is not ``X``."""
    return buffers[1] if X is buffers[0] else buffers[0]


def _to_modes(factors: Sequence[SpectralFactor], U: np.ndarray, mirrored: Sequence[bool] = ()) -> np.ndarray:
    """``to_eigenbasis``, with the even half alone on the axes flagged in ``mirrored``.

    On each such axis U holds only the top ceil(N/2) rows and the result
    only the even modes, one product with ``Pinv_fold``; the other axes run
    both halves.
    """
    buffers = np.empty(U.shape), np.empty(U.shape)
    for axis, (f, m) in enumerate(zip(factors, mirrored or [False] * len(factors))):
        Y = _other(buffers, U)
        if m:
            U = mode_product(f.Pinv_fold, U, axis, out=Y)
        else:
            U = _half_products(f.Pinv_even, f.Pinv_odd, parity_fold(U, axis, out=Y), axis, _other(buffers, Y))
    return U


def _from_modes(factors: Sequence[SpectralFactor], C: np.ndarray, mirrored: Sequence[bool] = ()) -> np.ndarray:
    """``from_eigenbasis``, with the even modes alone on the axes flagged in ``mirrored``.

    On each such axis C holds only the even modes and the result only the
    top ceil(N/2) rows, one product with ``P_even``.  Overwrites ``C``, and
    returns it when no axis is flagged.
    """
    buffers = C, np.empty(C.shape)
    for axis, (f, m) in enumerate(zip(factors, mirrored or [False] * len(factors))):
        Y = _other(buffers, C)
        if m:
            C = mode_product(f.P_even, C, axis, out=Y)
        else:
            C = parity_unfold(_half_products(f.P_even, f.P_odd, C, axis, Y), axis, out=_other(buffers, Y))
    return C


def to_eigenbasis(factors: Sequence[SpectralFactor], U: np.ndarray) -> np.ndarray:
    """Mode-multiply the inverse eigenvector matrix along every axis."""
    return _to_modes(factors, U)


def from_eigenbasis(factors: Sequence[SpectralFactor], C: np.ndarray) -> np.ndarray:
    """Mode-multiply the eigenvector matrix along every axis; ``C`` is left unchanged."""
    return _from_modes(factors, np.array(C, dtype=float))


def apply_fraclap(op: FracLapOperator, U: np.ndarray) -> np.ndarray:
    """Evaluate the operator on a sample tensor of matching shape.

    Along every axis where U equals its reflection only the even blocks
    run, on the top ceil(N/2) rows (``on_mirror_half``), and the output
    equals its reflection there exactly: its bottom rows are copies.  A
    field mirrored along every axis reads ``pow_even`` alone; any other
    reads a slice of ``pow_tensor``, built on the first such apply.
    """

    def on_half(V: np.ndarray, mirrored: tuple[bool, ...]) -> np.ndarray:
        tilde = _to_modes(op.factors, V, mirrored)
        tilde *= op.pow_even if all(mirrored) else op.pow_tensor[tuple(slice(h) for h in V.shape)]
        return _from_modes(op.factors, tilde, mirrored)

    return on_mirror_half(on_half, checked_field(U, op.shape))
