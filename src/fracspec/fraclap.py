"""Linear fractional Laplacian on tensor-product collocation grids.

The per-axis second-derivative matrices diagonalize as P Lambda P^-1 with
nonpositive spectra, so the n-dimensional operator acts mode by mode: move
the sample tensor into the eigenbasis along every axis, multiply entrywise
by the fractional power of the (negated, scale-divided) eigenvalue sums,
and move back.  The power tensor has exactly one zero entry, the product of
the per-axis constant modes, which annihilates constant fields exactly.

Each move folds one axis at a time into its mirror-even and mirror-odd
halves (``parity_fold``) and runs two half-size mode products, one per
parity block of the factor; in between, the modes of every axis are held in
parity-grouped order, the even ones and then the odd ones.
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
from .tensor_ops import eigen_sum_tensor, hadamard_pow_neg, mode_product, parity_fold, parity_unfold


@dataclass(frozen=True)
class FracLapOperator:
    """Immutable fractional Laplacian of order ``s`` on a fixed grid.

    ``pow_tensor`` caches the entrywise ``s`` power of the negated
    eigenvalue-sum tensor, scale division included, so repeated applies
    cost only mode products.
    """

    factors: tuple[SpectralFactor, ...]
    scales: tuple[float, ...]
    s: float
    pow_tensor: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.N for f in self.factors)

    @cached_property
    def grouped_pow(self) -> np.ndarray:
        """Read-only ``pow_tensor`` with every axis in parity-grouped mode order."""
        T = _grouped(self.factors, self.pow_tensor)
        T.flags.writeable = False
        return T


def build_axis_factors(dims: Sequence[int]) -> tuple[SpectralFactor, ...]:
    """Eigen-factorize the unscaled second-derivative matrix per axis.

    The angular matrices depend only on the node count, so physical scales
    enter later through the eigenvalue division.
    """
    return tuple(factorize(make_grid(int(N), 1.0)) for N in dims)


def _power_tensor(
    factors: Sequence[SpectralFactor],
    scales: Sequence[float],
    order: float,
) -> np.ndarray:
    """Read-only entrywise ``order`` power of the negated eigenvalue sums.

    ``eigen_sum_tensor`` refuses an empty axis list, a factor/scale count
    mismatch and a nonpositive scale.
    """
    pow_tensor = hadamard_pow_neg(eigen_sum_tensor([f.lam for f in factors], scales), order)
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
    pow_tensor = _power_tensor(factors, scales, s)
    zeros = int(np.count_nonzero(pow_tensor == 0.0))
    if zeros != 1:
        raise NumericalContractError(
            f"power tensor must vanish on exactly one mode, found {zeros}"
        )
    return FracLapOperator(factors=factors, scales=scales, s=s, pow_tensor=pow_tensor)


def _grouped(factors: Sequence[SpectralFactor], T: np.ndarray) -> np.ndarray:
    """Mode tensor ``T`` with every axis in its factor's parity-grouped order."""
    return T[np.ix_(*(f.grouped for f in factors))]


def _half_products(
    even: np.ndarray, odd: np.ndarray, X: np.ndarray, axis: int, out: np.ndarray
) -> np.ndarray:
    """Mode-multiply the square blocks ``even`` and ``odd`` into the matching halves of ``axis``."""
    h = len(even)
    for block, half in ((even, slice(0, h)), (odd, slice(h, None))):
        index = (slice(None),) * axis + (half,)
        mode_product(block, X[index], axis, out=out[index])
    return out


def _to_grouped(factors: Sequence[SpectralFactor], U: np.ndarray) -> np.ndarray:
    """``to_eigenbasis`` with every axis in parity-grouped mode order."""
    folded, C = np.empty(U.shape), np.empty(U.shape)
    for axis, f in enumerate(factors):
        U = _half_products(f.Pinv_even, f.Pinv_odd, parity_fold(U, axis, out=folded), axis, C)
    return U


def _from_grouped(factors: Sequence[SpectralFactor], C: np.ndarray) -> np.ndarray:
    """``from_eigenbasis`` of a tensor with every axis in parity-grouped mode order.

    Overwrites and returns ``C``.
    """
    work = np.empty(C.shape)
    for axis, f in enumerate(factors):
        parity_unfold(_half_products(f.P_even, f.P_odd, C, axis, work), axis, out=C)
    return C


def to_eigenbasis(factors: Sequence[SpectralFactor], U: np.ndarray) -> np.ndarray:
    """Mode-multiply the inverse eigenvector matrix along every axis."""
    C = _to_grouped(factors, U)
    out = np.empty_like(C)
    out[np.ix_(*(f.grouped for f in factors))] = C
    return out


def from_eigenbasis(factors: Sequence[SpectralFactor], U: np.ndarray) -> np.ndarray:
    """Mode-multiply the eigenvector matrix along every axis."""
    return _from_grouped(factors, _grouped(factors, U))


def apply_fraclap(op: FracLapOperator, U: np.ndarray) -> np.ndarray:
    """Evaluate the operator on a sample tensor of matching shape."""
    tilde = _to_grouped(op.factors, checked_field(U, op.shape))
    tilde *= op.grouped_pow
    return _from_grouped(op.factors, tilde)
