"""Linear fractional Laplacian on tensor-product collocation grids.

The per-axis second-derivative matrices diagonalize as P Lambda P^-1 with
nonpositive spectra, so the n-dimensional operator acts mode by mode: move
the sample tensor into the eigenbasis along every axis, multiply entrywise
by the fractional power of the (negated, scale-divided) eigenvalue sums,
and move back.  The power tensor has exactly one zero entry, the product of
the per-axis constant modes, which annihilates constant fields exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checks import checked_field, checked_order
from .eigen import SpectralFactor, factorize
from .errors import NumericalContractError
from .grid import make_grid
from .tensor_ops import eigen_sum_tensor, hadamard_pow_neg, mode_product


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


def to_eigenbasis(factors: Sequence[SpectralFactor], U: np.ndarray) -> np.ndarray:
    """Mode-multiply the inverse eigenvector matrix along every axis."""
    for axis, f in enumerate(factors):
        U = mode_product(f.Pinv, U, axis)
    return U


def from_eigenbasis(factors: Sequence[SpectralFactor], U: np.ndarray) -> np.ndarray:
    """Mode-multiply the eigenvector matrix along every axis."""
    for axis, f in enumerate(factors):
        U = mode_product(f.P, U, axis)
    return U


def apply_fraclap(op: FracLapOperator, U: np.ndarray) -> np.ndarray:
    """Evaluate the operator on a sample tensor of matching shape."""
    tilde = to_eigenbasis(op.factors, checked_field(U, op.shape))
    return from_eigenbasis(op.factors, op.pow_tensor * tilde)
