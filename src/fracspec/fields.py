"""Standard test fields sampled on tensor-product grids."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .checks import checked_positive
from .grid import Grid1D
from .tensor_ops import outer_sum


def radius_squared(grids: Sequence[Grid1D]) -> np.ndarray:
    """Tensor of |x|^2 = x_1^2 + ... + x_n^2 over the product grid."""
    if len(grids) == 0:
        raise ValueError("need at least one grid")
    return outer_sum([g.x * g.x for g in grids])


def gaussian_field(grids: Sequence[Grid1D]) -> np.ndarray:
    """exp(-|x|^2) sampled on the product grid, subnormal values flushed to 0.

    Subnormals carry no information at any tolerance used here but slow every
    product that reads them; normal entries equal ``np.exp`` bitwise.
    """
    u = np.exp(-radius_squared(grids))
    u[u < np.finfo(float).tiny] = 0.0
    return u


def lorentzian_field(grids: Sequence[Grid1D], r: float = 1.0) -> np.ndarray:
    """(1 + |x|^2)**-r sampled on the product grid."""
    r = checked_positive("r", r)
    return (1.0 + radius_squared(grids)) ** -r
