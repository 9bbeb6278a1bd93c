"""Standard test fields sampled on tensor-product grids."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .checks import checked_positive
from .grid import Grid1D
from .tensor_ops import mirror_fill, mirror_top, outer_sum


def radius_squared(grids: Sequence[Grid1D]) -> np.ndarray:
    """Tensor of |x|^2 = x_1^2 + ... + x_n^2 over the product grid."""
    if len(grids) == 0:
        raise ValueError("need at least one grid")
    return outer_sum([g.x * g.x for g in grids])


def gaussian_field(grids: Sequence[Grid1D]) -> np.ndarray:
    """exp(-|x|^2) sampled on the product grid, subnormal values flushed to 0.

    Subnormals carry no information at any tolerance used here but slow every
    product that reads them; normal entries equal ``np.exp(-radius_squared(grids))``
    bitwise.  As x*x reads the same backwards along every axis, so does every
    entry: they are computed on the top ceil(N/2) rows of each axis and
    mirrored (``mirror_fill``), with no temporary of the field's size.
    """
    if len(grids) == 0:
        raise ValueError("need at least one grid")
    mirrored = [True] * len(grids)
    u = np.empty([g.N for g in grids])
    top = u[mirror_top(u.shape, mirrored)]
    np.exp(outer_sum([-(g.x * g.x)[:(g.N + 1) // 2] for g in grids]), out=top)
    top[top < np.finfo(float).tiny] = 0.0
    return mirror_fill(u, mirrored)


def lorentzian_field(grids: Sequence[Grid1D], r: float = 1.0) -> np.ndarray:
    """(1 + |x|^2)**-r sampled on the product grid."""
    r = checked_positive("r", r)
    return (1.0 + radius_squared(grids)) ** -r
