"""Standard test fields sampled on tensor-product grids."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .checks import checked_positive
from .grid import Grid1D
from .tensor_ops import mirror_fill, mirror_top, outer_sum


# entries of the Gaussian below this are flushed to 0: 2**-970, about 1e-292
_FLUSH = np.finfo(float).tiny / np.finfo(float).eps


def radius_squared(grids: Sequence[Grid1D]) -> np.ndarray:
    """Tensor of |x|^2 = x_1^2 + ... + x_n^2 over the product grid."""
    if len(grids) == 0:
        raise ValueError("need at least one grid")
    return outer_sum([g.x * g.x for g in grids])


def gaussian_field(grids: Sequence[Grid1D]) -> np.ndarray:
    """exp(-|x|^2) sampled on the product grid, values below tiny/eps = 2**-970 flushed to 0.

    Such values carry no information at any tolerance used here.  Subnormals
    slow every product that reads them, and so do values within a factor
    1/eps of the subnormal range, whose products in the eigenbasis GEMMs are
    subnormal.  The other entries equal ``np.exp(-radius_squared(grids))``
    bitwise.  As x*x reads the same backwards along every axis, so does every
    entry: they are computed on the top ceil(N/2) rows of each axis and
    mirrored (``mirror_fill``), with no temporary of the field's size.
    """
    if len(grids) == 0:
        raise ValueError("need at least one grid")
    mirrored = [True] * len(grids)
    u = np.empty([g.N for g in grids])
    top = u[mirror_top(u.shape, mirrored)]
    r2 = outer_sum([(g.x * g.x)[:(g.N + 1) // 2] for g in grids])
    np.exp(np.negative(r2, out=r2), out=top)
    top[top < _FLUSH] = 0.0
    return mirror_fill(u, mirrored)


def lorentzian_field(grids: Sequence[Grid1D], r: float = 1.0) -> np.ndarray:
    """(1 + |x|^2)**-r sampled on the product grid."""
    r = checked_positive("r", r)
    return (1.0 + radius_squared(grids)) ** -r
