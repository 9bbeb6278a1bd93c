"""Parameter rules shared by every entry point, one function and one message each.

Each function returns its argument in the type the callers compute with.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def checked_order(s: float) -> float:
    """The fractional order s as a float strictly inside (0, 1)."""
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s!r}")
    return s


def checked_exponent(p: float) -> float:
    """The p-Laplacian exponent p as a finite float, p >= 1."""
    p = float(p)
    if not math.isfinite(p):  # inf passes p >= 1
        raise ValueError(f"p must be finite, got {p!r}")
    if not p >= 1:
        raise ValueError(f"p must be at least 1, got {p!r}")
    return p


def checked_dimension(n: int) -> int:
    """The space dimension n as an int, n >= 1; numpy integers are accepted, bools are not."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return int(n)


def checked_nodes(N: int) -> int:
    """The node count N of one axis as an int, N >= 2; numpy integers are accepted."""
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise ValueError(f"N must be an integer >= 2, got {N!r}")
    return int(N)


def checked_positive(name: str, value: float) -> float:
    """A scalar parameter ``name`` as a float, 0 < value < inf; NaN is refused."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def checked_finite(name: str, value: float) -> float:
    """A scalar parameter ``name`` as a float; NaN and infinities are refused."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def checked_field(U: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """The sample tensor U as a float array, which must have ``shape``."""
    U = np.asarray(U, dtype=float)
    if U.shape != tuple(shape):
        raise ValueError(f"field shape {U.shape} does not match grid {tuple(shape)}")
    return U
