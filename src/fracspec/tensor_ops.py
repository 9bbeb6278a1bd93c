"""Dense tensor helpers shared by the operator modules.

Fields on an n-dimensional grid are plain numpy arrays of shape
(N_1, ..., N_n).  Where a flat ordering matters (tuple iteration, the CSV
format, the dense difference table) the convention is first index fastest,
i.e. column-major: flat = (i_1 - 1) + N_1*(i_2 - 1) + N_1*N_2*(i_3 - 1) + ...
for 1-based indices i_j.  ``numpy.ravel(A, order='F')`` realizes it.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterator, Sequence

import numpy as np

from .errors import PositiveEntry

# entries may poke above zero by at most this fraction of the magnitude
# range before a fractional power of the negated tensor is refused
_POSITIVE_TOL = 1e-12

IndexTuple = tuple[int, ...]


def _checked_shape(shape: Sequence[int]) -> tuple[int, ...]:
    shape = tuple(int(n) for n in shape)
    if len(shape) == 0 or any(n < 1 for n in shape):
        raise ValueError(f"shape must be non-empty with positive entries, got {shape}")
    return shape


def flat_index(shape: Sequence[int], indices: Sequence[int]) -> int:
    """1-based column-major flat position of a 1-based index tuple."""
    shape = _checked_shape(shape)
    if len(indices) != len(shape):
        raise ValueError(f"expected {len(shape)} indices, got {len(indices)}")
    flat = 0
    stride = 1
    for i, n in zip(indices, shape):
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")
        flat += (i - 1) * stride
        stride *= n
    return flat + 1


def tuple_iter(shape: Sequence[int]) -> Iterator[tuple[IndexTuple, int]]:
    """Yield every 1-based index tuple of a shape, flat position counting down.

    Starts at the all-max tuple (flat = prod(shape)) and decrements the first
    index fastest, odometer style, ending at the all-ones tuple (flat = 1).
    """
    shape = _checked_shape(shape)
    total = math.prod(shape)
    idx = list(shape)
    for flat in range(total, 0, -1):
        yield tuple(idx), flat
        for k in range(len(shape)):
            if idx[k] > 1:
                idx[k] -= 1
                break
            idx[k] = shape[k]


def mode_product(A: np.ndarray, U: np.ndarray, axis: int) -> np.ndarray:
    """Contract matrix A against one tensor axis.

    result[..., m, ...] = sum_k A[m, k] * U[..., k, ...] along ``axis``
    (0-based).  A must be square of size U.shape[axis]; the shape of U is
    preserved.
    """
    A = np.asarray(A, dtype=float)
    U = np.asarray(U, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    if not 0 <= axis < U.ndim:
        raise ValueError(f"axis {axis} out of range for a {U.ndim}-d tensor")
    if A.shape[1] != U.shape[axis]:
        raise ValueError(f"A is {A.shape[0]}x{A.shape[1]} but axis {axis} has length {U.shape[axis]}")
    out = np.tensordot(A, U, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def eigen_sum_tensor(lambdas: Sequence[np.ndarray], scales: Sequence[float]) -> np.ndarray:
    """Tensor of scaled eigenvalue sums.

    Entry (i_1, ..., i_n) is sum_j lambdas[j][i_j] / scales[j]**2.  With each
    lambdas[j] nonpositive every entry is nonpositive, and the entry where
    all factors hit their zero mode is exactly 0.
    """
    if len(lambdas) == 0 or len(lambdas) != len(scales):
        raise ValueError("need one eigenvalue vector and one scale per dimension")
    scales = [float(L) for L in scales]
    if any(not L > 0 for L in scales):
        raise ValueError(f"scales must be positive, got {scales}")
    n = len(lambdas)
    total = None
    for ax, (lam, L) in enumerate(zip(lambdas, scales)):
        lam = np.asarray(lam, dtype=float)
        if lam.ndim != 1:
            raise ValueError(f"eigenvalue vector {ax} must be 1-d")
        shape = [1] * n
        shape[ax] = lam.size
        term = (lam / (L * L)).reshape(shape)
        total = term if total is None else total + term
    return total


def hadamard_pow_neg(T: np.ndarray, exponent: float) -> np.ndarray:
    """Entrywise (-T)**exponent for a nonpositive tensor T.

    Exact zeros map to 0.  Entries above zero by no more than 1e-12 of the
    magnitude range are clamped to 0; anything larger raises PositiveEntry.
    """
    T = np.asarray(T, dtype=float)
    if not exponent > 0:
        raise ValueError(f"exponent must be positive, got {exponent!r}")
    scale = float(np.max(np.abs(T))) if T.size else 0.0
    worst = float(np.max(T)) if T.size else 0.0
    if worst > _POSITIVE_TOL * scale:
        raise PositiveEntry(f"entry {worst:.6e} is positive beyond {_POSITIVE_TOL:g} * {scale:.6e}")
    base = np.where(T < 0.0, -T, 0.0)
    return base ** float(exponent)


def write_field_csv(path: str | os.PathLike, arr: np.ndarray) -> str:
    """Write a tensor as CSV rows ``i_1,...,i_n,value`` in tuple_iter order.

    Values use 17 significant digits and newline line endings.  A JSON
    sidecar ``<path stem>.json`` records the shape, so ``path`` must not end
    in ``.json``.  Returns the sidecar path.
    """
    arr = np.asarray(arr, dtype=float)
    shape = _checked_shape(arr.shape)
    flat = np.ravel(arr, order="F")
    ndim = len(shape)
    header = ",".join(f"i{k + 1}" for k in range(ndim)) + ",value"
    path = os.fspath(path)
    sidecar = _sidecar_path(path)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for indices, pos in tuple_iter(shape):
            row = ",".join(str(i) for i in indices)
            fh.write(f"{row},{flat[pos - 1]:.17g}\n")
    with open(sidecar, "w", newline="\n") as fh:
        json.dump({"shape": list(shape)}, fh)
        fh.write("\n")
    return sidecar


def read_field_csv(path: str | os.PathLike) -> np.ndarray:
    """Read a tensor written by ``write_field_csv``.

    Every index tuple of the sidecar shape must appear exactly once.
    """
    path = os.fspath(path)
    with open(_sidecar_path(path)) as fh:
        shape = _checked_shape(json.load(fh)["shape"])
    flat = np.empty(math.prod(shape))
    filled = bytearray(flat.size)
    seen = 0
    with open(path) as fh:
        header = fh.readline()
        ncols = header.count(",") + 1
        if ncols != len(shape) + 1:
            raise ValueError(f"CSV has {ncols} columns but the sidecar shape has {len(shape)} dims")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            indices = [int(p) for p in parts[:-1]]
            k = flat_index(shape, indices) - 1
            if filled[k]:
                raise ValueError(f"index {tuple(indices)} appears twice")
            filled[k] = 1
            flat[k] = float(parts[-1])
            seen += 1
    if seen != flat.size:
        raise ValueError(f"expected {flat.size} rows, found {seen}")
    return flat.reshape(shape, order="F")


def _sidecar_path(path: str) -> str:
    stem, ext = os.path.splitext(path)
    sidecar = stem + ".json" if ext else path + ".json"
    if sidecar == path:
        raise ValueError(f"field path {path!r} ends in .json, the name of its own shape sidecar")
    return sidecar
