"""Dense tensor helpers shared by the operator modules.

Fields on an n-dimensional grid are plain numpy arrays of shape
(N_1, ..., N_n).  The grid reads the same backwards along every axis, and
two helpers use a field's mirror symmetry (``mirror_axes``):
``on_mirror_half`` runs a computation on the top half of every mirrored
axis and copies the result into the bottom half (``mirror_fill``), and
``write_field_csv`` formats each value that a bitwise mirror repeats only
once.

Where a flat ordering matters (the field CSV rows) the convention is first
index fastest, i.e. column-major: ``numpy.ravel(A, order='F')``.  CSV files
are written as bytes: ``_VALUE`` is the one number format, and ``_fill``
fills a chunk of row templates with one ``%``.  ``write_field_csv`` and
``read_field_csv`` add the field layout (1-based index columns, a JSON
shape sidecar) on top of it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import warnings
from typing import Callable, Iterator, Sequence

import numpy as np

from .checks import checked_positive
from .errors import PositiveEntry

# entries may poke above zero by at most this fraction of the magnitude
# range before a fractional power of the negated tensor is refused
_POSITIVE_TOL = 1e-12

# rows formatted per write call; bounds the size of the joined text
_CSV_CHUNK_ROWS = 65536
# sweeps joined per write call: bytes.join holds an 80-byte buffer view per
# item, 5 MiB over a chunk of one-row sweeps
_CSV_CHUNK_SWEEPS = 4096
# the one number format of every CSV float: 17 significant digits
_VALUE = b"%.17g"


def _checked_shape(shape: Sequence[int]) -> tuple[int, ...]:
    shape = tuple(int(n) for n in shape)
    if len(shape) == 0 or any(n < 1 for n in shape):
        raise ValueError(f"shape must be non-empty with positive entries, got {shape}")
    return shape


def mode_product(A: np.ndarray, U: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Contract matrix A against one tensor axis.

    result[..., m, ...] = sum_k A[m, k] * U[..., k, ...] along ``axis``
    (0-based).  A must be square of size U.shape[axis]; the shape of U is
    preserved.  The result is written to ``out`` when given, an array of
    U's shape that is a slice of a C-ordered one, and returned.
    """
    A = np.asarray(A, dtype=float)
    U = np.asarray(U, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    if not 0 <= axis < U.ndim:
        raise ValueError(f"axis {axis} out of range for a {U.ndim}-d tensor")
    if A.shape[1] != U.shape[axis]:
        raise ValueError(f"A is {A.shape[0]}x{A.shape[1]} but axis {axis} has length {U.shape[axis]}")
    # GEMMs on U's own C-ordered layout: one for the first or the last axis,
    # one per leading index for an axis in between; the sizes are explicit,
    # as a -1 is ambiguous beside a zero-length axis
    last = axis == U.ndim - 1
    lead = U.shape[:axis]
    shape = (math.prod(lead), len(A)) if last else lead + (len(A), math.prod(U.shape[axis + 1:]))
    out = np.empty(U.shape) if out is None else out
    Y = out.reshape(shape)
    # an empty view shares no memory, not even with itself
    if out.size and not np.may_share_memory(Y, out):
        raise ValueError("out must be a slice of a C-ordered array")
    if last:
        np.matmul(U.reshape(shape), A.T, out=Y)
    else:
        np.matmul(A, U.reshape(shape), out=Y)
    return out


def mirror_axes(U: np.ndarray) -> tuple[bool, ...]:
    """Per axis of U, whether U equals its reflection i -> N-1-i along it.

    Equality is under ``==``: +0 and -0 count as equal and a NaN never
    does, so a mirror-symmetric field need not be bitwise symmetric in the
    sign of its zeros.  Each mirrored pair of rows is compared once: the top
    ceil(N/2) rows against the reversed bottom ones, a middle row against
    itself.  After a mirrored axis only its top half is compared along the
    later axes, as the bottom one copies it.
    """
    U = np.asarray(U)
    mirrored = []
    for axis in range(U.ndim):
        u = np.moveaxis(U, axis, 0)
        h = (len(u) + 1) // 2
        mirrored.append(np.array_equal(u[:h], u[::-1][:h]))
        if mirrored[-1]:
            U = np.moveaxis(u[:h], 0, axis)
    return tuple(mirrored)


def on_mirror_half(f: Callable[[np.ndarray, tuple[bool, ...]], np.ndarray], U: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` on the top ceil(N/2) rows of every axis U mirrors, and mirror the result back.

    This is the parity reduction of a mirror-symmetric field: ``f(half,
    mirrored)`` receives that slice of U and ``mirror_axes(U)`` and returns
    an array of the slice's shape.  It fills the top block of a new array,
    whose bottom rows along each mirrored axis are then copied from its top
    ones, so the result equals its reflection there exactly.  With no
    mirrored axis ``f``'s own result is returned.
    """
    U = np.asarray(U)
    mirrored = mirror_axes(U)
    top = mirror_top(U.shape, mirrored)
    half = f(U[top], mirrored)
    if not any(mirrored):
        return half
    out = np.empty(U.shape, half.dtype)
    out[top] = half
    return mirror_fill(out, mirrored)


def mirror_top(shape: Sequence[int], mirrored: Sequence[bool]) -> tuple[slice, ...]:
    """The index of the top ceil(N/2) rows along each mirrored axis of ``shape``, all rows along the others."""
    return tuple(slice((N + 1) // 2 if m else N) for N, m in zip(shape, mirrored))


def mirror_fill(out: np.ndarray, mirrored: Sequence[bool]) -> np.ndarray:
    """Copy the top rows of ``out`` (``mirror_top``) into its bottom rows along each mirrored axis, in place.

    The result, ``out`` itself, equals its reflection along those axes exactly.
    """
    index = list(mirror_top(out.shape, mirrored))
    for axis in (axis for axis, m in enumerate(mirrored) if m):
        N = out.shape[axis]
        index[axis] = slice(None)
        u = np.moveaxis(out[tuple(index)], axis, 0)
        u[(N + 1) // 2:] = u[:N // 2][::-1]
    return out


def parity_fold(U: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Fold one axis of length N into its mirror-even and mirror-odd halves, stacked.

    With h = ceil(N/2), m = floor(N/2) and ``b = u[::-1][:m]`` the reversed
    bottom rows, the result holds ``u[:m] + b`` and, when N is odd, the
    middle row ``u[m]`` (counted once) in its first h rows and ``u[:m] - b``
    in its last m.  It has U's shape and is written to ``out`` when given.
    """
    u = np.moveaxis(U, axis, 0)
    h, m = (len(u) + 1) // 2, len(u) // 2
    out = np.empty(U.shape) if out is None else out
    f = np.moveaxis(out, axis, 0)
    np.add(u[:m], u[::-1][:m], out=f[:m])
    f[m:h] = u[m:h]
    np.subtract(u[:m], u[::-1][:m], out=f[h:])
    return out


def parity_unfold(F: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Map stacked even and odd halves back to the full axis, the layout inverse of ``parity_fold``.

    With h = ceil(N/2) and m = floor(N/2), row i < m of the result is
    ``F[i] + F[h + i]``, row N-1-i is ``F[i] - F[h + i]``, and a middle row
    is ``F[m]``.  It has F's shape and is written to ``out`` when given.
    """
    f = np.moveaxis(F, axis, 0)
    h, m = (len(f) + 1) // 2, len(f) // 2
    out = np.empty(F.shape) if out is None else out
    u = np.moveaxis(out, axis, 0)
    np.add(f[:m], f[h:], out=u[:m])
    u[m:h] = f[m:h]
    np.subtract(f[:m], f[h:], out=u[::-1][:m])
    return out


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
    lambdas = [np.asarray(lam, dtype=float) for lam in lambdas]
    for ax, lam in enumerate(lambdas):
        if lam.ndim != 1:
            raise ValueError(f"eigenvalue vector {ax} must be 1-d")
    return outer_sum([lam / (L * L) for lam, L in zip(lambdas, scales)])


def outer_sum(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor of entries vectors[0][i_1] + ... + vectors[n-1][i_n], summed left to right, n >= 1."""
    n = len(vectors)
    terms = [v.reshape([v.size if k == ax else 1 for k in range(n)]) for ax, v in enumerate(vectors)]
    return functools.reduce(np.add, terms)


def hadamard_pow_neg(T: np.ndarray, exponent: float) -> np.ndarray:
    """Entrywise (-T)**exponent for a nonpositive tensor T.

    Exact zeros map to 0.  Entries above zero by no more than 1e-12 of the
    magnitude range are clamped to 0; anything larger raises PositiveEntry.
    """
    T = np.asarray(T, dtype=float)
    exponent = checked_positive("exponent", exponent)
    scale = float(np.max(np.abs(T))) if T.size else 0.0
    worst = float(np.max(T)) if T.size else 0.0
    if worst > _POSITIVE_TOL * scale:
        raise PositiveEntry(f"entry {worst:.6e} is positive beyond {_POSITIVE_TOL:g} * {scale:.6e}")
    base = np.where(T < 0.0, -T, 0.0)
    return base ** exponent


def write_csv(path: str | os.PathLike, names: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write equal-length 1-d arrays as CSV columns under a header row of ``names``.

    Integer columns print as integers and float columns with 17 significant
    digits, enough to read every double back bitwise; lines end in ``\\n``.
    """
    row = b",".join(b"%d" if c.dtype.kind in "iu" else _VALUE for c in columns) + b"\n"
    with open(path, "wb") as fh:
        fh.write(",".join(names).encode() + b"\n")
        for a in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            chunk = [c[a:a + _CSV_CHUNK_ROWS] for c in columns]
            fh.write(_fill(row * len(chunk[0]), chunk))


def write_field_csv(path: str | os.PathLike, arr: np.ndarray) -> str:
    """Write a tensor as CSV rows ``i1,...,in,value``, flat position counting down.

    The rows run in descending column-major flat position: from the all-max
    index tuple, first index fastest, to the all-ones tuple.  The index text
    is formatted once per shape: a template holds one sweep of the leading
    axes that fit in a chunk, with ``@`` for the trailing indices written in
    per sweep.  All text is bytes, and each chunk of rows is filled with
    one ``%``.  A field that equals its reflection bit for bit along some
    axis formats the values of its mirror box, which holds every value
    once, into one fixed-width ``S24`` array, one ``%`` per chunk, and
    fills the ``%s`` fields of a chunk from that array at the rows' box
    positions (``_box_position``); any other field fills ``%.17g`` fields
    from the floats of the chunk's own sweeps (``_sweep_values``), with no
    copy of the field.  Either way the bytes are those of
    ``"%d,...,%.17g\\n" % row``.  A JSON sidecar ``<path stem>.json`` records the shape, so
    ``path`` must not end in ``.json``.  Returns the sidecar path.
    """
    arr = np.asarray(arr, dtype=float)
    shape = _checked_shape(arr.shape)
    path = os.fspath(path)
    sidecar = _sidecar_path(path)
    # leading axes: the most whose sweep fits in one chunk
    lead, rows = 0, 1
    while lead < len(shape) and rows * shape[lead] <= _CSV_CHUNK_ROWS:
        rows *= shape[lead]
        lead += 1
    # compared as bits, as -0 and 0 are equal under == but print differently;
    # a length-1 axis is its own mirror and repeats nothing
    mirrored = [m and N > 1 for N, m in zip(shape, mirror_axes(arr.view(np.uint64)))]
    if any(mirrored):
        # along a mirrored axis of length N the box i >= N // 2 holds every value
        box = arr[tuple(slice(N // 2 if m else 0, None) for N, m in zip(shape, mirrored))]
        flat = box.ravel(order="F")
        # a %.17g takes at most 24 bytes (a sign, 17 digits, a point and e-308);
        # the array would cut a longer one silently
        text = np.empty(flat.size, "S24")
        for b in range(0, flat.size, _CSV_CHUNK_ROWS):
            chunk = flat[b:b + _CSV_CHUNK_ROWS]
            text[b:b + chunk.size] = ((_VALUE + b"\n") * chunk.size % tuple(chunk.tolist())).split(b"\n")[:-1]
        # a row's box position is its leading part plus stride times its trailing part
        stride = math.prod(box.shape[:lead])
        lead_pos = _box_position(shape[:lead], mirrored[:lead], np.arange(rows - 1, -1, -1))
    value = b"%s" if any(mirrored) else _VALUE
    with open(path, "wb") as fh:
        fh.write((",".join(f"i{k + 1}" for k in range(len(shape))) + ",value\n").encode())
        template = b"".join(t + b"@" + value + b"\n" for t in _index_text(shape[:lead]))
        trailing = _index_text(shape[lead:])
        sweeps = min(_CSV_CHUNK_ROWS // rows, _CSV_CHUNK_SWEEPS)
        for a in range(0, arr.size, sweeps * rows):
            count = min(sweeps, (arr.size - a) // rows)
            chunk = b"".join([template.replace(b"@", t) for t in itertools.islice(trailing, count)])
            top = (arr.size - a) // rows - 1
            if any(mirrored):
                trail = _box_position(shape[lead:], mirrored[lead:], np.arange(top, top - count, -1))
                entries = text[(stride * trail[:, None] + lead_pos).ravel()]
            else:
                entries = _sweep_values(arr, lead, top - count + 1, count)[::-1]
            fh.write(_fill(chunk, [entries]))
    with open(sidecar, "w", newline="\n") as fh:
        json.dump({"shape": list(shape)}, fh)
        fh.write("\n")
    return sidecar


def _sweep_values(arr: np.ndarray, lead: int, first: int, count: int) -> np.ndarray:
    """The values of sweeps ``first`` to ``first + count - 1`` of the leading ``lead`` axes, column-major.

    A sweep holds every leading index at one trailing index tuple, and its
    number is that tuple's column-major position over the trailing axes.
    Consecutive sweeps are read as runs along the first trailing axis, so
    only their own values are copied.
    """
    trailing = arr.shape[lead:] or (1,)
    arr = arr.reshape(arr.shape[:lead] + trailing)
    runs, j, end = [], first, first + count
    while j < end:
        outer, i = divmod(j, trailing[0])
        stop = min(trailing[0], i + end - j)
        index = (slice(None),) * lead + (slice(i, stop),) + np.unravel_index(outer, trailing[1:], order="F")
        runs.append(arr[index].ravel(order="F"))
        j += stop - i
    return np.concatenate(runs)


def _box_position(shape: Sequence[int], mirrored: Sequence[bool], flat: np.ndarray) -> np.ndarray:
    """Column-major position in the mirror box of each column-major position ``flat`` in ``shape``.

    Along a mirrored axis of length N index i goes to max(i, N-1-i) - N//2,
    in a box axis of length ceil(N/2); any other axis keeps its index.
    """
    pos, stride = np.zeros_like(flat), 1
    for N, m in zip(shape, mirrored):
        flat, i = np.divmod(flat, N)
        if m:
            i, N = np.maximum(i, N - 1 - i) - N // 2, (N + 1) // 2
        pos += stride * i
        stride *= N
    return pos


def _index_text(shape: tuple[int, ...]) -> Iterator[bytes]:
    """Yield ``b"i1,...,in,"`` for every index tuple of ``shape``, flat position counting down."""
    if not shape:
        yield b""
        return
    # the first axis's text is made a chunk at a time, so no list grows with the field
    for rest in _index_text(shape[1:]):
        for top in range(shape[0], 0, -_CSV_CHUNK_ROWS):
            yield from [b"%d,%s" % (i, rest) for i in range(top, max(top - _CSV_CHUNK_ROWS, 0), -1)]


def _fill(template: bytes, columns: Sequence[np.ndarray]) -> bytes:
    """Fill the ``%`` fields of ``template`` with the columns' entries, row by row."""
    lists = [c.tolist() for c in columns]
    args = [None] * (len(lists) * len(lists[0]))
    for j, entries in enumerate(lists):
        args[j::len(lists)] = entries
    return template % tuple(args)


def read_field_csv(path: str | os.PathLike) -> np.ndarray:
    """Read a tensor written by ``write_field_csv``.

    The file is UTF-8 text with ``\\n`` or ``\\r\\n`` line ends; a byte
    that is not UTF-8 raises ``UnicodeDecodeError``, a ``ValueError``.  The
    header's column count is checked first, and then ``numpy.loadtxt``
    reads the rows from the path, which parses faster than from an open
    text handle.  The sidecar must hold a list of positive integers under
    ``"shape"``, and every index tuple of that shape must appear exactly
    once, in any row order.

    At most the first ``size + 1`` rows are parsed, ``size`` the sidecar's
    entry count (fewer when the file has no room for that many), so
    ``loadtxt`` allocates its rows once.  A file with more rows is refused
    all the same: its first ``size + 1`` rows hold an index that is out of
    range or repeated, and that is the one the message names.  The
    full-size memory is the parsed rows (``8 * (n + 1)`` bytes each), the
    returned field and one byte per entry: each row's column-major flat
    position is built in place in its last index column.
    """
    path = os.fspath(path)
    sidecar = _sidecar_path(path)
    with open(sidecar) as fh:
        meta = json.load(fh)
    shape = meta.get("shape") if isinstance(meta, dict) else None
    # a bool is an int to Python, and int() would truncate a fractional entry
    if not isinstance(shape, list) or any(type(N) is not int for N in shape):
        raise ValueError(f"sidecar {sidecar!r} must hold {{\"shape\": [N1, ...]}} with integer "
                         f"entries, got {meta!r}")
    shape = _checked_shape(shape)
    size, n = math.prod(shape), len(shape)
    with open(path, encoding="utf-8") as fh:
        ncols = fh.readline().count(",") + 1
    if ncols != n + 1:
        raise ValueError(f"CSV has {ncols} columns but the sidecar shape has {n} dims")
    # a row takes at least 2n + 2 bytes, so a short file never sizes the rows from a large sidecar
    max_rows = min(size, os.path.getsize(path) // (2 * n + 2)) + 1
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        rows = np.loadtxt(path, delimiter=",", skiprows=1, encoding="utf-8", ndmin=1,
                          max_rows=max_rows, dtype=[("i", np.int64, (n,)), ("v", float)])
    indices = rows["i"]
    # column by column: numpy reduces a strided column several times faster than the 2-d block
    if any(col.min(initial=1) < 1 or col.max(initial=1) > N for N, col in zip(shape, indices.T)):
        first = np.argmax(((indices < 1) | (indices > shape)).any(1))
        raise ValueError(f"index {tuple(indices[first].tolist())} out of range for shape {shape}")
    # Horner over the axes, last first, in the last column: sum_k (i_k - 1) * prod(shape[:k])
    pos = indices[:, -1]
    for N, column in zip(shape[-2::-1], indices.T[-2::-1]):
        pos *= N
        pos += column
    pos -= sum(math.prod(shape[:k]) for k in range(n))
    seen = np.zeros(size, dtype=bool)
    seen[pos] = True
    if np.count_nonzero(seen) != pos.size:
        repeated = np.flatnonzero(np.bincount(pos, minlength=size) > 1)[0]
        first = np.unravel_index(repeated, shape, order="F")
        raise ValueError(f"index {tuple(int(i) + 1 for i in first)} appears twice")
    if pos.size != size:
        raise ValueError(f"expected {size} rows, found {pos.size}")
    flat = np.empty(size)
    flat[pos] = rows["v"]
    return flat.reshape(shape, order="F")


def _sidecar_path(path: str) -> str:
    stem, ext = os.path.splitext(path)
    sidecar = stem + ".json" if ext else path + ".json"
    if sidecar == path:
        raise ValueError(f"field path {path!r} ends in .json, the name of its own shape sidecar")
    return sidecar
