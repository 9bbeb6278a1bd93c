"""Mode products, eigenvalue-sum tensors, CSV round trips."""

import itertools
import re

import numpy as np
import pytest

from fracspec import (
    PositiveEntry,
    eigen_sum_tensor,
    hadamard_pow_neg,
    mode_product,
    read_field_csv,
    write_field_csv,
)
from fracspec.tensor_ops import mirror_axes, on_mirror_half, parity_fold, parity_unfold, write_csv


# ----------------------------------------------------------------------------
# mode_product
# ----------------------------------------------------------------------------


def test_mode_product_identity_is_exact():
    # a zero-length axis must not make the reshapes ambiguous
    for shape in ((4, 5, 6), (3, 0, 4)):
        U = np.random.default_rng(0).standard_normal(shape)
        for axis in range(3):
            out = mode_product(np.eye(U.shape[axis]), U, axis)
            assert out.shape == shape and np.array_equal(out, U)


def test_mode_product_matches_matrix_algebra_in_2d():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((5, 5))
    U = rng.standard_normal((4, 5))
    assert np.allclose(mode_product(A, U, 0), A @ U, rtol=1e-15, atol=0)
    assert np.allclose(mode_product(B, U, 1), U @ B.T, rtol=1e-15, atol=0)


def test_mode_product_row_swap_by_hand():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    U = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(mode_product(swap, U, 0), np.array([[3.0, 4.0], [1.0, 2.0]]))
    assert np.array_equal(mode_product(swap, U, 1), np.array([[2.0, 1.0], [4.0, 3.0]]))


def test_mode_products_on_distinct_axes_commute():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((4, 4))
    U = rng.standard_normal((3, 4))
    ab = mode_product(B, mode_product(A, U, 0), 1)
    ba = mode_product(A, mode_product(B, U, 1), 0)
    assert np.allclose(ab, ba, rtol=1e-13, atol=1e-15)


def test_mode_product_validates_input():
    U = np.zeros((3, 4))
    with pytest.raises(ValueError):
        mode_product(np.zeros((3, 4)), U, 0)
    with pytest.raises(ValueError):
        mode_product(np.eye(3), U, 2)
    with pytest.raises(ValueError):
        mode_product(np.eye(3), U, 1)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_mode_product_writes_into_a_slice(axis):
    rng = np.random.default_rng(4)
    U = rng.standard_normal((4, 5, 6))
    A = rng.standard_normal((U.shape[axis],) * 2)
    buf = np.zeros(tuple(n + 3 * (k == axis) for k, n in enumerate(U.shape)))
    out = buf[(slice(None),) * axis + (slice(0, U.shape[axis]),)]
    assert mode_product(A, U, axis, out=out) is out
    assert np.array_equal(out, mode_product(A, U, axis))


@pytest.mark.parametrize("shape, axis", [
    ((3, 0, 4), 0), ((3, 0, 4), 2), ((0, 5), 1), ((5, 0), 0), ((2, 3, 0), 1), ((4, 0, 0), 0),
])
def test_mode_product_on_an_empty_tensor_is_empty(shape, axis):
    # the contracted axis has data but another one is empty, so the reshape
    # sizes next to it must be explicit; an empty slice is a valid out
    A = np.random.default_rng(3).standard_normal((shape[axis],) * 2)
    got = mode_product(A, np.zeros(shape), axis)
    assert got.shape == shape and got.size == 0
    buf = np.zeros(tuple(n + 2 for n in shape))
    out = buf[tuple(slice(0, n) for n in shape)]
    assert mode_product(A, np.zeros(shape), axis, out=out) is out


def test_mode_product_refuses_an_out_it_cannot_write_in_place():
    U = np.ones((4, 5, 6))
    with pytest.raises(ValueError, match="C-ordered"):
        mode_product(np.eye(4), U, 0, out=np.zeros((6, 5, 4)).transpose())


@pytest.mark.parametrize("shape, axis", [((2,), 0), ((3,), 0), ((6, 7), 0), ((6, 7), 1), ((3, 5, 2), 1)])
def test_parity_fold_stacks_even_and_odd_halves(shape, axis):
    U = np.random.default_rng(5).standard_normal(shape)
    N = shape[axis]
    h, m = (N + 1) // 2, N // 2
    u, f = np.moveaxis(U, axis, 0), np.moveaxis(parity_fold(U, axis), axis, 0)
    assert np.array_equal(f[:m], u[:m] + u[::-1][:m])
    assert np.array_equal(f[m:h], u[m:h])
    assert np.array_equal(f[h:], u[:m] - u[::-1][:m])
    # unfolding the halves doubles the mirrored rows and keeps a middle row
    back = np.moveaxis(parity_unfold(parity_fold(U, axis), axis), axis, 0)
    assert np.array_equal(back[m:h], u[m:h])
    assert np.allclose(np.delete(back, range(m, h), 0), 2 * np.delete(u, range(m, h), 0), rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (1, 4), (2, 3, 4), (5, 2, 3), (3, 3, 3)])
def test_mirror_axes_matches_the_full_reflection_test(shape):
    # every mirror pattern, then every single-entry perturbation of it
    rng = np.random.default_rng(9)
    for mask in itertools.product((False, True), repeat=len(shape)):
        U = rng.standard_normal(shape)
        for axis, m in enumerate(mask):
            if m:
                U = U + np.flip(U, axis)
        for i in range(-1, U.size):
            V = U.copy()
            if i >= 0:
                V.flat[i] += 1.0
            want = tuple(np.array_equal(V, np.flip(V, axis)) for axis in range(V.ndim))
            assert mirror_axes(V) == want


def test_mirror_axes_compares_under_equality():
    assert mirror_axes(np.array([0.0, 1.0, -0.0])) == (True,)
    assert mirror_axes(np.array([np.nan, 1.0, np.nan])) == (False,)
    assert mirror_axes(np.ones((1, 3))) == (True, True)
    # a middle row is compared with itself, so a NaN there breaks the mirror
    assert mirror_axes(np.array([1.0, np.nan, 1.0])) == (False,)
    U = np.ones((3, 4))
    U[1] = [1.0, np.nan, np.nan, 1.0]
    assert mirror_axes(U) == (False, False)


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (8,), (1, 4), (6, 7), (2, 3, 4), (5, 2, 3), (3, 3, 3)])
def test_on_mirror_half_runs_f_on_the_top_slice_and_mirrors_back(shape):
    # every mirror pattern, odd and even N; an axis of one node is always mirrored
    rng = np.random.default_rng(11)
    for mask in itertools.product((False, True), repeat=len(shape)):
        U = rng.standard_normal(shape)
        for axis, m in enumerate(mask):
            if m:
                U = U + np.flip(U, axis)
        want = tuple(np.array_equal(U, np.flip(U, axis)) for axis in range(U.ndim))
        top = tuple(slice((N + 1) // 2 if m else N) for N, m in zip(shape, want))
        calls = []

        def f(half, mirrored):
            calls.append((half, mirrored, np.exp(half)))  # an elementwise stand-in
            return calls[-1][2]

        out = on_mirror_half(f, U)
        assert len(calls) == 1
        half, mirrored, result = calls[0]
        assert mirrored == mirror_axes(U) == want
        assert half.shape == U[top].shape and np.array_equal(half, U[top]) and np.shares_memory(half, U)
        assert out.shape == shape and np.array_equal(out, np.exp(U))
        for axis, m in enumerate(want):
            if m:
                assert np.array_equal(out, np.flip(out, axis))
        assert (out is result) == (not any(want))


def test_on_mirror_half_returns_the_result_of_f_itself_without_a_mirror():
    result = np.zeros((2, 3))
    U = np.arange(6.0).reshape(2, 3)
    assert mirror_axes(U) == (False, False)
    assert on_mirror_half(lambda half, mirrored: result, U) is result
    # a 0-d input has no axis to mirror, so f sees the scalar itself
    assert on_mirror_half(lambda half, mirrored: (float(half), mirrored), 0.5) == (0.5, ())


# ----------------------------------------------------------------------------
# eigen_sum_tensor
# ----------------------------------------------------------------------------


def test_eigen_sum_single_axis_unit_scale():
    out = eigen_sum_tensor([np.array([-1.0, 0.0])], [1.0])
    assert np.array_equal(out, np.array([-1.0, 0.0]))


def test_eigen_sum_scale_divides_squared():
    out = eigen_sum_tensor([np.array([-4.0, 0.0])], [2.0])
    assert np.array_equal(out, np.array([-1.0, 0.0]))


def test_eigen_sum_two_axes_broadcast():
    out = eigen_sum_tensor([np.array([-1.0, 0.0]), np.array([-2.0, 0.0])], [1.0, 1.0])
    assert np.array_equal(out, np.array([[-3.0, -1.0], [-2.0, 0.0]]))


def test_eigen_sum_exactly_one_zero_with_kernel_modes():
    lams = [np.array([-3.0, -1.0, 0.0]), np.array([-2.0, 0.0])]
    out = eigen_sum_tensor(lams, [1.5, 0.5])
    assert np.count_nonzero(out == 0.0) == 1
    assert out[2, 1] == 0.0
    assert np.all(out <= 0.0)


def test_eigen_sum_validates_input():
    with pytest.raises(ValueError):
        eigen_sum_tensor([], [])
    with pytest.raises(ValueError):
        eigen_sum_tensor([np.array([-1.0])], [1.0, 2.0])
    with pytest.raises(ValueError):
        eigen_sum_tensor([np.array([-1.0])], [0.0])
    with pytest.raises(ValueError):
        eigen_sum_tensor([np.zeros((2, 2))], [1.0])


# ----------------------------------------------------------------------------
# hadamard_pow_neg
# ----------------------------------------------------------------------------


def test_hadamard_pow_zero_maps_to_zero():
    assert np.array_equal(hadamard_pow_neg(np.array([0.0]), 0.5), np.array([0.0]))


def test_hadamard_pow_square_root():
    assert np.array_equal(hadamard_pow_neg(np.array([-4.0]), 0.5), np.array([2.0]))


def test_hadamard_pow_cube_root():
    out = hadamard_pow_neg(np.array([-1.0, -8.0]), 1.0 / 3.0)
    assert out[0] == 1.0
    assert out[1] == pytest.approx(2.0, rel=1e-15)


def test_hadamard_pow_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        hadamard_pow_neg(np.array([-1.0]), 0.0)
    with pytest.raises(ValueError):
        hadamard_pow_neg(np.array([-1.0]), -0.5)


def test_hadamard_pow_rejects_positive_entries():
    with pytest.raises(PositiveEntry):
        hadamard_pow_neg(np.array([-1.0, 1e-6]), 0.5)


def test_hadamard_pow_clamps_rounding_noise():
    # +1e-13 relative to a unit-magnitude tensor is rounding, not a sign error
    out = hadamard_pow_neg(np.array([-1.0, 1e-13]), 0.5)
    assert np.array_equal(out, np.array([1.0, 0.0]))


# ----------------------------------------------------------------------------
# field CSV
# ----------------------------------------------------------------------------


def test_field_csv_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((3, 4, 2))
    path = tmp_path / "field.csv"
    sidecar = write_field_csv(path, arr)
    assert sidecar.endswith("field.json")
    back = read_field_csv(path)
    assert np.array_equal(back, arr)


def test_field_csv_header_and_first_row(tmp_path):
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "f.csv"
    write_field_csv(path, arr)
    lines = path.read_text().splitlines()
    assert lines[0] == "i1,i2,value"
    # rows count down from the all-max tuple
    assert lines[1] == "2,2,4"
    assert lines[-1] == "1,1,1"


# pins the row order (descending column-major flat position) and the
# 17-digit number format byte for byte
GOLDEN_FIELD_CSV = """\
i1,i2,i3,value
2,3,2,1.0000000000000001e-05
1,3,2,1.0000000000000001e+300
2,2,2,1.152921504606847e+18
1,2,2,3.1415926535897931
2,1,2,0.10000000000000001
1,1,2,-0
2,3,1,123456789
1,3,1,-2.5
2,2,1,-0.14285714285714285
1,2,1,1e-300
2,1,1,4.9406564584124654e-324
1,1,1,0.33333333333333331
"""


def test_field_csv_golden_bytes(tmp_path):
    arr = np.array([
        1.0 / 3.0, -0.0, 1e-300, np.pi, -2.5, 1e300,
        5e-324, 0.1, -1.0 / 7.0, 2.0**60, 123456789.0, 1e-5,
    ]).reshape(2, 3, 2)
    path = tmp_path / "g.csv"
    write_field_csv(path, arr)
    assert path.read_bytes() == GOLDEN_FIELD_CSV.encode()
    back = read_field_csv(path)
    assert np.array_equal(back.view(np.int64), arr.view(np.int64))


def per_row_csv(names, columns):
    """The CSV text of formatting every row on its own with ``"%d,...,%.17g\\n" % row``."""
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    lines = [row % r for r in zip(*(c.tolist() for c in columns))]
    return (",".join(names) + "\n" + "".join(lines)).encode()


def per_row_field_csv(arr):
    shape = arr.shape
    indices = np.indices(shape).reshape(len(shape), -1, order="F")[:, ::-1] + 1
    names = [f"i{k + 1}" for k in range(len(shape))] + ["value"]
    return per_row_csv(names, [*indices, arr.ravel(order="F")[::-1]])


# -0.0, the smallest subnormal, other subnormals, huge, infinite and nan
# values, and two whose %.17g takes the most bytes, 24
SPECIAL_VALUES = [-0.0, 5e-324, 2.2e-310, -1.5e-320, 1e300, np.inf, -np.inf, np.nan,
                  -1.7976931348623157e+308, -2.2250738585072014e-308]


# (70000,), (3, 30000), (1000, 70) and (30, 40, 60) each span more than one
# chunk, with a template of one row, of three, of one leading axis and of two
@pytest.mark.parametrize(
    "shape",
    [(1,), (7,), (1, 5), (5, 1), (2, 3, 4), (3, 1, 2), (70000,), (3, 30000), (1000, 70),
     (30, 40, 60)],
    ids=lambda shape: "x".join(map(str, shape)),
)
def test_field_csv_bytes_match_per_row_formatting(tmp_path, shape):
    rng = np.random.default_rng(6)
    arr = rng.standard_normal(shape) * np.exp(rng.uniform(-700.0, 700.0, shape))
    flat = arr.reshape(-1)
    flat[:len(SPECIAL_VALUES)] = SPECIAL_VALUES[:flat.size]
    flat[-len(SPECIAL_VALUES):] = SPECIAL_VALUES[-flat.size:]
    path = tmp_path / "f.csv"
    write_field_csv(path, arr)
    assert path.read_bytes() == per_row_field_csv(arr)


def test_field_csv_plain_write_reads_its_sweeps_from_any_layout(tmp_path):
    # (25000, 3, 2) sweeps one leading axis per trailing pair, two per chunk,
    # so a chunk's sweeps cross from one run of the first trailing axis to the next
    rng = np.random.default_rng(16)
    arr = rng.standard_normal((25000, 3, 2))
    path = tmp_path / "r.csv"
    write_field_csv(path, arr)
    assert path.read_bytes() == per_row_field_csv(arr)
    field = rng.standard_normal((30, 40, 60))
    write_field_csv(path, field)
    want = path.read_bytes()
    for view in (np.asfortranarray(field), field.transpose(2, 0, 1).copy().transpose(1, 2, 0)):
        write_field_csv(path, view)
        assert path.read_bytes() == want
    flipped = field[::-1, :, ::-2]
    write_field_csv(path, flipped)
    assert path.read_bytes() == per_row_field_csv(np.ascontiguousarray(flipped))


def mirrored_field(shape, axes, seed):
    """A field with SPECIAL_VALUES in mirror pairs that equals its reflection bit for bit along ``axes``."""
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(shape) * np.exp(rng.uniform(-700.0, 700.0, shape))
    flat = arr.reshape(-1)
    flat[:len(SPECIAL_VALUES)] = SPECIAL_VALUES[:flat.size]
    for axis in axes:
        u = np.moveaxis(arr, axis, 0)
        u[(len(u) + 1) // 2:] = u[:len(u) // 2][::-1]
    return arr


# the chunk-spanning shapes, with even and odd lengths, mirrored along
# every axis, the first only or the last only; the writer sweeps no leading
# axis on the 1-d shapes, the first on the 2-d ones and two on the 3-d ones
MIRRORED_CASES = sorted({
    (shape, axes)
    for shape in [(70000,), (70001,), (3, 30001), (1000, 70), (999, 71), (30, 40, 60), (31, 40, 59)]
    for axes in [tuple(range(len(shape))), (0,), (len(shape) - 1,)]
})


@pytest.mark.parametrize(
    "shape, axes", MIRRORED_CASES,
    ids=[f"{'x'.join(map(str, shape))}-axes{''.join(map(str, axes))}" for shape, axes in MIRRORED_CASES],
)
def test_field_csv_bytes_match_per_row_formatting_on_mirrored_fields(tmp_path, shape, axes):
    arr = mirrored_field(shape, axes, seed=len(shape))
    assert all(mirror_axes(arr.view(np.uint64))[axis] for axis in axes)
    assert np.isnan(arr).sum() >= 2 and np.isinf(arr).sum() >= 4
    path = tmp_path / "f.csv"
    write_field_csv(path, arr)
    assert path.read_bytes() == per_row_field_csv(arr)


@pytest.mark.parametrize("shape", [(7,), (70001,), (4, 5, 6)], ids=lambda shape: "x".join(map(str, shape)))
def test_field_csv_writes_the_sign_of_a_mirrored_zero(tmp_path, shape):
    # symmetric under == but not bit for bit: -0 faces +0 across every axis
    arr = mirrored_field(shape, range(len(shape)), seed=11)
    arr.reshape(-1)[0] = -0.0
    arr.reshape(-1)[-1] = 0.0
    signless = np.where(arr == 0.0, 0.0, arr)
    assert all(mirror_axes(signless.view(np.uint64))) and not any(mirror_axes(arr.view(np.uint64)))
    path = tmp_path / "z.csv"
    write_field_csv(path, arr)
    assert path.read_bytes() == per_row_field_csv(arr)


def test_write_csv_bytes_match_per_row_formatting(tmp_path):
    rng = np.random.default_rng(7)
    n = 70000
    floats = rng.standard_normal(n) * np.exp(rng.uniform(-700.0, 700.0, n))
    floats[:len(SPECIAL_VALUES)] = SPECIAL_VALUES
    columns = [np.arange(1, n + 1), floats, rng.integers(-10**12, 10**12, n), -floats]
    path = tmp_path / "t.csv"
    write_csv(path, ["j", "a", "k", "b"], columns)
    assert path.read_bytes() == per_row_csv(["j", "a", "k", "b"], columns)


@pytest.mark.parametrize("shape", [(9, 11), (4, 5, 6)])
def test_field_csv_reads_rows_in_any_order(tmp_path, shape):
    arr = np.random.default_rng(8).standard_normal(shape)
    arr.reshape(-1)[:len(SPECIAL_VALUES)] = SPECIAL_VALUES
    path = tmp_path / "f.csv"
    write_field_csv(path, arr)
    header, *body = path.read_text().splitlines(keepends=True)
    order = np.random.default_rng(9).permutation(len(body))
    assert not np.array_equal(order, np.arange(len(body)))
    path.write_text(header + "".join(body[k] for k in order))
    back = read_field_csv(path)
    assert back.tobytes() == arr.tobytes()


def test_field_csv_keeps_seventeen_digits(tmp_path):
    arr = np.array([1.0 / 3.0, np.pi, 1e-300])
    path = tmp_path / "digits.csv"
    write_field_csv(path, arr)
    assert np.array_equal(read_field_csv(path), arr)


def test_field_csv_sidecar_records_shape(tmp_path):
    import json

    arr = np.zeros((2, 5))
    path = tmp_path / "s.csv"
    sidecar = write_field_csv(path, arr)
    with open(sidecar) as fh:
        assert json.load(fh) == {"shape": [2, 5]}


def test_field_csv_read_rejects_column_mismatch(tmp_path):
    arr = np.zeros((2, 2))
    path = tmp_path / "c.csv"
    sidecar = write_field_csv(path, arr)
    with open(sidecar, "w") as fh:
        fh.write('{"shape": [4]}\n')
    with pytest.raises(ValueError):
        read_field_csv(path)


def test_field_csv_read_refuses_a_sidecar_without_a_shape(tmp_path):
    path = tmp_path / "e.csv"
    sidecar = write_field_csv(path, np.zeros((2, 2)))
    with open(sidecar, "w") as fh:
        fh.write("{}\n")
    with pytest.raises(ValueError, match=re.escape(f"sidecar '{sidecar}' must hold")):
        read_field_csv(path)


def test_field_csv_read_refuses_a_fractional_shape_entry(tmp_path):
    # int(2.7) would read this 2-row file as shape (2,)
    path = tmp_path / "f.csv"
    sidecar = write_field_csv(path, np.zeros(2))
    with open(sidecar, "w") as fh:
        fh.write('{"shape": [2.7]}\n')
    with pytest.raises(ValueError, match=re.escape(f"sidecar '{sidecar}' must hold") + ".* integer entries"):
        read_field_csv(path)


def test_field_csv_read_rejects_missing_rows(tmp_path):
    arr = np.zeros((3,))
    path = tmp_path / "r.csv"
    write_field_csv(path, arr)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        read_field_csv(path)


def test_field_csv_read_rejects_repeated_index(tmp_path):
    arr = np.zeros((4, 5))
    path = tmp_path / "d.csv"
    write_field_csv(path, arr)
    lines = path.read_text().splitlines()
    lines[2] = lines[1]  # the second data row repeats the first's index
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"\(4, 5\) appears twice"):
        read_field_csv(path)


def test_field_csv_read_refuses_extra_rows_as_repeated(tmp_path):
    path = tmp_path / "x.csv"
    write_field_csv(path, np.zeros((3, 4)))
    lines = path.read_text().splitlines()
    # three more rows, every index in range: the first size + 1 rows repeat one
    path.write_text("\n".join(lines + lines[5:8]) + "\n")
    with pytest.raises(ValueError, match="appears twice"):
        read_field_csv(path)


def test_field_csv_read_counts_the_rows_of_a_short_file_under_a_huge_sidecar(tmp_path):
    # rows for the sidecar's 6e8 entries would take 13 GiB; the file has room for a few
    path = tmp_path / "big.csv"
    write_field_csv(path, np.zeros((3, 1)))
    (tmp_path / "big.json").write_text('{"shape": [20000, 30000]}\n')
    with pytest.raises(ValueError, match="expected 600000000 rows, found 3"):
        read_field_csv(path)


def test_field_csv_read_names_the_first_out_of_range_row(tmp_path):
    path = tmp_path / "o.csv"
    write_field_csv(path, np.zeros((3, 4)))
    lines = path.read_text().splitlines()
    # past the end on the second axis first, then below the start on the first
    lines[3], lines[7] = "2,5,1.0", "0,1,1.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"^index \(2, 5\) out of range for shape \(3, 4\)$"):
        read_field_csv(path)


def test_field_csv_read_names_the_repeated_index_of_least_flat_position(tmp_path):
    path = tmp_path / "r3.csv"
    write_field_csv(path, np.zeros((2, 3, 4)))
    lines = path.read_text().splitlines()
    # (2, 3, 4) repeats first in row order, (1, 2, 3) first in column-major position
    lines[2], lines[20] = "2,3,4,1.0", "1,2,3,1.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"^index \(1, 2, 3\) appears twice$"):
        read_field_csv(path)


def test_field_csv_read_holds_only_the_rows_the_field_and_a_mask(tmp_path):
    import tracemalloc

    from fracspec import gaussian_field, make_grid

    shape = (300, 301)
    path = tmp_path / "m.csv"
    field = gaussian_field([make_grid(N, 3.0) for N in shape])
    write_field_csv(path, field)
    size = field.size
    # the parsed rows (two int64 indices and a float), the result and one byte per entry
    budget = (size + 1) * 24 + size * 8 + size
    tracemalloc.start()
    try:
        back = read_field_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.tobytes() == field.tobytes()
    assert peak <= 1.1 * budget


def test_field_csv_write_holds_less_than_a_fixed_width_array_over_the_field(tmp_path):
    import tracemalloc

    shape = (1000, 1001)
    field = mirrored_field(shape, (0, 1), seed=13)
    assert all(mirror_axes(field.view(np.uint64)))
    # 24 bytes per entry: a fixed-width array of every value's text, or an
    # array of str objects, over the whole field would exceed this
    budget = 24 * field.size
    tracemalloc.start()
    try:
        write_field_csv(tmp_path / "w.csv", field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget


def test_field_csv_write_of_a_short_sweep_stays_under_11_mib(tmp_path):
    import tracemalloc

    # no leading axis fits a chunk, so every sweep is one row; a bytes.join
    # over 65,536 of them would hold an 80-byte buffer view per row (13.1 MiB)
    field = np.random.default_rng(15).standard_normal(1000001)
    assert not any(mirror_axes(field))
    tracemalloc.start()
    try:
        write_field_csv(tmp_path / "s.csv", field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2**20


def test_field_csv_plain_write_copies_no_field(tmp_path):
    import tracemalloc

    # each chunk's values come from its own sweeps: no column-major copy of
    # the 8 MB field (measured peak 3.9 MiB; 11.5 MiB with the copy)
    field = np.random.default_rng(17).standard_normal((2, 500001))
    assert not any(mirror_axes(field))
    tracemalloc.start()
    try:
        write_field_csv(tmp_path / "p.csv", field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.parametrize(
    "row, match",
    [
        ("0,4,1.0", "out of range"),
        ("4,4,1.0", "out of range"),
        ("1.5,4,1.0", "1.5"),
        ("3,4,1.0,2.0", "columns"),
    ],
    ids=["index-zero", "index-past-end", "non-integer-index", "extra-column"],
)
def test_field_csv_read_refuses_bad_rows(tmp_path, row, match):
    path = tmp_path / "b.csv"
    write_field_csv(path, np.zeros((3, 4)))
    lines = path.read_text().splitlines()
    lines[1] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=match):
        read_field_csv(path)


def test_field_csv_read_refuses_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "u.csv"
    write_field_csv(path, np.zeros((3, 4)))
    lines = path.read_bytes().split(b"\n")
    lines[5] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError) as info:
        read_field_csv(path)
    assert isinstance(info.value, UnicodeDecodeError)


def test_field_csv_read_takes_crlf_line_ends_bitwise(tmp_path):
    arr = np.random.default_rng(12).standard_normal((5, 6))
    arr.reshape(-1)[:len(SPECIAL_VALUES)] = SPECIAL_VALUES
    path = tmp_path / "w.csv"
    write_field_csv(path, arr)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_field_csv(path).tobytes() == arr.tobytes()


def test_field_csv_read_header_only_counts_zero_rows(tmp_path):
    import warnings

    path = tmp_path / "h.csv"
    write_field_csv(path, np.zeros((3, 4)))
    path.write_text("i1,i2,value\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="expected 12 rows, found 0"):
            read_field_csv(path)


def test_field_csv_refuses_a_path_that_is_its_own_sidecar(tmp_path):
    path = tmp_path / "f.json"
    with pytest.raises(ValueError, match="sidecar"):
        write_field_csv(path, np.zeros((2, 3)))
    assert list(tmp_path.iterdir()) == []
