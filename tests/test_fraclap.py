"""Fractional Laplacian operator: spectral powers, application, accuracy."""

import copy
import functools
import itertools

import numpy as np
import pytest

import fracspec.fraclap
from fracspec import (
    NumericalContractError,
    PositiveEntry,
    apply_fraclap,
    build_axis_factors,
    build_diff_matrices,
    build_fraclap,
    build_fracplap,
    differentiate,
    eigen_sum_tensor,
    exact_fraclap_algebraic,
    exact_fraclap_gaussian,
    from_eigenbasis,
    gaussian_field,
    hadamard_pow_neg,
    lorentzian_field,
    make_grid,
    mode_product,
    radius_squared,
    to_eigenbasis,
)
from fracspec.tensor_ops import mirror_axes
from toys import toy_factor


@pytest.mark.parametrize("n", [2, 3, 4])
def test_toy_factor_is_a_factorization(n):
    f = toy_factor(-np.arange(n, dtype=float)[::-1])
    assert np.array_equal(f.Pinv @ f.P, np.eye(n))


# ----------------------------------------------------------------------------
# build_fraclap
# ----------------------------------------------------------------------------


def test_power_tensor_unit_scale():
    op = build_fraclap([toy_factor([0.0, -1.0])], [1.0], 0.5)
    assert np.array_equal(op.pow_tensor, np.array([0.0, 1.0]))


def test_power_tensor_scale_divides_before_power():
    # (-(-4)/2**2)**0.5 = 1
    op = build_fraclap([toy_factor([0.0, -4.0])], [2.0], 0.5)
    assert np.array_equal(op.pow_tensor, np.array([0.0, 1.0]))


def test_power_tensor_two_axes():
    op = build_fraclap([toy_factor([0.0, -1.0]), toy_factor([0.0, -3.0])], [1.0, 1.0], 0.5)
    assert op.shape == (2, 2)
    assert op.pow_tensor[0, 0] == 0.0
    assert op.pow_tensor[1, 0] == 1.0
    assert op.pow_tensor[0, 1] == pytest.approx(np.sqrt(3.0), rel=1e-15)


@pytest.mark.parametrize("s", [0.0, 1.0, -0.2, 1.3])
def test_order_outside_open_interval_rejected(s):
    with pytest.raises(ValueError):
        build_fraclap([toy_factor([0.0, -1.0])], [1.0], s)


def test_multiple_zero_modes_rejected():
    # the second zero is an odd mode, so it surfaces when the odd modes are first read
    op = build_fraclap([toy_factor([-1.0, 0.0, 0.0])], [1.0], 0.5)
    with pytest.raises(NumericalContractError, match="exactly one mode, found 2"):
        op.pow_tensor


def test_multiple_even_zero_modes_rejected_at_build():
    with pytest.raises(NumericalContractError, match="exactly one mode, found 2"):
        build_fraclap([toy_factor([0.0, 0.0, -1.0])], [1.0], 0.5)


def test_positive_eigenvalue_entry_propagates():
    with pytest.raises(PositiveEntry):
        build_fraclap([toy_factor([1.0, 0.0])], [1.0], 0.5)
    # a positive odd eigenvalue surfaces when the odd modes are first read
    op = build_fraclap([toy_factor([0.0, 1.0])], [1.0], 0.5)
    with pytest.raises(PositiveEntry):
        op.pow_tensor


def test_build_validates_lengths_and_scales():
    with pytest.raises(ValueError):
        build_fraclap([toy_factor([0.0, -1.0])], [1.0, 2.0], 0.5)
    with pytest.raises(ValueError):
        build_fraclap([toy_factor([0.0, -1.0])], [-1.0], 0.5)


def test_power_tensor_is_read_only():
    op = build_fraclap([toy_factor([0.0, -1.0])], [1.0], 0.5)
    for power in (op.pow_even, op.pow_tensor):
        with pytest.raises(ValueError):
            power[0] = 5.0


BUILDS = [
    (lambda factors, scales: build_fraclap(factors, scales, 0.4), 0.4),
    (lambda factors, scales: build_fracplap(factors, scales, 0.4, 1.7), 0.5 * 0.4 * 1.7),
]


@pytest.mark.parametrize("build, order", BUILDS)
def test_power_tensor_is_built_from_the_factor_spectra(build, order):
    factors, scales = build_axis_factors((9, 12)), (2.0, 3.0)
    op = build(factors, scales)
    want = hadamard_pow_neg(eigen_sum_tensor([f.lam for f in factors], scales), order)
    assert np.array_equal(op.pow_tensor, want)
    assert not op.pow_tensor.flags.writeable


@pytest.mark.parametrize("build, order", BUILDS)
@pytest.mark.parametrize("dims", [(8,), (9,), (8, 9), (9, 8), (9, 9), (6, 7, 8), (7, 7, 7)])
def test_even_power_block_is_the_leading_block_of_the_power_tensor(build, order, dims):
    op = build(build_axis_factors(dims), [2.0 + 0.5 * k for k in range(len(dims))])
    assert "pow_tensor" not in op.__dict__
    assert op.pow_even.shape == tuple((N + 1) // 2 for N in dims)
    assert not op.pow_even.flags.writeable
    assert np.array_equal(op.pow_even, op.pow_tensor[tuple(slice(h) for h in op.pow_even.shape)])


def test_build_axis_factors_shapes():
    factors = build_axis_factors((9, 12))
    assert [f.N for f in factors] == [9, 12]
    for f in factors:
        assert f.lam[f.zero_index] == 0.0


# ----------------------------------------------------------------------------
# eigenbasis transport
# ----------------------------------------------------------------------------


def test_eigenbasis_round_trip():
    factors = build_axis_factors((64,))
    U = np.random.default_rng(7).standard_normal(64)
    back = from_eigenbasis(factors, to_eigenbasis(factors, U))
    assert np.max(np.abs(back - U)) <= 1e-12


@pytest.mark.parametrize("dims", [(5,), (8,), (6, 7), (7, 4), (3, 4, 5), (4, 5, 2)])
def test_eigenbasis_transport_matches_dense_products(dims):
    factors = build_axis_factors(dims)
    U = np.random.default_rng(3).standard_normal(dims)
    to_dense, from_dense = U, U
    for axis, f in enumerate(factors):
        to_dense = mode_product(f.Pinv, to_dense, axis)
        from_dense = mode_product(f.P, from_dense, axis)
    for got, want in ((to_eigenbasis(factors, U), to_dense), (from_eigenbasis(factors, U), from_dense)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dims", [(8,), (6, 7), (3, 4, 5)])
def test_from_eigenbasis_leaves_its_argument_unchanged(dims):
    factors = build_axis_factors(dims)
    C = np.random.default_rng(4).standard_normal(dims)
    before = C.copy()
    from_eigenbasis(factors, C)
    assert np.array_equal(C, before)


def test_constant_field_lands_on_the_kernel_mode():
    factors = build_axis_factors((32,))
    coeffs = to_eigenbasis(factors, np.ones(32))
    zi = factors[0].zero_index
    expected = np.sqrt(32.0)
    assert coeffs[zi] == pytest.approx(expected, rel=1e-12)
    off = np.delete(coeffs, zi)
    assert np.max(np.abs(off)) <= 1e-10 * expected


# ----------------------------------------------------------------------------
# apply_fraclap
# ----------------------------------------------------------------------------


def test_apply_annihilates_constants():
    factors = build_axis_factors((128,))
    op = build_fraclap(factors, (2.0,), 0.5)
    out = apply_fraclap(op, np.full(128, 3.7))
    assert np.max(np.abs(out)) <= 1e-10


def test_apply_validates_shape():
    op = build_fraclap(build_axis_factors((16,)), (1.0,), 0.5)
    with pytest.raises(ValueError):
        apply_fraclap(op, np.zeros(17))


def test_apply_is_linear():
    op = build_fraclap(build_axis_factors((64,)), (5.0,), 0.7)
    rng = np.random.default_rng(11)
    U, V = rng.standard_normal(64), rng.standard_normal(64)
    combo = apply_fraclap(op, 2.5 * U - 0.3 * V)
    split = 2.5 * apply_fraclap(op, U) - 0.3 * apply_fraclap(op, V)
    assert np.max(np.abs(combo - split)) <= 1e-12


def test_apply_preserves_even_symmetry():
    op = build_fraclap(build_axis_factors((64,)), (5.0,), 0.7)
    g = [make_grid(64, 5.0)]
    w = apply_fraclap(op, gaussian_field(g))
    assert np.array_equal(w, w[::-1])


@functools.cache
def _axis_factor(N):
    # no grid has a single node, so N = 1 gets the one-mode toy factor
    return toy_factor([0.0]) if N == 1 else build_axis_factors((N,))[0]


@pytest.mark.parametrize("dims", [
    (2,), (3,), (16,), (17,), (1, 17), (16, 1), (2, 3), (16, 17), (17, 16),
    (1, 2, 3), (3, 16, 2), (17, 2, 3), (2, 1, 3, 2), (3, 2, 3, 2),
])
def test_folded_apply_matches_the_general_transport(dims):
    # every pattern of mirrored axes, one axis alone included
    op = build_fraclap([_axis_factor(N) for N in dims], [2.0 + 0.3 * k for k in range(len(dims))], 0.4)
    rng = np.random.default_rng(len(dims))
    for mask in itertools.product((False, True), repeat=len(dims)):
        U = rng.standard_normal(dims)
        for axis in np.flatnonzero(mask):
            U = U + np.flip(U, axis)
        got = apply_fraclap(op, U)
        want = from_eigenbasis(op.factors, op.pow_tensor * to_eigenbasis(op.factors, U))
        # relative to the field too: mirrored along an N = 2 axis, it is constant there
        assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), np.max(np.abs(U)))
        for axis in np.flatnonzero(mask):
            assert np.array_equal(got, np.flip(got, axis))


@pytest.mark.parametrize("dims,axes", [
    ((16, 17), (1,)), ((16, 17), (0, 1)), ((6, 7, 8), (2,)), ((6, 7, 8), (0, 1, 2)),
])
def test_folded_apply_reads_a_read_only_field_and_keeps_the_doubled_row_bits(dims, axes):
    # the same bits as Pinv_even on a copy of the top rows with the paired rows doubled
    op = build_fraclap(build_axis_factors(dims), [2.0 + 0.3 * k for k in range(len(dims))], 0.4)
    U = np.random.default_rng(4).standard_normal(dims)
    for axis in axes:
        U = U + np.flip(U, axis)
    U.flags.writeable = False
    before = U.copy()
    got = apply_fraclap(op, U)
    assert np.array_equal(U, before)
    mirrored = [axis in axes for axis in range(len(dims))]
    V = U[tuple(slice((N + 1) // 2) if m else slice(None) for N, m in zip(dims, mirrored))].copy()
    doubled = []
    for axis, (f, m) in enumerate(zip(op.factors, mirrored)):
        doubled.append(copy.copy(f))
        if m:
            V[(slice(None),) * axis + (slice(f.N // 2),)] *= 2.0
            doubled[-1].__dict__["Pinv_fold"] = f.Pinv_even  # read in place of the property
    tilde = fracspec.fraclap._to_modes(doubled, V, mirrored)
    tilde *= op.pow_even if all(mirrored) else op.pow_tensor[tuple(slice(n) for n in V.shape)]
    want = fracspec.fraclap._from_modes(op.factors, tilde, mirrored)
    assert np.array_equal(got[tuple(slice(n) for n in want.shape)], want)


@pytest.mark.parametrize("dims", [(16,), (17,), (16, 17), (3, 4, 5)])
def test_only_a_field_with_an_unmirrored_axis_builds_the_full_power_tensor(dims):
    op = build_fraclap(build_axis_factors(dims), [2.0] * len(dims), 0.4)
    rng = np.random.default_rng(9)
    for mask in itertools.product((False, True), repeat=len(dims)):
        U = rng.standard_normal(dims)
        for axis in np.flatnonzero(mask):
            U = U + np.flip(U, axis)
        apply_fraclap(op, U)
        assert ("pow_tensor" in op.__dict__) == (not all(mask))
        op.__dict__.pop("pow_tensor", None)


@pytest.mark.parametrize("dims", [(16,), (16, 17), (3, 4, 5)])
def test_apply_without_symmetry_runs_both_halves_on_every_axis(dims):
    op = build_fraclap(build_axis_factors(dims), [2.0] * len(dims), 0.4)
    U = np.random.default_rng(2).standard_normal(dims)
    assert not any(mirror_axes(U))
    tilde = to_eigenbasis(op.factors, U) * op.pow_tensor
    assert np.array_equal(apply_fraclap(op, U), from_eigenbasis(op.factors, tilde))


def test_mirrored_plane_costs_a_quarter_of_the_mode_product_work(monkeypatch):
    flops = []

    def counted(A, U, axis, out=None):
        flops.append(2 * len(A) * U.size)  # the count of bench/tracing.py
        return mode_product(A, U, axis, out=out)

    monkeypatch.setattr(fracspec.fraclap, "mode_product", counted)
    dims, scales = (40, 41), (3.0, 3.1)
    op = build_fraclap(build_axis_factors(dims), scales, 0.4)
    U = gaussian_field([make_grid(N, L) for N, L in zip(dims, scales)])
    V = U.copy()
    V[3, 5] += 1e-3
    costs = []
    for F in (U, V):
        flops.clear()
        apply_fraclap(op, F)
        costs.append(sum(flops))
    # folded: one product per axis each way on the 20 x 21 quarter
    quarter = 20 * 21
    assert costs[0] == 2 * (2 * 20 * quarter + 2 * 21 * quarter)
    # full: both half blocks per axis each way on the whole plane
    M = 40 * 41
    assert costs[1] == 2 * sum(2 * b * b * M // N for N in dims for b in ((N + 1) // 2, N // 2))
    assert costs[0] / costs[1] == pytest.approx(0.25, abs=0.01)


def test_gaussian_field_has_no_values_below_tiny_over_eps_and_exact_values_above():
    grids = [make_grid(64, 8.0), make_grid(65, 8.5)]
    u = gaussian_field(grids)
    ref = np.exp(-radius_squared(grids))
    flush = np.finfo(float).tiny / np.finfo(float).eps
    assert flush == 2.0**-970
    assert np.any((ref > 0) & (ref < np.finfo(float).tiny))  # the plane reaches the subnormal band
    assert np.any((ref >= np.finfo(float).tiny) & (ref < flush))  # and the band above it
    assert not np.any((u != 0) & (np.abs(u) < flush))
    kept = ref >= flush
    assert np.array_equal(u[kept], ref[kept])
    assert np.all(u[~kept] == 0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [8, 9])
def test_gaussian_field_is_the_flushed_exponential_bit_for_bit(n, N):
    # computed on the top half of every axis and mirrored: x*x reads the same backwards
    grids = [make_grid(N + k, 2.5 + 0.5 * k) for k in range(n)]
    want = np.exp(-radius_squared(grids))
    want[want < np.finfo(float).tiny / np.finfo(float).eps] = 0.0
    u = gaussian_field(grids)
    assert u.shape == want.shape
    assert u.tobytes() == want.tobytes()


@pytest.mark.parametrize("n,N", [(3, 9), (3, 10), (4, 7)])
def test_fields_on_a_common_grid_equal_every_axis_transpose_bitwise(n, N):
    # three or more squares are summed in ascending order, whatever axis each comes from
    grids = [make_grid(N, 2.5)] * n
    for field in (radius_squared(grids), gaussian_field(grids), lorentzian_field(grids, 0.7)):
        for perm in itertools.permutations(range(n)):
            assert np.transpose(field, perm).tobytes() == field.tobytes()


def test_order_near_one_approaches_negated_second_derivative():
    N, L = 64, 6.0
    g = make_grid(N, L)
    u = gaussian_field([g])
    _, uxx = differentiate(build_diff_matrices(g), u, L)
    op = build_fraclap(build_axis_factors((N,)), (L,), 1.0 - 1e-8)
    w = apply_fraclap(op, u)
    assert np.max(np.abs(w + uxx)) <= 1e-6


def test_gaussian_against_closed_form_1d():
    N, L, s = 128, 12.5, 0.5
    factors = build_axis_factors((N,))
    op = build_fraclap(factors, (L,), s)
    g = [make_grid(N, L)]
    w = apply_fraclap(op, gaussian_field(g))
    exact = exact_fraclap_gaussian(s, 1, radius_squared(g))
    assert np.max(np.abs(w - exact)) <= 1e-12


def test_lorentzian_against_closed_form_1d():
    N, L, s = 128, 4.0, 0.5
    factors = build_axis_factors((N,))
    op = build_fraclap(factors, (L,), s)
    g = [make_grid(N, L)]
    w = apply_fraclap(op, lorentzian_field(g, 1.0))
    exact = exact_fraclap_algebraic(s, 1.0, 1, radius_squared(g))
    assert np.max(np.abs(w - exact)) <= 1e-11


def test_gaussian_against_closed_form_2d():
    dims, scales, s = (17, 18), (3.0, 3.1), 0.37
    op = build_fraclap(build_axis_factors(dims), scales, s)
    g = [make_grid(N, L) for N, L in zip(dims, scales)]
    w = apply_fraclap(op, gaussian_field(g))
    exact = exact_fraclap_gaussian(s, 2, radius_squared(g))
    assert np.max(np.abs(w - exact)) <= 1e-3
