"""Fractional p-Laplacian: odd powers, scaling constant, dual routes.

Reference constants were computed once at 40 digits and frozen as literals.
"""

import numpy as np
import pytest

from fracspec import (
    DEFAULT_MEM_BUDGET,
    MemoryGuardError,
    PoleError,
    apply_fraclap,
    apply_plap_batched,
    apply_plap_pointwise,
    build_axis_factors,
    build_fraclap,
    build_fracplap,
    gaussian_field,
    make_grid,
    plap_constant,
    signed_power,
)


# ----------------------------------------------------------------------------
# signed_power
# ----------------------------------------------------------------------------


def test_signed_power_quadratic_is_identity_copy():
    t = np.array([-2.0, 0.0, 3.5])
    out = signed_power(t, 2.0)
    assert np.array_equal(out, t)
    assert out is not t


def test_signed_power_zero_sticks_at_zero():
    assert signed_power(np.array([0.0]), 1.5)[0] == 0.0
    # at p = 1, |0|**0 = 1 must not leak through
    assert signed_power(0.0, 1.0) == 0.0


@pytest.mark.parametrize("p", [1.0, 1.4, 1.8, 2.7])
def test_signed_power_bitwise_matches_sign_times_power(p):
    t = np.concatenate([np.linspace(-3.0, 3.0, 13), [-0.0, 0.0, -1e-300, 1e-300, 5e-324]])
    want = np.sign(t) * np.abs(t) ** (p - 1.0)
    got = signed_power(t, p)
    # at t = -0.0 the zero result may carry t's sign bit; -0.0 == 0.0
    neg_zero = (t == 0.0) & np.signbit(t)
    assert np.array_equal(got.view(np.uint64)[~neg_zero], want.view(np.uint64)[~neg_zero])
    assert np.all(got[neg_zero] == 0.0)


def test_signed_power_cube_root_case():
    # sgn(-8) * 8**(1/3)
    out = signed_power(np.array([-8.0]), 4.0 / 3.0)
    assert out[0] == pytest.approx(-2.0, rel=1e-15)


def test_signed_power_is_odd():
    t = np.linspace(-3.0, 3.0, 13)
    for p in (1.0, 1.4, 2.0, 2.7):
        assert np.array_equal(signed_power(-t, p), -signed_power(t, p))


def test_signed_power_rejects_small_exponent():
    with pytest.raises(ValueError):
        signed_power(np.array([1.0]), 0.99)


# ----------------------------------------------------------------------------
# plap_constant
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_constant_collapses_to_minus_one_at_p_two(n, s):
    assert abs(plap_constant(n, s, 2.0) + 1.0) <= 1e-14


def test_constant_is_dimension_independent():
    a = plap_constant(1, 0.3, 1.5)
    for n in (2, 3, 7):
        assert plap_constant(n, 0.3, 1.5) == a


def test_constant_frozen_reference_values():
    assert plap_constant(1, 0.3, 1.5) == pytest.approx(
        -0.9975127989739165992376, rel=1e-13
    )
    assert plap_constant(1, 0.8, 2.2) == pytest.approx(
        -1.520504762670507399351, rel=1e-13
    )
    assert plap_constant(2, 0.2, 1.74) == pytest.approx(
        -1.008275229300392258918, rel=1e-13
    )
    assert plap_constant(1, 0.5, 3.0) == pytest.approx(
        -1.281846676020423786474, rel=1e-13
    )


@pytest.mark.parametrize("s,p", [(0.8, 2.5), (0.5, 8.0), (0.5, 4.0)])
def test_constant_pole_at_integer_half_sp(s, p):
    with pytest.raises(PoleError):
        plap_constant(1, s, p)


def test_constant_pole_window_is_narrow():
    # sp/2 within 1e-12 of an integer raises; 1e-9 away evaluates
    with pytest.raises(PoleError):
        plap_constant(1, 0.5, 4.0 + 4e-13)
    assert np.isfinite(plap_constant(1, 0.5, 4.0 + 4e-9))


def test_constant_validates_parameters():
    with pytest.raises(ValueError):
        plap_constant(0, 0.5, 2.0)
    with pytest.raises(ValueError):
        plap_constant(1, 0.0, 2.0)
    with pytest.raises(ValueError):
        plap_constant(1, 1.0, 2.0)
    with pytest.raises(ValueError):
        plap_constant(1, 0.5, 0.5)


# ----------------------------------------------------------------------------
# build_fracplap
# ----------------------------------------------------------------------------


def test_build_power_tensor_uses_half_sp_order():
    from fracspec import SpectralFactor

    lam = np.array([-4.0, 0.0])
    f = SpectralFactor(N=2, P=np.eye(2), Pinv=np.eye(2), lam=lam, zero_index=1, raw_zero_lambda=0.0)
    op = build_fracplap([f], [1.0], 0.5, 2.0)
    # order s*p/2 = 0.5, so (-(-4))**0.5 = 2
    assert np.array_equal(op.pow_tensor, np.array([2.0, 0.0]))
    assert op.c_const == pytest.approx(-1.0, abs=1e-14)


def test_build_propagates_pole_error():
    with pytest.raises(PoleError):
        build_fracplap(build_axis_factors((8,)), (1.0,), 0.8, 2.5)


def test_build_validates_input():
    factors = build_axis_factors((8,))
    with pytest.raises(ValueError):
        build_fracplap(factors, (1.0, 2.0), 0.5, 2.0)
    with pytest.raises(ValueError):
        build_fracplap(factors, (-1.0,), 0.5, 2.0)
    with pytest.raises(ValueError):
        build_fracplap([], [], 0.5, 2.0)
    with pytest.raises(ValueError):
        build_fracplap(factors, (1.0,), 1.0, 2.0)


# ----------------------------------------------------------------------------
# route agreement and reductions
# ----------------------------------------------------------------------------


def test_quadratic_case_reduces_to_linear_operator_1d():
    N, L, s = 7, 2.3, 0.42
    factors = build_axis_factors((N,))
    lin = build_fraclap(factors, (L,), s)
    nonlin = build_fracplap(factors, (L,), s, 2.0)
    U = np.random.default_rng(3).standard_normal(N)
    want = apply_fraclap(lin, U)
    got = apply_plap_pointwise(nonlin, U, threads=1)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_quadratic_case_reduces_to_linear_operator_2d():
    dims, scales, s = (5, 6), (1.5, 2.0), 0.66
    factors = build_axis_factors(dims)
    lin = build_fraclap(factors, scales, s)
    nonlin = build_fracplap(factors, scales, s, 2.0)
    U = np.random.default_rng(4).standard_normal(dims)
    want = apply_fraclap(lin, U)
    got = apply_plap_batched(nonlin, U)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("dims,scales,s,p", [
    ((9,), (2.0,), 0.3, 1.6),
    ((16,), (3.7,), 0.8, 2.2),
    ((5, 6), (1.0, 1.3), 0.5, 1.4),
    ((4, 3, 5), (1.0, 2.0, 1.5), 0.25, 2.0),
])
def test_pointwise_and_batched_routes_agree(dims, scales, s, p):
    factors = build_axis_factors(dims)
    op = build_fracplap(factors, scales, s, p)
    U = np.random.default_rng(5).standard_normal(dims)
    a = apply_plap_pointwise(op, U, threads=1)
    b = apply_plap_batched(op, U)
    assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(a)))


def test_threaded_pointwise_is_bitwise_identical():
    dims = (6, 7)
    op = build_fracplap(build_axis_factors(dims), (2.0, 2.0), 0.6, 1.8)
    U = np.random.default_rng(6).standard_normal(dims)
    assert np.array_equal(
        apply_plap_pointwise(op, U, threads=1),
        apply_plap_pointwise(op, U, threads=3),
    )


def test_constant_field_maps_to_exact_zero():
    op = build_fracplap(build_axis_factors((12,)), (2.0,), 0.5, 1.7)
    out = apply_plap_pointwise(op, np.full(12, 4.2), threads=1)
    assert np.array_equal(out, np.zeros(12))
    assert np.array_equal(apply_plap_batched(op, np.full(12, 4.2)), np.zeros(12))


def test_kernel_is_built_lazily_once_and_read_only():
    op = build_fracplap(build_axis_factors((7,)), (2.0,), 0.5, 1.5)
    assert "kernel" not in vars(op)
    K = op.kernel
    assert op.kernel is K
    assert K.shape == (7, 7)
    with pytest.raises(ValueError):
        K[0, 0] = 1.0


def test_scaling_contract_1d():
    """Order-sp homogeneity in the scale: the grid operator built at scale L
    on samples u(x) equals L**(-s*p) times the unit-scale operator on the
    same sample vector."""
    N, s, p, L = 16, 0.3, 1.7, 3.7
    factors = build_axis_factors((N,))
    op_unit = build_fracplap(factors, (1.0,), s, p)
    op_scaled = build_fracplap(factors, (L,), s, p)
    U = np.random.default_rng(8).standard_normal(N)
    a = apply_plap_batched(op_scaled, U)
    b = apply_plap_batched(op_unit, U) * L ** (-s * p)
    assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


def test_memory_guard_threshold_is_exact():
    dims = (6,)
    factors = build_axis_factors(dims)
    op = build_fracplap(factors, (1.0,), 0.5, 1.5)
    U = np.random.default_rng(9).standard_normal(dims)
    # difference table is 8 * 36 = 288 bytes
    apply_plap_batched(op, U, mem_budget=288)
    with pytest.raises(MemoryGuardError, match="bytes"):
        apply_plap_batched(op, U, mem_budget=287)


def test_default_memory_budget_value():
    assert DEFAULT_MEM_BUDGET == 2**31


def test_operator_value_positive_at_gaussian_peak_1d():
    """Diffusion pushes the peak down: the operator at the center of a bump
    is positive for every exponent."""
    g = [make_grid(101, 10.0)]
    u = gaussian_field(g)
    for p in (1.1, 1.4, 1.8, 2.2, 2.4):
        op = build_fracplap(build_axis_factors((101,)), (10.0,), 0.8, p)
        w = apply_plap_batched(op, u)
        assert w[50] > 0.0, f"p = {p}: center value {w[50]:.3e}"


def test_operator_value_positive_at_gaussian_peak_2d():
    g = [make_grid(21, 6.0)] * 2
    u = gaussian_field(g)
    for p in (1.1, 2.4):
        op = build_fracplap(build_axis_factors((21, 21)), (6.0, 6.0), 0.8, p)
        w = apply_plap_batched(op, u)
        assert w[10, 10] > 0.0


def test_apply_validates_shape():
    op = build_fracplap(build_axis_factors((8,)), (1.0,), 0.5, 1.5)
    with pytest.raises(ValueError):
        apply_plap_pointwise(op, np.zeros(9), threads=1)
    with pytest.raises(ValueError):
        apply_plap_batched(op, np.zeros((8, 1)))
