"""Grid construction, 2N-periodic derivative rows, folding, and accuracy."""

import re

import numpy as np
import pytest

from fracspec import (
    EvolutionConfig,
    angular_first_deriv_row,
    angular_second_deriv_row,
    build_diff_matrices,
    differentiate,
    exact_fraclap_algebraic,
    hadamard_pow_neg,
    hyp1f1,
    hyp2f1,
    lorentzian_field,
    make_grid,
    rk4_step,
)
from fracspec.grid import _fold, top_diff_rows


# ----------------------------------------------------------------------------
# make_grid
# ----------------------------------------------------------------------------


def test_make_grid_angles_follow_midpoint_rule():
    g = make_grid(10, 1.0)
    j = np.arange(1, 11, dtype=float)
    assert np.array_equal(g.xi, (2.0 * j - 1.0) * (np.pi / 20.0))


def test_make_grid_nodes_are_cotangent_images():
    # cot(pi/10) and cot(3 pi/10), high-precision references
    g = make_grid(5, 1.0)
    assert g.x[0] == pytest.approx(3.07768353717525340257, rel=1e-15)
    assert g.x[1] == pytest.approx(0.7265425280053608858955, rel=1e-15)


def test_make_grid_scale_multiplies_nodes():
    a = make_grid(8, 1.0)
    b = make_grid(8, 2.5)
    assert np.allclose(b.x, 2.5 * a.x, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("N", [2, 3, 7, 8, 64, 65])
def test_make_grid_antisymmetry_is_exact(N):
    """Reflected nodes are exact negations, not merely close ones."""
    g = make_grid(N, 3.7)
    assert np.array_equal(g.x[::-1], -g.x)


@pytest.mark.parametrize("N", [3, 5, 65])
def test_make_grid_odd_middle_node_is_exact_zero(N):
    g = make_grid(N, 11.0)
    assert g.x[(N - 1) // 2] == 0.0


def test_make_grid_nodes_strictly_decreasing():
    g = make_grid(40, 2.0)
    assert np.all(np.diff(g.x) < 0)


def test_make_grid_arrays_are_read_only():
    g = make_grid(6, 1.0)
    with pytest.raises(ValueError):
        g.x[0] = 0.0
    with pytest.raises(ValueError):
        g.xi[0] = 0.0


@pytest.mark.parametrize("bad_n", [1, 0, -3, 2.5])
def test_make_grid_rejects_bad_node_count(bad_n):
    with pytest.raises(ValueError):
        make_grid(bad_n, 1.0)


@pytest.mark.parametrize("bad_l", [0.0, -1.0, float("nan")])
def test_make_grid_rejects_bad_scale(bad_l):
    with pytest.raises(ValueError):
        make_grid(8, bad_l)


@pytest.mark.parametrize("entry", [
    lambda N: make_grid(N, 1.0),
    angular_first_deriv_row,
    angular_second_deriv_row,
    lambda N: EvolutionConfig(n=1, s=0.5, p=2.0, N=N, L=1.0, dt=0.1, t_end=0.1,
                              snapshot_times=(0.1,)),
], ids=["make_grid", "first_deriv_row", "second_deriv_row", "EvolutionConfig"])
def test_node_count_rule_is_one_rule_at_every_entry(entry):
    # checks.checked_nodes: one test, one message, numpy integers accepted
    for bad in (1, 0, -3, 2.5, "8"):
        with pytest.raises(ValueError, match=re.escape(f"N must be an integer >= 2, got {bad!r}")):
            entry(bad)
    entry(np.int64(2))


def _config(**values):
    base = dict(n=1, s=0.5, p=2.0, N=8, L=1.0, dt=0.1, t_end=0.1, snapshot_times=(0.1,))
    return EvolutionConfig(**{**base, **values})


@pytest.mark.parametrize("name, entry", [
    ("L", lambda v: make_grid(8, v)),
    ("L", lambda v: differentiate(build_diff_matrices(make_grid(4, 1.0)), np.ones(4), v)),
    ("r", lambda v: lorentzian_field([make_grid(4, 1.0)], v)),
    ("L", lambda v: _config(L=v)),
    ("dt", lambda v: _config(dt=v)),
    ("t_end", lambda v: _config(t_end=v)),
    ("dt", lambda v: rk4_step(np.ones(3), v, lambda u: u)),
    ("exponent", lambda v: hadamard_pow_neg(-np.ones(3), v)),
    ("r", lambda v: exact_fraclap_algebraic(0.5, v, 2, 1.0)),
    ("b", lambda v: hyp1f1(0.5, v, -1.0)),
    ("c", lambda v: hyp2f1(0.5, 0.7, v, -1.0)),
], ids=["make_grid", "differentiate", "lorentzian_field", "config-L", "config-dt", "config-t_end",
        "rk4_step", "hadamard_pow_neg", "exact_fraclap_algebraic", "hyp1f1", "hyp2f1"])
def test_positive_rule_is_one_rule_at_every_entry(name, entry):
    # checks.checked_positive: one test, one message, NaN and infinities refused
    for bad in (0.0, -1.5, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be positive and finite, got {bad!r}")):
            entry(bad)
    entry(np.float64(0.5))


# ----------------------------------------------------------------------------
# angular derivative rows
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("N", [2, 3, 4, 9, 16])
def test_first_deriv_row_leading_entry_zero(N):
    assert angular_first_deriv_row(N)[0] == 0.0


def test_first_deriv_row_small_case_values():
    row = angular_first_deriv_row(2)
    # 0.5 / tan(pi/4)
    assert row[1] == pytest.approx(0.5, rel=1e-15)


def test_first_deriv_row_mirror_antisymmetry():
    row = angular_first_deriv_row(4)
    assert row[5] == -row[3]
    # full mirror: entries k and 2N-k are exact negations
    N = 4
    for k in range(1, N):
        assert row[2 * N - k] == -row[k]


def test_second_deriv_row_small_case_values():
    row = angular_second_deriv_row(2)
    assert row[0] == -1.5
    assert row[1] == pytest.approx(1.0, rel=1e-15)
    assert row[2] == -0.5
    assert row[3] == row[1]


def test_second_deriv_row_mirror_symmetry():
    N = 6
    row = angular_second_deriv_row(N)
    for k in range(1, N):
        assert row[2 * N - k] == row[k]


@pytest.mark.parametrize("builder", [angular_first_deriv_row, angular_second_deriv_row])
@pytest.mark.parametrize("N", [2, 3, 8, 33])
def test_rows_have_one_period_and_are_finite(builder, N):
    row = builder(N)
    assert row.shape == (2 * N,)
    assert np.all(np.isfinite(row))


@pytest.mark.parametrize("builder", [angular_first_deriv_row, angular_second_deriv_row])
def test_rows_reject_bad_node_count(builder):
    with pytest.raises(ValueError):
        builder(1)
    with pytest.raises(ValueError):
        builder(4.0)


def test_second_deriv_row_diagonal_formula():
    for N in (2, 5, 12):
        row = angular_second_deriv_row(N)
        assert row[0] == -(2.0 * N * N + 1.0) / 6.0


# ----------------------------------------------------------------------------
# the even-extension fold of the top rows
# ----------------------------------------------------------------------------


def test_folding_all_ones_even_doubles():
    N = 6
    out = _fold(np.ones(2 * N), (N + 1) // 2)
    assert np.array_equal(out, np.full(((N + 1) // 2, N), 2.0))


def test_folding_two_node_first_derivative_by_hand():
    # c = [0, 1/2, 0, -1/2]; row 0 pairs entries (0,3) and (1,2)
    c = angular_first_deriv_row(2)
    out = _fold(c, 1)
    assert out.shape == (1, 2)
    assert out[0, 0] == c[0] + c[3] == pytest.approx(-0.5, rel=1e-15)
    assert out[0, 1] == c[1] + c[2] == pytest.approx(0.5, rel=1e-15)


def _gathered_rows(c, N):
    """The folded top rows by the formula of the padded 3N row, ``c`` extended by its first N entries."""
    c = np.concatenate([c, c[:N]])
    rows = np.arange((N + 1) // 2)[:, None]
    cols = np.arange(N)[None, :]
    return c[2 * N + cols - rows] + c[2 * N - 1 - cols - rows]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("N", [2, 3, 4, 31, 32, 501, 1000, 1001])
def test_folded_and_top_rows_equal_the_gather_formula_bitwise(N):
    first, second = angular_first_deriv_row(N), angular_second_deriv_row(N)
    assert np.array_equal(_bits(_fold(first, (N + 1) // 2)), _bits(_gathered_rows(first, N)))
    assert np.array_equal(_bits(_fold(second, (N + 1) // 2)), _bits(_gathered_rows(second, N)))
    xi = make_grid(N, 1.0).xi[: (N + 1) // 2]
    s2 = np.sin(xi) ** 2
    s2x = np.sin(2.0 * xi)
    if N % 2:
        s2x[-1] = 0.0
    dx = -s2[:, None] * _gathered_rows(first, N)
    dxx = (s2 * s2)[:, None] * _gathered_rows(second, N) - s2x[:, None] * dx
    dx_top, dxx_top = top_diff_rows(make_grid(N, 2.5))
    assert np.array_equal(_bits(dx_top), _bits(dx))
    assert np.array_equal(_bits(dxx_top), _bits(dxx))


# ----------------------------------------------------------------------------
# build_diff_matrices
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("N", [7, 8, 64, 65])
def test_reflection_symmetry_is_bitwise(N):
    """Dx flips sign under double reversal, Dxx is invariant, both exactly."""
    dm = build_diff_matrices(make_grid(N, 4.2))
    assert np.array_equal(dm.Dx[::-1, ::-1], -dm.Dx)
    assert np.array_equal(dm.Dxx[::-1, ::-1], dm.Dxx)


@pytest.mark.parametrize("N", [7, 8, 64, 65, 256])
def test_constant_fields_are_annihilated(N):
    g = make_grid(N, 5.0)
    dm = build_diff_matrices(g)
    ux, uxx = differentiate(dm, np.ones(N), g.L)
    assert np.max(np.abs(ux)) <= 1e-12
    assert np.max(np.abs(uxx)) <= 1e-11


def test_matrices_are_read_only():
    dm = build_diff_matrices(make_grid(6, 1.0))
    with pytest.raises(ValueError):
        dm.Dx[0, 0] = 1.0


def test_gaussian_type_profile_first_derivative():
    """Smooth profile with plateau limits: max error stays spectral."""
    N, L = 2000, 100.0
    g = make_grid(N, L)
    u = 1.0 - np.exp(-g.x**2)
    ux, uxx = differentiate(build_diff_matrices(g), u, L)
    err1 = np.max(np.abs(ux - 2.0 * g.x * np.exp(-g.x**2)))
    err2 = np.max(np.abs(uxx - (2.0 - 4.0 * g.x**2) * np.exp(-g.x**2)))
    assert err1 <= 1e-9, f"first derivative error {err1:.3e}"
    assert err2 <= 1e-8, f"second derivative error {err2:.3e}"


def test_arctan_profile_second_derivative():
    """Algebraically decaying profile; slower but still well under 1e-8."""
    N, L = 2000, 100.0
    g = make_grid(N, L)
    ux, uxx = differentiate(build_diff_matrices(g), np.arctan(g.x), L)
    err2 = np.max(np.abs(uxx + 2.0 * g.x / (1.0 + g.x**2) ** 2))
    assert err2 <= 1e-8, f"second derivative error {err2:.3e}"
    # first derivative of this profile converges more slowly; keep the
    # measured order pinned so a regression cannot hide
    err1 = np.max(np.abs(ux - 1.0 / (1.0 + g.x**2)))
    assert err1 <= 5e-9, f"first derivative error {err1:.3e}"


def test_first_derivative_error_decreases_with_resolution():
    errs = []
    for N in (32, 64, 128, 256):
        g = make_grid(N, 20.0)
        u = 1.0 - np.exp(-g.x**2)
        ux, _ = differentiate(build_diff_matrices(g), u, 20.0)
        errs.append(np.max(np.abs(ux - 2.0 * g.x * np.exp(-g.x**2))))
    for a, b in zip(errs, errs[1:]):
        assert b < a, f"error did not decrease: {errs}"
    assert errs[-1] <= 1e-12


@pytest.mark.xfail(
    reason="u(x) = x maps to L*cot(xi), which is unbounded at xi -> 0; the even"
    " trigonometric extension of this profile has an O(1) corner, so the"
    " collocation derivative is wrong by O(1) at every node, not just near"
    " the ends",
    strict=True,
)
def test_identity_profile_first_derivative():
    N, L = 2000, 100.0
    g = make_grid(N, L)
    ux, _ = differentiate(build_diff_matrices(g), g.x.copy(), L)
    assert np.max(np.abs(ux - 1.0)) <= 1e-6


@pytest.mark.xfail(
    reason="same unbounded-profile corner as the first-derivative case; the"
    " second derivative of u(x) = x comes back O(1/L) instead of zero",
    strict=True,
)
def test_identity_profile_second_derivative():
    N, L = 2000, 100.0
    g = make_grid(N, L)
    _, uxx = differentiate(build_diff_matrices(g), g.x.copy(), L)
    assert np.max(np.abs(uxx)) <= 1e-6


# ----------------------------------------------------------------------------
# differentiate
# ----------------------------------------------------------------------------


def test_differentiate_zero_samples_give_zero():
    dm = build_diff_matrices(make_grid(9, 2.0))
    ux, uxx = differentiate(dm, np.zeros(9), 2.0)
    assert np.array_equal(ux, np.zeros(9))
    assert np.array_equal(uxx, np.zeros(9))


def test_differentiate_validates_shape_and_scale():
    dm = build_diff_matrices(make_grid(9, 2.0))
    with pytest.raises(ValueError):
        differentiate(dm, np.zeros(8), 2.0)
    with pytest.raises(ValueError):
        differentiate(dm, np.zeros(9), 0.0)


def test_unscaled_matrices_carry_the_scale_outside():
    """The same matrices serve every L; only the final division changes."""
    N = 64
    g1, g2 = make_grid(N, 1.0), make_grid(N, 3.0)
    d1, d2 = build_diff_matrices(g1), build_diff_matrices(g2)
    assert np.array_equal(d1.Dx, d2.Dx)
    assert np.array_equal(d1.Dxx, d2.Dxx)
