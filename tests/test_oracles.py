"""Gamma, confluent and Gauss hypergeometrics, closed-form references.

High-precision reference values in this file were computed once with an
arbitrary-precision library at 40 digits and are frozen as literals.
"""

import math

import numpy as np
import pytest

from fracspec import (
    HypergeometricResult,
    NoConvergence,
    PoleError,
    exact_fraclap_algebraic,
    exact_fraclap_gaussian,
    gamma_fn,
    hyp1f1,
    hyp2f1,
    make_grid,
    oracles,
    radius_squared,
    resolvent_integral_oracle,
    semigroup_integral_oracle,
)


def brute_1f1(a, b, z, terms=600):
    """Direct power-series sum, float arithmetic, no transformations."""
    total = term = 1.0
    for k in range(terms):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
    return total


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def brute_2f1(a, b, c, z, terms=4000):
    total = term = 1.0
    for k in range(terms):
        term *= (a + k) * (b + k) * z / ((c + k) * (k + 1.0))
        total += term
    return total


# ----------------------------------------------------------------------------
# gamma_fn
# ----------------------------------------------------------------------------


def test_gamma_half_is_sqrt_pi():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)


def test_gamma_five_is_factorial():
    assert gamma_fn(5.0) == 24.0


@pytest.mark.parametrize("x", [0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
def test_gamma_reflection_identity(x):
    lhs = gamma_fn(x) * gamma_fn(1.0 - x)
    assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-12)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
def test_gamma_poles_raise(x):
    with pytest.raises(PoleError):
        gamma_fn(x)


def test_gamma_near_pole_window():
    with pytest.raises(PoleError):
        gamma_fn(-3.0 + 5e-13)
    # just outside the guard window the huge value comes back
    assert math.isfinite(gamma_fn(-3.0 + 1e-9))


@pytest.mark.parametrize("x", [float("inf"), float("nan")])
def test_gamma_rejects_non_finite(x):
    with pytest.raises(ValueError):
        gamma_fn(x)


# ----------------------------------------------------------------------------
# hyp1f1
# ----------------------------------------------------------------------------


def test_1f1_at_origin_is_one():
    assert hyp1f1(0.63, 0.5, 0.0).value == 1.0


def test_1f1_equal_parameters_collapse_to_exp():
    res = hyp1f1(1.0, 1.0, -1.0)
    assert res.value == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert res.converged


def test_1f1_series_branch_reference_values():
    assert hyp1f1(0.63, 0.5, -4.0).value == pytest.approx(
        -0.08934073651554694750958, rel=1e-13
    )
    assert hyp1f1(1.0, 0.5, -10.0).value == pytest.approx(
        -0.06075161985803289695018, rel=1e-13
    )


def test_1f1_asymptotic_branch_reference_values():
    assert hyp1f1(0.63, 0.5, -60.0).value == pytest.approx(
        -0.01616275158959342477684, rel=1e-10
    )
    assert hyp1f1(2.13, 2.0, -60.0).value == pytest.approx(
        -0.00002020787372711538682588, rel=1e-10
    )
    assert hyp1f1(0.63, 0.5, -1e4).value == pytest.approx(
        -0.0006360692882234778319001, rel=1e-10
    )
    assert hyp1f1(2.13, 2.0, -1e4).value == pytest.approx(
        -3.589245142582854913784e-10, rel=1e-10
    )


@pytest.mark.parametrize("z", [-0.5, -2.0, -5.0])
def test_1f1_agrees_with_direct_series(z):
    # the direct sum suffers from alternating-term cancellation, so the
    # comparison is absolute at roughly max_term * eps
    got = hyp1f1(0.63, 0.5, z).value
    assert got == pytest.approx(brute_1f1(0.63, 0.5, z), abs=1e-12)


def test_1f1_agrees_with_direct_series_at_ten():
    got = hyp1f1(1.7, 1.2, -10.0).value
    assert got == pytest.approx(brute_1f1(1.7, 1.2, -10.0), abs=5e-12)


def test_1f1_reference_values_straddling_the_branch_seam():
    # last argument served by the transformed series and first served by the
    # large-argument expansion; both sides pinned independently
    assert hyp1f1(0.63, 0.5, -49.9999).value == pytest.approx(
        -0.01817552792969478, rel=1e-12
    )
    assert hyp1f1(0.63, 0.5, -50.0001).value == pytest.approx(
        -0.018175481030024157, rel=1e-12
    )


def test_1f1_array_input_matches_scalars():
    z = np.array([[-0.5, -3.0], [-60.0, 0.0]])
    res = hyp1f1(0.9, 1.4, z)
    assert isinstance(res.value, np.ndarray)
    assert res.value.shape == z.shape
    for idx in np.ndindex(z.shape):
        assert np.array_equal(bits(res.value[idx]), bits(hyp1f1(0.9, 1.4, z[idx]).value))


def test_1f1_result_reports_convergence_metadata():
    res = hyp1f1(0.63, 0.5, -4.0)
    assert isinstance(res, HypergeometricResult)
    assert res.converged is True
    assert res.terms_used >= 1


def test_1f1_validates_parameters():
    with pytest.raises(ValueError):
        hyp1f1(1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        hyp1f1(1.0, -2.0, -1.0)
    with pytest.raises(ValueError):
        hyp1f1(1.0, 1.5, 0.5)


@pytest.mark.parametrize("z", [float("nan"), np.array([-1.0, float("nan"), -60.0])])
def test_1f1_refuses_nan_argument_up_front(z):
    with pytest.raises(ValueError, match="not NaN"):
        hyp1f1(0.63, 0.5, z)


@pytest.mark.parametrize("a", [float("nan"), float("inf"), -float("inf")])
def test_1f1_refuses_non_finite_a(a):
    with pytest.raises(ValueError, match="a must be finite"):
        hyp1f1(a, 0.5, -1.0)


def test_1f1_keeps_its_limit_at_minus_infinity():
    assert hyp1f1(0.63, 0.5, -math.inf).value == 0.0
    res = hyp1f1(0.63, 0.5, np.array([-math.inf, -60.0]))
    assert res.value[0] == 0.0 and res.converged


# ----------------------------------------------------------------------------
# the bucketed series against forward loops over every element at once; the
# loops run in extended precision where numpy has it, as a forward sum of
# doubles is itself a few ulps off
# ----------------------------------------------------------------------------


def _asymp_1f1_unchunked(a, b, w):
    """The large-argument expansion, each element stopped at its own smallest term."""
    coeff = math.gamma(b) * oracles._rgamma(b - a)
    term = np.ones_like(w)
    total = np.ones_like(w)
    last = np.abs(term)
    estimate = np.full_like(w, np.inf)
    active = np.ones(w.shape, dtype=bool)
    used = 1
    for k in range(200):
        term = term * ((a + k) * (a - b + 1.0 + k) / ((k + 1.0) * w))
        mag = np.abs(term)
        grew = mag >= last
        tiny = mag <= 1e-17 * np.abs(total)
        stopping = active & (grew | tiny)
        estimate[stopping] = mag[stopping]
        keep = active & ~grew
        total[keep] += term[keep]
        active = keep & ~tiny
        last = mag
        used = k + 2
        if not active.any():
            break
    estimate[active] = last[active]
    ok = bool(np.all(estimate <= oracles._ASYMP_TOL * np.abs(total)))
    return coeff * w ** (-a) * total, used, ok


def _kummer_1f1_forward(a, b, w):
    """e**-w 1F1(b - a; b; w) summed forward until every term is below 1e-17 of its sum."""
    term = np.ones_like(w)
    total = np.ones_like(w)
    for k in range(2000):
        term = term * ((b - a + k) / ((b + k) * (k + 1.0))) * w
        total = total + term
        if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
            break
    return np.exp(-w) * total


def _far_points(size, low=50.0, seed=11):
    """Log-uniform points in (low, 1e8], shuffled, with both ends present."""
    rng = np.random.default_rng(seed)
    w = np.exp(rng.uniform(math.log(low), math.log(1e8), size))
    w[0] = np.nextafter(low, math.inf)
    w[-1] = 1e8
    return rng.permutation(w)


def _near_points(size, seed=12):
    """Uniform points in [0, 50], shuffled, with both ends and every octave seam present."""
    rng = np.random.default_rng(seed)
    seams = 2.0 ** np.arange(-8, 6)
    w = np.concatenate([[0.0, 50.0], seams, seams * (1 - 2.0**-52), rng.uniform(0.0, 50.0, size)])
    return rng.permutation(w)


@pytest.mark.parametrize("size", [1, 2, 64, 5001])
@pytest.mark.parametrize("a, b", [(1.3, 1.0), (0.63, 0.5), (2.13, 2.0)])
def test_asymptotic_series_matches_the_forward_loop(a, b, size):
    w = _far_points(size)
    got, _, ok = oracles._asymp_1f1(a, b, w)
    want, _, want_ok = _asymp_1f1_unchunked(a, b, w.astype(np.longdouble))
    assert ok and want_ok
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("size", [0, 64, 5001])
@pytest.mark.parametrize("a, b", [(1.3, 1.0), (0.63, 0.5), (2.13, 2.0)])
def test_kummer_series_matches_the_forward_loop(a, b, size):
    w = _near_points(size)
    got, _, ok = oracles._kummer_1f1(a, b, w)
    want = _kummer_1f1_forward(a, b, w.astype(np.longdouble))
    assert ok
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("where", [0, 1234, -1])
def test_asymptotic_failure_raises_wherever_the_element_sits(where):
    # a = 20 converges for large w only: one small w fails its own bound
    w = _far_points(2501, low=1e5)
    assert oracles._asymp_1f1(20.0, 0.5, w)[2]
    w[where] = 50.5
    assert not oracles._asymp_1f1(20.0, 0.5, w)[2]
    with pytest.raises(NoConvergence):
        hyp1f1(20.0, 0.5, -w)


@pytest.mark.parametrize("call", [
    lambda z: hyp1f1(1.3, 1.0, z), lambda z: hyp1f1(0.63, 0.5, z),
    lambda z: hyp2f1(1.3, 0.63, 0.5, z), lambda z: hyp2f1(0.7, 1.8, 1.5, z),
], ids=["1f1-a", "1f1-b", "2f1-a", "2f1-b"])
def test_series_values_are_the_same_alone_and_in_a_shuffled_array(call):
    # a value depends on its own argument only, on either side of the hand-over
    z = -np.concatenate([_near_points(400), _far_points(400)])
    together = call(z).value
    for i in range(0, z.size, 7):
        assert np.array_equal(bits(call(z[i]).value), bits(together[i]))
    perm = np.random.default_rng(5).permutation(z.size)
    assert np.array_equal(bits(call(z[perm]).value), bits(together[perm]))


SEAM_CHECKS = ["kummer_bucket_seams", "asymptotic_bucket_seams", "pfaff_bucket_seams",
               "connection_bucket_seams"]


@pytest.mark.parametrize("name", SEAM_CHECKS)
def test_hyp_self_check_holds_each_branch_across_its_bucket_seams(name):
    checks = {c["name"]: c for c in oracles.self_checks("hyp")}
    assert checks[name]["tolerance"] == 1e-14
    assert checks[name]["pass"]


@pytest.mark.parametrize("const, value, name", [
    ("_SERIES_TOL", 1e-12, "kummer_bucket_seams"),
    ("_SERIES_TOL", 1e-12, "pfaff_bucket_seams"),
    ("_ASYMP_TINY", 1e-11, "asymptotic_bucket_seams"),
])
def test_bucket_seam_check_sees_a_series_stopped_early(monkeypatch, const, value, name):
    # a looser stopping rule leaves a truncation error that jumps at the seams
    monkeypatch.setattr(oracles, const, value)
    checks = {c["name"]: c for c in oracles.self_checks("hyp")}
    assert not checks[name]["pass"]


# ----------------------------------------------------------------------------
# hyp2f1
# ----------------------------------------------------------------------------


def test_2f1_at_origin_is_one():
    assert hyp2f1(1.5, 1.1, 0.5, 0.0).value == 1.0


def test_2f1_log_identity():
    # z * 2F1(1, 1; 2; -z) = log(1 + z)
    assert hyp2f1(1.0, 1.0, 2.0, -1.0).value == pytest.approx(math.log(2.0), rel=1e-13)


def test_2f1_equal_parameter_shortcuts():
    # b == c and a == c both collapse to a binomial
    assert hyp2f1(0.7, 1.3, 1.3, -3.0).value == pytest.approx(4.0**-0.7, rel=1e-15)
    assert hyp2f1(1.3, 0.7, 1.3, -3.0).value == pytest.approx(4.0**-0.7, rel=1e-15)


def test_2f1_moderate_argument_reference_values():
    assert hyp2f1(1.5, 1.1, 0.5, -9.0).value == pytest.approx(
        -0.07784416700297958398159, rel=1e-12
    )
    assert hyp2f1(1.3, 0.63, 0.5, -7.0).value == pytest.approx(
        -0.01088113069411508512328, rel=1e-12
    )


def test_2f1_far_argument_reference_value():
    assert hyp2f1(1.5, 1.0, 0.5, -1e4).value == pytest.approx(
        -0.000099970004999300089989, rel=1e-10
    )


@pytest.mark.parametrize("z", [-0.3, -0.7])
def test_2f1_agrees_with_direct_series(z):
    got = hyp2f1(1.5, 1.1, 0.5, z).value
    assert got == pytest.approx(brute_2f1(1.5, 1.1, 0.5, z), rel=1e-13)


def test_2f1_degenerate_connection_raises():
    # a - b an exact integer poisons the two-term large-argument formula
    with pytest.raises(NoConvergence):
        hyp2f1(1.3, 0.3, 0.5, -100.0)
    with pytest.raises(NoConvergence):
        hyp2f1(1.2, 1.2, 0.5, -1000.0)


def test_2f1_near_degenerate_still_evaluates():
    res = hyp2f1(1.3 + 1e-7, 0.3, 0.5, -100.0)
    assert math.isfinite(res.value)


def test_2f1_array_input_matches_scalars():
    z = np.array([0.0, -2.0, -80.0])
    res = hyp2f1(1.4, 0.8, 0.6, z)
    assert res.value.shape == z.shape
    for k in range(3):
        assert res.value[k] == pytest.approx(hyp2f1(1.4, 0.8, 0.6, z[k]).value, rel=1e-14)


def test_2f1_validates_parameters():
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, -1.0, -1.0)
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 2.0, 0.5)


@pytest.mark.parametrize("z", [float("nan"), np.array([-1.0, float("nan"), -80.0])])
def test_2f1_refuses_nan_argument_up_front(z):
    with pytest.raises(ValueError, match="not NaN"):
        hyp2f1(0.5, 0.7, 1.2, z)


@pytest.mark.parametrize("name", ["a", "b"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_2f1_refuses_non_finite_a_and_b(name, bad):
    params = {"a": 0.5, "b": 0.7}
    params[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        hyp2f1(params["a"], params["b"], 1.2, -1.0)


def test_2f1_keeps_its_limit_at_minus_infinity():
    assert hyp2f1(1.3, 0.63, 0.5, -math.inf).value == 0.0


@pytest.mark.parametrize("cap, call, name", [
    ("_MAX_TERMS_1F1", lambda z: hyp1f1(0.5, 1.5, z), "1F1(0.5, 1.5, z)"),
    ("_MAX_TERMS_2F1", lambda z: hyp2f1(1.3, 0.63, 0.5, z), "2F1(1.3, 0.63; 0.5; z)"),
], ids=["1f1", "2f1"])
def test_series_cap_raises_no_convergence_naming_the_function(monkeypatch, cap, call, name):
    # the near-branch Taylor series stops at its cap and reports the terms it summed
    monkeypatch.setattr(oracles, cap, 3)
    with pytest.raises(NoConvergence) as info:
        call(np.array([-0.5, -10.0]))
    assert str(info.value) == f"{name} failed its convergence bound within 3 terms"


# ----------------------------------------------------------------------------
# closed-form fractional Laplacian references
# ----------------------------------------------------------------------------


def test_gaussian_reference_at_origin():
    s, n = 0.37, 2
    want = 2.0**(2 * s) * gamma_fn(s + n / 2.0) / gamma_fn(n / 2.0)
    assert exact_fraclap_gaussian(s, n, 0.0) == pytest.approx(want, rel=1e-14)


def test_gaussian_reference_at_order_zero():
    # zero order leaves the field untouched
    assert exact_fraclap_gaussian(0.0, 3, 1.7) == pytest.approx(math.exp(-1.7), rel=1e-15)


def test_gaussian_reference_frozen_values():
    assert exact_fraclap_gaussian(0.13, 4, 0.5) == pytest.approx(
        0.7443860586999641380743, rel=1e-12
    )
    assert exact_fraclap_gaussian(0.13, 4, 7.3) == pytest.approx(
        -0.002719746035959996209296, rel=1e-12
    )
    assert exact_fraclap_gaussian(0.5, 1, 1.0) == pytest.approx(
        -0.08593624458727488433392, rel=1e-12
    )


def test_gaussian_reference_array_input():
    r2 = np.array([0.0, 0.5, 7.3])
    out = exact_fraclap_gaussian(0.13, 4, r2)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(exact_fraclap_gaussian(0.13, 4, 0.5), rel=1e-15)


def test_gaussian_reference_validation():
    with pytest.raises(ValueError):
        exact_fraclap_gaussian(1.0, 2, 0.5)
    with pytest.raises(ValueError):
        exact_fraclap_gaussian(-0.1, 2, 0.5)
    with pytest.raises(ValueError):
        exact_fraclap_gaussian(0.5, 0, 0.5)
    with pytest.raises(ValueError):
        exact_fraclap_gaussian(0.5, 2, -1.0)


def test_algebraic_reference_at_origin():
    s, r, n = 0.3, 2.0, 3
    want = 2.0**(2 * s) * gamma_fn(s + r) * gamma_fn(s + n / 2.0) / (
        gamma_fn(r) * gamma_fn(n / 2.0)
    )
    assert exact_fraclap_algebraic(s, r, n, 0.0) == pytest.approx(want, rel=1e-14)


def test_algebraic_reference_at_order_zero():
    assert exact_fraclap_algebraic(0.0, 1.5, 2, 3.0) == pytest.approx(4.0**-1.5, rel=1e-14)


def test_algebraic_reference_frozen_value():
    assert exact_fraclap_algebraic(0.3, 2.0, 3, 2.5) == pytest.approx(
        0.04436440172808817157337, rel=1e-12
    )


@pytest.mark.parametrize("r2", [0.0, 0.3, 1.0, 2.0, 50.0, 1e4])
def test_algebraic_reference_classical_half_order_identity(r2):
    """Half Laplacian of 1/(1+x^2) in 1-d has the elementary closed form
    (1 - x^2)/(1 + x^2)^2, an independent end-to-end check of the whole
    gamma/hypergeometric pipeline on both argument branches."""
    want = (1.0 - r2) / (1.0 + r2) ** 2
    assert exact_fraclap_algebraic(0.5, 1.0, 1, r2) == pytest.approx(want, abs=5e-15)


def test_algebraic_reference_degenerate_dimension_pair():
    # r == n/2 makes the large-argument connection formula degenerate; small
    # arguments stay on the convergent branch and still work
    assert math.isfinite(exact_fraclap_algebraic(0.3, 1.0, 2, 2.0))
    with pytest.raises(NoConvergence):
        exact_fraclap_algebraic(0.3, 1.0, 2, 100.0)


def test_algebraic_reference_validation():
    with pytest.raises(ValueError):
        exact_fraclap_algebraic(0.5, 0.0, 2, 1.0)
    with pytest.raises(ValueError):
        exact_fraclap_algebraic(0.5, -1.0, 2, 1.0)
    with pytest.raises(ValueError):
        exact_fraclap_algebraic(1.0, 1.0, 2, 1.0)


REFERENCES = {
    "gaussian": exact_fraclap_gaussian,
    "algebraic": lambda s, n, r2: exact_fraclap_algebraic(s, 1.3, n, r2),
}


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_references_refuse_nan_radius(name):
    for r2 in (float("nan"), [0.0, float("nan")]):
        with pytest.raises(ValueError, match="r2 must be nonnegative and not NaN"):
            REFERENCES[name](0.3, 1, r2)


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_references_vanish_at_infinite_radius(name):
    assert REFERENCES[name](0.3, 1, math.inf) == 0.0


@pytest.mark.parametrize("dims", [(9,), (10,), (16, 17), (17, 16), (5, 6, 7), (6, 6, 5)])
@pytest.mark.parametrize("s", [0.3, 0.6])
@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_references_on_a_grid_equal_an_unfoldable_evaluation_bitwise(name, s, dims):
    # the grid reaches past r2 = 50, so both series branches are covered
    r2 = radius_squared([make_grid(N, 2.0 + 0.5 * ax) for ax, N in enumerate(dims)])
    assert r2.max() > 50.0
    perm = np.random.default_rng(7).permutation(r2.size)
    shuffled = r2.ravel()[perm]
    assert not np.array_equal(shuffled, shuffled[::-1])
    want = np.empty(r2.size)
    want[perm] = REFERENCES[name](s, len(dims), shuffled)
    got = REFERENCES[name](s, len(dims), r2)
    assert got.shape == r2.shape
    assert np.array_equal(bits(got), bits(want.reshape(r2.shape)))


@pytest.mark.parametrize("name, target", [("gaussian", "hyp1f1"), ("algebraic", "hyp2f1")])
def test_references_evaluate_one_mirror_half_per_symmetric_axis(monkeypatch, name, target):
    shapes = []
    inner = getattr(oracles, target)

    def spy(*args):
        shapes.append(np.shape(args[-1]))
        return inner(*args)

    monkeypatch.setattr(oracles, target, spy)
    r2 = radius_squared([make_grid(16, 3.0), make_grid(17, 3.1)])
    REFERENCES[name](0.3, 2, r2)
    assert shapes == [(8, 9)]
    skewed = r2.copy()
    skewed[0, 0] += 1.0  # breaks the mirror symmetry of both axes
    REFERENCES[name](0.3, 2, skewed)
    assert shapes == [(8, 9), (16, 17)]


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_references_return_floats_for_scalar_and_0d_input(name):
    want = REFERENCES[name](0.3, 2, 0.7)
    assert type(want) is float
    for r2 in (np.float64(0.7), np.array(0.7)):
        got = REFERENCES[name](0.3, 2, r2)
        assert type(got) is float and got == want


@pytest.mark.parametrize("branch", ["_pfaff_2f1", "_connection_2f1"])
def test_hyp_self_check_runs_the_branches_of_hyp2f1(monkeypatch, branch):
    # a slip in either branch of hyp2f1 must show in the branch-overlap check
    inner = getattr(oracles, branch)

    def slipped(*args):
        value, k, ok = inner(*args)
        return value * (1.0 + 1e-6), k, ok

    before = hyp2f1(1.3, 0.63, 0.5, np.array([-10.0, -60.0])).value
    monkeypatch.setattr(oracles, branch, slipped)
    after = hyp2f1(1.3, 0.63, 0.5, np.array([-10.0, -60.0])).value
    assert np.count_nonzero(after != before) == 1
    checks = {c["name"]: c for c in oracles.self_checks("hyp")}
    assert checks["gauss_branch_overlap"]["max_deviation"] > 1e-7
    assert not checks["gauss_branch_overlap"]["pass"]


# ----------------------------------------------------------------------------
# integral identities
# ----------------------------------------------------------------------------


def test_resolvent_closed_forms():
    assert resolvent_integral_oracle(-1.0, 0.5).closed == pytest.approx(-math.pi, rel=1e-15)
    assert resolvent_integral_oracle(-4.0, 0.5).closed == pytest.approx(-2 * math.pi, rel=1e-15)


def test_resolvent_quadrature_matches_closed_form():
    chk = resolvent_integral_oracle(-2.0, 0.7)
    assert chk.numeric == pytest.approx(chk.closed, rel=1e-6)


def test_semigroup_closed_forms():
    two_sqrt_pi = 2.0 * math.sqrt(math.pi)
    assert semigroup_integral_oracle(-1.0, 0.5).closed == pytest.approx(-two_sqrt_pi, rel=1e-14)
    assert semigroup_integral_oracle(-4.0, 0.5).closed == pytest.approx(-2 * two_sqrt_pi, rel=1e-14)


def test_semigroup_quadrature_matches_closed_form():
    chk = semigroup_integral_oracle(-2.0, 0.7)
    assert chk.numeric == pytest.approx(chk.closed, rel=1e-6)


@pytest.mark.parametrize("mu", [-0.5, -1.0, -4.0])
@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
def test_integral_chain_identity(mu, s):
    # the two closed forms differ by exactly a factor Gamma(1 + s)
    res = resolvent_integral_oracle(mu, s).closed
    semi = semigroup_integral_oracle(mu, s).closed
    assert semi == pytest.approx(res / gamma_fn(1.0 + s), rel=1e-12)


def test_integral_oracles_validate_parameters():
    for bad in ((0.0, 0.5), (1.0, 0.5), (-1.0, 0.0), (-1.0, 1.0)):
        with pytest.raises(ValueError):
            resolvent_integral_oracle(*bad)
        with pytest.raises(ValueError):
            semigroup_integral_oracle(*bad)
