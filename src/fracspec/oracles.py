"""Closed-form references for validating the spectral operators.

Gaussian and algebraically decaying profiles have known images under the
fractional Laplacian in terms of confluent and Gauss hypergeometric
functions.  This module evaluates those references in double precision with
explicit convergence reporting, plus brute-force quadrature oracles for the
two scalar integral identities that underpin the operator construction:

    resolvent form:  integral_0^inf  mu * t**(s-1) / (t - mu) dt
                       = -pi / sin(pi*s) * (-mu)**s,
    semigroup form:  integral_0^inf  (exp(mu*t) - 1) / t**(1+s) dt
                       = Gamma(-s) * (-mu)**s,

both for mu < 0 and 0 < s < 1.

Series evaluation strategy.  For the confluent function with z <= 0 the
direct Taylor series alternates destructively, so the Kummer transform
1F1(a;b;z) = e^z 1F1(b-a;b;-z) is summed instead (single-signed tail).
Beyond -z = 50 the series is abandoned for the large-argument expansion
Gamma(b)/Gamma(b-a) * (-z)**-a * sum_k (a)_k (a-b+1)_k / (k! (-z)**k),
truncated at its smallest term (DLMF 13.7).  The Gauss function uses the
Pfaff transform onto z/(z-1) in [0, 1); beyond -z = 50 that argument is too
close to 1 and the standard two-term large-argument connection takes over,
which requires a - b away from integers.

All four series run through one evaluator, ``_series``.  It buckets the
elements by the binary exponent of their own argument (of -z, or of 1 - z
for the Pfaff series), runs the term recurrence and stopping rule once per
bucket in scalar arithmetic at the bucket's slowest edge, and sums every
element by Horner's rule in its argument scaled to that edge: two array
passes per term (Knuth, TAOCP vol. 2, 4.6.4).  Each element is then held to
its own bound, and a value depends on its own argument alone, so it has the
same bits alone as in any array.

Both closed-form references evaluate their hypergeometric once per mirror
orbit, under ``on_mirror_half``: along every axis where the squared-radius
tensor equals its own reflection only the top ceil(N/2) slice is evaluated
and the bottom one is copied from it.  The slice holds every value of the
tensor, so the series run as long as on the full tensor and every value is
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .checks import checked_dimension, checked_finite, checked_order, checked_positive
from .errors import NoConvergence, PoleError, QuadratureError
from .tensor_ops import on_mirror_half

# a Taylor series converges when its tail is below this fraction of the
# partial sum
_SERIES_TOL = 1e-15
# relative error estimate an asymptotic tail must reach
_ASYMP_TOL = 1e-10
# asymptotic terms below this fraction of the partial sum are left out
_ASYMP_TINY = 1e-17
# where the Kummer / Pfaff series hand over to large-argument expansions
_BIG_Z = 50.0
_MAX_TERMS_1F1 = 2000
_MAX_TERMS_2F1 = 40000
_MAX_TERMS_ASYMP = 200
_MAX_TERMS_CONNECTION = 400
# series elements bucket on the binary exponent of their own argument,
# clipped to this range so that a sort key fits in one byte
_KEY_MIN, _KEY_MAX = -100, 120
_POLE_TOL = 1e-12
# connection formula breaks down when a - b approaches an integer
_DEGENERATE_TOL = 1e-8


@dataclass(frozen=True)
class HypergeometricResult:
    """Value of a hypergeometric evaluation plus how it converged.

    ``value`` is a float for scalar input and an ndarray for array input.
    ``terms_used`` is the longest series length any element needed and
    ``converged`` reports whether every element met its bound.
    """

    value: float | np.ndarray
    terms_used: int
    converged: bool


class IntegralCheck(NamedTuple):
    """Quadrature value next to the closed form it should reproduce."""

    numeric: float
    closed: float


def gamma_fn(x: float) -> float:
    """Gamma function for real x, at least 13 significant digits on [-10, 30].

    Raises PoleError when x is within 1e-12 of a nonpositive integer.
    """
    x = checked_finite("x", x)
    nearest = round(x)
    if nearest <= 0 and abs(x - nearest) <= _POLE_TOL:
        raise PoleError(f"gamma pole at nonpositive integer, x = {x!r}")
    return math.gamma(x)


def _rgamma(x: float) -> float:
    """1/Gamma(x), zero at the poles."""
    nearest = round(x)
    if nearest <= 0 and x == nearest:
        return 0.0
    return 1.0 / math.gamma(x)


def _series(coefs, x: np.ndarray, t: np.ndarray, edge, cap: int,
            asymptotic: bool = False) -> tuple[list[np.ndarray], int, bool]:
    """Sum each series sum_k c_k x**k of ``coefs``, c_0 = 1 and c_{k+1} = c_k * coef(k), on x.

    An element's bucket is the binary exponent e of its own t >= 0, t in
    [2**(e-1), 2**e), and ``edge(e)`` is the series variable x* at the
    bucket's slowest edge.  A bucket runs the term recurrence
    T_k = c_k x***k and its stopping rule once, in scalar arithmetic, and
    sums each element by Horner's rule in u = x/x*: two array passes per
    term.  Each element is then held to its own bound, its first omitted
    term T_K u**K against _SERIES_TOL (or _ASYMP_TOL) of its own sum, and
    summed again with twice the terms, up to ``cap``, while it misses it.
    So a value depends on its own argument alone.  Returns one sum per
    coef, the most terms summed, and whether every element met its bound.
    """
    keys = (np.clip(np.frexp(t)[1], _KEY_MIN, _KEY_MAX) - _KEY_MIN).astype(np.uint8)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    cuts = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), x.size]
    sums = [np.empty_like(x) for _ in coefs]
    used, ok = 1, True
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        xs = edge(int(ordered[lo]) + _KEY_MIN)
        u = x[order[lo:hi]] / xs
        for coef, out in zip(coefs, sums):
            K, met = _bucket_sum(coef, xs, u, out, order[lo:hi], cap, asymptotic)
            used, ok = max(used, K), ok and met
    return sums, used, ok


def _bucket_sum(coef, xs: float, u: np.ndarray, out: np.ndarray, sel: np.ndarray, cap: int,
                asymptotic: bool) -> tuple[int, bool]:
    # out[sel] = sum_{k<K} T_k u**k, K the edge's term count, doubled for the
    # elements that miss their bound; returns the last K and whether all met it
    tol = _ASYMP_TOL if asymptotic else _SERIES_TOL
    terms = _edge_terms(coef, xs, cap, asymptotic)
    K = len(terms) - 1
    while True:
        total = np.full_like(u, terms[K - 1])
        for k in range(K - 2, -1, -1):
            total *= u
            total += terms[k]
        out[sel] = total
        # the first omitted term T_K u**K is at most |T_K| where u <= 1
        first = abs(terms[K])
        check = np.flatnonzero(np.abs(total) * tol < first) if u.max() <= 1.0 else np.arange(u.size)
        miss = check[first * u[check] ** K > tol * np.abs(total[check])]
        if not miss.size or K == cap:
            return K, not miss.size
        K = min(2 * K, cap)
        while len(terms) <= K:
            terms.append(terms[-1] * coef(len(terms) - 1) * xs)
        sel, u = sel[miss], u[miss]


def _edge_terms(coef, xs: float, cap: int, asymptotic: bool) -> list[float]:
    # T_0 .. T_K at the edge, T_K the first term left out of the sum: the
    # first that grows in an asymptotic series, else the one after the first
    # whose tail (below _ASYMP_TINY, or geometric in its ratio r to the term
    # before and below _SERIES_TOL) is negligible beside the sum it joins
    terms, total = [1.0], 1.0
    while len(terms) < cap:
        term, last = terms[-1] * coef(len(terms) - 1) * xs, abs(terms[-1])
        terms.append(term)
        if asymptotic and abs(term) >= last:
            return terms
        total += term
        ratio = abs(term) / last if last else 0.0
        if abs(term) <= (_ASYMP_TINY if asymptotic else _SERIES_TOL * (1.0 - ratio)) * abs(total):
            break
    terms.append(terms[-1] * coef(len(terms) - 1) * xs)
    return terms


def _kummer_1f1(a: float, b: float, w: np.ndarray) -> tuple[np.ndarray, int, bool]:
    # e**-w 1F1(b - a; b; w), each term of the series single-signed; a bucket's
    # edge is the top of its octave of w, at most _BIG_Z
    c = b - a
    (total,), used, ok = _series([lambda k: (c + k) / ((b + k) * (k + 1.0))], w, w,
                                 lambda e: min(2.0 ** e, _BIG_Z), _MAX_TERMS_1F1)
    return np.exp(-w) * total, used, ok


def _asymp_1f1(a: float, b: float, w: np.ndarray) -> tuple[np.ndarray, int, bool]:
    # Gamma(b)/Gamma(b-a) * w**-a * sum_k (a)_k (a-b+1)_k / (k! w**k), a series
    # in 1/w; a bucket's edge is the bottom of its octave of w, at least _BIG_Z
    coeff = math.gamma(b) * _rgamma(b - a)
    (total,), used, ok = _series([lambda k: (a + k) * (a - b + 1.0 + k) / (k + 1.0)], 1.0 / w, w,
                                 lambda e: 1.0 / max(2.0 ** (e - 1), _BIG_Z), _MAX_TERMS_ASYMP,
                                 asymptotic=True)
    return coeff * w ** (-a) * total, used, ok


def _hypergeometric(name: str, z, closed, near, far) -> HypergeometricResult:
    """Evaluate on z by the closed form ``closed`` if given, else ``near`` on -50 <= z and ``far`` below.

    Each branch returns (values, terms used, converged); NoConvergence names ``name``.
    """
    z_in = _checked_argument(z)
    zf = np.atleast_1d(z_in).ravel()
    used = 1
    if closed is not None:
        value = closed(zf)
    else:
        value = np.empty_like(zf)
        split = zf >= -_BIG_Z
        converged = True
        for branch, where in ((near, split), (far, ~split)):
            if where.any():
                value[where], k, ok = branch(zf[where])
                used = max(used, k)
                converged &= ok
        if not converged:
            raise NoConvergence(f"{name} failed its convergence bound within {used} terms")
    out = float(value[0]) if z_in.ndim == 0 else value.reshape(z_in.shape)
    return HypergeometricResult(out, used, True)


def hyp1f1(a: float, b: float, z: float | np.ndarray) -> HypergeometricResult:
    """Confluent hypergeometric 1F1(a; b; z) for b > 0 and z <= 0.

    z may be a scalar or an ndarray.  Raises ValueError for a NaN z or a
    non-finite a, and NoConvergence if any element fails its convergence
    bound.
    """
    a = checked_finite("a", a)
    b = checked_positive("b", float(b))
    # 1F1(a; a; z) is exp(z) exactly
    return _hypergeometric(f"1F1({a}, {b}, z)", z, np.exp if a == b else None,
                           lambda x: _kummer_1f1(a, b, -x), lambda x: _asymp_1f1(a, b, -x))


def _gauss_coef(a: float, b: float, c: float):
    # term ratio over x of 2F1(a, b; c; x)
    return lambda k: (a + k) * (b + k) / ((c + k) * (k + 1.0))


def hyp2f1(a: float, b: float, c: float, z: float | np.ndarray) -> HypergeometricResult:
    """Gauss hypergeometric 2F1(a, b; c; z) for c > 0 and z <= 0.

    z may be a scalar or an ndarray.  Large negative arguments use the
    two-term connection formula, which needs a - b away from integers;
    violations raise NoConvergence.  A NaN z or a non-finite a or b raises
    ValueError.
    """
    a = checked_finite("a", a)
    b = checked_finite("b", b)
    c = checked_positive("c", float(c))
    # 2F1(a, c; c; z) is (1 - z)**-a, and 2F1(c, b; c; z) is (1 - z)**-b
    power = -a if b == c else -b if a == c else None
    return _hypergeometric(f"2F1({a}, {b}; {c}; z)", z,
                           None if power is None else lambda x: (1.0 - x) ** power,
                           lambda x: _pfaff_2f1(a, b, c, x), lambda x: _connection_2f1(a, b, c, x))


def _pfaff_2f1(a: float, b: float, c: float, z: np.ndarray) -> tuple[np.ndarray, int, bool]:
    # (1 - z)**-a 2F1(a, c - b; c; z/(z - 1)), the series argument in [0, 1);
    # a bucket's edge is the top of its octave of 1 - z, at most 1 + _BIG_Z,
    # so no edge lands on the singularity at z/(z - 1) = 1
    def edge(e):
        z_edge = 1.0 - min(2.0 ** e, 1.0 + _BIG_Z)
        return z_edge / (z_edge - 1.0)

    t = 1.0 - z
    (total,), used, ok = _series([_gauss_coef(a, c - b, c)], -z / t, t, edge, _MAX_TERMS_2F1)
    return t ** (-a) * total, used, ok


def _connection_2f1(a: float, b: float, c: float, z: np.ndarray) -> tuple[np.ndarray, int, bool]:
    # two-term large-argument connection formula, two series in 1/z that
    # share their buckets: the bottom of each octave of -z, at least _BIG_Z
    diff = a - b
    if abs(diff - round(diff)) <= _DEGENERATE_TOL:
        raise NoConvergence(
            f"a - b = {diff!r} is within {_DEGENERATE_TOL:g} of an integer; "
            "the large-argument connection formula is degenerate"
        )
    w = -z
    c1 = math.gamma(c) * math.gamma(b - a) * _rgamma(b) * _rgamma(c - a)
    c2 = math.gamma(c) * math.gamma(a - b) * _rgamma(a) * _rgamma(c - b)
    (s1, s2), used, ok = _series(
        [_gauss_coef(a, a - c + 1.0, a - b + 1.0), _gauss_coef(b, b - c + 1.0, b - a + 1.0)],
        1.0 / z, w, lambda e: -1.0 / max(2.0 ** (e - 1), _BIG_Z), _MAX_TERMS_CONNECTION)
    return c1 * w ** (-a) * s1 + c2 * w ** (-b) * s2, used, ok


def exact_fraclap_gaussian(s: float, n: int, r2: float | np.ndarray) -> float | np.ndarray:
    """Fractional Laplacian of order s of exp(-|x|^2) in n dimensions.

    Evaluated at squared radius r2:

        2**(2s) * Gamma(s + n/2) / Gamma(n/2) * 1F1(s + n/2; n/2; -r2).
    """
    s, n = _checked_order(s, n)
    r2 = _checked_radius(r2)
    pref = 2.0 ** (2.0 * s) * math.gamma(s + 0.5 * n) / math.gamma(0.5 * n)
    return on_mirror_half(lambda z, _: pref * hyp1f1(s + 0.5 * n, 0.5 * n, -z).value, r2)


def exact_fraclap_algebraic(s: float, r: float, n: int, r2: float | np.ndarray) -> float | np.ndarray:
    """Fractional Laplacian of order s of (1 + |x|^2)**-r in n dimensions.

        2**(2s) * Gamma(s+r) Gamma(s+n/2) / (Gamma(r) Gamma(n/2))
            * 2F1(s+r, s+n/2; n/2; -r2).
    """
    s, n = _checked_order(s, n)
    r = checked_positive("r", float(r))
    r2 = _checked_radius(r2)
    pref = (
        2.0 ** (2.0 * s)
        * math.gamma(s + r)
        * math.gamma(s + 0.5 * n)
        / (math.gamma(r) * math.gamma(0.5 * n))
    )
    return on_mirror_half(lambda z, _: pref * hyp2f1(s + r, s + 0.5 * n, 0.5 * n, -z).value, r2)


def _checked_argument(z) -> np.ndarray:
    # np.max propagates NaN, which fails the test
    z = np.asarray(z, dtype=float)
    if z.size and not float(np.max(z)) <= 0:
        raise ValueError("z must be nonpositive and not NaN")
    return z


def _checked_order(s: float, n: int) -> tuple[float, int]:
    s = float(s)
    if not 0.0 <= s < 1.0:
        raise ValueError(f"s must lie in [0, 1), got {s!r}")
    return s, checked_dimension(n)


def _checked_radius(r2):
    r2 = np.asarray(r2, dtype=float)
    if r2.size and not float(np.min(r2)) >= 0:
        raise ValueError("r2 must be nonnegative and not NaN")
    return float(r2) if r2.ndim == 0 else r2


def _checked_mu_s(mu: float, s: float) -> tuple[float, float]:
    mu = float(mu)
    if not mu < 0:
        raise ValueError(f"mu must be negative, got {mu!r}")
    return mu, checked_order(s)


def _graded_edges(levels: int, panels: int) -> np.ndarray:
    # panel edges on (0, 1/4], dyadically refined toward 0
    blocks = [
        np.linspace(0.25 * 2.0 ** -(m + 1), 0.25 * 2.0**-m, panels + 1)
        for m in range(levels)
    ]
    return np.unique(np.concatenate(blocks))


def _midpoint_sum(f, edges: np.ndarray) -> float:
    mids = 0.5 * (edges[1:] + edges[:-1])
    return float(np.sum(f(mids) * np.diff(edges)))


def _resolvent_quad(mu: float, s: float, levels: int, panels: int) -> float:
    # integral over t in (0, inf) via x = t/(1+t); the piece near x = 1 is
    # evaluated in the variable y = 1 - x so the grading survives rounding
    def f(t):
        return mu * t ** (s - 1.0) / (t - mu)

    graded = _graded_edges(levels, panels)
    left = _midpoint_sum(lambda x: f(x / (1.0 - x)) / (1.0 - x) ** 2, graded)
    middle_edges = np.linspace(0.25, 0.75, 4 * panels + 1)
    middle = _midpoint_sum(lambda x: f(x / (1.0 - x)) / (1.0 - x) ** 2, middle_edges)
    right = _midpoint_sum(lambda y: f((1.0 - y) / y) / y**2, graded)
    return left + middle + right


def resolvent_integral_oracle(mu: float, s: float) -> IntegralCheck:
    """Brute-force check of the resolvent-power integral identity.

    Returns the midpoint-quadrature value of
    integral_0^inf mu * t**(s-1) / (t - mu) dt next to the closed form
    -pi / sin(pi*s) * (-mu)**s.  The substitution t = x/(1-x) maps the path
    to (0, 1); panels are dyadically refined toward both endpoints, where
    the integrand has integrable algebraic singularities.
    """
    mu, s = _checked_mu_s(mu, s)
    coarse = _resolvent_quad(mu, s, levels=320, panels=512)
    fine = _resolvent_quad(mu, s, levels=320, panels=1024)
    if abs(fine - coarse) > 5e-7 * abs(fine):
        raise QuadratureError(
            f"resolvent quadrature self-check failed: {coarse!r} vs {fine!r}"
        )
    closed = -math.pi / math.sin(math.pi * s) * (-mu) ** s
    return IntegralCheck(numeric=fine, closed=closed)


def _semigroup_tail(mu: float, s: float, panels: int) -> float:
    # integral_1^inf exp(mu t) t**(-1-s) dt, truncated where exp(mu t) dies
    span = 60.0 / abs(mu)
    h = span / panels
    t = 1.0 + (np.arange(panels) + 0.5) * h
    return float(np.sum(np.exp(mu * t) * t ** (-1.0 - s)) * h)


def semigroup_integral_oracle(mu: float, s: float) -> IntegralCheck:
    """Brute-force check of the semigroup-difference integral identity.

    Returns the quadrature value of
    integral_0^inf (exp(mu t) - 1) / t**(1+s) dt next to the closed form
    Gamma(-s) * (-mu)**s.  The integral is split at t = 1: on (0, 1] the
    exponential is expanded termwise (the t -> 0 singularity integrates
    exactly against each power), on [1, inf) the -1 part integrates in
    closed form and the remainder falls to midpoint quadrature.
    """
    mu, s = _checked_mu_s(mu, s)
    head = 0.0
    term = 1.0
    for k in range(1, 400):
        term *= mu / k
        head += term / (k - s)
        if abs(term / (k - s)) <= 1e-18 * max(abs(head), 1e-300):
            break
    else:
        raise QuadratureError("series for the (0,1] piece did not converge")
    coarse = _semigroup_tail(mu, s, panels=400_000)
    fine = _semigroup_tail(mu, s, panels=800_000)
    scale = abs(head) + abs(fine) + 1.0 / s
    if abs(fine - coarse) > 1e-7 * scale:
        raise QuadratureError(
            f"semigroup tail quadrature self-check failed: {coarse!r} vs {fine!r}"
        )
    numeric = head + fine - 1.0 / s
    closed = math.gamma(-s) * (-mu) ** s
    return IntegralCheck(numeric=numeric, closed=closed)


def _lemma_checks() -> list[dict]:
    mus = (-0.5, -1.0, -4.0)
    ss = (0.2, 0.5, 0.8)
    worst_res = worst_semi = worst_chain = 0.0
    for mu in mus:
        for s in ss:
            r1 = resolvent_integral_oracle(mu, s)
            r2 = semigroup_integral_oracle(mu, s)
            worst_res = max(worst_res, abs(r1.numeric - r1.closed) / abs(r1.closed))
            worst_semi = max(worst_semi, abs(r2.numeric - r2.closed) / abs(r2.closed))
            chain = abs(r2.closed - r1.closed / gamma_fn(1.0 + s)) / abs(r2.closed)
            worst_chain = max(worst_chain, chain)
    return [
        {"name": "resolvent_quadrature", "max_deviation": worst_res, "tolerance": 1e-6},
        {"name": "semigroup_quadrature", "max_deviation": worst_semi, "tolerance": 1e-6},
        {"name": "power_chain_identity", "max_deviation": worst_chain, "tolerance": 1e-12},
    ]


# parameters of the branch-overlap and bucket-seam self checks
_CHECK_1F1 = ((0.63, 0.5), (2.13, 2.0), (1.2, 1.5))
_CHECK_2F1 = ((1.3, 0.63, 0.5), (0.7, 1.8, 1.5))


def _gap(f, g, params) -> float:
    # the largest relative gap |f - g| / |g| of two branch evaluations
    worst = 0.0
    for p in params:
        near, far = f(*p)[0], g(*p)[0]
        worst = max(worst, float(np.max(np.abs(near - far) / np.abs(far))))
    return worst


def _hyp_checks() -> list[dict]:
    # both branches of each function at the same points, each forced onto every point
    w = np.linspace(45.0, 55.0, 41)
    worst_1f1 = _gap(lambda *p: _kummer_1f1(*p, w), lambda *p: _asymp_1f1(*p, w), _CHECK_1F1)
    worst_2f1 = _gap(lambda *p: _pfaff_2f1(*p, -w), lambda *p: _connection_2f1(*p, -w), _CHECK_2F1)
    r2 = np.array([0.0, 0.4, 3.0, 90.0, 1e5])
    zero_g = float(np.max(np.abs(exact_fraclap_gaussian(0.0, 3, r2) - np.exp(-r2))))
    zero_a = float(
        np.max(
            np.abs(exact_fraclap_algebraic(0.0, 1.3, 2, r2) - (1.0 + r2) ** -1.3)
            / (1.0 + r2) ** -1.3
        )
    )
    return [
        {"name": "confluent_branch_overlap", "max_deviation": worst_1f1, "tolerance": 1e-9},
        {"name": "gauss_branch_overlap", "max_deviation": worst_2f1, "tolerance": 1e-9},
        {"name": "order_zero_gaussian", "max_deviation": zero_g, "tolerance": 1e-12},
        {"name": "order_zero_algebraic", "max_deviation": zero_a, "tolerance": 1e-12},
        *_seam_checks(),
    ]


def _seam_checks() -> list[dict]:
    # each series branch just below and at every power of two 2**k where two
    # of its buckets meet, in the quantity t whose octaves the buckets are
    checks = []
    for name, powers, branch, params in [
        ("kummer_bucket_seams", (_KEY_MIN, 6), lambda t, *p: _kummer_1f1(*p, t), _CHECK_1F1),
        ("asymptotic_bucket_seams", (6, _KEY_MAX), lambda t, *p: _asymp_1f1(*p, t), _CHECK_1F1),
        ("pfaff_bucket_seams", (1, 6), lambda t, *p: _pfaff_2f1(*p, 1.0 - t), _CHECK_2F1),
        ("connection_bucket_seams", (6, _KEY_MAX), lambda t, *p: _connection_2f1(*p, -t), _CHECK_2F1),
    ]:
        at = 2.0 ** np.arange(*powers, dtype=float)
        gap = _gap(lambda *p: branch(at * (1.0 - 2.0**-52), *p), lambda *p: branch(at, *p), params)
        checks.append({"name": name, "max_deviation": gap, "tolerance": 1e-14})
    return checks


def _gamma_checks() -> list[dict]:
    worst = 0.0
    fact = 1.0
    for k in range(1, 21):
        worst = max(worst, abs(gamma_fn(float(k)) - fact) / fact)
        fact *= k
    root_pi = math.sqrt(math.pi)
    half_values = {
        0.5: root_pi,
        1.5: root_pi / 2.0,
        2.5: 3.0 * root_pi / 4.0,
        -0.5: -2.0 * root_pi,
        -1.5: 4.0 * root_pi / 3.0,
        -2.5: -8.0 * root_pi / 15.0,
    }
    worst_half = max(
        abs(gamma_fn(x) - v) / abs(v) for x, v in half_values.items()
    )
    poles_ok = True
    for x in (0.0, -1.0, -7.0):
        try:
            gamma_fn(x)
            poles_ok = False
        except PoleError:
            pass
    return [
        {"name": "integer_factorials", "max_deviation": worst, "tolerance": 1e-13},
        {"name": "half_integer_values", "max_deviation": worst_half, "tolerance": 1e-13},
        {"name": "pole_detection", "max_deviation": 0.0 if poles_ok else 1.0, "tolerance": 0.5},
    ]


_SUITES = {"lemmas": _lemma_checks, "hyp": _hyp_checks, "gamma": _gamma_checks}


def self_checks(suite: str) -> list[dict]:
    """Run one self-check suite of the oracles: "lemmas", "hyp" or "gamma".

    "lemmas" checks the two integral identities and the Gamma(1 + s) chain
    between them, "hyp" the hand-over between series and large-argument
    branches and the order-zero limits, "gamma" known Gamma values and
    poles.  Each check is a dict with ``name``, ``max_deviation``,
    ``tolerance`` and ``pass`` (deviation within tolerance).
    """
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {sorted(_SUITES)}")
    checks = _SUITES[suite]()
    for check in checks:
        check["pass"] = bool(check["max_deviation"] <= check["tolerance"])
    return checks
