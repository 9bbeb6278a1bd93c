"""Fractional p-Laplacian: odd powers, scaling constant, route agreement.

Reference constants were computed once at 40 digits and frozen as literals.
"""

import dataclasses
import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from fracspec import (
    EvolutionConfig,
    PoleError,
    SpectralFactor,
    apply_fraclap,
    apply_plap,
    apply_plap_pointwise,
    build_axis_factors,
    build_fraclap,
    build_fracplap,
    gaussian_field,
    make_grid,
    plap_constant,
    run_evolution,
    signed_power,
)
from fracspec.fracplap import (
    _kernel_rows,
    apply_folded,
    folded_kernel,
    grid_orbits,
    invariant_orbits,
)
from fracspec.tensor_ops import mode_product
from toys import toy_factor


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


@pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
def test_non_finite_exponent_is_refused(p):
    # inf passes p >= 1, so it has its own check
    with pytest.raises(ValueError, match="p must be finite"):
        signed_power([0.5, 2.0], p)
    with pytest.raises(ValueError, match="p must be finite"):
        plap_constant(1, 0.5, p)


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
    # the even mode is the kernel, the odd one has eigenvalue -4
    op = build_fracplap([toy_factor([0.0, -4.0])], [1.0], 0.5, 2.0)
    # order s*p/2 = 0.5, so (-(-4))**0.5 = 2
    assert np.array_equal(op.pow_tensor, np.array([0.0, 2.0]))
    assert op.c_const == pytest.approx(-1.0, abs=1e-14)


@pytest.mark.parametrize("dims,scales,s,p", [
    ((9,), (2.0,), 0.5, 1.8),
    ((6, 7), (1.5, 2.5), 0.8, 1.2),
    ((5, 5), (3.0, 3.0), 0.3, 3.0),
])
def test_linear_part_is_the_fraclap_of_order_half_sp(dims, scales, s, p):
    factors = build_axis_factors(dims)
    op = build_fracplap(factors, scales, s, p)
    lin = build_fraclap(factors, scales, 0.5 * s * p)
    assert op.order == 0.5 * s * p and lin.order == 0.5 * s * p
    assert op.shape == lin.shape == dims
    assert np.array_equal(op.pow_even, lin.pow_even)
    assert np.array_equal(op.pow_tensor, lin.pow_tensor)
    U = np.random.default_rng(len(dims)).standard_normal(dims)
    assert np.array_equal(apply_fraclap(op, U), apply_fraclap(lin, U))
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.p = 2.0


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
    got = apply_plap_pointwise(nonlin, U)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_quadratic_case_reduces_to_linear_operator_2d():
    dims, scales, s = (5, 6), (1.5, 2.0), 0.66
    factors = build_axis_factors(dims)
    lin = build_fraclap(factors, scales, s)
    nonlin = build_fracplap(factors, scales, s, 2.0)
    U = np.random.default_rng(4).standard_normal(dims)
    want = apply_fraclap(lin, U)
    got = apply_plap(nonlin, U)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("dims,scales,s,p,field", [
    ((9,), (2.0,), 0.3, 1.6, "random"),
    ((16,), (3.7,), 0.8, 2.2, "random"),
    ((5, 6), (1.0, 1.3), 0.5, 1.4, "random"),
    ((4, 3, 5), (1.0, 2.0, 1.5), 0.25, 2.0, "random"),
    # invariant fields take the folded route
    *[(dims, scales, 0.5, p, "gaussian")
      for dims, scales in [((9,), (2.0,)), ((16,), (3.7,)), ((5, 6), (1.0, 1.3)),
                           ((4, 3, 5), (1.0, 2.0, 1.5)), ((11, 11), (2.0, 2.0)),
                           ((12, 12), (3.0, 3.0))]
      for p in (1.6, 2.0, 2.2)],
    # swap-symmetric, but the scales differ: the swap is no symmetry of the operator
    ((11, 11), (2.0, 2.5), 0.5, 1.7, "mirror+swap"),
])
def test_pointwise_and_batched_routes_agree(dims, scales, s, p, field):
    factors = build_axis_factors(dims)
    op = build_fracplap(factors, scales, s, p)
    U = np.random.default_rng(5).standard_normal(dims)
    if field == "gaussian":
        U = gaussian_field([make_grid(N, L) for N, L in zip(dims, scales)])
    elif field == "mirror+swap":
        U = symmetrized(U, field)
        assert invariant_orbits(U, scales)[0].group == "mirror"
    a = apply_plap_pointwise(op, U)
    b = apply_plap(op, U)
    assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(a)))
    # the output is exactly invariant under the group the apply folded onto
    assert invariant_orbits(b, scales)[0].group == invariant_orbits(U, scales)[0].group


def test_constant_field_maps_to_exact_zero():
    op = build_fracplap(build_axis_factors((12,)), (2.0,), 0.5, 1.7)
    out = apply_plap_pointwise(op, np.full(12, 4.2))
    assert np.array_equal(out, np.zeros(12))
    assert np.array_equal(apply_plap(op, np.full(12, 4.2)), np.zeros(12))


def test_apply_plap_keeps_no_kernel_on_the_operator():
    dims = (6, 7)
    op = build_fracplap(build_axis_factors(dims), (2.0, 2.0), 0.6, 1.8)
    U = np.random.default_rng(6).standard_normal(dims)
    first = apply_plap(op, U)
    # nothing M x M stays behind, and a second call rebuilds the same bits
    held = [v.size for v in vars(op).values() if isinstance(v, np.ndarray)]
    assert max(held) < math.prod(dims) ** 2
    assert np.array_equal(apply_plap(op, U), first)


@pytest.mark.parametrize("dims, scales", [
    ((9,), (2.0,)), ((9, 8), (2.0, 2.5)), ((9, 9), (2.0, 2.0)), ((9, 9, 9), (2.0, 2.0, 2.0)),
])
def test_mirror_folded_kernels_never_build_the_full_power_tensor(dims, scales):
    op = build_fracplap(build_axis_factors(dims), scales, 0.5, 1.7)
    U = gaussian_field([make_grid(N, L) for N, L in zip(dims, scales)])
    apply_plap(op, U)
    folded_kernel(op, grid_orbits(dims, "mirror"))
    assert "pow_tensor" not in op.__dict__
    # the trivial group is the one p-Laplacian reader of the full tensor
    folded_kernel(op, grid_orbits(dims, "none"))
    assert "pow_tensor" in op.__dict__


def test_evolution_never_builds_the_full_power_tensor(monkeypatch):
    import fracspec.evolution

    ops = []

    def recording(*args):
        ops.append(build_fracplap(*args))
        return ops[-1]

    monkeypatch.setattr(fracspec.evolution, "build_fracplap", recording)
    for n in (1, 2):
        cfg = EvolutionConfig(n=n, s=0.6, p=1.8, N=9, L=2.0, dt=0.01, t_end=0.02, snapshot_times=(0.02,))
        run_evolution(cfg, gaussian_field([make_grid(9, 2.0)] * n))
    assert len(ops) == 2
    assert all("pow_tensor" not in op.__dict__ for op in ops)


def unpacked(K):
    """The symmetric R x R kernel of a circulant packing K[O, j] = B[O, (O+1+j) mod R], 0 on the diagonal."""
    r, h = K.shape
    B = np.zeros((r, r))
    O = np.arange(r)[:, None]
    B[O, (O + 1 + np.arange(h)) % r] = K
    # each pair sits on one side of the diagonal; for an even R the antipodal one's other side is 0
    return B + B.T


def assert_symmetric_packing(K, op, orbits):
    """K packs B, which is symmetric to rounding: each stored entry is B[O, O'] or B[O', O]."""
    r = len(orbits.reps)
    assert K.shape == (r, r // 2)
    B = _kernel_rows(op, orbits, 0, r, np.empty((r, r)))
    off = ~np.eye(r, dtype=bool)
    assert np.max(np.abs(unpacked(K) - B)[off], initial=0.0) <= 1e-15 * np.max(np.abs(B))


def test_kernel_is_read_only_and_symmetric():
    op = build_fracplap(build_axis_factors((7,)), (2.0,), 0.5, 1.5)
    orbits = grid_orbits((7,), "none")
    K = folded_kernel(op, orbits)
    assert_symmetric_packing(K, op, orbits)
    with pytest.raises(ValueError):
        K[0, 0] = 1.0


def traced_peak(f, *args):
    """The tracemalloc peak, in bytes, of one call ``f(*args)``."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_build_holds_one_kernel_at_n_2():
    dims = (50, 51)
    op = build_fracplap(build_axis_factors(dims), (3.0, 3.0), 0.8, 1.7)
    orbits = grid_orbits(dims, "none")
    # the packed kernel and a few 64-row blocks of full rows
    block = 8 * 64 * math.prod(dims)
    assert traced_peak(folded_kernel, op, orbits) <= 1.1 * orbits.kernel_bytes + 4 * block


def test_apply_plap_never_holds_the_kernel():
    # every block's rows are built and dropped: a few blocks, not 8 * M**2 bytes
    dims = (50, 51)
    op = build_fracplap(build_axis_factors(dims), (3.0, 3.0), 0.8, 1.7)
    U = np.random.default_rng(6).standard_normal(dims)
    assert traced_peak(apply_plap, op, U) <= 8 * math.prod(dims) ** 2 / 5


def test_contractions_run_at_half_size_without_dense_factors(monkeypatch):
    sides = []

    def counted(A, U, axis, out=None):
        assert A.shape == (U.shape[axis], U.shape[axis])
        sides.append(len(A))
        return mode_product(A, U, axis, out=out)

    def dense(self):
        raise AssertionError("a dense factor matrix was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("fracspec") and getattr(module, "mode_product", None) is mode_product:
            monkeypatch.setattr(module, "mode_product", counted)
    monkeypatch.setattr(SpectralFactor, "P", property(dense))
    monkeypatch.setattr(SpectralFactor, "Pinv", property(dense))
    apply_fraclap(build_fraclap(build_axis_factors((16, 17)), (2.0, 2.0), 0.4), np.ones((16, 17)))
    assert sorted(set(sides)) == [8, 9]  # ceil(16/2), ceil(17/2) and floor(17/2)
    sides.clear()
    op = build_fracplap(build_axis_factors((9, 8)), (2.0, 2.0), 0.5, 1.7)
    U = gaussian_field([make_grid(9, 2.0), make_grid(8, 2.0)])
    apply_plap(op, U)
    folded_kernel(op, grid_orbits((9, 8), "none"))
    apply_plap_pointwise(op, U)
    assert sorted(set(sides)) == [4, 5]  # ceil(9/2), floor(9/2) and 8/2


@pytest.mark.parametrize("shape,group", [
    ((5, 4), "none"), ((5, 4), "mirror"), ((5, 5), "mirror+swap"), ((6, 6), "mirror+swap"), ((3, 4, 5), "mirror"),
    ((5, 5, 5), "mirror+swap"),
])
def test_orbit_weights_are_orbit_sizes_times_the_kron_quadrature_weights(shape, group):
    orbits = grid_orbits(shape, group)
    # quad_mass's 1/sin(xi)**2 per axis, multiplied across axes, column-major flat
    w = functools.reduce(np.kron, [1 / np.sin(make_grid(N, 1.0).xi) ** 2 for N in shape[::-1]])
    assert np.array_equal(orbits.weight, orbits.mult * w[orbits.reps])
    with pytest.raises(ValueError):
        orbits.weight[0] = 1.0


def test_scaling_contract_1d():
    """Order-sp homogeneity in the scale: the grid operator built at scale L
    on samples u(x) equals L**(-s*p) times the unit-scale operator on the
    same sample vector."""
    N, s, p, L = 16, 0.3, 1.7, 3.7
    factors = build_axis_factors((N,))
    op_unit = build_fracplap(factors, (1.0,), s, p)
    op_scaled = build_fracplap(factors, (L,), s, p)
    U = np.random.default_rng(8).standard_normal(N)
    a = apply_plap(op_scaled, U)
    b = apply_plap(op_unit, U) * L ** (-s * p)
    assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


def test_operator_value_positive_at_gaussian_peak_1d():
    """Diffusion pushes the peak down: the operator at the center of a bump
    is positive for every exponent."""
    g = [make_grid(101, 10.0)]
    u = gaussian_field(g)
    for p in (1.1, 1.4, 1.8, 2.2, 2.4):
        op = build_fracplap(build_axis_factors((101,)), (10.0,), 0.8, p)
        w = apply_plap(op, u)
        assert w[50] > 0.0, f"p = {p}: center value {w[50]:.3e}"


def test_operator_value_positive_at_gaussian_peak_2d():
    g = [make_grid(21, 6.0)] * 2
    u = gaussian_field(g)
    for p in (1.1, 2.4):
        op = build_fracplap(build_axis_factors((21, 21)), (6.0, 6.0), 0.8, p)
        w = apply_plap(op, u)
        assert w[10, 10] > 0.0


def test_apply_validates_shape():
    op = build_fracplap(build_axis_factors((8,)), (1.0,), 0.5, 1.5)
    with pytest.raises(ValueError):
        apply_plap_pointwise(op, np.zeros(9))
    with pytest.raises(ValueError):
        apply_plap(op, np.zeros((8, 1)))


# ----------------------------------------------------------------------------
# orbits and the folded kernel
# ----------------------------------------------------------------------------


def full_apply(op, U):
    """``apply_plap`` on the trivial group, whatever U's symmetry: every point its own orbit."""
    u = apply_folded(op, grid_orbits(op.shape, "none"), U.ravel(order="F"), None)
    return u.reshape(op.shape, order="F")


def symmetrized(U, group):
    """U made bitwise invariant under the group.

    Mirror images and a plane's transpose are summed, as addition commutes.
    A sum of three or more transposes depends on its order, so at n >= 3
    each point takes the value at its sorted folded index instead.
    """
    if group != "none":
        for axis in range(U.ndim):
            U = U + np.flip(U, axis)
    if group == "mirror+swap" and U.ndim == 2:
        U = U + U.T
    elif group == "mirror+swap":
        idx = np.indices(U.shape)
        U = U[tuple(np.sort(np.minimum(idx, len(U) - 1 - idx), axis=0))]
    return U


@pytest.mark.parametrize("shape,group,count", [
    ((7,), "none", 7),
    ((7,), "mirror", 4),
    ((8,), "mirror", 4),
    ((5, 6), "mirror", 9),
    ((7, 7), "mirror+swap", 10),
    ((8, 8), "mirror+swap", 10),
    ((3, 4, 5), "mirror", 12),
    # C(ceil(N/2) + 2, 3) sorted index triples on the top half of every axis
    ((7, 7, 7), "mirror+swap", 20),
    ((8, 8, 8), "mirror+swap", 20),
    ((9, 9, 9), "mirror+swap", 35),
])
def test_orbits_partition_the_grid(shape, group, count):
    orbits = grid_orbits(shape, group)
    assert len(orbits.reps) == count
    assert np.array_equal(np.bincount(orbits.index.ravel()), orbits.mult)
    # each representative stands for its own orbit, at its own flat index
    assert np.array_equal(orbits.index.reshape(-1, order="F")[orbits.reps], np.arange(count))
    assert np.all(np.diff(orbits.reps) > 0)
    U = symmetrized(np.random.default_rng(10).standard_normal(shape), group)
    assert np.array_equal(orbits.unfold(orbits.fold(U)), U)


def test_trivial_orbits_are_the_grid_points():
    orbits = grid_orbits((4, 5), "none")
    assert np.array_equal(orbits.reps, np.arange(20))
    assert np.array_equal(orbits.mult, np.ones(20))
    assert orbits.kernel_bytes == 8 * 20 * 10


def test_swap_needs_a_square_plane_with_common_scales():
    with pytest.raises(ValueError, match="square plane"):
        grid_orbits((5, 6), "mirror+swap")
    with pytest.raises(ValueError, match="square plane"):
        grid_orbits((5,), "mirror+swap")
    with pytest.raises(ValueError, match="equal N on two or more axes"):
        grid_orbits((5, 5, 6), "mirror+swap")
    with pytest.raises(ValueError, match="group"):
        grid_orbits((5,), "rotation")
    op = build_fracplap(build_axis_factors((6, 6)), (2.0, 2.5), 0.5, 1.7)
    with pytest.raises(ValueError, match="not a symmetry"):
        folded_kernel(op, grid_orbits((6, 6), "mirror+swap"))
    with pytest.raises(ValueError, match="not a symmetry"):
        apply_folded(op, grid_orbits((6, 5), "mirror"), np.zeros(9), None)
    op = build_fracplap(build_axis_factors((5, 5, 5)), (2.0, 2.0, 2.5), 0.5, 1.7)
    with pytest.raises(ValueError, match="not a symmetry"):
        folded_kernel(op, grid_orbits((5, 5, 5), "mirror+swap"))


def test_invariant_orbits_take_the_largest_bitwise_symmetry():
    def group(grids):
        return invariant_orbits(gaussian_field(grids), [g.L for g in grids])[1]["group"]

    def reason(U):
        return invariant_orbits(U, (2.0,) * U.ndim)[1]["group_reason"]

    g = make_grid(9, 2.0)
    assert group([g]) == "mirror"
    assert group([g, g]) == "mirror+swap"
    assert group([g, make_grid(9, 2.5)]) == "mirror"
    assert group([g, make_grid(10, 2.0)]) == "mirror"
    assert group([g] * 3) == "mirror+swap"
    assert group([g, g, make_grid(10, 2.0)]) == "mirror"
    assert group([g, g, make_grid(9, 2.5)]) == "mirror"
    # a plane mirror-symmetric along both axes and swap-symmetric on unequal scales keeps the mirrors
    U = gaussian_field([g, g])
    assert invariant_orbits(U, (2.0, 2.5))[1]["group"] == "mirror"
    assert reason(gaussian_field([g])) == "the field is mirror-symmetric along every axis"
    assert reason(U) == "the field is mirror-symmetric along both axes and swap-symmetric"
    U[1, 0] = np.nextafter(U[1, 0], 1.0)
    assert invariant_orbits(U, (2.0, 2.0))[1]["group"] == "none"
    assert reason(U) == "the field is not mirror-symmetric along axis 0"
    U = gaussian_field([g, g])
    U[1, 0], U[-2, 0], U[1, -1], U[-2, -1] = (np.nextafter(U[1, 0], 1.0),) * 4
    assert invariant_orbits(U, (2.0, 2.0))[1]["group"] == "mirror"
    assert reason(U) == "the field is mirror-symmetric along both axes but not swap-symmetric"
    # a cube takes the swaps only when every pair of axes swaps and every scale agrees
    U = gaussian_field([g] * 3)
    assert reason(U) == "the field is mirror-symmetric along every axis and swap-symmetric"
    assert invariant_orbits(U, (2.0, 2.0, 2.5))[1]["group_reason"] == (
        "the field is mirror-symmetric along every axis and swap-symmetric, but the scales (2.0, 2.0, 2.5) differ")
    V = symmetrized(np.random.default_rng(9).standard_normal((9, 9, 9)), "mirror")
    V = V + V.transpose(1, 0, 2)  # the (0, 1) swap only
    assert invariant_orbits(V, (2.0, 2.0, 2.0))[1]["group"] == "mirror"
    assert reason(V) == "the field is mirror-symmetric along every axis but not swap-symmetric"


def test_invariant_orbits_drop_the_swap_unless_the_scales_agree():
    g = make_grid(9, 2.0)
    U = gaussian_field([g, g])
    orbits, route = invariant_orbits(U, (2.0, 2.0))
    assert orbits.group == "mirror+swap"
    assert route == {"group": "mirror+swap",
                     "group_reason": "the field is mirror-symmetric along both axes and swap-symmetric",
                     "representatives": 15, "kernel_bytes": 8 * 15 * 7}
    orbits, route = invariant_orbits(U, (2.0, 2.5))
    assert orbits.group == route["group"] == "mirror"
    assert route["group_reason"] == ("the field is mirror-symmetric along both axes and "
                                     "swap-symmetric, but the scales (2.0, 2.5) differ")
    assert route["representatives"] == len(orbits.reps) == 25


@pytest.mark.parametrize("p", [1.0, 1.6, 2.0, 2.2])
@pytest.mark.parametrize("dims,group", [
    ((31,), "mirror"),
    ((32,), "mirror"),
    ((15, 15), "mirror"),
    ((16, 16), "mirror"),
    ((15, 15), "mirror+swap"),
    ((16, 16), "mirror+swap"),
    ((5, 6, 7), "mirror"),
    ((7, 7, 7), "mirror+swap"),
    ((8, 8, 8), "mirror+swap"),
])
def test_folded_operator_matches_the_full_one_on_invariant_fields(dims, group, p):
    n = len(dims)
    op = build_fracplap(build_axis_factors(dims), (3.0,) * n, 0.5, p)
    U = symmetrized(np.random.default_rng(11).standard_normal(dims), group)
    full = full_apply(op, U)
    orbits = grid_orbits(dims, group)
    B = folded_kernel(op, orbits)
    assert_symmetric_packing(B, op, orbits)
    u = apply_folded(op, orbits, orbits.fold(U), B)
    assert np.max(np.abs(orbits.unfold(u) - full)) <= 1e-12 * np.max(np.abs(full))
    # discrete mass: B symmetric and the odd power antisymmetric
    assert abs(np.sum(orbits.weight * u)) <= 1e-15 * np.sum(orbits.weight * np.abs(u))
    assert np.array_equal(apply_folded(op, orbits, orbits.fold(U), None), u)


def test_trivial_fold_is_the_full_kernel():
    dims = (5, 6)
    op = build_fracplap(build_axis_factors(dims), (2.0, 2.0), 0.6, 1.8)
    orbits = grid_orbits(dims, "none")
    K = folded_kernel(op, orbits)
    # W * c_const * P diag(pow_tensor) P^-1 over column-major flat indices
    f0, f1 = op.factors
    dense = np.kron(f1.P, f0.P) @ (op.pow_tensor.ravel(order="F")[:, None] * np.kron(f1.Pinv, f0.Pinv))
    A = op.c_const * orbits.weight[:, None] * dense
    # R = 30 is even: the antipodal pairs are held once too, and the diagonal not at all
    off = ~np.eye(len(A), dtype=bool)
    assert np.max(np.abs(unpacked(K) - A)[off]) <= 1e-13 * np.max(np.abs(A))
    # held kernel and rebuilt rows: the same blocks, the same bits
    U = np.random.default_rng(12).standard_normal(dims)
    u = apply_folded(op, orbits, orbits.fold(U), K)
    assert np.array_equal(u, apply_folded(op, orbits, orbits.fold(U), None))
    assert np.array_equal(orbits.unfold(u), apply_plap(op, U))


@pytest.mark.parametrize("dims,group,count", [
    ((2,), "mirror", 1),
    ((2,), "none", 2),
    ((3,), "none", 3),
    ((7,), "mirror", 4),
    ((127,), "mirror", 64),
    ((65,), "none", 65),
    ((13, 13, 13), "mirror+swap", 84),
])
def test_packed_kernel_matches_the_pointwise_reference_at_every_block_edge(dims, group, count):
    # R = 1 packs no pair, R = 2 only an antipodal one, R = 64 fills one block, R = 65 starts a second
    op = build_fracplap(build_axis_factors(dims), (2.0,) * len(dims), 0.6, 1.7)
    U = symmetrized(np.random.default_rng(14).standard_normal(dims), group)
    orbits = grid_orbits(dims, group)
    assert len(orbits.reps) == count
    K = folded_kernel(op, orbits)
    assert K.shape == (count, count // 2)
    u = apply_folded(op, orbits, orbits.fold(U), K)
    assert np.array_equal(u, apply_folded(op, orbits, orbits.fold(U), None))
    want = apply_plap_pointwise(op, U)
    assert np.max(np.abs(orbits.unfold(u) - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("N", [15, 16])
def test_plane_kernel_rows_are_the_two_column_gather(N):
    # the n = 2 bits: the mirror-box column (i, j) of each representative, plus (j, i) off the diagonal
    dims = (N, N)
    op = build_fracplap(build_axis_factors(dims), (3.0, 3.0), 0.5, 1.7)
    orbits = grid_orbits(dims, "mirror+swap")
    r, h = len(orbits.reps), (N + 1) // 2
    # mirror-group rows of the same representatives and weights hold every mirror-box column
    box = _kernel_rows(op, dataclasses.replace(orbits, group="mirror"), 0, r, np.empty((r, h * h)))
    i, j = np.unravel_index(orbits.reps, dims, order="F")
    want = box[:, i + h * j]
    off = i != j
    want[:, off] += box[:, (j + h * i)[off]]
    assert np.array_equal(_kernel_rows(op, orbits, 0, r, np.empty((r, r))), want)
