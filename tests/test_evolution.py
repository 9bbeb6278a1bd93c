"""Time integration, self-similar parameters, config parsing."""

import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracspec import (
    DegenerateExponent,
    EvolutionConfig,
    NonFiniteState,
    apply_fraclap,
    apply_plap,
    build_axis_factors,
    build_fraclap,
    build_fracplap,
    config_grids,
    gaussian_field,
    load_config,
    make_grid,
    quad_mass,
    rescale_section,
    rk4_step,
    run_evolution,
    section_overlap_distance,
    self_similar_params,
)
from fracspec.fracplap import (
    apply_folded,
    folded_kernel,
    grid_orbits,
    invariant_orbits,
)
from fracspec.tensor_ops import mode_product

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_config(**overrides):
    base = dict(
        n=1, s=0.5, p=2.0, N=32, L=5.0, dt=0.01, t_end=0.05, snapshot_times=(0.05,)
    )
    base.update(overrides)
    return EvolutionConfig(**base)


# ----------------------------------------------------------------------------
# EvolutionConfig
# ----------------------------------------------------------------------------


def test_config_shape_property():
    assert small_config(n=3, N=7).shape == (7, 7, 7)


def test_config_snapshot_times_coerced_to_float_tuple():
    cfg = small_config(snapshot_times=[0.01, 0.05])
    assert cfg.snapshot_times == (0.01, 0.05)
    assert isinstance(cfg.snapshot_times, tuple)


@pytest.mark.parametrize(
    "field,value",
    [
        ("n", 0),
        ("n", 1.5),
        ("s", 0.0),
        ("s", 1.0),
        ("p", 0.9),
        ("N", 1),
        ("N", 8.0),
        ("L", 0.0),
        ("dt", 0.0),
        ("t_end", -1.0),
        ("snapshot_times", (0.05, 0.01)),
        ("snapshot_times", (0.0,)),
        ("snapshot_times", (0.2,)),
        ("snapshot_times", ()),
    ],
)
def test_config_validates_every_field(field, value):
    with pytest.raises(ValueError):
        small_config(**{field: value})


def test_config_refuses_an_infinite_exponent():
    with pytest.raises(ValueError, match="p must be finite"):
        small_config(p=math.inf)


def test_dimension_rule_refuses_a_bool():
    from fracspec.checks import checked_dimension

    for bad in (True, False):
        with pytest.raises(ValueError, match=f"n must be a positive integer, got {bad}"):
            checked_dimension(bad)
    with pytest.raises(ValueError, match="n must be a positive integer, got True"):
        small_config(n=True)
    assert checked_dimension(np.int64(1)) == 1


# ----------------------------------------------------------------------------
# quad_mass
# ----------------------------------------------------------------------------


def test_mass_of_gaussian_line():
    cfg = small_config(N=1000, L=10.0)
    grids = config_grids(cfg)
    m = quad_mass(gaussian_field(grids), grids)
    assert m == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_mass_of_gaussian_plane():
    cfg = small_config(n=2, N=200, L=10.0)
    grids = config_grids(cfg)
    m = quad_mass(gaussian_field(grids), grids)
    assert m == pytest.approx(math.pi, rel=1e-10)


def test_mass_of_zero_field_is_zero():
    cfg = small_config(N=16)
    grids = config_grids(cfg)
    assert quad_mass(np.zeros(16), grids) == 0.0


def test_mass_validates_shape():
    grids = config_grids(small_config(N=16))
    with pytest.raises(ValueError):
        quad_mass(np.zeros(17), grids)


def test_mass_does_not_depend_on_memory_layout():
    grids = [make_grid(9, 2.0), make_grid(9, 2.5)]
    rng = np.random.default_rng(40)
    for _ in range(200):
        U = rng.standard_normal((9, 9))
        assert quad_mass(np.asfortranarray(U), grids) == quad_mass(U, grids)


@pytest.mark.parametrize("dims", [(501,), (20, 21), (12, 13, 9)])
def test_operators_conserve_discrete_mass(dims):
    """The kernel row of every Pinv is the quad_mass weights, so the linear
    and p-Laplacian outputs carry zero discrete mass up to rounding."""
    grids = [make_grid(N, 3.0 + 0.5 * k) for k, N in enumerate(dims)]
    factors = build_axis_factors(dims)
    for g, f in zip(grids, factors):
        w = 1.0 / np.sin(g.xi) ** 2
        want = math.sqrt(g.N) * w / w.sum()
        assert np.max(np.abs(f.Pinv[f.zero_index] - want) / want) <= 1e-13
    scales = [g.L for g in grids]
    U = gaussian_field(grids)
    plap = build_fracplap(factors, scales, 0.5, 1.7)
    for out in (
        apply_fraclap(build_fraclap(factors, scales, 0.5), U),
        apply_plap(plap, U),
    ):
        assert abs(quad_mass(out, grids)) / quad_mass(np.abs(out), grids) <= 1e-15


# ----------------------------------------------------------------------------
# self_similar_params
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
def test_quadratic_exponent_reduces_to_half_inverse_order(s):
    params = self_similar_params(1, s, 2.0)
    assert params.beta == 1.0 / (2.0 * s)
    assert params.alpha == params.beta


def test_alpha_is_dimension_times_beta():
    params = self_similar_params(3, 0.4, 2.1)
    assert params.alpha == 3 * params.beta


def test_critical_exponent_value():
    assert self_similar_params(1, 0.8, 1.8).p_c == 2.0 / 1.8


def test_secondary_exponent_frozen_value():
    params = self_similar_params(1, 0.8, 1.8)
    assert params.p_1 == pytest.approx(1.4610721925561903, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("s", [0.2, 0.8])
def test_exponent_ordering(n, s):
    params = self_similar_params(n, s, 1.99)
    assert params.p_c < params.p_1 < 2.0


def test_denominator_degenerates_exactly_at_critical_exponent():
    p_c = 2.0 * 1.0 / (1.0 + 0.5)
    with pytest.raises(DegenerateExponent):
        self_similar_params(1, 0.5, p_c)


def test_subcritical_exponent_warns():
    with pytest.warns(RuntimeWarning, match="mass-critical"):
        self_similar_params(1, 0.8, 1.05)


def test_supercritical_exponent_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        self_similar_params(1, 0.8, 1.8)


def test_params_validation():
    with pytest.raises(ValueError):
        self_similar_params(0, 0.5, 2.0)
    with pytest.raises(ValueError):
        self_similar_params(1, 1.0, 2.0)
    with pytest.raises(ValueError):
        self_similar_params(1, 0.5, 0.5)


# ----------------------------------------------------------------------------
# rescaling
# ----------------------------------------------------------------------------


def test_rescale_matches_self_similar_variables():
    # r = M^((2-p) beta) t^(-beta) x and v = M^(-s p beta) t^alpha u
    M, t, p, s = 1.7, 2.5, 1.8, 0.8
    params = self_similar_params(1, s, p)
    x = np.linspace(-3.0, 3.0, 21)
    u = np.exp(-(x**2))
    r, v = rescale_section(x, u, M, t, params, p, s)
    r_exact = M ** ((2.0 - p) * params.beta) * t ** (-params.beta) * x
    v_exact = M ** (-s * p * params.beta) * t**params.alpha * u
    assert np.max(np.abs(r - r_exact)) <= 1e-15 * np.max(np.abs(r_exact))
    assert np.max(np.abs(v - v_exact)) <= 1e-15 * np.max(np.abs(v_exact))


def test_rescale_changes_the_profile():
    params = self_similar_params(1, 0.8, 1.8)
    x = np.linspace(-1.0, 1.0, 5)
    u = np.ones(5)
    r, v = rescale_section(x, u, 2.0, 3.0, params, 1.8, 0.8)
    assert not np.array_equal(r, x)
    assert not np.array_equal(v, u)


@pytest.mark.parametrize("mass,t", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
def test_rescale_identity_fallback(mass, t):
    params = self_similar_params(1, 0.8, 1.8)
    x = np.linspace(-1.0, 1.0, 5)
    u = np.linspace(0.0, 2.0, 5)
    r, v = rescale_section(x, u, mass, t, params, 1.8, 0.8)
    assert np.array_equal(r, x)
    assert np.array_equal(v, u)


# ----------------------------------------------------------------------------
# rk4_step
# ----------------------------------------------------------------------------


def test_rk4_zero_rhs_is_identity():
    U = np.random.default_rng(0).standard_normal(9)
    out = rk4_step(U, 0.5, lambda v: np.zeros_like(v))
    assert np.array_equal(out, U)


def test_rk4_matches_fourth_order_taylor_polynomial():
    # for dU/dt = -U one step reproduces the degree-4 Taylor polynomial of
    # exp(-dt) exactly, stage by stage
    dt = 0.3
    out = rk4_step(np.array([1.0]), dt, lambda v: -v)
    k1 = -1.0
    k2 = -(1.0 + 0.5 * dt * k1)
    k3 = -(1.0 + 0.5 * dt * k2)
    k4 = -(1.0 + dt * k3)
    assert out[0] == 1.0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_rk4_step_error_scales_as_fifth_power():
    f = lambda v: -v
    errs = []
    for dt in (0.2, 0.1):
        out = rk4_step(np.array([1.0]), dt, f)
        errs.append(abs(out[0] - math.exp(-dt)))
    assert errs[0] / errs[1] == pytest.approx(32.0, rel=0.2)


def test_rk4_rejects_bad_step():
    with pytest.raises(ValueError):
        rk4_step(np.zeros(3), 0.0, lambda v: v)


# ----------------------------------------------------------------------------
# run_evolution
# ----------------------------------------------------------------------------


def test_zero_initial_state_stays_zero():
    cfg = small_config(N=16, snapshot_times=(0.01, 0.05))
    snaps = run_evolution(cfg, np.zeros(16))
    assert len(snaps) == 2
    for snap in snaps:
        assert np.array_equal(snap.U, np.zeros(16))
        assert snap.mass == 0.0
        # identity fallback: the section axis is the raw node vector
        assert np.array_equal(snap.section_r, config_grids(cfg)[0].x)


def test_quadratic_case_conserves_mass():
    cfg = EvolutionConfig(
        n=1, s=0.5, p=2.0, N=128, L=6.0, dt=0.005, t_end=0.2, snapshot_times=(0.1, 0.2)
    )
    grids = config_grids(cfg)
    u0 = gaussian_field(grids)
    m0 = quad_mass(u0, grids)
    snaps = run_evolution(cfg, u0)
    for snap in snaps:
        assert abs(snap.mass - m0) / m0 <= 1e-6
    # the field actually evolved
    assert np.max(np.abs(snaps[-1].U - u0)) > 1e-3


def test_snapshot_times_round_to_steps():
    cfg = small_config(dt=0.1, t_end=0.5, snapshot_times=(0.31,))
    snaps = run_evolution(cfg, gaussian_field(config_grids(cfg)))
    assert snaps[0].t == 3 * 0.1


def test_snapshot_before_first_step_records_initial_state():
    cfg = small_config(dt=0.01, t_end=0.02, snapshot_times=(0.004, 0.02))
    u0 = gaussian_field(config_grids(cfg))
    snaps = run_evolution(cfg, u0)
    assert snaps[0].t == 0.0
    assert np.array_equal(snaps[0].U, u0)


def test_blowup_raises_with_step_location():
    cfg = small_config(s=0.5, p=2.2, N=16, dt=0.5, t_end=1.0, snapshot_times=(1.0,))
    u0 = 1e200 * gaussian_field(config_grids(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow inside the doomed powers
        with pytest.raises(NonFiniteState, match="after step"):
            run_evolution(cfg, u0)


def test_shape_mismatch_rejected():
    cfg = small_config(N=16)
    with pytest.raises(ValueError):
        run_evolution(cfg, np.zeros(17))


def test_batched_and_pointwise_paths_agree():
    # the run holds its folded kernel; rows rebuilt per block give the same bits
    cfg = small_config(N=24, p=1.8, t_end=0.03, dt=0.01, snapshot_times=(0.03,))
    u0 = gaussian_field(config_grids(cfg))
    op = build_fracplap(build_axis_factors([cfg.N]), [cfg.L], cfg.s, cfg.p)
    orbits = invariant_orbits(u0, [cfg.L] * cfg.n)[0]
    u = orbits.fold(u0)
    for _ in range(3):
        u = rk4_step(u, cfg.dt, lambda v: -apply_folded(op, orbits, v, None))
    assert np.array_equal(run_evolution(cfg, u0)[0].U, orbits.unfold(u))


def test_run_builds_its_kernel_before_the_first_step(monkeypatch):
    # a kernel too large for memory fails at its one build, before any step
    cfg = small_config(N=12, t_end=0.03, dt=0.01, snapshot_times=(0.03,))
    steps = []

    def no_memory(op, orbits):
        raise MemoryError("kernel")

    monkeypatch.setattr("fracspec.evolution.folded_kernel", no_memory)
    monkeypatch.setattr("fracspec.evolution.rk4_step", lambda *args: steps.append(args))
    with pytest.raises(MemoryError, match="kernel"):
        run_evolution(cfg, gaussian_field(config_grids(cfg)))
    assert steps == []


@pytest.mark.parametrize("n", [1, 2])
def test_batched_run_uses_mode_products_only_to_build_the_kernel(monkeypatch, n):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mode_product(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("fracspec") and getattr(module, "mode_product", None) is mode_product:
            monkeypatch.setattr(module, "mode_product", counted)
    counts = []
    for t_end in (0.01, 0.03):  # 4 and 12 right-hand sides
        calls.clear()
        cfg = small_config(n=n, N=7, p=1.8, dt=0.01, t_end=t_end, snapshot_times=(t_end,))
        run_evolution(cfg, gaussian_field(config_grids(cfg)))
        counts.append(len(calls))
    # the kernel build is the only user: zero mode products per RHS
    assert 0 < counts[0] == counts[1]


def full_route_run(cfg, u0, steps):
    """The fields of an RK4 run on the full grid, the trivial group's orbits, after each step."""
    op = build_fracplap(build_axis_factors([cfg.N]) * cfg.n, [cfg.L] * cfg.n, cfg.s, cfg.p)
    orbits = grid_orbits(cfg.shape, "none")
    U, out = u0.ravel(order="F"), []
    for _ in range(steps):
        U = rk4_step(U, cfg.dt, lambda v: -apply_folded(op, orbits, v, None))
        out.append(np.ascontiguousarray(U.reshape(cfg.shape, order="F")))
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_asymmetric_start_takes_the_trivial_group_and_the_full_route(n):
    cfg = small_config(n=n, N=9, p=1.7, dt=0.01, t_end=0.03, snapshot_times=(0.01, 0.03))
    grids = config_grids(cfg)
    u0 = gaussian_field(grids) * (1.0 + 0.1 * np.random.default_rng(13).random(cfg.shape))
    orbits, route = invariant_orbits(u0, [cfg.L] * cfg.n)
    assert route["group"] == "none"
    assert route["representatives"] == len(orbits.reps) == 9**n
    snaps = run_evolution(cfg, u0)
    want = full_route_run(cfg, u0, 3)
    for snap, U in zip(snaps, (want[0], want[2])):
        assert np.array_equal(snap.U, U)
        assert snap.mass == quad_mass(U, grids)


@pytest.mark.parametrize("n,N,p,group", [
    (1, 25, 1.6, "mirror"),
    (1, 24, 2.2, "mirror"),
    (2, 9, 1.7, "mirror+swap"),
    (2, 10, 2.0, "mirror+swap"),
])
def test_symmetric_start_evolves_the_orbits(monkeypatch, n, N, p, group):
    cfg = small_config(n=n, N=N, p=p, dt=0.01, t_end=0.03, snapshot_times=(0.01, 0.03))
    u0 = gaussian_field(config_grids(cfg))
    orbits, route = invariant_orbits(u0, [cfg.L] * cfg.n)
    assert route["group"] == group
    assert route["kernel_bytes"] == 8 * len(orbits.reps) * (len(orbits.reps) // 2)
    built = []

    def recorded(op, orbits):
        built.append(orbits.group)
        return folded_kernel(op, orbits)

    monkeypatch.setattr("fracspec.evolution.folded_kernel", recorded)
    snaps = run_evolution(cfg, u0)
    assert built == [group]  # one kernel, the folded one, never the full one
    want = full_route_run(cfg, u0, 3)
    for a, U in zip(snaps, (want[0], want[2])):
        assert invariant_orbits(a.U, [cfg.L] * cfg.n)[0].group == group
        # at p < 2 the full route's rounding drifts out of symmetry, so the
        # folded run may differ from it by as much as its images differ
        images = [np.flip(U, axis) for axis in range(n)] + [U.T] * (n == 2)
        drift = max(np.max(np.abs(U - V)) for V in images)
        assert np.max(np.abs(a.U - U)) <= drift + 1e-13 * np.max(np.abs(U))


def test_plane_section_cuts_through_the_middle():
    cfg = small_config(n=2, N=9, L=3.0, dt=0.01, t_end=0.01, snapshot_times=(0.01,))
    grids = config_grids(cfg)
    u0 = gaussian_field(grids)
    snap = run_evolution(cfg, u0)[0]
    params = self_similar_params(2, cfg.s, cfg.p)
    r, v = rescale_section(
        grids[0].x, snap.U[:, 4], snap.mass, snap.t, params, cfg.p, cfg.s
    )
    assert np.array_equal(snap.section_u, snap.U[:, 4])
    assert np.array_equal(snap.section_r, r)
    assert np.array_equal(snap.section_v, v)


# ----------------------------------------------------------------------------
# section_overlap_distance
# ----------------------------------------------------------------------------


def test_overlap_of_identical_profiles_is_zero():
    r = np.linspace(-1.0, 1.0, 11)
    v = np.exp(-(r**2))
    assert section_overlap_distance([(r, v), (r, v)]) == 0.0


def test_overlap_sees_constant_offsets_exactly():
    r = np.linspace(-2.0, 2.0, 21)
    v = np.cos(r)
    d = section_overlap_distance([(r, v), (r, v + 0.25), (r, v - 0.5)])
    assert d == pytest.approx(0.75, rel=1e-15)


def test_overlap_uses_common_support():
    r1 = np.linspace(-2.0, 1.0, 31)
    r2 = np.linspace(-1.0, 2.0, 31)
    d = section_overlap_distance([(r1, np.ones(31)), (r2, np.ones(31))])
    assert d == 0.0


def test_overlap_single_profile_is_zero():
    r = np.linspace(-1.0, 1.0, 5)
    assert section_overlap_distance([(r, r)]) == 0.0


def test_overlap_disjoint_supports_rejected():
    r1 = np.linspace(-2.0, -1.0, 5)
    r2 = np.linspace(1.0, 2.0, 5)
    with pytest.raises(ValueError):
        section_overlap_distance([(r1, r1), (r2, r2)])


# ----------------------------------------------------------------------------
# load_config
# ----------------------------------------------------------------------------


GOOD = """\
# sample run
n = 1
s = 0.5

p = 2.0
N = 32
L = 5.0
dt = 0.01
t_end = 0.05
snapshot_times = 0.01, 0.05
"""


def test_load_config_parses_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD)
    cfg = load_config(path)
    assert cfg.n == 1
    assert cfg.N == 32
    assert cfg.snapshot_times == (0.01, 0.05)


@pytest.mark.parametrize(
    "mutation,needle",
    [
        ("n = 2\n", "duplicate"),
        ("mass = 1\n", "unknown"),
        ("just a line\n", "key=value"),
    ],
)
def test_load_config_rejects_malformed_lines(tmp_path, mutation, needle):
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD + mutation)
    with pytest.raises(ValueError, match=needle):
        load_config(path)


def test_load_config_requires_every_key(tmp_path):
    path = tmp_path / "short.cfg"
    path.write_text("n = 1\ns = 0.5\n")
    with pytest.raises(ValueError, match="missing"):
        load_config(path)


@pytest.mark.parametrize("line,value,message", [
    (6, "N = 2.5", "6: N must be an integer, got '2.5'"),
    (8, "dt = 1e-3x", "8: dt must be a number, got '1e-3x'"),
    (10, "snapshot_times = 0.1,zz", "10: snapshot_times must be comma-separated numbers, got '0.1,zz'"),
    # a value of the right type out of range has no one line to name
    (3, "s = 1.5", " s must lie in (0, 1), got 1.5"),
    (10, "snapshot_times = 0.01, 0.06", " snapshot_times must lie in (0, t_end], got (0.01, 0.06)"),
], ids=["int", "float", "times", "s-range", "times-beyond-t_end"])
def test_load_config_names_the_file_and_key_of_a_bad_value(tmp_path, line, value, message):
    lines = GOOD.splitlines()
    lines[line - 1] = value
    path = tmp_path / "typo.cfg"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{message}")):
        load_config(path)


def test_load_config_error_names_the_line(tmp_path):
    path = tmp_path / "lined.cfg"
    path.write_text("n = 1\nwat\n")
    with pytest.raises(ValueError, match="lined.cfg:2"):
        load_config(path)


def test_shipped_configs_all_parse():
    paths = sorted(CONFIG_DIR.glob("*.cfg"))
    assert len(paths) == 12
    # configs/README.md: the R column per config, and the largest folded kernel in MB
    readme = (CONFIG_DIR / "README.md").read_text()
    rows = re.findall(r"\| `(\w[\w.]*)` \| \d+ \| ([\d,]+) \|", readme)
    reps = {name: int(R.replace(",", "")) for name, R in rows}
    assert sorted(reps) == [path.stem for path in paths]
    # both READMEs state the largest kernel, some config headers their own
    largest = [int(re.search(r"at most\s+(\d+)\s+MB", text).group(1))
               for text in (readme, (CONFIG_DIR.parent / "README.md").read_text())]
    sizes = []
    for path in paths:
        cfg = load_config(path)
        assert cfg.n in (1, 2)
        assert 0.0 < cfg.s < 1.0
        assert cfg.p >= 1.0
        assert len(cfg.snapshot_times) == 11
        assert cfg.snapshot_times[-1] == pytest.approx(cfg.t_end)
        # every config starts from a Gaussian that folds: no run needs the full kernel
        route = invariant_orbits(gaussian_field(config_grids(cfg)), [cfg.L] * cfg.n)[1]
        assert route["group"] == ("mirror", "mirror+swap")[cfg.n - 1], path.name
        assert route["representatives"] == reps[path.stem], path.name
        sizes.append(round(route["kernel_bytes"] / 1e6))
        header = re.search(r"(\d+) MB kernel", path.read_text())
        assert header is None or int(header.group(1)) == sizes[-1], path.name
    assert largest == [max(sizes)] * 2


def test_shipped_config_values_match_names():
    cfg = load_config(CONFIG_DIR / "evolve_n1_s0.8_p1.8.cfg")
    assert (cfg.n, cfg.s, cfg.p) == (1, 0.8, 1.8)
    assert cfg.N == 501
    assert cfg.L == 10.0
    assert cfg.dt == 1e-3
    assert cfg.t_end == 1.9
