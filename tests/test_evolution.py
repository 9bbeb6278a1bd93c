"""Time integration, self-similar parameters, config parsing."""

import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracspec import (
    DegenerateExponent,
    EvolutionConfig,
    NonFiniteState,
    config_grids,
    gaussian_field,
    load_config,
    quad_mass,
    rescale_section,
    rk4_step,
    run_evolution,
    section_overlap_distance,
    self_similar_params,
    unrescale_section,
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
    ],
)
def test_config_validates_every_field(field, value):
    with pytest.raises(ValueError):
        small_config(**{field: value})


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


def test_rescale_round_trip():
    params = self_similar_params(1, 0.8, 1.8)
    x = np.linspace(-3.0, 3.0, 21)
    u = np.exp(-(x**2))
    r, v = rescale_section(x, u, 1.7, 2.5, params, 1.8, 0.8)
    x2, u2 = unrescale_section(r, v, 1.7, 2.5, params, 1.8, 0.8)
    assert np.max(np.abs(x2 - x)) <= 1e-15 * np.max(np.abs(x))
    assert np.max(np.abs(u2 - u)) <= 1e-15


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
    r2, v2 = unrescale_section(x, u, mass, t, params, 1.8, 0.8)
    assert np.array_equal(r2, x)
    assert np.array_equal(v2, u)


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
    cfg = small_config(N=24, t_end=0.03, dt=0.01, snapshot_times=(0.03,))
    u0 = gaussian_field(config_grids(cfg))
    a = run_evolution(cfg, u0)  # table fits the default budget
    b = run_evolution(cfg, u0, mem_budget=1)  # forces the pointwise loop
    assert np.max(np.abs(a[0].U - b[0].U)) <= 1e-13


@pytest.mark.parametrize("n", [1, 2])
def test_batched_run_uses_mode_products_only_to_build_the_kernel(monkeypatch, n):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mode_product(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("fracspec") and getattr(module, "mode_product", None) is mode_product:
            monkeypatch.setattr(module, "mode_product", counted)
    cfg = small_config(n=n, N=7, p=1.8, dt=0.01, t_end=0.03, snapshot_times=(0.03,))
    run_evolution(cfg, gaussian_field(config_grids(cfg)))  # 12 batched RHS calls
    assert 0 < len(calls) <= 2 * n


def test_plane_section_cuts_through_the_middle():
    cfg = small_config(n=2, N=9, L=3.0, dt=0.01, t_end=0.01, snapshot_times=(0.01,))
    grids = config_grids(cfg)
    u0 = gaussian_field(grids)
    snap = run_evolution(cfg, u0)[0]
    params = self_similar_params(2, cfg.s, cfg.p)
    r, v = rescale_section(
        grids[0].x, snap.U[:, 4], snap.mass, snap.t, params, cfg.p, cfg.s
    )
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


def test_load_config_error_names_the_line(tmp_path):
    path = tmp_path / "lined.cfg"
    path.write_text("n = 1\nwat\n")
    with pytest.raises(ValueError, match="lined.cfg:2"):
        load_config(path)


def test_shipped_configs_all_parse():
    paths = sorted(CONFIG_DIR.glob("*.cfg"))
    assert len(paths) == 12
    for path in paths:
        cfg = load_config(path)
        assert cfg.n in (1, 2)
        assert 0.0 < cfg.s < 1.0
        assert cfg.p >= 1.0
        assert len(cfg.snapshot_times) == 11
        assert cfg.snapshot_times[-1] == pytest.approx(cfg.t_end)


def test_shipped_config_values_match_names():
    cfg = load_config(CONFIG_DIR / "evolve_n1_s0.8_p1.8.cfg")
    assert (cfg.n, cfg.s, cfg.p) == (1, 0.8, 1.8)
    assert cfg.N == 501
    assert cfg.L == 10.0
    assert cfg.dt == 1e-3
    assert cfg.t_end == 1.9
