"""Release gates: every core guarantee of the package at its stated tolerance.

Each test prints one [PASS]/[FAIL] line with the measured numbers so a full
run reads as a checklist.  Two gates integrate for a couple of minutes; the
rest are fast.  Run only this file with

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracspec import (
    EvolutionConfig,
    PoleError,
    apply_fraclap,
    apply_plap,
    apply_plap_pointwise,
    build_axis_factors,
    build_diff_matrices,
    build_fraclap,
    build_fracplap,
    condition_number,
    differentiate,
    exact_fraclap_gaussian,
    exact_fraclap_algebraic,
    factorize,
    gaussian_field,
    lorentzian_field,
    make_grid,
    plap_constant,
    quad_mass,
    radius_squared,
    run_evolution,
    section_overlap_distance,
    self_checks,
)

REPO = Path(__file__).resolve().parent.parent


def gate(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def seeded_instances():
    """20 deterministic mixed-dimension operator instances."""
    rng = np.random.default_rng(20240817)
    out = []
    for _ in range(20):
        n = int(rng.integers(1, 3))
        if n == 1:
            dims = (int(rng.integers(8, 33)),)
        else:
            dims = tuple(int(rng.integers(5, 13)) for _ in range(2))
        scales = tuple(float(rng.uniform(1.0, 5.0)) for _ in range(n))
        s = float(rng.choice([0.2, 0.5, 0.8]))
        U = rng.standard_normal(dims)
        out.append((dims, scales, s, U))
    return out


def test_gate_01_four_dimensional_gaussian():
    """Linear operator on a 4-d anisotropic grid against the closed form."""
    dims, scales, s = (39, 40, 41, 42), (4.7, 4.8, 4.9, 5.0), 0.13
    grids = [make_grid(N, L) for N, L in zip(dims, scales)]
    factors = build_axis_factors(dims)
    op = build_fraclap(factors, scales, s)
    U = gaussian_field(grids)
    t0 = time.perf_counter()
    out = apply_fraclap(op, U)
    core = time.perf_counter() - t0
    err = float(np.max(np.abs(out - exact_fraclap_gaussian(s, 4, radius_squared(grids)))))
    gate(err <= 5e-9 and core <= 10.0,
         "4-d gaussian", f"max error {err:.3e} (tol 5e-9), core {core:.2f}s (cap 10s)")


def test_gate_02_scale_sweep_reference_accuracy():
    """One factorization serves every scale; the best scale in a coarse sweep
    reaches 1e-10 for both reference profiles."""
    N, s = 128, 0.5
    factors = build_axis_factors((N,))
    best_g = best_l = math.inf
    for L in np.arange(0.5, 30.25, 0.5):
        L = float(L)
        op = build_fraclap(factors, (L,), s)
        g = [make_grid(N, L)]
        r2 = radius_squared(g)
        eg = float(np.max(np.abs(
            apply_fraclap(op, gaussian_field(g)) - exact_fraclap_gaussian(s, 1, r2))))
        el = float(np.max(np.abs(
            apply_fraclap(op, lorentzian_field(g, 1.0)) - exact_fraclap_algebraic(s, 1.0, 1, r2))))
        best_g, best_l = min(best_g, eg), min(best_l, el)
    gate(best_g <= 1e-10 and best_l <= 1e-10,
         "scale sweep", f"best gaussian {best_g:.3e}, best algebraic {best_l:.3e} (tol 1e-10)")


def test_gate_03_quadratic_exponent_reduces_to_linear():
    worst = 0.0
    for dims, scales, s, U in seeded_instances():
        factors = build_axis_factors(dims)
        want = apply_fraclap(build_fraclap(factors, scales, s), U)
        got = apply_plap_pointwise(build_fracplap(factors, scales, s, 2.0), U)
        worst = max(worst, float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))))
    gate(worst <= 1e-12, "p=2 reduction", f"worst relative gap {worst:.3e} over 20 instances (tol 1e-12)")


def test_gate_04_pointwise_and_batched_routes_agree():
    worst = 0.0
    for dims, scales, s, U in seeded_instances():
        op = build_fracplap(build_axis_factors(dims), scales, s, 2.0)
        a = apply_plap_pointwise(op, U)
        b = apply_plap(op, U)
        worst = max(worst, float(np.max(np.abs(a - b))))
    gate(worst <= 1e-13, "route agreement", f"worst absolute gap {worst:.3e} over 20 instances (tol 1e-13)")


def test_gate_05_large_plane_quadratic_reference():
    """Pointwise route at production size against the closed form."""
    dims, scales, s = (200, 201), (18.0, 18.1), 0.67
    grids = [make_grid(N, L) for N, L in zip(dims, scales)]
    op = build_fracplap(build_axis_factors(dims), scales, s, 2.0)
    U = gaussian_field(grids)
    t0 = time.perf_counter()
    out = apply_plap_pointwise(op, U)
    wall = time.perf_counter() - t0
    err = float(np.max(np.abs(out - exact_fraclap_gaussian(s, 2, radius_squared(grids)))))
    gate(err <= 1e-11 and wall <= 1800.0,
         "large plane", f"max error {err:.3e} (tol 1e-11), wall {wall:.0f}s (cap 1800s)")


def test_gate_06_constant_quadratic_collapse_and_poles():
    worst = 0.0
    for n in (1, 2, 3, 4):
        for s in np.arange(0.1, 0.95, 0.1):
            worst = max(worst, abs(plap_constant(n, float(s), 2.0) + 1.0))
    poles_ok = True
    for s, p in ((0.5, 4.0), (0.8, 2.5), (2.0 / 3.0, 3.0), (0.5, 4.0 + 4e-13)):
        try:
            plap_constant(1, s, p)
            poles_ok = False
        except PoleError:
            pass
    window_ok = math.isfinite(plap_constant(1, 0.5, 4.0 + 4e-9))
    gate(worst <= 1e-14 and poles_ok and window_ok,
         "constant collapse",
         f"|C+1| worst {worst:.3e} (tol 1e-14), poles detected {poles_ok}, near-miss evaluates {window_ok}")


def test_gate_07_eigenvector_conditioning_power_law():
    Ns = (100, 200, 400, 800)
    ks = []
    for N in Ns:
        f = factorize(make_grid(N, 1.0))
        ks.append(condition_number(f.P))
    slope = float(np.polyfit(np.log(Ns), np.log(ks), 1)[0])
    gate(0.6 <= slope <= 0.9 and ks[-1] <= 200.0,
         "conditioning growth",
         f"log-log slope {slope:.4f} (window [0.6, 0.9]), kappa({Ns[-1]}) = {ks[-1]:.1f} (cap 200)")


def test_gate_08_integral_identity_grid():
    # deviations from the shared check table, judged by this gate's own
    # tolerances so that loosening the table cannot loosen the gate
    dev = {c["name"]: c["max_deviation"] for c in self_checks("lemmas")}
    worst_res = dev["resolvent_quadrature"]
    worst_semi = dev["semigroup_quadrature"]
    worst_chain = dev["power_chain_identity"]
    gate(worst_res <= 1e-6 and worst_semi <= 1e-6 and worst_chain <= 1e-12,
         "integral identities",
         f"resolvent {worst_res:.3e}, semigroup {worst_semi:.3e} (tol 1e-6), chain {worst_chain:.3e} (tol 1e-12)")


def test_gate_09_quadrature_mass():
    worst1 = 0.0
    for L in (1.0, 10.0, 100.0):
        g = [make_grid(1000, L)]
        worst1 = max(worst1, abs(quad_mass(gaussian_field(g), g) - math.sqrt(math.pi)))
    g2 = [make_grid(200, 10.0)] * 2
    err2 = abs(quad_mass(gaussian_field(g2), g2) - math.pi)
    gate(worst1 <= 1e-12 and err2 <= 1e-10,
         "quadrature mass",
         f"line worst {worst1:.3e} (tol 1e-12), plane {err2:.3e} (tol 1e-10)")


def test_gate_10_self_similar_collapse():
    """Rescaled late-time sections of a full nonlinear run lie on one curve."""
    cfg = EvolutionConfig(
        n=1, s=0.8, p=1.8, N=501, L=10.0, dt=1e-3, t_end=1.9,
        snapshot_times=(1.8, 1.85, 1.9),
    )
    grids = [make_grid(cfg.N, cfg.L)]
    u0 = gaussian_field(grids)
    m0 = quad_mass(u0, grids)
    t0 = time.perf_counter()
    snaps = run_evolution(cfg, u0)
    wall = time.perf_counter() - t0
    drift = max(abs(s.mass - m0) for s in snaps) / m0
    dist = section_overlap_distance([(s.section_r, s.section_v) for s in snaps])
    gate(dist <= 2e-2 and drift <= 1e-6 and wall <= 1800.0,
         "self-similar collapse",
         f"profile distance {dist:.3e} (tol 2e-2), mass drift {drift:.3e} (tol 1e-6), wall {wall:.0f}s")


def test_gate_11_derivative_accuracy_program():
    N, L = 2000, 100.0
    g = make_grid(N, L)
    dm = build_diff_matrices(g)
    u_gauss = 1.0 - np.exp(-g.x**2)
    ux_g, uxx_g = differentiate(dm, u_gauss, L)
    e1_gauss = float(np.max(np.abs(ux_g - 2.0 * g.x * np.exp(-g.x**2))))
    e2_gauss = float(np.max(np.abs(uxx_g - (2.0 - 4.0 * g.x**2) * np.exp(-g.x**2))))
    ux_a, uxx_a = differentiate(dm, np.arctan(g.x), L)
    e1_atan = float(np.max(np.abs(ux_a - 1.0 / (1.0 + g.x**2))))
    e2_atan = float(np.max(np.abs(uxx_a + 2.0 * g.x / (1.0 + g.x**2) ** 2)))
    errs = []
    for n in (32, 64, 128, 256):
        gg = make_grid(n, 20.0)
        u = 1.0 - np.exp(-gg.x**2)
        ux, _ = differentiate(build_diff_matrices(gg), u, 20.0)
        errs.append(float(np.max(np.abs(ux - 2.0 * gg.x * np.exp(-gg.x**2)))))
    mono = all(b < a for a, b in zip(errs, errs[1:]))
    ok = (e1_gauss <= 1e-9 and e2_atan <= 1e-8
          and e1_atan <= 5e-9 and e2_gauss <= 1e-8 and mono)
    gate(ok, "derivative program",
         f"plateau profile d1 {e1_gauss:.3e} (tol 1e-9) d2 {e2_gauss:.3e} (tol 1e-8); "
         f"algebraic profile d2 {e2_atan:.3e} (tol 1e-8) d1 {e1_atan:.3e} (tol 5e-9); "
         f"errors decrease with N: {mono}")


def test_gate_12_unit_suite_round_trip():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests", "--ignore",
         str(Path("tests") / "test_acceptance.py"), "-q", "-p", "no:cacheprovider"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    wall = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    gate(proc.returncode == 0 and wall <= 300.0,
         "unit suite", f"exit {proc.returncode}, {wall:.0f}s (cap 300s): {tail}")
