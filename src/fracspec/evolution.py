"""Time integration of u_t + (-Delta)^s_p u = 0 with self-similar rescaling.

Classical fixed-step RK4 drives the nonlinear operator; the quadrature mass
M(t) is tracked because the rescaling into self-similar variables

    r = M(t)^((2-p) beta) t^(-beta) x,    v = u M(t)^(-s p beta) t^alpha

uses the numerically preserved mass rather than the analytic one.  Snapshots
are taken at the completed step nearest each requested time and carry a 1-D
section along the first axis (all other indices at the middle node) plus its
rescaled profile.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateExponent, NonFiniteState
from .fraclap import build_axis_factors
from .fracplap import (
    DEFAULT_MEM_BUDGET,
    apply_plap_batched,
    apply_plap_pointwise,
    build_fracplap,
)
from .grid import Grid1D, make_grid

_DEGENERATE_TOL = 1e-14


@dataclass(frozen=True)
class EvolutionConfig:
    """Parameters of one evolution run; common N and L across dimensions."""

    n: int
    s: float
    p: float
    N: int
    L: float
    dt: float
    t_end: float
    snapshot_times: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s!r}")
        if not self.p >= 1:
            raise ValueError(f"p must be at least 1, got {self.p!r}")
        if not isinstance(self.N, int) or self.N < 2:
            raise ValueError(f"N must be an integer >= 2, got {self.N!r}")
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L!r}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end!r}")
        times = tuple(float(t) for t in self.snapshot_times)
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("snapshot_times must be sorted ascending")
        if any(not 0.0 < t <= self.t_end for t in times):
            raise ValueError(
                f"snapshot_times must lie in (0, t_end], got {times!r}"
            )
        object.__setattr__(self, "snapshot_times", times)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n


@dataclass(frozen=True)
class SelfSimilarParams:
    """Rescaling exponents and the critical values bracketing them."""

    alpha: float
    beta: float
    p_c: float
    p_1: float


@dataclass(frozen=True)
class Snapshot:
    """State recorded at one time: full field, mass, rescaled 1-D section."""

    t: float
    U: np.ndarray
    mass: float
    section_r: np.ndarray
    section_v: np.ndarray


def quad_mass(U: np.ndarray, grids: Sequence[Grid1D]) -> float:
    """Midpoint quadrature of a sample tensor over all of R^n.

    The cotangent map turns each axis integral into
    (pi L / N) * sum of samples / sin(xi)^2.
    """
    U = np.asarray(U, dtype=float)
    shape = tuple(g.N for g in grids)
    if U.shape != shape:
        raise ValueError(f"field shape {U.shape} does not match grids {shape}")
    total = U
    for axis, g in enumerate(grids):
        w = np.sin(g.xi) ** 2
        total = total / w.reshape([g.N if k == axis else 1 for k in range(U.ndim)])
    factor = math.prod(math.pi * g.L / g.N for g in grids)
    return float(total.sum() * factor)


def self_similar_params(n: int, s: float, p: float) -> SelfSimilarParams:
    """Exponents of the self-similar variables for given (n, s, p).

    beta = 1/(sp - n(2-p)) and alpha = n beta; the mass-critical exponent
    p_c = 2n/(n+s) and the tail-transition exponent p_1 bracket the regime
    p in (p_c, 2) where mass-conserving self-similar decay holds.  Warns
    when p <= p_c; raises DegenerateExponent when the denominator of beta
    vanishes.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    s = float(s)
    p = float(p)
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s!r}")
    if not p >= 1:
        raise ValueError(f"p must be at least 1, got {p!r}")
    denom = s * p - n * (2.0 - p)
    if abs(denom) <= _DEGENERATE_TOL:
        raise DegenerateExponent(
            f"sp - n(2-p) = {denom!r} vanishes for n={n}, s={s}, p={p}"
        )
    p_c = 2.0 * n / (n + s)
    if p <= p_c:
        warnings.warn(
            f"p = {p} is at or below the mass-critical exponent p_c = {p_c:.6g}; "
            "mass-conserving self-similar decay is not expected",
            RuntimeWarning,
            stacklevel=2,
        )
    beta = 1.0 / denom
    p_1 = (s - n + math.sqrt(n * n + 6.0 * n * s + s * s)) / (2.0 * s)
    return SelfSimilarParams(alpha=n * beta, beta=beta, p_c=p_c, p_1=p_1)


def rescale_section(
    x: np.ndarray,
    u: np.ndarray,
    mass: float,
    t: float,
    params: SelfSimilarParams,
    p: float,
    s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Map a section (x, u) at time t into self-similar variables (r, v).

    Falls back to the identity map when mass or time is nonpositive, where
    the rescaling powers are undefined.
    """
    if mass <= 0.0 or t <= 0.0:
        return np.array(x, dtype=float), np.array(u, dtype=float)
    cr = mass ** ((2.0 - p) * params.beta) * t ** (-params.beta)
    cv = mass ** (-s * p * params.beta) * t**params.alpha
    return cr * np.asarray(x, dtype=float), cv * np.asarray(u, dtype=float)


def unrescale_section(
    r: np.ndarray,
    v: np.ndarray,
    mass: float,
    t: float,
    params: SelfSimilarParams,
    p: float,
    s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert rescale_section, dividing by the same precomputed factors."""
    if mass <= 0.0 or t <= 0.0:
        return np.array(r, dtype=float), np.array(v, dtype=float)
    cr = mass ** ((2.0 - p) * params.beta) * t ** (-params.beta)
    cv = mass ** (-s * p * params.beta) * t**params.alpha
    return np.asarray(r, dtype=float) / cr, np.asarray(v, dtype=float) / cv


def rk4_step(U: np.ndarray, dt: float, rhs: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Classical fourth-order Runge-Kutta update for dU/dt = rhs(U)."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    k1 = rhs(U)
    k2 = rhs(U + 0.5 * dt * k1)
    k3 = rhs(U + 0.5 * dt * k2)
    k4 = rhs(U + dt * k3)
    return U + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def config_grids(config: EvolutionConfig) -> list[Grid1D]:
    """The per-axis grids of a run; identical because N and L are common."""
    g = make_grid(config.N, config.L)
    return [g] * config.n


def run_evolution(
    config: EvolutionConfig,
    u0: np.ndarray,
    mem_budget: int = DEFAULT_MEM_BUDGET,
    threads: int | None = None,
) -> list[Snapshot]:
    """Integrate from u0 at t = 0, one Snapshot per requested time.

    The operator is applied through the batched route, which builds its
    kernel once per run, when the difference table fits the memory budget,
    else through the pointwise loop.  Raises NonFiniteState as soon as any
    field entry stops being finite.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != config.shape:
        raise ValueError(f"u0 shape {u0.shape} does not match {config.shape}")
    grids = config_grids(config)
    factor = build_axis_factors([config.N])[0]
    op = build_fracplap(
        [factor] * config.n, [config.L] * config.n, config.s, config.p
    )
    params = self_similar_params(config.n, config.s, config.p)
    m = u0.size
    batched = 8 * m * m <= mem_budget

    def rhs(U: np.ndarray) -> np.ndarray:
        if batched:
            return -apply_plap_batched(op, U, mem_budget)
        return -apply_plap_pointwise(op, U, threads)

    total_steps = max(1, round(config.t_end / config.dt))
    snap_steps = [
        min(total_steps, round(t / config.dt)) for t in config.snapshot_times
    ]
    x = grids[0].x
    mid = (config.N - 1) // 2
    section_idx = (slice(None),) + (mid,) * (config.n - 1)

    snapshots: list[Snapshot] = []

    def record(step: int, U: np.ndarray) -> None:
        t = step * config.dt
        mass = quad_mass(U, grids)
        section = np.array(U[section_idx], dtype=float)
        r, v = rescale_section(x, section, mass, t, params, config.p, config.s)
        snapshots.append(
            Snapshot(t=t, U=U.copy(), mass=mass, section_r=r, section_v=v)
        )

    U = u0.copy()
    for k in snap_steps:
        if k == 0:
            record(0, U)
    last_needed = max(snap_steps) if snap_steps else 0
    for step in range(1, max(total_steps, last_needed) + 1):
        U = rk4_step(U, config.dt, rhs)
        if not np.all(np.isfinite(U)):
            raise NonFiniteState(
                f"non-finite field entry after step {step} (t = {step * config.dt:g})"
            )
        for k in snap_steps:
            if k == step:
                record(step, U)
    return snapshots


def section_overlap_distance(
    profiles: Sequence[tuple[np.ndarray, np.ndarray]],
    samples: int = 2001,
) -> float:
    """Largest pairwise sup-distance between (r, v) profiles.

    Each profile is linearly interpolated onto a uniform grid spanning the
    intersection of their r-supports.
    """
    if len(profiles) < 2:
        return 0.0
    lo = max(float(np.min(r)) for r, _ in profiles)
    hi = min(float(np.max(r)) for r, _ in profiles)
    if not hi > lo:
        raise ValueError("profiles have no overlapping support")
    common = np.linspace(lo, hi, samples)
    interped = []
    for r, v in profiles:
        order = np.argsort(r)
        interped.append(np.interp(common, r[order], v[order]))
    worst = 0.0
    for i in range(len(interped)):
        for j in range(i + 1, len(interped)):
            worst = max(worst, float(np.max(np.abs(interped[i] - interped[j]))))
    return worst


_CONFIG_KEYS = {"n", "s", "p", "N", "L", "dt", "t_end", "snapshot_times"}


def load_config(path: str | Path) -> EvolutionConfig:
    """Read a flat key=value config file into an EvolutionConfig.

    Lines starting with '#' and blank lines are skipped; snapshot_times is
    a comma-separated list.  Unknown or missing keys are errors.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    missing = _CONFIG_KEYS - raw.keys()
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")
    times = tuple(float(tok) for tok in raw["snapshot_times"].split(",") if tok.strip())
    return EvolutionConfig(
        n=int(raw["n"]),
        s=float(raw["s"]),
        p=float(raw["p"]),
        N=int(raw["N"]),
        L=float(raw["L"]),
        dt=float(raw["dt"]),
        t_end=float(raw["t_end"]),
        snapshot_times=times,
    )
