"""Time integration of u_t + (-Delta)^s_p u = 0 with self-similar rescaling.

Classical fixed-step RK4 drives the nonlinear operator; the quadrature mass
M(t) is tracked because the rescaling into self-similar variables

    r = M(t)^((2-p) beta) t^(-beta) x,    v = u M(t)^(-s p beta) t^alpha

uses the numerically preserved mass rather than the analytic one.  Snapshots
are taken at the completed step nearest each requested time and carry a 1-D
section along the first axis (all other indices at the middle node) plus its
rescaled profile.

The grid is mirror-exact and the operator commutes with every axis mirror,
and with every axis permutation when N and L are common, so the exact flow
keeps every symmetry of u0.  A run therefore evolves one value per orbit of
the largest group leaving u0 unchanged under ``==`` (``invariant_orbits``;
+0 and -0 count as equal), builds that group's folded kernel once before the
first step, circulant-packed so that each pair of orbits is held and
evaluated once, evaluates every right-hand side with
``fracplap.apply_folded`` on it, and unfolds to the full field only to
record a snapshot.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .checks import checked_dimension, checked_exponent, checked_field, checked_nodes, checked_order, checked_positive
from .errors import DegenerateExponent, NonFiniteState
from .fraclap import build_axis_factors
from .fracplap import apply_folded, build_fracplap, folded_kernel, invariant_orbits
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
        object.__setattr__(self, "n", checked_dimension(self.n))
        object.__setattr__(self, "s", checked_order(self.s))
        object.__setattr__(self, "p", checked_exponent(self.p))
        object.__setattr__(self, "N", checked_nodes(self.N))
        for name in ("L", "dt", "t_end"):
            object.__setattr__(self, name, checked_positive(name, getattr(self, name)))
        times = tuple(float(t) for t in self.snapshot_times)
        if not times:
            raise ValueError("snapshot_times must name at least one time")
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
    """State recorded at one time: full field, mass, the 1-D section ``section_u`` and its rescaled image."""

    t: float
    U: np.ndarray
    mass: float
    section_u: np.ndarray
    section_r: np.ndarray
    section_v: np.ndarray


def quad_mass(U: np.ndarray, grids: Sequence[Grid1D]) -> float:
    """Midpoint quadrature of a sample tensor over all of R^n.

    The cotangent map turns each axis integral into
    (pi L / N) * sum of samples / sin(xi)^2, summed in C order in any layout.
    """
    U = np.asarray(checked_field(U, [g.N for g in grids]), order="C")
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
    n = checked_dimension(n)
    s = checked_order(s)
    p = checked_exponent(p)
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


def rk4_step(U: np.ndarray, dt: float, rhs: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Classical fourth-order Runge-Kutta update for dU/dt = rhs(U)."""
    dt = checked_positive("dt", dt)
    k1 = rhs(U)
    k2 = rhs(U + 0.5 * dt * k1)
    k3 = rhs(U + 0.5 * dt * k2)
    k4 = rhs(U + dt * k3)
    return U + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def config_grids(config: EvolutionConfig) -> list[Grid1D]:
    """The per-axis grids of a run; identical because N and L are common."""
    g = make_grid(config.N, config.L)
    return [g] * config.n


def run_evolution(config: EvolutionConfig, u0: np.ndarray) -> list[Snapshot]:
    """Integrate from u0 at t = 0, one Snapshot per requested time.

    The state is the vector of values at the representatives of u0's
    ``invariant_orbits``, and every right-hand side is ``apply_folded`` on
    it with the folded kernel, built once before the first step, so a
    kernel too large for memory fails there.  A u0 with no symmetry takes
    the trivial group, whose kernel packs the full M x M one.  Raises
    NonFiniteState as soon as any field entry stops being finite.
    """
    u0 = checked_field(u0, config.shape)
    grids = config_grids(config)
    op = build_fracplap(
        build_axis_factors([config.N] * config.n), [config.L] * config.n, config.s, config.p
    )
    orbits = invariant_orbits(u0, op.scales)[0]
    params = self_similar_params(config.n, config.s, config.p)
    kernel = folded_kernel(op, orbits)

    def rhs(u: np.ndarray) -> np.ndarray:
        return -apply_folded(op, orbits, u, kernel)

    total_steps = max(1, round(config.t_end / config.dt))
    snap_steps = [
        min(total_steps, round(t / config.dt)) for t in config.snapshot_times
    ]
    x = grids[0].x
    section_idx = (slice(None),) + ((config.N - 1) // 2,) * (config.n - 1)  # middle node of every other axis

    snapshots: list[Snapshot] = []

    def record(step: int, u: np.ndarray) -> None:
        t = step * config.dt
        U = orbits.unfold(u)
        mass = quad_mass(U, grids)
        section = np.array(U[section_idx], dtype=float)
        r, v = rescale_section(x, section, mass, t, params, config.p, config.s)
        snapshots.append(
            Snapshot(t=t, U=U, mass=mass, section_u=section, section_r=r, section_v=v)
        )

    u = orbits.fold(u0)
    for k in snap_steps:
        if k == 0:
            record(0, u)
    for step in range(1, total_steps + 1):
        u = rk4_step(u, config.dt, rhs)
        if not np.all(np.isfinite(u)):
            raise NonFiniteState(
                f"non-finite field entry after step {step} (t = {step * config.dt:g})"
            )
        for k in snap_steps:
            if k == step:
                record(step, u)
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


# how load_config reads each field annotation of EvolutionConfig, and what it asks for
_CONFIG_VALUES = {"int": (int, "an integer"), "float": (float, "a number"),
                  "tuple[float, ...]": (lambda text: tuple(float(t) for t in text.split(",") if t.strip()),
                                        "comma-separated numbers")}


def load_config(path: str | Path) -> EvolutionConfig:
    """Read a flat key=value config file into an EvolutionConfig.

    Lines starting with '#' and blank lines are skipped; snapshot_times is
    a comma-separated list.  Every error names the file, and the line of an
    unknown or duplicate key or of a value of the wrong type.
    """
    kinds = {f.name: _CONFIG_VALUES[f.type] for f in fields(EvolutionConfig)}
    values: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in kinds:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        read, what = kinds[key]
        try:
            values[key] = read(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key} must be {what}, got {value!r}") from None
    missing = kinds.keys() - values.keys()
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")
    try:
        return EvolutionConfig(**values)
    except ValueError as exc:  # a range check of the assembled config
        raise ValueError(f"{path}: {exc}") from None
