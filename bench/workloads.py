"""The benchmark's workloads: inputs drawn from a seed, timed steps, checks.

A workload is a list of steps, each tagged with the end-to-end phase it
counts toward (``setup``, ``solve`` or ``io``).  The runner times the steps
and afterwards calls ``check``, outside every timed region, which returns the
measured error values and the list of checks that failed.

The seed draws only the field amplitude and the map scales, each from a
narrow band around the production value, so every seed costs the same work.
Sizes, orders, exponents and time steps are fixed per workload.

Every library call goes through the ``fracspec`` package attribute, so a
traced run that wraps the package bindings sees it.

``fracspec`` must be importable before this module is imported; ``run.py``
puts the checkout's ``src`` directory on the path first.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

import fracspec as fs

PHASES = ("setup", "solve", "io")

# band the seed draws amplitude and map-scale factors from
_BAND = (0.95, 1.05)

# gate 10's relative mass-drift tolerance
DRIFT_TOL = 1e-6


def closed_form(s: float, grids, amplitude: float) -> np.ndarray:
    """Order-s fractional Laplacian of amplitude * exp(-|x|^2) on the grids."""
    return amplitude * fs.exact_fraclap_gaussian(s, len(grids), fs.radius_squared(grids))


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class Workload:
    """Base class: seeded draws and parameter record."""

    name = ""
    sizes: dict[str, dict] = {}

    def __init__(self, seed: int, size: str = "full"):
        self.size = size
        self.params = dict(self.sizes[size])
        rng = np.random.default_rng(seed)
        self.amplitude = float(rng.uniform(*_BAND))
        self.scale_factors = [float(x) for x in rng.uniform(*_BAND, size=2)]

    def steps(self):
        raise NotImplementedError

    def check(self, st: SimpleNamespace) -> tuple[dict, list[str]]:
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "size": self.size,
            "amplitude": self.amplitude,
            "scale_factors": self.scale_factors,
            **self.params,
        }


class EvolveLine(Workload):
    """A prefix of ``run_evolution`` on the common-N, common-L grid."""

    name = "evolve-line"
    sizes = {
        "full": dict(n=1, s=0.8, p=1.8, N=501, L=10.0, dt=1e-3, steps=60),
        "tiny": dict(n=1, s=0.8, p=1.8, N=31, L=10.0, dt=1e-3, steps=4),
    }

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        p = self.params
        self.L = p["L"] * self.scale_factors[0]
        t_end = p["steps"] * p["dt"]
        self.config = fs.EvolutionConfig(
            n=p["n"], s=p["s"], p=p["p"], N=p["N"], L=self.L, dt=p["dt"],
            t_end=t_end, snapshot_times=((p["steps"] // 2) * p["dt"], t_end),
        )

    def steps(self):
        return [("setup", self.setup), ("solve", self.solve)]

    def setup(self, st):
        # run_evolution builds its own operator; this is the set-up a caller
        # pays to hold one, and the rebuild inside run_evolution is solve time
        c = self.config
        grid = fs.make_grid(c.N, c.L)
        st.grids = [grid] * c.n
        factor = fs.build_axis_factors([c.N])[0]
        st.op = fs.build_fracplap([factor] * c.n, [c.L] * c.n, c.s, c.p)
        st.u0 = self.amplitude * fs.gaussian_field(st.grids)

    def solve(self, st):
        st.snaps = fs.run_evolution(self.config, st.u0)

    def check(self, st):
        values, failures = {}, []
        finite = all(bool(np.all(np.isfinite(snap.U))) for snap in st.snaps)
        m0 = fs.quad_mass(st.u0, st.grids)
        drift = max(abs(snap.mass - m0) for snap in st.snaps) / abs(m0)
        values.update(finite=finite, mass_drift=drift)
        if not finite:
            failures.append("state is not finite")
        if not drift <= DRIFT_TOL:
            failures.append(f"mass drift {drift:.3e} above {DRIFT_TOL:g}")
        return values, failures

    def describe(self):
        return {**super().describe(), "L_drawn": self.L}


class FraclapIO(Workload):
    """The linear operator on a product plane with drawn map scales."""

    name = "fraclap-io"
    sizes = {
        "full": dict(dims=(1000, 1001), scales=(10.0, 10.1), s=0.3, tol=1e-10),
        "tiny": dict(dims=(16, 17), scales=(3.0, 3.1), s=0.3, tol=1e-3),
    }

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self.scales = tuple(
            L * f for L, f in zip(self.params["scales"], self.scale_factors)
        )

    def steps(self):
        return [
            ("setup", self.setup),
            ("solve", self.apply_with_reference),
            ("io", self.round_trip),
            ("solve", self.apply_read_back),
        ]

    def setup(self, st):
        dims = self.params["dims"]
        st.grids = [fs.make_grid(N, L) for N, L in zip(dims, self.scales)]
        st.factors = fs.build_axis_factors(dims)
        st.U = self.amplitude * fs.gaussian_field(st.grids)
        st.op = fs.build_fraclap(st.factors, self.scales, self.params["s"])

    def apply_with_reference(self, st):
        # mirrors `fracspec fraclap --compare-exact`
        st.field = fs.apply_fraclap(st.op, st.U)
        st.exact = closed_form(self.params["s"], st.grids, self.amplitude)

    def round_trip(self, st):
        path = st.workdir / "field.csv"
        fs.write_field_csv(path, st.field)
        st.back = fs.read_field_csv(path)

    def apply_read_back(self, st):
        # a second run fed the written field, as with `--field csv:PATH`
        st.twice = fs.apply_fraclap(st.op, st.back)

    def check(self, st):
        values, failures = {}, []
        self._error_check("max_error", st.field, st.exact, values, failures)
        # applying the order-s operator twice is the order-2s operator
        twice = closed_form(2.0 * self.params["s"], st.grids, self.amplitude)
        self._error_check("twice_max_error", st.twice, twice, values, failures)
        exact = bitwise_equal(st.back, st.field)
        values["csv_round_trip_exact"] = exact
        if not exact:
            failures.append("CSV round trip is not bitwise exact")
        return values, failures

    def _error_check(self, label, got, want, values, failures):
        err = float(np.max(np.abs(got - want)))
        tol = self.params["tol"]
        values[label] = err
        if not err <= tol:
            failures.append(f"{label} {err:.3e} above {tol:g}")

    def describe(self):
        return {**super().describe(), "scales_drawn": list(self.scales)}


WORKLOADS = {w.name: w for w in (EvolveLine, FraclapIO)}
