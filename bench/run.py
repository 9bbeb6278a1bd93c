"""fracspec benchmark: one workload per process, timed end to end or by layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload evolve-line --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

The library is imported from the checkout's ``src`` directory, never from an
installed copy.  One iteration runs the workload's steps (set-up, solve and,
on fraclap-io, a CSV round trip) and then checks the outputs outside every
timed region.  Iterations repeat while the next one would end within
``--seconds`` seconds, and at least three of them run.  Each iteration also
repeats its set-up for more samples of it.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, each
time the median over the run's samples of it.  With ``--trace 1`` half the
time runs untraced and half traced, and the last line holds the per-layer
metrics plus ``trace.overhead_s``, the traced minus the untraced median wall
time.  The line before it is a JSON record of provenance, parameters,
per-iteration samples, check values and errors.

A raised ``NumericalContractError`` or a failed check counts as a failed
operation.  Exit code 0 means the run completed, whatever it measured; 2
means the checkout has no ``src/fracspec`` to benchmark.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2
# setup_s pools the iterations' set-ups with repeats: after its checks, each
# iteration runs its set-up again, back to back, for up to SETUP_SHARE of its
# own wall time.  A set-up of a millisecond so gets many samples, spread over
# the whole run.  A run holds at least SETUP_SAMPLES of them.
SETUP_SHARE = 0.05
SETUP_SAMPLES = 5
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
WORKLOAD_NAMES = ("evolve-line", "fraclap-io")


def use_checkout_src() -> None:
    """Put the checkout's ``src`` first on the path and import fracspec from it."""
    if not (SRC / "fracspec" / "__init__.py").is_file():
        print(f"error: no fracspec sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fracspec

    if Path(fracspec.__file__).resolve().parent != SRC / "fracspec":
        print(f"error: fracspec was imported from {fracspec.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


@dataclass
class Iteration:
    phases: dict[str, float] | None = None
    checks: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)
    setup_repeats: list[float] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def wall(self) -> float:
        return sum(self.phases.values())


def run_iteration(wl, workdir: Path, tracer=None, setup_share: float = 0.0) -> Iteration:
    """Time one pass over the workload's steps, then check the outputs.

    With ``setup_share`` > 0 the set-up is then repeated (see SETUP_SHARE).
    """
    import fracspec
    from workloads import PHASES

    it = Iteration()
    st = SimpleNamespace(workdir=workdir)
    phases = dict.fromkeys(PHASES, 0.0)
    try:
        if tracer:
            tracer.active = True
        try:
            for phase, step in wl.steps():
                t0 = perf_counter()
                step(st)
                phases[phase] += perf_counter() - t0
        finally:
            if tracer:
                tracer.active = False
                it.spans = tracer.take()
        it.phases = phases
        it.checks, it.failures = wl.check(st)
        if setup_share > 0:
            it.setup_repeats = repeat_setup(wl, st, phases["setup"], setup_share * it.wall)
    except fracspec.NumericalContractError as exc:
        it.failures = [f"{type(exc).__name__}: {exc}"]
    return it


def measure(
    wl, workdir: Path, seconds: float, min_iterations: int, tracer=None, setup_share: float = 0.0
) -> list[Iteration]:
    """Iterate until another iteration would end past ``seconds``."""
    out: list[Iteration] = []
    start = perf_counter()
    while True:
        out.append(run_iteration(wl, workdir, tracer, setup_share))
        elapsed = perf_counter() - start
        if len(out) >= min_iterations and elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def repeat_setup(wl, st: SimpleNamespace, estimate: float, budget: float) -> list[float]:
    """Time the workload's set-up steps again on an iteration's state.

    Repeats while the next repeat, judged by ``estimate`` and then by the
    last repeat, would end within ``budget`` seconds.
    """
    steps = [step for phase, step in wl.steps() if phase == "setup"]
    samples: list[float] = []
    start = perf_counter()
    while perf_counter() - start + estimate <= budget:
        t0 = perf_counter()
        for step in steps:
            step(st)
        estimate = perf_counter() - t0
        samples.append(estimate)
    return samples


def setup_seconds(wl) -> float:
    """Time the workload's set-up steps alone on a fresh state."""
    st = SimpleNamespace()
    t0 = perf_counter()
    for phase, step in wl.steps():
        if phase == "setup":
            step(st)
    return perf_counter() - t0


def warm_up(name: str, seed: int, workdir: Path) -> None:
    """Untimed: one tiny iteration of the workload plus a mid-size factorization.

    The first dense eigensolve of a process can take ten times longer than
    later ones, and the first use of each route pays one-off costs.
    """
    import fracspec
    from workloads import WORKLOADS

    run_iteration(WORKLOADS[name](seed, "tiny"), workdir)
    fracspec.build_axis_factors([256])


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance() -> dict:
    import numpy

    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        revision = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fracspec").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        # apply_plap_pointwise(threads=None) uses one thread per CPU
        "pointwise_default_threads": os.cpu_count(),
    }


def setup_samples(iterations: list[Iteration]) -> list[float]:
    """The set-up time of every completed iteration, and its repeats."""
    samples = []
    for it in iterations:
        if it.phases is not None:
            samples += [it.phases["setup"], *it.setup_repeats]
    return samples


def end_to_end(iterations: list[Iteration], setups: list[float]) -> dict[str, float]:
    timed = [it for it in iterations if it.phases is not None]
    return {
        "setup_s": median_or_zero(setups),
        "solve_s": median_or_zero(it.phases["solve"] for it in timed),
        "wall_s": median_or_zero(it.wall for it in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload in this process; returns the details and result records."""
    from workloads import WORKLOADS
    import tracing

    wl = WORKLOADS[name](seed, size)
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        warm_up(name, seed, workdir)
        setups: list[float] = []
        absent: list[str] = []
        if not trace:
            iterations = measure(wl, workdir, seconds, MIN_ITERATIONS, setup_share=SETUP_SHARE)
            setups = setup_samples(iterations)
            # top up to SETUP_SAMPLES, unless the workload raised
            if all(it.phases is not None for it in iterations):
                while len(setups) < SETUP_SAMPLES:
                    setups.append(setup_seconds(wl))
            values = end_to_end(iterations, setups)
            units = END_TO_END
        else:
            untraced = measure(wl, workdir, seconds / 2, MIN_TRACED_ITERATIONS)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(wl, workdir, seconds / 2, MIN_TRACED_ITERATIONS, tracer)
            finally:
                tracer.uninstall()
            absent = tracer.absent
            ok = [it for it in traced if it.phases is not None]
            values = tracing.layer_metrics([it.spans for it in ok] or [[]])
            values["trace.overhead_s"] = median_or_zero(it.wall for it in ok) - median_or_zero(
                it.wall for it in untraced if it.phases is not None
            )
            iterations = untraced + traced
            units = dict(tracing.PER_LAYER)
            units["trace.overhead_s"] = "s"

    failed = sum(it.failed for it in iterations)
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "params": wl.describe(),
        "provenance": provenance(),
        "iterations": [
            {"phases": it.phases, "checks": it.checks, "failures": it.failures} for it in iterations
        ],
        "setup_samples": len(setups),
        "failed_share": failed / len(iterations),
        "absent_layers": absent,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }
    return {"details": details, "result": result}


def run_all(args) -> int:
    """Run every workload in its own process and print each metric by name."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary[name] = result
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the same steps at toy sizes, for the self-test")
    args = ap.parse_args(argv)
    use_checkout_src()
    if args.workload == "all":
        return run_all(args)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(out["details"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
