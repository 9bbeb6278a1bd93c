"""Command-line front end.

Subcommands: nodes, factor, fraclap, fracplap, evolve, validate.
Every run writes its data files plus a ``<subcommand>_manifest.json``
recording the resolved parameters, per-phase wall times, the output
file list and the process's peak resident set size.  Exit codes: 0
success, 1 parameter error, 2 numerical-contract violation (the message
names the violated contract).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .checks import checked_exponent, checked_field, checked_order
from .errors import NumericalContractError
from .eigen import condition_number, factorize
from .evolution import config_grids, load_config, quad_mass, run_evolution, section_overlap_distance
from .fields import gaussian_field, lorentzian_field, radius_squared
from .fraclap import apply_fraclap, build_axis_factors, build_fraclap
from .fracplap import apply_plap, build_fracplap, invariant_orbits
from .grid import build_diff_matrices, make_grid
from .oracles import exact_fraclap_algebraic, exact_fraclap_gaussian, self_checks
from .tensor_ops import mirror_axes, read_field_csv, write_csv, write_field_csv


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_list(text: str, kind: type) -> tuple:
    """Comma-separated ``int`` or ``float`` values."""
    try:
        return tuple(kind(tok) for tok in text.split(","))
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ValueError(f"expected comma-separated {what}, got {text!r}") from None


def _make_field(selector: str, grids, dims):
    """Resolve a --field argument to (samples, exact).

    ``exact(s, n, r2)`` is a built-in field's closed-form image, and None for a csv: field.
    """
    kind, sep, arg = selector.partition(":")
    if selector == "gaussian":
        return gaussian_field(grids), exact_fraclap_gaussian
    if kind == "lorentzian":
        r = float(arg) if sep else 1.0
        return lorentzian_field(grids, r), lambda s, n, r2: exact_fraclap_algebraic(s, r, n, r2)
    if kind == "csv" and sep:
        U = checked_field(read_field_csv(arg), dims)
        bad = np.argwhere(~np.isfinite(U))
        if bad.size:  # one NaN or inf would spread to every output entry
            value, index = float(U[tuple(bad[0])]), tuple((bad[0] + 1).tolist())
            raise ValueError(f"field {selector!r} holds the non-finite value {value} at index {index}")
        return U, None
    raise ValueError(
        f"unknown field {selector!r}; expected gaussian, lorentzian[:r], or csv:PATH"
    )


def _grid_setup(args):
    """Parse --dims/--scales into (dims, scales, grids).

    Refuses --compare-exact with a csv: field here, before any work starts.
    """
    dims = _parse_list(args.dims, int)
    scales = _parse_list(args.scales, float)
    if len(dims) != len(scales):
        raise ValueError(f"--dims has {len(dims)} entries but --scales has {len(scales)}")
    if args.compare_exact and args.field.startswith("csv:"):
        raise ValueError("--compare-exact requires a built-in field (gaussian or lorentzian)")
    return dims, scales, [make_grid(N, L) for N, L in zip(dims, scales)]


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _peak_rss_mb() -> float | None:
    """The process's peak resident set size so far in MB (2**20 bytes); None without ``resource``."""
    try:
        import resource
    except ImportError:  # not on Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)  # bytes on macOS, KiB on Linux


def _manifest(out_dir: Path, subcommand: str, params: dict, timings: dict, outputs: list[str],
              **extra) -> None:
    path = out_dir / f"{subcommand}_manifest.json"
    _write_json(
        path,
        {
            "subcommand": subcommand,
            "version": __version__,
            "parameters": params,
            "timings": timings,
            "outputs": outputs,
            "peak_rss_mb": _peak_rss_mb(),
            **extra,
        },
    )


def _cmd_nodes(args) -> int:
    t0 = time.perf_counter()
    grid = make_grid(args.n, args.scale)
    name = "nodes.csv"
    write_csv(args.out_dir / name, ["j", "xi", "x"], [np.arange(1, grid.N + 1), grid.xi, grid.x])
    timings = {"total": time.perf_counter() - t0}
    _manifest(args.out_dir, "nodes", {"n": args.n, "scale": args.scale}, timings, [name])
    print(f"wrote {args.out_dir / name}")
    return 0


def _cmd_factor(args) -> int:
    t0 = time.perf_counter()
    grid = make_grid(args.n, args.scale)
    factor = factorize(grid)
    t_factorize = time.perf_counter() - t0
    Dxx = build_diff_matrices(grid).Dxx
    scale2 = args.scale * args.scale
    P, Pinv = factor.P, factor.Pinv
    recon = P @ (factor.lam[:, None] * Pinv)
    residual = float(np.max(np.abs(recon - Dxx)) / np.max(np.abs(Dxx)))
    report = {
        "N": factor.N,
        "min_lambda": float(np.min(factor.lam)) / scale2,
        "raw_zero_lambda": factor.raw_zero_lambda / scale2,
        "condition_number": condition_number(P),
        "reconstruction_residual": residual,
        "inverse_residual": float(np.max(np.abs(Pinv @ P - np.eye(factor.N)))),
    }
    name = "factor_report.json"
    _write_json(args.out_dir / name, report)
    timings = {"factorize": t_factorize, "total": time.perf_counter() - t0}
    _manifest(args.out_dir, "factor", {"n": args.n, "scale": args.scale}, timings, [name])
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_fraclap(args) -> int:
    dims, scales, grids = _grid_setup(args)
    checked_order(args.s)
    U, exact = _make_field(args.field, grids, dims)
    t0 = time.perf_counter()
    factors = build_axis_factors(dims)
    t_factorize = time.perf_counter() - t0
    op = build_fraclap(factors, scales, args.s)
    t_build = time.perf_counter() - t0
    t0 = time.perf_counter()
    out = apply_fraclap(op, U)
    t_core = time.perf_counter() - t0
    # the axes along which apply_fraclap ran only the even blocks
    folded = [axis for axis, mirrored in enumerate(mirror_axes(U)) if mirrored]
    report = {"wall_time_core": t_core, "mirror_folded_axes": folded}
    return _field_run_outputs(args, grids, exact, out, report,
                              {"factorize": t_factorize, "build": t_build, "core": t_core}, mirror_folded_axes=folded)


def _field_run_outputs(args, grids, exact, out, report, timings, **extra) -> int:
    """The shared end of ``fraclap`` and ``fracplap``.

    With --compare-exact the max error against ``exact`` and its time join
    ``report``; then come the timed ``<subcommand>_field.csv`` write, the
    report, the manifest with ``extra`` at its top level, and the print.
    """
    t_oracle = 0.0
    if args.compare_exact:
        t0 = time.perf_counter()
        reference = exact(args.s, len(grids), radius_squared(grids))
        t_oracle = time.perf_counter() - t0
        report["max_error"] = float(np.max(np.abs(out - reference)))
    report["wall_time_oracle"] = t_oracle
    csv_name = f"{args.subcommand}_field.csv"
    t0 = time.perf_counter()
    sidecar = write_field_csv(args.out_dir / csv_name, out)
    timings.update(write=time.perf_counter() - t0, oracle=t_oracle)
    name = f"{args.subcommand}_report.json"
    _write_json(args.out_dir / name, report)
    # p is an argument of fracplap only
    params = {"dims": [g.N for g in grids], "scales": [g.L for g in grids],
              **{key: getattr(args, key) for key in ("s", "p", "field", "compare_exact")
                 if hasattr(args, key)}}
    _manifest(args.out_dir, args.subcommand, params, timings,
              [csv_name, os.path.basename(sidecar), name], **extra)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _warn_sp_range(s: float, p: float) -> None:
    if s * p >= 2.0:
        print(
            f"warning: s*p = {s * p:g} is at least 2; the pointwise reduction is "
            "only known to represent the singular-integral operator for s*p < 2, "
            "so these values are formula-defined",
            file=sys.stderr,
        )


def _cmd_fracplap(args) -> int:
    if args.compare_exact and args.p != 2.0:
        raise ValueError("--compare-exact is only available for p = 2")
    dims, scales, grids = _grid_setup(args)
    checked_order(args.s)
    checked_exponent(args.p)
    U, exact = _make_field(args.field, grids, dims)
    t0 = time.perf_counter()
    factors = build_axis_factors(dims)
    t_factorize = time.perf_counter() - t0
    op = build_fracplap(factors, scales, args.s, args.p)
    t_build = time.perf_counter() - t0
    _warn_sp_range(args.s, args.p)
    route = invariant_orbits(U, scales)[1]
    t0 = time.perf_counter()
    out = apply_plap(op, U)
    t_core = time.perf_counter() - t0
    return _field_run_outputs(args, grids, exact, out, {"wall_time": t_core, "route": route},
                              {"factorize": t_factorize, "build": t_build, "core": t_core}, route=route)


def _cmd_evolve(args) -> int:
    config = load_config(args.config)
    names = [f"snap_t{t:g}.csv" for t in config.snapshot_times]
    if len(set(names)) < len(names):
        raise ValueError(f"snapshot_times {list(config.snapshot_times)} repeat a file name: {names}")
    _warn_sp_range(config.s, config.p)
    grids = config_grids(config)
    u0 = gaussian_field(grids)
    mass0 = quad_mass(u0, grids)
    route = invariant_orbits(u0, [config.L] * config.n)[1]
    t0 = time.perf_counter()
    snapshots = run_evolution(config, u0)
    wall = time.perf_counter() - t0
    outputs = []
    t0 = time.perf_counter()
    for name, snap in zip(names, snapshots):
        write_csv(args.out_dir / name, ["x", "u", "r", "v"],
                  [grids[0].x, snap.section_u, snap.section_r, snap.section_v])
        outputs.append(name)
    t_write = time.perf_counter() - t0
    masses = [[snap.t, snap.mass] for snap in snapshots]
    if mass0 != 0.0:
        drift = max(abs(snap.mass - mass0) for snap in snapshots) / abs(mass0)
    else:
        drift = max(abs(snap.mass) for snap in snapshots)
    report = {
        "initial_mass": mass0,
        "gaussian_mass": float(np.pi ** (config.n / 2)),
        "masses": masses,
        "profile_distance": section_overlap_distance([(snap.section_r, snap.section_v) for snap in snapshots]),
        "drift": drift,
        "wall_time": wall,
        "route": route,
    }
    name = "evolve_report.json"
    _write_json(args.out_dir / name, report)
    outputs.append(name)
    params = {"config": str(args.config), **dataclasses.asdict(config)}
    _manifest(args.out_dir, "evolve", params, {"integration": wall, "write": t_write}, outputs,
              route=route)
    print(json.dumps({"drift": drift, "masses": masses}, indent=2))
    return 0


def _cmd_validate(args) -> int:
    t0 = time.perf_counter()
    checks = self_checks(args.suite)
    all_pass = all(c["pass"] for c in checks)
    report = {"suite": args.suite, "checks": checks, "all_pass": all_pass}
    name = "validate_report.json"
    _write_json(args.out_dir / name, report)
    _manifest(args.out_dir, "validate", {"suite": args.suite},
              {"total": time.perf_counter() - t0}, [name])
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if all_pass else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="fracspec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fracspec {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory for output files")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("nodes", parents=[common], help="emit the mapped collocation nodes")
    p.add_argument("--n", type=int, required=True, help="node count")
    p.add_argument("--scale", type=float, required=True, help="map scale L")
    p.set_defaults(func=_cmd_nodes)

    p = sub.add_parser("factor", parents=[common],
                       help="eigen-factorize the second-derivative matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("fraclap", parents=[common], help="apply the fractional Laplacian")
    p.add_argument("--dims", required=True, help="comma-separated node counts")
    p.add_argument("--scales", required=True, help="comma-separated map scales")
    p.add_argument("--s", type=float, required=True, help="fractional order in (0,1)")
    p.add_argument("--field", default="gaussian",
                   help="gaussian | lorentzian[:r] | csv:PATH")
    p.add_argument("--compare-exact", action="store_true",
                   help="also evaluate the closed-form reference and report max error")
    p.set_defaults(func=_cmd_fraclap)

    p = sub.add_parser("fracplap", parents=[common], help="apply the fractional p-Laplacian")
    p.add_argument("--dims", required=True)
    p.add_argument("--scales", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--field", default="gaussian")
    p.add_argument("--compare-exact", action="store_true",
                   help="compare against the closed form (p = 2 only)")
    p.set_defaults(func=_cmd_fracplap)

    p = sub.add_parser("evolve", parents=[common], help="integrate the evolution equation")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("validate", parents=[common],
                       help="run the reference-oracle self checks")
    p.add_argument("--suite", choices=("lemmas", "hyp", "gamma"), required=True)
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except NumericalContractError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # an unreadable config or field file is a bad parameter
        print(f"parameter error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
