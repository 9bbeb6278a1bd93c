"""End-to-end command-line checks, each invocation in a subprocess.

The pre-flight refusal checks call ``cli.main`` in-process instead, so they
can replace the factorization with a function that fails if it runs.
"""

import csv
import filecmp
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "fracspec", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------------
# top level
# ----------------------------------------------------------------------------


def test_no_arguments_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 1


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("fracspec ")


def test_every_option_of_every_subcommand_has_help():
    import argparse

    from fracspec import cli

    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"nodes", "factor", "fraclap", "fracplap", "evolve", "validate"}
    for name, parser in sub.choices.items():
        for action in parser._actions:
            assert action.help and action.help.strip(), (name, action.option_strings)
    compare = {a.dest: a.help for a in sub.choices["fracplap"]._actions}["compare_exact"]
    assert "p = 2" in compare


def test_missing_required_argument_exits_one(tmp_path):
    proc = run_cli("nodes", "--scale", "2.0", "--out-dir", str(tmp_path))
    assert proc.returncode == 1


# ----------------------------------------------------------------------------
# nodes
# ----------------------------------------------------------------------------


def test_nodes_writes_full_precision_csv(tmp_path):
    proc = run_cli("nodes", "--n", "5", "--scale", "2.0", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "nodes.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "xi", "x"]
    assert len(rows) == 6
    # 17 significant digits round-trip the doubles exactly
    assert float(rows[1][2]) == 2.0 / math.tan(math.pi / 10.0)
    assert float(rows[3][2]) == 0.0
    manifest = read_json(tmp_path / "nodes_manifest.json")
    assert manifest["subcommand"] == "nodes"
    assert manifest["outputs"] == ["nodes.csv"]
    assert "total" in manifest["timings"]
    # the peak resident set of the run's own process, in MB
    assert 1.0 < manifest["peak_rss_mb"] < 4096.0


def test_manifest_peak_rss_is_null_without_resource(tmp_path, monkeypatch):
    from fracspec import cli

    monkeypatch.setitem(sys.modules, "resource", None)  # the next import raises ImportError
    assert cli.main(["nodes", "--n", "5", "--scale", "2.0", "--out-dir", str(tmp_path)]) == 0
    assert read_json(tmp_path / "nodes_manifest.json")["peak_rss_mb"] is None


# pins nodes.csv byte for byte: integer j, 17-digit floats, "\n" endings
GOLDEN_NODES_CSV = """\
j,xi,x
1,0.31415926535897931,6.155367074350508
2,0.94247779607693793,1.453085056010722
3,1.5707963267948966,0
4,2.1991148575128552,-1.453085056010722
5,2.8274333882308138,-6.155367074350508
"""


def test_nodes_csv_golden_bytes(tmp_path):
    proc = run_cli("nodes", "--n", "5", "--scale", "2.0", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "nodes.csv").read_bytes() == GOLDEN_NODES_CSV.encode()


# ----------------------------------------------------------------------------
# factor
# ----------------------------------------------------------------------------


def test_factor_report_fields_and_scale_division(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert run_cli("factor", "--n", "24", "--scale", "1.0", "--out-dir", str(a_dir)).returncode == 0
    assert run_cli("factor", "--n", "24", "--scale", "2.0", "--out-dir", str(b_dir)).returncode == 0
    a = read_json(a_dir / "factor_report.json")
    b = read_json(b_dir / "factor_report.json")
    for key in ("N", "min_lambda", "raw_zero_lambda", "condition_number", "reconstruction_residual",
                "inverse_residual"):
        assert key in a
    assert a["N"] == 24
    assert a["min_lambda"] < 0
    assert a["min_lambda"] == 4.0 * b["min_lambda"]
    assert a["condition_number"] == b["condition_number"]
    assert a["reconstruction_residual"] <= 1e-7
    assert a["inverse_residual"] <= 1e-12


@pytest.mark.parametrize("argv, whole", [
    (["factor", "--n", "24", "--scale", "1.0"], "total"),
    (["fraclap", "--dims", "8,9", "--scales", "2.0,2.0", "--s", "0.5"], "build"),
    (["fracplap", "--dims", "8,9", "--scales", "2.0,2.0", "--s", "0.5", "--p", "1.7"], "build"),
])
def test_manifests_time_the_factorization_apart(argv, whole, tmp_path):
    from fracspec import cli

    assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 0
    timings = read_json(tmp_path / f"{argv[0]}_manifest.json")["timings"]
    assert 0.0 <= timings["factorize"] <= timings[whole]


# ----------------------------------------------------------------------------
# fraclap
# ----------------------------------------------------------------------------


def test_fraclap_against_exact_reference(tmp_path):
    proc = run_cli(
        "fraclap", "--dims", "17,18", "--scales", "3.0,3.1", "--s", "0.37",
        "--compare-exact", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("fraclap_field.csv", "fraclap_field.json", "fraclap_report.json",
                 "fraclap_manifest.json"):
        assert (tmp_path / name).exists()
    report = read_json(tmp_path / "fraclap_report.json")
    assert report["max_error"] <= 1e-3
    assert report["wall_time_core"] >= 0.0
    manifest = read_json(tmp_path / "fraclap_manifest.json")
    # the Gaussian is mirror-symmetric along both axes
    assert report["mirror_folded_axes"] == manifest["mirror_folded_axes"] == [0, 1]
    assert manifest["parameters"] == {"dims": [17, 18], "scales": [3.0, 3.1], "s": 0.37,
                                      "field": "gaussian", "compare_exact": True}
    assert manifest["outputs"] == ["fraclap_field.csv", "fraclap_field.json", "fraclap_report.json"]
    assert manifest["timings"]["write"] >= 0.0


def test_fraclap_accepts_csv_field(tmp_path):
    from fracspec import gaussian_field, make_grid, write_field_csv

    grids = [make_grid(8, 2.0), make_grid(9, 2.5)]
    write_field_csv(tmp_path / "in.csv", gaussian_field(grids))
    proc = run_cli(
        "fraclap", "--dims", "8,9", "--scales", "2.0,2.5", "--s", "0.5",
        "--field", f"csv:{tmp_path / 'in.csv'}", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    # a field shifted along the first axis keeps only the second axis's mirror
    U = gaussian_field(grids)
    U[0] += 1.0
    write_field_csv(tmp_path / "in.csv", U)
    proc = run_cli(
        "fraclap", "--dims", "8,9", "--scales", "2.0,2.5", "--s", "0.5",
        "--field", f"csv:{tmp_path / 'in.csv'}", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert read_json(tmp_path / "fraclap_report.json")["mirror_folded_axes"] == [1]
    assert read_json(tmp_path / "fraclap_manifest.json")["mirror_folded_axes"] == [1]


def test_fraclap_rejects_mismatched_csv_shape(tmp_path):
    from fracspec import gaussian_field, make_grid, write_field_csv

    grids = [make_grid(8, 2.0)]
    write_field_csv(tmp_path / "in.csv", gaussian_field(grids))
    proc = run_cli(
        "fraclap", "--dims", "9", "--scales", "2.0", "--s", "0.5",
        "--field", f"csv:{tmp_path / 'in.csv'}", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 1
    assert "parameter error" in proc.stderr


@pytest.mark.parametrize("command", [("fraclap",), ("fracplap", "--p", "2")],
                         ids=["fraclap", "fracplap"])
def test_compare_exact_refuses_csv_field_before_any_work(tmp_path, command):
    from fracspec import gaussian_field, make_grid, write_field_csv

    write_field_csv(tmp_path / "in.csv", gaussian_field([make_grid(8, 2.0)]))
    out_dir = tmp_path / "out"
    proc = run_cli(
        *command, "--dims", "8", "--scales", "2.0", "--s", "0.5",
        "--field", f"csv:{tmp_path / 'in.csv'}", "--compare-exact",
        "--out-dir", str(out_dir),
    )
    assert proc.returncode == 1
    assert "built-in field" in proc.stderr
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command", [("fraclap",), ("fracplap", "--p", "1.7")],
                         ids=["fraclap", "fracplap"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_csv_field_is_refused_before_factorization(tmp_path, monkeypatch, capsys,
                                                              command, bad):
    """In-process, with the factorization replaced by a function that fails."""
    from fracspec import cli, gaussian_field, make_grid, write_field_csv

    U = gaussian_field([make_grid(6, 2.0), make_grid(7, 2.0)])
    U[2, 4] = bad
    write_field_csv(tmp_path / "in.csv", U)

    def no_factorization(dims):
        raise AssertionError("build_axis_factors ran on a non-finite field")

    monkeypatch.setattr(cli, "build_axis_factors", no_factorization)
    out_dir = tmp_path / "out"
    code = cli.main([*command, "--dims", "6,7", "--scales", "2.0,2.0", "--s", "0.5",
                     "--field", f"csv:{tmp_path / 'in.csv'}", "--out-dir", str(out_dir)])
    assert code == 1
    assert f"non-finite value {bad} at index (3, 5)" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command", [("fraclap",), ("fracplap", "--p", "1.7")],
                         ids=["fraclap", "fracplap"])
@pytest.mark.parametrize("missing", ["in.csv", "in.json"], ids=["csv", "sidecar"])
def test_missing_field_file_is_a_parameter_error(tmp_path, monkeypatch, capsys, command, missing):
    """In-process, with the factorization replaced by a function that fails."""
    from fracspec import cli, gaussian_field, make_grid, write_field_csv

    write_field_csv(tmp_path / "in.csv", gaussian_field([make_grid(6, 2.0)]))
    (tmp_path / missing).unlink()

    def no_factorization(dims):
        raise AssertionError("build_axis_factors ran without a field")

    monkeypatch.setattr(cli, "build_axis_factors", no_factorization)
    out_dir = tmp_path / "out"
    code = cli.main([*command, "--dims", "6", "--scales", "2.0", "--s", "0.5",
                     "--field", f"csv:{tmp_path / 'in.csv'}", "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("parameter error: ") and str(tmp_path / missing) in err
    assert "Traceback" not in err
    assert list(out_dir.iterdir()) == []


def test_fraclap_rejects_unknown_field(tmp_path):
    proc = run_cli(
        "fraclap", "--dims", "8", "--scales", "2.0", "--s", "0.5",
        "--field", "sombrero", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 1


@pytest.mark.parametrize(
    "argv, match",
    [
        (("fraclap", "--s", "1.5"), "s must lie"),
        (("fraclap", "--s", "0.5", "--field", "nope"), "unknown field"),
        (("fracplap", "--s", "1.5", "--p", "2"), "s must lie"),
        (("fracplap", "--s", "0.5", "--p", "0.5"), "p must be"),
        (("fracplap", "--s", "0.5", "--p", "inf"), "p must be finite"),
        (("fracplap", "--s", "0.5", "--p", "2", "--field", "nope"), "unknown field"),
    ],
    ids=["fraclap-s", "fraclap-field", "fracplap-s", "fracplap-p", "fracplap-p-inf", "fracplap-field"],
)
def test_bad_parameters_are_refused_before_factorization(tmp_path, monkeypatch, capsys,
                                                         argv, match):
    """In-process, with the factorization replaced by a function that fails."""
    from fracspec import cli

    def no_factorization(dims):
        raise AssertionError("build_axis_factors ran before the parameters were checked")

    monkeypatch.setattr(cli, "build_axis_factors", no_factorization)
    code = cli.main([*argv, "--dims", "8,9", "--scales", "2.0,2.0", "--out-dir", str(tmp_path)])
    assert code == 1
    assert match in capsys.readouterr().err


def test_fraclap_rejects_dims_scales_mismatch(tmp_path):
    proc = run_cli(
        "fraclap", "--dims", "8,9", "--scales", "2.0", "--s", "0.5",
        "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 1


# ----------------------------------------------------------------------------
# fracplap
# ----------------------------------------------------------------------------


def test_fracplap_cross_checks_modes_and_reference(tmp_path):
    proc = run_cli("fracplap", "--dims", "12", "--scales", "2.0", "--s", "0.4", "--p", "2.0",
                   "--compare-exact", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    report = read_json(tmp_path / "fracplap_report.json")
    assert set(report) == {"max_error", "wall_time", "wall_time_oracle", "route"}
    assert report["wall_time_oracle"] > 0.0
    manifest = read_json(tmp_path / "fracplap_manifest.json")
    assert set(manifest) == {"subcommand", "version", "parameters", "timings", "outputs", "route",
                             "peak_rss_mb"}
    assert manifest["route"] == report["route"]
    assert manifest["timings"]["write"] >= 0.0
    assert manifest["timings"]["oracle"] == report["wall_time_oracle"]
    assert manifest["parameters"] == {"dims": [12], "scales": [2.0], "s": 0.4, "p": 2.0,
                                      "field": "gaussian", "compare_exact": True}
    assert manifest["outputs"] == ["fracplap_field.csv", "fracplap_field.json", "fracplap_report.json"]
    # the CLI writes exactly the in-process apply_plap
    from fracspec import (apply_plap, build_axis_factors, build_fracplap, gaussian_field,
                          make_grid, read_field_csv)

    op = build_fracplap(build_axis_factors((12,)), (2.0,), 0.4, 2.0)
    want = apply_plap(op, gaussian_field([make_grid(12, 2.0)]))
    assert np.array_equal(read_field_csv(tmp_path / "fracplap_field.csv"), want)


@pytest.mark.parametrize("dims,scales,group,reps", [
    ("12", "2.0", "mirror", 6),
    ("9,9", "2.0,2.0", "mirror+swap", 15),
    ("9,9,9", "2,2,2", "mirror+swap", 35),
])
def test_fracplap_reports_the_route_of_a_builtin_field(tmp_path, dims, scales, group, reps):
    proc = run_cli("fracplap", "--dims", dims, "--scales", scales, "--s", "0.5", "--p", "1.7",
                   "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    route = read_json(tmp_path / "fracplap_report.json")["route"]
    assert route == read_json(tmp_path / "fracplap_manifest.json")["route"]
    assert (route["group"], route["representatives"]) == (group, reps)
    assert route["kernel_bytes"] == 8 * reps * (reps // 2)
    assert "mirror-symmetric" in route["group_reason"]


def test_fracplap_reports_the_route_of_a_csv_field(tmp_path):
    from fracspec import write_field_csv

    # no symmetry: every point its own orbit
    U = np.random.default_rng(14).standard_normal((5, 6))
    write_field_csv(tmp_path / "in.csv", U)
    argv = ("fracplap", "--dims", "5,6", "--scales", "2.0,2.5", "--s", "0.5", "--p", "1.7",
            "--field", f"csv:{tmp_path / 'in.csv'}", "--out-dir", str(tmp_path))
    assert run_cli(*argv).returncode == 0
    route = read_json(tmp_path / "fracplap_report.json")["route"]
    assert (route["group"], route["representatives"]) == ("none", 30)
    assert "not mirror-symmetric" in route["group_reason"]
    # swap-symmetric, but the two scales differ: the mirrors only
    V = U[:, :5] + U[::-1, :5]
    V = V + V[:, ::-1]
    V = V + V.T
    write_field_csv(tmp_path / "in.csv", V)
    assert run_cli(*argv[:2], "5,5", *argv[3:]).returncode == 0
    route = read_json(tmp_path / "fracplap_report.json")["route"]
    assert (route["group"], route["representatives"]) == ("mirror", 9)
    assert "scales (2.0, 2.5) differ" in route["group_reason"]


def test_fracplap_pole_is_a_contract_violation(tmp_path):
    proc = run_cli(
        "fracplap", "--dims", "12", "--scales", "2.0", "--s", "0.8", "--p", "2.5",
        "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 2
    assert "PoleError" in proc.stderr
    assert "positive integer" in proc.stderr


def test_fracplap_compare_exact_requires_quadratic(tmp_path):
    proc = run_cli(
        "fracplap", "--dims", "12", "--scales", "2.0", "--s", "0.4", "--p", "1.5",
        "--compare-exact", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 1
    assert "p = 2" in proc.stderr


def test_fracplap_warns_outside_representation_range(tmp_path):
    proc = run_cli(
        "fracplap", "--dims", "10", "--scales", "2.0", "--s", "0.7", "--p", "3.0",
        "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "formula-defined" in proc.stderr


def test_fracplap_single_thread_runs_are_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    argv = ("fracplap", "--dims", "11", "--scales", "2.0", "--s", "0.6", "--p", "1.7")
    assert run_cli(*argv, "--out-dir", str(a_dir)).returncode == 0
    assert run_cli(*argv, "--out-dir", str(b_dir)).returncode == 0
    assert filecmp.cmp(a_dir / "fracplap_field.csv", b_dir / "fracplap_field.csv", shallow=False)


# ----------------------------------------------------------------------------
# evolve
# ----------------------------------------------------------------------------


TINY_CFG = """\
n = 1
s = 0.5
p = 2.0
N = 24
L = 5.0
dt = 0.01
t_end = 0.03
snapshot_times = 0.01,0.03
"""


def test_evolve_writes_snapshots_and_report(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    proc = run_cli("evolve", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in ("snap_t0.01.csv", "snap_t0.03.csv"):
        with open(tmp_path / name) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "u", "r", "v"]
        assert len(rows) == 25
    report = read_json(tmp_path / "evolve_report.json")
    assert report["drift"] <= 1e-6
    assert len(report["masses"]) == 2
    assert report["initial_mass"] == pytest.approx(math.sqrt(math.pi), rel=1e-3)
    manifest = read_json(tmp_path / "evolve_manifest.json")
    assert manifest["parameters"]["N"] == 24
    # the Gaussian start is mirror-symmetric: 12 orbits of two points each
    route = {"group": "mirror", "representatives": 12, "kernel_bytes": 8 * 12 * 6}
    assert report["route"] == manifest["route"] == {**route, "group_reason": report["route"]["group_reason"]}
    assert "mirror-symmetric" in report["route"]["group_reason"]
    assert manifest["parameters"] == {"config": str(cfg), "n": 1, "s": 0.5, "p": 2.0, "N": 24,
                                      "L": 5.0, "dt": 0.01, "t_end": 0.03,
                                      "snapshot_times": [0.01, 0.03]}
    assert manifest["outputs"] == ["snap_t0.01.csv", "snap_t0.03.csv", "evolve_report.json"]
    # the snapshot writes are timed apart from the integration
    assert set(manifest["timings"]) == {"integration", "write"}
    assert manifest["timings"]["integration"] == report["wall_time"]
    assert manifest["timings"]["write"] >= 0.0


def test_evolve_report_states_the_profile_distance_and_gaussian_mass(tmp_path, monkeypatch):
    from fracspec import cli, run_evolution, section_overlap_distance

    snapshots = []

    def recorded(config, u0):
        snapshots.extend(run_evolution(config, u0))
        return snapshots

    monkeypatch.setattr(cli, "run_evolution", recorded)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    assert cli.main(["evolve", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    report = read_json(tmp_path / "evolve_report.json")
    assert len(snapshots) == 2
    want = section_overlap_distance([(snap.section_r, snap.section_v) for snap in snapshots])
    assert report["profile_distance"] == want > 0.0
    assert report["gaussian_mass"] == math.sqrt(math.pi)
    assert report["initial_mass"] == pytest.approx(report["gaussian_mass"], rel=1e-3)


def test_evolve_refuses_snapshot_times_sharing_a_file_name(tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(TINY_CFG.replace("snapshot_times = 0.01,0.03", "snapshot_times = 0.02,0.02"))
    out_dir = tmp_path / "out"
    proc = run_cli("evolve", "--config", str(cfg), "--out-dir", str(out_dir))
    assert proc.returncode == 1
    assert "snap_t0.02.csv" in proc.stderr
    assert list(out_dir.glob("snap_*.csv")) == []


@pytest.mark.parametrize("argv, config", [
    (("fracplap", "--dims", "8", "--scales", "inf", "--s", "0.5", "--p", "1.7"), None),
    (("nodes", "--n", "8", "--scale", "inf"), None),
    (("evolve",), TINY_CFG.replace("t_end = 0.03", "t_end = inf")),
], ids=["fracplap-scales", "nodes-scale", "evolve-t_end"])
def test_infinite_parameters_exit_one_without_a_traceback(tmp_path, argv, config):
    if config is not None:
        (tmp_path / "inf.cfg").write_text(config)
        argv += ("--config", str(tmp_path / "inf.cfg"))
    out_dir = tmp_path / "out"
    proc = run_cli(*argv, "--out-dir", str(out_dir))
    assert proc.returncode == 1
    assert "must be positive and finite, got inf" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(out_dir.iterdir()) == []


def test_evolve_missing_config_exits_one(tmp_path):
    proc = run_cli("evolve", "--config", str(tmp_path / "nope.cfg"),
                   "--out-dir", str(tmp_path))
    assert proc.returncode == 1
    assert "parameter error" in proc.stderr


@pytest.mark.parametrize("good, bad, message", [
    ("N = 24", "N = 2.5", "4: N must be an integer, got '2.5'"),
    ("dt = 0.01", "dt = 1e-3x", "6: dt must be a number, got '1e-3x'"),
    ("snapshot_times = 0.01,0.03", "snapshot_times = 0.1,zz",
     "8: snapshot_times must be comma-separated numbers, got '0.1,zz'"),
], ids=["int", "float", "times"])
def test_evolve_bad_config_value_names_the_file_line_and_key(tmp_path, good, bad, message):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(TINY_CFG.replace(good, bad))
    out_dir = tmp_path / "out"
    proc = run_cli("evolve", "--config", str(cfg), "--out-dir", str(out_dir))
    assert proc.returncode == 1
    assert proc.stderr == f"parameter error: {cfg}:{message}\n"
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("good, bad, message", [
    ("s = 0.5", "s = 1.5", "s must lie in (0, 1), got 1.5"),
    ("snapshot_times = 0.01,0.03", "snapshot_times = 0.01,0.04",
     "snapshot_times must lie in (0, t_end], got (0.01, 0.04)"),
], ids=["s", "snapshot-beyond-t_end"])
def test_evolve_out_of_range_config_value_names_the_file(tmp_path, good, bad, message):
    cfg = tmp_path / "range.cfg"
    cfg.write_text(TINY_CFG.replace(good, bad))
    out_dir = tmp_path / "out"
    proc = run_cli("evolve", "--config", str(cfg), "--out-dir", str(out_dir))
    assert proc.returncode == 1
    assert proc.stderr == f"parameter error: {cfg}: {message}\n"
    assert list(out_dir.iterdir()) == []


# ----------------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("suite", ["lemmas", "hyp", "gamma"])
def test_validate_suites_pass(tmp_path, suite):
    proc = run_cli("validate", "--suite", suite, "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = read_json(tmp_path / "validate_report.json")
    assert report["suite"] == suite
    assert report["all_pass"] is True
    for check in report["checks"]:
        assert check["pass"] is True, check
        assert check["max_deviation"] <= check["tolerance"]


def test_validate_unknown_suite_exits_one(tmp_path):
    proc = run_cli("validate", "--suite", "everything", "--out-dir", str(tmp_path))
    assert proc.returncode == 1
