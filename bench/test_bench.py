"""Self-test of the benchmark at toy sizes.

    python3 -m pytest bench -q

Runs every workload once per mode through the command line, checks the
result line against BENCHMARK.json, and shows that a wrong reference or a
raised contract error is counted as a failed operation.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout_src()

import fracspec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def cli(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_workload_runs_once(name, trace):
    proc = cli("--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    if trace:
        expected["trace.overhead_s"] = "s"
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == expected
    for metric, m in result["metrics"].items():
        assert NAME.match(metric), metric
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_reference_is_a_failed_operation(monkeypatch):
    right = workloads.closed_form
    monkeypatch.setattr(workloads, "closed_form", lambda *a: right(*a) + 1e-3)
    out = run.run_workload("fraclap-io", 7, 0.0, False, "tiny")
    result = out["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert any("error" in f for it in out["details"]["iterations"] for f in it["failures"])


def test_contract_error_is_a_failed_operation(monkeypatch):
    def blow_up(config, u0, *args, **kwargs):
        raise fracspec.NonFiniteState("injected")

    monkeypatch.setattr(fracspec, "run_evolution", blow_up)
    out = run.run_workload("evolve-line", 7, 0.0, False, "tiny")
    assert out["result"]["failed"] == out["result"]["attempted"] >= 1
    assert out["details"]["iterations"][0]["failures"] == ["NonFiniteState: injected"]


def test_vanished_function_is_reported_absent():
    targets = tracing.TARGETS + (tracing.Target("gone.layer", "fracspec.grid", "no_such_function"),)
    original = fracspec.mode_product
    tracer = tracing.Tracer(targets)
    tracer.install()
    try:
        assert tracer.absent == ["gone.layer"]
        assert fracspec.mode_product is not original
        assert fracspec.fracplap.mode_product is not original
    finally:
        tracer.uninstall()
    assert fracspec.mode_product is original and fracspec.fracplap.mode_product is original
    metrics = tracing.layer_metrics([[]])
    assert metrics["fracplap.rhs_calls"] == 0.0 and set(metrics) == set(tracing.PER_LAYER)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = cli("--workload", "evolve-line", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
