"""Tests of the benchmark harness at ``--scale smoke`` (about 50x less work).

Run with ``python -m pytest benchmarks/harness/test_harness.py``; the
whole file takes well under a minute.  It checks the schema of
``BENCHMARK.json`` and of every run's result line, that each workload is
deterministic across processes and identical traced and untraced, that
traced self times add up to the traced wall time, and the compare rule.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "harness" / "run.py"),
         *args],
        cwd=root, capture_output=True, text=True, timeout=120, check=False,
    )


def _measure(name, trace):
    completed = _run(ROOT, "--workload", name, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace),
                     "--scale", "smoke")
    assert completed.returncode == 0, completed.stderr
    detail, result = (json.loads(line) for line
                      in completed.stdout.strip().splitlines()[-2:])
    return detail, result


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def runs(request):
    """An untraced and a traced run (which alternates plain and traced
    repetitions) of one workload, in two processes."""
    name = request.param
    return name, [_measure(name, 0), _measure(name, 1)]


def test_benchmark_json_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["benchmarks/harness"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == list(
        workloads.WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    # The per-layer list is exactly what the tracer reports.
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} \
        == tracer.metric_units()


def test_result_schema_and_units(runs):
    name, measured = runs
    for (_, result), wanted in zip(measured, ("end_to_end", "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {key: value["unit"] for key, value
                in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in BENCH[wanted]}
    for metric, value in measured[0][1]["metrics"].items():
        assert value["value"] > 0, (name, metric)


def test_deterministic_across_runs(runs):
    _, measured = runs
    (first, _), (second, _) = measured
    assert first["checks"]["digests_match"]
    assert second["reps"][0]["digest"] == first["digest"]
    assert first["outcome"] == second["outcome"]


def test_traced_matches_untraced(runs):
    _, measured = runs
    traced, _ = measured[1]
    assert [rep["traced"] for rep in traced["reps"]][:2] == [False, True]
    assert traced["checks"]["digests_match"]
    assert traced["missing_spans"] == []


def test_self_times_add_up(runs):
    _, measured = runs
    traced, result = measured[1]
    assert traced["checks"]["self_times_sum_to_wall"]
    metrics = {key: value["value"] for key, value
               in result["metrics"].items()}
    layers = sum(metrics[f"layer.{layer}.self_ms"] for layer in tracer.LAYERS)
    assert layers == pytest.approx(metrics["trace.wall_s"] * 1e3,
                                   rel=run.SELF_TIME_TOLERANCE)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "harness",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    completed = _run(tmp_path, "--workload", "serve_static", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_missing_span_is_skipped(monkeypatch):
    monkeypatch.setattr(tracer, "SPANS", tracer.SPANS + (
        ("gone.method", "repro.env.environment",
         "EdgeCloudEnvironment.no_such_executor"),
        ("gone.module", "repro.no_such_module", "anything"),
    ))
    spans = tracer.Tracer()
    spans.install()
    spans.uninstall()
    assert spans.missing == ["gone.method", "gone.module"]


@pytest.mark.parametrize("parent, change, expected", [
    ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], "same"),
    ([1.0, 1.01, 0.99], [1.2, 1.21, 1.19], "worse"),
    ([1.0, 1.01, 0.99], [0.8, 0.81, 0.79], "better"),
    ([1.0, 1.5, 0.6, 1.2], [1.1, 1.6, 0.7, 1.3], "unresolved"),
    ([1.0, 1.5, 1.2, 1.4], [0.5, 0.9, 0.7, 0.8], "better"),
])
def test_compare_verdicts(parent, change, expected):
    label, _ = run.verdict(parent, change, bound=0.1, better="lower")
    assert label == expected
