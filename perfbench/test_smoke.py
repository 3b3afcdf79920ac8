"""One-pass smoke run of every workload, traced and untraced.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once with ``--trace 1`` and once with ``--trace 0`` on
another seed, with ``--seconds 0``: the fewest passes a run makes (two per
phase, so the counts of the second are checked against the first's). The
runs must be correct, every per-layer metric must be present (or its layer
marked unmeasured), and the deterministic counts must be equal across the
two seeds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import ENTRY_POINTS, TIMED_LAYERS  # noqa: E402

WORKLOADS = ("figures-interp", "figures-pyc", "compile-cold", "serve-mixed")


def benchmark_metrics(section: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return [m["name"] for m in json.load(f)[section]]


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    *_, diagnostics, result = proc.stdout.strip().splitlines()
    return json.loads(diagnostics), json.loads(result)


def deterministic(counts: dict) -> dict:
    return {k: v for k, v in counts.items() if not k.startswith("pool_")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload: str) -> None:
    traced_diag, traced = run(workload, seed=1, trace=1)
    plain_diag, plain = run(workload, seed=2, trace=0)

    for result in (traced, plain):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, result
        assert result["failed"] == 0 and result["attempted"] >= 1

    assert set(plain["metrics"]) == set(benchmark_metrics("end_to_end"))
    for metric in plain["metrics"].values():
        assert metric["value"] > 0

    # every layer is measured, or marked unmeasured with the missing name
    assert set(traced["metrics"]) == set(benchmark_metrics("per_layer"))
    unmeasured = traced_diag["unmeasured"]
    layers = {e.span for e in ENTRY_POINTS} | set(TIMED_LAYERS)
    assert set(unmeasured) <= layers
    assert traced["metrics"]["observe.unmeasured"]["value"] == len(unmeasured)

    assert deterministic(traced_diag["counts_per_pass"]) == deterministic(
        plain_diag["counts_per_pass"]
    )


def test_refuses_to_run_without_the_program(tmp_path) -> None:
    """In a directory holding only the benchmark, it fails without a result."""
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read()
    )
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_entry_point_is_unmeasured(monkeypatch) -> None:
    """A renamed entry point marks its layer unmeasured; the rest still wrap."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans
    from repro.reader import lang_line

    original = lang_line.read_module_source
    gone = spans.EntryPoint("dialects", "repro.dialects", "no_such_function")
    kept = spans.EntryPoint("reader", "repro.reader.lang_line", "read_module_source")
    monkeypatch.setattr(spans, "ENTRY_POINTS", (gone, kept))
    recorder = spans.Spans()
    recorder.install()
    try:
        assert recorder.unmeasured["dialects"] == "repro.dialects.no_such_function not found"
        assert "reader" not in recorder.unmeasured
        assert lang_line.read_module_source is not original
        lang_line.read_module_source("#lang racket\n(+ 1 2)\n")
        assert [s.name for s in recorder.spans] == ["reader"]
    finally:
        recorder.uninstall()
    assert lang_line.read_module_source is original
