"""Correctness of the benchmark programs: typed and untyped versions agree,
under all optimizer configurations (the fast programs only — the benchmark
suite itself re-validates all of them against pinned outputs)."""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, ".")  # benchmarks/ is a top-level package

from benchmarks.harness import Harness
from benchmarks.programs import ALL_PROGRAMS

FAST = [p for p in ALL_PROGRAMS if p.name in ("ack", "fib", "nqueens", "fannkuch", "fft")]


@pytest.fixture(scope="module")
def harness():
    return Harness()


@pytest.mark.parametrize("program", FAST, ids=lambda p: p.name)
def test_typed_and_untyped_agree(harness, program):
    untyped = harness.run(program, "untyped")
    typed = harness.run(program, "typed/opt")
    assert untyped.output == typed.output


@pytest.mark.parametrize("program", FAST, ids=lambda p: p.name)
def test_optimizer_is_semantics_preserving(harness, program):
    with_opt = harness.run(program, "typed/opt")
    without_opt = harness.run(program, "typed/no-opt")
    assert with_opt.output == without_opt.output


@pytest.mark.parametrize("program", FAST, ids=lambda p: p.name)
def test_baseline_configuration_agrees(harness, program):
    baseline = harness.run(program, "baseline")
    untyped = harness.run(program, "untyped")
    assert baseline.output == untyped.output


def test_expected_outputs_pinned(harness):
    """Programs with pinned outputs produce exactly them (the harness
    asserts internally; this just exercises the check)."""
    for program in FAST:
        if program.expected is not None:
            result = harness.run(program, "untyped")
            assert result.output == program.expected


def test_perfbench_snapshot_matches_the_programs():
    """``perfbench/programs.json`` freezes these programs as the benchmark's
    inputs; its ``figures`` entries must be exactly ``ALL_PROGRAMS``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "programs.json"), encoding="utf-8") as f:
        figures = json.load(f)["figures"]
    fields = ("name", "figure", "untyped", "typed", "expected")
    assert figures == [{k: getattr(p, k) for k in fields} for p in ALL_PROGRAMS]
