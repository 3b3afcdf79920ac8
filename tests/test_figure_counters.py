"""Golden figure counters: the deterministic side of figures 6-9.

Every figure program runs once under each configuration (untyped,
typed/opt, typed/no-opt, baseline) on both backends, untimed. The four
counters the paper's claims rest on must equal ``golden/figure_counters.json``
exactly, and each figure keeps its shape: the typed optimizer removes the
generic dispatch that untyped code pays, and without the optimizer typed
code runs no unsafe operation.

A change that means to move a counter regenerates the file, and says why::

    PYTHONPATH=src python tests/test_figure_counters.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)  # benchmarks/ is a top-level package

from benchmarks.harness import CONFIGURATIONS, Harness  # noqa: E402
from benchmarks.programs import ALL_PROGRAMS  # noqa: E402

GOLDEN = os.path.join(ROOT, "tests", "golden", "figure_counters.json")
COUNTERS = ("generic_dispatches", "tag_checks", "unsafe_ops", "contract_checks")
PROGRAMS = {p.name: p for p in ALL_PROGRAMS}


def counters_of(result) -> dict[str, int]:
    return {name: getattr(result, name) for name in COUNTERS}


def _shape(figure: str, config: str, c: dict[str, int]) -> None:
    generic, unsafe = c["generic_dispatches"], c["unsafe_ops"]
    if config != "typed/opt":
        # without the optimizer every arithmetic operation is generic
        assert unsafe == 0 and generic > 0
        return
    assert unsafe > 0
    if figure == "fig6":
        # the optimizer eliminated every generic dispatch
        assert generic == 0
    elif figure == "fig7":
        # float-heavy programs lose the overwhelming majority of theirs
        assert generic < unsafe
    elif figure == "fig8":
        # nearly all of pseudoknot's float dispatch is gone
        assert unsafe > 100_000 and generic < unsafe / 100


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("backend", ("interp", "pyc"))
@pytest.mark.parametrize("config", CONFIGURATIONS)
@pytest.mark.parametrize("program", ALL_PROGRAMS, ids=lambda p: p.name)
def test_counters(figure_cell, golden, backend, program, config):
    counters = counters_of(figure_cell(backend, program, config))
    assert counters == golden[program.name][config]
    _shape(program.figure, config, counters)


@pytest.mark.parametrize("backend", ("interp", "pyc"))
def test_typed_opt_removes_dispatch_where_the_paper_claims(figure_cell, backend):
    """Fig. 8's large speedup and fig. 9's "the large applications benefit
    even more": typed/opt keeps the output and drops pseudoknot's generic
    dispatches a hundredfold, raytrace's tenfold, and fft's."""
    for name, factor in (("pseudoknot", 100), ("raytrace", 10), ("fft", 1)):
        untyped = figure_cell(backend, PROGRAMS[name], "untyped")
        typed_opt = figure_cell(backend, PROGRAMS[name], "typed/opt")
        assert untyped.output == typed_opt.output
        assert typed_opt.generic_dispatches * factor < untyped.generic_dispatches


@pytest.fixture(scope="module")
def lone_rule_group():
    """Run a figure program under typed/opt restricted to one optimizer
    rule group, on interp; each run happens once per module."""
    harness = Harness(backend="interp")
    results: dict = {}

    def run(name: str, rule: str):
        if (name, rule) not in results:
            results[name, rule] = harness.run(PROGRAMS[name], "typed/opt", rules={rule})
        return results[name, rule]

    return run


@pytest.mark.parametrize(
    "name,rule",
    [("pseudoknot", "float"), ("sumloop", "fixnum"),
     ("bankers-queue", "pairs"), ("pseudoknot", "vectors")],
)
def test_each_rule_group_fires_alone(lone_rule_group, name, rule):
    """Each §7.2 rule family specializes its program with no other
    family enabled."""
    assert lone_rule_group(name, rule).unsafe_ops > 0


def test_float_rules_remove_most_pseudoknot_dispatch(lone_rule_group):
    """For the float-heavy pseudoknot, the float group removes far more
    generic dispatch than the pair group does."""
    float_only = lone_rule_group("pseudoknot", "float")
    pairs_only = lone_rule_group("pseudoknot", "pairs")
    assert float_only.generic_dispatches < pairs_only.generic_dispatches


def main() -> int:
    """Write the golden file from interp runs; the test checks pyc against
    the same numbers."""
    harness = Harness(backend="interp")
    golden = {
        program.name: {
            config: counters_of(harness.run(program, config))
            for config in CONFIGURATIONS
        }
        for program in ALL_PROGRAMS
    }
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
