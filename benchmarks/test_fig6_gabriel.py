"""Fig. 6 regeneration: Gabriel & Larceny benchmarks, typed vs untyped
(smaller is better). Run ``python benchmarks/run_figures.py fig6`` for the
paper-shaped table; the counters and the figure's shape are checked in
tier-1 by ``tests/test_figure_counters.py``."""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_program
from benchmarks.programs.gabriel import GABRIEL_PROGRAMS

_IDS = [p.name for p in GABRIEL_PROGRAMS]


@pytest.mark.parametrize("config", ["untyped", "typed/opt", "typed/no-opt"])
@pytest.mark.parametrize("program", GABRIEL_PROGRAMS, ids=_IDS)
def test_fig6(benchmark, program, config):
    bench_program(benchmark, program, config)
