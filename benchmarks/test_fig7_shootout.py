"""Fig. 7 regeneration: Computer Language Benchmarks Game programs
(smaller is better). The counters and the figure's shape are checked in
tier-1 by ``tests/test_figure_counters.py``."""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_program
from benchmarks.programs.shootout import SHOOTOUT_PROGRAMS

_IDS = [p.name for p in SHOOTOUT_PROGRAMS]


@pytest.mark.parametrize("config", ["untyped", "typed/opt", "baseline"])
@pytest.mark.parametrize("program", SHOOTOUT_PROGRAMS, ids=_IDS)
def test_fig7(benchmark, program, config):
    # baseline: the simulated less-optimizing comparison compiler (DESIGN.md §3)
    bench_program(benchmark, program, config)
