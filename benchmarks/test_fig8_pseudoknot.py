"""Fig. 8 regeneration: pseudoknot (the float-intensive benchmark where the
paper reports its largest optimizer win, a 123% speedup). All four
configurations, since fig. 8 is a single-benchmark figure. The counters and
the figure's shape are checked in tier-1 by ``tests/test_figure_counters.py``."""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_program
from benchmarks.programs.pseudoknot import PSEUDOKNOT_PROGRAMS

PSEUDOKNOT = PSEUDOKNOT_PROGRAMS[0]


@pytest.mark.parametrize("config", ["untyped", "typed/opt", "typed/no-opt", "baseline"])
def test_fig8_pseudoknot(benchmark, config):
    bench_program(benchmark, PSEUDOKNOT, config)
