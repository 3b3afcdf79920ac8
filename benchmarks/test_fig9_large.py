"""Fig. 9 regeneration: large benchmarks (ray tracer, FFT, functional data
structures), typed vs untyped (smaller is better). The counters and the
figure's shape are checked in tier-1 by ``tests/test_figure_counters.py``."""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_program
from benchmarks.programs.large import LARGE_PROGRAMS

_IDS = [p.name for p in LARGE_PROGRAMS]


@pytest.mark.parametrize("config", ["untyped", "typed/opt", "typed/no-opt"])
@pytest.mark.parametrize("program", LARGE_PROGRAMS, ids=_IDS)
def test_fig9(benchmark, program, config):
    bench_program(benchmark, program, config)
