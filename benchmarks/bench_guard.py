"""Governance overhead benchmark: budgets on vs off (ISSUE 6).

Runs the fig. 6 Gabriel micro-benchmarks (untyped configuration) on an
ungoverned Runtime and again under a Budget with generous limits on every
dimension, and reports the slowdown. The acceptance criterion is <= 5%
overhead with the amortized checkpoint design; a separate ``allocations``
mode is reported on its own because allocation tracking compiles a charging
wrapper into every constructor call site and is priced differently.

Writes ``BENCH_guard.json`` at the repo root.

Usage::

    python benchmarks/bench_guard.py [--repeats 5] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

from benchmarks.programs.gabriel import GABRIEL_PROGRAMS

from repro import Runtime
from repro.runtime.ports import capture_output

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: generous limits: every dimension is governed, nothing ever exhausts
GOVERNED = {
    "steps": 10**15,
    "seconds": 3600.0,
    "max_depth": 10**9,
}
GOVERNED_ALLOC = dict(GOVERNED, allocations=10**15)


def time_program(source: str, budget, repeats: int) -> tuple[float, dict]:
    """Best-of-N instantiation time for ``source`` under ``budget``."""
    with Runtime(cache=False, budget=budget) as rt:
        path = "<bench-guard>"
        rt.register_module(path, source)
        rt.compile(path)
        best = math.inf
        for _ in range(repeats):
            if rt.budget is not None:
                rt.budget.reset()
            ns = rt.make_namespace()
            with capture_output():
                start = time.perf_counter()
                rt.instantiate(path, ns)
                best = min(best, time.perf_counter() - start)
        return best, rt.stats.snapshot()


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run(repeats: int) -> dict:
    rows = []
    for program in GABRIEL_PROGRAMS:
        source = "#lang racket\n" + program.untyped
        off, _ = time_program(source, None, repeats)
        on, on_stats = time_program(source, GOVERNED, repeats)
        alloc, alloc_stats = time_program(source, GOVERNED_ALLOC, repeats)
        rows.append(
            {
                "benchmark": program.name,
                "ungoverned_seconds": off,
                "governed_seconds": on,
                "governed_alloc_seconds": alloc,
                "overhead_pct": (on / off - 1) * 100,
                "alloc_overhead_pct": (alloc / off - 1) * 100,
                "eval_steps": on_stats["eval_steps"],
                "eval_allocations": alloc_stats["eval_allocations"],
            }
        )
        print(
            f"{program.name:<12} off {off:.4f}s  on {on:.4f}s "
            f"({rows[-1]['overhead_pct']:+.1f}%)  "
            f"alloc {alloc:.4f}s ({rows[-1]['alloc_overhead_pct']:+.1f}%)"
        )
    ratio = geomean([r["governed_seconds"] / r["ungoverned_seconds"] for r in rows])
    alloc_ratio = geomean(
        [r["governed_alloc_seconds"] / r["ungoverned_seconds"] for r in rows]
    )
    with Runtime(cache=False) as rt:
        backend = rt.backend  # $REPRO_BACKEND selects it
    return {
        "benchmark": "guard-overhead",
        "backend": backend,
        "repeats": repeats,
        "governed_limits": {k: v for k, v in GOVERNED.items()},
        "results": rows,
        "geomean_overhead_pct": (ratio - 1) * 100,
        "geomean_alloc_overhead_pct": (alloc_ratio - 1) * 100,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--out", default=os.path.join(REPO_ROOT, "BENCH_guard.json")
    )
    args = parser.parse_args(argv)

    result = run(args.repeats)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(
        f"geomean overhead: {result['geomean_overhead_pct']:+.1f}% "
        f"(with allocation tracking: "
        f"{result['geomean_alloc_overhead_pct']:+.1f}%)"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
