"""Benchmark harness reproducing §7.3's evaluation.

Each benchmark is a program in two versions — "the original version and a
translation to Typed Racket" — run under four configurations:

- ``untyped``      — the untyped program on the full platform (the paper's
                     "Racket" bars);
- ``typed/opt``    — the typed program with the type-driven optimizer (the
                     paper's "Typed Racket" bars);
- ``typed/no-opt`` — the typed program, optimizer disabled (isolates the
                     §7 contribution from mere type checking):
                     ``Runtime(optimizer_rules=frozenset())``;
- ``baseline``     — the untyped program with the compiler's primitive
                     inlining disabled: a simulated less-optimizing
                     comparison compiler standing in for the paper's
                     Gambit/Larceny/Bigloo bars (see DESIGN.md §3):
                     ``Runtime(inline_primitives=False)``.

Each configuration is a compile profile of the fresh Runtime that
:meth:`Harness.prepare` builds per cell; nothing process-global is
toggled, so cells cannot leak options into each other.

Alongside wall-clock time the harness records the runtime's deterministic
instrumentation counters (generic dispatches, tag checks, unsafe ops), which
make the optimizer's effect reproducible independent of machine noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import Runtime
from repro.runtime.ports import capture_output

CONFIGURATIONS = ("untyped", "typed/opt", "typed/no-opt", "baseline")


@dataclass(frozen=True)
class BenchmarkProgram:
    """One benchmark: untyped + typed sources and the expected output."""

    name: str
    untyped: str
    typed: str
    expected: Optional[str] = None  # exact expected output, or None
    figure: str = ""


@dataclass
class BenchResult:
    name: str
    config: str
    seconds: float
    output: str
    generic_dispatches: int
    tag_checks: int
    unsafe_ops: int
    contract_checks: int
    expansion_steps: int = 0
    #: exclusive per-phase seconds of the timed run (trace=True harness only)
    phases: dict = field(default_factory=dict)
    #: exclusive per-phase seconds of the untimed compile in prepare()
    compile_phases: dict = field(default_factory=dict)


def _phase_slice(tracer, mark: int) -> dict:
    """Exclusive per-phase totals over the events appended since ``mark``."""
    from types import SimpleNamespace

    from repro.observe.profiler import phase_totals

    return phase_totals(SimpleNamespace(events=tracer.events[mark:]))


class Harness:
    """Compiles and runs benchmark programs under named configurations.

    ``trace=True`` attaches a :class:`repro.observe.Tracer` to each fresh
    Runtime and fills ``BenchResult.phases`` / ``compile_phases`` with
    exclusive per-phase timings (used by ``run_figures.py --json``). The
    default is off so timed runs carry no tracing overhead — and stays off
    even inside a traced context, keeping benchmarks hermetic.

    ``backend`` selects the execution backend each fresh Runtime uses
    (``"interp"`` or ``"pyc"``, see DESIGN.md §9).
    """

    def __init__(self, trace: bool = False, backend: str = "interp") -> None:
        self._counter = 0
        self.trace = trace
        self.backend = backend

    def _fresh_runtime(self, **profile) -> Runtime:
        return Runtime(trace=True if self.trace else False,
                       backend=self.backend, **profile)

    def prepare(
        self, program: BenchmarkProgram, config: str, rules: Optional[set[str]] = None
    ) -> Callable[[], BenchResult]:
        """Compile under ``config``; return a thunk that runs one timed
        iteration in a fresh namespace (compile time excluded). ``rules``
        restricts ``typed/opt`` to those optimizer rule groups."""
        if config not in CONFIGURATIONS:
            raise ValueError(f"unknown configuration: {config}")
        profile: dict = {}
        if config == "baseline":
            profile["inline_primitives"] = False
        elif config == "typed/no-opt":
            profile["optimizer_rules"] = frozenset()
        elif config == "typed/opt" and rules is not None:
            profile["optimizer_rules"] = frozenset(rules)
        if config in ("untyped", "baseline"):
            source = "#lang racket\n" + program.untyped
        else:
            source = "#lang typed\n" + program.typed
        rt = self._fresh_runtime(**profile)
        self._counter += 1
        path = f"<bench-{program.name}-{config.replace('/', '-')}-{self._counter}>"
        rt.register_module(path, source)
        rt.compile(path)
        compile_phases = (
            _phase_slice(rt.tracer, 0) if rt.tracer is not None else {}
        )
        compile_steps = rt.stats.expansion_steps

        def run_once() -> BenchResult:
            ns = rt.make_namespace()
            # per-Runtime counters: immune to other Runtimes created
            # between prepare() and the timed run
            rt.stats.reset()
            mark = len(rt.tracer.events) if rt.tracer is not None else 0
            with capture_output() as port:
                start = time.perf_counter()
                rt.instantiate(path, ns)
                elapsed = time.perf_counter() - start
            snapshot = rt.stats.snapshot()
            output = port.contents()
            if program.expected is not None and output != program.expected:
                raise AssertionError(
                    f"{program.name} [{config}]: expected {program.expected!r}, "
                    f"got {output!r}"
                )
            return BenchResult(
                name=program.name,
                config=config,
                seconds=elapsed,
                output=output,
                generic_dispatches=snapshot["generic_dispatches"],
                tag_checks=snapshot["tag_checks"],
                unsafe_ops=snapshot["unsafe_ops"],
                contract_checks=snapshot["contract_checks"],
                expansion_steps=compile_steps,
                phases=(
                    _phase_slice(rt.tracer, mark)
                    if rt.tracer is not None else {}
                ),
                compile_phases=compile_phases,
            )

        return run_once

    def run(
        self, program: BenchmarkProgram, config: str, repeats: int = 1,
        rules: Optional[set[str]] = None,
    ) -> BenchResult:
        """Run; keep the best (minimum) time of ``repeats`` runs."""
        thunk = self.prepare(program, config, rules)
        best: Optional[BenchResult] = None
        for _ in range(repeats):
            result = thunk()
            if best is None or result.seconds < best.seconds:
                best = result
        assert best is not None
        return best


def normalized_table(
    results: dict[str, dict[str, BenchResult]],
    configs: tuple[str, ...] = CONFIGURATIONS,
) -> str:
    """Render results the way the paper's figures do: runtime normalized to
    the untyped (Racket) configuration; smaller is better."""
    header = f"{'benchmark':<14}" + "".join(f"{c:>14}" for c in configs) + f"{'speedup':>10}"
    lines = [header, "-" * len(header)]
    for name, by_config in results.items():
        base = by_config["untyped"].seconds
        cells = []
        for config in configs:
            result = by_config.get(config)
            cells.append(
                f"{result.seconds / base:>13.2f}x" if result else f"{'—':>14}"
            )
        opt = by_config.get("typed/opt")
        speedup = f"{(base / opt.seconds - 1) * 100:>+9.0f}%" if opt else ""
        lines.append(f"{name:<14}" + "".join(cells) + speedup)
    return "\n".join(lines)


def counter_table(results: dict[str, dict[str, BenchResult]]) -> str:
    """The deterministic view: dispatches and tag checks per configuration."""
    header = (
        f"{'benchmark':<14}{'config':>14}{'generic':>12}{'tag-checks':>12}"
        f"{'unsafe':>12}{'contracts':>11}"
    )
    lines = [header, "-" * len(header)]
    for name, by_config in results.items():
        for config, r in by_config.items():
            lines.append(
                f"{name:<14}{config:>14}{r.generic_dispatches:>12}"
                f"{r.tag_checks:>12}{r.unsafe_ops:>12}{r.contract_checks:>11}"
            )
    return "\n".join(lines)
