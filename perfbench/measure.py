"""The timed loop and the metrics it reports.

One run: set up once (``setup_s`` is the median of this set-up and those
of ``SETUPS - 1`` fresh interpreters, see ``setup_only``), freeze the heap,
run one untimed warm-up pass, then whole passes until ``--seconds`` have
passed (at least ``MIN_PASSES``). A traced run (``--trace 1``) alternates
untraced passes with passes under the span wrappers; the per-layer numbers
come from the traced passes and the ratio of the two is the tracing
overhead.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import time
from typing import Optional

from spans import TIMED_LAYERS, Span, Spans
from workloads import CONFIGS, WORKLOADS, Samples, Workload

#: set-ups per untraced run, each the first in its interpreter after its
#: imports; ``setup_s`` is their median
SETUPS = 3
#: a run always has two passes, so the deterministic counts can be compared
MIN_PASSES = 2
#: serve-mixed's tail: the highest percentile with at least ten samples
#: beyond it in every 15-second run (960-1080 requests)
TAIL_PERCENTILE = 98

#: reference loops run before and after each pass and each set-up
REFERENCES_AROUND = 5

END_TO_END_UNITS = {"setup_s": "s", "op_ms": "ms", "pass_s": "s", "peak_rss_mb": "MB"}


class Phase:
    """The result of one timed phase."""

    def __init__(self, samples: Samples, pass_metric: str) -> None:
        self.samples = samples
        self.medians = {
            cell: statistics.median(times) for cell, times in samples.times.items()
        }
        self.op_s = _geomean(self.medians.values())
        #: the same statistics of the unscaled wall times, for comparison
        self.wall_medians = {
            cell: statistics.median(times) for cell, times in samples.wall_times.items()
        }
        self.wall_op_s = _geomean(self.wall_medians.values())
        if pass_metric == "ops":
            self.pass_s = statistics.median(samples.op_sums)
            self.wall_pass_s = statistics.median(samples.raw_op_sums)
        else:
            self.pass_s = sum(self.medians.values())
            self.wall_pass_s = sum(self.wall_medians.values())
        self.count_mismatch = _mismatch([_deterministic(c) for c in samples.counts])


def timed_phases(wl: Workload, rng: random.Random, seconds: float,
                 spans: Optional[Spans]) -> list[Phase]:
    """Whole passes until ``seconds`` have passed, at least ``MIN_PASSES``.

    With ``spans``, passes alternate between an untraced and a traced arm,
    so that both see the same machine and the overhead is their ratio;
    each arm gets ``seconds``. Returns one Phase per arm, untraced first.
    """
    arms: list[Optional[Spans]] = [None] if spans is None else [None, spans]
    arm_samples = [Samples() for _ in arms]
    start = time.perf_counter()
    done = 0
    while done < MIN_PASSES or time.perf_counter() - start < seconds * len(arms):
        for arm, samples in zip(arms, arm_samples):
            if spans is not None:
                spans.phase = "between"
                if arm is None:
                    spans.uninstall()
                else:
                    spans.install()
            before = wl.counts()
            if arm is not None:
                arm.phase = f"pass{done}"
            wl.spans = arm
            for _ in range(REFERENCES_AROUND):
                samples.reference()
            pass_start = time.perf_counter()
            wl.run_pass(rng, samples)
            wall = time.perf_counter() - pass_start
            for _ in range(REFERENCES_AROUND):
                samples.reference()
            samples.end_pass(wall)
            if spans is not None:
                spans.phase = "between"
            after = wl.counts()
            samples.counts.append({k: after[k] - before[k] for k in after})
            gc.collect()
        done += 1
    return [Phase(samples, wl.pass_metric) for samples in arm_samples]


def timed_setup(wl: Workload) -> tuple[float, float]:
    """One set-up at the reference speed: each step is scaled like an op,
    the reference loops running between steps; returns (seconds, scale)."""
    samples = Samples()
    for _ in range(REFERENCES_AROUND):
        samples.reference()
    steps = wl.setup()
    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        finished = next(steps, StopIteration) is StopIteration
        samples.record("setup", time.perf_counter() - step_start)
        samples.reference()
        if finished:
            break
    for _ in range(REFERENCES_AROUND - 1):
        samples.reference()
    samples.end_pass(time.perf_counter() - start)
    return sum(samples.times["setup"]), samples.scales[0]


def setup_only(workload: str, workdir: str) -> float:
    """Set ``workload`` up once and tear it down; returns ``setup_s``.

    A fresh interpreter runs this right after its imports, so that every
    set-up ``setup_s`` is formed from pays the one-time costs of the first
    Runtime in a process, as the run's own set-up does.
    """
    wl = WORKLOADS[workload](workdir)
    gc.collect()
    try:
        return timed_setup(wl)[0]
    finally:
        wl.close()


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
        *, other_setups: list[float], spans_file: Optional[str] = None) -> dict:
    """One run of ``workload``; returns the report (see ``report``).

    ``other_setups`` are the ``setup_only`` times of fresh interpreters;
    ``setup_s`` is the median of them and this run's own set-up.
    """
    wl = WORKLOADS[workload](workdir)
    spans = Spans() if trace else None
    phases: list[Phase] = []
    try:
        if spans is not None:
            spans.install()
            spans.phase = "setup0"
        gc.collect()
        setup_s, setup_scale = timed_setup(wl)
        setup_times = [setup_s, *other_setups]
        gc.collect()
        gc.freeze()
        rng = random.Random(seed)
        if spans is not None:
            spans.phase = "warmup"
        wl.run_pass(rng, Samples())  # one untimed op per cell
        gc.collect()
        phases = timed_phases(wl, rng, seconds, spans)
    finally:
        if spans is not None:
            spans.uninstall()
        wl.close()
    if spans is not None and spans_file:
        spans.write(spans_file)
    return report(workload, setup_times, setup_scale, phases, spans)


def report(workload: str, setup_times: list[float], setup_scale: float,
           phases: list[Phase], spans: Optional[Spans]) -> dict:
    """The result line plus the diagnostics that go before it."""
    final = phases[-1]
    samples = final.samples
    attempted = sum(p.samples.attempted for p in phases)
    failed = sum(p.samples.failed for p in phases)
    problems = [f for p in phases for f in p.samples.failures]
    first_counts = [_deterministic(p.samples.counts[0]) for p in phases]
    for p in phases:
        if p.count_mismatch:
            problems.append(f"counts differ between passes: {p.count_mismatch}")
    if any(c != first_counts[0] for c in first_counts):
        problems.append(f"counts differ between phases: {first_counts}")
    if failed == 0 and samples.times:
        correct = not problems
    else:
        correct = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "op_ms": final.op_s * 1000,
        "pass_s": final.pass_s,
        "peak_rss_mb": peak_rss_mb,
    }
    diagnostics = {
        "workload": workload,
        "passes": len(samples.counts),
        "pass_s_each": samples.walls,
        "speed_scale_each": samples.scales,
        "setup_s_each": setup_times,
        "named": named_metrics(workload, final, end_to_end),
        "unscaled": {"op_ms": final.wall_op_s * 1000, "pass_s": final.wall_pass_s},
        "counts_per_pass": samples.counts[0] if samples.counts else {},
        "cells_ms": {
            cell: {**_quartiles_ms(times),
                   "wall_median": round(final.wall_medians[cell] * 1000, 4)}
            for cell, times in sorted(samples.times.items())
        },
        "problems": problems,
    }
    if spans is None:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end.items()
        }
    else:
        metrics = per_layer(workload, phases, spans, setup_scale, diagnostics)
    return {
        "diagnostics": diagnostics,
        "result": {
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics,
        },
    }


def named_metrics(workload: str, phase: Phase,
                  end_to_end: dict[str, float]) -> dict[str, list]:
    """The workload's metrics under their own names, as ``[value, unit]``."""
    named: dict[str, list] = {"setup_s": [end_to_end["setup_s"], "s"]}
    samples = phase.samples
    if workload.startswith("figures-"):
        named["run_ms"] = [phase.op_s * 1000, "ms"]
        named["suite_s"] = [phase.pass_s, "s"]
    elif workload == "compile-cold":
        named["compile_ms"] = [phase.op_s * 1000, "ms"]
        named["compile_suite_s"] = [phase.pass_s, "s"]
        named["artifact_kb"] = [samples.counts[0]["artifact_bytes"] / 1024, "KiB"]
    else:
        latencies = sorted(t for times in samples.times.values() for t in times)
        named["req_ms"] = [statistics.median(latencies) * 1000, "ms"]
        named[f"req_p{TAIL_PERCENTILE}_ms"] = [
            _percentile(latencies, TAIL_PERCENTILE) * 1000, "ms"
        ]
        named["req_tail_samples_beyond"] = [
            int(len(latencies) * (100 - TAIL_PERCENTILE) / 100), "count"
        ]
        named["req_per_s"] = [len(latencies) / sum(samples.op_sums), "1/s"]
    named["peak_rss_mb"] = [end_to_end["peak_rss_mb"], "MB"]
    return named


def per_layer(workload: str, phases: list[Phase], spans: Spans,
              setup_scale: float, diagnostics: dict) -> dict:
    """Every per-layer metric, from the traced phase's spans and counts.

    Times are per pass (medians over the passes) or, for ``setup.*``, of
    the run's one set-up, at the reference speed like the end-to-end times.
    """
    untraced, traced = phases[0], phases[-1]
    groups: dict[tuple[str, str], list[Span]] = {}
    for span in spans.spans:
        groups.setdefault((span.phase, span.name), []).append(span)

    def median_over(scales: list[float], name: str, value) -> float:
        values = [
            value(groups.get((f"pass{i}", name), [])) * scale
            for i, scale in enumerate(scales)
        ]
        return statistics.median(values) if values else 0.0

    def in_setup(name: str) -> list[Span]:
        return groups.get(("setup0", name), [])

    def self_ms(spans: list[Span]) -> float:
        return sum(s.self_s for s in spans) * 1000

    def calls(spans: list[Span]) -> float:
        return float(len(spans))

    ones = [1.0] * len(traced.samples.scales)
    m: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        m[f"{layer}.ms"] = (median_over(traced.samples.scales, layer, self_ms), "ms")
        m[f"setup.{layer}.ms"] = (self_ms(in_setup(layer)) * setup_scale, "ms")
    m["reader.calls"] = (median_over(ones, "reader", calls), "count")
    m["dialects.calls"] = (median_over(ones, "dialects", calls), "count")

    counts = traced.samples.counts[0]
    m["expander.steps"] = (counts.get("expansion_steps", 0), "count")
    m["core.pyc.codegens"] = (counts.get("pyc_codegens", 0), "count")
    for key in ("generic_dispatches", "tag_checks", "unsafe_ops", "contract_checks"):
        m[f"runtime.{key}"] = (counts.get(key, 0), "count")
    hits, misses = counts.get("cache_hits", 0), counts.get("cache_misses", 0)
    m["modules.cache.hits"] = (hits, "count")
    m["modules.cache.misses"] = (misses, "count")
    m["modules.cache.stores"] = (counts.get("cache_stores", 0), "count")
    m["modules.cache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    m["modules.cache.artifact_kb"] = (counts.get("artifact_bytes", 0) / 1024, "KiB")

    inits = [span.duration * setup_scale * 1000 for span in in_setup("tools.runtime_init")]
    m["tools.runtime_init.ms"] = (statistics.median(inits) if inits else 0.0, "ms")
    m["tools.runtimes"] = (calls(in_setup("tools.runtime_init")), "count")

    created = sum(c.get("pool_created", 0) for c in traced.samples.counts)
    reused = sum(c.get("pool_reused", 0) for c in traced.samples.counts)
    m["serve.pool.reuse_ratio"] = (_ratio(reused, created + reused), "ratio")
    m["serve.kills"] = (counts.get("budget_kills", 0), "count")
    waits = [
        (latency - sum(s.duration for s in groups.get((f"pass{p}", "serve.handle"), []))
         * scale) * 1000
        for p, (latency, scale) in enumerate(
            zip(traced.samples.op_sums, traced.samples.scales))
    ]
    m["serve.wait.ms"] = (statistics.median(waits) if waits else 0.0, "ms")

    speedup = _typed_speedup(untraced.medians) if workload.startswith("figures-") else 0.0
    m["langs.typed_speedup"] = (speedup, "x")
    m["observe.overhead_pct"] = ((traced.pass_s / untraced.pass_s - 1) * 100, "%")
    m["observe.unmeasured"] = (len(spans.unmeasured), "count")
    diagnostics["unmeasured"] = spans.unmeasured
    diagnostics["untraced_pass_s"] = untraced.pass_s
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


# -- statistics ----------------------------------------------------------------

def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _typed_speedup(medians: dict[str, float]) -> float:
    """Geometric mean over programs of untyped time over typed/opt time."""
    untyped, typed = CONFIGS
    ratios = []
    for cell, seconds in medians.items():
        program, _, config = cell.partition(":")
        if config == untyped and f"{program}:{typed}" in medians:
            ratios.append(seconds / medians[f"{program}:{typed}"])
    return _geomean(ratios) if ratios else 0.0


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def _percentile(sorted_values: list[float], q: float) -> float:
    idx = min(len(sorted_values) - 1, math.ceil(q / 100 * len(sorted_values)) - 1)
    return sorted_values[max(idx, 0)]


def _quartiles_ms(times: list[float]) -> dict:
    ms = [t * 1000 for t in times]
    if len(ms) > 1:
        q1, med, q3 = statistics.quantiles(ms, n=4)
    else:
        q1 = med = q3 = ms[0]
    return {"n": len(ms), "q1": round(q1, 4), "median": round(statistics.median(ms), 4),
            "q3": round(q3, 4)}


def _deterministic(counts: dict[str, int]) -> dict[str, int]:
    """The counts that must repeat exactly (pool traffic depends on timing)."""
    return {k: v for k, v in counts.items() if not k.startswith("pool_")}


def _mismatch(counts: list[dict[str, int]]) -> str:
    """'' when every pass's deterministic counts equal the first pass's."""
    for i, c in enumerate(counts[1:], start=1):
        if c != counts[0]:
            diff = {k: (counts[0].get(k), c.get(k)) for k in c if c.get(k) != counts[0].get(k)}
            return f"pass {i} vs pass 0: {diff}"
    return ""
