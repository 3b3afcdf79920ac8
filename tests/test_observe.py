"""Tests for the observability subsystem (repro.observe).

Covers the recorder/event bus, the macro stepper, the optimization coach
(fired + near-miss srcloc correctness, asserted against known source
positions), the phase profiler and its Chrome-trace export, the CLI
``trace`` subcommand (including the acceptance run over
``examples/optimizer_tour.py``), and the differential guarantee that
tracing never changes program results.
"""

from __future__ import annotations

import json
import os
import re
import threading

import pytest

from repro import Runtime, Tracer
from repro.observe import (
    CATEGORIES,
    NULL_RECORDER,
    Recorder,
    chrome_trace,
    coach_report,
    current_recorder,
    fired,
    macro_steps,
    near_misses,
    phase_totals,
    resolve_trace,
    steps_by_macro,
    summary,
    use_recorder,
    validate_chrome_trace,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TYPED_FLOAT = """#lang typed
(define (norm [x : Float] [y : Float]) : Float
  (sqrt (+ (* x x) (* y y))))
(define (blend [a : Float] [b : Number]) : Number
  (* a b))
(displayln (norm 3.0 4.0))
(displayln (blend 2.0 3))
"""


def traced_runtime(trace="full") -> Runtime:
    return Runtime(trace=trace, cache=False)


class TestRecorder:
    def test_default_runtime_has_no_tracer(self):
        assert Runtime().tracer is None

    def test_trace_true_attaches_tracer(self):
        rt = Runtime(trace=True)
        assert isinstance(rt.tracer, Tracer)
        assert rt.tracer.capture_syntax is False

    def test_trace_full_captures_syntax(self):
        assert Runtime(trace="full").tracer.capture_syntax is True

    def test_trace_accepts_shared_recorder(self):
        tracer = Tracer()
        assert Runtime(trace=tracer).tracer is tracer

    def test_trace_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            Runtime(trace="verbose")
        with pytest.raises(TypeError):
            Runtime(trace=42)

    def test_null_recorder_is_disabled_noop(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.instant("cache", "hit")
        with NULL_RECORDER.span("compile", "m"):
            pass
        NULL_RECORDER.macro_step("m", None, 1)
        NULL_RECORDER.opt_fired("float", "+", "unsafe-fl+", None)
        NULL_RECORDER.opt_near_miss("float", "+", "reason", None)

    def test_current_recorder_is_the_innermost_context(self):
        outer, inner = Tracer(), Tracer()
        assert current_recorder() is NULL_RECORDER
        with use_recorder(outer):
            assert current_recorder() is outer
            with use_recorder(inner):
                assert current_recorder() is inner
            with use_recorder(None):
                assert current_recorder() is NULL_RECORDER
            assert current_recorder() is outer
        assert current_recorder() is NULL_RECORDER

    def test_runtime_adopts_recorder_active_at_construction(self):
        tracer = Tracer()
        with use_recorder(tracer):
            rt = Runtime(cache=False)
        assert rt.tracer is tracer
        # outside the context it was built in, it still records to it
        rt.register_module("m", "#lang racket\n(displayln (+ 1 2))")
        rt.run("m")
        assert any(e.category == "macro" for e in tracer.events)

    def test_trace_false_opts_out_of_active_recorder(self):
        """A Runtime records to its own tracer and nowhere else: one built
        with tracing off adds no event to the tracer active around it."""
        tracer = Tracer()
        with use_recorder(tracer):
            assert resolve_trace(False) is None
            rt = Runtime(trace=False, cache=False)
            assert rt.tracer is None
            rt.register_module("m", "#lang racket\n(displayln (+ 1 2))")
            assert rt.run("m") == "3\n"
        assert tracer.events == []

    def test_event_cap_counts_drops(self):
        tracer = Tracer(max_events=2)
        for _ in range(5):
            tracer.instant("cache", "hit")
        assert len(tracer.events) == 2
        assert tracer.dropped == 3


class TestCategories:
    #: the category literal of every ``.span("cat", ...)``,
    #: ``.instant("cat", ...)`` and ``TraceEvent(KIND, "cat", ...)``
    EMIT = re.compile(
        r'(?:\.(?:span|instant)\(|TraceEvent\(\s*[A-Z]+,)\s*"([^"]*)"'
    )

    def test_every_emitted_category_is_documented(self):
        src = os.path.join(REPO_ROOT, "src", "repro")
        emitted: dict[str, str] = {}
        for root, _dirs, files in os.walk(src):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    with open(path, encoding="utf-8") as f:
                        for category in self.EMIT.findall(f.read()):
                            emitted.setdefault(category, path)
        # the scan itself must see the platform's spans and instants
        assert {"read", "expand", "macro", "coach", "pyc-link", "guard"} <= set(emitted)
        undocumented = {c: p for c, p in emitted.items() if c not in CATEGORIES}
        assert not undocumented, undocumented


class TestStepper:
    def test_macro_steps_record_name_depth_and_srcloc(self):
        rt = traced_runtime()
        rt.register_module(
            "stepper-m",
            "#lang racket\n"
            "(define-syntax twice (syntax-rules () [(_ e) (begin e e)]))\n"
            "(twice (display 'hi))\n",
        )
        rt.run("stepper-m")
        steps = [e for e in macro_steps(rt.tracer) if e.name == "twice"]
        assert len(steps) == 1
        (step,) = steps
        assert step.srcloc is not None
        assert step.srcloc.source == "stepper-m"
        assert step.srcloc.line == 3
        assert step.depth >= 1
        # full-stepper mode renders the input and output syntax
        assert "twice" in step.attrs["in"]
        assert "begin" in step.attrs["out"]
        assert "intro_scope" in step.attrs

    def test_steps_by_macro_counts(self):
        rt = traced_runtime()
        rt.register_module(
            "count-m",
            "#lang racket\n"
            "(define-syntax twice (syntax-rules () [(_ e) (begin e e)]))\n"
            "(twice (void))\n(twice (void))\n(twice (void))\n",
        )
        rt.run("count-m")
        assert steps_by_macro(rt.tracer)["twice"] == 3

    def test_stats_expansion_by_macro_attribution(self):
        rt = traced_runtime()
        rt.register_module(
            "attr-m",
            "#lang racket\n"
            "(define-syntax twice (syntax-rules () [(_ e) (begin e e)]))\n"
            "(twice (void))\n(twice (void))\n",
        )
        rt.run("attr-m")
        assert rt.stats.expansion_by_macro["twice"] == 2
        assert rt.stats.snapshot()["expansion_by_macro"]["twice"] == 2
        assert ("twice", 2) in rt.stats.top_macros(50)

    def test_macro_attribution_without_tracer(self):
        # per-macro stats come from the stats layer, not the tracer
        rt = Runtime(cache=False)
        rt.register_module(
            "attr-plain",
            "#lang racket\n"
            "(define-syntax twice (syntax-rules () [(_ e) (begin e e)]))\n"
            "(twice (void))\n",
        )
        rt.run("attr-plain")
        assert rt.stats.expansion_by_macro["twice"] == 1


class TestCoach:
    def test_fired_and_near_miss_srclocs(self):
        rt = traced_runtime()
        rt.register_module("coach-m", TYPED_FLOAT)
        rt.run("coach-m")
        hits = fired(rt.tracer)
        misses = near_misses(rt.tracer)
        assert hits and misses

        # (* x x) sits at line 3 col 11 of TYPED_FLOAT; the fired event's
        # srcloc must be the application's own use site
        mults = [e for e in hits if e.attrs["op"] == "*"]
        assert {(e.srcloc.source, e.srcloc.line) for e in mults} == {("coach-m", 3)}
        assert all(e.attrs["replacement"] == "unsafe-fl*" for e in mults)
        assert all(e.attrs["rule"] == "float" for e in mults)
        sqrt_hits = [e for e in hits if e.attrs["op"] == "sqrt"]
        assert [e.srcloc.line for e in sqrt_hits] == [3]

        # (* a b) in blend is at line 5; b : Number blocks the float rule
        (miss,) = misses
        assert (miss.srcloc.source, miss.srcloc.line) == ("coach-m", 5)
        assert miss.attrs["op"] == "*"
        assert "Number" in miss.attrs["reason"]
        assert "unsafe-fl*" in miss.attrs["reason"]
        assert "Float" in miss.attrs["reason"]

    def test_near_miss_reports_disabled_rule_group(self):
        rt = Runtime(trace="full", cache=False, optimizer_rules={"fixnum"})
        rt.register_module(
            "disabled-m",
            "#lang typed\n"
            "(define (f [x : Float]) : Float (* x x))\n"
            "(displayln (f 2.0))\n",
        )
        rt.run("disabled-m")
        misses = near_misses(rt.tracer)
        assert any(
            "rule group `float` disabled" in e.attrs["reason"] for e in misses
        )

    def test_simple_type_optimizer_coaches_too(self):
        rt = traced_runtime()
        rt.register_module(
            "simple-m",
            "#lang simple-type\n"
            "(define (f [x : Float]) : Float (* x x))\n"
            "(displayln (f 2.0))\n",
        )
        rt.run("simple-m")
        assert any(e.attrs["op"] == "*" for e in fired(rt.tracer))

    def test_coach_report_renders_both_kinds(self):
        rt = traced_runtime()
        rt.register_module("report-m", TYPED_FLOAT)
        rt.run("report-m")
        report = coach_report(rt.tracer)
        assert "specialization(s) fired" in report
        assert "near-miss" in report
        assert "report-m:5" in report

    def test_untraced_run_emits_no_coach_events(self):
        rt = Runtime(trace=False, cache=False)
        rt.register_module("quiet-m", TYPED_FLOAT)
        rt.run("quiet-m")
        assert rt.tracer is None


class TestProfiler:
    def test_phase_totals_cover_pipeline(self):
        rt = traced_runtime()
        rt.register_module("prof-m", TYPED_FLOAT)
        rt.run("prof-m")
        totals = phase_totals(rt.tracer)
        # the final pipeline stage's phase depends on the active backend
        codegen = {"interp": "closure-compile", "pyc": "pyc-codegen"}[rt.backend]
        for phase in ("read", "compile", "expand", "typecheck", "optimize",
                      codegen, "run"):
            assert totals.get(phase, 0.0) > 0.0, phase

    def test_exclusive_times_do_not_double_count(self):
        rt = traced_runtime()
        rt.register_module("excl-m", TYPED_FLOAT)
        rt.run("excl-m")
        totals = phase_totals(rt.tracer)
        spans = [e for e in rt.tracer.events if e.kind == "X"]
        first = min(e.ts for e in spans)
        last = max(e.ts + e.dur for e in spans)
        # exclusive totals sum to at most the traced wall-clock envelope
        assert sum(totals.values()) <= (last - first) + 1e-6

    def test_chrome_trace_is_valid(self):
        rt = traced_runtime()
        rt.register_module("chrome-m", TYPED_FLOAT)
        rt.run("chrome-m")
        data = chrome_trace(rt.tracer)
        # round-trip through JSON: what the CLI writes is what we validate
        assert validate_chrome_trace(json.loads(json.dumps(data))) == []
        phases = {e["ph"] for e in data["traceEvents"]}
        assert phases == {"X", "i"}

    def test_chrome_trace_tracks_threads(self):
        tracer = Tracer()
        both_open = threading.Barrier(2)

        def work() -> None:
            with tracer.span("run", "worker"):
                both_open.wait(timeout=30)  # the two spans overlap

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        data = chrome_trace(tracer)
        assert validate_chrome_trace(json.loads(json.dumps(data))) == []
        events = data["traceEvents"]
        assert {e["pid"] for e in events} == {os.getpid()}
        assert len({e["tid"] for e in events}) == 2
        # overlapping spans on two threads do not nest: each keeps its
        # whole duration as exclusive time
        assert phase_totals(tracer)["run"] == pytest.approx(
            sum(e.dur for e in tracer.events)
        )

    def test_validate_rejects_malformed(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": []}) != []
        bad = {
            "otherData": {"schema": "repro-trace/1"},
            "traceEvents": [{"name": "x", "cat": "run", "ph": "Q", "ts": 0,
                             "pid": 1, "tid": 1}],
        }
        assert any("bad ph" in p for p in validate_chrome_trace(bad))

    def test_summary_mentions_phases_macros_and_coach(self):
        rt = traced_runtime()
        rt.register_module("sum-m", TYPED_FLOAT)
        rt.run("sum-m")
        text = summary(rt.tracer)
        assert "per-phase timings" in text
        assert "typecheck" in text
        assert "expansion steps by macro" in text
        assert "optimization coach" in text


class TestDifferential:
    PROGRAMS = [
        TYPED_FLOAT,
        "#lang racket\n"
        "(define-syntax swap! (syntax-rules () [(_ a b)\n"
        "  (let ([tmp a]) (set! a b) (set! b tmp))]))\n"
        "(define x 1) (define y 2.5)\n"
        "(swap! x y)\n(displayln (list x y))\n",
        "#lang simple-type\n"
        "(define (area [r : Float]) : Float (* 3.141592653589793 (* r r)))\n"
        "(displayln (area 2.0))\n",
    ]

    @pytest.mark.parametrize("idx", range(len(PROGRAMS)))
    def test_tracing_does_not_change_results(self, idx):
        source = self.PROGRAMS[idx]
        outputs = {}
        for mode in (False, True, "full"):
            rt = Runtime(trace=mode, cache=False)
            rt.register_module(f"diff-{idx}", source)
            outputs[mode] = rt.run(f"diff-{idx}")
            rt.close()
        assert outputs[False] == outputs[True] == outputs["full"]

    def test_tracing_does_not_change_counters(self):
        snaps = {}
        for mode in (False, "full"):
            rt = Runtime(trace=mode, cache=False)
            rt.register_module("diff-c", TYPED_FLOAT)
            rt.run("diff-c")
            snap = rt.stats.snapshot()
            snap.pop("expansion_by_macro")
            snaps[mode] = snap
            rt.close()
        assert snaps[False] == snaps["full"]


class TestTraceCli:
    def test_trace_rkt_file_chrome_out(self, tmp_path, capsys):
        from repro.tools.runner import main

        src = tmp_path / "prog.rkt"
        src.write_text(TYPED_FLOAT)
        out = tmp_path / "trace.json"
        assert main(["trace", str(src), "--format", "chrome",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        # the program's own output goes to stderr; the trace to the file
        assert "5.0" in captured.err
        data = json.loads(out.read_text())
        assert validate_chrome_trace(data) == []

    def test_trace_summary_to_stdout(self, tmp_path, capsys):
        from repro.tools.runner import main

        src = tmp_path / "prog.rkt"
        src.write_text(TYPED_FLOAT)
        assert main(["trace", str(src), "--format", "summary"]) == 0
        out = capsys.readouterr().out
        assert "per-phase timings" in out
        assert "optimization coach" in out

    def test_trace_rejects_bad_format(self, capsys):
        from repro.tools.runner import main

        assert main(["trace", "x.rkt", "--format", "xml"]) == 2

    def test_run_log_optimizations(self, tmp_path, capsys):
        from repro.tools.runner import main

        src = tmp_path / "prog.rkt"
        src.write_text(TYPED_FLOAT)
        assert main(["run", str(src), "--log-optimizations"]) == 0
        err = capsys.readouterr().err
        assert "optimization coach" in err
        assert "near-miss" in err

    def test_acceptance_optimizer_tour_summary(self, capsys):
        """The ISSUE's acceptance run: `repro trace examples/optimizer_tour.py
        --format summary` reports >= 1 fired and >= 1 near-miss, with
        srclocs."""
        from repro.tools.runner import main

        example = os.path.join(REPO_ROOT, "examples", "optimizer_tour.py")
        assert main(["trace", example, "--format", "summary"]) == 0
        out = capsys.readouterr().out
        coach = out[out.index("optimization coach"):]
        header = coach.splitlines()[0]
        n_fired, n_miss = (
            int(header.split(": ")[1].split()[0]),
            int(header.split(", ")[1].split()[0]),
        )
        assert n_fired >= 1 and n_miss >= 1
        # srclocs: every fired/near-miss line carries source:line:col
        import re

        for line in coach.splitlines()[1:]:
            if line.strip().startswith(("fired", "near-miss")):
                match = re.search(r":(\d+):(\d+):", line)
                assert match, line
                assert int(match.group(1)) >= 1

    def test_acceptance_optimizer_tour_near_miss_srcloc(self):
        """The tour's near-miss is the (* a b) in blend, with its line."""
        import runpy
        from contextlib import redirect_stdout
        from io import StringIO

        tracer = Tracer(capture_syntax=True)
        with use_recorder(tracer), redirect_stdout(StringIO()):
            runpy.run_path(
                os.path.join(REPO_ROOT, "examples", "optimizer_tour.py"),
                run_name="__main__",
            )
        misses = near_misses(tracer)
        assert misses
        assert all("unsafe-fl*" in e.attrs["reason"] for e in misses)
        # the blend body (* a b): `#lang typed`, five KERNEL lines, the
        # blank line opening NEAR_MISS, the define, then the body
        assert {e.srcloc.line for e in misses} == {9}
