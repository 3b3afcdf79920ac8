"""Tests for the REPL tool."""

from __future__ import annotations

import os
from io import StringIO

import pytest

from repro.tools.repl import Repl


def drive(*inputs: str, language: str = "racket") -> str:
    repl = Repl(language)
    stdin = StringIO("\n".join(inputs) + "\n")
    stdout = StringIO()
    repl.run(stdin=stdin, stdout=stdout)
    return stdout.getvalue()


class TestRepl:
    def test_expression_prints_value(self):
        assert "3\n" in drive("(+ 1 2)")

    def test_definitions_persist(self):
        out = drive("(define x 10)", "(* x x)")
        assert "100\n" in out

    def test_function_definition_and_use(self):
        out = drive("(define (square n) (* n n))", "(square 12)")
        assert "144\n" in out

    def test_macro_definition_persists(self):
        out = drive(
            "(define-syntax twice (syntax-rules () [(_ e) (begin e e)]))",
            "(twice (display 'hi))",
        )
        assert "hihi" in out

    def test_error_does_not_lose_state(self):
        out = drive("(define y 7)", "(car '())", "(+ y 1)")
        assert "error:" in out
        assert "8\n" in out

    def test_void_results_not_printed(self):
        out = drive("(void)")
        assert out.count("repro>") == 2  # prompt before input + final prompt
        assert "#<void>" not in out

    def test_side_effects_not_repeated(self):
        # each input re-runs the accumulated module; output diffing must
        # show each effect only once
        out = drive('(display "once!")', "(+ 1 1)")
        assert out.count("once!") == 1

    def test_typed_language_repl(self):
        out = drive("(define x : Integer 4)", "(+ x 1)", language="typed")
        assert "5\n" in out

    def test_typed_repl_rejects_type_errors_without_losing_state(self):
        out = drive(
            "(define x : Integer 4)",
            "(define y : Integer 1.5)",
            "(+ x 1)",
            language="typed",
        )
        assert "error:" in out
        assert "5\n" in out

    def test_empty_input_ignored(self):
        out = drive("", "(+ 2 2)")
        assert "4\n" in out


class TestReplMetaCommands:
    def test_help_lists_commands(self):
        out = drive(",help")
        assert ",stats" in out
        assert ",trace" in out

    def test_unknown_meta_command(self):
        out = drive(",bogus")
        assert "unknown meta-command ,bogus" in out

    def test_stats_shows_counters(self):
        out = drive("(+ 1 2)", ",stats")
        assert "expansion_steps" in out
        assert "generic_dispatches" in out
        # per-macro attribution rides along (satellite: expansion_by_macro)
        assert "expansion steps by macro:" in out

    def test_stats_reset(self):
        repl = Repl()
        repl.forms.append("(define (%repl-show v) (displayln v))")
        repl.eval_input("(+ 1 2)")
        assert repl.runtime.stats.expansion_steps > 0
        out = repl.eval_input(",stats reset")
        assert "stats reset" in out
        assert repl.runtime.stats.expansion_steps == 0

    def test_trace_before_any_eval(self):
        out = drive(",trace")
        assert "nothing evaluated yet" in out

    def test_backend_shows_active(self):
        out = drive(",backend")
        default = os.environ.get("REPRO_BACKEND", "interp")
        assert f"backend: {default}" in out

    def test_backend_switch_keeps_definitions(self):
        """,backend pyc: the next input re-instantiates the accumulated
        module in a fresh namespace under the new backend."""
        repl = Repl()
        repl.forms.append("(define (%repl-show v) (displayln v))")
        repl.eval_input("(define (sq x) (* x x))")
        out = repl.eval_input(",backend pyc")
        assert "backend: pyc" in out
        assert repl.eval_input("(sq 7)").strip() == "49"
        # the input really ran under pyc: codegen + link were charged
        assert repl.runtime.stats.pyc_codegens > 0
        assert repl.runtime.stats.pyc_links > 0
        # and back again, state intact
        assert "backend: interp" in repl.eval_input(",backend interp")
        assert repl.eval_input("(sq 8)").strip() == "64"

    def test_backend_rejects_unknown(self):
        out = drive(",backend bogus")
        assert "usage: ,backend" in out

    def test_stats_attributes_time_to_backend_phases(self):
        repl = Repl(backend="pyc")
        repl.forms.append("(define (%repl-show v) (displayln v))")
        repl.eval_input("(+ 1 2)")
        out = repl.eval_input(",stats")
        assert "time by phase (backend: pyc):" in out
        assert "pyc-codegen" in out
        assert "* = pyc backend's own phases" in out

    def test_trace_shows_last_input_macro_steps(self):
        repl = Repl()
        repl.forms.append("(define (%repl-show v) (displayln v))")
        repl.eval_input(
            "(define-syntax twice (syntax-rules () [(_ e) (begin e e)]))"
        )
        repl.eval_input("(twice (display 'hi))")
        out = repl.eval_input(",trace")
        assert "twice" in out
        # the full stepper renders input/output syntax per step
        assert "in:" in out and "out:" in out
        # steps of *earlier* inputs are filtered out of the headline list
        steps_section = out.split("optimization coach")[0]
        assert "define-syntax" not in steps_section.split("twice")[0]

    def test_only_the_latest_input_module_stays_registered(self):
        """Each input's module holds the whole session so far; earlier
        ones (and failed ones) are unregistered, and ,trace still filters
        to the last input."""
        repl = Repl()
        repl.forms.append("(define (%repl-show v) (displayln v))")
        repl.eval_input(
            "(define-syntax twice (syntax-rules () [(_ e) (begin e e)]))"
        )
        for i in range(17):
            repl.eval_input(f"(define v{i} {i})")
        with pytest.raises(Exception):
            repl.eval_input("(car '())")
        assert repl.eval_input("(twice (display v16))").startswith("1616")
        registry = repl.runtime.registry
        assert [p for p in registry.sources if p.startswith("<repl-")] == ["<repl-20>"]
        assert [p for p in registry.compiled if p.startswith("<repl-")] == ["<repl-20>"]
        out = repl.eval_input(",trace")
        assert "twice" in out
        steps_section = out.split("optimization coach")[0]
        assert "define-syntax" not in steps_section.split("twice")[0]

    def test_trace_shows_coach_events_for_typed_input(self):
        repl = Repl("typed")
        repl.forms.append(
            "(define (%repl-show [v : Any]) : Void"
            " (if (void? v) (void) (displayln v)))"
        )
        repl.eval_input("(define (f [x : Float]) : Float (* x x))")
        out = repl.eval_input(",trace")
        assert "optimization coach:" in out
        assert "unsafe-fl*" in out


class TestMiscForms:
    def test_with_handlers_catches(self, run):
        assert run(
            """#lang racket
(displayln (with-handlers ([exn? (lambda (e) 'caught)])
  (error "boom")))"""
        ) == "caught\n"

    def test_with_handlers_passes_exn(self, run):
        assert run(
            """#lang racket
(displayln (with-handlers ([exn? exn-message])
  (error "the message")))"""
        ) == "the message\n"

    def test_with_handlers_no_error(self, run):
        assert run(
            "#lang racket\n(displayln (with-handlers ([exn? (lambda (e) 'no)]) 42))"
        ) == "42\n"

    def test_with_handlers_reraises_unmatched(self, run):
        from repro.errors import RuntimeReproError

        with pytest.raises(RuntimeReproError):
            run(
                """#lang racket
(with-handlers ([(lambda (e) #f) (lambda (e) 'never)])
  (error "still raised"))"""
            )

    def test_raise_of_exn_value(self, run):
        assert run(
            """#lang racket
(displayln (with-handlers ([exn? exn-message])
  (raise (with-handlers ([exn? (lambda (e) e)]) (error "wrapped")))))"""
        ) == "wrapped\n"

    def test_time_returns_value(self, run):
        out = run("#lang racket\n(displayln (time (+ 20 22)))")
        assert out.startswith("cpu time:")
        assert out.endswith("42\n")
