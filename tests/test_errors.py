"""Tests for error reporting: source locations, messages, exception types."""

from __future__ import annotations

import pytest

from repro.errors import (
    ContractViolation,
    ReaderError,
    ReproError,
    RuntimeReproError,
    SyntaxExpansionError,
    TypeCheckError,
    UnboundIdentifierError,
    WrongTypeError,
)
from repro.reader import read_string_all


class TestHierarchy:
    def test_all_errors_are_repro_errors(self):
        for cls in (
            ReaderError, SyntaxExpansionError, UnboundIdentifierError,
            TypeCheckError, ContractViolation, RuntimeReproError, WrongTypeError,
        ):
            assert issubclass(cls, ReproError)

    def test_unbound_is_expansion_error(self):
        assert issubclass(UnboundIdentifierError, SyntaxExpansionError)

    def test_wrong_type_is_runtime_error(self):
        assert issubclass(WrongTypeError, RuntimeReproError)


class TestReaderLocations:
    def test_error_carries_location(self):
        with pytest.raises(ReaderError) as exc:
            read_string_all("(a\n  (b", source="prog.rkt")
        assert exc.value.srcloc is not None
        assert exc.value.srcloc.source == "prog.rkt"

    def test_location_in_message(self):
        with pytest.raises(ReaderError) as exc:
            read_string_all('"unterminated', source="f.rkt")
        assert "f.rkt:1" in str(exc.value)


class TestExpansionLocations:
    def test_unbound_identifier_points_at_use(self, run):
        with pytest.raises(UnboundIdentifierError) as exc:
            run("#lang racket\n\n(+ 1 mystery)")
        assert exc.value.srcloc is not None
        assert exc.value.srcloc.line == 3
        assert "mystery" in str(exc.value)

    def test_bad_syntax_shows_offending_form(self, run):
        with pytest.raises(SyntaxExpansionError) as exc:
            run("#lang racket\n(let bad-shape)")
        assert "let" in str(exc.value)

    def test_duplicate_definition_mentions_name(self, run):
        with pytest.raises(SyntaxExpansionError, match="duplicate definition of dup"):
            run("#lang racket\n(define dup 1)\n(define dup 2)")


class TestTypeErrorMessages:
    def test_shows_expected_and_actual(self, run):
        with pytest.raises(TypeCheckError) as exc:
            run('#lang typed\n(define x : Integer "s")')
        message = str(exc.value)
        assert "Integer" in message and "String" in message

    def test_shows_offending_expression(self, run):
        with pytest.raises(TypeCheckError) as exc:
            run("#lang simple-type\n(define x : Integer 3.7)")
        assert "3.7" in str(exc.value)

    def test_unknown_type_names_the_type(self, run):
        with pytest.raises(TypeCheckError, match="Bogus"):
            run("#lang typed\n(define x : Bogus 1)")

    def test_application_arity_message(self, run):
        with pytest.raises(TypeCheckError, match="wrong number of arguments"):
            run(
                """#lang typed
(: f (Integer -> Integer))
(define (f x) x)
(f 1 2)"""
            )


class TestRuntimeErrorMessages:
    def test_wrong_type_names_primitive_and_value(self, run):
        with pytest.raises(WrongTypeError) as exc:
            run("#lang racket\n(car 42)")
        message = str(exc.value)
        assert "car" in message and "pair?" in message and "42" in message

    def test_division_by_zero(self, run):
        with pytest.raises(WrongTypeError, match="non-zero"):
            run("#lang racket\n(/ 1 0)")

    def test_vector_bounds_message(self, run):
        with pytest.raises(RuntimeReproError, match="out of range"):
            run("#lang racket\n(vector-ref (vector 1 2) 5)")

    def test_undefined_before_definition(self, run):
        with pytest.raises(RuntimeReproError, match="referenced before definition"):
            run("#lang racket\n(displayln later)\n(define later 1)")

    def test_contract_message_has_blame(self, rt):
        rt.register_module(
            "server",
            "#lang simple-type\n(define (f [x : Integer]) : Integer x)\n(provide f)",
        )
        rt.register_module("client", '#lang racket\n(require server)\n(f "s")')
        with pytest.raises(ContractViolation) as exc:
            rt.run("client")
        assert "blaming" in str(exc.value)
        # the defensive wrapper is built at the server's definition site,
        # where the specific client is unknown: the paper's placeholder name
        assert exc.value.blame == "untyped-client"


class TestCommandLineUsage:
    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_prints_usage_and_exits_zero(self, flag, capsys):
        from repro.tools.runner import main

        assert main([flag]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: python -m repro [options] <file.rkt>")
        assert "options:" in captured.out and captured.err == ""

    @pytest.mark.parametrize("argv", [["--x"], ["--x", "prog.rkt"], ["run", "--bogus", "prog.rkt"]])
    def test_unknown_option_is_a_usage_error(self, argv, capsys):
        from repro.tools.runner import main

        assert main(argv) == 2
        captured = capsys.readouterr()
        unknown = next(arg for arg in argv if arg.startswith("--"))
        assert captured.err.splitlines() == [
            f"error: unknown option {unknown}",
            "usage: python -m repro [options] <file.rkt>",
        ]
        assert captured.out == ""


@pytest.fixture()
def no_start(monkeypatch):
    """Neither the service nor the REPL may start: a test that reaches
    either fails."""
    from repro.serve.server import ReproServer
    from repro.tools.repl import Repl

    def refuse(*args, **kwargs):
        raise AssertionError("started despite a bad command line")

    monkeypatch.setattr(ReproServer, "start", refuse)
    monkeypatch.setattr(Repl, "run", refuse)


class TestCommandLineContract:
    """One parser: each command takes exactly the options it uses, and the
    budget flags follow the rule a JSON budget sent to the service meets."""

    @pytest.mark.parametrize("argv, unknown", [
        (["trace", "--backend", "pyc", "t.rkt"], "--backend"),
        (["import-smoke", "--log-optimizations", "app.rules"], "--log-optimizations"),
        (["serve", "--no-cache"], "--no-cache"),
        (["cache", "stats", "--steps", "5"], "--steps"),
        (["langs", "--steps", "5"], "--steps"),
        (["--repl", "racket", "--no-cache"], "--no-cache"),
    ])
    def test_a_command_rejects_an_option_it_does_not_use(
        self, argv, unknown, capsys, no_start
    ):
        from repro.tools.runner import main

        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: unknown option {unknown}",
            "usage: python -m repro [options] <file.rkt>",
        ]
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["serve", "--backend", "bogus"],
        ["--repl", "racket", "--backend", "bogus"],
    ])
    def test_unknown_backend_exits_before_starting(self, argv, capsys, no_start):
        from repro.tools.runner import main

        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "interp" in err and "pyc" in err

    @pytest.mark.parametrize("argv", [
        ["langs"],
        ["trace", "t.rkt"],
        ["serve"],
        ["--repl", "racket"],
        ["cache", "stats"],
        ["t.rkt"],
    ])
    def test_unknown_backend_in_the_environment_is_a_usage_error(
        self, argv, monkeypatch, capsys, no_start
    ):
        from repro.tools.runner import main

        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: unknown backend 'bogus' in $REPRO_BACKEND "
            "(expected one of interp, pyc)",
            "usage: python -m repro [options] <file.rkt>",
        ]
        assert captured.out == ""

    @pytest.mark.parametrize("env, argv, resolved", [
        (None, ["serve"], "interp"),
        ("pyc", ["serve"], "pyc"),
        ("pyc", ["serve", "--backend", "interp"], "interp"),
    ])
    def test_serve_gets_the_backend_it_resolved(
        self, env, argv, resolved, monkeypatch, no_start
    ):
        import repro.serve
        from repro.tools.runner import main

        if env is None:
            monkeypatch.delenv("REPRO_BACKEND", raising=False)
        else:
            monkeypatch.setenv("REPRO_BACKEND", env)
        served = []
        monkeypatch.setattr(repro.serve, "serve_command",
                            lambda **kwargs: served.append(kwargs) or 0)
        assert main(argv) == 0
        assert served[0]["backend"] == resolved

    def test_run_budget_flags_follow_the_json_budget_rule(self, tmp_path, capsys):
        from repro.tools.runner import main

        program = tmp_path / "p.rkt"
        program.write_text("#lang racket\n(define (f) 1)\n(f)\n")
        assert main(["--no-cache", "--steps", "0", str(program)]) == 1
        assert "G001" in capsys.readouterr().err
        for flag, value in (("--steps", "-1"), ("--steps", "x"),
                            ("--time-limit", "inf")):
            assert main(["--no-cache", flag, value, str(program)]) == 2
            assert f"error: argument {flag}: budget limit" in capsys.readouterr().err

    def test_serve_budget_flags_follow_the_json_budget_rule(
        self, monkeypatch, capsys, no_start
    ):
        import repro.serve
        from repro.tools.runner import main

        served = []
        monkeypatch.setattr(repro.serve, "serve_command",
                            lambda **kwargs: served.append(kwargs) or 0)
        assert main(["serve", "--steps", "0", "--time-limit=2.5"]) == 0
        assert served[0]["budget"] == {"steps": 0, "seconds": 2.5}
        for flag, value in (("--steps", "-1"), ("--steps", "x"),
                            ("--time-limit", "inf")):
            assert main(["serve", flag, value]) == 2
            assert f"error: argument {flag}: budget limit" in capsys.readouterr().err
        assert len(served) == 1

    @pytest.mark.parametrize("argv", [
        ["--backend", "pyc", "--repl", "racket"],
        ["--repl", "racket", "--backend", "pyc"],
    ])
    def test_repl_takes_the_backend_on_either_side(self, argv, monkeypatch, capsys):
        import io

        from repro.tools.runner import main

        monkeypatch.setattr("sys.stdin", io.StringIO(",backend\n"))
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "#lang racket" in out and "backend: pyc\n" in out
