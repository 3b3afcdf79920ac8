"""Tests for the fault-tolerant compilation pipeline: structured
diagnostics, multi-error recovery, guarded expansion, and registries that
stay reusable after a failed compile."""

from __future__ import annotations

import gc
from io import StringIO

import pytest

from repro import Runtime
from repro.diagnostics import CompileResult, Diagnostic, DiagnosticSession
from repro.errors import (
    CompilationFailed,
    ContractViolation,
    ExpansionLimitError,
    ModuleError,
    ReaderError,
    SyntaxExpansionError,
    TypeCheckError,
)
from repro.tools.repl import Repl


def drive(*inputs: str, language: str = "racket") -> str:
    repl = Repl(language)
    stdin = StringIO("\n".join(inputs) + "\n")
    stdout = StringIO()
    repl.run(stdin=stdin, stdout=stdout)
    return stdout.getvalue()


THREE_TYPE_ERRORS = """#lang simple-type
(define a : Integer 1.5)
(define b : Integer 2)
(define c : String 42)
(define d : Boolean "yes")
(displayln b)
"""


class TestMultiErrorTypechecking:
    def test_three_independent_errors_reported_at_once(self, rt):
        rt.register_module("bad", THREE_TYPE_ERRORS)
        with pytest.raises(CompilationFailed) as exc_info:
            rt.compile("bad")
        diags = exc_info.value.diagnostics
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) == 3
        assert all(d.code == "T001" for d in errors)
        lines = sorted(d.srcloc.line for d in errors)
        assert lines == [2, 4, 5]

    def test_diagnostics_carry_source_excerpts(self, rt):
        rt.register_module("bad", THREE_TYPE_ERRORS)
        with pytest.raises(CompilationFailed) as exc_info:
            rt.compile("bad")
        rendered = str(exc_info.value)
        assert "(define a : Integer 1.5)" in rendered
        assert "^" in rendered
        assert "error[T001]" in rendered

    def test_single_error_still_raises_original_type(self, rt):
        # the pre-existing single-error contract: one problem re-raises the
        # original exception, so error-class assertions keep working
        rt.register_module("bad", "#lang simple-type\n(define w : Integer 3.7)")
        with pytest.raises(TypeCheckError, match="wrong type"):
            rt.compile("bad")

    def test_typed_language_collects_multiple_errors(self, rt):
        rt.register_module(
            "bad",
            """#lang typed
(define x : Integer "one")
(define y : String 2)
(displayln x)
""",
        )
        with pytest.raises(CompilationFailed) as exc_info:
            rt.compile("bad")
        assert len(exc_info.value.diagnostics) == 2

    def test_failed_definition_does_not_cascade(self, rt):
        # `a` fails to check; uses of `a` must not add "untyped variable"
        # noise on top of the one real error
        rt.register_module(
            "bad",
            """#lang simple-type
(define a : Integer 1.5)
(define b : Integer a)
(displayln (+ a b))
""",
        )
        with pytest.raises(TypeCheckError, match="wrong type"):
            rt.compile("bad")


class TestGuardedExpansion:
    def test_self_recursive_macro_hits_fuel_not_stack(self, rt):
        rt.register_module(
            "loop",
            """#lang racket
(define-syntax loop (syntax-rules () [(loop) (loop)]))
(loop)
""",
        )
        with pytest.raises(ExpansionLimitError) as exc_info:
            rt.compile("loop")
        assert exc_info.value.code == "E004"
        assert any(f.macro == "loop" for f in exc_info.value.expansion_backtrace)

    def test_mutually_recursive_macros_hit_fuel(self, rt):
        rt.register_module(
            "pingpong",
            """#lang racket
(define-syntax ping (syntax-rules () [(ping) (pong)]))
(define-syntax pong (syntax-rules () [(pong) (ping)]))
(ping)
""",
        )
        with pytest.raises(ExpansionLimitError):
            rt.compile("pingpong")

    def test_fuel_budget_is_configurable(self):
        rt = Runtime(expansion_fuel=50)
        rt.register_module(
            "ok", "#lang racket\n(displayln (+ 1 2))"
        )
        assert rt.run("ok") == "3\n"
        rt2 = Runtime(expansion_fuel=5)
        # even a plain module needs a handful of steps; a tiny budget trips
        rt2.register_module(
            "heavy",
            "#lang racket\n" + "\n".join(f"(displayln {i})" for i in range(40)),
        )
        with pytest.raises(ExpansionLimitError):
            rt2.compile("heavy")

    def test_expansion_steps_counted(self, rt):
        rt.register_module("m", "#lang racket\n(displayln (+ 1 2))")
        rt.compile("m")
        assert rt.stats.expansion_steps > 0

    def test_deep_but_terminating_macro_still_works(self, rt):
        rt.register_module(
            "countdown",
            """#lang racket
(define-syntax many (syntax-rules () [(many e) e]))
(displayln (many (many (many (many 'ok)))))
""",
        )
        assert rt.run("countdown") == "ok\n"


class TestReaderRecovery:
    """Registration stores text; reader errors surface when the module
    compiles, with the codes registration used to raise."""

    def test_unterminated_string_reported_with_code(self, rt):
        rt.register_module("bad", '#lang racket\n(displayln "oops)\n')
        with pytest.raises(ReaderError) as exc_info:
            rt.compile("bad")
        assert exc_info.value.code == "R003"

    def test_unterminated_bar_symbol_reported_with_code(self, rt):
        rt.register_module("bad-bar", "#lang racket\n(quote |oops)\n")
        with pytest.raises(ReaderError) as exc_info:
            rt.compile("bad-bar")
        assert exc_info.value.code == "R004"

    def test_bar_symbol_roundtrips_through_writer(self, rt):
        # a symbol the reader would misparse bare must print in |...| bars
        out = rt.run_source("#lang racket\n(write (quote |-I|))\n(newline)\n(write (quote |has space|))\n")
        assert out == "|-I|\n|has space|"

    def test_multiple_reader_errors_collected(self, rt):
        source = (
            "#lang racket\n"
            "(car 1 ]\n"  # mismatched close paren
            "(displayln 'fine)\n"
            "(cdr 2 ]\n"  # and another, after resynchronizing
            "(displayln \"unterminated\n"  # R003, runs to end of input
        )
        rt.register_module("bad", source)
        with pytest.raises(CompilationFailed) as exc_info:
            rt.compile("bad")
        codes = {d.code for d in exc_info.value.diagnostics}
        assert "R003" in codes
        assert len(exc_info.value.diagnostics) >= 3

    def test_unterminated_list_reported(self, rt):
        rt.register_module("bad", "#lang racket\n(displayln (+ 1 2)\n")
        with pytest.raises(ReaderError) as exc_info:
            rt.compile("bad")
        assert exc_info.value.code == "R002"

    def test_missing_lang_line(self, rt):
        rt.register_module("bad", "(displayln 1)\n")
        with pytest.raises(ReaderError) as exc_info:
            rt.compile("bad")
        assert exc_info.value.code == "R005"

    def test_reader_errors_are_compile_diagnostics(self, rt):
        rt.register_module("bad", "#lang racket\n(car 1 ]\n(cdr 2 ]\n")
        result = rt.compile("bad", diagnostics=True)
        assert not result.ok
        assert [(d.code, d.srcloc.line, d.srcloc.column) for d in result.diagnostics] == [
            ("R001", 2, 7),
            ("R001", 3, 7),
        ]


class TestTransactionalCompilation:
    def test_failed_compile_leaves_registry_reusable(self, rt):
        # satellite (a): register bad source, catch the error, re-register
        # corrected source under the same path, compile cleanly
        rt.register_module("m", "#lang simple-type\n(define x : Integer 1.5)\n")
        with pytest.raises(TypeCheckError):
            rt.compile("m")
        rt.register_module(
            "m", "#lang simple-type\n(define x : Integer 1)\n(displayln x)\n"
        )
        assert rt.run("m") == "1\n"

    def test_failed_compile_rolls_back_binding_table(self, rt, module_scopes):
        """A failed compile registers nothing: once the error is handled,
        its module scope, and every binding on it, is unreachable."""
        rt.register_module(
            "m",
            """#lang racket
(define-syntax m1 (syntax-rules () [(m1) 'one]))
(undefined-variable-here)
""",
        )
        with pytest.raises(Exception):
            rt.compile("m")
        gc.collect()
        assert "m" not in rt.registry.compiled
        assert [ref() for ref in module_scopes] == [None]

    def test_failed_dependency_can_be_fixed_and_retried(self, rt):
        rt.register_module("dep", "#lang racket\n(provide v)\n(define v 1.5)\n")
        rt.register_module(
            "main", "#lang racket\n(require dep)\n(displayln v)\n"
        )
        assert rt.run("main") == "1.5\n"

    def test_missing_dependency_names_requirer(self, rt):
        rt.register_module("main", "#lang racket\n(require nonexistent)\n")
        with pytest.raises(ModuleError) as exc_info:
            rt.compile("main")
        assert exc_info.value.code == "M002"
        assert "main" in str(exc_info.value)

    def test_dependency_cycle_names_requirer(self, rt):
        rt.register_module("a", "#lang racket\n(require b)\n(define x 1)\n")
        rt.register_module("b", "#lang racket\n(require a)\n(define y 2)\n")
        with pytest.raises(ModuleError) as exc_info:
            rt.compile("a")
        assert exc_info.value.code == "M003"

    def test_retry_after_failed_dependency_compile(self, rt):
        # a broken dependency fails the requirer too; fixing the
        # dependency and retrying must succeed in the same registry
        rt.register_module("dep", "#lang simple-type\n(define v : Integer 1.5)\n")
        rt.register_module(
            "main", "#lang racket\n(require dep)\n(displayln 'hi)\n"
        )
        with pytest.raises(TypeCheckError):
            rt.compile("main")
        rt.register_module(
            "dep",
            "#lang simple-type\n(provide v)\n(define v : Integer 7)\n",
        )
        assert rt.run("main") == "hi\n"


class TestCompileResultAPI:
    def test_diagnostics_mode_success(self, rt):
        rt.register_module("ok", "#lang racket\n(define x 1)\n")
        result = rt.compile("ok", diagnostics=True)
        assert isinstance(result, CompileResult)
        assert result.ok
        assert result.diagnostics == []
        assert result.module is not None

    def test_diagnostics_mode_collects_all_errors(self, rt):
        rt.register_module("bad", THREE_TYPE_ERRORS)
        result = rt.compile("bad", diagnostics=True)
        assert not result.ok
        assert len(result.diagnostics) == 3
        assert "T001" in result.render()

    def test_diagnostics_mode_single_error(self, rt):
        rt.register_module(
            "bad", "#lang simple-type\n(define x : Integer 1.5)\n"
        )
        result = rt.compile("bad", diagnostics=True)
        assert not result.ok
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].code == "T001"

    @pytest.mark.parametrize("source", [
        THREE_TYPE_ERRORS, "#lang simple-type\n(define x : Integer 1.5)\n",
    ], ids=["several", "one"])
    def test_excerpts_quote_the_text_this_compile_read(self, source):
        """A compile's excerpts stay the same when another Runtime
        registers and compiles a module of the same name."""
        with Runtime() as a, Runtime() as b:
            a.register_module("m", source)
            result = a.compile("m", diagnostics=True)
            rendered = result.render()
            assert "| (define a : Integer 1.5)" in rendered or \
                "| (define x : Integer 1.5)" in rendered
            b.register_module("m", "#lang simple-type\n" + "(displayln 0)\n" * 6)
            assert b.compile("m", diagnostics=True).ok
            assert result.render() == rendered

    def test_excerpt_counts_lines_as_the_lexer_does(self, rt):
        # a form feed or a CRLF ending is not a line break of its own
        rt.register_module(
            "m", "#lang simple-type\r\n; page\x0cbreak\r\n(define a : Integer 1.5)\r\n"
        )
        excerpt = rt.compile("m", diagnostics=True).diagnostics[0].excerpt()
        assert excerpt.splitlines()[0] == "  | (define a : Integer 1.5)"

    def test_diagnostic_from_error_is_structured(self):
        err = TypeCheckError("wrong type")
        diag = Diagnostic.from_error(err)
        assert diag.code == "T001"
        assert diag.severity == "error"
        assert "wrong type" in diag.message


class TestContractSrcloc:
    def test_violation_carries_boundary_srcloc(self, rt):
        rt.register_module("lib", "#lang racket\n(provide f)\n(define f 'not-a-fn)\n")
        rt.register_module(
            "main",
            """#lang simple-type
(require/typed lib [f (-> Integer Integer)])
(displayln (f 1))
""",
        )
        with pytest.raises(ContractViolation) as exc_info:
            rt.run("main")
        assert exc_info.value.code == "C001"
        assert exc_info.value.srcloc is not None
        assert exc_info.value.srcloc.source == "main"
        assert exc_info.value.srcloc.line == 2


class TestReplSurvival:
    def test_survives_reader_error(self):
        out = drive('(displayln "unterminated', "(+ 1 2)")
        assert "error:" in out
        assert "3\n" in out

    def test_survives_expansion_error(self):
        out = drive("(undefined-macro-or-var)", "(+ 2 2)")
        assert "error:" in out
        assert "4\n" in out

    def test_survives_expansion_limit(self):
        out = drive(
            "(define-syntax loop (syntax-rules () [(loop) (loop)]))",
            "(loop)",
            "(+ 3 3)",
        )
        assert "error:" in out
        assert "6\n" in out

    def test_survives_type_error(self):
        out = drive("(define x : Integer 1.5)", "(+ 4 4)", language="typed")
        assert "error:" in out
        assert "8\n" in out

    def test_survives_multiple_type_errors(self):
        out = drive(
            '(begin (define a : Integer 1.5) (define b : String 2))',
            "(+ 5 5)",
            language="typed",
        )
        assert "error:" in out
        assert "10\n" in out

    def test_survives_runtime_error(self):
        out = drive("(car '())", "(+ 6 6)")
        assert "error:" in out
        assert "12\n" in out

    def test_survives_contract_violation(self):
        out = drive(
            "(define x : Integer 5)",
            "(string-length 7)",
            "(+ 7 7)",
            language="typed",
        )
        assert "error:" in out
        assert "14\n" in out


class TestDiagnosticSession:
    def test_recover_collects_and_continues(self):
        session = DiagnosticSession("<m>")
        with session.recover():
            raise TypeCheckError("first")
        with session.recover():
            raise SyntaxExpansionError("second")
        assert len(session.errors) == 2
        with pytest.raises(CompilationFailed):
            session.raise_if_errors()

    def test_single_error_reraises_original(self):
        session = DiagnosticSession("<m>")
        original = TypeCheckError("only one")
        with session.recover():
            raise original
        with pytest.raises(TypeCheckError) as exc_info:
            session.raise_if_errors()
        assert exc_info.value is original

    def test_fatal_errors_pass_through(self):
        session = DiagnosticSession("<m>")
        with pytest.raises(ModuleError):
            with session.recover():
                raise ModuleError("module not found: x")
        assert not session.has_errors

    def test_duplicate_diagnostics_are_merged(self):
        session = DiagnosticSession("<m>")
        session.add_exception(TypeCheckError("same problem"))
        session.add_exception(TypeCheckError("same problem"))
        assert len(session.diagnostics) == 1

    def test_no_errors_is_a_no_op(self):
        session = DiagnosticSession("<m>")
        session.raise_if_errors()
