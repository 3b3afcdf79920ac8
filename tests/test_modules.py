"""Tests for the module system: provide/require, separate compilation,
fresh compile-time stores, and object-language macro export."""

from __future__ import annotations

import pytest

from repro.errors import ModuleError, SyntaxExpansionError, UnboundIdentifierError


class TestProvideRequire:
    def test_value_export(self, rt):
        rt.register_module("lib", "#lang racket\n(define answer 42)\n(provide answer)")
        rt.register_module("app", "#lang racket\n(require lib)\n(displayln answer)")
        assert rt.run("app") == "42\n"

    def test_function_export(self, rt):
        rt.register_module(
            "lib", "#lang racket\n(define (double x) (* 2 x))\n(provide double)"
        )
        rt.register_module("app", "#lang racket\n(require lib)\n(displayln (double 21))")
        assert rt.run("app") == "42\n"

    def test_unprovided_binding_invisible(self, rt):
        rt.register_module(
            "lib", "#lang racket\n(define pub 1)\n(define priv 2)\n(provide pub)"
        )
        rt.register_module("app", "#lang racket\n(require lib)\n(displayln priv)")
        with pytest.raises(UnboundIdentifierError):
            rt.run("app")

    def test_rename_out(self, rt):
        rt.register_module(
            "lib",
            "#lang racket\n(define internal-name 7)\n(provide (rename-out [internal-name external]))",
        )
        rt.register_module("app", "#lang racket\n(require lib)\n(displayln external)")
        assert rt.run("app") == "7\n"

    def test_only_in(self, rt):
        rt.register_module(
            "lib", "#lang racket\n(define a 1)\n(define b 2)\n(provide a b)"
        )
        rt.register_module(
            "app",
            "#lang racket\n(require (only-in lib a))\n(displayln a)",
        )
        assert rt.run("app") == "1\n"

    def test_only_in_with_rename(self, rt):
        rt.register_module("lib", "#lang racket\n(define a 1)\n(provide a)")
        rt.register_module(
            "app",
            "#lang racket\n(require (only-in lib [a fresh-name]))\n(displayln fresh-name)",
        )
        assert rt.run("app") == "1\n"

    def test_require_missing_export_rejected(self, rt):
        rt.register_module("lib", "#lang racket\n(define a 1)\n(provide a)")
        rt.register_module(
            "app", "#lang racket\n(require (only-in lib missing))\n(displayln 1)"
        )
        with pytest.raises(SyntaxExpansionError):
            rt.run("app")

    def test_transitive_requires(self, rt):
        rt.register_module("a", "#lang racket\n(define base 10)\n(provide base)")
        rt.register_module(
            "b",
            "#lang racket\n(require a)\n(define doubled (* 2 base))\n(provide doubled)",
        )
        rt.register_module("c", "#lang racket\n(require b)\n(displayln doubled)")
        assert rt.run("c") == "20\n"

    def test_diamond_dependency_instantiated_once(self, rt):
        rt.register_module(
            "base", "#lang racket\n(display \"init!\")\n(define x 1)\n(provide x)"
        )
        rt.register_module("left", "#lang racket\n(require base)\n(define l x)\n(provide l)")
        rt.register_module("right", "#lang racket\n(require base)\n(define r x)\n(provide r)")
        rt.register_module(
            "top", "#lang racket\n(require left)\n(require right)\n(displayln (+ l r))"
        )
        assert rt.run("top") == "init!2\n"

    def test_module_cycle_rejected(self, rt):
        rt.register_module("a", "#lang racket\n(require b)\n(define x 1)")
        rt.register_module("b", "#lang racket\n(require a)\n(define y 2)")
        with pytest.raises(ModuleError):
            rt.compile("a")

    def test_unknown_module_rejected(self, rt):
        rt.register_module("app", "#lang racket\n(require does-not-exist)")
        with pytest.raises(ModuleError):
            rt.compile("app")


class TestMacroExport:
    def test_syntax_rules_macro_across_modules(self, rt):
        rt.register_module(
            "macros",
            """#lang racket
(define-syntax twice (syntax-rules () [(_ e) (begin e e)]))
(provide twice)""",
        )
        rt.register_module(
            "app", "#lang racket\n(require macros)\n(twice (display 'hi))\n(newline)"
        )
        assert rt.run("app") == "hihi\n"

    def test_procedural_macro_across_modules(self, rt):
        rt.register_module(
            "macros",
            """#lang racket
(define-syntax (const-42 stx) (datum->syntax stx (list (quote-syntax quote) (datum->syntax stx 42))))
(provide const-42)""",
        )
        rt.register_module(
            "app", "#lang racket\n(require macros)\n(displayln (const-42))"
        )
        assert rt.run("app") == "42\n"

    def test_macro_references_defining_module_binding(self, rt):
        # the macro's template mentions `helper`, private to the library;
        # hygiene lets the client use it without importing helper
        rt.register_module(
            "macros",
            """#lang racket
(define (helper x) (* x 10))
(define-syntax tenfold (syntax-rules () [(_ e) (helper e)]))
(provide tenfold)""",
        )
        rt.register_module(
            "app", "#lang racket\n(require macros)\n(displayln (tenfold 4))"
        )
        assert rt.run("app") == "40\n"

    def test_exported_macro_hygiene_against_client_bindings(self, rt):
        rt.register_module(
            "macros",
            """#lang racket
(define (helper x) (* x 10))
(define-syntax tenfold (syntax-rules () [(_ e) (helper e)]))
(provide tenfold)""",
        )
        rt.register_module(
            "app",
            """#lang racket
(require macros)
(define (helper x) (error "client helper must not be used"))
(displayln (tenfold 4))""",
        )
        assert rt.run("app") == "40\n"


class TestSeparateCompilation:
    def test_compile_before_run(self, rt):
        rt.register_module("lib", "#lang racket\n(define v 5)\n(provide v)")
        compiled = rt.compile("lib")
        assert compiled.exports["v"].name == "v"
        assert compiled.language == "racket"

    def test_compilation_cached(self, rt):
        rt.register_module("lib", "#lang racket\n(define v 5)\n(provide v)")
        assert rt.compile("lib") is rt.compile("lib")

    def test_unregister_forgets_the_module(self, rt):
        reg = rt.registry
        rt.register_module("lib", "#lang racket\n(define v 5)\n(provide v)")
        first = rt.compile("lib")
        reg.source_hash("lib")
        reg.unregister("lib")
        assert "lib" not in reg.sources
        assert "lib" not in reg.compiled
        assert "lib" not in reg._source_hashes
        with pytest.raises(ModuleError):
            rt.compile("lib")
        rt.register_module("lib", "#lang racket\n(define v 5)\n(provide v)")
        again = rt.compile("lib")
        assert again is not first and again.exports.keys() == first.exports.keys()

    def test_instantiation_per_namespace(self, rt):
        rt.register_module(
            "counter",
            "#lang racket\n(define state (box 0))\n(set-box! state (+ (unbox state) 1))\n(displayln (unbox state))",
        )
        assert rt.run("counter") == "1\n"
        # a fresh namespace re-instantiates from the same compiled module
        assert rt.run("counter") == "1\n"

    def test_requires_recorded(self, rt):
        rt.register_module("dep", "#lang racket\n(define d 1)\n(provide d)")
        rt.register_module("app", "#lang racket\n(require dep)\n(displayln d)")
        assert rt.compile("app").requires == ["dep"]

    def test_fresh_compile_time_store_per_module(self, rt):
        # compile-time mutation in one module must not leak into another
        # compilation (§2.3: "each module is compiled with a fresh store")
        rt.register_module(
            "m1",
            """#lang racket
(define-syntax (probe stx)
  (datum->syntax stx (list (quote-syntax quote)
                           (datum->syntax stx (typed-context?)))))
(displayln (probe))""",
        )
        assert rt.run("m1") == "#f\n"

    def test_language_without_module_begin_rejected(self, rt):
        from repro.modules.registry import Language

        rt.registry.register_language(Language("hollow"))
        rt.register_module("m", "#lang hollow\n(+ 1 2)")
        with pytest.raises(ModuleError):
            rt.compile("m")

    def test_unknown_language_rejected(self, rt):
        rt.register_module("m", "#lang nonexistent-language\nx")
        with pytest.raises(ModuleError):
            rt.compile("m")


class TestFileModules(object):
    def test_run_file(self, rt, tmp_path):
        f = tmp_path / "prog.rkt"
        f.write_text("#lang racket\n(displayln (* 6 7))\n")
        assert rt.run_file(str(f)) == "42\n"

    def test_relative_require_between_files(self, rt, tmp_path):
        (tmp_path / "lib.rkt").write_text("#lang racket\n(define v 9)\n(provide v)\n")
        (tmp_path / "app.rkt").write_text(
            '#lang racket\n(require "lib.rkt")\n(displayln v)\n'
        )
        assert rt.run_file(str(tmp_path / "app.rkt")) == "9\n"

    def test_cli_main(self, tmp_path, capsys):
        from repro.tools.runner import main

        f = tmp_path / "prog.rkt"
        f.write_text("#lang racket\n(displayln 'cli)\n")
        assert main([str(f)]) == 0
        assert capsys.readouterr().out == "cli\n"

    def test_cli_no_args(self, capsys):
        from repro.tools.runner import main

        assert main([]) == 2


class TestCanonicalRegistration:
    """``register_file`` used to key by ``abspath`` alone, so a symlink or a
    relative spelling of the same file registered — and instantiated — a
    second module. All spellings must converge on one canonical key."""

    BODY = "#lang racket\n(displayln 'boot)\n(define b (box 1))\n(provide b)\n"

    def test_symlink_and_relative_spellings_share_one_key(self, rt, tmp_path):
        import os

        real = tmp_path / "m.rkt"
        real.write_text(self.BODY)
        (tmp_path / "sub").mkdir()
        link = tmp_path / "alias.rkt"
        os.symlink(str(real), str(link))
        canon = rt.register_file(str(real))
        assert rt.register_file(str(link)) == canon
        assert rt.register_file(str(tmp_path / "sub" / ".." / "m.rkt")) == canon
        assert len([p for p in rt.registry.sources if p == canon]) == 1

    def test_two_require_spellings_one_instance(self, rt, tmp_path):
        real = tmp_path / "m.rkt"
        real.write_text(self.BODY)
        (tmp_path / "sub").mkdir()
        app = tmp_path / "app.rkt"
        app.write_text(
            '#lang racket\n'
            '(require "m.rkt")\n'
            '(require "sub/../m.rkt")\n'
            '(displayln (unbox b))\n'
        )
        # a double registration would instantiate the body twice and print
        # 'boot' twice
        assert rt.run_file(str(app)) == "boot\n1\n"

    def test_symlinked_require_shares_instance(self, rt, tmp_path):
        import os

        real = tmp_path / "m.rkt"
        real.write_text(self.BODY)
        os.symlink(str(real), str(tmp_path / "alias.rkt"))
        app = tmp_path / "app.rkt"
        app.write_text(
            '#lang racket\n'
            '(require "m.rkt")\n'
            '(require "alias.rkt")\n'
            '(displayln (unbox b))\n'
        )
        assert rt.run_file(str(app)) == "boot\n1\n"


class TestAllDefinedOut:
    def test_untyped_all_defined(self, rt):
        rt.register_module(
            "lib",
            "#lang racket\n(define a 1)\n(define b 2)\n(provide (all-defined-out))",
        )
        rt.register_module("app", "#lang racket\n(require lib)\n(displayln (+ a b))")
        assert rt.run("app") == "3\n"

    def test_typed_all_defined_typed_client(self, rt):
        rt.register_module(
            "tlib",
            """#lang typed
(define x : Integer 10)
(define (double [n : Integer]) : Integer (* 2 n))
(provide (all-defined-out))""",
        )
        rt.register_module(
            "app", "#lang typed\n(require tlib)\n(displayln (double x))"
        )
        assert rt.run("app") == "20\n"

    def test_typed_all_defined_untyped_client_contracted(self, rt):
        from repro.errors import ContractViolation

        rt.register_module(
            "tlib",
            """#lang typed
(define (double [n : Integer]) : Integer (* 2 n))
(provide (all-defined-out))""",
        )
        rt.register_module("app", '#lang racket\n(require tlib)\n(double "x")')
        with pytest.raises(ContractViolation):
            rt.run("app")

    def test_macros_not_included(self, rt):
        # all-defined-out covers value definitions; macros stay private
        from repro.errors import UnboundIdentifierError

        rt.register_module(
            "lib",
            """#lang racket
(define v 1)
(define-syntax m (syntax-rules () [(_) 99]))
(provide (all-defined-out))""",
        )
        rt.register_module("app", "#lang racket\n(require lib)\n(displayln (m))")
        with pytest.raises(UnboundIdentifierError):
            rt.run("app")
