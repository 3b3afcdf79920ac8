"""Tests for §5 (modular typed programs) and §6 (safe cross-module
integration): the heart of the paper's contribution."""

from __future__ import annotations

import pytest

from repro.errors import ContractViolation, TypeCheckError

SERVER = """#lang simple-type
(define (add-5 [x : Integer]) : Integer (+ x 5))
(provide add-5)
"""


class TestTypedToTyped:
    def test_types_persist_across_modules(self, rt):
        """§5's example: server compiled first, client sees add-5's type."""
        rt.register_module("server", SERVER)
        rt.register_module(
            "client",
            "#lang simple-type\n(require server)\n(displayln (add-5 7))",
        )
        assert rt.run("client") == "12\n"

    def test_typed_client_misuse_is_a_static_error(self, rt):
        rt.register_module("server", SERVER)
        rt.register_module(
            "client", "#lang simple-type\n(require server)\n(add-5 1.5)"
        )
        with pytest.raises(TypeCheckError):
            rt.compile("client")

    def test_no_contract_checks_between_typed_modules(self, rt):
        """§6: "communication between typed modules should not involve extra
        contract checks, since these invariants are enforced statically"."""
        rt.register_module("server", SERVER)
        rt.register_module(
            "client",
            "#lang simple-type\n(require server)\n(displayln (add-5 7))",
        )
        rt.compile("client")
        rt.stats.reset()
        rt.run("client")
        assert rt.stats.contract_checks == 0

    def test_type_reexported_through_chain(self, rt):
        rt.register_module("server", SERVER)
        rt.register_module(
            "middle",
            """#lang simple-type
(require server)
(define (add-10 [x : Integer]) : Integer (add-5 (add-5 x)))
(provide add-10)""",
        )
        rt.register_module(
            "client", "#lang simple-type\n(require middle)\n(displayln (add-10 1))"
        )
        assert rt.run("client") == "11\n"


class TestTypedToUntyped:
    def test_safe_use_from_untyped(self, rt):
        rt.register_module("server", SERVER)
        rt.register_module(
            "client", "#lang racket\n(require server)\n(displayln (add-5 12))"
        )
        assert rt.run("client") == "17\n"

    def test_unsafe_use_trapped_by_contract(self, rt):
        """§3.2: '(add-5 "bad") ;; unsafe use' must fail dynamically."""
        rt.register_module("server", SERVER)
        rt.register_module(
            "client", '#lang racket\n(require server)\n(add-5 "bad")'
        )
        with pytest.raises(ContractViolation):
            rt.run("client")

    def test_untyped_calls_pay_contract_checks(self, rt):
        rt.register_module("server", SERVER)
        rt.register_module(
            "client", "#lang racket\n(require server)\n(add-5 1)\n(add-5 2)"
        )
        rt.compile("client")
        rt.stats.reset()
        rt.run("client")
        assert rt.stats.contract_checks > 0

    def test_untyped_can_pass_typed_function_around(self, rt):
        rt.register_module("server", SERVER)
        rt.register_module(
            "client",
            "#lang racket\n(require server)\n(displayln (map add-5 (list 1 2)))",
        )
        assert rt.run("client") == "(6 7)\n"

    def test_typed_context_flag_unreachable_from_untyped(self, rt):
        """§6.2: the flag "is accessible only from the implementation of the
        simple-type language" — untyped compilations always see #f."""
        rt.register_module("server", SERVER)
        # this untyped module compiles *after* a typed module set the flag
        # in ITS OWN compilation store; the fresh store per compilation
        # keeps this compilation's flag #f
        rt.compile("server")
        rt.register_module(
            "probe",
            """#lang racket
(require server)
(define-syntax (flag-value stx)
  (datum->syntax stx (list (quote-syntax quote)
                           (datum->syntax stx (typed-context?)))))
(displayln (flag-value))""",
        )
        assert rt.run("probe") == "#f\n"


class TestRequireTyped:
    UNTYPED_LIB = """#lang racket
(define (shout s) (string-upcase s))
(define (add-pair p) (+ (car p) (cdr p)))
(define (liar x) 'not-a-string)
(provide shout add-pair liar)
"""

    def test_fig4_import_and_use(self, rt):
        rt.register_module("lib", self.UNTYPED_LIB)
        rt.register_module(
            "typed",
            """#lang simple-type
(require/typed lib [shout (String -> String)])
(displayln (shout "hi"))""",
        )
        assert rt.run("typed") == "HI\n"

    def test_static_error_if_misused_in_typed_code(self, rt):
        """fig. 4: "getting a static type error if md5 is applied to a
        number, for example"."""
        rt.register_module("lib", self.UNTYPED_LIB)
        rt.register_module(
            "typed",
            """#lang simple-type
(require/typed lib [shout (String -> String)])
(shout 42)""",
        )
        with pytest.raises(TypeCheckError):
            rt.compile("typed")

    def test_untyped_lie_caught_dynamically_and_blamed(self, rt):
        """fig. 4: "if the library fails to return a byte string value, a
        dynamic contract error is produced"."""
        rt.register_module("lib", self.UNTYPED_LIB)
        rt.register_module(
            "typed",
            """#lang simple-type
(require/typed lib [liar (String -> String)])
(displayln (liar "x"))""",
        )
        with pytest.raises(ContractViolation) as exc:
            rt.run("typed")
        assert exc.value.blame == "lib"

    def test_unsafe_identifier_is_macro_private(self, rt):
        from repro.errors import UnboundIdentifierError

        rt.register_module("lib", self.UNTYPED_LIB)
        rt.register_module(
            "typed",
            """#lang simple-type
(require/typed lib [shout (String -> String)])
(displayln unsafe-shout)""",
        )
        with pytest.raises((UnboundIdentifierError, TypeCheckError)):
            rt.compile("typed")

    def test_multiple_clauses(self, rt):
        rt.register_module("lib", self.UNTYPED_LIB)
        rt.register_module(
            "typed",
            """#lang simple-type
(require/typed lib
  [shout (String -> String)])
(require/typed lib
  [add-pair ((Pairof Integer Integer) -> Integer)])
(displayln (shout "ok"))""",
        )
        assert rt.run("typed") == "OK\n"


class TestMixedPrograms:
    def test_sandwich(self, rt):
        """untyped -> typed -> untyped: contracts at each boundary crossing"""
        rt.register_module(
            "bottom", "#lang racket\n(define (base x) (* x 2))\n(provide base)"
        )
        rt.register_module(
            "middle",
            """#lang simple-type
(require/typed bottom [base (Integer -> Integer)])
(define (stacked [x : Integer]) : Integer (+ 1 (base x)))
(provide stacked)""",
        )
        rt.register_module(
            "top", "#lang racket\n(require middle)\n(displayln (stacked 10))"
        )
        assert rt.run("top") == "21\n"

    def test_both_typed_and_untyped_clients_of_one_server(self, rt):
        rt.register_module("server", SERVER)
        rt.register_module(
            "tclient",
            "#lang simple-type\n(require server)\n(define r : Integer (add-5 1))\n(provide r)",
        )
        rt.register_module(
            "main",
            """#lang racket
(require server)
(require tclient)
(displayln (list r (add-5 2)))""",
        )
        assert rt.run("main") == "(6 7)\n"


class TestMacroExportPrevention:
    def test_typed_modules_may_not_export_macros(self, rt):
        """§6.3: "Typed Racket currently prevents macros defined in typed
        modules from escaping into untyped modules"."""
        from repro.errors import SyntaxExpansionError

        rt.register_module(
            "typed-macros",
            """#lang simple-type
(define-syntax twice (syntax-rules () [(_ e) (begin e e)]))
(provide twice)""",
        )
        with pytest.raises(SyntaxExpansionError, match="macros may not be provided"):
            rt.compile("typed-macros")

    def test_typed_modules_may_still_define_and_use_macros(self, rt):
        rt.register_module(
            "typed-internal-macro",
            """#lang simple-type
(define-syntax twice (syntax-rules () [(_ e) (begin e e)]))
(define x : Integer 1)
(twice (displayln x))""",
        )
        assert rt.run("typed-internal-macro") == "1\n1\n"
