"""The closed kernel: ``#%kernel`` is one read-only table built at import.

Three views of the kernel must agree: the registry's export table, the core
scope that ``core_id`` identifiers resolve through, and the cells every
namespace is prefilled with. Nothing writes the primitive table once it is
built; a library language (datalog, match-ext) brings its primitives under
its own module path, so every language keeps exactly its export names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import Runtime
from repro.expander.kernel_scope import core_id
from repro.modules.registry import KERNEL_PATH
from repro.runtime.primitives import PRIMITIVES
from repro.syn.binding import resolve

DATALOG_PATH = "#%datalog"
MATCH_EXT_PATH = "#%match-ext"

LIBRARY_PRIMITIVES = {
    "make-datalog-db": DATALOG_PATH,
    "datalog-assert!": DATALOG_PATH,
    "datalog-rule!": DATALOG_PATH,
    "datalog-query": DATALOG_PATH,
    "make-match-expander": MATCH_EXT_PATH,
}

RACKET_EXPORTS = frozenset("""
    #%app #%datum #%expression #%module-begin #%plain-app #%plain-lambda
    #%plain-module-begin #%provide #%require * + - / < <= = > >= abs acos
    add-type! add1 and andmap append apply asin assoc assq assv atan begin
    begin-for-syntax begin0 boolean? bound-identifier=? box box? build-list
    build-vector bytes? caaar caadr caar cadar caddr cadr
    call-with-error-handlers call-with-values car case case-lambda cdaar
    cdadr cdar cddar cdddr cddr cdr ceiling char->integer char-alphabetic?
    char-downcase char-numeric? char-upcase char-whitespace? char<? char=?
    char? complex? cond cons contract cos current-inexact-milliseconds
    current-seconds datum->syntax declare-named-type! define define-struct
    define-syntax define-syntaxes define-values denominator display
    displayln do eighth eof-object eof-object? eq? equal? eqv? error even?
    exact exact->inexact exact-integer? exact-nonnegative-integer?
    exact-rational? exact? exn-message exn? exp expt fifth filter first
    float-complex? flonum? floor foldl foldr for for-each for/list force
    format fourth free-identifier=? gcd gensym hash-count hash-has-key?
    hash-keys hash-ref hash-remove! hash-set! hash? identifier? identity if
    imag-part in-range inexact->exact inexact? infinite? integer->char
    integer? keyword? lambda last lazy-apply length let let* let*-values
    let-values letrec letrec-values list list* list->string list->vector
    list-ref list-tail list? local-expand log lookup-type magnitude
    make-hash make-promise make-rectangular make-string make-struct-type
    make-vector map match max member memq memv min modulo nan? negative?
    newline ninth not null? number->string number? numerator odd? or ormap
    pair? positive? printf procedure? promise? provide qs-coerce qs-splice
    quasiquote quasisyntax quote quote-syntax quotient raise
    raise-syntax-error random random-seed range rational? real-part real?
    remainder require rest reverse round second sequence->list set! set-box!
    set-car! set-cdr! seventh sin sixth sleep sort sqrt string string->bytes
    string->list string->number string->symbol string-append
    string-contains? string-downcase string-join string-length string-ref
    string-split string-upcase string<? string=? string>? string? struct
    struct-ref struct? sub1 substring symbol->string symbol? syntax->datum
    syntax->list syntax-e syntax-property-get syntax-property-put
    syntax-rebuild syntax-rules syntax? tan tenth third time truncate
    type->contract typed-context? unbox unless unsafe-car unsafe-cdr
    unsafe-fc* unsafe-fc+ unsafe-fc- unsafe-fc/ unsafe-fcimag-part
    unsafe-fcmagnitude unsafe-fcreal-part unsafe-fl* unsafe-fl+ unsafe-fl-
    unsafe-fl/ unsafe-fl< unsafe-fl<= unsafe-fl= unsafe-fl> unsafe-fl>=
    unsafe-flabs unsafe-flcos unsafe-flfloor unsafe-flmax unsafe-flmin
    unsafe-flneg unsafe-flsin unsafe-flsqrt unsafe-fx* unsafe-fx+ unsafe-fx-
    unsafe-fx< unsafe-fx<= unsafe-fx= unsafe-fx> unsafe-fx>=
    unsafe-fxquotient unsafe-fxremainder unsafe-vector-length
    unsafe-vector-ref unsafe-vector-set! values vector vector->list
    vector-copy vector-fill! vector-length vector-map vector-ref vector-set!
    vector? void void? when with-handlers write zero? λ
""".split())

#: every registered language's export names, as literals
LANGUAGE_EXPORTS = {
    "racket": RACKET_EXPORTS,
    "count": RACKET_EXPORTS,
    "racket/infix": RACKET_EXPORTS,
    "simple-type": RACKET_EXPORTS
    | {"define:", "lambda:", "let:", "require/typed"},
    "typed": (RACKET_EXPORTS - {"define-struct"})
    | {":", "ann", "define:", "lambda:", "let:", "require/typed"},
    "typed/racket": (RACKET_EXPORTS - {"define-struct"})
    | {":", "ann", "define:", "lambda:", "let:", "require/typed"},
    "lazy": RACKET_EXPORTS
    | {"%display-prim", "%displayln-prim", "%strict-if"},
    "racket/match-ext": RACKET_EXPORTS
    | {"define-match-expander", "make-match-expander"},
    "datalog": frozenset({
        "#%datum", "#%module-begin", "#%plain-app", "#%plain-module-begin",
        "begin", "define-values", "list", "quote", "make-datalog-db",
        "datalog-assert!", "datalog-rule!", "datalog-query",
    }),
}


@pytest.fixture(scope="module")
def rt():
    with Runtime() as runtime:
        yield runtime


def _key(binding):
    return None if binding is None else binding.key()


class TestKernelViewsAgree:
    def test_every_primitive_is_exported_bound_and_celled(self, rt):
        exports = rt.registry.kernel_exports
        ns = rt.registry.make_runtime_namespace()
        assert len(PRIMITIVES) == 274
        for name in PRIMITIVES:
            assert name in exports, name
            assert exports[name].binding.module_path == KERNEL_PATH
            assert _key(resolve(core_id(name), 0)) == exports[name].binding.key()
            assert ns.cells[("module", KERNEL_PATH, name, 0)] == [PRIMITIVES[name]]

    def test_core_scope_binds_every_kernel_export(self, rt):
        exports = rt.registry.kernel_exports
        assert len(exports) == 293
        for name, export in exports.items():
            for phase in (0, 1):
                assert _key(resolve(core_id(name), phase)) == export.binding.key()

    def test_no_cell_without_an_export(self, rt):
        exported = {
            export.binding.key()
            for lang in rt.registry.languages.values()
            for export in lang.exports.values()
        } | {export.binding.key() for export in rt.registry.kernel_exports.values()}
        ns = rt.registry.make_runtime_namespace()
        assert ns.cells
        assert [key for key in ns.cells if key not in exported] == []

    def test_library_primitives_resolve_only_through_their_language(self, rt):
        racket = rt.registry.language("racket")
        for name, path in LIBRARY_PRIMITIVES.items():
            assert name not in PRIMITIVES
            assert name not in rt.registry.kernel_exports
            assert name not in racket.exports
            assert resolve(core_id(name), 0) is None
            owners = [
                lang.name for lang in rt.registry.languages.values()
                if name in lang.exports
            ]
            assert owners == [
                "datalog" if path == DATALOG_PATH else "racket/match-ext"
            ]
            lang = rt.registry.language(owners[0])
            assert lang.exports[name].binding.module_path == path
        rt.register_module("uses-db", "#lang racket\n(make-datalog-db)\n")
        assert not rt.compile("uses-db", diagnostics=True).ok

    @pytest.mark.parametrize("lang", sorted(LANGUAGE_EXPORTS))
    def test_language_export_names(self, rt, lang):
        assert set(rt.registry.language(lang).exports) == LANGUAGE_EXPORTS[lang]

    def test_every_language_is_listed(self, rt):
        assert set(rt.registry.languages) == set(LANGUAGE_EXPORTS)


class TestNothingWritesTheKernel:
    def test_runtimes_leave_every_entry_as_built(self):
        before = dict(PRIMITIVES)
        Runtime().close()
        Runtime().close()
        assert PRIMITIVES.keys() == before.keys()
        changed = [name for name, prim in before.items() if PRIMITIVES[name] is not prim]
        assert changed == []

    def test_the_table_is_read_only(self):
        with pytest.raises(TypeError):
            PRIMITIVES["x"] = PRIMITIVES["car"]
        with pytest.raises(TypeError):
            del PRIMITIVES["car"]

    def test_library_tables_are_read_only(self, rt):
        for path in (DATALOG_PATH, MATCH_EXT_PATH):
            table = rt.registry.primitive_modules[path]
            assert set(table) == {
                name for name, owner in LIBRARY_PRIMITIVES.items() if owner == path
            }
            with pytest.raises(TypeError):
                table["x"] = PRIMITIVES["car"]



def _typed_tables():
    from repro.langs.simple_type import base_env as simple
    from repro.langs.typed import base_env as typed

    return {
        "typed BASE_TYPES": typed.BASE_TYPES,
        "typed DELTA_RULES": typed.DELTA_RULES,
        "simple-type BASE_TYPES": simple.BASE_TYPES,
    }


class TestPrimitiveRecordsAgree:
    """What the typed languages and the optimizers know of a primitive must
    fit its kernel record. Types stay with the typed languages (the kernel
    knows none); their tables must still name kernel primitives and give
    them operand counts the primitives accept."""

    @pytest.mark.parametrize("table, size", [
        ("typed BASE_TYPES", 82), ("typed DELTA_RULES", 83),
        ("simple-type BASE_TYPES", 25),
    ])
    def test_typed_tables_name_kernel_primitives(self, table, size):
        names = _typed_tables()[table]
        assert len(names) == size
        assert [name for name in names if name not in PRIMITIVES] == []

    @pytest.mark.parametrize("table", ["typed BASE_TYPES", "simple-type BASE_TYPES"])
    def test_arity_admits_every_function_type_case(self, table):
        from repro.langs.typed_common import types as ty

        misfits = []
        for name, t in _typed_tables()[table].items():
            prim = PRIMITIVES[name]
            for case in t.cases if isinstance(t, ty.CaseFunType) else [t]:
                n = len(case.params)
                if n < prim.arity_min or (
                    prim.arity_max is not None and n > prim.arity_max
                ):
                    misfits.append((name, str(case)))
        assert misfits == []

    def test_every_unsafe_primitive_declares_its_twins_and_rule(self):
        """An ``unsafe-*`` primitive without a twin would declare
        ``rule=None``; none does today. A checked primitive declares
        neither."""
        from repro.langs.typed.optimizer import ALL_RULES

        for name, prim in PRIMITIVES.items():
            if not name.startswith("unsafe-"):
                assert (prim.rule, prim.replaces) == (None, ()), name
                continue
            assert prim.rule in ALL_RULES and prim.replaces, name
            for checked, n in prim.replaces:
                plain = PRIMITIVES[checked]
                assert plain.rule is None, (name, checked)
                assert plain.arity_min <= n and (
                    plain.arity_max is None or n <= plain.arity_max
                ), (name, checked, n)
                # a call one operand short gains the checked constant
                assert n == prim.arity_min or (
                    n == prim.arity_min - 1 and plain.against is not None
                ), (name, checked, n)

    def test_result_classes_and_operators_are_known(self):
        import ast

        for name, prim in PRIMITIVES.items():
            assert prim.result in ("bool", "one", "any"), name
            if prim.op is not None:
                assert issubclass(getattr(ast, prim.op), (ast.operator, ast.cmpop)), name

IMPORT_ORDER_PROBE = """
import hashlib, json, sys
if sys.argv[1] == "datalog":
    import repro.langs.datalog
else:
    import repro.tools.runner
from repro.runtime.primitives import PRIMITIVES
imported = sorted(PRIMITIVES)
from repro import Runtime
rt = Runtime(cache_dir=sys.argv[2])
rt.register_module("matcher", sys.stdin.read())
output = rt.run("matcher")
rt.close()
import glob, os
blobs = sorted(
    open(p, "rb").read() for p in glob.glob(os.path.join(sys.argv[2], "**", "*.zo"), recursive=True)
)
print(json.dumps({
    "imported": imported,
    "after_runtime": sorted(PRIMITIVES),
    "output": output,
    "artifacts": [hashlib.sha256(b).hexdigest() for b in blobs],
}))
"""

MATCHER = """#lang racket/match-ext
(define-match-expander pt
  (syntax-rules () [(_ a b) (vector a b)]))
(displayln (match (vector 1 2) [(pt x y) (+ x y)] [_ 0]))
"""


def test_import_order_does_not_change_the_kernel_or_artifacts(tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    results = {}
    for order in ("datalog", "runner"):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_ORDER_PROBE, order, str(tmp_path / order)],
            input=MATCHER, capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        results[order] = json.loads(proc.stdout)
    first, second = results["datalog"], results["runner"]
    assert first["imported"] == first["after_runtime"]
    assert first["output"] == "3\n"
    assert len(first["artifacts"]) == 1
    assert first == second
