"""``#lang datalog`` — logic programming as a library (§1 cites Datalog as
one of the languages built on Racket's extension API).

Module syntax (s-expression surface; the Racket original also swaps the
*reader* — our substitution is documented in DESIGN.md):

    #lang datalog
    (! (parent alice bob))            ; assert a fact
    (! (parent bob carol))
    (:- (ancestor X Y) (parent X Y))  ; a rule (variables are capitalized)
    (:- (ancestor X Z) (parent X Y) (ancestor Y Z))
    (? (ancestor alice Who))          ; query: prints each answer

The whole semantics lives in ``#%module-begin``: each form compiles to a
call into the Python-implemented engine against a module-local database.
"""

from __future__ import annotations

from typing import Any

from repro.errors import RuntimeReproError, SyntaxExpansionError
from repro.langs.base import expand_with, fn_macro
from repro.langs.datalog.engine import Database, Rule
from repro.modules.registry import Language, ModuleRegistry
from repro.runtime.ports import current_output_port
from repro.runtime.primitives import primitive_table
from repro.runtime.printing import write_value
from repro.runtime.values import VOID, Symbol, to_list
from repro.syn.syntax import Syntax

__all__ = ["make_datalog_language", "Database", "Rule"]


def _atom_of(value: Any) -> tuple:
    items = to_list(value)
    if not items or not isinstance(items[0], Symbol):
        raise RuntimeReproError("datalog: an atom is (predicate term ...)")
    return (items[0].name, *items[1:])


def _assert_fact(db: Database, fact: Any) -> Any:
    db.assert_fact(_atom_of(fact))
    return VOID


def _assert_rule(db: Database, head: Any, body: Any) -> Any:
    db.assert_rule(Rule(_atom_of(head), tuple(_atom_of(a) for a in to_list(body))))
    return VOID


def _run_query(db: Database, pattern: Any) -> Any:
    port = current_output_port()
    for atom in db.query_atoms(_atom_of(pattern)):
        rendered = ", ".join(write_value(t, display=True) for t in atom[1:])
        port.write(f"{atom[0]}({rendered}).\n")
    return VOID


#: the module path of the engine's primitives
DATALOG_PATH = "#%datalog"

#: the engine primitives that compiled datalog modules call
DATALOG_PRIMITIVES = primitive_table({
    "make-datalog-db": (Database, 0, 0),
    "datalog-assert!": (_assert_fact, 2, 2),
    "datalog-rule!": (_assert_rule, 3, 3),
    "datalog-query": (_run_query, 2, 2),
})


def make_datalog_language(registry: ModuleRegistry) -> Language:
    racket = registry.language("racket")
    lang = Language("datalog")
    # the base environment is deliberately tiny: datalog modules contain
    # only facts, rules, and queries
    for name in ("#%datum", "quote", "#%plain-module-begin", "define-values",
                 "#%plain-app", "begin"):
        if name in racket.exports:
            lang.export(name, racket.exports[name].binding,
                        racket.exports[name].transformer)
    for name, binding in registry.register_primitives(
        DATALOG_PATH, DATALOG_PRIMITIVES
    ).items():
        lang.export(name, binding)
    lang.export("list", registry.kernel_exports["list"].binding)

    @fn_macro(lang, "#%module-begin")
    def module_begin(stx: Syntax, lang: Language) -> Syntax:
        statements = []
        for form in stx.e[1:]:
            statements.append(_compile_statement(form, lang))
        return expand_with(
            lang,
            "(#%plain-module-begin"
            " (define-values (db) (#%plain-app make-datalog-db))"
            " stmt ...)",
            stmt=statements,
        )

    registry.register_language(lang)
    return lang


def _compile_statement(form: Syntax, lang: Language) -> Syntax:
    if not (isinstance(form.e, tuple) and form.e and form.e[0].is_identifier()):
        raise SyntaxExpansionError(
            "datalog: expected (! fact), (:- head body ...) or (? query)", form
        )
    head_name = form.e[0].e.name
    if head_name == "!":
        if len(form.e) != 2:
            raise SyntaxExpansionError("datalog: (! fact)", form)
        return expand_with(
            lang, "(#%plain-app datalog-assert! db (quote fact))", fact=form.e[1]
        )
    if head_name == ":-":
        if len(form.e) < 3:
            raise SyntaxExpansionError("datalog: (:- head body ...)", form)
        body = Syntax(tuple(form.e[2:]), form.scopes, form.srcloc)
        return expand_with(
            lang,
            "(#%plain-app datalog-rule! db (quote head) (quote body))",
            head=form.e[1],
            body=body,
        )
    if head_name == "?":
        if len(form.e) != 2:
            raise SyntaxExpansionError("datalog: (? query)", form)
        return expand_with(
            lang, "(#%plain-app datalog-query db (quote q))", q=form.e[1]
        )
    raise SyntaxExpansionError(
        f"datalog: unknown statement {head_name} (expected !, :- or ?)", form
    )
