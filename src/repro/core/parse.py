"""Parse fully-expanded syntax into the core AST.

Identifiers are resolved through their scopes, which still carry all binding
structure on the expanded syntax, so no environment needs to be threaded
(§4.3's observation that expanded identifiers are unique).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import ParseCoreError
from repro.expander.core_forms import CORE_FORMS
from repro.runtime.values import Symbol
from repro.syn.binding import (
    Binding,
    CoreFormBinding,
    LocalBinding,
    ModuleBinding,
    resolve,
)
from repro.syn.syntax import (
    ImproperList,
    Syntax,
    datum_to_value,
    syntax_to_datum,
    write_datum,
)
from repro.core import ast


def _error(message: str, stx: Syntax) -> ParseCoreError:
    return ParseCoreError(
        f"{message} in: {write_datum(syntax_to_datum(stx))}", stx.srcloc
    )


def _items(stx: Syntax, message: str) -> tuple[Syntax, ...]:
    if not isinstance(stx.e, tuple):
        raise _error(message, stx)
    return stx.e


def core_form_of(stx: Syntax, phase: int = 0) -> Optional[str]:
    """If ``stx`` is a form whose head resolves to a core form, its name."""
    if not isinstance(stx.e, tuple) or not stx.e:
        return None
    head = stx.e[0]
    if not head.is_identifier():
        return None
    binding = resolve(head, phase)
    if isinstance(binding, CoreFormBinding):
        return binding.name
    return None


def _resolve_var(ident: Syntax, phase: int) -> Binding:
    binding = resolve(ident, phase)
    if binding is None:
        raise _error(f"unbound identifier {ident.e}", ident)
    if isinstance(binding, CoreFormBinding):
        raise _error(f"core form {binding.name} used as a variable", ident)
    return binding


def parse_expr(stx: Syntax, phase: int = 0) -> ast.CoreExpr:
    e = stx.e
    if isinstance(e, Symbol):
        binding = _resolve_var(stx, phase)
        if isinstance(binding, LocalBinding):
            return ast.LocalRef(binding, binding.name.name)
        assert isinstance(binding, ModuleBinding)
        return ast.ModuleRef(binding)
    form = core_form_of(stx, phase)
    if form is None:
        raise _error("not a core expression", stx)
    items = _items(stx, "not a core expression")
    if form == "quote":
        if len(items) != 2:
            raise _error("quote: bad syntax", stx)
        return ast.Quote(datum_to_value(syntax_to_datum(items[1])))
    if form == "quote-syntax":
        if len(items) != 2:
            raise _error("quote-syntax: bad syntax", stx)
        return ast.QuoteSyntax(items[1])
    if form == "if":
        if len(items) != 4:
            raise _error("if: bad syntax", stx)
        return ast.If(
            parse_expr(items[1], phase),
            parse_expr(items[2], phase),
            parse_expr(items[3], phase),
        )
    if form in ("begin", "#%expression", "begin0"):
        if len(items) < 2:
            raise _error(f"{form}: empty body", stx)
        exprs = tuple(parse_expr(x, phase) for x in items[1:])
        if len(exprs) == 1:
            return exprs[0]
        if form == "begin0":
            # (begin0 e rest ...) == (let-values ([(t) e]) rest ... t)
            tmp = LocalBinding(Symbol("begin0-result"))
            return ast.LetValues(
                (((tmp,), exprs[0]),),
                exprs[1:] + (ast.LocalRef(tmp, "begin0-result"),),
            )
        return ast.Begin(exprs)
    if form == "#%plain-lambda":
        return _parse_lambda(stx, items, phase)
    if form in ("let-values", "letrec-values"):
        return _parse_let_values(stx, items, phase, recursive=form == "letrec-values")
    if form == "set!":
        if len(items) != 3 or not items[1].is_identifier():
            raise _error("set!: bad syntax", stx)
        binding = _resolve_var(items[1], phase)
        return ast.SetBang(binding, items[1].e.name, parse_expr(items[2], phase))
    if form == "#%plain-app":
        if len(items) < 2:
            raise _error("#%plain-app: missing procedure", stx)
        return ast.App(
            parse_expr(items[1], phase),
            tuple(parse_expr(x, phase) for x in items[2:]),
        )
    raise _error(f"{form}: not valid in expression position", stx)


def _parse_formals(
    formals: Syntax, phase: int
) -> tuple[tuple[LocalBinding, ...], Optional[LocalBinding]]:
    def resolve_formal(ident: Syntax) -> LocalBinding:
        if not ident.is_identifier():
            raise _error("lambda: formal is not an identifier", ident)
        binding = resolve(ident, phase)
        if not isinstance(binding, LocalBinding):
            raise _error(f"lambda: formal {ident.e} has no local binding", ident)
        return binding

    e = formals.e
    if isinstance(e, Symbol):
        return (), resolve_formal(formals)
    if isinstance(e, tuple):
        return tuple(resolve_formal(f) for f in e), None
    if isinstance(e, ImproperList):
        return (
            tuple(resolve_formal(f) for f in e.items),
            resolve_formal(e.tail),
        )
    raise _error("lambda: bad formals", formals)


def _parse_lambda(stx: Syntax, items: tuple[Syntax, ...], phase: int) -> ast.Lambda:
    if len(items) < 3:
        raise _error("#%plain-lambda: bad syntax", stx)
    params, rest = _parse_formals(items[1], phase)
    body = tuple(parse_expr(x, phase) for x in items[2:])
    name = stx.property_get("inferred-name", "anonymous")
    return ast.Lambda(name, params, rest, body)


def _parse_let_values(
    stx: Syntax, items: tuple[Syntax, ...], phase: int, recursive: bool
) -> ast.LetValues:
    if len(items) < 3:
        raise _error("let-values: bad syntax", stx)
    clauses = _items(items[1], "let-values: bad binding clauses")
    bindings: list[tuple[tuple[LocalBinding, ...], ast.CoreExpr]] = []
    for clause in clauses:
        parts = _items(clause, "let-values: bad clause")
        if len(parts) != 2:
            raise _error("let-values: bad clause", clause)
        ids = _items(parts[0], "let-values: bad identifier list")
        locals_: list[LocalBinding] = []
        for ident in ids:
            binding = resolve(ident, phase)
            if not isinstance(binding, LocalBinding):
                raise _error(f"let-values: {ident.e} has no local binding", ident)
            locals_.append(binding)
        bindings.append((tuple(locals_), parse_expr(parts[1], phase)))
    body = tuple(parse_expr(x, phase) for x in items[2:])
    return ast.LetValues(tuple(bindings), body, recursive)


def parse_module_level_form(stx: Syntax, phase: int = 0) -> Optional[ast.ModuleForm]:
    """Parse one form of a fully-expanded module body.

    Returns None for forms with no phase-0 runtime content
    (``define-syntaxes``, ``begin-for-syntax``, ``#%provide``, ``#%require``).
    """
    form = core_form_of(stx, phase)
    if form in ("define-syntaxes", "begin-for-syntax", "#%provide", "#%require"):
        return None
    if form == "define-values":
        items = _items(stx, "define-values: bad syntax")
        if len(items) != 3:
            raise _error("define-values: bad syntax", stx)
        ids = _items(items[1], "define-values: bad identifier list")
        bindings: list[ModuleBinding] = []
        names: list[str] = []
        for ident in ids:
            binding = resolve(ident, phase)
            if not isinstance(binding, ModuleBinding):
                raise _error(f"define-values: {ident.e} not module-bound", ident)
            bindings.append(binding)
            names.append(ident.e.name)
        return ast.DefineValues(tuple(bindings), tuple(names), parse_expr(items[2], phase))
    if form == "begin":
        # splicing begin at module level
        items = _items(stx, "begin: bad syntax")
        sub = [parse_module_level_form(x, phase) for x in items[1:]]
        parsed = [f for f in sub if f is not None]
        if not parsed:
            return None
        exprs = []
        for f in parsed:
            if isinstance(f, ast.DefineValues):
                raise _error("define-values inside expression-level begin", stx)
            exprs.append(f)
        if len(exprs) == 1:
            return exprs[0]
        return ast.Begin(tuple(exprs))
    return parse_expr(stx, phase)
