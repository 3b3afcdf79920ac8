"""The single-module typechecker of fig. 3.

``typecheck`` takes a fully-expanded term and an optional expected type; each
clause considers one of the core forms of fig. 1. The two distinctive
features the paper calls out are both here:

- the type environment is an identifier-keyed table, reusing the host's
  binding structure (see :mod:`repro.langs.typed_common.env`);
- ``type_of`` reads the ``type-annotation`` syntax property that the
  language's binding forms attached (§3.1), with a known key.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Optional

from repro.errors import ReproError, TypeCheckError
from repro.expander.env import ExpandContext
from repro.core.parse import core_form_of
from repro.langs.typed_common import env as tenv
from repro.langs.typed_common import types as ty
from repro.runtime.values import Symbol
from repro.syn.binding import resolve
from repro.syn.syntax import ImproperList, Syntax

TYPE_ANNOTATION_KEY = "type-annotation"
SKIP_KEY = "typed-ignore"


class SimpleChecker:
    """The paper's fig. 3 checker, one method per core form."""

    def __init__(self, ctx: ExpandContext) -> None:
        self.ctx = ctx
        self.types = tenv.type_table(ctx)
        self.expr_types = tenv.expr_types(ctx)
        self.session = ctx.diagnostics

    # -- the two fig. 3 helpers -------------------------------------------

    def lookup_type(self, ident: Syntax) -> ty.Type:
        binding = resolve(ident, 0)
        if binding is None:
            raise TypeCheckError(f"unbound variable {ident.e}", ident)
        t = self.types.get(binding.key())
        if t is None:
            if binding.key() in self.ctx.poisoned:
                # the definition failed to expand and was already reported;
                # treat references as bottom rather than cascading
                return ty.NOTHING
            raise TypeCheckError(f"untyped variable {ident.e}", ident)
        return t

    def add_type(self, ident: Syntax, t: ty.Type) -> None:
        binding = resolve(ident, 0)
        if binding is None:
            raise TypeCheckError(f"unbound variable {ident.e}", ident)
        self.types[binding.key()] = t

    def type_of(self, ident: Syntax) -> ty.Type:
        """Read the type the user attached to a binding position (§4.3)."""
        annotation = ident.property_get(TYPE_ANNOTATION_KEY)
        if annotation is None:
            raise TypeCheckError(f"untyped variable {ident.e}", ident)
        if isinstance(annotation, Syntax):
            return ty.parse_type(annotation)
        return ty.parse_type_datum(annotation, ident)

    # -- module-level entry --------------------------------------------------

    def check_module(self, forms: list[Syntax]) -> None:
        """fig. 2's loop: typecheck each form in turn.

        Each form is checked inside the compilation's diagnostic session, so
        a type error in one definition doesn't hide errors in the next: the
        driver reports every failing form at once (``raise_if_errors`` at the
        end of the ``#%module-begin``).
        """
        for form in forms:
            with self.session.recover():
                try:
                    self.typecheck_module_form(form)
                except ReproError:
                    self.poison_definition(form)
                    raise

    def poison_definition(self, form: Syntax) -> None:
        """After a definition fails to check, bind its identifiers to the
        bottom type so later forms that mention them don't pile cascading
        "untyped variable" errors on top of the one real diagnostic."""
        if core_form_of(form, 0) != "define-values":
            return
        ids = form.e[1].e
        if not isinstance(ids, tuple):
            return
        for ident in ids:
            binding = resolve(ident, 0)
            if binding is not None and binding.key() not in self.types:
                self.types[binding.key()] = ty.NOTHING

    def typecheck_module_form(self, form: Syntax) -> Optional[ty.Type]:
        if form.property_get(SKIP_KEY):
            return None
        head = core_form_of(form, 0)
        if head in ("#%provide", "#%require", "define-syntaxes", "begin-for-syntax"):
            return None
        if head == "define-values":
            ids = form.e[1].e
            if len(ids) != 1:
                raise TypeCheckError("define-values: expected a single binding", form)
            ident = ids[0]
            declared = self.type_of(ident)
            self.add_type(ident, declared)
            self.typecheck(form.e[2], declared)
            return None
        return self.typecheck(form)

    # -- the checker proper (fig. 3) -------------------------------------------

    def typecheck(self, t: Syntax, check: Optional[ty.Type] = None) -> ty.Type:
        the_type = self._typecheck(t)
        if check is not None and not ty.subtype(the_type, check):
            raise TypeCheckError("wrong type", t)
        self.expr_types[id(t)] = the_type
        return the_type

    def _typecheck(self, t: Syntax) -> ty.Type:
        if t.is_identifier():
            return self.lookup_type(t)
        head = core_form_of(t, 0)
        if head == "quote":
            return self._type_of_datum(t.e[1], t)
        if head == "quote-syntax":
            return ty.ANY
        if head == "if":
            self.typecheck(t.e[1], ty.BOOLEAN)
            then_t = self.typecheck(t.e[2])
            else_t = self.typecheck(t.e[3])
            if then_t != else_t:
                raise TypeCheckError("if branches must agree", t)
            return else_t
        if head == "#%plain-lambda":
            return self._check_lambda(t)
        if head == "#%plain-app":
            return self._check_app(t)
        if head in ("begin", "begin0", "#%expression"):
            body_types = [self.typecheck(e) for e in t.e[1:]]
            return body_types[0 if head == "begin0" else -1]
        if head in ("let-values", "letrec-values"):
            return self._check_let(t, recursive=head == "letrec-values")
        if head == "set!":
            target_type = self.lookup_type(t.e[1])
            self.typecheck(t.e[2], target_type)
            return ty.VOID
        raise TypeCheckError("unsupported form", t)

    def _type_of_datum(self, d: Syntax, where: Syntax) -> ty.Type:
        e = d.e
        if isinstance(e, bool):
            return ty.BOOLEAN
        if isinstance(e, int):
            return ty.INTEGER
        if isinstance(e, float):
            return ty.FLOAT
        if isinstance(e, (Fraction,)):
            return ty.REAL
        if isinstance(e, complex):
            return ty.FLOAT_COMPLEX
        if isinstance(e, str):
            return ty.STRING
        from repro.runtime.values import Char

        if isinstance(e, Char):
            return ty.CHAR
        if isinstance(e, Symbol):
            return ty.SYMBOL
        raise TypeCheckError("cannot type this literal", where)

    def _formal_ids(self, formals: Syntax, where: Syntax) -> list[Syntax]:
        if isinstance(formals.e, tuple):
            return list(formals.e)
        raise TypeCheckError("rest arguments are not supported", where)

    def _check_lambda(self, t: Syntax) -> ty.Type:
        formals = self._formal_ids(t.e[1], t)
        formal_types = [self.type_of(f) for f in formals]
        for ident, ftype in zip(formals, formal_types):
            self.add_type(ident, ftype)
        body = t.e[2:]
        result = None
        for expr in body:
            result = self.typecheck(expr)
        assert result is not None
        return ty.FunType(formal_types, result)

    def _check_app(self, t: Syntax) -> ty.Type:
        args = t.e[2:]
        argtys = [self.typecheck(a) for a in args]
        op_type = self.typecheck(t.e[1])
        if op_type is ty.NOTHING:
            # the operator is a poisoned (already-reported) definition;
            # don't cascade
            return ty.NOTHING
        if isinstance(op_type, ty.FunType):
            if len(argtys) != len(op_type.params) or not all(
                ty.subtype(a, p) for a, p in zip(argtys, op_type.params)
            ):
                raise TypeCheckError("wrong argument types", t)
            return op_type.result
        if isinstance(op_type, ty.CaseFunType):
            for case in op_type.cases:
                if len(argtys) == len(case.params) and all(
                    ty.subtype(a, p) for a, p in zip(argtys, case.params)
                ):
                    return case.result
            raise TypeCheckError("no matching case for arguments", t)
        raise TypeCheckError("not a function type", t.e[1])

    def _check_let(self, t: Syntax, recursive: bool) -> ty.Type:
        clauses = t.e[1].e
        if recursive:
            # first pass: declared types (from annotations) for all ids
            for clause in clauses:
                for ident in clause.e[0].e:
                    if ident.property_get(TYPE_ANNOTATION_KEY) is not None:
                        self.add_type(ident, self.type_of(ident))
        for clause in clauses:
            ids, rhs = clause.e
            if len(ids.e) == 0:
                self.typecheck(rhs)
                continue
            if len(ids.e) != 1:
                raise TypeCheckError("multiple values are not supported", clause)
            ident = ids.e[0]
            if ident.property_get(TYPE_ANNOTATION_KEY) is not None:
                declared = self.type_of(ident)
                self.add_type(ident, declared)
                self.typecheck(rhs, declared)
            else:
                self.add_type(ident, self.typecheck(rhs))
        result = None
        for expr in t.e[2:]:
            result = self.typecheck(expr)
        assert result is not None
        return result
