"""The full typechecker of the ``typed`` language.

Scales the fig. 3 checker with exactly the ingredients §4.4 describes:
"Mutual recursion is implemented with a two-pass typechecker: the first pass
collects definitions with their types, and the second pass checks individual
expressions in this type context." The added type-system complexity (unions,
container types, overloads, delta rules) "is encapsulated in the behavior of
typecheck on the core forms" — the traversal structure is unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from repro.core.parse import core_form_of
from repro.errors import ReproError, TypeCheckError
from repro.expander.env import ExpandContext
from repro.langs.simple_type.checker import SKIP_KEY, TYPE_ANNOTATION_KEY, SimpleChecker
from repro.langs.typed.base_env import DELTA_RULES
from repro.langs.typed_common import env as tenv
from repro.langs.typed_common import types as ty
from repro.modules.registry import KERNEL_PATH
from repro.runtime.values import Keyword, Symbol
from repro.syn.binding import ModuleBinding, resolve
from repro.syn.syntax import ImproperList, Syntax, VectorDatum

DECLARED_STORE = "typed:declared"
ASCRIPTION_KEY = "type-ascription"


def declared_types(ctx: ExpandContext) -> dict[str, ty.Type]:
    """Types declared by ``(: name type)``, keyed by name (module-local)."""
    return ctx.store(DECLARED_STORE, dict)


class FullChecker(SimpleChecker):
    def __init__(self, ctx: ExpandContext) -> None:
        super().__init__(ctx)
        self.declared = declared_types(ctx)

    # -- module-level: two passes (§4.4) ------------------------------------

    def check_module(self, forms: Sequence[Syntax]) -> None:
        # pass 1: collect definitions with their declared types. A bad
        # declaration is recorded in the diagnostic session; the remaining
        # declarations are still collected so pass 2 sees the fullest
        # possible type context.
        for form in forms:
            if form.property_get(SKIP_KEY):
                continue
            if core_form_of(form, 0) != "define-values":
                continue
            for ident in form.e[1].e:
                with self.session.recover():
                    declared = self._declared_type_of(ident)
                    if declared is not None:
                        self.add_type(ident, declared)
        # pass 2: check each form in this type context; each form checks
        # under `recover` so every failing form is reported, not just the
        # first (the #%module-begin driver raises after the whole pass)
        for form in forms:
            with self.session.recover():
                try:
                    self.typecheck_module_form(form)
                except ReproError:
                    self.poison_definition(form)
                    raise

    def _declared_type_of(self, ident: Syntax) -> Optional[ty.Type]:
        annotation = ident.property_get(TYPE_ANNOTATION_KEY)
        if annotation is not None:
            if isinstance(annotation, Syntax):
                return ty.parse_type(annotation)
            return ty.parse_type_datum(annotation, ident)
        if ident.is_identifier():
            return self.declared.get(ident.e.name)
        return None

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
            declared = self._declared_type_of(ident)
            if declared is not None:
                self.add_type(ident, declared)
                self.typecheck(form.e[2], declared)
            else:
                self.add_type(ident, self.typecheck(form.e[2]))
            return None
        return self.typecheck(form)

    # -- bidirectional checking against an expected type ----------------------

    def typecheck(self, t: Syntax, check: Optional[ty.Type] = None) -> ty.Type:
        if check is not None and self._is_unannotated_lambda(t):
            result = self._check_lambda_against(t, check)
            self.expr_types[id(t)] = result
            return result
        the_type = self._typecheck(t)
        if check is not None and not ty.subtype(the_type, check):
            raise TypeCheckError(f"wrong type (expected {check}, got {the_type})", t)
        self.expr_types[id(t)] = the_type
        return the_type

    def _is_unannotated_lambda(self, t: Syntax) -> bool:
        if core_form_of(t, 0) != "#%plain-lambda":
            return False
        formals = t.e[1]
        if not isinstance(formals.e, tuple):
            return False
        return any(
            f.property_get(TYPE_ANNOTATION_KEY) is None for f in formals.e
        )

    def _check_lambda_against(self, t: Syntax, expected: ty.Type) -> ty.Type:
        formals = t.e[1].e
        fn_expected: Optional[ty.FunType] = None
        if isinstance(expected, ty.FunType) and len(expected.params) == len(formals):
            fn_expected = expected
        elif isinstance(expected, ty.CaseFunType):
            for case in expected.cases:
                if len(case.params) == len(formals):
                    fn_expected = case
                    break
        if fn_expected is None:
            raise TypeCheckError(
                f"function does not match expected type {expected}", t
            )
        for ident, param_type in zip(formals, fn_expected.params):
            annotation = ident.property_get(TYPE_ANNOTATION_KEY)
            if annotation is not None:
                own = (
                    ty.parse_type(annotation)
                    if isinstance(annotation, Syntax)
                    else ty.parse_type_datum(annotation, ident)
                )
                if not ty.subtype(param_type, own):
                    raise TypeCheckError(
                        f"parameter annotation {own} conflicts with expected "
                        f"{param_type}",
                        ident,
                    )
                self.add_type(ident, own)
            else:
                self.add_type(ident, param_type)
        result = None
        for i, expr in enumerate(t.e[2:]):
            is_last = i == len(t.e) - 3
            result = self.typecheck(expr, fn_expected.result if is_last else None)
        assert result is not None
        return fn_expected

    # -- the expression rules that differ from the simple checker ---------------

    def _typecheck(self, t: Syntax) -> ty.Type:
        ascription = t.property_get(ASCRIPTION_KEY)
        if ascription is not None:
            inner = self._typecheck_no_ascription(t)
            target = (
                ty.parse_type(ascription)
                if isinstance(ascription, Syntax)
                else ty.parse_type_datum(ascription, t)
            )
            if not ty.subtype(inner, target):
                raise TypeCheckError(
                    f"ascription failed (expected {target}, got {inner})", t
                )
            return target
        return self._typecheck_no_ascription(t)

    def _typecheck_no_ascription(self, t: Syntax) -> ty.Type:
        head = core_form_of(t, 0)
        if head == "if":
            return self._check_if(t)
        if head == "quote":
            return self._type_of_quoted(t.e[1], t)
        if head == "#%plain-app":
            return self._check_app(t)
        return super()._typecheck(t)

    def _check_if(self, t: Syntax) -> ty.Type:
        """``if`` with occurrence typing: a predicate test on a variable
        refines that variable's type per branch (see typed.occurrence)."""
        from repro.langs.typed.occurrence import analyze_test

        self.typecheck(t.e[1])  # any type is a valid test (truthiness)
        refinement = analyze_test(t.e[1], lambda b: self.types.get(b.key()))
        if refinement is None:
            then_t = self.typecheck(t.e[2])
            else_t = self.typecheck(t.e[3])
            return ty.join(then_t, else_t)
        key = refinement.binding.key()
        original = self.types[key]
        try:
            # a branch refined to Nothing is dead code; check it under the
            # unrefined type so its body still elaborates sensibly
            self.types[key] = (
                refinement.then_type
                if refinement.then_type is not ty.NOTHING
                else original
            )
            then_t = self.typecheck(t.e[2])
            self.types[key] = (
                refinement.else_type
                if refinement.else_type is not ty.NOTHING
                else original
            )
            else_t = self.typecheck(t.e[3])
        finally:
            self.types[key] = original
        return ty.join(then_t, else_t)

    def _type_of_quoted(self, d: Syntax, where: Syntax) -> ty.Type:
        e = d.e
        if isinstance(e, tuple):
            if not e:
                return ty.NULL_TYPE
            result: ty.Type = ty.NULL_TYPE
            for item in reversed(e):
                result = ty.PairType(self._type_of_quoted(item, where), result)
            return result
        if isinstance(e, ImproperList):
            result = self._type_of_quoted(e.tail, where)
            for item in reversed(e.items):
                result = ty.PairType(self._type_of_quoted(item, where), result)
            return result
        if isinstance(e, VectorDatum):
            elem: ty.Type = ty.NOTHING
            for item in e.items:
                elem = ty.join(elem, self._type_of_quoted(item, where))
            return ty.VectorofType(elem if e.items else ty.ANY)
        if isinstance(e, Keyword):
            return ty.ANY
        return self._type_of_datum(d, where)

    def _check_app(self, t: Syntax) -> ty.Type:
        op = t.e[1]
        args = t.e[2:]
        # delta rules: the kernel's variadic / polymorphic operations
        if op.is_identifier():
            binding = resolve(op, 0)
            if (
                isinstance(binding, ModuleBinding)
                and binding.module_path == KERNEL_PATH
            ):
                rule = DELTA_RULES.get(binding.name.name)
                if rule is not None:
                    argtys = [self.typecheck(a) for a in args]
                    self.expr_types[id(op)] = ty.ANY
                    return rule(self, t, list(args), argtys)
        # otherwise: the fig. 3 rule, plus expected-type checking of arguments
        op_type = self.typecheck(op)
        if op_type is ty.NOTHING:
            # a poisoned (already-reported) definition; don't cascade
            for a in args:
                self.typecheck(a)
            return ty.NOTHING
        if isinstance(op_type, ty.FunType):
            if len(args) != len(op_type.params):
                raise TypeCheckError(
                    f"wrong number of arguments (expected {len(op_type.params)}, "
                    f"got {len(args)})",
                    t,
                )
            for a, p in zip(args, op_type.params):
                self.typecheck(a, p)
            return op_type.result
        if isinstance(op_type, ty.CaseFunType):
            argtys = [self.typecheck(a) for a in args]
            for case in op_type.cases:
                if len(argtys) == len(case.params) and all(
                    ty.subtype(a, p) for a, p in zip(argtys, case.params)
                ):
                    return case.result
            raise TypeCheckError(
                f"no matching case in {op_type} for argument types "
                f"({' '.join(str(a) for a in argtys)})",
                t,
            )
        raise TypeCheckError(f"not a function type: {op_type}", op)
