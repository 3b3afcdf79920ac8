"""The fig. 5 optimizer: float specialization by source rewriting.

"The optimizer rewrites uses of generic arithmetic operations on
floating-point numbers to specialized operations" — here, applications of
``+ - * / < <= > >= =`` whose arguments the checker proved ``Float`` become
the corresponding ``unsafe-fl`` primitives, which skip the numeric tower's
dispatch entirely.
"""

from __future__ import annotations

from typing import Optional

from repro.core.parse import core_form_of
from repro.expander.env import ExpandContext
from repro.expander.kernel_scope import core_id
from repro.langs.typed_common import env as tenv
from repro.langs.typed_common import types as ty
from repro.modules.registry import KERNEL_PATH
from repro.observe.recorder import current_recorder
from repro.syn.binding import ModuleBinding, resolve
from repro.syn.syntax import Syntax

#: generic operation name -> unsafe float-specialized name (binary cases)
FLOAT_SPECIALIZATIONS = {
    "+": "unsafe-fl+",
    "-": "unsafe-fl-",
    "*": "unsafe-fl*",
    "/": "unsafe-fl/",
    "<": "unsafe-fl<",
    "<=": "unsafe-fl<=",
    ">": "unsafe-fl>",
    ">=": "unsafe-fl>=",
    "=": "unsafe-fl=",
    "min": "unsafe-flmin",
    "max": "unsafe-flmax",
    "abs": "unsafe-flabs",
    "sqrt": "unsafe-flsqrt",
}


class SimpleOptimizer:
    def __init__(self, ctx: ExpandContext) -> None:
        self.ctx = ctx
        self.expr_types = tenv.expr_types(ctx)
        self.rewrites = 0
        #: the optimization-coach event bus (no-op recorder when tracing is
        #: off; every coach call site is guarded on ._rec.enabled)
        self._rec = current_recorder()

    def type_of(self, stx: Syntax) -> Optional[ty.Type]:
        return self.expr_types.get(id(stx))

    # -- optimization coach -------------------------------------------------

    def _loc(self, t: Syntax, op: Syntax):
        loc = t.srcloc if t.srcloc is not None else op.srcloc
        if loc is not None and loc.source == "<generated>":
            loc = op.srcloc
        return loc

    def _operand_types(self, args) -> list[str]:
        return [str(self.type_of(a)) for a in args]

    def _coach_fired(self, rule: str, t: Syntax, op_name: str,
                     replacement: str, args) -> None:
        self._rec.opt_fired(rule, op_name, replacement, self._loc(t, t.e[1]),
                            operand_types=self._operand_types(args))

    def _coach_near_miss(self, rule: str, t: Syntax, op_name: str,
                         reason: str, args) -> None:
        self._rec.opt_near_miss(rule, op_name, reason, self._loc(t, t.e[1]),
                                operand_types=self._operand_types(args))

    def _kernel_op_name(self, op: Syntax) -> Optional[str]:
        if not op.is_identifier():
            return None
        binding = resolve(op, 0)
        if isinstance(binding, ModuleBinding) and binding.module_path == KERNEL_PATH:
            return binding.name.name
        return None

    def optimize_module_form(self, form: Syntax) -> Syntax:
        head = core_form_of(form, 0)
        if head in ("#%provide", "#%require", "define-syntaxes", "begin-for-syntax"):
            return form
        if form.property_get("typed-ignore"):
            return form
        if head == "define-values":
            return self._rebuild(form, (form.e[0], form.e[1], self.optimize(form.e[2])))
        if form.is_identifier() or not isinstance(form.e, tuple):
            return form
        return self.optimize(form)

    @staticmethod
    def _rebuild(stx: Syntax, items: tuple[Syntax, ...]) -> Syntax:
        return Syntax(items, stx.scopes, stx.srcloc, stx.props)

    def optimize(self, t: Syntax) -> Syntax:
        head = core_form_of(t, 0)
        if head is None or head in ("quote", "quote-syntax"):
            return t
        if head == "#%plain-app":
            return self._optimize_app(t)
        if head == "#%plain-lambda":
            return self._rebuild(
                t, (t.e[0], t.e[1], *(self.optimize(e) for e in t.e[2:]))
            )
        if head in ("let-values", "letrec-values"):
            clauses = tuple(
                self._rebuild(c, (c.e[0], self.optimize(c.e[1]))) for c in t.e[1].e
            )
            return self._rebuild(
                t,
                (
                    t.e[0],
                    Syntax(clauses, t.e[1].scopes, t.e[1].srcloc),
                    *(self.optimize(e) for e in t.e[2:]),
                ),
            )
        if head in ("if", "begin", "begin0", "#%expression"):
            return self._rebuild(t, (t.e[0], *(self.optimize(e) for e in t.e[1:])))
        if head == "set!":
            return self._rebuild(t, (t.e[0], t.e[1], self.optimize(t.e[2])))
        return t

    def _optimize_app(self, t: Syntax) -> Syntax:
        op = t.e[1]
        args = t.e[2:]
        new_args = tuple(self.optimize(a) for a in args)
        new_op = op
        op_name = self._kernel_op_name(op)
        # unary cases only exist for abs/sqrt; binary for the rest
        if (
            op_name in FLOAT_SPECIALIZATIONS
            and 1 <= len(args) <= 2
            and (len(args) == 1) == (op_name in ("abs", "sqrt"))
        ):
            replacement = FLOAT_SPECIALIZATIONS[op_name]
            if all(self.type_of(a) == ty.FLOAT for a in args):
                new_op = core_id(replacement, op.srcloc)
                self.rewrites += 1
                if self._rec.enabled:
                    self._coach_fired("float", t, op_name, replacement, args)
            elif self._rec.enabled:
                # the shape matched but the types did not prove the rewrite:
                # a coach near-miss, with the operand that blocked it
                blocker = next(
                    (a for a in args if self.type_of(a) != ty.FLOAT), args[0]
                )
                blocker_type = self.type_of(blocker)
                if any(self.type_of(a) is not None for a in args):
                    self._coach_near_miss(
                        "float", t, op_name,
                        f"operand typed `{blocker_type}`, not `Float` — "
                        f"no `{replacement}`",
                        args,
                    )
        return self._rebuild(t, (t.e[0], new_op, *new_args))
