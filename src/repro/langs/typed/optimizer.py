"""The full type-driven optimizer (§7.2).

"Typed Racket uses the same techniques as the simple optimizer ... but
applies a wider range of optimizations. It supports a number of
floating-point specialization transformations, eliminates tag-checking made
redundant by the typechecker and performs arity raising on functions with
complex number arguments."

Rule groups (individually switchable, for the ablation benchmarks):

- ``float``   — generic arithmetic on proven ``Float`` operands becomes
                ``unsafe-fl*`` (fig. 5, extended to comparisons, ``sqrt``,
                ``sin``/``cos``, ``abs``, ``min``/``max``, ``floor``);
- ``fixnum``  — arithmetic on proven ``Integer`` operands becomes
                ``unsafe-fx*`` (sound here: host integers are unbounded);
- ``pairs``   — ``car``/``cdr``/``first``/``rest`` on proven ``Pairof``
                values skip the pair tag check (``unsafe-car``/``unsafe-cdr``);
- ``vectors`` — ``vector-ref``/``vector-set!``/``vector-length`` on proven
                ``Vectorof`` values skip the vector tag check;
- ``complex`` — arithmetic on proven ``Float-Complex`` operands becomes
                ``unsafe-fc*``: the specialized, non-dispatching complex
                path (our stand-in for Typed Racket's unboxing/arity
                raising, which needs backend support we expose this way).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.langs.simple_type.optimize import SimpleOptimizer
from repro.langs.typed_common import types as ty
from repro.expander.env import ExpandContext
from repro.expander.kernel_scope import core_id
from repro.runtime.primitives import PRIMITIVES, REPLACEMENTS
from repro.runtime.values import Primitive
from repro.syn.syntax import Syntax

ALL_RULES = frozenset({"float", "fixnum", "pairs", "vectors", "complex"})

#: the operand type each uniform rule group proves of every operand
_OPERAND_TYPES = {
    "float": ty.FLOAT, "fixnum": ty.INTEGER, "complex": ty.FLOAT_COMPLEX,
}
#: the type family the family rule groups prove of the first operand
_FAMILIES = {"pairs": (ty.PairType, "Pairof"),
             "vectors": (ty.VectorofType, "Vectorof")}


class FullOptimizer(SimpleOptimizer):
    """Rewrites a checked kernel call to the ``unsafe-*`` primitive whose
    kernel record replaces it (``Primitive.replaces``), when that record's
    rule group is enabled and the operand types prove the rewrite."""

    def __init__(self, ctx: ExpandContext, rules: frozenset[str] = ALL_RULES) -> None:
        super().__init__(ctx)
        self.rules = rules

    def _proves(self, rule: str, args: Sequence[Syntax]) -> bool:
        family = _FAMILIES.get(rule)
        if family is not None:
            return isinstance(self.type_of(args[0]), family[0])
        return all(self.type_of(a) == _OPERAND_TYPES[rule] for a in args)

    def _optimize_app(self, t: Syntax) -> Syntax:
        op = t.e[1]
        args = t.e[2:]
        new_args = tuple(self.optimize(a) for a in args)
        op_name = self._kernel_op_name(op)
        replacement = self._specialize(op_name, args)
        if replacement is None:
            if self._rec.enabled and op_name is not None:
                miss = self._explain_near_miss(op_name, args)
                if miss is not None:
                    rule, reason = miss
                    self._coach_near_miss(rule, t, op_name, reason, args)
            return self._rebuild(t, (t.e[0], self.optimize(op), *new_args))
        self.rewrites += 1
        if self._rec.enabled:
            self._coach_fired(replacement.rule, t, op_name, replacement.name, args)
        if len(args) < replacement.arity_min:
            # (add1 e) -> (unsafe-fx+ e 1): the checked primitive's
            # constant, in the rule group's representation
            k = PRIMITIVES[op_name].against
            literal = float(k) if replacement.rule == "float" else k
            new_args += (Syntax((core_id("quote", op.srcloc), Syntax(literal)),
                                t.scopes, t.srcloc),)
        return self._rebuild(
            t, (t.e[0], core_id(replacement.name, op.srcloc), *new_args)
        )

    def _specialize(
        self, name: Optional[str], args: Sequence[Syntax]
    ) -> Optional[Primitive]:
        for prim in REPLACEMENTS.get((name, len(args)), ()):
            if prim.rule in self.rules and self._proves(prim.rule, args):
                return prim
        return None

    # -- optimization coach: near-miss analysis -----------------------------

    def _explain_near_miss(
        self, op_name: str, args: Sequence[Syntax]
    ) -> Optional[tuple[str, str]]:
        """Why didn't ``op_name`` specialize? Returns ``(rule, reason)``.

        Scans every unsafe primitive whose record replaces this call (the
        operator name and operand count), then reports the candidate whose
        expected operand type matches the *most* operands — the
        specialization the programmer was closest to getting (St-Amour et
        al.'s coaching recipe); a tie goes to the first in kernel table
        order. Requires at least one operand with a known type, so untyped
        positions don't drown the report in noise; a family rule (pairs,
        vectors) needs the type of the first operand.
        """
        types = [self.type_of(a) for a in args]
        if not any(s is not None for s in types):
            return None

        best: Optional[tuple[int, str, str]] = None  # (score, rule, reason)
        for prim in REPLACEMENTS.get((op_name, len(args)), ()):
            rule, replacement = prim.rule, prim.name
            family = _FAMILIES.get(rule)
            expected = _OPERAND_TYPES.get(rule)
            if family is not None and types[0] is None:
                continue
            if rule not in self.rules:
                reason = f"rule group `{rule}` disabled (would be `{replacement}`)"
            elif family is not None:
                reason = (
                    f"operand typed `{types[0]}`, not a `{family[1]}` — "
                    f"no `{replacement}`"
                )
            else:
                blockers = [s for s in types if s != expected]
                if not blockers:
                    continue  # would have fired; not a near-miss
                blocker = next((s for s in blockers if s is not None), None)
                if blocker is None:
                    reason = (
                        f"operand has no known type — no `{replacement}`"
                    )
                else:
                    reason = (
                        f"operand typed `{blocker}`, not `{expected}` — "
                        f"no `{replacement}`"
                    )
            score = 0 if expected is None else sum(s == expected for s in types)
            if best is None or score > best[0]:
                best = (score, rule, reason)

        if best is None:
            return None
        return (best[1], best[2])
