"""The normalize/lower pass: static analysis shared by both backends.

The pipeline is expand -> core AST (:mod:`repro.core.ast`) -> **lower** ->
backend. This pass computes, in one walk over a module body, the facts a
backend needs to emit better code than a naive tree traversal:

- **free variables** of every ``Lambda`` (local binding uids referenced or
  assigned but not bound inside it);
- **initialized locals**: bindings that can never be observed as
  ``UNDEFINED`` (lambda parameters, rest parameters, and non-recursive
  ``let-values`` ids) — the interp backend elides its per-read
  initialization check for these, and the ``pyc`` backend emits a bare
  Python local read; only ``letrec``-bound ids keep the check;
- **loop-safe lambdas**: lambdas whose self tail calls may be compiled to a
  Python ``while`` loop. The hazard is Python's one-cell-per-invocation
  closure capture: a Scheme tail self-call creates *fresh* bindings each
  iteration, while a Python loop rebinds the same cells, so any nested
  lambda closing over a binding that lives inside the loop body (a
  parameter or a ``let`` id bound per iteration) would observe the last
  iteration's values. A lambda is loop-safe only when no nested lambda
  captures any such binding (and it has no rest parameter);
- **mutated bindings**: local uids and module binding keys targeted by
  ``set!`` anywhere in the module — a self call through a mutated binding
  must stay a real (trampolined) call, because the binding may no longer
  hold the function;
- **kernel primitives** (:func:`kernel_primitive`): which references
  denote a ``#%kernel`` primitive. That is a static fact: a module-level
  definition binds the module's own key (it shadows the ``#lang`` import),
  and ``set!`` of an imported identifier is a syntax error, so nothing
  writes a kernel cell once a namespace is prefilled. Both backends inline
  exactly the applications this predicate accepts.

The analysis is purely syntactic, namespace-independent, and cheap (one
pass, no fixpoints), so it can run either at module-compile time (``pyc``
codegen) or at instantiation (interp).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core import ast
from repro.modules.registry import KERNEL_PATH
from repro.runtime.primitives import PRIMITIVES
from repro.runtime.values import Primitive
from repro.syn.binding import LocalBinding, ModuleBinding


@dataclass(slots=True)
class LambdaInfo:
    """Per-``Lambda`` facts, keyed by ``id(node)`` in :class:`ModuleAnalysis`."""

    free: frozenset[int]
    loop_safe: bool


@dataclass(slots=True)
class ModuleAnalysis:
    """The lowering facts for one module body (or a bare expression)."""

    initialized_uids: set[int] = field(default_factory=set)
    letrec_uids: set[int] = field(default_factory=set)
    mutated_uids: set[int] = field(default_factory=set)
    mutated_module_keys: set[tuple] = field(default_factory=set)
    lambdas: dict[int, LambdaInfo] = field(default_factory=dict)

    def lambda_info(self, node: ast.Lambda) -> LambdaInfo:
        info = self.lambdas.get(id(node))
        if info is None:  # pragma: no cover - defensive (unanalyzed node)
            return LambdaInfo(frozenset(), False)
        return info


def analyze_module(
    body: Union[ast.CoreModuleBody, ast.ModuleForm]
) -> ModuleAnalysis:
    """Analyze a module body (or a single form/expression)."""
    analysis = ModuleAnalysis()
    if isinstance(body, ast.CoreModuleBody):
        forms = list(body.forms)
    else:
        forms = [body]
    for form in forms:
        if isinstance(form, ast.DefineValues):
            _walk(form.expr, analysis)
        else:
            _walk(form, analysis)
    return analysis


def module_analysis(compiled) -> ModuleAnalysis:
    """The (memoized) analysis of a :class:`CompiledModule`'s body."""
    cached = getattr(compiled, "_analysis", None)
    if cached is None:
        cached = analyze_module(compiled.body)
        compiled._analysis = cached
    return cached


def kernel_primitive(
    fn: ast.CoreExpr, nargs: Optional[int] = None
) -> Optional[Primitive]:
    """The kernel primitive ``fn`` denotes, or None.

    ``fn`` denotes one when it references a phase-0 ``#%kernel`` binding
    (see the module docstring for why that is static). With ``nargs`` it
    is an application's operator, and the primitive's arity must accept
    ``nargs``; without it, a reference in value position.
    """
    if type(fn) is not ast.ModuleRef:
        return None
    binding = fn.binding
    if binding.module_path != KERNEL_PATH or binding.phase != 0:
        return None
    prim = PRIMITIVES.get(binding.name.name)
    if prim is None or nargs is None:
        return prim
    if prim.arity_min <= nargs and (
        prim.arity_max is None or nargs <= prim.arity_max
    ):
        return prim
    return None


def _walk(node: ast.CoreExpr, analysis: ModuleAnalysis) -> frozenset[int]:
    """Return the free local-binding uids of ``node``, filling ``analysis``."""
    t = type(node)
    if t is ast.Quote or t is ast.QuoteSyntax:
        return frozenset()
    if t is ast.LocalRef:
        return frozenset((node.binding.uid,))
    if t is ast.ModuleRef:
        return frozenset()
    if t is ast.If:
        return _walk(node.test, analysis) | _walk(node.then, analysis) | _walk(
            node.orelse, analysis
        )
    if t is ast.Begin:
        return _walk_seq(node.exprs, analysis)
    if t is ast.SetBang:
        free = _walk(node.expr, analysis)
        if isinstance(node.binding, LocalBinding):
            analysis.mutated_uids.add(node.binding.uid)
            return free | frozenset((node.binding.uid,))
        if isinstance(node.binding, ModuleBinding):
            analysis.mutated_module_keys.add(node.binding.key())
        return free
    if t is ast.App:
        free = _walk(node.fn, analysis)
        for a in node.args:
            free |= _walk(a, analysis)
        return free
    if t is ast.LetValues:
        bound: set[int] = set()
        for ids, _rhs in node.bindings:
            for b in ids:
                bound.add(b.uid)
                if node.recursive:
                    analysis.letrec_uids.add(b.uid)
                else:
                    analysis.initialized_uids.add(b.uid)
        free: frozenset[int] = frozenset()
        for _ids, rhs in node.bindings:
            free |= _walk(rhs, analysis)
        free |= _walk_seq(node.body, analysis)
        return free - frozenset(bound)
    if t is ast.Lambda:
        bound = set()
        for p in node.params:
            bound.add(p.uid)
            analysis.initialized_uids.add(p.uid)
        if node.rest is not None:
            bound.add(node.rest.uid)
            analysis.initialized_uids.add(node.rest.uid)
        body_free = _walk_seq(node.body, analysis)
        free = body_free - frozenset(bound)
        analysis.lambdas[id(node)] = LambdaInfo(
            free=free, loop_safe=_loop_safe(node, analysis)
        )
        return free
    raise AssertionError(f"cannot analyze {node!r}")  # pragma: no cover


def _walk_seq(
    exprs: tuple[ast.CoreExpr, ...], analysis: ModuleAnalysis
) -> frozenset[int]:
    free: frozenset[int] = frozenset()
    for e in exprs:
        free |= _walk(e, analysis)
    return free


def _loop_safe(lam: ast.Lambda, analysis: ModuleAnalysis) -> bool:
    """May ``lam``'s self tail calls be compiled to a Python loop?

    Requires: no rest parameter (rest lists would need re-packing per
    iteration), and no lambda nested in the body captures a binding that
    is rebound per iteration (parameters, or any ``let``/``letrec`` id
    introduced in the body outside nested lambdas).
    """
    if lam.rest is not None:
        return False
    iteration_bound: set[int] = {p.uid for p in lam.params}
    nested: list[ast.Lambda] = []
    for expr in lam.body:
        _collect_iteration_scope(expr, iteration_bound, nested)
    for inner in nested:
        info = analysis.lambdas.get(id(inner))
        # inner lambdas are analyzed before the enclosing one (bottom-up)
        if info is None or info.free & iteration_bound:
            return False
    return True


def _collect_iteration_scope(
    node: ast.CoreExpr, bound: set[int], nested: list[ast.Lambda]
) -> None:
    """Collect let-introduced uids and directly nested lambdas, not
    descending into nested lambdas (their free sets already account for
    transitive captures)."""
    t = type(node)
    if t is ast.Lambda:
        nested.append(node)
        return
    if t is ast.LetValues:
        for ids, _rhs in node.bindings:
            for b in ids:
                bound.add(b.uid)
        for _ids, rhs in node.bindings:
            _collect_iteration_scope(rhs, bound, nested)
        for e in node.body:
            _collect_iteration_scope(e, bound, nested)
        return
    if t is ast.If:
        _collect_iteration_scope(node.test, bound, nested)
        _collect_iteration_scope(node.then, bound, nested)
        _collect_iteration_scope(node.orelse, bound, nested)
        return
    if t is ast.Begin:
        for e in node.exprs:
            _collect_iteration_scope(e, bound, nested)
        return
    if t is ast.SetBang:
        _collect_iteration_scope(node.expr, bound, nested)
        return
    if t is ast.App:
        _collect_iteration_scope(node.fn, bound, nested)
        for a in node.args:
            _collect_iteration_scope(a, bound, nested)
        return
    # Quote / QuoteSyntax / LocalRef / ModuleRef: nothing to collect


def stable_self_binding(
    lam_binding: Optional[object], analysis: ModuleAnalysis
) -> bool:
    """Is a binding holding ``lam`` stable (never ``set!``), so a self call
    through it is guaranteed to reach the same function?"""
    if isinstance(lam_binding, LocalBinding):
        return lam_binding.uid not in analysis.mutated_uids
    if isinstance(lam_binding, ModuleBinding):
        return lam_binding.key() not in analysis.mutated_module_keys
    return False
