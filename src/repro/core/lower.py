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
  iteration, while a Python loop rebinds the same cells, so a nested
  lambda closing over a binding that lives inside the loop body (a
  parameter or a ``let`` id bound per iteration) *through a shared cell*
  would observe the last iteration's values. Only ``set!`` and ``letrec``
  bindings are shared cells; every other capture is flat (below). A
  lambda is loop-safe when no nested lambda captures a per-iteration
  binding through a cell (and it has no rest parameter);
- **mutated bindings**: local uids and module binding keys targeted by
  ``set!`` anywhere in the module — a self call through a mutated binding
  must stay a real (trampolined) call, because the binding may no longer
  hold the function;
- **flat captures** (``LambdaInfo.flat``): the free variables of a lambda
  that are never ``set!`` and not ``letrec``-bound. Nothing assigns them
  after the closure is made, so pyc copies them into it when it is made;
- **known local procedures** (``ModuleAnalysis.known``): lambdas bound by
  a single-id ``let``/``letrec`` clause, with no rest parameter, never
  ``set!``, referenced only as the operator of calls with their exact
  arity, and reached by no cyclic tail call. Both backends call them
  directly (pyc emits them as bare ``def``s, interp enters the body of
  the closure in their frame slot); ``ready_uids`` are the ``letrec``
  ids no call of which can run before initialization;
- **direct tail calls** (``ModuleAnalysis.direct_tail``): the tail-call
  graph has a node per lambda and an edge per tail call of a hoisted
  top-level function (``ModuleAnalysis.hoisted``) or a known procedure.
  A tail call whose callee cannot reach back to its caller (they lie in
  different strongly connected components) may be a direct call on
  either backend: a chain of such calls never enters a lambda twice, so
  proper tail calls hold. ``LambdaInfo.bounces`` says whether a pyc
  direct call of a hoisted or known lambda may return a ``TailCall`` the
  caller must drain. It counts loop-safe self tail calls as pyc's loops;
  interp's bounce, so interp drains every non-tail direct call;
- **kernel primitives** (:func:`kernel_primitive`): which references
  denote a ``#%kernel`` primitive. That is a static fact: a module-level
  definition binds the module's own key (it shadows the ``#lang`` import),
  and ``set!`` of an imported identifier is a syntax error, so nothing
  writes a kernel cell once a namespace is prefilled. Both backends inline
  exactly the applications this predicate accepts.

The analysis is purely syntactic, namespace-independent, and cheap (one
walk, then a pass over its call sites and lambdas, no fixpoints), so it
can run either at module-compile time (``pyc`` codegen) or at
instantiation (interp).
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
    #: the captures that are never ``set!`` and not ``letrec``-bound, which
    #: pyc copies into the closure when it is made
    flat: frozenset[int] = frozenset()
    #: for a hoisted or known procedure: may a pyc direct call of it
    #: return a ``TailCall`` (some tail path bounces off the trampoline)?
    bounces: bool = True


@dataclass(slots=True)
class ModuleAnalysis:
    """The lowering facts for one module body (or a bare expression)."""

    initialized_uids: set[int] = field(default_factory=set)
    letrec_uids: set[int] = field(default_factory=set)
    mutated_uids: set[int] = field(default_factory=set)
    mutated_module_keys: set[tuple] = field(default_factory=set)
    lambdas: dict[int, LambdaInfo] = field(default_factory=dict)
    #: module binding key -> (index of its defining form, lambda) for the
    #: top-level functions pyc hoists to module scope and both backends
    #: call directly
    hoisted: dict[tuple, tuple[int, ast.Lambda]] = field(default_factory=dict)
    #: known local procedures: binding uid -> lambda
    known: dict[int, ast.Lambda] = field(default_factory=dict)
    #: ``letrec`` ids no call of which can run before initialization
    ready_uids: set[int] = field(default_factory=set)
    #: ``id`` of every tail ``App`` that is a direct call
    direct_tail: set[int] = field(default_factory=set)

    def lambda_info(self, node: ast.Lambda) -> LambdaInfo:
        info = self.lambdas.get(id(node))
        if info is None:  # pragma: no cover - defensive (unanalyzed node)
            return LambdaInfo(frozenset(), False)
        return info


def analyze_module(
    body: Union[ast.CoreModuleBody, ast.ModuleForm]
) -> ModuleAnalysis:
    """Analyze a module body (or a single form/expression)."""
    walk = _Walk()
    if isinstance(body, ast.CoreModuleBody):
        forms = list(body.forms)
    else:
        forms = [body]
    for index, form in enumerate(forms):
        if isinstance(form, ast.DefineValues):
            expr = form.expr
            if (len(form.bindings) == 1 and type(expr) is ast.Lambda
                    and expr.rest is None):
                walk.top.append((form.bindings[0].key(), index, expr))
            walk.expr(expr, None, False)
        else:
            walk.expr(form, None, False)
    walk.finish()
    return walk.analysis


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


class _Frame:
    """The lambda whose body the walk is in: its own ``let`` ids (rebound
    per iteration if it loops) and the lambdas directly nested in it."""

    __slots__ = ("lam", "bound", "nested")

    def __init__(self, lam: ast.Lambda) -> None:
        self.lam = lam
        self.bound: list[int] = [p.uid for p in lam.params]
        self.nested: list[ast.Lambda] = []


class _Walk:
    """The one walk over a module body, and what it keeps until
    :meth:`finish` turns it into the graph facts."""

    __slots__ = ("analysis", "candidates", "escaped", "sites", "top")

    def __init__(self) -> None:
        self.analysis = ModuleAnalysis()
        #: single-id ``let``/``letrec`` lambdas without a rest parameter
        self.candidates: dict[int, ast.Lambda] = {}
        #: candidates referenced other than as an exact-arity operator
        self.escaped: set[int] = set()
        #: (calling lambda, tail application)
        self.sites: list[tuple[ast.Lambda, ast.App]] = []
        #: (key, form index, lambda) of top-level single-binding lambdas
        self.top: list[tuple[tuple, int, ast.Lambda]] = []

    def expr(self, node: ast.CoreExpr, frame: Optional[_Frame],
             tail: bool) -> frozenset[int]:
        """Return the free local-binding uids of ``node``; ``tail`` when it
        is in tail position of ``frame``'s lambda."""
        t = type(node)
        if t is ast.Quote or t is ast.QuoteSyntax or t is ast.ModuleRef:
            return frozenset()
        if t is ast.LocalRef:
            uid = node.binding.uid
            if uid in self.candidates:
                self.escaped.add(uid)
            return frozenset((uid,))
        if t is ast.If:
            return (self.expr(node.test, frame, False)
                    | self.expr(node.then, frame, tail)
                    | self.expr(node.orelse, frame, tail))
        if t is ast.Begin:
            return self.seq(node.exprs, frame, tail)
        if t is ast.SetBang:
            free = self.expr(node.expr, frame, False)
            if isinstance(node.binding, LocalBinding):
                self.analysis.mutated_uids.add(node.binding.uid)
                return free | frozenset((node.binding.uid,))
            if isinstance(node.binding, ModuleBinding):
                self.analysis.mutated_module_keys.add(node.binding.key())
            return free
        if t is ast.App:
            fn = node.fn
            if type(fn) is ast.LocalRef:
                uid = fn.binding.uid
                free = frozenset((uid,))
                lam = self.candidates.get(uid)
                if lam is not None and len(lam.params) != len(node.args):
                    self.escaped.add(uid)
            else:
                free = self.expr(fn, frame, False)
            for a in node.args:
                free |= self.expr(a, frame, False)
            if tail and frame is not None:
                self.sites.append((frame.lam, node))
            return free
        if t is ast.LetValues:
            analysis = self.analysis
            ready = node.recursive and all(
                type(rhs) is ast.Lambda for _ids, rhs in node.bindings
            )
            bound: set[int] = set()
            for ids, rhs in node.bindings:
                for b in ids:
                    bound.add(b.uid)
                    if node.recursive:
                        analysis.letrec_uids.add(b.uid)
                        if ready:
                            analysis.ready_uids.add(b.uid)
                    else:
                        analysis.initialized_uids.add(b.uid)
                if (len(ids) == 1 and type(rhs) is ast.Lambda
                        and rhs.rest is None):
                    self.candidates[ids[0].uid] = rhs
            if frame is not None:
                frame.bound.extend(bound)
            free: frozenset[int] = frozenset()
            for _ids, rhs in node.bindings:
                free |= self.expr(rhs, frame, False)
            free |= self.seq(node.body, frame, tail)
            return free - frozenset(bound)
        if t is ast.Lambda:
            if frame is not None:
                frame.nested.append(node)
            inner = _Frame(node)
            bound = set(inner.bound)
            for p in node.params:
                self.analysis.initialized_uids.add(p.uid)
            if node.rest is not None:
                bound.add(node.rest.uid)
                self.analysis.initialized_uids.add(node.rest.uid)
            free = self.seq(node.body, inner, True) - frozenset(bound)
            self.analysis.lambdas[id(node)] = LambdaInfo(
                free=free, loop_safe=self._loop_safe(inner)
            )
            return free
        raise AssertionError(f"cannot analyze {node!r}")  # pragma: no cover

    def seq(self, exprs: tuple[ast.CoreExpr, ...], frame: Optional[_Frame],
            tail: bool) -> frozenset[int]:
        free: frozenset[int] = frozenset()
        last = len(exprs) - 1
        for i, e in enumerate(exprs):
            free |= self.expr(e, frame, tail and i == last)
        return free

    def _loop_safe(self, frame: _Frame) -> bool:
        """May the lambda's self tail calls be compiled to a Python loop?

        Requires: no rest parameter (rest lists would need re-packing per
        iteration), and no lambda nested in the body captures, through a
        shared cell, a binding that is rebound per iteration (a parameter,
        or a ``let``/``letrec`` id of the body outside nested lambdas).
        Every other capture is copied when its closure is made (``flat``),
        so it keeps its own iteration's value. The walk has seen every
        ``set!`` of these bindings by now: they are all in the body.
        """
        if frame.lam.rest is not None:
            return False
        analysis = self.analysis
        hazard = {
            uid for uid in frame.bound
            if uid in analysis.mutated_uids or uid in analysis.letrec_uids
        }
        if not hazard:
            return True
        return not any(
            analysis.lambdas[id(inner)].free & hazard for inner in frame.nested
        )

    def finish(self) -> None:
        """The facts that need the whole module: hoisted functions, known
        procedures, direct tail calls, bounces and flat captures."""
        analysis = self.analysis
        lambdas = analysis.lambdas
        for key, index, lam in self.top:
            if (key not in analysis.mutated_module_keys
                    and not lambdas[id(lam)].free):
                analysis.hoisted[key] = (index, lam)
        known = {
            uid: lam for uid, lam in self.candidates.items()
            if uid not in self.escaped and uid not in analysis.mutated_uids
        }
        # the tail-call graph: one node per lambda, an edge per tail call of
        # a hoisted function or known procedure (a loop back-edge is none)
        calls: list[tuple[ast.Lambda, ast.App, Optional[ast.Lambda]]] = []
        for caller, app in self.sites:
            fn = app.fn
            callee: Optional[ast.Lambda] = None
            if type(fn) is ast.ModuleRef:
                if kernel_primitive(fn, len(app.args)) is not None:
                    continue  # a primitive returns its value
                entry = analysis.hoisted.get(fn.binding.key())
                if entry is not None and len(entry[1].params) == len(app.args):
                    callee = entry[1]
            elif type(fn) is ast.LocalRef:
                callee = known.get(fn.binding.uid)
            if callee is caller and lambdas[id(caller)].loop_safe:
                continue
            calls.append((caller, app, callee))
        component = _components(
            (id(caller), id(callee)) for caller, _app, callee in calls
            if callee is not None
        )
        # a known procedure some cyclic tail call reaches stays a closure:
        # that call needs a procedure to bounce
        cyclic = {
            id(callee) for caller, _app, callee in calls
            if callee is not None
            and component.get(id(caller)) == component.get(id(callee))
        }
        analysis.known = {
            uid: lam for uid, lam in known.items() if id(lam) not in cyclic
        }
        direct_ok = {id(lam) for lam in analysis.known.values()}
        direct_ok.update(id(lam) for _i, lam in analysis.hoisted.values())
        out: dict[int, list[Optional[ast.Lambda]]] = {}
        for caller, app, callee in calls:
            if (callee is not None and id(callee) in direct_ok
                    and component[id(caller)] != component[id(callee)]):
                analysis.direct_tail.add(id(app))
            else:
                callee = None  # bounces off the trampoline
            out.setdefault(id(caller), []).append(callee)

        # Tarjan numbers components callees first, and a direct call's
        # callee lies in another component than its caller: in that order
        # every callee's answer is known before its callers ask
        bounces: dict[int, bool] = {}
        for lam_id in sorted(out, key=lambda n: component.get(n, -1)):
            bounces[lam_id] = any(
                callee is None or bounces.get(id(callee), False)
                for callee in out[lam_id]
            )
        for lam in [*(lam for _i, lam in analysis.hoisted.values()),
                    *analysis.known.values()]:
            lambdas[id(lam)].bounces = bounces.get(id(lam), False)
        shared = analysis.mutated_uids | analysis.letrec_uids
        for info in lambdas.values():
            info.flat = info.free - shared if info.free & shared else info.free


def _components(edges) -> dict[int, int]:
    """Strongly connected components of a directed graph given as
    ``(source, target)`` pairs: node -> component number (Tarjan's
    algorithm, iterative). A tail call ``a -> b`` lies on a cycle exactly
    when ``a`` and ``b`` share a component."""
    succ: dict[int, list[int]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, [])
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    component: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    count = 0
    for root in succ:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, i = work.pop()
            if i == 0:
                index[node] = low[node] = len(index)
                stack.append(node)
                on_stack.add(node)
            targets = succ[node]
            if i < len(targets):
                work.append((node, i + 1))
                nxt = targets[i]
                if nxt not in index:
                    work.append((nxt, 0))
                elif nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
                continue
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component[member] = count
                    if member == node:
                        break
                count += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return component


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
