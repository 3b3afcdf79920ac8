"""Compile the core AST to Python closures.

Each :class:`~repro.core.ast.CoreExpr` compiles to a Python callable taking a
runtime environment (a linked chain of frames: ``(frame_list, parent)``).
Compilation happens at module instantiation, with the target namespace in
hand, so module-level references resolve to their cells once, not per access.

Applications whose operator denotes a kernel primitive
(:func:`~repro.core.lower.kernel_primitive`, the test the pyc backend
shares) compile to direct Python calls — the equivalent of the inlining
Racket's compiler performs for kernel primitives. This is what makes
the generic/unsafe distinction measurable: a safe ``(+ x y)`` becomes one
``generic_add`` call (the primitive's two-operand entry,
``Primitive.binary``, reading ``x`` and ``y`` in place when they are
constants or locals of the innermost frame), an optimized ``(unsafe-fl+ x
y)`` one ``unsafe_fl_add`` call.

The :class:`Compiler` runs under the owning Runtime's guard and captures
it, so it picks the trampoline when it compiles, as the pyc backend does
at link time: under no guard, application sites call
:func:`~repro.core.interp.apply_ungoverned` directly and never read the
guard context variable; under a guard they call
:func:`~repro.core.interp.apply_procedure`, which charges steps and depth.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core import ast
from repro.core.interp import (
    UNDEFINED,
    TailCall,
    apply_procedure,
    apply_ungoverned,
    tail_apply,
    tail_ungoverned,
)
from repro.core.lower import kernel_primitive
from repro.core.namespace import Namespace
from repro.errors import RuntimeReproError
from repro.runtime.values import Closure, Values
from repro.syn.binding import LocalBinding, ModuleBinding

Compiled = Callable[[Any], Any]

class CEnv:
    """Compile-time environment: local binding uid -> (depth, index)."""

    __slots__ = ("mapping", "parent")

    def __init__(self, mapping: dict[int, int], parent: Optional["CEnv"]) -> None:
        self.mapping = mapping
        self.parent = parent

    def lookup(self, uid: int) -> Optional[tuple[int, int]]:
        depth = 0
        env: Optional[CEnv] = self
        while env is not None:
            idx = env.mapping.get(uid)
            if idx is not None:
                return depth, idx
            env = env.parent
            depth += 1
        return None


class Compiler:
    def __init__(self, ns: Namespace, *, inline: bool, analysis: Any = None) -> None:
        self.ns = ns
        #: the registry's ``inline_primitives`` (see the module docstring)
        self.inline = inline
        # Compilation happens at instantiation time, under the owning
        # Runtime's guard (if any) — so governance checks are *compiled in*
        # only for governed Runtimes, the way a bytecode backend would
        # inline them, and ungoverned code carries no hooks at all.
        from repro.guard.budget import current_guard

        self.guard = current_guard()
        #: optional :class:`repro.core.lower.ModuleAnalysis` — when present,
        #: reads of bindings the lower pass proves initialized (parameters,
        #: non-recursive let ids) skip the UNDEFINED check
        self.analysis = analysis

    # -- expressions ------------------------------------------------------

    def compile_expr(self, node: ast.CoreExpr, cenv: Optional[CEnv], tail: bool) -> Compiled:
        t = type(node)
        if t is ast.Quote:
            value = node.value
            return lambda env: value
        if t is ast.QuoteSyntax:
            stx = node.stx
            return lambda env: stx
        if t is ast.LocalRef:
            return self._compile_local_ref(node, cenv)
        if t is ast.ModuleRef:
            return self._compile_module_ref(node)
        if t is ast.If:
            test = self.compile_expr(node.test, cenv, False)
            then = self.compile_expr(node.then, cenv, tail)
            orelse = self.compile_expr(node.orelse, cenv, tail)
            return lambda env: then(env) if test(env) is not False else orelse(env)
        if t is ast.Begin:
            return self._compile_body(node.exprs, cenv, tail)
        if t is ast.Lambda:
            return self._compile_lambda(node, cenv)
        if t is ast.LetValues:
            return self._compile_let(node, cenv, tail)
        if t is ast.SetBang:
            return self._compile_set(node, cenv)
        if t is ast.App:
            return self._compile_app(node, cenv, tail)
        raise AssertionError(f"cannot compile {node!r}")  # pragma: no cover

    def _compile_local_ref(self, node: ast.LocalRef, cenv: Optional[CEnv]) -> Compiled:
        loc = cenv.lookup(node.binding.uid) if cenv is not None else None
        if loc is None:
            raise RuntimeReproError(f"compile: local {node.name} not in scope")
        depth, idx = loc
        name = node.name
        if (
            self.analysis is not None
            and node.binding.uid in self.analysis.initialized_uids
        ):
            if depth == 0:
                return lambda env: env[0][idx]
            if depth == 1:
                return lambda env: env[1][0][idx]

            def ref_fast(env: Any) -> Any:
                e = env
                for _ in range(depth):
                    e = e[1]
                return e[0][idx]

            return ref_fast
        if depth == 0:
            def ref0(env: Any) -> Any:
                value = env[0][idx]
                if value is UNDEFINED:
                    raise RuntimeReproError(f"{name}: used before initialization")
                return value

            return ref0
        if depth == 1:
            def ref1(env: Any) -> Any:
                value = env[1][0][idx]
                if value is UNDEFINED:
                    raise RuntimeReproError(f"{name}: used before initialization")
                return value

            return ref1

        def refn(env: Any) -> Any:
            e = env
            for _ in range(depth):
                e = e[1]
            value = e[0][idx]
            if value is UNDEFINED:
                raise RuntimeReproError(f"{name}: used before initialization")
            return value

        return refn

    def _compile_module_ref(self, node: ast.ModuleRef) -> Compiled:
        prim = kernel_primitive(node)
        if prim is not None:
            return lambda env: prim
        cell = self.ns.cell(node.binding.key())
        name = node.binding.name.name

        def ref(env: Any) -> Any:
            value = cell[0]
            if value is UNDEFINED:
                raise RuntimeReproError(f"{name}: undefined; referenced before definition")
            return value

        return ref

    def _compile_body(
        self, exprs: tuple[ast.CoreExpr, ...], cenv: Optional[CEnv], tail: bool
    ) -> Compiled:
        if len(exprs) == 1:
            return self.compile_expr(exprs[0], cenv, tail)
        inits = tuple(self.compile_expr(e, cenv, False) for e in exprs[:-1])
        last = self.compile_expr(exprs[-1], cenv, tail)

        def body(env: Any) -> Any:
            for f in inits:
                f(env)
            return last(env)

        return body

    def _compile_lambda(self, node: ast.Lambda, cenv: Optional[CEnv]) -> Compiled:
        mapping: dict[int, int] = {}
        for i, p in enumerate(node.params):
            mapping[p.uid] = i
        if node.rest is not None:
            mapping[node.rest.uid] = len(node.params)
        inner = CEnv(mapping, cenv)
        body_fn = self._compile_body(node.body, inner, True)
        name = node.name
        nparams = len(node.params)
        has_rest = node.rest is not None

        def make_closure(env: Any) -> Closure:
            return Closure(name, nparams, has_rest, body_fn, env)

        return make_closure

    def _compile_let(self, node: ast.LetValues, cenv: Optional[CEnv], tail: bool) -> Compiled:
        mapping: dict[int, int] = {}
        slots: list[tuple[tuple[int, ...], Compiled]] = []
        idx = 0
        clause_layout: list[tuple[int, int]] = []  # (start index, count)
        for ids, _rhs in node.bindings:
            clause_layout.append((idx, len(ids)))
            for b in ids:
                mapping[b.uid] = idx
                idx += 1
        size = idx
        inner = CEnv(mapping, cenv)
        rhs_env = inner if node.recursive else cenv
        compiled_rhss = [
            self.compile_expr(rhs, rhs_env, False) for (_ids, rhs) in node.bindings
        ]
        body_fn = self._compile_body(node.body, inner, tail)
        layout = tuple(clause_layout)
        rhss = tuple(compiled_rhss)

        if node.recursive:
            def run_letrec(env: Any) -> Any:
                frame = [UNDEFINED] * size
                new_env = (frame, env)
                for (start, count), rhs in zip(layout, rhss):
                    _bind_values(frame, start, count, rhs(new_env))
                return body_fn(new_env)

            return run_letrec

        def run_let(env: Any) -> Any:
            frame = [UNDEFINED] * size
            for (start, count), rhs in zip(layout, rhss):
                _bind_values(frame, start, count, rhs(env))
            return body_fn((frame, env))

        return run_let

    def _compile_set(self, node: ast.SetBang, cenv: Optional[CEnv]) -> Compiled:
        rhs = self.compile_expr(node.expr, cenv, False)
        from repro.runtime.values import VOID

        if isinstance(node.binding, LocalBinding):
            loc = cenv.lookup(node.binding.uid) if cenv is not None else None
            if loc is None:
                raise RuntimeReproError(f"compile: local {node.name} not in scope")
            depth, idx = loc

            def set_local(env: Any) -> Any:
                e = env
                for _ in range(depth):
                    e = e[1]
                e[0][idx] = rhs(env)
                return VOID

            return set_local
        assert isinstance(node.binding, ModuleBinding)
        cell = self.ns.cell(node.binding.key())

        def set_module(env: Any) -> Any:
            cell[0] = rhs(env)
            return VOID

        return set_module

    def _compile_app(self, node: ast.App, cenv: Optional[CEnv], tail: bool) -> Compiled:
        nargs = len(node.args)

        # Fast path: the operator denotes a kernel primitive of compatible
        # arity (so generic and unsafe arithmetic take this route)
        value = kernel_primitive(node.fn, nargs) if self.inline else None
        if value is not None:
            pyfn = value.fn
            guard = self.guard
            if guard is not None and guard.track_allocations and value.allocates:
                # charge the allocation budget at this compiled call
                # site; the wrapped pyfn keeps the inline fast path
                raw = pyfn

                def pyfn(*args: Any, _raw: Any = raw, _guard: Any = guard) -> Any:
                    _guard.charge_alloc()
                    return _raw(*args)

            elif nargs == 2 and value.binary is not None:
                pyfn = value.binary
            if nargs == 2:
                return self._binary_site(pyfn, node.args, cenv)
            compiled_args = tuple(self.compile_expr(a, cenv, False) for a in node.args)
            if nargs == 0:
                return lambda env: pyfn()
            if nargs == 1:
                a0 = compiled_args[0]
                return lambda env: pyfn(a0(env))
            if nargs == 3:
                a0, a1, a2 = compiled_args
                return lambda env: pyfn(a0(env), a1(env), a2(env))
            return lambda env: pyfn(*[a(env) for a in compiled_args])

        compiled_args = tuple(self.compile_expr(a, cenv, False) for a in node.args)
        fn = self.compile_expr(node.fn, cenv, False)
        # the guard is fixed for this compilation (see __init__), so an
        # ungoverned one binds the ungoverned trampoline here, once
        if tail:
            tail_fn = tail_apply if self.guard is not None else tail_ungoverned

            def app_tail(env: Any) -> Any:
                return tail_fn(fn(env), [a(env) for a in compiled_args])

            return app_tail

        apply = apply_procedure if self.guard is not None else apply_ungoverned

        def app(env: Any) -> Any:
            return apply(fn(env), [a(env) for a in compiled_args])

        return app

    def _frame_slot(self, node: ast.CoreExpr, cenv: Optional[CEnv]) -> Optional[int]:
        """The innermost-frame index of ``node`` when it is a local that the
        lower pass proves initialized (read as ``env[0][i]``, no check)."""
        if (
            type(node) is ast.LocalRef
            and cenv is not None
            and self.analysis is not None
            and node.binding.uid in self.analysis.initialized_uids
        ):
            return cenv.mapping.get(node.binding.uid)
        return None

    def _binary_site(
        self, pyfn: Callable[[Any, Any], Any], args: tuple[ast.CoreExpr, ...],
        cenv: Optional[CEnv],
    ) -> Compiled:
        """A two-operand primitive call. A constant operand, or a local of
        the innermost frame, is read in place instead of through a compiled
        closure, in the shapes (local, const), (local, local), (const,
        local), (any, const) and (local, any). Operands still evaluate left
        to right, and reading either kind has no effect to reorder."""
        x, y = args
        i = self._frame_slot(x, cenv)
        j = self._frame_slot(y, cenv)
        if i is not None:
            if type(y) is ast.Quote:
                k = y.value
                return lambda env: pyfn(env[0][i], k)
            if j is not None:
                return lambda env: pyfn(env[0][i], env[0][j])
            a1 = self.compile_expr(y, cenv, False)
            return lambda env: pyfn(env[0][i], a1(env))
        if type(x) is ast.Quote and j is not None:
            k = x.value
            return lambda env: pyfn(k, env[0][j])
        a0 = self.compile_expr(x, cenv, False)
        if type(y) is ast.Quote:
            k = y.value
            return lambda env: pyfn(a0(env), k)
        a1 = self.compile_expr(y, cenv, False)
        return lambda env: pyfn(a0(env), a1(env))

    # -- module-level forms -------------------------------------------------

    def compile_module_form(self, form: ast.ModuleForm) -> Callable[[], Any]:
        if isinstance(form, ast.DefineValues):
            expr = self.compile_expr(form.expr, None, False)
            cells = [self.ns.cell(b.key()) for b in form.bindings]
            count = len(cells)
            names = form.names

            def run_define() -> Any:
                from repro.runtime.values import VOID

                _bind_cells(cells, count, expr(None), names)
                return VOID

            return run_define
        expr_fn = self.compile_expr(form, None, False)
        return lambda: expr_fn(None)


def _bind_values(frame: list[Any], start: int, count: int, result: Any) -> None:
    if count == 1:
        if isinstance(result, Values):
            raise RuntimeReproError(
                f"binding expects 1 value, got {len(result.items)}"
            )
        frame[start] = result
        return
    if not isinstance(result, Values) or len(result.items) != count:
        got = len(result.items) if isinstance(result, Values) else 1
        raise RuntimeReproError(f"binding expects {count} values, got {got}")
    for i, value in enumerate(result.items):
        frame[start + i] = value


def _bind_cells(cells: list[list[Any]], count: int, result: Any, names: tuple[str, ...]) -> None:
    if count == 1:
        if isinstance(result, Values):
            raise RuntimeReproError(
                f"define-values: {names[0]}: expected 1 value, got {len(result.items)}"
            )
        cells[0][0] = result
        return
    if not isinstance(result, Values) or len(result.items) != count:
        got = len(result.items) if isinstance(result, Values) else 1
        raise RuntimeReproError(f"define-values: expected {count} values, got {got}")
    for cell, value in zip(cells, result.items):
        cell[0] = value
