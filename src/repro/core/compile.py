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
it. Under a guard, each lambda body it builds charges its own entry, one
step and one depth level, to the guard active when the body is entered
(the lines of :func:`~repro.guard.budget.charge_entry`, which pyc's
functions call), and allocating primitive sites charge one allocation
when the guard has an allocation limit. Under no guard it emits no charging code.

Calls with a known target skip the trampoline, on the lower pass's facts
(:mod:`repro.core.lower`) that pyc uses too: a call of a hoisted
top-level function or a known local procedure with its arity enters the
callee's body directly. A non-tail one drains a ``TailCall`` the body
returns; a tail one is direct only when ``direct_tail`` holds it and no
guard is compiled in. Every other application goes through
:func:`~repro.core.interp.apply_procedure`, the one trampoline, which
charges nothing (DESIGN §8); in tail position a closure goes back to it
as a ``TailCall``. These sites and a hoisted function's write their
argument lists out up to four arguments.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core import ast
from repro.core.interp import UNDEFINED, TailCall, apply_procedure
from repro.core.lower import kernel_primitive
from repro.core.namespace import Namespace
from repro.errors import RuntimeReproError
from repro.guard.budget import current_guard
from repro.runtime.values import Closure, PyClosure, Values
from repro.syn.binding import LocalBinding, ModuleBinding

Compiled = Callable[[Any], Any]

#: the procedures a tail call returns to the trampoline as a ``TailCall``
_BOUNCE = (Closure, PyClosure)

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
        # only for governed Runtimes, as pyc links them in, and ungoverned
        # code carries no hooks at all.
        self.guard = current_guard()
        #: optional :class:`repro.core.lower.ModuleAnalysis` — when present,
        #: calls with a known target skip the trampoline, and reads of
        #: bindings the lower pass proves initialized skip the UNDEFINED
        #: check: parameters, non-recursive let ids, and ``ready_uids``,
        #: which nothing reads before their ``letrec`` has bound them all
        self.analysis = analysis
        self.unchecked: set[int] = set() if analysis is None else (
            analysis.initialized_uids | analysis.ready_uids
        )
        #: the body of each hoisted lambda, in a one-element holder filled
        #: when the lambda compiles, so calls compiled before it reach it
        self.bodies: dict[int, list[Any]] = {} if analysis is None else {
            id(lam): [None] for _index, lam in analysis.hoisted.values()
        }
        #: index of the module-level form after the one being compiled
        self.next_form = 0

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
        if node.binding.uid in self.unchecked:
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
        name = node.name
        body_fn = self._compile_body(node.body, inner, True)
        if self.guard is not None:
            body_fn = _charged_body(body_fn, name)
        holder = self.bodies.get(id(node))
        if holder is not None:
            holder[0] = body_fn
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
                pyfn = charging_alloc(pyfn)
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

        args = tuple(self.compile_expr(a, cenv, False) for a in node.args)
        direct = self._direct_app(node, cenv, tail, args)
        if direct is not None:
            return direct
        return _trampoline_site(self.compile_expr(node.fn, cenv, False), args, tail)

    def _direct_app(self, node: ast.App, cenv: Optional[CEnv], tail: bool,
                    args: tuple[Compiled, ...]) -> Optional[Compiled]:
        """A call of a hoisted function or a known procedure with its arity
        (``ModuleAnalysis.hoisted``/``known``) enters the callee's body
        directly, as pyc's ``_direct_callee`` does. A non-tail call drains
        a returned ``TailCall`` whatever ``LambdaInfo.bounces`` says: that
        fact counts pyc's loop-safe self tail calls as loops, and interp's
        bounce. A tail call is direct only in ``direct_tail`` and under no
        guard (a governed caller holds its depth level until it returns),
        and returns what the callee does to the caller's trampoline. Every
        other call of these takes the trampoline."""
        analysis = self.analysis
        if analysis is None or (tail and (
                self.guard is not None or id(node) not in analysis.direct_tail)):
            return None
        fn = node.fn
        if type(fn) is ast.LocalRef and fn.binding.uid in analysis.known:
            get = self._compile_local_ref(fn, cenv)
            drain = not tail

            def known_site(env: Any) -> Any:
                c = get(env)
                r = c.body(([a(env) for a in args], c.env))
                return apply_procedure(r.fn, r.args) if drain and type(r) is TailCall else r

            return known_site
        if type(fn) is not ast.ModuleRef:
            return None
        key = fn.binding.key()
        entry = analysis.hoisted.get(key)
        if entry is None or len(entry[1].params) != len(args):
            return None  # the trampoline raises the ArityError
        index, lam = entry
        site = _hoisted_site(self.bodies[id(lam)], args, tail)
        if index < self.next_form:
            return site
        # the defining form comes later: it may not have run yet
        cell = self.ns.cell(key)
        name = fn.binding.name.name

        def defined_first(env: Any) -> Any:
            if cell[0] is UNDEFINED:
                raise RuntimeReproError(f"{name}: undefined; referenced before definition")
            return site(env)

        return defined_first

    def _frame_slot(self, node: ast.CoreExpr, cenv: Optional[CEnv]) -> Optional[int]:
        """The innermost-frame index of ``node`` when it is a local that the
        lower pass proves initialized (read as ``env[0][i]``, no check)."""
        if (
            type(node) is ast.LocalRef
            and cenv is not None
            and node.binding.uid in self.unchecked
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
        """Compile the module's next form: forms compile in their order."""
        self.next_form += 1
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


def _charged_body(run: Compiled, name: str) -> Compiled:
    """A governed lambda body: its entry charges one step and one depth
    level to the guard active at that moment (none: it charges nothing),
    and the depth level is taken back when ``run`` returns or raises."""

    def body(env: Any) -> Any:
        # charge_entry's lines, inlined: calling it would add a Python
        # call to every governed entry
        guard = current_guard()
        if guard is None:
            return run(env)
        steps = guard.steps_used + 1
        guard.steps_used = steps
        if steps >= guard.next_check:
            guard.checkpoint(name)
        depth = guard.depth + 1
        if depth > guard.depth_limit:
            guard.exhaust_depth(name)
        guard.depth = depth
        try:
            return run(env)
        finally:
            guard.depth -= 1

    return body


def _trampoline_site(fn: Compiled, args: tuple[Compiled, ...], tail: bool) -> Compiled:
    """An application through the one trampoline. In tail position, a
    closure goes back to the caller's trampoline as a ``TailCall`` and
    anything else is applied (:func:`~repro.core.interp.tail_apply`,
    inlined). The argument list is written out up to four arguments: a
    list comprehension runs in a frame of its own."""
    n = len(args)
    if n == 1:
        a0, = args

        def site(env: Any) -> Any:
            f = fn(env)
            argv = [a0(env)]
            return TailCall(f, argv) if tail and type(f) in _BOUNCE else apply_procedure(f, argv)
    elif n == 2:
        a0, a1 = args

        def site(env: Any) -> Any:
            f = fn(env)
            argv = [a0(env), a1(env)]
            return TailCall(f, argv) if tail and type(f) in _BOUNCE else apply_procedure(f, argv)
    elif n == 3:
        a0, a1, a2 = args

        def site(env: Any) -> Any:
            f = fn(env)
            argv = [a0(env), a1(env), a2(env)]
            return TailCall(f, argv) if tail and type(f) in _BOUNCE else apply_procedure(f, argv)
    elif n == 4:
        a0, a1, a2, a3 = args

        def site(env: Any) -> Any:
            f = fn(env)
            argv = [a0(env), a1(env), a2(env), a3(env)]
            return TailCall(f, argv) if tail and type(f) in _BOUNCE else apply_procedure(f, argv)
    else:
        def site(env: Any) -> Any:
            f = fn(env)
            argv = [a(env) for a in args]
            return TailCall(f, argv) if tail and type(f) in _BOUNCE else apply_procedure(f, argv)
    return site


def _hoisted_site(holder: list[Compiled], args: tuple[Compiled, ...],
                  tail: bool) -> Compiled:
    """A direct call of a hoisted function: its body, from ``holder``, on
    the argument list and no closure environment; a non-tail call drains
    a returned ``TailCall`` (:meth:`Compiler._direct_app`)."""
    n = len(args)
    drain = not tail
    if n == 1:
        a0, = args

        def site(env: Any) -> Any:
            r = holder[0](([a0(env)], None))
            return apply_procedure(r.fn, r.args) if drain and type(r) is TailCall else r
    elif n == 2:
        a0, a1 = args

        def site(env: Any) -> Any:
            r = holder[0](([a0(env), a1(env)], None))
            return apply_procedure(r.fn, r.args) if drain and type(r) is TailCall else r
    elif n == 3:
        a0, a1, a2 = args

        def site(env: Any) -> Any:
            r = holder[0](([a0(env), a1(env), a2(env)], None))
            return apply_procedure(r.fn, r.args) if drain and type(r) is TailCall else r
    elif n == 4:
        a0, a1, a2, a3 = args

        def site(env: Any) -> Any:
            r = holder[0](([a0(env), a1(env), a2(env), a3(env)], None))
            return apply_procedure(r.fn, r.args) if drain and type(r) is TailCall else r
    else:
        def site(env: Any) -> Any:
            r = holder[0](([a(env) for a in args], None))
            return apply_procedure(r.fn, r.args) if drain and type(r) is TailCall else r
    return site


def charging_alloc(fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn``, an allocating primitive's implementation, charging one
    allocation to the guard active at each call. Bound at the call sites
    that code compiled or linked under an allocation limit makes."""

    def charged(*args: Any) -> Any:
        guard = current_guard()
        if guard is not None:
            guard.charge_alloc()
        return fn(*args)

    return charged


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
