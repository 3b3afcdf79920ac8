"""The ``pyc`` backend: lower the core AST to CPython code objects.

Where the interp backend (:mod:`repro.core.compile`) builds a tree of
Python closures walked at run time, this backend translates the core AST
into Python ``ast`` nodes and ``compile()``s them into one real CPython
code object per module. The mapping:

- object-language lambdas become nested Python ``def``s wrapped in a
  :class:`~repro.runtime.values.PyClosure`; argument frames are Python
  locals, captured variables are Python closure cells;
- ``let``/``letrec`` bindings become Python locals (``letrec`` ids are
  pre-initialized to ``UNDEFINED`` and reads keep the initialization
  check; everything the lower pass proves initialized reads as a bare
  local);
- tail calls return through the shared trampoline
  (:func:`~repro.core.interp.tail_apply`), except **self** tail calls in
  loop-safe lambdas (see :mod:`repro.core.lower`), which compile to
  argument rebinding plus ``continue`` inside a ``while True:`` loop;
- applications of kernel primitives compile to direct Python calls of the
  primitive's implementation function (the interp backend's inline fast
  path), and a curated set of type-specialized unsafe primitives is
  open-coded as Python operators (``+``, ``<``, ``.car``, ``[]`` ...)
  plus the primitive's single ``unsafe_ops`` counter charge — the
  function call, argument tuple, and dispatch are the overhead being
  removed, not the deterministic instrumentation; generic arithmetic on
  ints and flonums and the safe accessors are open-coded the same way
  behind a run-time representation test (see ``_tower_open_coded``); the
  kernel's primitive records say which primitives and operators;
- module-level definitions assign namespace cells through module globals
  bound at *link* time, so the code object itself is
  namespace-independent and marshals into the ``.zo`` artifact.

Budgets thread through emitted code, but governance is a *link-time*
binding, not a second code object: each unit carries one code object, and
``link_unit`` binds the module globals ``_G`` (``guard is not None``) and
``_enter`` (:func:`~repro.guard.budget.charge_entry`) for the run at hand.
Every emitted function starts with ``_gd = _G and _enter(name)``: linked
under a guard, its entry charges the guard active at that moment one step
and one depth level, as an interp closure's entry does, and a
``finally`` takes the depth level back. Each loop back-edge charges one
more step to that ``_gd``. A direct call of a hoisted top-level function
is the plain Python call in both modes, and every other application goes
through the one trampoline (``_apply``/``_tail``), which charges nothing.
So G001–G005 fire with step and depth counts identical to the interp
backend, while an ungoverned run pays a ``_G`` and a ``_gd`` test per
call and a ``_gd`` test per back-edge.
"""

from __future__ import annotations

import importlib.util
import marshal
import math
import re
import sys
import types
from typing import Any, Callable, Optional

from repro.core import ast
from repro.core import pyast as py
from repro.core.compile import _bind_cells, charging_alloc
from repro.core.interp import UNDEFINED, TailCall, apply_procedure, tail_apply
from repro.core.lower import (
    ModuleAnalysis,
    kernel_primitive,
    module_analysis,
    stable_self_binding,
)
from repro.errors import RuntimeReproError
from repro.guard.budget import charge_entry
from repro.runtime.primitives import PRIMITIVES
from repro.runtime.stats import current_stats
from repro.runtime.values import (
    NULL,
    VOID,
    MVector,
    Pair,
    Primitive,
    PyClosure,
    Values,
)
from repro.syn.binding import LocalBinding, ModuleBinding

#: identifies the CPython bytecode format a unit's code objects marshal
#: under; a unit generated by a different interpreter version is *stale*
#: (silently regenerated), never an error
PY_TAG = importlib.util.MAGIC_NUMBER


class StaleUnitError(Exception):
    """The unit's marshalled code targets a different CPython bytecode
    format; the caller should regenerate from the core AST."""


class PycUnit:
    """The namespace-independent result of codegen for one module body.

    ``code`` is the ``marshal`` blob of the module's one code object, run
    governed or not as ``link_unit`` decides; ``cells`` maps emitted global
    names to namespace-cell keys, ``constants`` to quoted values, and
    ``prims``/``binaries``/``prim_values`` to kernel primitive names
    (resolved against the process's primitive table at link time —
    operator position binds the raw implementation function, or for a
    two-operand call its entry ``Primitive.binary``, value position the
    :class:`Primitive` object). Everything here pickles through the
    artifact pickler, so a unit rides inside a ``.zo`` file.
    """

    __slots__ = (
        "code", "cells", "constants",
        "prims", "binaries", "prim_values", "nforms", "py_tag",
    )

    def __init__(
        self,
        code: bytes,
        cells: dict[str, tuple],
        constants: dict[str, Any],
        prims: dict[str, str],
        binaries: dict[str, str],
        prim_values: dict[str, str],
        nforms: int,
    ) -> None:
        self.code = code
        self.cells = cells
        self.constants = constants
        self.prims = prims
        self.binaries = binaries
        self.prim_values = prim_values
        self.nforms = nforms
        self.py_tag = PY_TAG

    def __getstate__(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name in self.__slots__:
            setattr(self, name, state[name])

    def __repr__(self) -> str:
        return f"#<pyc-unit forms={self.nforms}>"


# --- open-coded primitives ----------------------------------------------------
#
# Which primitives are open-coded, and as which Python operator, is the
# ``op`` fact of their kernel records (DESIGN §9 has the contract as a
# table). An unsafe type-specialized primitive with an ``op`` is *exactly*
# that operator on its representation types, and compiles to it plus its
# single ``unsafe_ops`` charge; ``unsafe-fl/`` goes with the generic numeric
# primitives instead, behind a run-time nonzero-divisor test. Deliberately
# without an ``op``: unsafe-fxquotient/-remainder (truncating, unlike
# Python's floor division), flmin/flmax (would evaluate an operand twice).
#
# A generic numeric primitive with an ``op`` is open-coded behind a run-time
# representation test. A site becomes one ``If``: its test admits operands
# that are all ``int`` or all ``float`` (``/``, ``unsafe-fl/`` and ``sqrt``
# only ``float``, with a zero divisor or a negative/NaN radicand excluded),
# and its body is the Python operation plus the primitive's single counter
# charge, emitted once. Everything else -- mixed representations, exact
# division, zero divisors, every error -- calls the primitive, which charges
# its own counter, so the deterministic instrumentation stays identical to
# the interp backend. ``+ - *`` with three or more operands fold left over
# the binary site, after every operand is evaluated: ``_fold``'s order and
# its n-1 charges. Chained comparisons stay calls, because ``_chain`` stops
# at the first false pair and a fold would charge every pair. ``add1``,
# ``sub1`` and ``zero?`` are a binary site against their ``against``
# constant.
_INT_FLOAT = (int, float)
_FLOAT = (float,)


def _fits(rep: type, value: Any) -> bool:
    """Whether a constant operand keeps the primitive's semantics on the
    ``rep`` fast path: its own type, or an ``int`` on the float path when
    Python's conversion of it is finite (a larger one must take the
    primitive's overflow-free conversion)."""
    if type(value) is rep:
        return True
    if rep is float and type(value) is int:
        try:
            float(value)
        except OverflowError:
            return False
        return True
    return False


def _sanitize(name: str) -> str:
    return re.sub(r"[^0-9A-Za-z_]", "_", name)[:24]


def _n(name: str) -> py.Name:
    return py.Name(id=name, ctx=py.Load())


def _s(name: str) -> py.Name:
    return py.Name(id=name, ctx=py.Store())


def _const(value: Any) -> py.Constant:
    return py.Constant(value=value)


def _assign(name: str, value: py.expr) -> py.Assign:
    return py.Assign(targets=[_s(name)], value=value)


def _call(fn: py.expr, args: list[py.expr]) -> py.Call:
    return py.Call(func=fn, args=args, keywords=[])


def _is_not_false(expr: py.expr) -> py.expr:
    if isinstance(expr, py.Constant):
        # fold constant tests: `(if 0 ...)` would otherwise compile to
        # ``0 is not False``, which CPython flags with a SyntaxWarning
        return _const(expr.value is not False)
    return py.Compare(left=expr, ops=[py.IsNot()], comparators=[_const(False)])


def _type_test(kinds: list[type], names: list[py.expr]) -> py.expr:
    """``names`` (one or two: sites are unary or binary) are all of one
    type in ``kinds``. With one kind that is ``type(a) is float and
    type(b) is float``; with two, ``type(a)`` is bound once: ``(_ty :=
    type(a)) is type(b) and (_ty is int or _ty is float)``, which is
    smaller and, off the int path, faster."""
    def is_(left: py.expr, kind: type) -> py.expr:
        return py.Compare(left=left, ops=[py.Is()],
                          comparators=[_n(kind.__name__)])

    if len(kinds) == 1:
        tests = [is_(_call(_n("type"), [e]), kinds[0]) for e in names]
        return tests[0] if len(tests) == 1 else py.BoolOp(op=py.And(),
                                                          values=tests)
    first: py.expr = py.NamedExpr(target=_s("_ty"),
                                  value=_call(_n("type"), [names[0]]))
    if len(names) > 1:
        same = py.Compare(left=first, ops=[py.Is()],
                          comparators=[_call(_n("type"), [names[1]])])
        first = _n("_ty")
    alike = py.BoolOp(op=py.Or(), values=[
        is_(first, kinds[0]), *(is_(_n("_ty"), k) for k in kinds[1:])
    ])
    return alike if len(names) == 1 else py.BoolOp(op=py.And(),
                                                   values=[same, alike])


# The nodes every function's entry and exit share (see
# ``_Emitter._charged_entry``). ``compile()`` only reads the tree, so one
# instance serves them all; a copy per function made a cold compile's
# peak RSS 1.2 MB larger.
_G_NAME = _n("_G")
_ENTER_NAME = _n("_enter")
_DEPTH_BACK = [py.If(test=_n("_gd"), body=[py.AugAssign(
    target=py.Attribute(value=_n("_gd"), attr="depth", ctx=py.Store()),
    op=py.Sub(), value=_const(1),
)], orelse=[])]
_RETURN_R = py.Return(value=_n("_r"))


class _LoopInfo:
    __slots__ = ("kind", "key", "uid", "param_names", "name")

    def __init__(self, kind: str, key: Any, uid: Optional[int],
                 param_names: list[str], name: str) -> None:
        self.kind = kind        # "module" | "local"
        self.key = key          # module binding key (kind == "module")
        self.uid = uid          # local binding uid (kind == "local")
        self.param_names = param_names
        self.name = name


class _FuncCtx:
    __slots__ = ("parent", "nonlocals", "loop")

    def __init__(self, parent: Optional["_FuncCtx"]) -> None:
        self.parent = parent
        self.nonlocals: set[str] = set()
        self.loop: Optional[_LoopInfo] = None


class _Tables:
    """The module globals one emission pass allocates (namespace cells,
    quoted constants, primitive functions and values) and its local names;
    ``codegen_module`` inverts the global tables into the unit's link-time
    maps."""

    def __init__(self) -> None:
        self.cells: dict[tuple, str] = {}
        self.constants: list[tuple[str, Any]] = []
        self._const_ids: dict[int, str] = {}
        self.prim_fns: dict[str, str] = {}
        self.prim_bins: dict[str, str] = {}
        self.prim_vals: dict[str, str] = {}
        self.locals: dict[int, str] = {}

    def cell(self, key: tuple) -> str:
        name = self.cells.get(key)
        if name is None:
            name = f"_c{len(self.cells)}"
            self.cells[key] = name
        return name

    def const(self, value: Any) -> str:
        name = self._const_ids.get(id(value))
        if name is None:
            name = f"_k{len(self.constants)}"
            self._const_ids[id(value)] = name
            self.constants.append((name, value))
        return name

    def prim_fn(self, prim: Primitive, nargs: Optional[int] = None) -> str:
        """The global to call ``prim`` through: its two-operand entry
        (``Primitive.binary``) for a call with ``nargs == 2`` when it has
        one, else its implementation function."""
        if nargs == 2 and prim.binary is not None and not prim.allocates:
            table, prefix = self.prim_bins, "_pb"
        else:
            table, prefix = self.prim_fns, "_pf"
        name = table.get(prim.name)
        if name is None:
            name = f"{prefix}{len(table)}_{_sanitize(prim.name)}"
            table[prim.name] = name
        return name

    def prim_val(self, prim_name: str) -> str:
        name = self.prim_vals.get(prim_name)
        if name is None:
            name = f"_pv{len(self.prim_vals)}_{_sanitize(prim_name)}"
            self.prim_vals[prim_name] = name
        return name

    def local(self, binding: LocalBinding) -> str:
        name = self.locals.get(binding.uid)
        if name is None:
            # dense per-compilation index, NOT the global binding uid: the
            # uid counter's value depends on process history, and these
            # names land in the persisted code objects — artifact bytes
            # must be a function of the module alone
            name = f"l{len(self.locals)}_{_sanitize(binding.name.name)}"
            self.locals[binding.uid] = name
        return name


class _Emitter:
    """The emission pass over a module body."""

    def __init__(self, tables: _Tables, analysis: ModuleAnalysis,
                 inline: bool) -> None:
        self.tables = tables
        self.analysis = analysis
        self.inline = inline
        self.blocks: list[list[py.stmt]] = []
        self.fctx = _FuncCtx(None)
        self.owner: dict[int, _FuncCtx] = {}
        self._temp = 0
        self._fn = 0
        #: module-level FunctionDefs hoisted out of the form thunks
        self.module_block: list[py.stmt] = []
        #: module binding key -> (fname, nparams, returns_tail) for
        #: top-level lambdas hoisted to module scope; applications of these
        #: compile to direct Python calls (see ``_app_expr``)
        self.module_fns: dict[tuple, tuple[str, int, bool]] = {}
        #: keys bound by *earlier* top-level forms: reads skip the
        #: UNDEFINED check, because any code emitted for a later form can
        #: only run after the defining form completed
        self.defined_keys: set[tuple] = set()
        #: names of the locals some ``set!`` targets (see ``_atomize``)
        self.mutable_names: set[str] = set()

    # -- infrastructure ----------------------------------------------------

    @property
    def cur(self) -> list[py.stmt]:
        return self.blocks[-1]

    def temp(self) -> str:
        self._temp += 1
        return f"_t{self._temp}"

    def _bind_local(self, binding: LocalBinding) -> str:
        name = self.tables.local(binding)
        self.owner[binding.uid] = self.fctx
        return name

    def _store_local(self, uid: int, name: str) -> None:
        """Record a nonlocal declaration when assigning an outer binding."""
        owner = self.owner.get(uid)
        if owner is not None and owner is not self.fctx:
            self.fctx.nonlocals.add(name)

    # -- expressions -------------------------------------------------------

    def expr(self, node: ast.CoreExpr) -> py.expr:
        """Compile to a Python expression, appending spill statements to
        the current block as needed."""
        t = type(node)
        if t is ast.Quote:
            v = node.value
            if type(v) in (int, float, str, bool, complex):
                return _const(v)
            return _n(self.tables.const(v))
        if t is ast.QuoteSyntax:
            return _n(self.tables.const(node.stx))
        if t is ast.LocalRef:
            return self._local_read(node)
        if t is ast.ModuleRef:
            return self._module_read(node)
        if t is ast.If:
            return self._if_expr(node)
        if t is ast.Begin:
            for e in node.exprs[:-1]:
                self.stmt(e)
            return self.expr(node.exprs[-1])
        if t is ast.Lambda:
            return self.lambda_expr(node, None)
        if t is ast.LetValues:
            self._let_clauses(node)
            for e in node.body[:-1]:
                self.stmt(e)
            return self.expr(node.body[-1])
        if t is ast.SetBang:
            self._set_stmt(node)
            return _n("_V")
        if t is ast.App:
            return self._app_expr(node)
        raise AssertionError(f"cannot emit {node!r}")  # pragma: no cover

    def stmt(self, node: ast.CoreExpr) -> None:
        """Compile for effect only."""
        e = self.expr(node)
        if not isinstance(e, (py.Constant, py.Name)):
            self.cur.append(py.Expr(value=e))

    def tail(self, node: ast.CoreExpr) -> None:
        """Compile in tail position; the emitted statements always end the
        current block with ``return`` or (self-loop) ``continue``."""
        t = type(node)
        if t is ast.If:
            test = self.test_expr(node.test)
            then_block: list[py.stmt] = []
            self.blocks.append(then_block)
            self.tail(node.then)
            self.blocks.pop()
            else_block: list[py.stmt] = []
            self.blocks.append(else_block)
            self.tail(node.orelse)
            self.blocks.pop()
            self.cur.append(py.If(test=test, body=then_block, orelse=else_block))
            return
        if t is ast.Begin:
            for e in node.exprs[:-1]:
                self.stmt(e)
            self.tail(node.exprs[-1])
            return
        if t is ast.LetValues:
            self._let_clauses(node)
            for e in node.body[:-1]:
                self.stmt(e)
            self.tail(node.body[-1])
            return
        if t is ast.App:
            self._app_tail(node)
            return
        self._leaf(self.expr(node))

    def _leaf(self, value: py.expr) -> None:
        """End a tail path with ``value`` as the function's result: it goes
        to ``_r``, which the one ``return`` after the body returns (see
        ``_charged_entry``)."""
        self.cur.append(_assign("_r", value))

    def test_expr(self, node: ast.CoreExpr) -> py.expr:
        """Compile a conditional test: results proven to be Python bools
        are used directly; anything else compares against ``False``."""
        if type(node) is ast.App:
            prim = self._inlined(node)
            if prim is not None and prim.result == "bool":
                return self.expr(node)
        return _is_not_false(self.expr(node))

    # -- reads -------------------------------------------------------------

    def _local_read(self, node: ast.LocalRef) -> py.expr:
        name = self.tables.local(node.binding)
        if node.binding.uid in self.analysis.mutated_uids:
            self.mutable_names.add(name)
        if node.binding.uid not in self.analysis.letrec_uids:
            return _n(name)
        return py.IfExp(
            test=py.Compare(
                left=_n(name), ops=[py.IsNot()], comparators=[_n("_U")]
            ),
            body=_n(name),
            orelse=_call(_n("_undef_local"), [_const(node.name)]),
        )

    def _module_read(self, node: ast.ModuleRef) -> py.expr:
        prim = kernel_primitive(node)
        if prim is not None:
            # bind the Primitive object itself, no initialization check
            return _n(self.tables.prim_val(prim.name))
        key = node.binding.key()
        cell = self.tables.cell(key)
        read = py.Subscript(value=_n(cell), slice=_const(0), ctx=py.Load())
        if key in self.defined_keys:
            return read
        return py.IfExp(
            test=py.Compare(
                left=py.NamedExpr(target=py.Name(id="_w", ctx=py.Store()),
                                  value=read),
                ops=[py.IsNot()],
                comparators=[_n("_U")],
            ),
            body=_n("_w"),
            orelse=_call(_n("_undef_mod"), [_const(node.binding.name.name)]),
        )

    # -- conditionals ------------------------------------------------------

    def _if_expr(self, node: ast.If) -> py.expr:
        test = self.test_expr(node.test)
        then_block: list[py.stmt] = []
        self.blocks.append(then_block)
        then_expr = self.expr(node.then)
        self.blocks.pop()
        else_block: list[py.stmt] = []
        self.blocks.append(else_block)
        else_expr = self.expr(node.orelse)
        self.blocks.pop()
        if not then_block and not else_block:
            return py.IfExp(test=test, body=then_expr, orelse=else_expr)
        out = self.temp()
        then_block.append(_assign(out, then_expr))
        else_block.append(_assign(out, else_expr))
        self.cur.append(py.If(test=test, body=then_block, orelse=else_block))
        return _n(out)

    # -- bindings ----------------------------------------------------------

    def _let_clauses(self, node: ast.LetValues) -> None:
        names: list[list[str]] = []
        for ids, _rhs in node.bindings:
            names.append([self._bind_local(b) for b in ids])
        if node.recursive:
            for clause in names:
                for name in clause:
                    self.cur.append(_assign(name, _n("_U")))
        for (ids, rhs), clause in zip(node.bindings, names):
            if len(ids) == 1:
                if node.recursive and type(rhs) is ast.Lambda:
                    # letrec-bound lambdas may loopify their self tail calls
                    value = self.lambda_expr(rhs, ids[0])
                else:
                    value = self.expr(rhs)
                self.cur.append(_assign(clause[0], value))
                if not self._never_values(rhs):
                    self.cur.append(py.If(
                        test=py.Compare(
                            left=py.Attribute(value=_n(clause[0]),
                                              attr="__class__", ctx=py.Load()),
                            ops=[py.Is()],
                            comparators=[_n("_Values")],
                        ),
                        body=[py.Expr(value=_call(_n("_raise_bind1"),
                                                  [_n(clause[0])]))],
                        orelse=[],
                    ))
            else:
                value = self.expr(rhs)
                tmp = self.temp()
                self.cur.append(_assign(
                    tmp, _call(_n("_bindn"), [value, _const(len(ids))])
                ))
                for i, name in enumerate(clause):
                    self.cur.append(_assign(
                        name,
                        py.Subscript(value=_n(tmp), slice=_const(i),
                                     ctx=py.Load()),
                    ))

    def _never_values(self, node: ast.CoreExpr) -> bool:
        """Statically: can ``node`` never evaluate to a Values object?"""
        t = type(node)
        if t in (ast.Quote, ast.QuoteSyntax, ast.Lambda, ast.SetBang):
            return True
        if t is ast.If:
            return self._never_values(node.then) and self._never_values(node.orelse)
        if t is ast.Begin:
            return self._never_values(node.exprs[-1])
        if t is ast.App:
            prim = self._inlined(node)
            return prim is not None and prim.result != "any"
        return False

    def _set_stmt(self, node: ast.SetBang) -> None:
        value = self.expr(node.expr)
        if isinstance(node.binding, LocalBinding):
            name = self.tables.local(node.binding)
            self._store_local(node.binding.uid, name)
            self.cur.append(_assign(name, value))
            return
        assert isinstance(node.binding, ModuleBinding)
        cell = self.tables.cell(node.binding.key())
        self.cur.append(py.Assign(
            targets=[py.Subscript(value=_n(cell), slice=_const(0),
                                  ctx=py.Store())],
            value=value,
        ))

    # -- lambdas -----------------------------------------------------------

    def lambda_expr(self, node: ast.Lambda, self_binding: Optional[Any],
                    fname: Optional[str] = None,
                    hoist: bool = False) -> py.expr:
        info = self.analysis.lambda_info(node)
        loop: Optional[_LoopInfo] = None
        if (
            self_binding is not None
            and info.loop_safe
            and stable_self_binding(self_binding, self.analysis)
        ):
            if isinstance(self_binding, ModuleBinding):
                loop = _LoopInfo("module", self_binding.key(), None, [], node.name)
            else:
                loop = _LoopInfo("local", None, self_binding.uid, [], node.name)

        if fname is None:
            self._fn += 1
            fname = f"_f{self._fn}_{_sanitize(node.name)}"
        outer = self.fctx
        self.fctx = _FuncCtx(outer)
        param_names = [self._bind_local(p) for p in node.params]
        args = [py.arg(arg=p) for p in param_names]
        if node.rest is not None:
            args.append(py.arg(arg=self._bind_local(node.rest)))
        if loop is not None:
            loop.param_names = param_names
            self.fctx.loop = loop

        body: list[py.stmt] = []
        self.blocks.append(body)
        for e in node.body[:-1]:
            self.stmt(e)
        self.tail(node.body[-1])
        self.blocks.pop()
        if loop is not None:
            # a tail path that did not `continue` has set `_r`
            body = [py.While(test=_const(True), body=[*body, py.Break()],
                             orelse=[])]
        body = self._charged_entry(node.name, body)
        if self.fctx.nonlocals:
            body.insert(0, py.Nonlocal(names=sorted(self.fctx.nonlocals)))
        self.fctx = outer

        target = self.module_block if hoist else self.cur
        target.append(py.FunctionDef(
            name=fname,
            args=py.arguments(posonlyargs=[], args=args, vararg=None,
                              kwonlyargs=[], kw_defaults=[], kwarg=None,
                              defaults=[]),
            body=body,
            decorator_list=[],
        ))
        return _call(_n("_PyClosure"), [
            _const(node.name), _const(len(node.params)),
            _const(node.rest is not None), _n(fname),
        ])

    # -- applications ------------------------------------------------------

    def _inlined(self, node: ast.App) -> Optional[Primitive]:
        """The kernel primitive this application inlines, if any: the test
        the interp compiler's inline fast path makes."""
        if not self.inline:
            return None
        return kernel_primitive(node.fn, len(node.args))

    def _expr_seq(self, nodes: list[ast.CoreExpr]) -> list[py.expr]:
        """Compile expressions left-to-right, preserving evaluation order:
        when a later expression needs spill statements, earlier (not yet
        evaluated) non-constant values are forced into temporaries first."""
        out: list[py.expr] = []
        for node in nodes:
            sub: list[py.stmt] = []
            self.blocks.append(sub)
            e = self.expr(node)
            self.blocks.pop()
            if sub:
                for i, prev in enumerate(out):
                    if not isinstance(prev, py.Constant):
                        tmp = self.temp()
                        self.cur.append(_assign(tmp, prev))
                        out[i] = _n(tmp)
                self.cur.extend(sub)
            out.append(e)
        return out

    def _charge(self, counter: str) -> py.stmt:
        return py.AugAssign(
            target=py.Attribute(value=_n("_st"), attr=counter,
                                ctx=py.Store()),
            op=py.Add(),
            value=_const(1),
        )

    def _atomize(self, args: list[py.expr]) -> list[Callable[[], py.expr]]:
        """Reduce compiled argument expressions to re-emittable atoms:
        names and constants stay as-is, anything else is evaluated once
        into a temporary. A ``set!``-target local is copied too when a
        later argument still has to be evaluated, since that argument may
        assign it. Returns one fresh-node maker per argument."""
        last_eval = max(
            (i for i, e in enumerate(args)
             if not isinstance(e, (py.Name, py.Constant))),
            default=-1,
        )
        makers: list[Callable[[], py.expr]] = []
        for i, e in enumerate(args):
            if isinstance(e, py.Name) and (
                i > last_eval or e.id not in self.mutable_names
            ):
                makers.append(lambda name=e.id: _n(name))
            elif isinstance(e, py.Constant):
                makers.append(lambda v=e.value: _const(v))
            else:
                t = self.temp()
                self.cur.append(_assign(t, e))
                makers.append(lambda name=t: _n(name))
        return makers

    def _tower_open_coded(self, prim: Primitive,
                          args: list[py.expr]) -> Optional[py.expr]:
        """Open-code a numeric primitive (see "open-coded primitives"
        above): one site per operation, a left fold of binary sites for
        ``+ - *`` with three or more operands. Returns None, having emitted
        nothing, when the constant operands rule out every fast
        representation."""
        if prim.op is None and prim.name != "sqrt":
            return None
        if any(isinstance(e, py.Constant) and type(e.value) not in _INT_FLOAT
               for e in args):
            return None
        n = len(args)
        k = prim.against
        if k is not None:  # add1, sub1 and zero? take one operand
            if not self._site_test(_INT_FLOAT, [args[0], _const(k)]):
                return None
            m = self._atomize(args)[0]
            return self._site(prim, [m], _INT_FLOAT, [m, lambda: _const(k)],
                              lambda x, y: self._operation(prim.op, x, y))
        if prim.name == "-" and n == 1:
            m = self._atomize(args)[0]
            return self._site(prim, [m], _INT_FLOAT, [m],
                              lambda x: py.UnaryOp(op=py.USub(), operand=x))
        if prim.name == "sqrt":
            if not self._site_test(_FLOAT, args, radicand=True):
                return None
            m = self._atomize(args)[0]
            return self._site(prim, [m], _FLOAT, [m],
                              lambda x: _call(_n("_sqrt"), [x]),
                              radicand=True)
        if n < 2 or (n > 2 and prim.name not in ("+", "-", "*")):
            return None
        divide = prim.op == "Div"
        # an unsafe primitive's operands are proven by the typed optimizer
        reps = (None if prim.rule is not None
                else _FLOAT if divide else _INT_FLOAT)
        if n == 2 and not self._site_test(reps, args, divisor=divide):
            return None
        makers = self._atomize(args)
        acc = makers[0]
        for m in makers[1:]:
            pair = [acc, m]
            out = self._site(prim, pair, reps, pair,
                             lambda x, y: self._operation(prim.op, x, y),
                             divisor=divide)
            acc = lambda name=out.id: _n(name)
        return acc()

    @staticmethod
    def _operation(op: str, x: py.expr, y: py.expr) -> py.expr:
        """``x <op> y`` for the name of an :mod:`ast` operator class."""
        cls = getattr(py, op)
        if issubclass(cls, py.cmpop):
            return py.Compare(left=x, ops=[cls()], comparators=[y])
        return py.BinOp(left=x, op=cls(), right=y)

    @staticmethod
    def _site_test(reps: Optional[tuple], operands: list[py.expr],
                   divisor: bool = False,
                   radicand: bool = False) -> Optional[py.expr | bool]:
        """The run-time test of one open-coded site: the operands are all
        of one representation in ``reps`` (``None``: no type test, for an
        unsafe primitive), and a non-constant divisor is not ``0.0`` or a
        radicand not below ``0.0`` (nor NaN). ``True`` when the constant
        operands alone decide the fast path, ``None`` when they rule it
        out. Constants are decided here, never tested at run time."""
        guard = operands[1] if divisor else operands[0] if radicand else None
        guard_test: Optional[py.expr] = None
        if isinstance(guard, py.Constant):
            v = guard.value
            if (divisor and v == 0) or (radicand and not v >= 0):
                return None
        elif guard is not None:
            guard_test = py.Compare(
                left=guard, ops=[py.NotEq() if divisor else py.GtE()],
                comparators=[_const(0.0)],
            )
        names = [e for e in operands if not isinstance(e, py.Constant)]
        consts = [e.value for e in operands if isinstance(e, py.Constant)]
        tests = [] if guard_test is None else [guard_test]
        if reps is not None:
            kinds = [
                rep for rep in reps
                if all(_fits(rep, c) for c in consts)
                # int constants alone stay exact, as in `(/ 1 2)`: the
                # float path needs a variable or a float constant
                and (rep is int or names or float in map(type, consts))
            ]
            if not kinds:
                return None
            if names:
                tests.insert(0, _type_test(kinds, names))
        if not tests:
            return True
        return tests[0] if len(tests) == 1 else py.BoolOp(op=py.And(),
                                                          values=tests)

    def _site(self, prim: Primitive, args: list[Callable[[], py.expr]],
              reps: Optional[tuple], operands: list[Callable[[], py.expr]],
              operation: Callable[..., py.expr], divisor: bool = False,
              radicand: bool = False) -> py.Name:
        """Emit one open-coded site over atoms: ``if <test>: charge; out =
        <operation>`` else ``out = prim(*args)``. ``operands`` are what
        the test and the operation see (``add1``'s include its constant);
        ``args`` are what the primitive is called with."""
        out = self.temp()
        test = self._site_test(reps, [m() for m in operands],
                               divisor=divisor, radicand=radicand)
        counter = "unsafe_ops" if prim.rule is not None else (
            "generic_dispatches")
        fast = [self._charge(counter),
                _assign(out, operation(*[m() for m in operands]))]
        if test is True:
            self.cur.extend(fast)
            return _n(out)
        slow = [_assign(out, _call(_n(self.tables.prim_fn(prim, len(args))),
                                   [m() for m in args]))]
        if test is None:
            self.cur.extend(slow)
        else:
            self.cur.append(py.If(test=test, body=fast, orelse=slow))
        return _n(out)

    def _stats_open_coded(self, prim: Primitive,
                          args: list[py.expr]) -> Optional[py.expr]:
        """Open-code a safe accessor as a representation-typed fast path
        plus the primitive's exact ``tag_checks`` charge; operands outside
        the fast type fall back to the primitive itself (which charges its
        own counter and raises the proper error), so the deterministic
        instrumentation matches the interp backend. A vector index is
        tested only for ``>= 0``; an ``IndexError`` past the end falls back
        to the primitive too. An unsafe vector access keeps only that
        bounds test (the types prove the rest) and charges ``unsafe_ops``."""
        n = len(args)
        name = prim.name
        unsafe = name.startswith("unsafe-vector")
        pair = name in ("car", "cdr") and n == 1
        vref = name in ("vector-ref", "unsafe-vector-ref") and n == 2
        vset = name in ("vector-set!", "unsafe-vector-set!") and n == 3
        vlen = name == "vector-length" and n == 1

        # decide statically before emitting anything: a constant
        # collection, or a constant index that is not an int, makes the
        # fast path impossible
        if not (pair or vref or vset or vlen):
            return None
        if isinstance(args[0], py.Constant):
            return None
        if (vref or vset) and isinstance(args[1], py.Constant) and (
            type(args[1].value) is not int
        ):
            return None
        makers = self._atomize(args)

        def type_is(maker: Callable[[], py.expr], what: py.expr) -> py.expr:
            return py.Compare(
                left=_call(_n("type"), [maker()]),
                ops=[py.Is()], comparators=[what],
            )

        tests = [] if unsafe else [
            type_is(makers[0], _n("_Pair" if pair else "_MVector"))
        ]
        out = self.temp()
        charge = self._charge("unsafe_ops" if unsafe else "tag_checks")

        def slow() -> list[py.stmt]:
            return [_assign(out, _call(_n(self.tables.prim_fn(prim)),
                                       [m() for m in makers]))]

        def items() -> py.expr:
            return py.Attribute(value=makers[0](), attr="items",
                                ctx=py.Load())

        if pair:
            fast: list[py.stmt] = [charge, _assign(out, py.Attribute(
                value=makers[0](), attr="car" if name == "car" else "cdr",
                ctx=py.Load(),
            ))]
        elif vlen:
            fast = [charge, _assign(out, _call(_n("len"), [items()]))]
        else:
            # the upper bound is the list's own: an index past the end
            # raises IndexError, and the primitive (which charges its own
            # counter) raises the proper error. The charge follows the
            # access, so either path charges once.
            index = makers[1]()
            if not (unsafe or isinstance(index, py.Constant)):
                tests.append(type_is(makers[1], _n("int")))
            if not (isinstance(index, py.Constant) and index.value >= 0):
                tests.append(py.Compare(left=makers[1](), ops=[py.GtE()],
                                        comparators=[_const(0)]))
            target = py.Subscript(value=items(), slice=makers[1](),
                                  ctx=py.Store() if vset else py.Load())
            if vset:
                access = [py.Assign(targets=[target], value=makers[2]()),
                          charge, _assign(out, _n("_V"))]
            else:
                access = [_assign(out, target), charge]
            fast = [py.Try(
                body=access,
                handlers=[py.ExceptHandler(type=_n("IndexError"), name=None,
                                           body=slow())],
                orelse=[], finalbody=[],
            )]
            if not tests:
                self.cur.extend(fast)
                return _n(out)

        test: py.expr = tests[0] if len(tests) == 1 else py.BoolOp(
            op=py.And(), values=tests
        )
        self.cur.append(py.If(test=test, body=fast, orelse=slow()))
        return _n(out)

    def _open_coded(self, prim: Primitive,
                    args: list[py.expr]) -> Optional[py.expr]:
        # unsafe-fl/ is a tower site (see "open-coded primitives" above)
        operator = (prim.op if prim.rule is not None and prim.op != "Div"
                    else None)
        name = prim.name
        if (operator is not None
                or name in ("unsafe-flneg", "unsafe-car", "unsafe-cdr")):
            # evaluate operands first, then charge: the interp primitive
            # charges unsafe_ops after its arguments are evaluated but
            # before it touches them, so error paths agree on counters too
            makers = self._atomize(args)
            self.cur.append(self._charge("unsafe_ops"))
            args = [m() for m in makers]
        if operator is not None:
            return self._operation(operator, args[0], args[1])
        if name == "unsafe-flneg":
            return py.UnaryOp(op=py.USub(), operand=args[0])
        if name == "unsafe-car":
            return py.Attribute(value=args[0], attr="car", ctx=py.Load())
        if name == "unsafe-cdr":
            return py.Attribute(value=args[0], attr="cdr", ctx=py.Load())
        if name == "not":
            if isinstance(args[0], py.Constant):  # avoid `0 is False` warning
                return _const(args[0].value is False)
            return py.Compare(left=args[0], ops=[py.Is()],
                              comparators=[_const(False)])
        if name == "null?":
            if isinstance(args[0], py.Constant):  # a Constant is never NULL
                return _const(False)
            return py.Compare(left=args[0], ops=[py.Is()],
                              comparators=[_n("_NULL")])
        return None

    def _app_expr(self, node: ast.App) -> py.expr:
        prim = self._inlined(node)
        if prim is not None:
            args = self._expr_seq(list(node.args))
            coded = self._open_coded(prim, args)
            if coded is None:
                coded = self._tower_open_coded(prim, args)
            if coded is None:
                coded = self._stats_open_coded(prim, args)
            if coded is not None:
                return coded
            return _call(_n(self.tables.prim_fn(prim, len(args))), args)
        if type(node.fn) is ast.ModuleRef:
            # non-tail call of a hoisted module function: call the Python
            # function directly, skipping the trampoline; its entry charges
            # itself. Arity is checked statically (the entry records
            # nparams); a mismatch falls through to _apply for the proper
            # ArityError. Tail calls never take this path — mutual
            # recursion must stay on the trampoline.
            entry = self.module_fns.get(node.fn.binding.key())
            if entry is not None and entry[1] == len(node.args):
                direct = _call(_n(entry[0]), self._expr_seq(list(node.args)))
                if entry[2]:  # the callee may return a TailCall: drain it
                    direct = _call(_n("_dr"), [direct])
                return direct
        parts = self._expr_seq([node.fn, *node.args])
        return _call(_n("_apply"), [
            parts[0], py.List(elts=parts[1:], ctx=py.Load())
        ])

    def _app_tail(self, node: ast.App) -> None:
        if self._inlined(node) is not None:
            # primitives never tail-call; return the value directly
            self._leaf(self._app_expr(node))
            return
        loop = self.fctx.loop
        if loop is not None and self._is_self_call(node, loop):
            args = self._expr_seq(list(node.args))
            if len(args) == 1:
                self.cur.append(_assign(loop.param_names[0], args[0]))
            elif args:
                self.cur.append(py.Assign(
                    targets=[py.Tuple(
                        elts=[_s(p) for p in loop.param_names],
                        ctx=py.Store(),
                    )],
                    value=py.Tuple(elts=args, ctx=py.Load()),
                ))
            self.cur.append(py.If(test=_n("_gd"),
                                  body=self._step_charge(loop.name),
                                  orelse=[]))
            self.cur.append(py.Continue())
            return
        parts = self._expr_seq([node.fn, *node.args])
        self._leaf(_call(_n("_tail"), [
            parts[0], py.List(elts=parts[1:], ctx=py.Load())
        ]))

    def _is_self_call(self, node: ast.App, loop: _LoopInfo) -> bool:
        if len(node.args) != len(loop.param_names):
            return False
        fn = node.fn
        if loop.kind == "module":
            return (type(fn) is ast.ModuleRef
                    and fn.binding.key() == loop.key)
        return (type(fn) is ast.LocalRef
                and fn.binding.uid == loop.uid)

    @staticmethod
    def _step_charge(where: str) -> list[py.stmt]:
        """A loop back-edge's step, charged to the guard the function's
        entry found (``_gd``): ``_gd.steps_used = _steps = _gd.steps_used +
        1`` and the amortized checkpoint when ``_steps`` reaches
        ``_gd.next_check``, the lines ``charge_entry`` starts with."""
        def gd(attr: str, ctx: py.expr_context) -> py.Attribute:
            return py.Attribute(value=_n("_gd"), attr=attr, ctx=ctx)

        return [py.Assign(
            targets=[gd("steps_used", py.Store()), _s("_steps")],
            value=py.BinOp(left=gd("steps_used", py.Load()), op=py.Add(),
                           right=_const(1)),
        ), py.If(
            test=py.Compare(left=_n("_steps"), ops=[py.GtE()],
                            comparators=[gd("next_check", py.Load())]),
            body=[py.Expr(value=_call(gd("checkpoint", py.Load()),
                                      [_const(where)]))],
            orelse=[],
        )]

    @staticmethod
    def _charged_entry(where: str, body: list[py.stmt]) -> list[py.stmt]:
        """A function's statements around ``body``: ``_gd = _G and
        _enter(where)`` charges its entry (``charge_entry``: a step and a
        depth level) when the unit was linked under a guard and one is
        active now, a ``finally`` takes the depth level back, and the one
        ``return`` returns ``_r``, which every tail path sets. One exit
        keeps the ``finally``, which CPython copies to every ``return``,
        to one copy. Linked with no guard, a call pays one ``_G`` and one
        ``_gd`` test."""
        return [
            _assign("_gd", py.BoolOp(op=py.And(), values=[
                _G_NAME, _call(_ENTER_NAME, [_const(where)]),
            ])),
            py.Try(body=body, handlers=[], orelse=[], finalbody=_DEPTH_BACK),
            _RETURN_R,
        ]

    # -- module forms ------------------------------------------------------

    def _hoistable(self, lam: ast.Lambda, binding: ModuleBinding) -> bool:
        """A top-level lambda hoists to module scope when it closes over
        nothing (its only free references are module-level, reached through
        globals) and its binding is never ``set!``."""
        return (
            lam.rest is None
            and binding.key() not in self.analysis.mutated_module_keys
            and not self.analysis.lambda_info(lam).free
        )

    def _returns_tailcall(self, lam: ast.Lambda,
                          self_binding: ModuleBinding) -> bool:
        """Statically: can a direct call of this hoisted lambda return a
        ``TailCall``? Mirrors the decisions ``tail``/``_app_tail`` make: a
        tail application compiles to ``continue`` (loopified self call),
        ``return <value>`` (inlined primitive), or ``return _tail(...)`` —
        only the last can surface a TailCall to the caller."""
        info = self.analysis.lambda_info(lam)
        loopifies = info.loop_safe and stable_self_binding(
            self_binding, self.analysis
        )
        key = self_binding.key()
        nparams = len(lam.params)

        def walk(node: ast.CoreExpr) -> bool:
            t = type(node)
            if t is ast.If:
                return walk(node.then) or walk(node.orelse)
            if t is ast.Begin:
                return walk(node.exprs[-1])
            if t is ast.LetValues:
                return walk(node.body[-1])
            if t is ast.App:
                if (
                    loopifies
                    and type(node.fn) is ast.ModuleRef
                    and node.fn.binding.key() == key
                    and len(node.args) == nparams
                ):
                    return False
                return self._inlined(node) is None
            return False

        return walk(lam.body[-1])

    def module_form(self, form: ast.ModuleForm, index: int) -> py.FunctionDef:
        body: list[py.stmt] = []
        self.blocks.append(body)
        if isinstance(form, ast.DefineValues):
            self_binding = None
            if len(form.bindings) == 1 and type(form.expr) is ast.Lambda:
                self_binding = form.bindings[0]
            if self_binding is not None and self._hoistable(form.expr,
                                                           self_binding):
                # register before emitting the body so non-tail self calls
                # (fib, tak, ...) compile to direct recursion; safe because
                # the defining form never invokes during its own execution
                self._fn += 1
                fname = f"_f{self._fn}_{_sanitize(form.expr.name)}"
                self.module_fns[self_binding.key()] = (
                    fname,
                    len(form.expr.params),
                    self._returns_tailcall(form.expr, self_binding),
                )
                value = self.lambda_expr(form.expr, self_binding,
                                         fname=fname, hoist=True)
            elif self_binding is not None:
                value = self.lambda_expr(form.expr, self_binding)
            else:
                value = self.expr(form.expr)
            cells = py.Tuple(
                elts=[_n(self.tables.cell(b.key())) for b in form.bindings],
                ctx=py.Load(),
            )
            names = py.Tuple(elts=[_const(n) for n in form.names],
                             ctx=py.Load())
            body.append(py.Expr(value=_call(_n("_bind_cells"), [
                cells, _const(len(form.bindings)), value, names,
            ])))
            body.append(py.Return(value=_n("_V")))
            # later forms may read these without the UNDEFINED check: their
            # code cannot run before this form's _bind_cells completed
            # (updated after emission, so same-form reads keep the check)
            self.defined_keys.update(b.key() for b in form.bindings)
        else:
            body.append(py.Return(value=self.expr(form)))
        self.blocks.pop()
        return py.FunctionDef(
            name=f"_form{index}",
            args=py.arguments(posonlyargs=[], args=[], vararg=None,
                              kwonlyargs=[], kw_defaults=[], kwarg=None,
                              defaults=[]),
            body=body,
            decorator_list=[],
        )


# --- codegen entry points -----------------------------------------------------


def _canonical_code(code: "types.CodeType") -> "types.CodeType":
    """Rebuild a code-object tree so its ``marshal`` bytes are value-determined.

    ``marshal`` decides between writing a string out and emitting a
    back-reference by *object identity* and interned-ness, both of which
    depend on what else the process has compiled (and freed) before —
    compiling the same module in a fresh Runtime can legally yield
    different bytes for identical code. The artifact cache's determinism
    contract (parallel build == serial build, byte-for-byte) needs the
    dump to be a pure function of the code's *values*, so: intern every
    string (equal strings collapse to one identity everywhere) and
    rebuild nested tuples/frozensets fresh (equal composites never
    accidentally share identity). A function's qualified name is its own
    name: the nested ``<locals>`` path would only lengthen every unit.
    """
    def const(c: Any) -> Any:
        if isinstance(c, str):
            return sys.intern(c)
        if isinstance(c, tuple):
            return tuple(const(x) for x in c)
        if isinstance(c, frozenset):
            return frozenset(const(x) for x in c)
        if isinstance(c, types.CodeType):
            return _canonical_code(c)
        return c

    return code.replace(
        co_name=sys.intern(code.co_name),
        co_qualname=sys.intern(code.co_name),
        co_filename=sys.intern(code.co_filename),
        co_names=tuple(sys.intern(n) for n in code.co_names),
        co_varnames=tuple(sys.intern(n) for n in code.co_varnames),
        co_freevars=tuple(sys.intern(n) for n in code.co_freevars),
        co_cellvars=tuple(sys.intern(n) for n in code.co_cellvars),
        co_consts=tuple(const(c) for c in code.co_consts),
    )


def codegen_module(compiled: Any, inline: bool) -> PycUnit:
    """Generate the :class:`PycUnit` for a compiled module.

    Namespace-independent: every namespace cell, quoted constant, and
    primitive is reached through a module global resolved at link time,
    and so is governance (``_G``, ``_enter``). ``inline`` is the
    registry's ``inline_primitives``.
    """
    analysis = module_analysis(compiled)
    forms = list(compiled.body.forms)
    tables = _Tables()
    emitter = _Emitter(tables, analysis, inline)
    form_defs = [emitter.module_form(form, i) for i, form in enumerate(forms)]
    module = py.Module(
        body=[*emitter.module_block, *form_defs],
        type_ignores=[],
    )
    code = compile(module, filename=f"<pyc:{compiled.path}>", mode="exec")
    current_stats().pyc_codegens += 1
    return PycUnit(
        code=marshal.dumps(_canonical_code(code)),
        cells={name: key for key, name in tables.cells.items()},
        constants=dict(tables.constants),
        prims={name: prim for prim, name in tables.prim_fns.items()},
        binaries={name: prim for prim, name in tables.prim_bins.items()},
        prim_values={name: prim for prim, name in tables.prim_vals.items()},
        nforms=len(forms),
    )


# --- link ---------------------------------------------------------------------


def _raise_bind1(result: Values) -> None:
    raise RuntimeReproError(
        f"binding expects 1 value, got {len(result.items)}"
    )


def _bindn(result: Any, count: int) -> tuple:
    if not isinstance(result, Values) or len(result.items) != count:
        got = len(result.items) if isinstance(result, Values) else 1
        raise RuntimeReproError(f"binding expects {count} values, got {got}")
    return result.items


def _undef_local(name: str) -> None:
    raise RuntimeReproError(f"{name}: used before initialization")


def _undef_mod(name: str) -> None:
    raise RuntimeReproError(f"{name}: undefined; referenced before definition")


def _drain(result: Any) -> Any:
    """Resolve a direct call's result: run any returned TailCall to a
    value. Emitted around direct calls of hoisted functions whose tail
    positions may bounce (``_returns_tailcall``)."""
    if type(result) is TailCall:
        return apply_procedure(result.fn, result.args)
    return result


def link_unit(unit: PycUnit, ns: Any, guard: Any) -> list[Callable[[], Any]]:
    """Bind a unit's code object to a namespace and guard: resolve cell
    keys against ``ns``, install constants, primitive implementations and
    the governance globals (``_G`` turns on the charges at function
    entries and back-edges), and exec the module code, returning the
    per-form thunks.

    Raises :class:`StaleUnitError` when the marshalled code targets a
    different CPython bytecode format (the caller regenerates instead).
    """
    if unit.py_tag != PY_TAG:
        raise StaleUnitError(
            "pyc unit was generated by a different Python version"
        )
    code = marshal.loads(unit.code)
    g: dict[str, Any] = {
        "_G": guard is not None,
        # governed code charges the guard active at each function entry,
        # as the interp backend does (``_G`` is fixed at link time)
        "_enter": charge_entry,
        "_apply": apply_procedure,
        "_tail": tail_apply,
        "_dr": _drain,
        "_PyClosure": PyClosure,
        "_U": UNDEFINED,
        "_V": VOID,
        "_NULL": NULL,
        "_Values": Values,
        "_Pair": Pair,
        "_MVector": MVector,
        "_sqrt": math.sqrt,
        # the open-coded fast paths charge counters on the Stats instance
        # active at link time — the same per-Runtime instance the whole
        # instantiation runs under
        "_st": current_stats(),
        "_bindn": _bindn,
        "_bind_cells": _bind_cells,
        "_raise_bind1": _raise_bind1,
        "_undef_local": _undef_local,
        "_undef_mod": _undef_mod,
    }
    for pyname, key in unit.cells.items():
        g[pyname] = ns.cell(tuple(key))
    for pyname, value in unit.constants.items():
        g[pyname] = value
    track = guard is not None and guard.track_allocations
    for pyname, prim_name in unit.prims.items():
        prim = PRIMITIVES[prim_name]
        # charge the allocation budget at this linked call site, as the
        # interp compiler does per compile
        g[pyname] = charging_alloc(prim.fn) if track and prim.allocates else prim.fn
    for pyname, prim_name in unit.binaries.items():
        g[pyname] = PRIMITIVES[prim_name].binary
    for pyname, prim_name in unit.prim_values.items():
        g[pyname] = PRIMITIVES[prim_name]
    exec(code, g)
    current_stats().pyc_links += 1
    return [g[f"_form{i}"] for i in range(unit.nforms)]
