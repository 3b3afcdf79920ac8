"""The hygienic macro expander.

Recursively traverses syntax; when it reaches the use of a macro it runs the
transformer and continues with the result (§2.1). Hygiene comes from scope
sets: each transformer application flips a fresh *introduction scope* around
the call, and definition contexts add *use-site scopes* so that macros that
both bind and reference their inputs behave correctly.

The expander also implements:

- implicit ``#%app`` / ``#%datum`` hooks, so languages can reinterpret
  application and literals (the lazy-language demo relies on ``#%app``);
- ``local-expand`` (§2.2) — forcing any expression down to core forms,
  optionally stopping at given identifiers;
- the two-pass module-body expansion behind ``#%plain-module-begin``
  (definitions collected first, right-hand sides and expressions second — the
  §4.4 strategy for mutual recursion);
- ``define-syntaxes`` / ``begin-for-syntax`` evaluation in the compilation's
  fresh phase-1 store, recording replayable declarations for separate
  compilation (§5).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.diagnostics.diagnostic import ExpansionFrame
from repro.diagnostics.session import FATAL_ERRORS
from repro.errors import (
    CompilationFailed,
    ExpansionLimitError,
    ReproError,
    SyntaxExpansionError,
    UnboundIdentifierError,
)
from repro.expander.env import (
    ExpandContext,
    ProvideSpec,
    TransformerMeaning,
    VARIABLE,
)
from repro.expander.kernel_scope import SYNTAX_RULES_BINDING, core_id
from repro.observe.recorder import current_recorder
from repro.runtime.stats import current_stats
from repro.runtime.values import Symbol
from repro.syn.binding import (
    Binding,
    CoreFormBinding,
    LocalBinding,
    ModuleBinding,
    bind,
    binding_at,
    bind_identifier,
    bound_identifier_eq,
    resolve,
)
from repro.syn.scopes import Scope
from repro.syn.syntax import ImproperList, Syntax

_MB_EXPANDED_PROP = "module-begin-expanded"
_PHASE1_DONE_PROP = "phase1-processed"

#: default per-compilation budget of transformer applications
DEFAULT_FUEL = 10_000

#: cap on recorded backtrace frames (deep non-tail macro nests)
_MAX_BACKTRACE = 24


class _Retry:
    """Marker: a transformer fired; re-dispatch on its output (iteratively,
    so head-recursive macros consume fuel, not Python stack)."""

    __slots__ = ("stx", "stop")

    def __init__(self, stx: Syntax, stop: Optional[frozenset]) -> None:
        self.stx = stx
        self.stop = stop


class Expander:
    def __init__(self, ctx: ExpandContext) -> None:
        self.ctx = ctx
        #: introduction scopes of transformer applications in progress
        self._intro_stack: list[Scope] = []
        #: macro invocations in progress, for expansion backtraces
        self._macro_frames: list[ExpansionFrame] = []
        self.fuel_budget = getattr(ctx.registry, "expansion_fuel", None) or DEFAULT_FUEL
        self.fuel = self.fuel_budget
        #: the observability event bus active for this compilation (the
        #: no-op recorder when tracing is off — call sites check .enabled)
        self._rec = current_recorder()

    # ------------------------------------------------------------------
    # transformer application
    # ------------------------------------------------------------------

    @staticmethod
    def _macro_name_of(stx: Syntax) -> str:
        e = stx.e
        if isinstance(e, Symbol):
            return e.name
        if isinstance(e, tuple) and e and e[0].is_identifier():
            return e[0].e.name
        if isinstance(e, ImproperList) and e.items and e.items[0].is_identifier():
            return e.items[0].e.name
        return "<macro>"

    def backtrace(self) -> tuple[ExpansionFrame, ...]:
        """The macro invocations currently in flight (outermost first)."""
        frames = self._macro_frames
        if len(frames) > _MAX_BACKTRACE:
            half = _MAX_BACKTRACE // 2
            elided = len(frames) - 2 * half
            return (
                *frames[:half],
                ExpansionFrame(f"... ({elided} frames elided)"),
                *frames[-half:],
            )
        return tuple(frames)

    def _use_fuel(self, stx: Syntax, macro_name: str) -> None:
        current_stats().count_expansion_step(macro_name)
        self.fuel -= 1
        if self.fuel < 0:
            err = ExpansionLimitError(
                f"macro expansion exceeded its budget of {self.fuel_budget} "
                f"steps (runaway recursive macro?)",
                stx,
            )
            err.expansion_backtrace = self.backtrace()
            raise err

    def apply_transformer(
        self, transformer: Any, stx: Syntax, phase: int, in_def_ctx: bool
    ) -> Syntax:
        intro = Scope("macro")
        inp = stx.flip_scope(intro)
        if in_def_ctx and self.ctx.use_site_scopes:
            use_site = Scope("use-site")
            self.ctx.use_site_scopes[-1].add(use_site)
            inp = inp.add_scope(use_site)
        macro_name = self._macro_name_of(stx)
        self._intro_stack.append(intro)
        self._macro_frames.append(ExpansionFrame(macro_name, stx.srcloc))
        depth = len(self._macro_frames)
        try:
            # burn fuel with the frame already pushed, so an exhausted
            # budget names the macro that tripped it in its backtrace
            self._use_fuel(stx, macro_name)
            out = self.call_transformer(transformer, inp)
        except RecursionError:
            err = ExpansionLimitError(
                "macro expansion nested too deeply for the interpreter "
                "(runaway recursive macro?)",
                stx,
            )
            err.expansion_backtrace = self.backtrace()
            raise err from None
        except ReproError as err:
            # aggregates carry a backtrace per diagnostic already
            if not err.expansion_backtrace and not isinstance(err, CompilationFailed):
                err.expansion_backtrace = self.backtrace()
            raise
        finally:
            self._intro_stack.pop()
            self._macro_frames.pop()
        if not isinstance(out, Syntax):
            raise SyntaxExpansionError(
                f"macro transformer returned a non-syntax value: {out!r}", stx
            )
        result = out.flip_scope(intro)
        if self._rec.enabled:
            self._rec.macro_step(
                macro_name,
                stx.srcloc,
                depth,
                stx_in=stx,
                stx_out=result,
                intro_scope=repr(intro),
            )
        return result

    def call_transformer(self, transformer: Any, stx: Syntax) -> Any:
        if callable(transformer):
            return transformer(stx)
        from repro.core.interp import apply_procedure

        return apply_procedure(transformer, [stx])

    # ------------------------------------------------------------------
    # resolution helpers
    # ------------------------------------------------------------------

    def _transformer_of(self, binding: Optional[Binding]) -> Optional[Any]:
        if binding is None or isinstance(binding, CoreFormBinding):
            return None
        meaning = self.ctx.meaning_of(binding)
        if isinstance(meaning, TransformerMeaning):
            return meaning.value
        return None

    def _implicit_hook(self, name: str, stx: Syntax, phase: int) -> Optional[Any]:
        hook = Syntax(Symbol(name), stx.scopes, stx.srcloc)
        try:
            binding = resolve(hook, phase)
        except SyntaxExpansionError:
            return None
        return self._transformer_of(binding)

    # ------------------------------------------------------------------
    # expression expansion
    # ------------------------------------------------------------------

    def expand_expr(
        self, stx: Syntax, phase: int = 0, stop: Optional[frozenset] = None
    ) -> Syntax:
        # Iterative head-expansion driver: each transformer application
        # returns a _Retry and loops here, so a macro that expands to
        # another macro use in head position consumes *fuel*, not Python
        # stack — a runaway macro hits ExpansionLimitError, never
        # RecursionError.
        while True:
            e = stx.e
            if isinstance(e, Symbol):
                out = self._expand_identifier(stx, phase, stop)
            elif isinstance(e, tuple):
                if not e:
                    raise SyntaxExpansionError("missing procedure expression", stx)
                out = self._expand_compound(stx, phase, stop)
            elif isinstance(e, ImproperList):
                raise SyntaxExpansionError("bad syntax (improper list)", stx)
            else:
                out = self._expand_datum(stx, phase)
            if isinstance(out, _Retry):
                stx, stop = out.stx, out.stop
                continue
            return out

    def _expand_identifier(
        self, stx: Syntax, phase: int, stop: Optional[frozenset]
    ) -> Any:
        binding = resolve(stx, phase)
        if binding is None:
            raise UnboundIdentifierError(
                f"unbound identifier: {stx.e} (phase {phase})", stx
            )
        if isinstance(binding, CoreFormBinding):
            raise SyntaxExpansionError(
                f"{binding.name}: core form may not be used as an expression", stx
            )
        if stop is not None and binding.key() in stop:
            return stx
        transformer = self._transformer_of(binding)
        if transformer is not None:
            return _Retry(self.apply_transformer(transformer, stx, phase, False), stop)
        return stx

    def _expand_compound(
        self, stx: Syntax, phase: int, stop: Optional[frozenset]
    ) -> Any:
        head = stx.e[0]
        if head.is_identifier():
            binding = resolve(head, phase)
            if binding is not None:
                if stop is not None and binding.key() in stop:
                    return stx
                if isinstance(binding, CoreFormBinding):
                    return self._expand_core_form(binding.name, stx, phase, stop)
                transformer = self._transformer_of(binding)
                if transformer is not None:
                    return _Retry(
                        self.apply_transformer(transformer, stx, phase, False), stop
                    )
        return self._expand_app(stx, phase, stop)

    def _expand_app(self, stx: Syntax, phase: int, stop: Optional[frozenset]) -> Any:
        hook = self._implicit_hook("#%app", stx, phase)
        if hook is not None:
            hook_id = Syntax(Symbol("#%app"), stx.scopes, stx.srcloc)
            wrapped = Syntax((hook_id, *stx.e), stx.scopes, stx.srcloc, stx.props)
            return _Retry(self.apply_transformer(hook, wrapped, phase, False), stop)
        if stop:
            return stx
        expanded = tuple(self.expand_expr(x, phase, stop) for x in stx.e)
        return Syntax(
            (core_id("#%plain-app", stx.srcloc), *expanded),
            stx.scopes,
            stx.srcloc,
            stx.props,
        )

    def _expand_datum(self, stx: Syntax, phase: int) -> Any:
        hook = self._implicit_hook("#%datum", stx, phase)
        if hook is not None:
            hook_id = Syntax(Symbol("#%datum"), stx.scopes, stx.srcloc)
            wrapped = Syntax(
                ImproperList((hook_id,), stx), stx.scopes, stx.srcloc
            )
            return _Retry(self.apply_transformer(hook, wrapped, phase, False), None)
        return Syntax(
            (core_id("quote", stx.srcloc), stx), stx.scopes, stx.srcloc, stx.props
        )

    # ------------------------------------------------------------------
    # core forms
    # ------------------------------------------------------------------

    def _expand_core_form(
        self, name: str, stx: Syntax, phase: int, stop: Optional[frozenset]
    ) -> Syntax:
        if stop and name not in ("#%plain-app",):
            # with a non-empty stop list, core forms end partial expansion
            return stx
        if name in ("quote", "quote-syntax"):
            if len(stx.e) != 2:
                raise SyntaxExpansionError(f"{name}: bad syntax", stx)
            return stx
        if name == "if":
            if len(stx.e) != 4:
                raise SyntaxExpansionError("if: bad syntax", stx)
            return self._rebuild(
                stx, (stx.e[0], *(self.expand_expr(x, phase, stop) for x in stx.e[1:]))
            )
        if name in ("begin", "begin0", "#%expression"):
            if len(stx.e) < 2:
                raise SyntaxExpansionError(f"{name}: bad syntax (empty body)", stx)
            return self._rebuild(
                stx, (stx.e[0], *(self.expand_expr(x, phase, stop) for x in stx.e[1:]))
            )
        if name == "set!":
            return self._expand_set(stx, phase, stop)
        if name == "#%plain-lambda":
            return self._expand_lambda(stx, phase)
        if name in ("let-values", "letrec-values"):
            return self._expand_let_values(stx, phase, recursive=name == "letrec-values")
        if name == "#%plain-app":
            if len(stx.e) < 2:
                raise SyntaxExpansionError("#%plain-app: missing procedure", stx)
            return self._rebuild(
                stx, (stx.e[0], *(self.expand_expr(x, phase, stop) for x in stx.e[1:]))
            )
        if name == "#%plain-module-begin":
            return self.expand_module_begin(stx, phase)
        if name in ("define-values", "define-syntaxes", "begin-for-syntax"):
            raise SyntaxExpansionError(
                f"{name}: not allowed in an expression position", stx
            )
        if name in ("#%provide", "#%require"):
            raise SyntaxExpansionError(
                f"{name}: only allowed at module level", stx
            )
        raise SyntaxExpansionError(f"unknown core form: {name}", stx)  # pragma: no cover

    @staticmethod
    def _rebuild(stx: Syntax, items: tuple[Syntax, ...]) -> Syntax:
        return Syntax(items, stx.scopes, stx.srcloc, stx.props)

    def _expand_set(self, stx: Syntax, phase: int, stop: Optional[frozenset]) -> Syntax:
        if len(stx.e) != 3 or not stx.e[1].is_identifier():
            raise SyntaxExpansionError("set!: bad syntax", stx)
        target = stx.e[1]
        binding = resolve(target, phase)
        if binding is None:
            raise UnboundIdentifierError(f"set!: unbound identifier: {target.e}", stx)
        if self._transformer_of(binding) is not None:
            raise SyntaxExpansionError("set!: cannot mutate a macro binding", stx)
        if (
            isinstance(binding, ModuleBinding)
            and binding.module_path != self.ctx.module_path
        ):
            # imports are immutable, so a kernel cell keeps its primitive
            # and a reference to it denotes that primitive statically
            raise SyntaxExpansionError(
                "set!: cannot mutate module-required identifier", stx
            )
        return self._rebuild(
            stx, (stx.e[0], target, self.expand_expr(stx.e[2], phase, stop))
        )

    def _formal_ids(self, formals: Syntax) -> list[Syntax]:
        e = formals.e
        if isinstance(e, Symbol):
            return [formals]
        if isinstance(e, tuple):
            ids = list(e)
        elif isinstance(e, ImproperList):
            ids = list(e.items) + [e.tail]
        else:
            raise SyntaxExpansionError("lambda: bad formals", formals)
        for ident in ids:
            if not ident.is_identifier():
                raise SyntaxExpansionError("lambda: formal is not an identifier", ident)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                if bound_identifier_eq(a, b):
                    raise SyntaxExpansionError(
                        f"lambda: duplicate formal: {a.e}", formals
                    )
        return ids

    def _expand_lambda(self, stx: Syntax, phase: int) -> Syntax:
        if len(stx.e) < 3:
            raise SyntaxExpansionError("#%plain-lambda: bad syntax", stx)
        sc = Scope("local")
        formals = stx.e[1].add_scope(sc)
        body = [b.add_scope(sc) for b in stx.e[2:]]
        for ident in self._formal_ids(formals):
            bind_identifier(ident, LocalBinding(ident.e), phase)
        new_body = self.expand_body(body, phase, stx)
        return self._rebuild(stx, (stx.e[0], formals, *new_body))

    def _expand_let_values(self, stx: Syntax, phase: int, recursive: bool) -> Syntax:
        if len(stx.e) < 3 or not isinstance(stx.e[1].e, tuple):
            raise SyntaxExpansionError("let-values: bad syntax", stx)
        sc = Scope("local")
        clauses = []
        raw_clauses = stx.e[1].e
        parsed = []
        for clause in raw_clauses:
            if not (isinstance(clause.e, tuple) and len(clause.e) == 2):
                raise SyntaxExpansionError("let-values: bad binding clause", clause)
            ids_stx, rhs = clause.e
            if not isinstance(ids_stx.e, tuple):
                raise SyntaxExpansionError("let-values: bad identifier list", clause)
            parsed.append((clause, ids_stx, rhs))
        all_ids: list[Syntax] = []
        for _clause, ids_stx, _rhs in parsed:
            for ident in ids_stx.e:
                if not ident.is_identifier():
                    raise SyntaxExpansionError("let-values: not an identifier", ident)
        for clause, ids_stx, rhs in parsed:
            new_ids = ids_stx.add_scope(sc)
            for ident in new_ids.e:
                for prev in all_ids:
                    if bound_identifier_eq(prev, ident):
                        raise SyntaxExpansionError(
                            f"let-values: duplicate identifier: {ident.e}", stx
                        )
                all_ids.append(ident)
                bind_identifier(ident, LocalBinding(ident.e), phase)
            if recursive:
                rhs = rhs.add_scope(sc)
                clauses.append((clause, new_ids, rhs))
            else:
                clauses.append((clause, new_ids, self.expand_expr(rhs, phase)))
        if recursive:
            clauses = [
                (clause, ids, self.expand_expr(rhs, phase))
                for (clause, ids, rhs) in clauses
            ]
        body = [b.add_scope(sc) for b in stx.e[2:]]
        new_body = self.expand_body(body, phase, stx)
        new_clauses = tuple(
            Syntax((ids, rhs), clause.scopes, clause.srcloc)
            for (clause, ids, rhs) in clauses
        )
        return self._rebuild(
            stx,
            (
                stx.e[0],
                Syntax(new_clauses, stx.e[1].scopes, stx.e[1].srcloc),
                *new_body,
            ),
        )

    # ------------------------------------------------------------------
    # internal-definition contexts (lambda / let bodies)
    # ------------------------------------------------------------------

    def partial_expand(self, stx: Syntax, phase: int, def_ctx: bool) -> Syntax:
        """Expand macro uses at the head until a core form (or non-macro)."""
        while True:
            e = stx.e
            if isinstance(e, Symbol):
                binding = resolve(stx, phase)
                transformer = self._transformer_of(binding)
                if transformer is None:
                    return stx
                stx = self.apply_transformer(transformer, stx, phase, def_ctx)
                continue
            if not (isinstance(e, tuple) and e):
                return stx
            head = e[0]
            if not head.is_identifier():
                return stx
            binding = resolve(head, phase)
            if binding is None or isinstance(binding, CoreFormBinding):
                return stx
            transformer = self._transformer_of(binding)
            if transformer is None:
                return stx
            stx = self.apply_transformer(transformer, stx, phase, def_ctx)

    def _core_head(self, stx: Syntax, phase: int) -> Optional[str]:
        if not (isinstance(stx.e, tuple) and stx.e):
            return None
        head = stx.e[0]
        if not head.is_identifier():
            return None
        binding = resolve(head, phase)
        if isinstance(binding, CoreFormBinding):
            return binding.name
        return None

    def _strip_use_site(self, ident: Syntax) -> Syntax:
        """Remove this definition context's use-site scopes from a binder."""
        if not self.ctx.use_site_scopes:
            return ident
        current = self.ctx.use_site_scopes[-1]
        if not current:
            return ident
        scopes = ident.scopes - frozenset(current)
        if scopes == ident.scopes:
            return ident
        return Syntax(ident.e, scopes, ident.srcloc, ident.props)

    def expand_body(self, forms: Sequence[Syntax], phase: int, where: Syntax) -> list[Syntax]:
        """Expand a body that may contain internal definitions.

        If definitions are found the body is rewritten into a single
        ``letrec-values`` expression, preserving evaluation order.
        """
        self.ctx.use_site_scopes.append(set())
        try:
            defines: list[tuple[Syntax, Syntax]] = []  # (ids-stx, rhs)
            exprs_after: list[Syntax] = []
            saw_define = False
            items: list[tuple[str, Any]] = []
            pending = list(forms)
            while pending:
                form = self.partial_expand(pending.pop(0), phase, True)
                head = self._core_head(form, phase)
                if head == "begin":
                    pending = list(form.e[1:]) + pending
                    continue
                if head == "define-values":
                    if len(form.e) != 3 or not isinstance(form.e[1].e, tuple):
                        raise SyntaxExpansionError("define-values: bad syntax", form)
                    ids = tuple(self._strip_use_site(i) for i in form.e[1].e)
                    for ident in ids:
                        if not ident.is_identifier():
                            raise SyntaxExpansionError(
                                "define-values: not an identifier", ident
                            )
                        bind_identifier(ident, LocalBinding(ident.e), phase)
                    saw_define = True
                    items.append(("def", (ids, form.e[2], form)))
                    continue
                if head == "define-syntaxes":
                    self._handle_define_syntaxes(form, phase, record=False)
                    continue
                items.append(("expr", form))
            if not saw_define:
                out = [self.expand_expr(f, phase) for f in (f for (_k, f) in items)]
                if not out:
                    raise SyntaxExpansionError("body: no expression in body", where)
                return out
            # rewrite to letrec-values, keeping order: expressions that occur
            # before the final run of expressions become dummy clauses.
            tail_exprs: list[Syntax] = []
            while items and items[-1][0] == "expr":
                tail_exprs.insert(0, items.pop()[1])
            if not tail_exprs:
                raise SyntaxExpansionError("body: no expression after definitions", where)
            clause_stxs: list[Syntax] = []
            for kind, payload in items:
                if kind == "def":
                    ids, rhs, orig = payload
                    clause_stxs.append(
                        Syntax(
                            (Syntax(tuple(ids), orig.e[1].scopes, orig.srcloc), rhs),
                            orig.scopes,
                            orig.srcloc,
                        )
                    )
                else:
                    expr = payload
                    begin_form = Syntax(
                        (
                            core_id("begin", expr.srcloc),
                            expr,
                            Syntax(
                                (core_id("#%plain-app", expr.srcloc), core_id("values", expr.srcloc)),
                                expr.scopes,
                                expr.srcloc,
                            ),
                        ),
                        expr.scopes,
                        expr.srcloc,
                    )
                    clause_stxs.append(
                        Syntax(
                            (Syntax((), expr.scopes, expr.srcloc), begin_form),
                            expr.scopes,
                            expr.srcloc,
                        )
                    )
            letrec = Syntax(
                (
                    core_id("letrec-values", where.srcloc),
                    Syntax(tuple(clause_stxs), where.scopes, where.srcloc),
                    *tail_exprs,
                ),
                where.scopes,
                where.srcloc,
            )
            return [self.expand_expr(letrec, phase)]
        finally:
            self.ctx.use_site_scopes.pop()

    # ------------------------------------------------------------------
    # module-body expansion (two passes)
    # ------------------------------------------------------------------

    def expand_module_begin(self, stx: Syntax, phase: int = 0) -> Syntax:
        if stx.property_get(_MB_EXPANDED_PROP):
            return stx
        if not (isinstance(stx.e, tuple) and stx.e):
            raise SyntaxExpansionError("#%plain-module-begin: bad syntax", stx)
        ctx = self.ctx
        session = ctx.diagnostics
        ctx.use_site_scopes.append(set())
        try:
            # pass 1: partial-expand each module-level form. A recoverable
            # error drops the offending form, records a diagnostic, and
            # continues with the next form, so one compile reports every
            # problem (fatal errors — missing modules, exhausted fuel —
            # still abort immediately).
            processed: list[tuple[str, Any]] = []
            pending = list(stx.e[1:])
            while pending:
                raw = pending.pop(0)
                try:
                    form = self.partial_expand(raw, phase, True)
                    head = self._core_head(form, phase)
                    if head == "begin":
                        pending = list(form.e[1:]) + pending
                        continue
                    if head == "define-values":
                        processed.append(self._module_define_values(form, phase))
                        continue
                    if head == "define-syntaxes":
                        expanded = self._handle_define_syntaxes(form, phase, record=True)
                        processed.append(("done", expanded))
                        continue
                    if head == "begin-for-syntax":
                        expanded = self._handle_begin_for_syntax(form, phase)
                        processed.append(("done", expanded))
                        continue
                    if head == "#%require":
                        self._handle_require(form, phase)
                        processed.append(("done", form))
                        continue
                    if head == "#%provide":
                        self._handle_provide(form, phase)
                        processed.append(("done", form))
                        continue
                    processed.append(("expr", form))
                except FATAL_ERRORS:
                    raise
                except ReproError as err:
                    session.add_exception(err)
                    self._bind_failed_definition(raw, phase)
            # pass 2: expand right-hand sides and expressions
            out: list[Syntax] = []
            for kind, payload in processed:
                try:
                    if kind == "done":
                        out.append(payload)
                    elif kind == "expr":
                        out.append(self.expand_expr(payload, phase))
                    else:  # deferred define-values rhs
                        form, ids_stx = payload
                        rhs = self.expand_expr(form.e[2], phase)
                        out.append(self._rebuild(form, (form.e[0], ids_stx, rhs)))
                except FATAL_ERRORS:
                    raise
                except ReproError as err:
                    session.add_exception(err)
            result = Syntax(
                (stx.e[0], *out), stx.scopes, stx.srcloc, stx.props
            )
            return result.property_put(_MB_EXPANDED_PROP, True)
        finally:
            ctx.use_site_scopes.pop()

    def _bind_failed_definition(self, raw: Syntax, phase: int) -> None:
        """Best-effort binding of the names a failed definition form would
        have introduced, so later references resolve instead of producing a
        cascading "unbound identifier" for every use of the broken
        definition. The bindings are marked *poisoned* on the context; the
        typecheckers treat references to them as the bottom type."""
        ctx = self.ctx
        e = raw.e
        if not (isinstance(e, tuple) and len(e) >= 2 and e[0].is_identifier()):
            return
        if not e[0].e.name.startswith("define"):
            return
        target = e[1]
        idents: list[Syntax] = []
        if e[0].e.name in ("define-values", "define-syntaxes"):
            if isinstance(target.e, tuple):
                idents = [i for i in target.e if i.is_identifier()]
        elif target.is_identifier():
            idents = [target]  # (define x ...)
        elif isinstance(target.e, tuple) and target.e and target.e[0].is_identifier():
            idents = [target.e[0]]  # (define (f ...) ...)
        elif (
            isinstance(target.e, ImproperList)
            and target.e.items
            and target.e.items[0].is_identifier()
        ):
            idents = [target.e.items[0]]  # (define (f . rest) ...)
        for ident in idents:
            ident = self._strip_use_site(ident)
            if ident.e.name in ctx.defined_names:
                continue
            binding = ModuleBinding(ctx.module_path, ident.e, phase)
            ctx.defined_names[ident.e.name] = ident
            bind_identifier(ident, binding, phase)
            ctx.poisoned.add(binding.key())

    def _module_define_values(self, form: Syntax, phase: int) -> tuple[str, Any]:
        if len(form.e) != 3 or not isinstance(form.e[1].e, tuple):
            raise SyntaxExpansionError("define-values: bad syntax", form)
        ctx = self.ctx
        if form.property_get(_PHASE1_DONE_PROP):
            # re-traversal of an already-expanded definition (e.g. after a
            # typed #%module-begin returned rewritten core forms)
            return ("defer", (form, form.e[1]))
        new_ids = []
        for ident in form.e[1].e:
            if not ident.is_identifier():
                raise SyntaxExpansionError("define-values: not an identifier", ident)
            ident = self._strip_use_site(ident)
            binding = ModuleBinding(ctx.module_path, ident.e, phase)
            name = ident.e.name
            if name in ctx.defined_names:
                raise SyntaxExpansionError(
                    f"define-values: duplicate definition of {name}", form
                )
            self._check_not_imported(ident, phase, form)
            ctx.defined_names[name] = ident
            bind_identifier(ident, binding, phase)
            new_ids.append(ident)
        ids_stx = Syntax(tuple(new_ids), form.e[1].scopes, form.e[1].srcloc)
        marked = form.property_put(_PHASE1_DONE_PROP, True)
        return ("defer", (marked, ids_stx))

    # -- define-syntaxes / begin-for-syntax --------------------------------

    def _handle_define_syntaxes(
        self, form: Syntax, phase: int, record: bool
    ) -> Syntax:
        from repro.modules.registry import DefineSyntaxesDecl

        if form.property_get(_PHASE1_DONE_PROP):
            return form
        if len(form.e) != 3 or not isinstance(form.e[1].e, tuple):
            raise SyntaxExpansionError("define-syntaxes: bad syntax", form)
        ctx = self.ctx
        ids = [self._strip_use_site(i) for i in form.e[1].e]
        bindings: list[Binding] = []
        for ident in ids:
            if not ident.is_identifier():
                raise SyntaxExpansionError("define-syntaxes: not an identifier", ident)
            if record:  # module level
                self._check_not_imported(ident, phase, form)
                binding: Binding = ModuleBinding(ctx.module_path, ident.e, phase)
            else:
                binding = LocalBinding(ident.e)
            bind_identifier(ident, binding, phase)
            bindings.append(binding)
        rhs = form.e[2]
        values, core, py_value = self._eval_transformer_rhs(rhs, phase, len(bindings))
        for binding, value in zip(bindings, values):
            ctx.set_meaning(binding, TransformerMeaning(value))
        if record:
            ctx.syntax_decls.append(
                DefineSyntaxesDecl(list(bindings), core, py_value)
            )
        ids_stx = Syntax(tuple(ids), form.e[1].scopes, form.e[1].srcloc)
        rebuilt = self._rebuild(form, (form.e[0], ids_stx, rhs))
        return rebuilt.property_put(_PHASE1_DONE_PROP, True)

    def _eval_transformer_rhs(
        self, rhs: Syntax, phase: int, count: int
    ) -> tuple[list[Any], Any, Any]:
        """Evaluate a transformer right-hand side at phase+1.

        Returns (values, core-ast-or-None, prebuilt-python-value-or-None).
        """
        # syntax-rules is recognized specially and compiled to a Python
        # transformer over our pattern/template engine.
        head_binding = None
        if isinstance(rhs.e, tuple) and rhs.e and rhs.e[0].is_identifier():
            head_binding = resolve(rhs.e[0], phase + 1)
        if head_binding is not None and head_binding == SYNTAX_RULES_BINDING:
            from repro.expander.syntax_rules import make_syntax_rules_transformer

            transformer = make_syntax_rules_transformer(rhs)
            if count != 1:
                raise SyntaxExpansionError(
                    "define-syntaxes: syntax-rules provides exactly one value", rhs
                )
            return [transformer], None, transformer
        from repro.core.parse import parse_expr
        from repro.runtime.values import Values

        expanded = self.expand_expr(rhs, phase + 1)
        core = parse_expr(expanded, phase + 1)
        result = self.ctx.eval_phase1(core)
        values = list(result.items) if isinstance(result, Values) else [result]
        if len(values) != count:
            raise SyntaxExpansionError(
                f"define-syntaxes: expected {count} values, got {len(values)}", rhs
            )
        return values, core, None

    def _handle_begin_for_syntax(self, form: Syntax, phase: int) -> Syntax:
        from repro.core.parse import parse_expr
        from repro.expander.kernel_scope import core_id as cid
        from repro.modules.registry import ForSyntaxDecl

        if form.property_get(_PHASE1_DONE_PROP):
            return form
        bodies = form.e[1:]
        if not bodies:
            return form
        begin_stx = Syntax(
            (cid("begin", form.srcloc), *bodies), form.scopes, form.srcloc
        )
        expanded = self.expand_expr(begin_stx, phase + 1)
        core = parse_expr(expanded, phase + 1)
        self.ctx.eval_phase1(core)
        self.ctx.syntax_decls.append(ForSyntaxDecl(core))
        rebuilt = self._rebuild(form, (form.e[0], expanded))
        return rebuilt.property_put(_PHASE1_DONE_PROP, True)

    # -- require / provide ---------------------------------------------------

    def visit_module(self, compiled: Any) -> None:
        """Replay a compiled module's phase-1 declarations into this
        compilation's store (transitively through its requires)."""
        ctx = self.ctx
        if compiled.path in ctx.visited:
            return
        ctx.visited.add(compiled.path)
        for req in compiled.requires:
            self.visit_module(ctx.registry.get_compiled(req, requirer=compiled.path))
        for decl in compiled.syntax_decls:
            decl.replay(ctx)

    def _handle_require(self, form: Syntax, phase: int) -> None:
        for spec in form.e[1:]:
            self._require_spec(spec, phase, form)

    def _check_not_imported(self, ident: Syntax, phase: int, form: Syntax) -> None:
        """A module-level definition may shadow the ``#lang``'s import of
        its name, but not an explicit ``require``'s (Racket's rule)."""
        imported = self.ctx.imports.get((ident.e.name, phase, ident.scopes))
        if imported is not None:
            raise SyntaxExpansionError(
                f"module: identifier {ident.e.name} is imported from "
                f"{imported[1]} and also defined in {self.ctx.module_path}",
                form,
            )

    def _import(
        self, name: Symbol, scopes: frozenset, binding: Binding, path: str,
        phase: int, form: Syntax,
    ) -> None:
        """Bind ``name`` to an explicit ``require``'s export. It may re-import
        the same binding, and it shadows the ``#lang``'s import; it conflicts
        with a different binding another ``require`` imported, and with a
        definition in this module."""
        ctx = self.ctx
        key = (name.name, phase, scopes)
        imported = ctx.imports.get(key)
        if imported is not None and imported[0].key() != binding.key():
            raise SyntaxExpansionError(
                f"module: identifier {name.name} is imported twice with "
                f"different bindings, from {imported[1]} and from {path}",
                form,
            )
        prior = binding_at(name, scopes, phase)
        if isinstance(prior, ModuleBinding) and prior.module_path == ctx.module_path:
            raise SyntaxExpansionError(
                f"module: identifier {name.name} is defined in "
                f"{ctx.module_path} and also imported from {path}",
                form,
            )
        if imported is None:
            ctx.imports[key] = (binding, path)
        bind(name, scopes, binding, phase)

    def _module_name_of(self, spec: Syntax) -> str:
        if isinstance(spec.e, Symbol):
            return spec.e.name
        if isinstance(spec.e, str):
            return spec.e
        raise SyntaxExpansionError("require: bad module path", spec)

    def _require_spec(self, spec: Syntax, phase: int, form: Syntax) -> None:
        ctx = self.ctx
        renames: Optional[list[tuple[str, Syntax]]] = None
        if isinstance(spec.e, tuple) and spec.e and spec.e[0].is_identifier() and (
            spec.e[0].e.name in ("only-in", "rename-in", "only")
        ):
            if len(spec.e) < 2:
                raise SyntaxExpansionError("require: bad only-in spec", spec)
            mod_spec = spec.e[1]
            renames = []
            for clause in spec.e[2:]:
                if clause.is_identifier():
                    renames.append((clause.e.name, clause))
                elif isinstance(clause.e, tuple) and len(clause.e) == 2:
                    orig, new = clause.e
                    if not (orig.is_identifier() and new.is_identifier()):
                        raise SyntaxExpansionError("require: bad rename clause", clause)
                    renames.append((orig.e.name, new))
                else:
                    raise SyntaxExpansionError("require: bad clause", clause)
        else:
            mod_spec = spec
        name = self._module_name_of(mod_spec)
        path = ctx.registry.resolve_module_path(
            name, relative_to=ctx.module_path, srcloc=mod_spec.srcloc
        )
        compiled = ctx.registry.get_compiled(
            path, requirer=ctx.module_path, srcloc=mod_spec.srcloc
        )
        self.visit_module(compiled)
        if path not in ctx.requires:
            ctx.requires.append(path)
        if renames is None:
            scopes = self._strip_use_site(mod_spec).scopes
            for export_name, export in compiled.exports.items():
                self._import(Symbol(export_name), scopes, export.binding, path, phase, form)
                if export.transformer is not None:
                    ctx.set_meaning(export.binding, TransformerMeaning(export.transformer))
        else:
            for orig_name, local_id in renames:
                export = compiled.exports.get(orig_name)
                if export is None:
                    raise SyntaxExpansionError(
                        f"require: {orig_name} is not provided by {path}", spec
                    )
                local_id = self._strip_use_site(local_id)
                self._import(local_id.e, local_id.scopes, export.binding, path, phase, form)
                if export.transformer is not None:
                    ctx.set_meaning(export.binding, TransformerMeaning(export.transformer))

    def _handle_provide(self, form: Syntax, phase: int) -> None:
        for spec in form.e[1:]:
            if (
                isinstance(spec.e, tuple)
                and len(spec.e) == 1
                and spec.e[0].is_identifier()
                and spec.e[0].e.name == "all-defined"
            ):
                # expanded by the module compiler once all definitions are known
                self.ctx.provides.append(ProvideSpec("*all-defined*", spec, phase))
            elif spec.is_identifier():
                self.ctx.provides.append(ProvideSpec(spec.e.name, spec, phase))
            elif (
                isinstance(spec.e, tuple)
                and len(spec.e) == 3
                and spec.e[0].is_identifier()
                and spec.e[0].e.name == "rename"
            ):
                internal, external = spec.e[1], spec.e[2]
                if not (internal.is_identifier() and external.is_identifier()):
                    raise SyntaxExpansionError("provide: bad rename spec", spec)
                self.ctx.provides.append(
                    ProvideSpec(external.e.name, internal, phase)
                )
            else:
                raise SyntaxExpansionError("provide: bad spec", spec)

    # ------------------------------------------------------------------
    # local-expand (§2.2)
    # ------------------------------------------------------------------

    def local_expand(
        self,
        stx: Syntax,
        context: str = "expression",
        stop_ids: Sequence[Syntax] = (),
        phase: int = 0,
    ) -> Syntax:
        # Like Racket's local-expand, flip the current macro-introduction
        # scope around the nested expansion, so that the syntax being
        # re-expanded (and any bindings it creates) is in the *use site's*
        # lexical context, not the calling transformer's. This is what makes
        # local-expand "compose with other macros" (§8.1).
        intro = self._intro_stack[-1] if self._intro_stack else None
        if intro is not None:
            stx = stx.flip_scope(intro)
        if context == "module-begin":
            result = self.expand_module_begin(stx, phase)
        else:
            stop: Optional[frozenset] = None
            if stop_ids:
                keys = []
                for ident in stop_ids:
                    binding = resolve(ident, phase)
                    if binding is not None:
                        keys.append(binding.key())
                stop = frozenset(keys)
            result = self.expand_expr(stx, phase, stop)
        if intro is not None:
            result = result.flip_scope(intro)
        return result

