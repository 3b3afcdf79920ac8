"""``#lang racket/match-ext``: extensible pattern matching.

Elevates :mod:`repro.langs.racket.match` to the user-extensible protocol of
Tobin-Hochstadt's *Extensible Pattern Matching in an Extensible Language*:

- ``define-match-expander`` binds a *match expander* — a ``syntax-rules``
  rewrite applied to patterns, not expressions. A pattern whose head
  resolves to a match expander is rewritten and re-compiled, so user
  libraries extend the pattern language itself — and can shadow built-in
  pattern keywords such as ``?`` (heads that are also language imports,
  like ``vector``, keep their import binding).
- Clause compilation builds **decision trees**: adjacent clauses with the
  same root constructor (pair or fixed-length vector) share one root test
  and one field-binding step instead of re-testing per clause. The sharing
  is reported on the observe bus (``match-dtree`` coach events), and the
  output is plain core forms, so both the interp and pyc backends run it
  unchanged.
- The optimization coach also receives **exhaustiveness near-misses**: a
  ``match`` with no catch-all clause, or with clauses shadowed by an
  earlier catch-all, reports why the compiled tree may raise (or dead code
  survives) at runtime.

The companion :class:`MatchExtDialect` hoists ``define-match-expander``
forms above the rest of the body, so expanders may be defined *after*
their first head-position use — a whole-module reordering no single macro
could perform.

Match expanders survive separate compilation: ``define-match-expander``
expands to a ``define-syntaxes`` whose right-hand side rebuilds the
expander from the quoted ``syntax-rules`` form (via the
``make-match-expander`` primitive), so cached ``.zo`` artifacts replay it
like any other object-language macro, and :class:`MatchExpander` itself
pickles for directly-provided exports.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.dialects import Dialect
from repro.errors import SyntaxExpansionError
from repro.expander.env import TransformerMeaning, peek_context
from repro.langs.base import expand_with, fn_macro, rule_macro
from repro.langs.racket.match import _MatchCompiler
from repro.modules.registry import Language, ModuleRegistry
from repro.observe import current_recorder
from repro.runtime.primitives import primitive_table
from repro.runtime.values import Symbol
from repro.syn.binding import resolve
from repro.syn.syntax import Syntax, best_srcloc

#: bound recursion for expander-rewrites-to-expander chains
_MAX_EXPANSIONS = 100


class MatchExpander:
    """A pattern-position transformer bound by ``define-match-expander``.

    Wraps a :class:`~repro.expander.syntax_rules.SyntaxRulesTransformer`
    (already picklable), applied by the match compiler to the whole
    pattern form. Calling it as an ordinary macro — i.e. using the name
    in expression position — is a syntax error, which is how the match
    compiler distinguishes expanders from expression macros.
    """

    __slots__ = ("transformer",)

    def __init__(self, transformer: Any) -> None:
        self.transformer = transformer

    def expand_pattern(self, pattern: Syntax) -> Syntax:
        return self.transformer(pattern)

    def __call__(self, stx: Syntax) -> Syntax:
        raise SyntaxExpansionError(
            "match expander used outside a match pattern", stx
        )

    def __reduce__(self):
        return (MatchExpander, (self.transformer,))


def _make_match_expander(form: Any) -> MatchExpander:
    from repro.expander.syntax_rules import make_syntax_rules_transformer

    if not isinstance(form, Syntax):
        raise SyntaxExpansionError(
            "make-match-expander: expected a syntax-rules form"
        )
    return MatchExpander(make_syntax_rules_transformer(form))


#: the module path of match-ext's runtime support
MATCH_EXT_PATH = "#%match-ext"

#: the primitive that ``define-match-expander``'s right-hand side calls
MATCH_EXT_PRIMITIVES = primitive_table(
    {"make-match-expander": (_make_match_expander, 1, 1)}
)


class MatchExtDialect(Dialect):
    """Hoist ``define-match-expander`` forms to the front of the module.

    The expander's first pass partially expands forms in order, so a
    head-position ``match`` above a ``define-match-expander`` would
    otherwise compile before the expander exists. Hoisting (stable within
    each group) makes definition order irrelevant, like Racket's module
    pass separation does for ordinary macros.
    """

    name = "match-ext"
    version = "1"

    def rewrite(self, forms, path, session):
        defs = [f for f in forms if self._is_definer(f)]
        if not defs:
            return list(forms)
        return defs + [f for f in forms if not self._is_definer(f)]

    @staticmethod
    def _is_definer(form: Syntax) -> bool:
        e = form.e
        return (
            isinstance(e, tuple)
            and len(e) > 0
            and form.e[0].is_identifier()
            and form.e[0].e.name == "define-match-expander"
        )


class _ExtMatchCompiler(_MatchCompiler):
    """The base match compiler plus expander application and tree sharing."""

    def __init__(self, lang: Language) -> None:
        super().__init__(lang)
        self.rec = current_recorder()

    # -- extensibility: match expanders ------------------------------------

    def _expander_of(self, head: Syntax) -> Optional[MatchExpander]:
        if not head.is_identifier():
            return None
        try:
            binding = resolve(head, 0)
        except SyntaxExpansionError:
            return None
        if binding is None:
            return None
        ctx = peek_context()
        if ctx is None:
            return None
        meaning = ctx.meaning_of(binding)
        if isinstance(meaning, TransformerMeaning) and isinstance(
            meaning.value, MatchExpander
        ):
            return meaning.value
        return None

    def _normalize(self, pattern: Syntax) -> Syntax:
        """Apply match expanders at the pattern's head to a fixed point."""
        for _ in range(_MAX_EXPANSIONS):
            e = pattern.e
            if not (isinstance(e, tuple) and e):
                return pattern
            expander = self._expander_of(e[0])
            if expander is None:
                return pattern
            pattern = expander.expand_pattern(pattern)
        raise SyntaxExpansionError(
            "match: expander expansion did not terminate", pattern, code="E004"
        )

    def compile_pattern(
        self, subj: Syntax, pattern: Syntax, success: Syntax, fail: Syntax
    ) -> Syntax:
        return super().compile_pattern(subj, self._normalize(pattern), success, fail)

    # -- exhaustiveness reporting ------------------------------------------

    @staticmethod
    def _is_catch_all(pattern: Syntax) -> bool:
        return isinstance(pattern.e, Symbol)

    def compile(
        self, subject: Syntax, clauses: tuple[Syntax, ...], stx: Syntax
    ) -> Syntax:
        patterns = []
        for clause in clauses:
            if isinstance(clause.e, tuple) and len(clause.e) >= 2:
                patterns.append(self._normalize(clause.e[0]))
        if patterns and not self._is_catch_all(patterns[-1]):
            self.rec.opt_near_miss(
                "match-exhaustive",
                "match",
                "no catch-all clause: unmatched subjects raise at runtime",
                best_srcloc(stx),
            )
        for i, pattern in enumerate(patterns[:-1]):
            if self._is_catch_all(pattern):
                self.rec.opt_near_miss(
                    "match-exhaustive",
                    "match",
                    f"clause {i + 2} is unreachable: clause {i + 1} matches "
                    "everything",
                    best_srcloc(clauses[i + 1]),
                )
                break
        return super().compile(subject, clauses, stx)

    # -- decision trees: shared root tests across adjacent clauses ---------

    def _root_kind(self, pattern: Syntax) -> Optional[tuple]:
        e = pattern.e
        if not (isinstance(e, tuple) and e and e[0].is_identifier()):
            return None
        head = e[0].e.name
        if head == "list" and len(e) >= 2:
            return ("pair",)
        if head == "cons" and len(e) == 3:
            return ("pair",)
        if head == "vector":
            return ("vector", len(e) - 1)
        return None

    def _decompose_pair(self, pattern: Syntax) -> tuple[Syntax, Syntax]:
        """A pair-rooted pattern as (car pattern, cdr pattern)."""
        e = pattern.e
        if e[0].e.name == "cons":
            return e[1], e[2]
        rest = Syntax((e[0], *e[2:]), pattern.scopes, pattern.srcloc)
        return e[1], rest

    def compile_clauses(
        self, subj: Syntax, clauses: list[Syntax], stx: Syntax
    ) -> Syntax:
        if not clauses:
            return super().compile_clauses(subj, clauses, stx)
        clause = clauses[0]
        if not (isinstance(clause.e, tuple) and len(clause.e) >= 2):
            raise SyntaxExpansionError("match: bad clause", clause)
        first = self._normalize(clause.e[0])
        kind = self._root_kind(first)
        run: list[tuple[Syntax, Syntax]] = []  # (normalized pattern, clause)
        if kind is not None:
            for candidate in clauses:
                if not (
                    isinstance(candidate.e, tuple) and len(candidate.e) >= 2
                ):
                    break
                normalized = self._normalize(candidate.e[0])
                if self._root_kind(normalized) != kind:
                    break
                run.append((normalized, candidate))
        if len(run) < 2:
            return super().compile_clauses(subj, clauses, stx)

        rest = self.compile_clauses(subj, clauses[len(run):], stx)
        exit_id = self.fresh_id("match-exit")
        exit_call = expand_with(self.lang, "(#%plain-app fail)", fail=exit_id)
        self.rec.opt_fired(
            "match-dtree",
            "match",
            f"shared {kind[0]} test across {len(run)} clauses",
            best_srcloc(run[0][1]),
        )
        if kind[0] == "pair":
            tested = self._compile_pair_run(subj, run, exit_call)
        else:
            tested = self._compile_vector_run(subj, kind[1], run, exit_call)
        return expand_with(
            self.lang,
            "(let ((fail (#%plain-lambda () rest))) tested)",
            fail=exit_id,
            rest=rest,
            tested=tested,
        )

    def _chain(
        self,
        run: list[tuple[Syntax, Syntax]],
        exit_call: Syntax,
        compile_clause,
    ) -> Syntax:
        """Try each run clause in order inside the shared test's success arm."""
        inner = exit_call
        for normalized, clause in reversed(run):
            body = list(clause.e[1:])
            success = expand_with(self.lang, "(begin body ...)", body=body)
            if inner is exit_call:
                inner = compile_clause(normalized, success, exit_call)
            else:
                next_id = self.fresh_id("match-fail")
                next_call = expand_with(
                    self.lang, "(#%plain-app fail)", fail=next_id
                )
                matched = compile_clause(normalized, success, next_call)
                inner = expand_with(
                    self.lang,
                    "(let ((fail (#%plain-lambda () rest))) matched)",
                    fail=next_id,
                    rest=inner,
                    matched=matched,
                )
        return inner

    def _compile_pair_run(
        self, subj: Syntax, run: list[tuple[Syntax, Syntax]], exit_call: Syntax
    ) -> Syntax:
        head_id = self.fresh_id("match-car")
        tail_id = self.fresh_id("match-cdr")

        def compile_clause(pattern, success, fail):
            car_pat, cdr_pat = self._decompose_pair(pattern)
            inner = self.compile_pattern(tail_id, cdr_pat, success, fail)
            return self.compile_pattern(head_id, car_pat, inner, fail)

        chain = self._chain(run, exit_call, compile_clause)
        return expand_with(
            self.lang,
            "(if (#%plain-app pair? subj)"
            " (let ((h (#%plain-app unsafe-car subj)) (t (#%plain-app unsafe-cdr subj)))"
            " inner) fail)",
            subj=subj, h=head_id, t=tail_id, inner=chain, fail=exit_call,
        )

    def _compile_vector_run(
        self,
        subj: Syntax,
        arity: int,
        run: list[tuple[Syntax, Syntax]],
        exit_call: Syntax,
    ) -> Syntax:
        element_ids = [self.fresh_id(f"match-vec{i}") for i in range(arity)]

        def compile_clause(pattern, success, fail):
            inner = success
            for ident, sub in reversed(list(zip(element_ids, pattern.e[1:]))):
                inner = self.compile_pattern(ident, sub, inner, fail)
            return inner

        chain = self._chain(run, exit_call, compile_clause)
        binds = [
            expand_with(
                self.lang,
                "(x (#%plain-app unsafe-vector-ref subj (quote i)))",
                x=ident, subj=subj, i=Syntax(i),
            )
            for i, ident in enumerate(element_ids)
        ]
        return expand_with(
            self.lang,
            "(if (if (#%plain-app vector? subj)"
            "       (#%plain-app = (#%plain-app vector-length subj) (quote n))"
            "       (quote #f))"
            " (let (bind ...) inner) fail)",
            subj=subj, n=Syntax(arity), bind=binds, inner=chain, fail=exit_call,
        )


def make_match_ext_language(registry: ModuleRegistry) -> Language:
    racket = registry.language("racket")
    lang = Language("racket/match-ext", dialects=("match-ext",))
    lang.inherit(racket, exclude=("match",))
    for name, binding in registry.register_primitives(
        MATCH_EXT_PATH, MATCH_EXT_PRIMITIVES
    ).items():
        lang.export(name, binding)

    @fn_macro(lang, "match")
    def match(stx: Syntax, lang: Language) -> Syntax:
        items = stx.e
        if not (isinstance(items, tuple) and len(items) >= 3):
            raise SyntaxExpansionError("match: bad syntax", stx)
        return _ExtMatchCompiler(lang).compile(items[1], items[2:], stx)

    # the right-hand side re-evaluates on every visit (from source or from
    # a cached artifact), rebuilding the expander exactly like any other
    # object-language transformer
    rule_macro(
        lang,
        "define-match-expander",
        [(
            "(_ name rules)",
            "(define-syntaxes (name)"
            " (#%plain-app make-match-expander (quote-syntax rules)))",
        )],
    )

    registry.register_language(lang)
    registry.register_dialect(MatchExtDialect())
    return lang
