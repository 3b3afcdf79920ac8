"""``typed``: the full typed sister language used by the benchmarks.

Everything ``simple-type`` does (annotation forms, fig. 2 driver, §5 type
persistence, §6 safe interop) plus the §4.4 scaling: a two-pass checker with
mutual recursion, ``(: name type)`` declarations, a richer type grammar
(unions, containers, overloads), and the §7.2 optimizer with float, fixnum,
pair, vector, and float-complex specialization.
"""

from __future__ import annotations

from typing import Optional

from repro.expander.env import ExpandContext
from repro.langs.racket import make_racket_language
from repro.langs.simple_type.forms import install_forms as install_annotation_forms
from repro.langs.simple_type.module_begin import install_module_begin
from repro.langs.typed.base_env import install_base_type_env
from repro.langs.typed.checker import FullChecker
from repro.langs.typed.forms import install_typed_forms
from repro.langs.typed.structs import install_typed_structs
from repro.langs.typed.optimizer import FullOptimizer
from repro.modules.registry import Language, ModuleRegistry


def _optimizer_factory(ctx: ExpandContext) -> Optional[FullOptimizer]:
    # an empty rule set is the typed/no-opt configuration: no pass at all
    rules = ctx.registry.optimizer_rules
    return FullOptimizer(ctx, rules) if rules else None


def make_typed_language(registry: ModuleRegistry) -> Language:
    racket = registry.languages.get("racket")
    if racket is None:
        racket = make_racket_language(registry)
    lang = Language("typed")
    lang.inherit(racket, exclude=("#%module-begin", "define", "struct", "define-struct"))
    install_annotation_forms(lang)
    install_typed_forms(lang)
    install_typed_structs(lang)
    install_module_begin(
        lang,
        checker_factory=FullChecker,
        optimizer_factory=_optimizer_factory,
        base_env_installer=install_base_type_env,
    )
    registry.register_language(lang)
    registry.languages["typed/racket"] = lang  # the paper's `#lang typed/racket`
    return lang
