"""Tests for the dialect layer (:mod:`repro.dialects`).

A dialect is a registered whole-module rewrite that runs on reader
output — after the ``#lang`` line is parsed, before module scopes are
added and before any macro expansion. Covers: ``#lang`` spec resolution
(implicit language dialects, explicit ``+``-stacking, dedup, D001),
dialect identity in the artifact-cache key, ``dialect.*`` spans on the
observe bus, D-coded diagnostics with pre-rewrite srclocs, warm starts
that skip the rewrite entirely, budget governance, user-registered
dialects, and transparency under ``compile_graph`` and the import hook.
"""

from __future__ import annotations

import importlib
import sys

import pytest

from repro import Runtime
from repro.dialects import Dialect, apply_dialects
from repro.errors import BudgetExhausted, DialectError
from repro.importer import install, uninstall
from repro.reader.reader import read_string_all
from repro.runtime.values import Symbol
from repro.syn.syntax import Syntax

INFIX_MOD = """#lang racket/infix
(define-op ^ 8 right expt)
(define x {1 + 2 * 3})
(displayln {x ^ 2})
"""


class TestSpecResolution:
    def test_plain_language_has_no_dialects(self):
        with Runtime(cache=False) as rt:
            lang, dialects = rt.registry.resolve_lang_spec("racket")
            assert lang.name == "racket"
            assert dialects == ()

    def test_language_with_implicit_dialect(self):
        with Runtime(cache=False) as rt:
            lang, dialects = rt.registry.resolve_lang_spec("racket/infix")
            assert lang.name == "racket/infix"
            assert [d.name for d in dialects] == ["infix"]

    def test_explicit_stacking(self):
        with Runtime(cache=False) as rt:
            lang, dialects = rt.registry.resolve_lang_spec("racket+infix")
            assert lang.name == "racket"
            assert [d.name for d in dialects] == ["infix"]

    def test_stacking_on_other_languages(self):
        with Runtime(cache=False) as rt:
            lang, dialects = rt.registry.resolve_lang_spec("typed+infix")
            assert lang.name == "typed"
            assert [d.name for d in dialects] == ["infix"]

    def test_duplicate_dialects_are_deduped(self):
        with Runtime(cache=False) as rt:
            # racket/infix already carries the infix dialect implicitly
            _, dialects = rt.registry.resolve_lang_spec("racket/infix+infix")
            assert [d.name for d in dialects] == ["infix"]

    def test_unknown_dialect_is_d001(self):
        with Runtime(cache=False) as rt:
            with pytest.raises(DialectError) as exc_info:
                rt.registry.resolve_lang_spec("racket+mystery")
            assert exc_info.value.code == "D001"

    def test_malformed_spec_is_d001(self):
        with Runtime(cache=False) as rt:
            with pytest.raises(DialectError) as exc_info:
                rt.registry.resolve_lang_spec("racket++infix")
            assert exc_info.value.code == "D001"

    def test_exact_language_name_wins_over_splitting(self):
        """A registered language whose *name* contains `+` resolves as
        itself — splitting only applies to unregistered specs."""
        from repro.modules.registry import Language

        with Runtime(cache=False) as rt:
            racket = rt.registry.language("racket")
            weird = Language("a+b")
            weird.inherit(racket)
            rt.registry.register_language(weird)
            lang, dialects = rt.registry.resolve_lang_spec("a+b")
            assert lang.name == "a+b" and dialects == ()


class TestStackedCompilation:
    def test_plus_spec_compiles_end_to_end(self):
        src = "#lang racket+infix\n(displayln {6 * 7})\n"
        with Runtime(cache=False) as rt:
            assert rt.run_source(src, "<stacked>") == "42\n"

    def test_stack_on_typed_language(self):
        src = (
            "#lang typed+infix\n"
            "(: x Integer)\n"
            "(define x {40 + 2})\n"
            "(displayln x)\n"
        )
        with Runtime(cache=False) as rt:
            assert rt.run_source(src, "<typed-stacked>") == "42\n"


class TestCacheIdentity:
    @pytest.mark.parametrize("backend", ["interp", "pyc"])
    def test_dialect_module_warm_starts_with_zero_expansions(self, tmp_path, backend):
        cache = str(tmp_path / "cache")
        with Runtime(cache_dir=cache, backend=backend) as rt:
            rt.register_module("m", INFIX_MOD)
            assert rt.run("m") == "49\n"
            assert rt.stats.expansion_steps > 0
        with Runtime(cache_dir=cache, backend=backend) as rt2:
            rt2.register_module("m", INFIX_MOD)
            # warm: the artifact replays — no reread, no dialect rewrite,
            # no expansion, no codegen
            assert rt2.run("m") == "49\n"
            assert rt2.stats.expansion_steps == 0
            assert rt2.stats.pyc_codegens == 0
            assert rt2.stats.cache_hits >= 1
            assert rt2.stats.cache_misses == 0

    def test_cache_key_carries_dialect_tags(self):
        with Runtime(cache=False) as rt:
            reg = rt.registry
            assert reg.cache_lang_key("racket") == "racket"
            assert reg.cache_lang_key("racket/infix") == "racket/infix[infix@1]"
            assert (
                reg.cache_lang_key("typed+infix+match-ext")
                == "typed+infix+match-ext[infix@1,match-ext@1]"
            )

    def test_dialect_version_bump_changes_cache_key(self):
        with Runtime(cache=False) as rt:
            reg = rt.registry
            old = reg.cache_lang_key("racket+infix")

            class InfixV2(type(reg.dialect("infix"))):
                version = "2"

            reg.register_dialect(InfixV2())
            assert reg.cache_lang_key("racket+infix") != old


class TestObservability:
    def test_dialect_span_on_the_bus(self):
        with Runtime(trace=True, cache=False) as rt:
            rt.run_source(INFIX_MOD, "<traced>")
            spans = [e for e in rt.tracer.events if e.category == "dialect"]
            assert spans, "the dialect rewrite must be a span on the bus"
            assert any("infix" in e.name for e in spans)
            assert any(e.attrs.get("version") == "1" for e in spans)


class TestDiagnostics:
    def test_bad_define_op_is_d003_with_pre_rewrite_srcloc(self):
        src = "#lang racket/infix\n(define-op bad)\n"
        with Runtime(cache=False) as rt:
            with pytest.raises(DialectError) as exc_info:
                rt.run_source(src, "<bad-op>")
            err = exc_info.value
            assert err.code == "D003"
            # the srcloc points at the original source, line 2
            assert err.srcloc is not None and err.srcloc.line == 2

    def test_malformed_infix_is_d004(self):
        src = "#lang racket/infix\n(displayln {1 +})\n"
        with Runtime(cache=False) as rt:
            with pytest.raises(DialectError) as exc_info:
                rt.run_source(src, "<bad-infix>")
            assert exc_info.value.code == "D004"

    def test_crashing_dialect_is_wrapped_as_d002(self):
        class Exploding(Dialect):
            name = "exploding"
            version = "1"

            def rewrite(self, forms, path, session):
                raise ZeroDivisionError("boom")

        forms = read_string_all("(x)", "<d002>")
        with pytest.raises(DialectError) as exc_info:
            apply_dialects([Exploding()], forms, "<d002>", session=None)
        assert exc_info.value.code == "D002"
        assert "boom" in str(exc_info.value)


class TestUserDialects:
    def test_registered_dialect_composes_via_plus(self):
        class Doubler(Dialect):
            """Rewrites (answer) forms to (displayln 42)."""

            name = "answered"
            version = "1"

            def rewrite(self, forms, path, session):
                out = []
                for form in forms:
                    if (
                        isinstance(form.e, tuple)
                        and len(form.e) == 1
                        and form.e[0].is_identifier()
                        and form.e[0].e.name == "answer"
                    ):
                        head = Syntax(Symbol("displayln"), form.scopes,
                                      form.srcloc)
                        body = Syntax(42, form.scopes, form.srcloc)
                        form = Syntax((head, body), form.scopes, form.srcloc)
                    out.append(form)
                return out

        with Runtime(cache=False) as rt:
            rt.registry.register_dialect(Doubler())
            out = rt.run_source("#lang racket+answered\n(answer)\n", "<user>")
            assert out == "42\n"


class TestGovernance:
    def test_dialect_module_is_budget_killable(self):
        busy = (
            "#lang racket/infix\n"
            "(define (loop n acc) (if {n = 0} acc (loop {n - 1} {acc + n})))\n"
            "(displayln (loop 100000 0))\n"
        )
        with Runtime(budget={"steps": 50}, cache=False) as rt:
            with pytest.raises(BudgetExhausted) as exc_info:
                rt.run_source(busy, "<busy>")
            assert exc_info.value.code == "G001"


class TestLangsCLI:
    def test_text_listing(self, capsys):
        from repro.tools.runner import main

        assert main(["langs"]) == 0
        out = capsys.readouterr().out
        assert "languages:" in out and "dialects:" in out
        assert "racket/infix" in out and "racket/match-ext" in out
        assert "infix  version 1" in out

    def test_json_listing(self, capsys):
        import json

        from repro.tools.runner import main

        assert main(["langs", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-langs/1"
        by_name = {l["name"]: l for l in payload["languages"]}
        assert by_name["racket/infix"]["dialects"] == ["infix"]
        assert by_name["racket/match-ext"]["dialects"] == ["match-ext"]
        assert by_name["racket"]["dialects"] == []
        dialect_names = {d["name"] for d in payload["dialects"]}
        assert {"infix", "match-ext"} <= dialect_names
        # each registered spec appears exactly once
        names = [l["name"] for l in payload["languages"]]
        assert len(names) == len(set(names))

    def test_unknown_option_is_usage_error(self, capsys):
        from repro.tools.runner import main

        assert main(["langs", "--bogus"]) == 2


class TestTransparency:
    def test_compile_graph_handles_dialect_modules(self, tmp_path):
        lib = tmp_path / "ops.rkt"
        lib.write_text(
            "#lang racket/infix\n"
            "(define (area w h) {w * h})\n"
            "(provide area)\n",
            encoding="utf-8",
        )
        use = tmp_path / "use.rkt"
        use.write_text(
            '#lang racket\n(require "ops.rkt")\n(displayln (area 6 7))\n',
            encoding="utf-8",
        )
        with Runtime(cache_dir=str(tmp_path / "cache")) as rt:
            report = rt.compile_graph([str(lib), str(use)], jobs=2)
            assert report.ok, report.errors
            assert rt.run_file(str(use)) == "42\n"

    def test_import_hook_sees_dialect_modules(self, tmp_path, monkeypatch):
        pkg = tmp_path / "dialectapp"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "geometry.rkt").write_text(
            "#lang racket/infix\n"
            "(define (hypotenuse-sq a b) {a * a + b * b})\n"
            "(provide hypotenuse-sq)\n",
            encoding="utf-8",
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        install(cache_dir=str(tmp_path / "cache"))
        try:
            mod = importlib.import_module("dialectapp.geometry")
            fn = getattr(mod, "hypotenuse_sq", None) or getattr(
                mod, "hypotenuse-sq"
            )
            assert fn(3, 4) == 25
        finally:
            uninstall()
            for name in [m for m in sys.modules
                         if m.split(".")[0] == "dialectapp"]:
                del sys.modules[name]
