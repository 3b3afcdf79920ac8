"""Tests for the ``#lang`` import hook (:mod:`repro.importer`).

``import myapp.rules`` must resolve ``myapp/rules.rkt`` through the
registry, IR pipeline, and artifact cache: provides appear as module
attributes, compile errors raise ImportError chains that preserve stable
diagnostic codes, warm-cache re-imports perform zero expansions and zero
codegen, budgets bound hostile modules, and concurrent imports yield one
module instance.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import threading

import pytest

from repro import Runtime
from repro.errors import CompilationFailed, UnboundIdentifierError
from repro.importer import (
    ReproImportError,
    install,
    installed,
    python_name,
    uninstall,
)

BACKENDS = ("interp", "pyc")

LIB_RKT = """#lang racket
(define answer 42)
(define (double x) (* 2 x))
(define (make-adder n) (lambda (x) (+ x n)))
(define shared-box (box 0))
(provide answer double make-adder shared-box)
"""

VIA_RKT = """#lang racket
(require "lib.rkt")
(define via-box shared-box)
(define (quadruple x) (double (double x)))
(provide via-box quadruple)
"""


@pytest.fixture()
def project(tmp_path, monkeypatch):
    """A package directory with #lang files, on sys.path, hook installed."""
    pkg = tmp_path / "app"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "lib.rkt").write_text(LIB_RKT)
    (pkg / "via.rkt").write_text(VIA_RKT)
    monkeypatch.syspath_prepend(str(tmp_path))
    yield pkg
    uninstall()
    for name in [m for m in sys.modules if m == "app" or m.startswith("app.")]:
        del sys.modules[name]


def hook(project, **kwargs):
    kwargs.setdefault("cache_dir", str(project.parent / "zo-cache"))
    return install(**kwargs)


class TestImportBasics:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_provides_are_module_attributes(self, project, backend):
        finder = hook(project, backend=backend)
        lib = importlib.import_module("app.lib")
        assert lib.answer == 42
        assert lib.double(21) == 42
        assert lib.__language__ == "racket"
        assert lib.__provides__ == ["answer", "double", "make-adder",
                                    "shared-box"]
        assert lib.__file__.endswith("lib.rkt")
        assert finder.context.runtime.backend == backend

    def test_dashed_names_get_underscore_aliases(self, project):
        hook(project)
        lib = importlib.import_module("app.lib")
        assert getattr(lib, "make-adder") is lib.make_adder
        add5 = lib.make_adder(5)
        assert add5(3) == 8  # returned closures stay Python-callable

    def test_require_and_import_share_one_instance(self, project):
        hook(project)
        lib = importlib.import_module("app.lib")
        via = importlib.import_module("app.via")
        # the box reached through `require` is the box reached through
        # `import`: one module instance in one shared namespace
        assert via.via_box is lib.shared_box
        assert via.quadruple(3) == 12

    def test_python_module_wins_over_rkt(self, project):
        (project / "dual.py").write_text("WHO = 'python'\n")
        (project / "dual.rkt").write_text("#lang racket\n(define who 1)\n(provide who)\n")
        hook(project)
        dual = importlib.import_module("app.dual")
        assert dual.WHO == "python"

    def test_missing_module_still_not_found(self, project):
        hook(project)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("app.nothing")

    def test_unknown_attribute_message_lists_provides(self, project):
        hook(project)
        lib = importlib.import_module("app.lib")
        with pytest.raises(AttributeError, match="make-adder"):
            lib.no_such_export

    def test_activate_installs_default_hook(self, project, monkeypatch):
        uninstall()
        sys.modules.pop("repro.activate", None)
        monkeypatch.chdir(project.parent)  # default cache dir lands in tmp
        import repro.activate as activate

        assert activate.finder is installed()
        uninstall()
        sys.modules.pop("repro.activate", None)


class TestImportErrors:
    def test_compile_error_raises_importerror_chain(self, project):
        (project / "bad.rkt").write_text(
            "#lang racket\n(displayln undefined-name)\n"
        )
        hook(project)
        with pytest.raises(ReproImportError) as excinfo:
            importlib.import_module("app.bad")
        err = excinfo.value
        assert err.code == "E002"
        assert isinstance(err.__cause__, UnboundIdentifierError)
        assert err.__cause__.code == "E002"
        assert err.name == "app.bad"
        assert err.path.endswith("bad.rkt")
        assert err.diagnostics and err.diagnostics[0].code == "E002"

    def test_multi_error_compilation_preserves_codes(self, project):
        (project / "worse.rkt").write_text(
            "#lang racket\n(displayln one-missing)\n(displayln two-missing)\n"
        )
        hook(project)
        with pytest.raises(ReproImportError) as excinfo:
            importlib.import_module("app.worse")
        err = excinfo.value
        assert isinstance(err.__cause__, CompilationFailed)
        assert err.code == "E002"
        assert len([d for d in err.diagnostics if d.severity == "error"]) == 2
        assert err.srcloc is not None and err.srcloc.line == 2

    def test_type_error_code_survives(self, project):
        (project / "typed_bad.rkt").write_text(
            '#lang typed\n(: x Integer)\n(define x "not an integer")\n'
        )
        hook(project)
        with pytest.raises(ReproImportError) as excinfo:
            importlib.import_module("app.typed_bad")
        assert excinfo.value.code.startswith("T")

    def test_failed_import_can_be_retried_after_fix(self, project):
        bad = project / "fixme.rkt"
        bad.write_text("#lang racket\n(displayln missing)\n")
        hook(project)
        with pytest.raises(ImportError):
            importlib.import_module("app.fixme")
        bad.write_text("#lang racket\n(define ok 1)\n(provide ok)\n")
        fixed = importlib.import_module("app.fixme")
        assert fixed.ok == 1

    def test_macro_only_export_explains_itself(self, project):
        (project / "macros.rkt").write_text(
            "#lang racket\n"
            "(define-syntax twice (syntax-rules () [(_ e) (begin e e)]))\n"
            "(define plain 5)\n"
            "(provide twice plain)\n"
        )
        hook(project)
        mod = importlib.import_module("app.macros")
        assert mod.plain == 5
        with pytest.raises(AttributeError, match="macro"):
            mod.twice


class TestImportBudget:
    def test_hostile_module_dies_with_g_code(self, project):
        (project / "hang.rkt").write_text(
            "#lang racket\n(define (loop) (loop))\n(loop)\n"
        )
        hook(project, budget={"steps": 50_000})
        with pytest.raises(ReproImportError) as excinfo:
            importlib.import_module("app.hang")
        assert excinfo.value.code == "G001"

    def test_budget_is_fresh_per_import(self, project):
        # two imports that each fit the budget individually must both pass
        hook(project, budget={"steps": 50_000})
        lib = importlib.import_module("app.lib")
        via = importlib.import_module("app.via")
        assert lib.answer == 42 and via.quadruple(1) == 4


    @pytest.mark.parametrize("backend", BACKENDS)
    def test_budget_ends_with_the_import(self, project, backend):
        """The import's budget governs the import, not later calls of what
        it provides: five loops of 400 steps each run to completion under
        a 1000-step import budget on both backends."""
        (project / "spin.rkt").write_text(
            "#lang racket\n(define (spin n)\n"
            "  (let loop ([i 0]) (if (< i n) (loop (+ i 1)) i)))\n"
            "(provide spin)\n"
        )
        install(Runtime(cache=False, backend=backend), budget={"steps": 1000})
        mod = importlib.import_module("app.spin")
        assert [mod.spin(400) for _ in range(5)] == [400] * 5

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_allocation_budget_ends_with_the_import(self, project, backend):
        """Allocation charges go to the guard active at the call too: a
        provide that conses 300 pairs runs after an import whose budget
        allowed 100 allocations."""
        (project / "build.rkt").write_text(
            "#lang racket\n(define (build n)\n"
            "  (if (= n 0) '() (cons n (build (- n 1)))))\n"
            "(provide build)\n"
        )
        install(Runtime(cache=False, backend=backend),
                budget={"allocations": 100})
        mod = importlib.import_module("app.build")
        assert len(list(mod.build(300))) == 300


class TestWarmImports:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warm_reimport_zero_expansions_zero_codegen(
        self, project, backend
    ):
        cache_dir = str(project.parent / "zo-cache")
        with Runtime(cache_dir=cache_dir, backend=backend) as rt_cold:
            install(rt_cold)
            importlib.import_module("app.lib")
            assert rt_cold.stats.expansion_steps > 0
            assert rt_cold.stats.cache_stores >= 1
        uninstall()
        del sys.modules["app.lib"]
        # a fresh Runtime simulates a new process sharing the cache dir
        with Runtime(cache_dir=cache_dir, backend=backend) as rt_warm:
            install(rt_warm)
            lib = importlib.import_module("app.lib")
            assert lib.double(21) == 42
            assert rt_warm.stats.expansion_steps == 0
            assert rt_warm.stats.pyc_codegens == 0
            assert rt_warm.stats.cache_hits >= 1

    def test_edited_file_invalidates_warm_import(self, project):
        cache_dir = str(project.parent / "zo-cache")
        with Runtime(cache_dir=cache_dir) as rt1:
            install(rt1)
            assert importlib.import_module("app.lib").answer == 42
        uninstall()
        del sys.modules["app.lib"]
        (project / "lib.rkt").write_text(LIB_RKT.replace("42", "43"))
        with Runtime(cache_dir=cache_dir) as rt2:
            install(rt2)
            lib = importlib.import_module("app.lib")
            assert lib.answer == 43
            assert rt2.stats.expansion_steps > 0  # really recompiled


class TestImportObservability:
    def test_import_spans_on_the_bus(self, project):
        rt = Runtime(trace=True, cache_dir=str(project.parent / "zo-cache"))
        install(rt)
        importlib.import_module("app.lib")
        events = [e for e in rt.tracer.events if e.category == "import"]
        assert any(e.name == "app.lib" for e in events)
        assert any(e.name in ("cold", "warm") for e in events)
        rt.close()

    def test_bom_file_imports(self, project):
        # ties the reader BOM fix to the import path end to end
        (project / "bommed.rkt").write_text(
            "\ufeff#lang racket\n(define ok 7)\n(provide ok)\n"
        )
        hook(project)
        assert importlib.import_module("app.bommed").ok == 7


class TestImportConcurrency:
    def test_concurrent_imports_one_instance(self, project):
        hook(project)
        results: list = []
        errors: list = []
        barrier = threading.Barrier(8)

        def worker(name: str) -> None:
            try:
                barrier.wait(timeout=30)
                results.append(importlib.import_module(name))
            except BaseException as err:  # noqa: BLE001 - collected for assert
                errors.append(err)

        threads = [
            threading.Thread(target=worker,
                             args=("app.lib" if i % 2 else "app.via",))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        libs = {id(m) for m in results if m.__name__ == "app.lib"}
        vias = {id(m) for m in results if m.__name__ == "app.via"}
        assert len(libs) == 1 and len(vias) == 1
        lib = sys.modules["app.lib"]
        via = sys.modules["app.via"]
        assert via.via_box is lib.shared_box

    def test_two_processes_share_one_cache_dir(self, project):
        """Two concurrent importing processes against one cache directory
        must both succeed (per-artifact locks serialize the writers)."""
        cache_dir = str(project.parent / "zo-cache")
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.importer import install\n"
            "install(cache_dir=sys.argv[2])\n"
            "import app.lib\n"
            "assert app.lib.double(21) == 42\n"
            "print('ok')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.pathsep.join(p for p in (
                os.path.join(os.path.dirname(__file__), "..", "src"),
                env.get("PYTHONPATH"),
            ) if p)
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(project.parent), cache_dir],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            )
            for _ in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
            assert out.decode().strip() == "ok"


class TestPythonNameMapping:
    def test_python_name_translation(self):
        assert python_name("make-adder") == "make_adder"
        assert python_name("null?") == "null_p"
        assert python_name("set-box!") == "set_box_bang"

    def test_uninstall_is_idempotent(self):
        uninstall()
        assert uninstall() is False
        assert installed() is None
