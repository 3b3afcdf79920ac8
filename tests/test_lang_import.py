"""A module's ``#lang`` import is one bulk entry on its module scope.

The language's exports (at phases 0 and 1, and the kernel's at phase 1)
are not copied name by name into each module: the module scope holds one
:class:`~repro.syn.binding.BulkImport` of the language's tables, its own
definitions and requires shadow it name by name, and an artifact names the
language instead of carrying its bindings.
"""

from __future__ import annotations

import os

import pytest

from repro import Runtime
from repro.errors import UnboundIdentifierError
from repro.expander.env import ExpandContext
from repro.modules.registry import Language
from tests.test_cache import run_in_fresh_process

BACKENDS = ("interp", "pyc")

#: the match-ext program of the benchmarks' compile-cold workload
MATCH_PROGRAM = """#lang racket/match-ext
(define-match-expander point
  (syntax-rules () [(_ x y) (list 'point x y)]))
(define (step v)
  (match v
    [(list 'add a b) (+ a b)]
    [(list 'sub a b) (- a b)]
    [(list 'mul a b) (* a b)]
    [(cons 'neg r) (- 0 (car r))]
    [(point x y) (+ x y)]
    [(vector a b) (* a b)]
    [(vector a b c) (+ a (* b c))]
    [_ 0]))
(define (loop i acc)
  (if (= i 0)
      acc
      (loop (- i 1)
            (+ acc
               (step (list 'add i 1))
               (step (list 'mul i 2))
               (step (list 'point i i))
               (step (vector i 7))
               (step (vector i i i))))))
(displayln (loop 1500 0))
"""

#: MATCH_PROGRAM's artifact size in bytes under format v8, which copied
#: the language's 324 exports at two phases onto its module scope
V8_ARTIFACT_BYTES = {"interp": 35_874, "pyc": 53_450}

MATCH_LIB = """#lang racket/match-ext
(define-match-expander point
  (syntax-rules () [(_ x y) (list 'point x y)]))
(define (norm-sq p)
  (match p [(point x y) (+ (* x x) (* y y))] [_ 'not-a-point]))
(define-syntax point-sum
  (syntax-rules () [(_ p) (match p [(point x y) (+ x y)] [_ 0])]))
(provide point norm-sq point-sum)
"""

MATCH_CLIENT = """#lang racket/match-ext
(require "mlib")
(define (swap p) (match p [(point x y) (list 'point y x)] [_ #f]))
(displayln (swap (list 'point 1 2)))
(displayln (norm-sq (list 'point 3 4)))
(displayln (point-sum (list 'point 5 6)))
"""


@pytest.fixture()
def scopes_by_module(monkeypatch):
    """The module scope of every compile started while the fixture is
    active, by module path (held strongly, so they outlive the compile)."""
    scopes: dict = {}
    init = ExpandContext.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        scopes[self.module_path] = self.module_scope

    monkeypatch.setattr(ExpandContext, "__init__", recording_init)
    return scopes


def _entries(scope) -> dict:
    return {(sym.name, phase): len(entries)
            for (sym, phase), entries in (scope.bindings or {}).items()}


@pytest.mark.parametrize("backend", BACKENDS)
def test_module_scope_holds_only_its_own_definitions_and_requires(
    backend, scopes_by_module
):
    with Runtime(backend=backend) as rt:
        rt.register_module("lib", "#lang racket\n(define x 1)\n(provide x)\n")
        rt.register_module("m", (
            "#lang racket\n"
            '(require "lib")\n'
            "(define a 1)\n"
            "(define (car p) 'mine)\n"  # shadows the #lang's car
            "(define-syntax twice (syntax-rules () [(_ e) (+ e e)]))\n"
            "(displayln (list (twice (+ a x)) (car 0) (cdr (cons 1 2))))\n"
        ))
        assert rt.run("m") == "(4 mine 2)\n"
        racket = rt.registry.language("racket")
        scope = scopes_by_module["m"]
        assert _entries(scope) == {
            ("x", 0): 1, ("a", 0): 1, ("car", 0): 1, ("twice", 0): 1,
        }
        assert scope.bulk[1] is racket.bulk
        assert _entries(scopes_by_module["lib"]) == {("x", 0): 1}
        # the language's anchor scope imports its exports the same way
        assert racket.scope.bindings is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_kernel_only_name_is_bound_at_phase_1_only(backend):
    with Runtime(backend=backend) as rt:
        slim = Language("slim")
        slim.inherit(rt.registry.language("racket"), exclude=("string-length",))
        rt.registry.register_language(slim)
        rt.register_module("m", (
            "#lang slim\n"
            '(define-syntax (len stx) (datum->syntax stx (string-length "abcd")))\n'
            "(displayln (len))\n"
        ))
        assert rt.run("m") == "4\n"
        rt.register_module("m0", '#lang slim\n(displayln (string-length "ab"))\n')
        with pytest.raises(UnboundIdentifierError, match="string-length"):
            rt.compile("m0")


@pytest.mark.parametrize("backend", BACKENDS)
def test_match_ext_artifact_is_at_most_half_its_v8_size(backend, tmp_path):
    cache = str(tmp_path / "cache")
    with Runtime(cache_dir=cache, backend=backend) as rt:
        rt.register_module("match", MATCH_PROGRAM)
        rt.compile("match")
    (artifact,) = [name for name in os.listdir(cache) if name.endswith(".zo")]
    size = os.path.getsize(os.path.join(cache, artifact))
    assert size <= V8_ARTIFACT_BYTES[backend] // 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_match_expander_resolves_from_the_artifact_in_a_fresh_process(
    backend, tmp_path, monkeypatch
):
    cache = str(tmp_path / "cache")
    with Runtime(cache_dir=cache, backend=backend) as rt:
        rt.register_module("mlib", MATCH_LIB)
        rt.compile("mlib")
        assert rt.stats.cache_stores == 1
    monkeypatch.setenv("REPRO_BACKEND", backend)
    result = run_in_fresh_process(cache, "client", mlib=MATCH_LIB, client=MATCH_CLIENT)
    # point-sum's template names `match` and `+` in the library's module
    # scope: they resolve through its bulk import, loaded from the artifact
    assert result == {"out": "(point 2 1)\n25\n11\n", "hits": 1, "misses": 1}
