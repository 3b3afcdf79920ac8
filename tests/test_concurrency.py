"""Concurrency stress suite (parallel compilation against one cache).

N threads × M Runtimes compile an overlapping on-disk module graph against
a single shared artifact-cache directory. The pinned properties:

- **single writer per content hash** — across all concurrent Runtimes each
  artifact is stored exactly once; losers wait for the winner and load its
  artifact instead of duplicating the work;
- **flat bindings** — the bindings alive in the process return to their
  baseline count once every Runtime closes, no matter how the compiles
  interleaved (each module uses its predecessor's macro, so loads install
  bindings on scopes that several artifacts share);
- **no torn artifacts** — an injected crash mid-parallel-compile
  (``repro.faults``) leaves debris only in ``.tmp`` files; every committed
  ``.zo`` still verifies, and recovery recompiles cleanly;
- **parallel ≡ serial** — outputs and artifact bytes are identical to a
  one-Runtime serial compile, under both backends;
- **hash-seed independence** — artifact bytes do not depend on the
  process's ``PYTHONHASHSEED``;
- ``repro cache doctor`` is safe to run while compiles are in flight.
"""

from __future__ import annotations

import gc
import glob
import hashlib
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro import Runtime
from repro.faults import FaultPlan, FaultRule, InjectedCrash
from repro.modules.cache import ModuleCache


def write_graph(root, n: int) -> list[str]:
    """A diamond-layered module graph: ``m_i`` requires ``m_{i-1}`` and
    ``m_{i-2}``; every module provides a macro and a value, and ``f_i``
    uses its predecessor's macro."""
    os.makedirs(root, exist_ok=True)
    paths = []
    for i in range(n):
        deps = [j for j in (i - 1, i - 2) if j >= 0]
        requires = "\n".join(f'(require "m{j}.rkt")' for j in deps)
        terms = " ".join([str(i)] + [f"v{j}" for j in deps])
        source = (
            "#lang racket\n"
            f"{requires}\n"
            f"(define-syntax twice{i} (syntax-rules () [(_ e) (+ e e)]))\n"
            f"(define v{i} (+ {terms}))\n"
            f"(define (f{i} x) (twice{max(i - 1, 0)} (+ x v{i})))\n"
            f"(provide v{i} f{i} twice{i})\n"
        )
        path = os.path.join(str(root), f"m{i}.rkt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(source)
        paths.append(path)
    return paths


def graph_value(n: int) -> int:
    """The value of ``v_{n-1}`` in the graph above, computed in Python."""
    vs: list[int] = []
    for i in range(n):
        vs.append(i + sum(vs[j] for j in (i - 1, i - 2) if j >= 0))
    return vs[-1]


def write_top(root, n: int) -> str:
    top = os.path.join(str(root), "top.rkt")
    with open(top, "w", encoding="utf-8") as f:
        f.write(
            "#lang racket\n"
            f'(require "m{n - 1}.rkt")\n'
            f"(displayln (f{n - 1} 1))\n"
        )
    return top


def artifact_digests(cache_dir) -> dict[str, str]:
    """filename → sha256 for every committed artifact in ``cache_dir``."""
    digests = {}
    for path in glob.glob(os.path.join(str(cache_dir), "*.zo")):
        with open(path, "rb") as f:
            digests[os.path.basename(path)] = hashlib.sha256(f.read()).hexdigest()
    return digests


@pytest.fixture(params=["interp", "pyc"])
def backend(request):
    return request.param


N_MODULES = 7
N_THREADS = 4


class TestConcurrentRuntimes:
    def test_threads_by_runtimes_single_writer_flat_table(
        self, tmp_path, backend, live_bindings
    ):
        """The headline stress: N threads × N Runtimes, one cache dir."""
        paths = write_graph(tmp_path / "src", N_MODULES)
        top = write_top(tmp_path / "src", N_MODULES)
        expected = f"{2 * (1 + graph_value(N_MODULES))}\n"

        # serial reference run in its own cache
        with Runtime(cache_dir=str(tmp_path / "serial"), backend=backend) as rt:
            assert rt.run(rt.register_file(top)) == expected
        del rt
        serial_digests = artifact_digests(tmp_path / "serial")
        assert len(serial_digests) == N_MODULES + 1

        baseline = live_bindings()
        shared = str(tmp_path / "shared")
        barrier = threading.Barrier(N_THREADS)

        def run_threads(mains: list[str]) -> list[tuple[str, int]]:
            """Run ``mains[k]`` on thread k, each in its own Runtime on the
            shared cache; returns each thread's (output, stores)."""
            results: list[tuple[str, int]] = []
            errors: list[BaseException] = []

            def worker(main: str) -> None:
                try:
                    with Runtime(cache_dir=shared, backend=backend) as rt:
                        module = rt.register_file(main)
                        barrier.wait(timeout=30)
                        out = rt.run(module)
                        results.append((out, rt.stats.cache_stores))
                except BaseException as err:  # noqa: BLE001 - collected for assert
                    errors.append(err)

            threads = [threading.Thread(target=worker, args=(m,)) for m in mains]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert not errors, errors
            return results

        cold = run_threads([top] * N_THREADS)

        # every Runtime computed the same answer as the serial reference
        assert [out for out, _ in cold] == [expected] * N_THREADS

        # single writer per content hash: the graph has N+1 artifacts and
        # exactly N+1 stores happened across all four Runtimes combined —
        # contending writers waited for the winner instead of re-storing
        assert sum(stores for _, stores in cold) == N_MODULES + 1

        # no torn/odd artifacts: the shared cache holds exactly the serial
        # reference's artifacts, byte for byte
        assert artifact_digests(shared) == serial_digests

        # every Runtime closed → the live bindings are back to baseline
        assert live_bindings() == baseline

        # warm graph, no scope of it live: each thread compiles a new client
        # of the last module's macro, so the threads race to create the
        # graph's scopes from its artifacts, and every expansion resolves
        # through the bindings a load installed
        last = N_MODULES - 1
        clients = []
        for k in range(N_THREADS):
            client = tmp_path / "src" / f"client{k}.rkt"
            client.write_text(
                f'#lang racket\n(require "m{last}.rkt")\n(displayln (twice{last} {k}))\n',
                encoding="utf-8",
            )
            clients.append(str(client))
        warm = run_threads(clients)
        assert sorted(warm) == [(f"{2 * k}\n", 1) for k in range(N_THREADS)]
        assert live_bindings() == baseline

    def test_doctor_is_safe_mid_flight(self, tmp_path):
        """`repro cache doctor` while compiles are in flight: reports, never
        breaks the writers, and sweeps nothing that belongs to a live PID."""
        write_graph(tmp_path / "src", N_MODULES)
        top = write_top(tmp_path / "src", N_MODULES)
        shared = str(tmp_path / "shared")
        errors: list[BaseException] = []
        done = threading.Event()

        def worker() -> None:
            try:
                with Runtime(cache_dir=shared) as rt:
                    rt.run(rt.register_file(top))
            except BaseException as err:  # noqa: BLE001
                errors.append(err)
            finally:
                done.set()

        thread = threading.Thread(target=worker)
        thread.start()
        reports = []
        while not done.is_set():
            reports.append(ModuleCache(shared).doctor())
        thread.join(timeout=300)
        assert not errors, errors
        # doctor never swept an in-flight write or a live lock out from
        # under the compiling Runtime
        for report in reports:
            assert report["tmp_removed"] == []
            for _name, pid in report.get("tmp_live", []):
                assert pid == os.getpid()

    def test_injected_crash_leaves_no_torn_artifact(self, tmp_path):
        """A crash between artifact write and rename, injected into one of
        several concurrent compiles: the other Runtimes finish with the
        right answer, every *committed* artifact verifies, and the debris
        is a ``.tmp`` file for doctor — never a torn ``.zo``."""
        write_graph(tmp_path / "src", N_MODULES)
        top = write_top(tmp_path / "src", N_MODULES)
        expected = f"{2 * (1 + graph_value(N_MODULES))}\n"
        shared = str(tmp_path / "shared")
        outputs: list[str] = []
        crashes: list[BaseException] = []
        errors: list[BaseException] = []
        barrier = threading.Barrier(3)

        plan = FaultPlan(rules=[FaultRule("cache.replace", "crash", times=1)])

        def worker() -> None:
            rt = Runtime(cache_dir=shared)
            rt.cache.fault_plan = plan  # one plan shared by the three caches
            try:
                module = rt.register_file(top)
                barrier.wait(timeout=30)
                outputs.append(rt.run(module))
            except InjectedCrash as err:
                crashes.append(err)
            except BaseException as err:  # noqa: BLE001
                errors.append(err)
            finally:
                rt.close()

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)

        assert not errors, errors
        assert len(crashes) == 1  # the fault fired in exactly one Runtime
        assert outputs == [expected] * 2

        # recovery: a fresh Runtime over the same cache loads every
        # committed artifact without a single corruption diagnostic and
        # recompiles whatever the crash left unwritten
        with Runtime(cache_dir=shared) as rt:
            assert rt.run(rt.register_file(top)) == expected
            assert rt.cache.diagnostics == []

        # the crash debris (if the rename hadn't happened yet by the time
        # a surviving Runtime re-stored) is at worst a .tmp file owned by
        # this live process — doctor reports it and sweeps nothing
        report = ModuleCache(shared).doctor()
        assert report["tmp_removed"] == []
        for _name, pid in report.get("tmp_live", []):
            assert pid == os.getpid()

    def test_compile_graph_pool_matches_serial(self, tmp_path, backend):
        """`compile_graph(jobs=4)` — workers coordinating through the
        cache's cross-process protocol — produces byte-identical artifacts
        and the same report statuses as ``jobs=1``."""
        paths = write_graph(tmp_path / "src", N_MODULES)

        with Runtime(cache_dir=str(tmp_path / "serial"), backend=backend) as rt:
            serial = rt.compile_graph(paths, jobs=1)
        assert serial.ok

        with Runtime(cache_dir=str(tmp_path / "parallel"), backend=backend) as rt:
            parallel = rt.compile_graph(paths, jobs=4)
        assert parallel.ok
        assert (parallel.jobs, parallel.mode) == (4, "process")

        assert artifact_digests(tmp_path / "parallel") == artifact_digests(
            tmp_path / "serial"
        )
        assert set(serial.results) == set(parallel.results)

    def test_artifact_bytes_independent_of_dep_provenance(self, tmp_path, backend):
        """A module's artifact bytes must not depend on whether its deps
        were compiled in-memory by the same Runtime or loaded from cache
        by a fresh one — the situation every parallel worker is in.

        Regression: ``marshal`` chooses between writing a string and
        emitting a back-reference by object identity and interned-ness,
        which vary with process compile history; pyc units are now
        canonicalized before marshalling so the bytes are value-determined.
        """
        mods = {
            "m0.rkt": "#lang racket\n\n(define v0 (+ 7))\n"
                      "(define-syntax tw0 (syntax-rules () [(_ e) (+ e e)]))\n"
                      "(define (f0 x) (tw0 (+ x v0)))\n"
                      # a macro-defining macro: m3's macro template carries
                      # m0's and m3's scopes, so m3's artifact holds the
                      # bindings on both
                      "(define-syntax def-tw (syntax-rules ()\n"
                      "  [(_ name x) (define-syntax name\n"
                      "                (syntax-rules () [(_ e) (+ e x v0)]))]))\n"
                      "(provide v0 f0 def-tw)\n",
            "m1.rkt": '#lang racket/infix\n(require "m0.rkt")\n'
                      "(define v1 {7 + v0})\n(define (f1 x) (* x v1))\n"
                      "(provide v1 f1)\n",
            "m2.rkt": '#lang racket\n(require "m0.rkt")\n'
                      "(define v2 (+ 1 v0))\n(define (f2 x) (* x v2))\n"
                      "(define hidden2 37)\n(provide v2 f2)\n",
            "m3.rkt": '#lang racket/infix\n(require "m0.rkt")\n'
                      '(require "m1.rkt")\n(require "m2.rkt")\n'
                      "(define v3 {5 + v0 + v1 + v2})\n"
                      "(def-tw tw3 v3)\n"
                      "(define (f3 x) (* x (tw3 v3)))\n(provide v3 f3 tw3)\n",
        }
        src = tmp_path / "src"
        os.makedirs(src, exist_ok=True)
        paths = []
        for name, text in mods.items():
            path = src / name
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))

        one = str(tmp_path / "one")
        with Runtime(cache_dir=one, backend=backend) as rt:
            for path in paths:
                rt.compile(rt.register_file(path))

        split = str(tmp_path / "split")
        with Runtime(cache_dir=split, backend=backend) as rt:
            for path in paths[:3]:
                rt.compile(rt.register_file(path))
        del rt
        # no scope of the compiles above may outlive them: the loads below
        # must create every scope, and its bindings, from the artifacts
        gc.collect()
        with Runtime(cache_dir=split, backend=backend) as rt:
            rt.compile(rt.register_file(paths[3]))

        assert artifact_digests(one) == artifact_digests(split)


#: compiles the modules named on stdin, in order, into a cache directory
COMPILE_IN_FRESH_PROCESS = """
import json, sys
from repro import Runtime

spec = json.load(sys.stdin)
with Runtime(cache_dir=spec["cache"], backend=spec["backend"]) as rt:
    for path in spec["paths"]:
        rt.compile(rt.register_file(path))
"""

HASH_SEED_MODULES = {
    "lib.rkt": "#lang racket\n"
               "(define base 7)\n"
               # a macro-defining macro: its template's scopes and bindings
               # land in every client's artifact
               "(define-syntax def-adder (syntax-rules ()\n"
               "  [(_ name k) (define-syntax name\n"
               "                (syntax-rules () [(_ e) (+ e k base)]))]))\n"
               "(define (scale v) (* v 2))\n"
               "(provide base def-adder scale)\n",
    "typed.rkt": "#lang typed\n"
                 "(: norm (Float Float -> Float))\n"
                 "(define (norm x y) (sqrt (+ (* x x) (* y y))))\n"
                 "(: total ((Listof Float) -> Float))\n"
                 "(define (total xs) (if (null? xs) 0.0 (+ (car xs) (total (cdr xs)))))\n"
                 "(provide norm total)\n",
    "infix.rkt": '#lang racket/infix\n(require "lib.rkt")\n(require "typed.rkt")\n'
                 "(define-op ^ 8 right expt)\n"
                 "(def-adder add3 3)\n"
                 "(define v {base * 2 ^ 3 + 1})\n"
                 "(define (f x) {(add3 x) * (scale v)})\n"
                 "(displayln (list (f 2) (norm 3.0 4.0) (total (list 1.5 2.5))))\n"
                 "(provide f)\n",
}


def test_artifact_bytes_independent_of_hash_seed(tmp_path, backend):
    """Two fresh processes under different ``PYTHONHASHSEED``s compile the
    same modules into byte-identical artifacts: no set or dict iteration
    order reaches the bytes."""
    import repro

    src = tmp_path / "src"
    os.makedirs(src)
    paths = []
    for name, text in HASH_SEED_MODULES.items():
        (src / name).write_text(text, encoding="utf-8")
        paths.append(str(src / name))
    digests = []
    for seed in ("1", "2"):
        cache = str(tmp_path / f"cache-{seed}")
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", COMPILE_IN_FRESH_PROCESS],
            input=json.dumps({"cache": cache, "backend": backend, "paths": paths}),
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(artifact_digests(cache))
    assert len(digests[0]) == len(HASH_SEED_MODULES)
    assert digests[0] == digests[1]


TYPED_LIB = """#lang typed
(: scale (Float -> Float))
(define (scale x) (* x 2.5))
(provide scale)
"""

TYPED_MAIN = """#lang typed
(require "lib.rkt")
(define (f [x : Float] [y : Float]) : Float (+ (scale x) y))
(displayln (f 1.5 2.0))
"""

#: two compile profiles: the default, and the paper's typed/no-opt
#: configuration compiled without primitive inlining
PROFILES = {
    "default": {},
    "lean": {"optimizer_rules": frozenset(), "inline_primitives": False},
}

RUN_COUNTERS = ("generic_dispatches", "tag_checks", "unsafe_ops", "contract_checks")


def write_typed_graph(root, n: int) -> list[str]:
    """Typed modules ``t_i`` requiring ``t_{i-1}`` and ``t_{i-2}``, each
    with Float arithmetic the optimizer specializes."""
    os.makedirs(root, exist_ok=True)
    paths = []
    for i in range(n):
        deps = [j for j in (i - 1, i - 2) if j >= 0]
        requires = "\n".join(f'(require "t{j}.rkt")' for j in deps)
        body = " ".join([f"(* x {i}.5)"] + [f"(g{j} x)" for j in deps])
        source = (
            "#lang typed\n"
            f"{requires}\n"
            f"(define (g{i} [x : Float]) : Float (+ 1.0 {body}))\n"
            f"(provide g{i})\n"
        )
        path = os.path.join(str(root), f"t{i}.rkt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(source)
        paths.append(path)
    return paths


class TestCompileProfiles:
    """Runtimes with different compile profiles on one cache dir."""

    def test_two_profiles_share_one_cache(self, tmp_path, backend):
        src = tmp_path / "src"
        os.makedirs(src)
        (src / "lib.rkt").write_text(TYPED_LIB, encoding="utf-8")
        main = str(src / "main.rkt")
        with open(main, "w", encoding="utf-8") as f:
            f.write(TYPED_MAIN)

        def compile_and_run(rt: Runtime) -> tuple[str, dict, int]:
            module = rt.register_file(main)
            rt.compile(module)
            stores = rt.stats.cache_stores
            rt.stats.reset()
            out = rt.run(module)
            snap = rt.stats.snapshot()
            return out, {c: snap[c] for c in RUN_COUNTERS}, stores

        reference = {}
        for name, profile in PROFILES.items():
            with Runtime(cache=False, backend=backend, **profile) as rt:
                reference[name] = compile_and_run(rt)[:2]
        assert reference["default"][1]["generic_dispatches"] == 0
        assert reference["lean"][1]["generic_dispatches"] > 0

        shared = str(tmp_path / "shared")
        results: dict[str, tuple] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(PROFILES))

        def worker(name: str) -> None:
            try:
                with Runtime(cache_dir=shared, backend=backend, **PROFILES[name]) as rt:
                    barrier.wait(timeout=30)
                    results[name] = compile_and_run(rt)
            except BaseException as err:  # noqa: BLE001 - collected for assert
                errors.append(err)

        threads = [threading.Thread(target=worker, args=(n,)) for n in PROFILES]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors, errors

        for name in PROFILES:
            out, counters, stores = results[name]
            assert (out, counters) == reference[name]
            # each profile stores its own two artifacts, each exactly once
            assert stores == 2
        assert len(artifact_digests(shared)) == 2 * len(PROFILES)

    def test_compile_graph_workers_carry_the_profile(self, tmp_path):
        paths = write_typed_graph(tmp_path / "src", 5)
        noopt = {"optimizer_rules": frozenset()}

        with Runtime(cache_dir=str(tmp_path / "serial"), **noopt) as rt:
            assert rt.compile_graph(paths, jobs=1).ok
        with Runtime(cache_dir=str(tmp_path / "parallel"), **noopt) as rt:
            assert rt.compile_graph(paths, jobs=4).ok

        serial = artifact_digests(tmp_path / "serial")
        assert len(serial) == len(paths)
        assert artifact_digests(tmp_path / "parallel") == serial


class TestForkedWorkers:
    def test_child_does_not_inherit_in_flight_claims(self):
        """A ``compile_graph`` worker forked while a parent thread holds the
        in-flight lock, or has a claim registered, starts with neither: the
        parent's threads do not exist in the child to release them."""
        from repro.modules import cache

        with cache._INFLIGHT_LOCK:
            cache._INFLIGHT["<parent-claim>"] = threading.Event()
            pid = os.fork()
            if pid == 0:  # the child: report, never return into pytest
                clean = not cache._INFLIGHT_LOCK.locked() and not cache._INFLIGHT
                os._exit(0 if clean else 1)
            del cache._INFLIGHT["<parent-claim>"]
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.parametrize("lock_name", ["_INTERN_LOCK"])
    def test_fork_waits_for_a_lock_another_thread_holds(self, tmp_path, lock_name):
        """Regression: a worker forked while another thread held the
        scope-intern lock inherited it held, and blocked forever on its
        first use, hanging ``compile_graph``. The fork now waits for the
        holder to let go."""
        from repro.modules import cache

        lock = getattr(cache, lock_name)
        paths = write_graph(tmp_path / "src", 3)
        held = threading.Event()

        def hold() -> None:
            with lock:
                held.set()
                time.sleep(1.0)

        reports = []
        with Runtime(cache_dir=str(tmp_path / "cache")) as rt:
            holder = threading.Thread(target=hold, daemon=True)
            holder.start()
            held.wait()
            compiler = threading.Thread(
                target=lambda: reports.append(rt.compile_graph(paths, jobs=2)),
                daemon=True,
            )
            compiler.start()
            compiler.join(timeout=60)
            holder.join()
            assert not compiler.is_alive(), "compile_graph hung on a forked lock"
        assert reports and reports[0].ok, reports and reports[0].errors


class TestGraphScheduling:
    def test_pool_worker_keeps_the_modules_it_compiled(self, tmp_path):
        """A pool worker builds one Runtime and keeps it for the whole call:
        handed a chain dependency-first, it loads no artifact from the
        cache, because every dependency is still in memory. (A fresh
        Runtime per module cache-loads 0 + 1 + ... + 5 = 15 here.)"""
        from repro.langs.typed.optimizer import ALL_RULES
        from repro.modules import graph

        paths = write_graph(tmp_path / "src", 6)
        graph._start_worker(str(tmp_path / "cache"), "interp", None, True, ALL_RULES)
        try:
            results = [graph._compile_in_worker(path) for path in paths]
            assert [r.status for r in results] == ["compiled"] * 6
            assert graph._WORKER.stats.cache_hits == 0
        finally:
            graph._WORKER.close()
            graph._WORKER = None
        assert len(artifact_digests(tmp_path / "cache")) == 6

    def test_require_cycle_on_the_pool_fails_fast(self, tmp_path):
        """``a.rkt`` <-> ``b.rkt`` under ``jobs=2``: both report the cycle
        (M003) at once, instead of two workers each waiting out the cache's
        winner timeout for the other's claim (C106); an independent module
        still compiles on the pool."""
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.rkt").write_text(
            '#lang racket\n(require "b.rkt")\n(define x 1)\n(provide x)\n',
            encoding="utf-8",
        )
        (src / "b.rkt").write_text(
            '#lang racket\n(require "a.rkt")\n(define y 2)\n(provide y)\n',
            encoding="utf-8",
        )
        (src / "c.rkt").write_text(
            "#lang racket\n(define z 3)\n(provide z)\n", encoding="utf-8"
        )
        paths = [str(src / name) for name in ("a.rkt", "b.rkt", "c.rkt")]
        with Runtime(cache_dir=str(tmp_path / "cache")) as rt:
            t0 = time.monotonic()
            report = rt.compile_graph(paths, jobs=2)
            elapsed = time.monotonic() - t0
            warnings = [d.code for d in rt.cache.diagnostics]
        assert elapsed < rt.cache.winner_timeout / 3, elapsed
        assert "C106" not in warnings
        statuses = {os.path.basename(p): r.status for p, r in report.results.items()}
        assert statuses == {"a.rkt": "failed", "b.rkt": "failed", "c.rkt": "compiled"}
        for name in ("a.rkt", "b.rkt"):
            error = report.errors[os.path.realpath(src / name)]
            assert "module dependency cycle" in error, error


class TestConcurrentExpanders:
    """Each thread's compiles see their own expander: ``current_expander()``
    (behind ``local-expand``) and every typed ``#%module-begin`` read the
    innermost compile of the calling thread, never another thread's."""

    @staticmethod
    def _probe_runtime(on_expand):
        """A Runtime whose ``#lang probe`` runs ``on_expand()`` inside the
        ``(probe)`` transformer, which expands to ``(quote 1)``."""
        from repro.langs.base import expand_with, fn_macro
        from repro.modules.registry import Language

        rt = Runtime()
        lang = Language("probe")
        lang.inherit(rt.registry.language("racket"))

        @fn_macro(lang, "probe")
        def probe(stx, lang):
            on_expand()
            return expand_with(lang, "(quote 1)")

        rt.registry.register_language(lang)
        return rt

    def test_a_waiting_transformer_keeps_its_own_expander(self):
        """Thread A waits inside its transformer while thread B's
        transformer runs; each sees the expander of its own module."""
        from repro.expander.env import current_expander

        a_in, b_in, a_checked = (threading.Event() for _ in range(3))
        seen: dict[str, list] = {"a": [], "b": []}

        def in_a():
            seen["a"].append(current_expander())
            a_in.set()
            assert b_in.wait(10)
            seen["a"].append(current_expander())
            a_checked.set()

        def in_b():
            assert a_in.wait(10)
            seen["b"].append(current_expander())
            b_in.set()
            assert a_checked.wait(10)
            seen["b"].append(current_expander())

        errors: list[BaseException] = []

        def compile_in(name, on_expand):
            try:
                with self._probe_runtime(on_expand) as rt:
                    rt.register_module(name, "#lang probe\n(probe)\n")
                    rt.compile(name)
            except BaseException as err:  # noqa: BLE001 - reported below
                errors.append(err)
                for event in (a_in, b_in, a_checked):
                    event.set()

        threads = [
            threading.Thread(target=compile_in, args=("a", in_a)),
            threading.Thread(target=compile_in, args=("b", in_b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert errors == []
        assert [e.ctx.module_path for e in seen["a"]] == ["a", "a"]
        assert [e.ctx.module_path for e in seen["b"]] == ["b", "b"]
        assert seen["a"][0] is seen["a"][1]
        assert seen["b"][0] is seen["b"][1]

    def test_current_expander_outside_a_compile_raises(self):
        from repro.errors import SyntaxExpansionError
        from repro.expander.env import current_expander

        with pytest.raises(SyntaxExpansionError):
            current_expander()

    def test_concurrent_typed_compiles(self):
        """2 threads x 20 ``#lang typed/racket`` modules, each in its own Runtime,
        under a tiny switch interval so the threads interleave inside
        expansion: every module compiles and prints its own answer."""
        n = 20

        def source(tag, i):
            return (
                "#lang typed/racket\n"
                f"(define (f{tag}{i} [x : Integer]) : Integer (+ x {i}))\n"
                f"(define v{tag}{i} : Integer (f{tag}{i} 100))\n"
                f"(displayln v{tag}{i})\n"
            )

        outputs: dict[str, list] = {"a": [], "b": []}
        errors: list[BaseException] = []

        def work(tag):
            try:
                for i in range(n):
                    with Runtime() as rt:
                        rt.register_module(f"{tag}{i}", source(tag, i))
                        outputs[tag].append(rt.run(f"{tag}{i}"))
            except BaseException as err:  # noqa: BLE001 - reported below
                errors.append(err)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(tag,)) for tag in "ab"]
            for t in threads:
                t.start()
            for t in threads:
                t.join(300)
        finally:
            sys.setswitchinterval(old)
        assert errors == []
        expected = [f"{100 + i}\n" for i in range(n)]
        assert outputs == {"a": expected, "b": expected}
