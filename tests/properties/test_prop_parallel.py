"""Differential property: parallel compilation is invisible.

For seeded random module graphs (random DAG shapes mixing diamond and
chain dependencies, random mixes of values, functions, and macros),
``compile_graph(jobs=8)`` (a process pool) must produce **byte-identical**
``.zo`` artifacts and the same per-module export sets as ``jobs=1`` —
the scheduler may only change *when* modules compile, never *what* they
compile to. This is the determinism contract the shared artifact cache
rests on: a warm cache filled by a parallel build must be
indistinguishable from one filled serially.
"""

from __future__ import annotations

import glob
import hashlib
import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Runtime


def make_graph(root: str, seed: int) -> list[str]:
    """Write a random module DAG under ``root``, shaped by ``seed``."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    os.makedirs(root, exist_ok=True)
    paths = []
    for i in range(n):
        # random dependency shape: chains, diamonds, and fan-ins all occur
        k = rng.randint(0, min(i, 3))
        deps = sorted(rng.sample(range(i), k))
        requires = "\n".join(f'(require "m{j}.rkt")' for j in deps)
        terms = " ".join([str(rng.randint(1, 9))] + [f"v{j}" for j in deps])
        if rng.random() < 0.4:
            # dialect-bearing module: the infix rewrite runs pre-expansion
            # in a worker process, and must be just as deterministic
            lang = "racket/infix"
            infix_terms = " + ".join(
                [str(rng.randint(1, 9))] + [f"v{j}" for j in deps]
            )
            parts = [
                f"#lang {lang}\n{requires}",
                f"(define v{i} {{{infix_terms}}})",
            ]
        else:
            lang = "racket"
            parts = [f"#lang {lang}\n{requires}",
                     f"(define v{i} (+ {terms}))"]
        if rng.random() < 0.5:
            parts.append(
                f"(define-syntax tw{i} (syntax-rules () [(_ e) (+ e e)]))"
            )
            parts.append(f"(define (f{i} x) (tw{i} (+ x v{i})))")
        else:
            parts.append(f"(define (f{i} x) (* x v{i}))")
        provides = [f"v{i}", f"f{i}"]
        if rng.random() < 0.3:
            parts.append(f"(define hidden{i} {rng.randint(10, 99)})")
        parts.append(f"(provide {' '.join(provides)})")
        path = os.path.join(root, f"m{i}.rkt")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(parts) + "\n")
        paths.append(path)
    return paths


def digests(cache_dir: str) -> dict[str, str]:
    out = {}
    for path in glob.glob(os.path.join(cache_dir, "*.zo")):
        with open(path, "rb") as f:
            out[os.path.basename(path)] = hashlib.sha256(f.read()).hexdigest()
    return out


def compile_and_observe(paths: list[str], cache_dir: str, jobs: int) -> dict:
    """Compile the graph; return artifact digests and per-module exports."""
    with Runtime(cache_dir=cache_dir) as rt:
        report = rt.compile_graph(paths, jobs=jobs)
        assert report.ok, report.errors
        exports = {
            os.path.basename(path): sorted(
                rt.registry.compiled[rt.registry.register_file(path)].exports
            )
            for path in paths
        }
    return {"digests": digests(cache_dir), "exports": exports}


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_parallel_compile_is_byte_identical_to_serial(seed, tmp_path_factory):
    base = tmp_path_factory.mktemp(f"prop-parallel-{seed}")
    paths = make_graph(str(base / "src"), seed)

    serial = compile_and_observe(paths, str(base / "serial"), jobs=1)
    parallel = compile_and_observe(paths, str(base / "parallel"), jobs=8)

    # same modules → same artifact *bytes*, not merely equivalent ones
    assert parallel["digests"] == serial["digests"]
    assert len(serial["digests"]) == len(paths)
    # and the same visible surface: every module exports the same names
    assert parallel["exports"] == serial["exports"]


def test_dialect_stack_changes_cache_key(tmp_path):
    """Two modules identical in path and source but compiled under different
    dialect stacks must never share a cached artifact."""
    with Runtime(cache_dir=str(tmp_path / "cache")) as rt:
        reg = rt.registry
        # the cache key decorates the spec with every dialect's name@version
        assert reg.cache_lang_key("racket") == "racket"
        assert reg.cache_lang_key("racket+infix") == "racket+infix[infix@1]"
        assert reg.cache_lang_key("racket/infix") == "racket/infix[infix@1]"
        # the decorated key is part of the artifact filename stem, so the
        # stacks land at different files for the same path and source hash
        plain = rt.cache.artifact_path(
            "m.rkt", reg.cache_lang_key("racket"), "h" * 40
        )
        stacked = rt.cache.artifact_path(
            "m.rkt", reg.cache_lang_key("racket+infix"), "h" * 40
        )
        assert plain != stacked
