"""Ablation benchmarks for the design choices DESIGN.md calls out:

- contract-boundary cost: typed->typed vs untyped->typed call loops (§6's
  "no extra checks between typed modules");
- per-rule-group optimizer ablation (float / fixnum / pairs / vectors /
  complex), isolating each §7.2 rule family's contribution.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import HARNESS, BenchmarkProgram
from benchmarks.harness import Harness
from repro import Runtime
from repro.runtime.ports import capture_output

# --- contract boundary ablation -------------------------------------------------

SERVER = """#lang simple-type
(define (step [x : Integer]) : Integer (+ x 1))
(provide step)
"""

CLIENT_TEMPLATE = """#lang {lang}
(require server)
(define (loop {binder}{acc_binder}){result}
  (if (= n 0) acc (loop (- n 1) (step acc))))
(displayln (loop 20000 0))
"""


def _make_client(lang: str) -> str:
    if lang == "simple-type":
        return CLIENT_TEMPLATE.format(
            lang=lang,
            binder="[n : Integer] ",
            acc_binder="[acc : Integer]",
            result=" : Integer",
        )
    return CLIENT_TEMPLATE.format(lang=lang, binder="n ", acc_binder="acc", result="")


def _run_boundary(lang: str):
    rt = Runtime()
    rt.register_module("server", SERVER)
    rt.register_module("client", _make_client(lang))
    rt.compile("client")
    ns = rt.make_namespace()
    rt.stats.reset()
    with capture_output() as port:
        rt.instantiate("client", ns)
    assert port.contents() == "20000\n"
    return rt.stats.snapshot()


class TestContractBoundaryAblation:
    def test_typed_to_typed_pays_no_contracts(self, benchmark):
        benchmark.group = "ablation:boundary"
        stats = benchmark.pedantic(
            lambda: _run_boundary("simple-type"), rounds=2, iterations=1
        )
        assert stats["contract_checks"] == 0

    def test_untyped_to_typed_pays_per_call(self, benchmark):
        benchmark.group = "ablation:boundary"
        stats = benchmark.pedantic(
            lambda: _run_boundary("racket"), rounds=2, iterations=1
        )
        # 20000 calls, each checking domain and range
        assert stats["contract_checks"] >= 2 * 20000


# --- optimizer rule-group ablation ------------------------------------------------

from benchmarks.programs.pseudoknot import PSEUDOKNOT_PROGRAMS
from benchmarks.programs.gabriel import GABRIEL_PROGRAMS
from benchmarks.programs.large import LARGE_PROGRAMS

PSEUDOKNOT = PSEUDOKNOT_PROGRAMS[0]
SUMLOOP = next(p for p in GABRIEL_PROGRAMS if p.name == "sumloop")
BANKERS = next(p for p in LARGE_PROGRAMS if p.name == "bankers-queue")

RULE_CASES = [
    # (program, rule group that matters for it)
    (PSEUDOKNOT, "float"),
    (SUMLOOP, "fixnum"),
    (BANKERS, "pairs"),
    (PSEUDOKNOT, "vectors"),
]


class TestRuleGroupAblation:
    @pytest.mark.parametrize(
        "program,rule", RULE_CASES, ids=[f"{p.name}-{r}" for p, r in RULE_CASES]
    )
    def test_single_rule_group(self, benchmark, program, rule):
        benchmark.group = f"ablation:rules:{program.name}"
        thunk = HARNESS.prepare(program, "typed/opt", rules={rule})
        result = benchmark.pedantic(thunk, rounds=2, iterations=1)
        assert result.unsafe_ops > 0  # the lone rule group fired

    @pytest.mark.parametrize("program", [PSEUDOKNOT, SUMLOOP, BANKERS],
                             ids=lambda p: p.name)
    def test_all_rules(self, benchmark, program):
        benchmark.group = f"ablation:rules:{program.name}"
        thunk = HARNESS.prepare(program, "typed/opt")
        result = benchmark.pedantic(thunk, rounds=2, iterations=1)
        assert result.unsafe_ops > 0

    def test_relevant_rule_dominates(self):
        """For the float-heavy pseudoknot, the float group removes far more
        dispatch than the pair group does."""
        float_only = HARNESS.run(PSEUDOKNOT, "typed/opt", rules={"float"})
        pairs_only = HARNESS.run(PSEUDOKNOT, "typed/opt", rules={"pairs"})
        assert float_only.generic_dispatches < pairs_only.generic_dispatches
