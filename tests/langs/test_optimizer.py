"""Tests for the type-driven optimizers (fig. 5 and §7.2)."""

from __future__ import annotations

from repro import Runtime


FLOAT_PROGRAM = """#lang typed
(define (hypot [x : Float] [y : Float]) : Float
  (sqrt (+ (* x x) (* y y))))
(displayln (hypot 3.0 4.0))
"""


class TestFloatSpecialization:
    def test_float_ops_become_unsafe(self, rt):
        rt.register_module("m", FLOAT_PROGRAM)
        rt.compile("m")
        rt.stats.reset()
        assert rt.run("m") == "5.0\n"
        assert rt.stats.unsafe_ops > 0
        assert rt.stats.generic_dispatches == 0

    def test_simple_type_optimizer_equivalent(self, rt):
        rt.register_module(
            "m",
            """#lang simple-type
(define (prod [x : Float] [y : Float]) : Float (* x y))
(displayln (prod 2.0 4.0))""",
        )
        rt.compile("m")
        rt.stats.reset()
        assert rt.run("m") == "8.0\n"
        assert rt.stats.unsafe_ops == 1
        assert rt.stats.generic_dispatches == 0

    def test_mixed_types_not_specialized(self, rt):
        # (+ Integer Float) stays generic: the optimizer only rewrites
        # when BOTH operands are proven Float
        rt.register_module(
            "m",
            """#lang typed
(define n : Number (+ 1 2.0))
(displayln n)""",
        )
        rt.compile("m")
        rt.stats.reset()
        rt.run("m")
        assert rt.stats.generic_dispatches >= 1


class TestFixnumSpecialization:
    def test_integer_loop_fully_specialized(self, rt):
        rt.register_module(
            "m",
            """#lang typed
(define (count [i : Integer] [acc : Integer]) : Integer
  (if (= i 0) acc (count (- i 1) (+ acc 1))))
(displayln (count 100 0))""",
        )
        rt.compile("m")
        rt.stats.reset()
        assert rt.run("m") == "100\n"
        assert rt.stats.generic_dispatches == 0
        assert rt.stats.unsafe_ops == 301  # 100 iterations x (= - +) + final =


class TestPairAndVectorSpecialization:
    def test_pairof_access_skips_tag_checks(self, rt):
        rt.register_module(
            "m",
            """#lang typed
(define p : (Pairof Integer Integer) (cons 1 2))
(displayln (+ (car p) (cdr p)))""",
        )
        rt.compile("m")
        rt.stats.reset()
        assert rt.run("m") == "3\n"
        assert rt.stats.tag_checks == 0

    def test_listof_access_keeps_tag_checks(self, rt):
        # car on (Listof T) cannot prove non-emptiness: tag check remains
        rt.register_module(
            "m",
            """#lang typed
(define xs : (Listof Integer) (list 1 2))
(displayln (car xs))""",
        )
        rt.compile("m")
        rt.stats.reset()
        rt.run("m")
        assert rt.stats.tag_checks >= 1

    def test_vector_ops_specialized(self, rt):
        rt.register_module(
            "m",
            """#lang typed
(define v : (Vectorof Float) (vector 1.0 2.0))
(vector-set! v 0 3.0)
(displayln (vector-ref v 0))""",
        )
        rt.compile("m")
        rt.stats.reset()
        rt.run("m")
        assert rt.stats.tag_checks == 0
        assert rt.stats.unsafe_ops >= 2


class TestComplexSpecialization:
    def test_float_complex_ops_specialized(self, rt):
        rt.register_module(
            "m",
            """#lang typed
(define (rotate [z : Float-Complex]) : Float-Complex (* z 0.0+1.0i))
(displayln (rotate 1.0+0.0i))""",
        )
        rt.compile("m")
        rt.stats.reset()
        assert rt.run("m") == "0.0+1.0i\n"
        assert rt.stats.generic_dispatches == 0
        assert rt.stats.unsafe_ops >= 1

    def test_paper_count_loop(self, rt):
        # the §3.2 Float-Complex example, adapted
        rt.register_module(
            "m",
            """#lang typed
(: count-halvings (Float-Complex -> Integer))
(define (count-halvings f)
  (if (< (magnitude f) 0.001)
      0
      (add1 (count-halvings (/ f 2.0+2.0i)))))
(displayln (count-halvings 8.0+8.0i))""",
        )
        rt.compile("m")
        rt.stats.reset()
        out = rt.run("m")
        assert int(out) > 0
        assert rt.stats.generic_dispatches == 0


class TestOptimizerToggle:
    def test_disabled_optimizer_stays_generic(self):
        rt = Runtime(optimizer_rules=frozenset())
        rt.register_module("m", FLOAT_PROGRAM)
        rt.compile("m")
        rt.stats.reset()
        assert rt.run("m") == "5.0\n"
        assert rt.stats.unsafe_ops == 0
        assert rt.stats.generic_dispatches > 0

    def test_rule_group_ablation(self):
        rt = Runtime(optimizer_rules={"fixnum"})  # floats NOT specialized
        rt.register_module("m", FLOAT_PROGRAM)
        rt.compile("m")
        rt.stats.reset()
        assert rt.run("m") == "5.0\n"
        assert rt.stats.unsafe_ops == 0
        assert rt.stats.generic_dispatches > 0

    def test_optimized_and_unoptimized_agree(self, rt):
        program = """#lang typed
(define (body [x : Float]) : Float
  (+ (* x 2.0) (/ 1.0 (max x 0.5))))
(displayln (body 1.25))
"""
        rt.register_module("opt", program)
        opt_out = rt.run("opt")
        noopt = Runtime(optimizer_rules=frozenset())
        noopt.register_module("noopt", program)
        noopt_out = noopt.run("noopt")
        assert opt_out == noopt_out


class TestOptimizationIsSemanticsPreserving:
    def test_division_by_zero_edge(self, rt):
        rt.register_module(
            "m",
            """#lang typed
(define (inv [x : Float]) : Float (/ 1.0 x))
(displayln (inv 0.0))
(displayln (inv -0.0))""",
        )
        assert rt.run("m") == "+inf.0\n-inf.0\n"

    def test_float_comparisons(self, rt):
        rt.register_module(
            "m",
            """#lang typed
(define (cmp [a : Float] [b : Float]) : Boolean (< a b))
(displayln (cmp 1.0 2.0))
(displayln (cmp 2.0 1.0))""",
        )
        assert rt.run("m") == "#t\n#f\n"
