"""A tour of the type-driven optimizer (§7).

Shows the same float-intensive program running untyped, typed without the
optimizer, and typed with it — with wall-clock times and the runtime's
dispatch counters, which make the optimizer's effect visible directly.

Run:  python examples/optimizer_tour.py
"""

import time

from repro import Runtime

KERNEL = """
({define} (step {x}){ret}
  (+ (* x 1.000001) (/ 0.5 (+ 1.0 (* x x)))))
({define} (iterate {n} {acc}){retf}
  (if (= n 0) acc (iterate (- n 1) (step acc))))
(displayln (< 0.0 (iterate 60000 1.0)))
"""

UNTYPED = "#lang racket" + KERNEL.format(
    define="define", x="x", n="n", acc="acc", ret="", retf=""
)

# A deliberate near-miss for the optimization coach: `b : Number` keeps the
# checker from proving (* a b) all-Float, so no unsafe-fl* fires — exactly
# what `repro trace` reports, with the annotation that would unlock it.
NEAR_MISS = """
(define (blend [a : Float] [b : Number]) : Number
  (* a b))
(displayln (blend 0.5 2))
"""

TYPED = "#lang typed" + KERNEL.format(
    define="define",
    x="[x : Float]",
    n="[n : Integer]",
    acc="[acc : Float]",
    ret=" : Float",
    retf=" : Float",
) + NEAR_MISS


def run(rt: Runtime, name: str, source: str) -> None:
    path = f"<{name}>"
    rt.register_module(path, source)
    rt.compile(path)
    ns = rt.make_namespace()
    rt.stats.reset()
    start = time.perf_counter()
    rt.instantiate(path, ns)
    elapsed = time.perf_counter() - start
    stats = rt.stats.snapshot()
    print(
        f"{name:<16} {elapsed * 1000:8.1f} ms   "
        f"generic dispatches: {stats['generic_dispatches']:>8}   "
        f"unsafe ops: {stats['unsafe_ops']:>8}"
    )


print("one float-intensive loop, three ways:\n")
run(Runtime(), "untyped", UNTYPED)
# an empty optimizer rule set compiles typed modules without the optimizer
run(Runtime(optimizer_rules=frozenset()), "typed, no opt", TYPED)
run(Runtime(), "typed + opt", TYPED)

print(
    """
The typed+optimized version rewrote every (+ x y), (* x y), (/ x y), (= n 0)
on proven Float/Integer operands into unsafe-fl* / unsafe-fx* primitives —
no numeric-tower dispatch remains (fig. 5 / §7.2). One rewrite deliberately
does NOT fire: in `blend`, (* a b) has b typed Number, so the float rule
can't prove it sound. Run

    python -m repro trace examples/optimizer_tour.py --format summary

to see the optimization coach report it as a near-miss, keyed by source
location, alongside every rewrite that fired."""
)
