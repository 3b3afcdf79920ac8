"""Safe typed/untyped interop — the paper's §5 and §6, end to end.

Demonstrates:
1. types persisting across separately compiled typed modules (§5);
2. untyped clients getting automatic contract protection on typed
   exports, while typed clients skip the contracts (§6.2);
3. `require/typed`: importing untyped code into typed code under a
   declared type, with blame when the untyped library lies (fig. 4).

Run:  python examples/typed_untyped_interop.py
"""

from repro import ContractViolation, Runtime, TypeCheckError

rt = Runtime()

# A typed "server" module --------------------------------------------------------

rt.register_module(
    "server",
    """#lang simple-type
(define (add-5 [x : Integer]) : Integer (+ x 5))
(provide add-5)
""",
)

# 1. typed -> typed: the type travels with the compiled module ---------------------

rt.register_module(
    "typed-client",
    """#lang simple-type
(require server)
(displayln (add-5 7))
""",
)
rt.stats.reset()
print("typed client output:", rt.run("typed-client").strip())
print("contract checks paid by typed client:", rt.stats.contract_checks)

# ... and misuse is a *static* error:
rt.register_module(
    "bad-typed-client",
    "#lang simple-type\n(require server)\n(add-5 1.5)",
)
try:
    rt.compile("bad-typed-client")
except TypeCheckError as error:
    print("typed misuse rejected statically:", error)

# 2. untyped -> typed: contracts guard the boundary --------------------------------

rt.register_module(
    "untyped-client",
    """#lang racket
(require server)
(displayln (add-5 12))
""",
)
rt.stats.reset()
print("\nuntyped client output:", rt.run("untyped-client").strip())
print("contract checks paid by untyped client:", rt.stats.contract_checks)

rt.register_module(
    "bad-untyped-client",
    '#lang racket\n(require server)\n(add-5 "bad")',
)
try:
    rt.run("bad-untyped-client")
except ContractViolation as error:
    print("untyped misuse trapped dynamically:", error)

# 3. require/typed: typed code importing an untyped library (fig. 4) ----------------

rt.register_module(
    "digest",  # our stand-in for the paper's file/md5
    """#lang racket
(define (digest-hex s) (number->string (string-length s)))
(define (corrupt s) 'not-a-string)
(provide digest-hex corrupt)
""",
)

rt.register_module(
    "typed-user",
    """#lang simple-type
(require/typed digest [digest-hex (String -> String)])
(displayln (digest-hex "hello world"))
""",
)
print("\nrequire/typed import works:", rt.run("typed-user").strip())

rt.register_module(
    "typed-victim",
    """#lang simple-type
(require/typed digest [corrupt (String -> String)])
(displayln (corrupt "x"))
""",
)
try:
    rt.run("typed-victim")
except ContractViolation as error:
    print("the lying untyped library is blamed:", error)
