"""The repository's benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload figures-interp --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Workloads: ``figures-interp``,
``figures-pyc``, ``compile-cold`` and ``serve-mixed`` (see README.md in
this directory). With ``--trace 0`` the result carries the end-to-end
metrics (``setup_s``, ``op_ms``, ``pass_s``, ``peak_rss_mb``); with
``--trace 1`` it carries the per-layer metrics of a traced run. The line
before the result is a JSON report of the workload's own named metrics,
per-cell quartiles and per-pass deterministic counts.

Each run re-executes itself once so that the interpreter starts with a
``PYTHONHASHSEED`` derived from the workload and seed, and without the
environment variables that would change the program's backend or cache.
An untraced run also sets the workload up in two more fresh interpreters,
one after another, so that ``setup_s`` is a median of first set-ups.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("figures-interp", "figures-pyc", "compile-cold", "serve-mixed")
#: the program reads these; the benchmark passes backend and cache explicitly
SCRUBBED_ENV = ("REPRO_BACKEND", "REPRO_CACHE_DIR", "PYTHONPATH")
#: a run that has not finished by now is stopped (the limit is 180 s)
DEADLINE_S = 170


def hash_seed(workload: str, seed: int) -> str:
    return str((seed * 1_000_003 + zlib.crc32(workload.encode())) % 4_294_967_295)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the run itself starts fresh interpreters with this flag, see fresh_setups
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def reexec(args: argparse.Namespace) -> None:
    """Replace this process with a fresh interpreter, hash seed pinned."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = hash_seed(args.workload, args.seed)
    env["PERFBENCH_CHILD"] = "1"
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {SRC}/repro is missing "
              "(run from the root of a full checkout)", file=sys.stderr)
        return 2
    if os.environ.get("PERFBENCH_CHILD") != "1":
        reexec(args)
    signal.alarm(DEADLINE_S)  # SIGALRM's default action ends the process
    sys.path[:0] = [SRC, HERE]
    import_program()

    import measure
    from reference import stop_helper

    outdir = os.path.join(ROOT, ".perfbench-work")
    workdir = os.path.join(outdir, f"run-{os.getpid()}")
    os.makedirs(workdir)
    spans_file = os.path.join(outdir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": measure.setup_only(args.workload, workdir)}))
            return 0
        # a traced run reports no setup_s, so it needs no other set-ups
        others = [] if args.trace else fresh_setups(argv, measure.SETUPS - 1)
        out = measure.run(args.workload, args.seed, args.seconds, bool(args.trace),
                          workdir, other_setups=others, spans_file=spans_file)
    finally:
        stop_helper()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out["diagnostics"]))
    for problem in out["diagnostics"]["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(out["result"]))
    return 0


def fresh_setups(argv: list[str], count: int) -> list[float]:
    """``setup_s`` of ``count`` fresh interpreters, started one after another
    with this run's arguments and environment (so its hash seed)."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), *argv, "--setup-only"],
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def import_program() -> None:
    """Finish every import before the set-up clock starts, including the
    modules the program imports lazily on its first compile or request."""
    import importlib

    for name in (
        "repro", "repro.tools.runner", "repro.modules.compiler",
        "repro.modules.cache", "repro.modules.instantiate", "repro.core.backend",
        "repro.core.compile", "repro.core.pyc", "repro.core.lower",
        "repro.core.parse", "repro.reader.lang_line", "repro.dialects",
        "repro.diagnostics.session", "repro.langs.count", "repro.langs.datalog",
        "repro.langs.infix", "repro.langs.lazy", "repro.langs.match_ext",
        "repro.langs.racket", "repro.langs.simple_type", "repro.langs.typed",
        "repro.runtime.ports", "repro.serve", "http.client", "hashlib",
    ):
        importlib.import_module(name)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
