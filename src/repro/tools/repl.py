"""A simple REPL for the platform.

Each entered form is appended to an accumulating module body which is
recompiled and re-run (in a fresh namespace) after every input — simple,
and exactly right for a module-oriented language where compilation is the
interesting phase. Definitions persist; expression results print.

    $ python -m repro --repl [language]
    repro> (define (square x) (* x x))
    repro> (square 12)
    144

Meta-commands (",help" lists them) expose the observability subsystem:
``,trace`` shows the macro steps and optimization-coach events of the last
input, ``,stats`` the runtime's counters.
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.errors import ReproError
from repro.guard.budget import Budget, parse_limit
from repro.reader.reader import Reader
from repro.tools.runner import Runtime

_META_HELP = """\
meta-commands:
  ,help            show this help
  ,stats           show this session's runtime counters and phase timings
  ,stats reset     zero the counters
  ,trace           show macro steps + coach report for the last input
  ,budget          show the session's evaluation budget and usage
  ,budget NAME N   set a limit (steps | seconds | depth | allocations)
  ,budget NAME off clear a limit
  ,backend         show the active execution backend
  ,backend NAME    switch backend (interp | pyc); next input runs under it
  ,import NAME     import a #lang file as a Python module via the import
                   hook (repro.importer) and list its provides
"""

#: observe phases attributed to each backend's final pipeline stage; the
#: shared phases (read/expand/typecheck/...) belong to both
_BACKEND_PHASES = {
    "interp": ("closure-compile",),
    "pyc": ("pyc-codegen", "pyc-link"),
}

_BUDGET_NAMES = {
    "steps": "steps",
    "seconds": "seconds",
    "depth": "max_depth",
    "allocations": "allocations",
}


class Repl:
    def __init__(self, language: str = "racket",
                 backend: Optional[str] = None) -> None:
        # trace="full": the stepper renders each macro step's syntax, which
        # is what ,trace shows. cache=False: every input recompiles the
        # accumulated module, so expansion (the thing being traced) must
        # actually run. budget: a no-limit Budget, so ,stats reports the
        # evaluation steps each input consumed and ,budget can set limits
        # (a runaway input then dies with a G-code instead of hanging).
        self.runtime = Runtime(trace="full", cache=False, budget=Budget(),
                               backend=backend)
        self.language = language
        self.forms: list[str] = []
        self._counter = 0
        self._last_output = ""
        #: event-bus index where the last evaluation started
        self._mark = 0
        #: module path + first source line of the last entered form (the
        #: accumulated module re-expands *old* forms too; ,trace filters
        #: the log down to the new one by line)
        self._last_path: Optional[str] = None
        self._last_start_line = 0
        #: the module of the last input that ran; each input's module holds
        #: the whole session so far, so only this one stays registered
        self._live_path: Optional[str] = None

    def eval_input(self, text: str) -> str:
        """Process one input; returns the *new* output it produced."""
        text = text.strip()
        if not text:
            return ""
        if text.startswith(","):
            return self._meta_command(text)
        # validate it reads as one or more complete forms
        reader = Reader(text, "<repl>")
        parsed = []
        while True:
            form = reader.read()
            if form is None:
                break
            parsed.append(form)
        if not parsed:
            return ""
        candidate = self.forms + [self._wrap(text, parsed)]
        source = f"#lang {self.language}\n" + "\n".join(candidate)
        # the budget is a fresh allowance per input (the session total stays
        # in stats.eval_steps); without this, one exhausted input would
        # poison every later one
        self.runtime.budget.reset()
        self._counter += 1
        path = f"<repl-{self._counter}>"
        tracer = self.runtime.tracer
        self._mark = len(tracer.events)
        self._last_path = path
        # line 1 is "#lang ..."; each earlier form occupies its own line(s)
        self._last_start_line = 2 + sum(f.count("\n") + 1 for f in self.forms)
        registry = self.runtime.registry
        self.runtime.register_module(path, source)
        try:
            output = self.runtime.run(path)
        except BaseException:
            registry.unregister(path)
            raise
        if self._live_path is not None:
            registry.unregister(self._live_path)
        self._live_path = path
        new_output = output[len(self._last_output):] if output.startswith(
            self._last_output
        ) else output
        self.forms = candidate
        self._last_output = output
        return new_output

    # -- meta-commands -------------------------------------------------------

    def _meta_command(self, text: str) -> str:
        parts = text.split()
        cmd, args = parts[0], parts[1:]
        if cmd == ",help":
            return _META_HELP
        if cmd == ",stats":
            if args[:1] == ["reset"]:
                self.runtime.stats.reset()
                return "stats reset\n"
            snap = self.runtime.stats.snapshot()
            lines = [
                f"  {name:<22} {value}"
                for name, value in snap.items()
                if name != "expansion_by_macro"
            ]
            top = self.runtime.stats.top_macros(5)
            if top:
                lines.append("  expansion steps by macro:")
                lines.extend(f"    {name:<20} {count}" for name, count in top)
            lines.extend(self._phase_lines())
            return "\n".join(lines) + "\n"
        if cmd == ",trace":
            return self._trace_report()
        if cmd == ",budget":
            return self._budget_command(args)
        if cmd == ",backend":
            return self._backend_command(args)
        if cmd == ",import":
            return self._import_command(args)
        return f"unknown meta-command {cmd} (try ,help)\n"

    def _import_command(self, args: list[str]) -> str:
        """Demo the meta-path hook from the REPL: ``,import app.rules``
        imports a ``#lang`` file (searched on sys.path + the working
        directory) as a Python module and lists its provides."""
        import importlib
        import os
        import sys

        from repro.importer import ReproImportError, install, installed

        if len(args) != 1:
            return "usage: ,import MODULE.NAME (resolves MODULE/NAME.rkt)\n"
        if installed() is None:
            # the REPL session shares one hook; its runtime matches the
            # session's backend, and caching stays on (imports are the
            # deployment path, unlike the REPL's always-recompile loop)
            install(backend=self.runtime.registry.backend)
        cwd = os.getcwd()
        if cwd not in sys.path:
            sys.path.insert(0, cwd)
        name = args[0]
        try:
            sys.modules.pop(name, None)  # re-import on request
            module = importlib.import_module(name)
        except ReproImportError as err:
            return f"import error: {err}\n"
        except ImportError as err:
            return f"import error: {err}\n"
        language = getattr(module, "__language__", None)
        if language is None:
            return (
                f"{name} is a plain Python module "
                f"({getattr(module, '__file__', '?')}), not a #lang file\n"
            )
        provides = ", ".join(module.__provides__) or "(none)"
        return (
            f"imported {name} from {module.__file__} (#lang {language})\n"
            f"provides: {provides}\n"
        )

    def _phase_lines(self) -> list[str]:
        """Session time by observe phase, the active backend's codegen
        phases flagged (interp: closure-compile; pyc: pyc-codegen and
        pyc-link)."""
        from repro.observe.profiler import phase_totals

        totals = phase_totals(self.runtime.tracer)
        if not totals:
            return []
        active = self.runtime.registry.backend
        own = set(_BACKEND_PHASES.get(active, ()))
        lines = [f"  time by phase (backend: {active}):"]
        for phase, seconds in sorted(
            totals.items(), key=lambda kv: -kv[1]
        ):
            marker = "  *" if phase in own else "   "
            lines.append(f"  {marker} {phase:<18} {seconds * 1000:9.1f} ms")
        if own & set(totals):
            lines.append(f"    (* = {active} backend's own phases)")
        return lines

    def _backend_command(self, args: list[str]) -> str:
        from repro.core.backend import BACKENDS

        registry = self.runtime.registry
        if not args:
            return f"backend: {registry.backend}\n"
        if len(args) != 1 or args[0] not in BACKENDS:
            return f"usage: ,backend NAME (NAME: {' | '.join(BACKENDS)})\n"
        if args[0] == registry.backend:
            return f"backend: {registry.backend} (unchanged)\n"
        registry.backend = args[0]
        # nothing else to flush: every input re-instantiates the
        # accumulated module in a fresh Namespace, and the compiled module
        # carries both representations (the pyc unit is generated on
        # demand and cached alongside the core AST)
        return (
            f"backend: {registry.backend} "
            f"(next input runs in a fresh namespace under it)\n"
        )

    def _budget_command(self, args: list[str]) -> str:
        budget = self.runtime.budget
        if not args:
            lines = []
            for label, attr in _BUDGET_NAMES.items():
                limit = getattr(budget, attr)
                lines.append(
                    f"  {label:<12} {'unlimited' if limit is None else limit}"
                )
            lines.append(
                f"  used: {budget.steps_used} steps, "
                f"{budget.allocs_used} allocations"
            )
            return "\n".join(lines) + "\n"
        if len(args) != 2 or args[0] not in _BUDGET_NAMES:
            return (
                "usage: ,budget NAME N  or  ,budget NAME off "
                "(NAME: steps | seconds | depth | allocations)\n"
            )
        name, raw = args
        attr = _BUDGET_NAMES[name]
        if raw == "off":
            budget.configure(**{attr: None})
            return f"{name}: unlimited\n"
        try:
            value = parse_limit(attr, raw)
        except ValueError as err:
            return f"error: {err}\n"
        budget.configure(**{attr: value})
        return f"{name}: {value}\n"

    def _trace_report(self) -> str:
        from repro.observe.coach import coach_report
        from repro.observe.stepper import render_steps

        tracer = self.runtime.tracer
        if self._last_path is None:
            return "nothing evaluated yet\n"
        recent = tracer.events[self._mark:]

        def from_last_input(event) -> bool:
            loc = event.srcloc
            return (
                loc is not None
                and loc.source == self._last_path
                and loc.line >= self._last_start_line
            )

        steps = [e for e in recent if e.category == "macro" and from_last_input(e)]
        if not steps:  # e.g. a form whose expansion carries no use-site locs
            steps = [e for e in recent if e.category == "macro"]
        lines = []
        if steps:
            lines.append(f"macro steps for the last input ({len(steps)}):")
            lines.append(render_steps(steps, limit=50))
        else:
            lines.append("no macro steps recorded for the last input")

        # coach_report reads only .events; give it the last input's slice
        from types import SimpleNamespace

        lines.append(coach_report(SimpleNamespace(events=recent)))
        return "\n".join(lines) + "\n"

    def _wrap(self, text: str, parsed: list) -> str:
        """Expressions get their value displayed; definitions run silently."""
        from repro.runtime.values import Symbol
        from repro.syn.syntax import Syntax

        def is_definition(stx: Syntax) -> bool:
            if not (isinstance(stx.e, tuple) and stx.e and stx.e[0].is_identifier()):
                return False
            return stx.e[0].e.name in (
                "define", "define:", "define-values", "define-syntax",
                "define-syntaxes", "define-struct", "struct", "require",
                "provide", ":",
            )

        if len(parsed) == 1 and not is_definition(parsed[0]):
            return f"(%repl-show {text})"
        return text

    def run(self, stdin=None, stdout=None) -> int:
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        stdout.write(
            f"repro REPL (#lang {self.language}); ctrl-D to exit, "
            f",help for meta-commands\n"
        )
        # %repl-show displays non-void values, like Racket's REPL
        if self.language in ("typed", "typed/racket", "simple-type"):
            self.forms.append(
                "(define (%repl-show [v : Any]) : Void"
                " (if (void? v) (void) (displayln v)))"
            )
        else:
            self.forms.append(
                "(define (%repl-show v) (if (void? v) (void) (displayln v)))"
            )
        while True:
            stdout.write("repro> ")
            stdout.flush()
            try:
                line = stdin.readline()
            except KeyboardInterrupt:
                # ctrl-C at the prompt: just a fresh prompt, not an exit
                stdout.write("\n")
                continue
            if not line:
                stdout.write("\n")
                return 0
            try:
                stdout.write(self.eval_input(line))
            except ReproError as error:
                # reader / expansion / type / contract / runtime / budget
                # errors (and aggregated CompilationFailed reports, whose
                # message carries every rendered diagnostic) all land here;
                # the accumulated module body is unchanged, so the session
                # continues
                stdout.write(f"error: {error}\n")
            except RecursionError:
                stdout.write("error: recursion limit exceeded\n")
            except KeyboardInterrupt:
                # ctrl-C mid-evaluation: the input is committed to the
                # accumulated body only after a successful run, and a
                # killed compilation registers nothing, so the session
                # continues with state intact
                stdout.write("\n; interrupted (session state intact)\n")
            except Exception as error:  # never let one input kill the REPL
                stdout.write(f"error: internal: {type(error).__name__}: {error}\n")


def main(language: str = "racket", backend: Optional[str] = None) -> int:
    """Run a REPL on stdin/stdout (``python -m repro --repl [language]
    [--backend NAME]``; :mod:`repro.tools.runner` parses that line)."""
    try:
        repl = Repl(language, backend=backend)
    except ValueError as err:  # a $REPRO_BACKEND naming no backend
        sys.stderr.write(f"error: {err}\n")
        return 2
    return repl.run()
