"""Persistent compiled-module artifacts — the §5 ``compiled/*.zo`` machinery.

§5 of the paper claims that a language implemented as a library can persist
its *static semantics* into a separable compiled artifact: Racket writes
fully-expanded modules, their export tables, and their replayable phase-1
code into ``compiled/*.zo`` files, and a later run (or a different process)
requires the module without re-expanding it. This module reproduces that:

- a :class:`ModuleCache` stores each :class:`~repro.modules.registry.CompiledModule`
  (core AST, export table, replayable :class:`SyntaxDecl` list) plus the
  bindings a client can reach through it as one ``<hash>.zo`` file under a
  cache directory (default ``.repro-cache/``);
- artifacts are keyed by a **content hash** of (cache-format version, module
  path, ``#lang``, source text), and validated against the **full keys** of
  every dependency — the full key folds the dependencies' own full keys in
  transitively, so editing a required module invalidates all of its
  requirers without touching their files;
- corrupt or stale artifacts degrade to a recompile plus a ``C``-series
  warning diagnostic, never an error.

Crash safety (ISSUE 6)
----------------------

The store is hardened against torn writes, corruption, and concurrent
writers, validated by the :mod:`repro.faults` chaos suite:

- every artifact is wrapped in a checksummed envelope (magic + SHA-256 of
  the payload), so truncation and bit-rot are *detected*, not just likely
  to fail unpickling;
- writes go through a temp file + atomic ``os.replace`` under an advisory
  per-hash file lock (``<hash>.zo.lock``), so concurrent writers of the
  same content hash serialize — the loser skips the (identical) write;
- artifacts that fail validation are moved to ``<dir>/quarantine/`` with a
  ``C104`` warning and the module recompiles transparently (``C101`` if
  even quarantining fails and the file is unlinked instead);
- transient I/O errors are retried a bounded number of times before the
  operation degrades;
- an unwritable cache directory disables caching for the process with a
  single ``C105`` warning instead of propagating (or warning per store);
- ``repro cache doctor`` scans a cache directory, quarantines invalid
  artifacts, and removes torn-write debris (``*.tmp.*``) and stale locks.

Serialization notes
-------------------

Artifacts are pickles with three persistent-identity rules, because the
platform's hygiene machinery is identity-based:

- **Symbols/keywords** re-intern on load (pattern matching compares them
  with ``is``).
- **The core scope**, **language anchor scopes** and **a module scope's
  bulk ``#lang`` import** map to the loading process's own instances (they
  are re-created by every Runtime, and cached macro templates must keep
  resolving to the language's bindings).
- **Every other scope** is named by a *persistent token* minted when the
  scope is first serialized and interned process-wide on load, so two
  artifacts that share a scope (a module and its requirer, compiled in the
  same session) agree on its identity after both are loaded.

Bindings live on scopes (:func:`repro.syn.binding.bind`), so an artifact
carries bindings by reachability: after the module, the pickle holds the
bindings stored on every token-named scope it met, closed over the scopes
those bindings name, and each such scope's bulk import. The core and
language scopes are the loader's own and keep their own bindings; a
module scope's ``#lang`` import is written as the language's name, never
as a copy of its exports. A load installs bindings only on the scopes it has
just created — a scope already live in this process has its bindings — and
does so under ``_INTERN_LOCK``, before any other thread can intern the
scope.

``LocalBinding`` uids are re-minted on load (see ``LocalBinding.__reduce__``)
to avoid key collisions with bindings created in the loading process.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import threading
import time
import weakref
from contextlib import suppress
from typing import TYPE_CHECKING, Any, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-posix fallback
    fcntl = None  # type: ignore[assignment]

from repro.diagnostics.diagnostic import Diagnostic
from repro.expander.core_forms import CORE_FORMS
from repro.faults import FaultPlan, fault_bytes, fault_point
from repro.observe.recorder import current_recorder
from repro.runtime.stats import current_stats
from repro.runtime.values import Keyword, Symbol
from repro.syn.binding import BulkImport, CoreFormBinding, ModuleBinding
from repro.syn.scopes import EMPTY_SCOPES, Scope

if TYPE_CHECKING:
    from repro.modules.registry import CompiledModule, ModuleRegistry

#: bump when the artifact layout (or anything it pickles) changes shape;
#: part of every content hash, so old artifacts simply stop matching.
#: v3: modules may carry a ``pyc`` code-object unit (marshalled CPython
#: bytecode emitted by the pyc backend) alongside the core AST
#: v4: the bindings stored on the scopes a module names follow it as a
#: second pickle, instead of every binding its compile added
#: v5: a module-level definition binds the module's own key, never a
#: kernel key, and pyc units no longer emulate kernel-name shadowing
#: v6: a library language's primitives live under its own module path
#: (``#%datalog``, ``#%match-ext``), not under ``#%kernel``
#: v7: pyc units check the value count of a single-id binding of
#: ``append``, ``list*`` and ``list-tail``, which can return an operand
#: v8: pyc loop back-edges charge the active guard through the link-time
#: ``_cg`` (no ``_guard`` global), and unsafe vector accesses test bounds
#: v9: a module scope carries its ``#lang`` import as one bulk entry,
#: pickled as the language's name, instead of a copy of every export's
#: binding at phases 0 and 1, and core AST nodes pickle as constructor
#: calls (a match-ext artifact: 53.5 KB -> 25.0 KB); pyc vector accesses test
#: ``i >= 0`` and catch ``IndexError``, and code objects drop their nested
#: qualified names
#: v10: every pyc function charges its own entry (a step and a depth level,
#: behind ``_G``), and a direct call of a hoisted function is the plain
#: Python call in both modes: a v9 unit charged governed calls through
#: ``_apply``, so linked under a guard now it would charge nothing
#: v11: pyc calls known local procedures and acyclic tail calls directly
#: and copies unassigned captures into closures; a v10 unit still runs
#: correctly, but a warm cache would keep serving its trampolined calls
FORMAT_VERSION = 11

#: artifact envelope: MAGIC + SHA-256(payload) + payload. The digest makes
#: corruption (truncation, bit-flips) a *detected* condition rather than a
#: probabilistic unpickling failure.
MAGIC = b"REPROZO\x0b"

_DIGEST_LEN = 32

#: subdirectory that corrupt artifacts are moved into (never deleted, so a
#: postmortem can inspect what went wrong)
QUARANTINE_DIR = "quarantine"

#: bounded retry policy for transient I/O errors
RETRY_ATTEMPTS = 3
_RETRY_BACKOFF = 0.005

#: default cache directory, relative to the working directory (the analogue
#: of Racket's ``compiled/``); overridable via Runtime(cache_dir=) and the
#: REPRO_CACHE_DIR environment variable
DEFAULT_CACHE_DIR = ".repro-cache"

ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: process-wide intern table: persistent scope token -> live Scope. Weak, so
#: scopes vanish once nothing loaded references them; as long as any loaded
#: artifact holds a scope, later loads of artifacts sharing it agree on
#: identity.
_SCOPE_INTERN: "weakref.WeakValueDictionary[str, Scope]" = weakref.WeakValueDictionary()

#: guards token minting and interning: two threads serializing (or loading)
#: artifacts concurrently must agree on one token per scope object, and a
#: load holds it until the scopes it created carry their bindings
_INTERN_LOCK = threading.Lock()

#: artifact files some thread of THIS process is currently compiling toward:
#: file -> Event set when the winner publishes (or gives up). In-process
#: losers wait on the event; cross-process losers watch the fcntl lock.
_INFLIGHT: dict[str, threading.Event] = {}
_INFLIGHT_LOCK = threading.Lock()


def _forget_inflight_after_fork() -> None:
    """A forked child (a ``compile_graph`` worker) has none of
    its parent's threads: no parent compile will ever set an inherited
    event, and a lock a parent thread held at the fork stays held."""
    global _INFLIGHT_LOCK
    _INFLIGHT_LOCK = threading.Lock()
    _INFLIGHT.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_inflight_after_fork)
    # unlike the in-flight claims, the intern table stays valid in the
    # child; the fork just waits out any thread mid-intern
    os.register_at_fork(
        before=_INTERN_LOCK.acquire,
        after_in_parent=_INTERN_LOCK.release,
        after_in_child=_INTERN_LOCK.release,
    )


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a lock/tmp file's recorded PID."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another user
        return True
    except OSError:  # pragma: no cover - non-posix oddities
        return False
    return True


def default_cache_dir() -> str:
    return os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR


def content_hash(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


class _ArtifactPickler(pickle.Pickler):
    """Pickler assigning persistent identities to scopes and symbols."""

    def __init__(self, file: Any, token_prefix: str) -> None:
        super().__init__(file, protocol=4)
        self._token_prefix = token_prefix
        self._seq = 0
        # id(frozenset) -> its canonical pid; keeps one pid tuple per set
        # object so pickle's memo preserves sharing (values also keep the
        # sets alive, so ids stay unique for the pickler's lifetime)
        self._scope_sets: dict[int, tuple] = {}
        self._scope_sets_alive: list[frozenset] = []
        #: token-named scopes met so far, in first-met order
        self._named: dict[Scope, None] = {}
        #: ModuleBinding key -> its one pid in this artifact
        self._module_bindings: dict[tuple, tuple] = {}

    def persistent_id(self, obj: Any) -> Optional[tuple]:
        if isinstance(obj, Scope):
            if obj.kind == "core":
                return ("core-scope",)
            if obj.kind.startswith("lang:"):
                return ("lang-scope", obj.kind[len("lang:"):])
            if obj.token is None:
                with _INTERN_LOCK:
                    if obj.token is None:  # re-check under the lock
                        self._seq += 1
                        obj.token = f"{self._token_prefix}#{self._seq}"
                        _SCOPE_INTERN[obj.token] = obj
            self._named[obj] = None
            return ("scope", obj.token, obj.kind)
        if isinstance(obj, Symbol):
            return ("sym", obj.name)
        if isinstance(obj, Keyword):
            return ("kw", obj.name)
        # bindings are shared by key, not by object: a dependency loaded
        # from its artifact binds its names to copies of the bindings a
        # natively compiled one would share with its language, and the
        # bytes must not tell the two apart
        if type(obj) is ModuleBinding:
            key = obj.key()
            pid = self._module_bindings.get(key)
            if pid is None:
                pid = ("module-binding", obj.module_path, obj.name, obj.phase)
                self._module_bindings[key] = pid
            return pid
        if type(obj) is CoreFormBinding:
            return ("core-form", obj.name)
        # a module scope's `#lang` import names its language; the loader
        # reads the tables of its own Language of that name
        if type(obj) is BulkImport:
            return ("lang-bulk", obj.name)
        # scope sets: frozensets iterate in hash (= address) order, so one
        # pickled as-is bakes the process's allocation history into the
        # artifact bytes — the same module compiled by two Runtimes (or a
        # warm vs cold one) would differ byte-for-byte. Persistent-id is
        # the one hook the C pickler consults for *every* object (its
        # exact-type fast path skips reducer_override and dispatch_table
        # for builtin frozensets), so scope sets become ("scopes", sorted
        # tuple) pids and artifact bytes a pure function of content.
        if type(obj) is frozenset and all(isinstance(s, Scope) for s in obj):
            pid = self._scope_sets.get(id(obj))
            if pid is None:
                pid = ("scopes", tuple(sorted(obj, key=self._scope_order)))
                self._scope_sets[id(obj)] = pid
                self._scope_sets_alive.append(obj)
            return pid
        return None

    def dump_bindings(self) -> None:
        """Pickle, after the artifact, ``[(scope, its bindings, its bulk
        import), ...]`` for every token-named scope met so far and,
        transitively, every such scope those entries name."""
        order = list(self._named)
        for scope in order:
            rests = [rest for entries in (scope.bindings or {}).values()
                     for rest, _ in entries]
            if scope.bulk is not None:
                rests.append(scope.bulk[0])
            for rest in rests:
                for other in sorted(rest, key=self._scope_order):
                    if other in self._named or other.kind == "core":
                        continue
                    if not other.kind.startswith("lang:"):
                        self._named[other] = None
                        order.append(other)
        self.dump([(scope, scope.bindings, scope.bulk) for scope in order
                   if scope.bindings or scope.bulk])

    @staticmethod
    def _scope_order(scope: Scope) -> tuple:
        # a content-stable ordering: dependency scopes already carry tokens
        # by the time a requiring module is stored; the module's own fresh
        # scopes order by creation id, which is monotonic per compilation
        # even when other threads are minting scopes concurrently
        if scope.kind == "core":
            return (0, "", 0)
        if scope.kind.startswith("lang:"):
            return (1, scope.kind, 0)
        if scope.token is not None:
            return (2, scope.token, 0)
        return (3, "", scope.id)


class _ArtifactUnpickler(pickle.Unpickler):
    """Unpickler resolving the persistent identities of `_ArtifactPickler`."""

    def __init__(self, file: Any, registry: "ModuleRegistry") -> None:
        super().__init__(file)
        self._registry = registry
        self._scope_sets: dict[int, frozenset] = {}
        self._scope_sets_alive: list[tuple] = []
        #: scopes this load created (not already live in the process)
        self._fresh: set[Scope] = set()
        #: one ModuleBinding per (memo-shared) pid tuple
        self._module_bindings: dict[int, ModuleBinding] = {}
        self._module_bindings_alive: list[tuple] = []

    def load_artifact(self) -> Any:
        """Load the artifact and install the bindings that follow it on the
        scopes this load created. The caller holds ``_INTERN_LOCK``."""
        artifact = self.load()
        for scope, table, bulk in self.load():
            if scope in self._fresh:
                scope.bindings = table
                scope.bulk = bulk
        return artifact

    def _language(self, name: str) -> Any:
        lang = self._registry.languages.get(name)
        if lang is None:
            raise pickle.UnpicklingError(
                f"artifact references unknown language: {name}"
            )
        return lang

    def persistent_load(self, pid: tuple) -> Any:
        tag = pid[0]
        if tag == "core-scope":
            from repro.expander.kernel_scope import CORE_SCOPE

            return CORE_SCOPE
        if tag == "lang-scope":
            return self._language(pid[1]).scope
        if tag == "scope":
            token, kind = pid[1], pid[2]
            scope = _SCOPE_INTERN.get(token)
            if scope is None:
                scope = Scope(kind)
                scope.token = token
                _SCOPE_INTERN[token] = scope
                self._fresh.add(scope)
            return scope
        if tag == "module-binding":
            binding = self._module_bindings.get(id(pid))
            if binding is None:
                binding = ModuleBinding(pid[1], pid[2], pid[3])
                self._module_bindings[id(pid)] = binding
                self._module_bindings_alive.append(pid)
            return binding
        if tag == "core-form":
            return CORE_FORMS[pid[1]]
        if tag == "lang-bulk":
            return self._language(pid[1]).bulk
        if tag == "sym":
            return Symbol(pid[1])
        if tag == "kw":
            return Keyword(pid[1])
        if tag == "scopes":
            if not pid[1]:
                # every empty set loads as the one a native compile binds
                # with, so a loaded scope's bindings pickle like a native
                # one's when a later artifact names it
                return EMPTY_SCOPES
            # pid tuples are memo-shared by the pickler, so identical set
            # occurrences arrive as the same tuple — rebuild one frozenset
            # per tuple to restore the stored graph's sharing
            cached = self._scope_sets.get(id(pid))
            if cached is None:
                cached = frozenset(pid[1])
                self._scope_sets[id(pid)] = cached
                self._scope_sets_alive.append(pid)
            return cached
        raise pickle.UnpicklingError(f"unknown persistent id: {pid!r}")


class ModuleCache:
    """A directory of ``<content-hash>.zo`` compiled-module artifacts."""

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.dir = cache_dir or default_cache_dir()
        #: C-series warnings accumulated by load/store failures; surfaced by
        #: the CLI and inspectable as ``runtime.cache.diagnostics``
        self.diagnostics: list[Diagnostic] = []
        #: set when the cache directory cannot be created: stores become
        #: no-ops after one C105 warning instead of warning per module
        self.disabled = False
        #: transient-I/O retries performed (chaos-suite observability)
        self.retries = 0
        #: loads that blocked on a concurrent writer's lock and picked up
        #: the winner's artifact instead of recompiling (wait-for-winner)
        self.waits = 0
        #: how long a load will wait for a live concurrent writer to
        #: publish the artifact before giving up and compiling anyway
        self.winner_timeout = 30.0
        self._dir_ok = False
        #: the :class:`~repro.faults.FaultPlan` whose faults this cache's
        #: fault points inject (chaos tests set it); None injects nothing
        self.fault_plan: Optional[FaultPlan] = None

    # -- paths and keys -----------------------------------------------------

    def artifact_path(self, path: str, lang: str, source_hash: str) -> str:
        stem = content_hash(str(FORMAT_VERSION), path, lang, source_hash)[:40]
        return os.path.join(self.dir, f"{stem}.zo")

    # -- diagnostics --------------------------------------------------------

    def _warn(self, code: str, message: str) -> None:
        self.diagnostics.append(
            Diagnostic(severity="warning", code=code, message=message)
        )

    @staticmethod
    def _instant(name: str, path: str) -> None:
        """Mirror a cache counter onto the observability bus (if tracing)."""
        rec = current_recorder()
        if rec.enabled:
            rec.instant("cache", name, attrs={"path": path})

    # -- resilience helpers --------------------------------------------------

    def _retrying(self, site: str, fn: Any) -> Any:
        """Run ``fn``, retrying transient ``OSError`` a bounded number of
        times with a short backoff; the final failure propagates."""
        for attempt in range(RETRY_ATTEMPTS):
            try:
                return fn()
            except OSError:
                if attempt + 1 >= RETRY_ATTEMPTS:
                    raise
                self.retries += 1
                self._instant("retry", site)
                time.sleep(_RETRY_BACKOFF * (attempt + 1))

    def _ensure_dir(self) -> bool:
        """Create the cache directory; degrade to one C105 on failure."""
        if self._dir_ok:
            return True
        if self.disabled:
            return False
        try:
            fault_point(self.fault_plan, "cache.makedirs")
            os.makedirs(self.dir, exist_ok=True)
        except OSError as err:
            self.disabled = True
            self._warn(
                "C105",
                f"cache directory {self.dir} unavailable "
                f"({type(err).__name__}: {err}); caching disabled",
            )
            return False
        self._dir_ok = True
        return True

    @staticmethod
    def _verify_envelope(data: bytes) -> bytes:
        """Check the checksummed envelope; returns the pickle payload."""
        header = len(MAGIC) + _DIGEST_LEN
        if len(data) < header:
            raise ValueError("truncated artifact")
        if data[: len(MAGIC)] != MAGIC:
            raise ValueError("bad artifact magic")
        digest = data[len(MAGIC): header]
        payload = data[header:]
        if hashlib.sha256(payload).digest() != digest:
            raise ValueError("artifact checksum mismatch")
        return payload

    @staticmethod
    def _historic_version(data: bytes) -> Optional[str]:
        """If ``data`` is an intact artifact of another cache format version
        (``REPROZO`` and a version byte other than :data:`MAGIC`'s), return
        its magic (repr'd for reporting); else None.

        Such an artifact is *old*, not corrupt: its content-hashed filename
        folds the old version in, so loads never open it. ``doctor``
        reports it instead of quarantining it (deleting a postmortem-worthy
        file for merely being stale would be wrong, and quarantine is
        reserved for detected corruption)."""
        magic, header = data[: len(MAGIC)], len(MAGIC) + _DIGEST_LEN
        if (
            len(data) < header
            or magic[:-1] != MAGIC[:-1]
            or magic == MAGIC
            or hashlib.sha256(data[header:]).digest() != data[len(MAGIC): header]
        ):
            return None
        return magic.decode("ascii", "backslashreplace")

    def _quarantine(self, file: str) -> Optional[str]:
        """Move a bad artifact into the quarantine subdirectory.

        Returns the destination path, or None if quarantining itself failed
        (in which case the file is unlinked, best-effort, so the corrupt
        artifact cannot poison the next run either way).
        """
        name = os.path.basename(file)
        qdir = os.path.join(self.dir, QUARANTINE_DIR)
        try:
            fault_point(self.fault_plan, "cache.quarantine")
            os.makedirs(qdir, exist_ok=True)
            dest = os.path.join(qdir, name)
            n = 0
            while os.path.exists(dest):
                n += 1
                dest = os.path.join(qdir, f"{name}.{n}")
            os.replace(file, dest)
            return dest
        except OSError:
            with suppress(Exception):
                os.unlink(file)
            return None

    # -- locking (one writer per content hash) -------------------------------

    def _acquire_lock(self, file: str) -> Optional[tuple]:
        """Advisory per-artifact lock; None when another writer holds it.

        Uses ``flock`` where available (O_CREAT|O_EXCL elsewhere). The lock
        file is removed on release; the classic unlink/flock race between
        three writers is benign here because the artifact itself is written
        via atomic rename and is content-addressed — the worst case is one
        redundant identical write, never a torn or mixed artifact.
        """
        lock_path = f"{file}.lock"
        try:
            fault_point(self.fault_plan, "cache.lock")
            if fcntl is not None:
                fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    os.close(fd)
                    return None
                self._stamp_lock(fd)
                return (fd, lock_path)
            fd = os.open(  # pragma: no cover - non-posix fallback
                lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
            self._stamp_lock(fd)  # pragma: no cover
            return (fd, lock_path)  # pragma: no cover
        except FileExistsError:  # pragma: no cover - non-posix fallback
            return None
        except OSError:
            return None

    @staticmethod
    def _stamp_lock(fd: int) -> None:
        """Record the holder's PID in the lock file, so ``doctor`` can
        report who holds a live lock instead of guessing."""
        with suppress(OSError):
            os.ftruncate(fd, 0)
            os.write(fd, str(os.getpid()).encode("ascii"))

    @staticmethod
    def _lock_holder(lock_path: str) -> Optional[int]:
        """The PID recorded in a lock file, or None when unreadable."""
        try:
            with open(lock_path, "rb") as f:
                return int(f.read().strip() or b"-1")
        except (OSError, ValueError):
            return None

    @staticmethod
    def _release_lock(lock: tuple) -> None:
        fd, lock_path = lock
        with suppress(Exception):
            os.close(fd)
        with suppress(Exception):
            os.unlink(lock_path)

    def _lock_is_stale(self, lock_path: str) -> bool:
        """True when no live process holds the advisory lock."""
        if fcntl is None:  # pragma: no cover - non-posix fallback
            return True
        try:
            fd = os.open(lock_path, os.O_RDWR)
        except OSError:
            return False
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                return True
            except OSError:
                return False
        finally:
            os.close(fd)

    # -- wait-for-winner (writer claims) -------------------------------------

    def claim_writer(self, registry: "ModuleRegistry", path: str, lang: str):
        """Claim the right to compile-and-store ``path``'s artifact.

        Called after a cache miss, *before* compiling. Artifacts are
        content-addressed, so two contexts compiling the same key would do
        byte-identical work — one of them should wait instead:

        - returns ``(claim, False)`` when this context won: it holds the
          artifact's advisory lock for the whole compile+store, and must
          hand ``claim`` to :meth:`store` and then :meth:`release_writer`;
        - returns ``(None, True)`` when a concurrent winner (another
          thread of this process, or a live lock-holding process) was
          waited for and published the artifact — re-load it;
        - returns ``(None, False)`` when there is nothing to coordinate
          with (no live holder, an unattributable lock, a timeout, or a
          disabled cache) — compile locally; the store degrades safely.
        """
        if self.disabled or not self._ensure_dir():
            return None, False
        file = self.artifact_path(path, lang, registry.source_hash(path))
        # taking the lock, registering the event and reading a contender's
        # event is one step, so a held lock always has its event in view
        with _INFLIGHT_LOCK:
            lock = self._acquire_lock(file)
            if lock is not None:
                event = _INFLIGHT[file] = threading.Event()
                return (file, lock, event), False
            event = _INFLIGHT.get(file)
        # contended. An in-process compile registers an in-flight event —
        # wait on that (cheap, exact); otherwise fall back to watching a
        # live foreign process's lock. A lock with no live in-flight entry
        # and no (or our own) recorded PID is *unattributable* — somebody
        # is holding the file but provably not compiling here — so
        # compiling locally beats waiting for a phantom.
        if event is not None:
            if event.wait(self.winner_timeout) and os.path.exists(file):
                self.waits += 1
                self._instant("wait-winner", path)
                return None, True
            self._warn(
                "C106",
                f"timed out waiting {self.winner_timeout}s for a concurrent "
                f"compile of {path}; compiling it here too",
            )
            return None, False
        holder = self._lock_holder(f"{file}.lock")
        if holder is None or holder == os.getpid() or not _pid_alive(holder):
            return None, False
        deadline = time.monotonic() + self.winner_timeout
        while time.monotonic() < deadline:
            if os.path.exists(file):
                self.waits += 1
                self._instant("wait-winner", path)
                return None, True
            lock_path = f"{file}.lock"
            if not os.path.exists(lock_path) or self._lock_is_stale(lock_path):
                # winner finished (artifact decides) or died (stale lock)
                return None, os.path.exists(file)
            time.sleep(0.01)
        self._warn(
            "C106",
            f"timed out waiting {self.winner_timeout}s for process {holder} "
            f"to publish the artifact for {path}; compiling it here too",
        )
        return None, False

    def release_writer(self, claim: tuple) -> None:
        """Release a winning :meth:`claim_writer` claim (always runs, even
        when the compile failed — waiters re-check the artifact on wake)."""
        file, lock, event = claim
        with _INFLIGHT_LOCK:
            if _INFLIGHT.get(file) is event:
                del _INFLIGHT[file]
        event.set()
        self._release_lock(lock)

    # -- load ---------------------------------------------------------------

    def load(
        self, registry: "ModuleRegistry", path: str, lang: str
    ) -> Optional["CompiledModule"]:
        """Load ``path`` from its artifact, or None to fall back to a compile.

        Validates the envelope checksum, the artifact header, and every
        recorded dependency's full key (compiling or cache-loading the
        dependencies in the process); on success counts a hit. All failure
        modes count a miss and return None; invalid artifacts are
        quarantined (C104).
        """
        source_hash = registry.source_hash(path)
        file = self.artifact_path(path, lang, source_hash)
        if not os.path.exists(file):
            current_stats().cache_misses += 1
            self._instant("miss", path)
            return None

        def read() -> bytes:
            with open(file, "rb") as f:
                return fault_bytes(self.fault_plan, "cache.read", f.read())

        try:
            data = self._retrying("cache.read", read)
            payload = self._verify_envelope(data)
            with _INTERN_LOCK:
                unpickler = _ArtifactUnpickler(io.BytesIO(payload), registry)
                artifact = unpickler.load_artifact()
            if (
                not isinstance(artifact, dict)
                or artifact.get("format") != FORMAT_VERSION
                or artifact.get("path") != path
                or artifact.get("lang") != lang
            ):
                raise ValueError("artifact header mismatch")
        except Exception as err:
            quarantined = self._quarantine(file)
            if quarantined is not None:
                self._warn(
                    "C104",
                    f"corrupt compiled artifact for {path} "
                    f"({type(err).__name__}: {err}); quarantined to "
                    f"{quarantined}; recompiling from source",
                )
                self._instant("quarantine", path)
            else:
                self._warn(
                    "C101",
                    f"corrupt compiled artifact for {path} "
                    f"({type(err).__name__}: {err}); recompiling from source",
                )
            current_stats().cache_misses += 1
            self._instant("miss", path)
            return None

        for dep_path, dep_key in artifact["deps"]:
            try:
                registry.get_compiled(dep_path, requirer=path)
            except Exception as err:
                self._warn(
                    "C102",
                    f"stale compiled artifact for {path}: dependency "
                    f"{dep_path} is unavailable ({type(err).__name__}); "
                    f"recompiling from source",
                )
                current_stats().cache_invalidations += 1
                current_stats().cache_misses += 1
                self._instant("invalidation", path)
                return None
            if registry.full_key_of(dep_path) != dep_key:
                self._warn(
                    "C102",
                    f"stale compiled artifact for {path}: dependency "
                    f"{dep_path} changed; recompiling from source",
                )
                current_stats().cache_invalidations += 1
                current_stats().cache_misses += 1
                self._instant("invalidation", path)
                return None

        module: "CompiledModule" = artifact["module"]
        registry.set_full_key(path, artifact["key"])
        current_stats().cache_hits += 1
        self._instant("hit", path)
        return module

    # -- store --------------------------------------------------------------

    def store(
        self,
        registry: "ModuleRegistry",
        path: str,
        lang: str,
        module: "CompiledModule",
        full_key: str,
        claim: Optional[tuple] = None,
    ) -> bool:
        """Write ``module``'s artifact; best-effort (False on failure).

        One writer per content hash: a concurrent writer holding the
        artifact's lock makes this a silent no-op (it is writing the same
        bytes). Torn writes cannot surface: the envelope is fully
        serialized in memory, written to a temp file, and atomically
        renamed into place.

        ``claim`` is a winning :meth:`claim_writer` claim already holding
        the artifact's lock (the compile-and-store path); the store then
        neither re-acquires nor releases it — :meth:`release_writer` does,
        in the caller's ``finally``.
        """
        deps = []
        for dep_path in module.requires:
            dep_key = registry.full_key_of(dep_path)
            if dep_key is None:
                self._warn(
                    "C103",
                    f"not caching {path}: dependency {dep_path} has no "
                    f"content key",
                )
                return False
            deps.append((dep_path, dep_key))
        artifact = {
            "format": FORMAT_VERSION,
            "path": path,
            "lang": lang,
            "key": full_key,
            "deps": deps,
            "module": module,
        }
        file = self.artifact_path(path, lang, registry.source_hash(path))
        tmp = f"{file}.tmp.{os.getpid()}"
        try:
            # serialize fully before touching the filesystem, so an
            # unpicklable module (e.g. one re-exporting a Python-implemented
            # macro) leaves no partial file behind
            buf = io.BytesIO()
            pickler = _ArtifactPickler(buf, token_prefix=full_key[:16])
            pickler.dump(artifact)
            pickler.dump_bindings()
            payload = buf.getvalue()
            envelope = MAGIC + hashlib.sha256(payload).digest() + payload
        except Exception as err:
            self._warn(
                "C103",
                f"could not cache compiled artifact for {path} "
                f"({type(err).__name__}: {err})",
            )
            return False
        if not self._ensure_dir():
            return False
        if claim is not None and claim[0] == file:
            lock: Optional[tuple] = None  # already held; caller releases
        else:
            lock = self._acquire_lock(file)
            if lock is None:
                # another writer owns this content hash; its bytes are ours
                self._instant("store-skipped", path)
                return False
        try:
            # no existence short-circuit: the same source hash can hold a
            # *stale* artifact (a dependency's full key changed), and the
            # rename is atomic either way
            envelope = fault_bytes(self.fault_plan, "cache.write", envelope)

            def write() -> None:
                with open(tmp, "wb") as f:
                    f.write(envelope)
                fault_point(self.fault_plan, "cache.replace")
                os.replace(tmp, file)

            self._retrying("cache.write", write)
        except Exception as err:
            self._warn(
                "C103",
                f"could not cache compiled artifact for {path} "
                f"({type(err).__name__}: {err})",
            )
            # the cleanup must never mask the original degradation: a
            # failing unlink (gone already, permissions, injected fault)
            # is suppressed entirely
            with suppress(Exception):
                fault_point(self.fault_plan, "cache.unlink")
                os.unlink(tmp)
            return False
        finally:
            if lock is not None:
                self._release_lock(lock)
        current_stats().cache_stores += 1
        self._instant("store", path)
        return True

    # -- maintenance --------------------------------------------------------

    def entries(self) -> list[tuple[str, int]]:
        """(filename, size-in-bytes) for every artifact on disk."""
        try:
            names = sorted(os.listdir(self.dir))
        except OSError:
            return []
        out = []
        for name in names:
            if name.endswith(".zo"):
                try:
                    out.append((name, os.path.getsize(os.path.join(self.dir, name))))
                except OSError:
                    continue
        return out

    def clear(self) -> dict:
        """Delete every artifact *and* the cache's debris.

        Earlier versions iterated :meth:`entries` (``*.zo`` only), so
        ``repro cache clear`` reported success while leaving the
        ``quarantine/`` subdirectory, torn-write ``*.tmp.*`` files, and
        stale lock files behind. This sweeps the same categories
        :meth:`doctor` knows about and removes them; a lock file with a
        live holder is left alone.

        Returns a report dict: counts for ``artifacts``, ``quarantined``,
        ``tmp``, and ``locks`` removed, plus any per-file ``errors``.
        """
        report: dict[str, Any] = {
            "dir": self.dir,
            "artifacts": 0,
            "quarantined": 0,
            "tmp": 0,
            "locks": 0,
            "errors": [],
        }
        try:
            names = sorted(os.listdir(self.dir))
        except OSError:
            return report

        def remove(full: str, counter: str) -> None:
            try:
                os.unlink(full)
                report[counter] += 1
            except OSError as err:
                report["errors"].append(f"cannot remove {full}: {err}")

        for name in names:
            full = os.path.join(self.dir, name)
            if name == QUARANTINE_DIR and os.path.isdir(full):
                try:
                    quarantined = sorted(os.listdir(full))
                except OSError as err:
                    report["errors"].append(f"cannot list {full}: {err}")
                    continue
                for qname in quarantined:
                    remove(os.path.join(full, qname), "quarantined")
                with suppress(OSError):
                    os.rmdir(full)
            elif name.endswith(".zo"):
                remove(full, "artifacts")
            elif ".tmp." in name:
                remove(full, "tmp")
            elif name.endswith(".lock") and self._lock_is_stale(full):
                remove(full, "locks")
        return report

    def doctor(self) -> dict:
        """Scan and repair the cache directory — safe to run *mid-flight*.

        - validates every artifact's envelope (magic + checksum);
          invalid ones are quarantined;
        - artifacts from another ``FORMAT_VERSION`` (``REPROZO`` and another
          version byte, with an intact checksum) are **reported**, not
          quarantined — they are stale, not corrupt;
        - removes torn-write debris (``*.tmp.*`` files left by a crash
          between write and rename) — but only when the PID baked into the
          name is dead; an in-flight writer's temp file is *reported*
          (``tmp_live``), not yanked out from under it;
        - removes stale lock files (no live holder); locks held by a live
          process are **reported** (``locks_held``, with the holder's PID
          from the lock stamp), never treated as a failure — so the doctor
          can run concurrently with active compilations.

        Returns a report dict; never raises for per-file problems, and
        live locks / live temp files do not count as errors.
        """
        report: dict[str, Any] = {
            "dir": self.dir,
            "scanned": 0,
            "ok": 0,
            "old_version": [],
            "quarantined": [],
            "tmp_removed": [],
            "tmp_live": [],
            "locks_removed": [],
            "locks_held": [],
            "errors": [],
        }
        try:
            names = sorted(os.listdir(self.dir))
        except OSError as err:
            report["errors"].append(f"cannot list {self.dir}: {err}")
            return report
        for name in names:
            full = os.path.join(self.dir, name)
            if name.endswith(".zo"):
                report["scanned"] += 1
                data = b""
                try:
                    with open(full, "rb") as f:
                        data = f.read()
                    self._verify_envelope(data)
                    report["ok"] += 1
                except Exception as err:
                    old = self._historic_version(data)
                    if old is not None:
                        report["old_version"].append((name, old))
                        continue
                    dest = self._quarantine(full)
                    report["quarantined"].append(
                        (name, str(err), dest or "<unlinked>")
                    )
            elif ".tmp." in name:
                writer = self._tmp_writer_pid(name)
                if writer is not None and _pid_alive(writer):
                    report["tmp_live"].append((name, writer))
                    continue
                try:
                    os.unlink(full)
                    report["tmp_removed"].append(name)
                except OSError as err:
                    report["errors"].append(f"cannot remove {name}: {err}")
            elif name.endswith(".lock"):
                if self._lock_is_stale(full):
                    try:
                        os.unlink(full)
                        report["locks_removed"].append(name)
                    except OSError as err:
                        report["errors"].append(f"cannot remove {name}: {err}")
                else:
                    report["locks_held"].append((name, self._lock_holder(full)))
        return report

    @staticmethod
    def _tmp_writer_pid(name: str) -> Optional[int]:
        """The writer PID baked into a ``<hash>.zo.tmp.<pid>`` name."""
        try:
            return int(name.rsplit(".tmp.", 1)[1])
        except (IndexError, ValueError):
            return None
