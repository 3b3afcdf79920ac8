"""The ``repro serve`` HTTP server.

A long-lived compile-and-eval service over the library Runtime: a
stdlib :class:`ThreadingHTTPServer` (one thread per request) in front of
per-tenant Runtime pools (:mod:`repro.serve.pool`), the shared artifact
cache, per-request resource budgets, and per-request spans on the observe
event bus.

Protocol (all bodies JSON):

``POST /run``
    ``{"source": "#lang ...", "tenant": "t1", "budget": {"steps": N,
    "seconds": S, "max_depth": D}}`` — register the source as an anonymous
    module, compile and run it, return its output. The module is evicted
    after the request; its *dependencies'* artifacts stay warm in the
    shared cache. Response: ``{"ok": true, "output": ..., "stats": {...},
    "elapsed_ms": ...}``, or ``{"ok": false, "error": {"code": "G001",
    "message": ...}}`` — a budget kill is a well-formed response, not a
    dropped connection. Opt in with ``"trace": true`` to get the request's
    observe spans back in a ``"trace"`` envelope (schema ``repro-trace/1``);
    without it the reply is byte-for-byte what it always was.

``POST /compile``
    Either ``{"source": ...}`` (anonymous module, reports diagnostics
    without running) or ``{"paths": [...], "jobs": N}`` — a module-graph
    compilation (:mod:`repro.modules.graph`; ``jobs > 1`` forks a process
    pool) whose artifacts land in the shared cache for every later
    request.

``GET /healthz``
    Liveness: ``{"ok": true, "uptime_s": ..., "requests": ...}``.

``GET /stats``
    Service counters: requests per endpoint, budget kills by G-code,
    cache-degradation warnings observed, pool occupancy.

Error semantics: platform errors (parse, expansion, type, module, budget,
contract) come back as ``ok: false`` with the error's stable code — HTTP
status stays 200 because the *service* worked; 400/404/405 are reserved
for malformed requests, 408 (``S408``) for a body that does not arrive
within the handler's socket timeout, and 413 (``S413``) for a body longer
than ``MAX_BODY_BYTES``. A request ``http.server`` itself rejects
(unparsable request line, unsupported method, oversized headers) gets
the same envelope with ``S<status>`` and a closed connection, never an
HTML page. Cache degradation (e.g. an injected fault or a
corrupt artifact) never fails a request: the pipeline recompiles from
source and the response carries the C-coded warnings in
``"diagnostics"``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional

from repro.errors import ReproError
from repro.guard.budget import LIMITS, resolve_budget
from repro.observe.events import TRACE_SCHEMA
from repro.observe.recorder import NULL_RECORDER, Tracer
from repro.serve.pool import RuntimePool

_REQ_IDS = itertools.count(1)

#: budget keys a request may set; anything else in "budget" is rejected
_BUDGET_KEYS = frozenset(LIMITS)

#: the longest request body accepted; a longer Content-Length is S413
MAX_BODY_BYTES = 1 << 20

_NUMERIC_STATS = (
    "expansion_steps", "eval_steps", "cache_hits", "cache_misses",
    "cache_stores", "cache_invalidations", "pyc_codegens",
)


class _BadRequest(Exception):
    """A malformed request (HTTP 400)."""


class ReproServer:
    """The service: construct, :meth:`start`, speak JSON, :meth:`stop`.

    ``port=0`` binds an ephemeral port (read it back from ``.address``
    after start) — the mode the tests and the benchmark use.
    ``default_budget`` is a budget dict applied to requests that don't
    send their own (None = ungoverned by default). ``trace`` is resolved
    once, at construction, into the recorder every pooled Runtime records
    to; a ``"trace": true`` request records to its own Tracer instead.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_dir: Optional[str] = None,
        backend: Optional[str] = None,
        trace: Any = None,
        default_budget: Optional[dict[str, Any]] = None,
    ) -> None:
        self.pool = RuntimePool(cache_dir=cache_dir, backend=backend, trace=trace)
        self.default_budget = dict(default_budget) if default_budget else None
        self._host = host
        self._port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started = 0.0
        self._stats_lock = threading.Lock()
        self.requests: dict[str, int] = {}
        self.budget_kills: dict[str, int] = {}
        self.errors = 0
        self.warnings = 0

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._httpd is None:
            return (self._host, self._port)
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> tuple[str, int]:
        """Bind and serve on a daemon thread; returns ``(host, port)``."""
        if self._httpd is not None:
            return self.address
        server = self

        class Handler(_Handler):
            repro_server = server

        self._httpd = ThreadingHTTPServer((self._host, self._port), Handler)
        self._httpd.daemon_threads = True
        self._started = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        """Shut down the listener and close every pooled Runtime."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.pool.close()

    def __enter__(self) -> "ReproServer":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- accounting ---------------------------------------------------------

    def _count(self, endpoint: str) -> None:
        with self._stats_lock:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    def _count_kill(self, code: str) -> None:
        with self._stats_lock:
            self.budget_kills[code] = self.budget_kills.get(code, 0) + 1

    # -- request handlers ---------------------------------------------------

    def handle(self, method: str, path: str, body: Optional[dict]) -> tuple[int, dict]:
        """Route one request; returns ``(http_status, json_payload)``.

        Usable directly (no HTTP): most tests go through here.
        """
        if method == "GET" and path == "/healthz":
            self._count("healthz")
            return 200, {
                "ok": True,
                "uptime_s": round(time.monotonic() - self._started, 3),
                "requests": sum(self.requests.values()),
            }
        if method == "GET" and path == "/stats":
            self._count("stats")
            return 200, self._stats_payload()
        if method == "POST" and path == "/run":
            self._count("run")
            return self._compile_or_run(body, run=True)
        if method == "POST" and path == "/compile":
            self._count("compile")
            if body is not None and "paths" in body:
                return self._compile_graph(body)
            return self._compile_or_run(body, run=False)
        if path in ("/run", "/compile", "/healthz", "/stats"):
            return 405, {"ok": False, "error": {"code": "S405", "message": f"method {method} not allowed for {path}"}}
        return 404, {"ok": False, "error": {"code": "S404", "message": f"no such endpoint: {path}"}}

    def _stats_payload(self) -> dict:
        with self._stats_lock:
            payload = {
                "ok": True,
                "requests": dict(self.requests),
                "budget_kills": dict(self.budget_kills),
                "errors": self.errors,
                "warnings": self.warnings,
            }
        payload["pools"] = self.pool.sizes()
        payload["runtimes"] = {
            "created": self.pool.created, "reused": self.pool.reused,
        }
        return payload

    def _budget_of(self, body: dict) -> Any:
        spec = body.get("budget", None)
        if spec is None:
            spec = self.default_budget
        if spec is None:
            return None
        if not isinstance(spec, dict):
            raise _BadRequest("budget must be an object")
        unknown = set(spec) - _BUDGET_KEYS
        if unknown:
            raise _BadRequest(
                f"unknown budget keys: {', '.join(sorted(unknown))}"
            )
        try:
            return resolve_budget(dict(spec))
        except (TypeError, ValueError) as err:
            raise _BadRequest(f"bad budget: {err}") from None

    def _compile_or_run(self, body: Optional[dict], *, run: bool) -> tuple[int, dict]:
        if not isinstance(body, dict):
            raise _BadRequest("request body must be a JSON object")
        source = body.get("source")
        file = body.get("path")
        if (source is None) == (file is None):
            raise _BadRequest('exactly one of "source" or "path" is required')
        if source is not None and not isinstance(source, str):
            raise _BadRequest('"source" must be a string')
        if file is not None and not isinstance(file, str):
            raise _BadRequest('"path" must be a string')
        tenant = body.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise _BadRequest('"tenant" must be a non-empty string')
        want_trace = body.get("trace", False)
        if not isinstance(want_trace, bool):
            raise _BadRequest('"trace" must be a boolean')
        budget = self._budget_of(body)

        req = next(_REQ_IDS)
        endpoint = "run" if run else "compile"
        rt = self.pool.checkout(tenant)
        module_path: Optional[str] = None
        t0 = time.perf_counter()
        # opt-in per-request tracing: the checked-out Runtime records to a
        # fresh Tracer for this request only (checkin restores the pool's),
        # so the reply carries exactly its own spans
        req_tracer = Tracer() if want_trace else None
        if req_tracer is not None:
            rt.tracer = req_tracer
        rec = rt.tracer if rt.tracer is not None else NULL_RECORDER
        try:
            with rec.span("serve", f"{endpoint} #{req} tenant={tenant}"):
                rt.budget = budget
                before = rt.stats.snapshot()
                diags_before = len(rt.cache.diagnostics) if rt.cache else 0
                try:
                    if source is not None:
                        # content-derived path: the module path is part of
                        # the artifact key, so naming anonymous modules
                        # after their source makes a repeated request a
                        # warm cache hit for every tenant
                        import hashlib

                        digest = hashlib.sha256(source.encode("utf-8"))
                        module_path = f"<serve:{digest.hexdigest()[:24]}>"
                        rt.register_module(module_path, source)
                    else:
                        module_path = rt.register_file(file)
                    if run:
                        output: Optional[str] = rt.run(module_path)
                    else:
                        output = None
                        rt.compile(module_path)
                except ReproError as err:
                    code = getattr(err, "code", None) or "X001"
                    if code.startswith("G"):
                        self._count_kill(code)
                    with self._stats_lock:
                        self.errors += 1
                    return 200, self._finish(
                        rt, tenant, module_path, source is not None, t0, before,
                        diags_before, tracer=req_tracer,
                        ok=False,
                        error={"code": code, "message": str(err)},
                    )
                except OSError as err:
                    with self._stats_lock:
                        self.errors += 1
                    return 200, self._finish(
                        rt, tenant, module_path, source is not None, t0, before,
                        diags_before, tracer=req_tracer,
                        ok=False,
                        error={"code": "S500", "message": f"cannot read {file}: {err.strerror or err}"},
                    )
                payload: dict[str, Any] = {}
                if run:
                    payload["output"] = output
                return 200, self._finish(
                    rt, tenant, module_path, source is not None, t0, before,
                    diags_before, tracer=req_tracer, ok=True, **payload,
                )
        finally:
            self.pool.checkin(tenant, rt)

    def _finish(
        self,
        rt: Any,
        tenant: str,
        module_path: Optional[str],
        anonymous: bool,
        t0: float,
        before: dict,
        diags_before: int,
        *,
        ok: bool,
        tracer: Optional[Tracer] = None,
        error: Optional[dict] = None,
        **extra: Any,
    ) -> dict:
        # per-request stats: the runtime's counters are cumulative across
        # the requests it has served, so report the delta
        after = rt.stats.snapshot()
        stats = {k: after[k] - before[k] for k in _NUMERIC_STATS}
        diagnostics: list[str] = []
        if rt.cache is not None:
            fresh = rt.cache.diagnostics[diags_before:]
            diagnostics = [str(d) for d in fresh]
            if fresh:
                with self._stats_lock:
                    self.warnings += len(fresh)
        if anonymous and module_path is not None:
            # the request's module must not accumulate in the pooled
            # runtime; its dependencies stay compiled (that's the warmth)
            rt.registry.unregister(module_path)
        result: dict[str, Any] = {
            "ok": ok,
            "tenant": tenant,
            "elapsed_ms": round((time.perf_counter() - t0) * 1000, 3),
            "stats": stats,
        }
        if error is not None:
            result["error"] = error
        if diagnostics:
            result["diagnostics"] = diagnostics
        if tracer is not None:
            # the enclosing "serve" span is still open here, so its closing
            # event is absent by construction; every inner span (read,
            # expand, compile, eval, dialect, ...) has already landed
            result["trace"] = {
                "schema": TRACE_SCHEMA,
                "events": [e.to_json() for e in tracer.events],
                "dropped": tracer.dropped,
            }
        result.update(extra)
        return result

    def _compile_graph(self, body: dict) -> tuple[int, dict]:
        paths = body.get("paths")
        if not isinstance(paths, list) or not all(isinstance(p, str) for p in paths):
            raise _BadRequest('"paths" must be a list of strings')
        jobs = body.get("jobs", 1)
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise _BadRequest('"jobs" must be a positive integer')
        # no request forks more workers than the host has CPUs
        jobs = min(jobs, os.cpu_count() or 1)
        tenant = body.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise _BadRequest('"tenant" must be a non-empty string')
        rt = self.pool.checkout(tenant)
        t0 = time.perf_counter()
        try:
            try:
                report = rt.compile_graph(paths, jobs=jobs)
            except (ReproError, ValueError) as err:
                with self._stats_lock:
                    self.errors += 1
                code = getattr(err, "code", None) or "X001"
                return 200, {
                    "ok": False, "tenant": tenant,
                    "elapsed_ms": round((time.perf_counter() - t0) * 1000, 3),
                    "error": {"code": code, "message": str(err)},
                }
            snap = report.snapshot()
            snap["ok"] = report.ok
            snap["tenant"] = tenant
            snap["elapsed_ms"] = round((time.perf_counter() - t0) * 1000, 3)
            if not report.ok:
                with self._stats_lock:
                    self.errors += 1
                snap["error"] = {
                    "code": "X100",
                    "message": "; ".join(
                        f"{p}: {msg}" for p, msg in sorted(report.errors.items())
                    ),
                }
            return 200, snap
        finally:
            self.pool.checkin(tenant, rt)


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP shim over :meth:`ReproServer.handle`."""

    repro_server: ReproServer  # set by the subclass ReproServer.start builds
    protocol_version = "HTTP/1.1"
    # a reply is two writes (headers, body); with Nagle's algorithm on, the
    # body waits for the client's delayed ACK, ~40 ms per kept-alive reply
    disable_nagle_algorithm = True
    # seconds a read may block: a client that sends a short body, or goes
    # idle on a kept-alive connection, gives its thread back
    timeout = 30

    # silence the default stderr access log (the service has /stats)
    def log_message(self, format: str, *args: Any) -> None:
        pass

    def _reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if self.close_connection:
            self.send_header("Connection", "close")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _error(self, status: int, code: str, message: str) -> None:
        self._reply(status, {"ok": False, "error": {"code": code, "message": message}})

    def parse_request(self) -> bool:
        ok = super().parse_request()
        if self.request_version == "HTTP/0.9":
            # an HTTP/0.9 reply has no status line or length: only closing
            # the connection ends it, whatever a Connection header says
            self.close_connection = True
        return ok

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Answer a request ``http.server`` rejects itself (unparsable
        request line, unsupported method, oversized or too many headers)
        with the service's JSON envelope instead of its HTML error page,
        then close the connection: the rest of the stream cannot be
        framed."""
        self.close_connection = True
        if self.request_version == "HTTP/0.9":
            # the request line did not parse (or is HTTP/0.9, which has no
            # status line): reply with one anyway so any client can read
            # the status
            self.request_version = self.protocol_version
        status = int(code)
        detail = message or self.responses.get(status, ("error",))[0]
        if explain:
            detail = f"{detail}: {explain}"
        self._error(status, f"S{status}", detail)

    def _dispatch(self, method: str, body: Optional[dict]) -> None:
        try:
            status, payload = self.repro_server.handle(method, self.path, body)
        except _BadRequest as err:
            return self._error(400, "S400", str(err))
        except Exception as err:  # never leak a stack trace as a hung socket
            return self._error(500, "S500", f"{type(err).__name__}: {err}")
        self._reply(status, payload)

    def do_GET(self) -> None:
        self._dispatch("GET", None)

    def do_POST(self) -> None:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # the body is left unread, so the connection cannot carry
            # another request
            self.close_connection = True
            if length < 0:
                self._error(400, "S400", f"bad Content-Length: {declared!r}")
            else:
                self._error(413, "S413", f"request body of {length} bytes "
                            f"exceeds the {MAX_BODY_BYTES}-byte limit")
            return
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            self.close_connection = True
            self._error(408, "S408", f"request body not received within {self.timeout}s")
            return
        try:
            body = json.loads(raw.decode("utf-8")) if raw else None
        except (ValueError, UnicodeDecodeError):
            self._error(400, "S400", "request body is not valid JSON")
            return
        self._dispatch("POST", body)


def serve_command(
    *,
    host: str,
    port: int,
    backend: str,
    cache_dir: Optional[str],
    budget: Optional[dict[str, Any]],
) -> int:
    """``repro serve`` — run the service until interrupted, with the values
    the command line parsed and checked (``backend`` resolved from
    ``--backend`` or ``$REPRO_BACKEND``). ``budget`` is the *default*
    per-request budget; a request's own "budget" object overrides it."""
    from repro.modules.cache import default_cache_dir

    server = ReproServer(
        host, port,
        cache_dir=cache_dir or default_cache_dir(),
        backend=backend,
        default_budget=budget,
    )
    try:
        bound_host, bound_port = server.start()
    except OSError as err:
        print(f"error: cannot bind {host}:{port}: {err.strerror or err}",
              file=sys.stderr)
        return 1
    print(f"repro serve listening on http://{bound_host}:{bound_port} "
          f"(backend={backend}, cache={server.pool.cache_dir})",
          file=sys.stderr)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.stop()
    return 0
