"""Endpoint tests for the ``repro serve`` compile-and-eval service.

Most tests drive :meth:`ReproServer.handle` directly (no sockets) — the
HTTP layer is a thin shim over it, covered by the round-trip tests at
the end. Pinned behaviour: the JSON envelope (``ok``/``error.code``/
per-request ``stats`` deltas), warm-cache hits across tenants, budget
kills as well-formed G001 replies, S400 validation, cache-fault
degradation with C-coded ``diagnostics``, and runtime pooling.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import time
import urllib.error
import urllib.request
from typing import Optional

import pytest

from repro.faults import FaultPlan, FaultRule
from repro.serve import ReproServer
from repro.serve.server import MAX_BODY_BYTES, _BadRequest, _Handler

HELLO = '#lang racket\n(define x 20)\n(displayln (+ x 22))\n'

# many closure applications so a tiny step budget trips mid-eval
BUSY = (
    "#lang racket\n"
    + "\n".join(f"(define (f{j} x) (+ x {j}))" for j in range(20))
    + "\n(displayln (+ "
    + " ".join(f"(f{j} 1)" for j in range(20))
    + "))\n"
)


@pytest.fixture
def srv(tmp_path):
    with ReproServer(cache_dir=str(tmp_path / "cache")) as server:
        yield server


def with_fault_plan(server, tenant, plan):
    """Pool a Runtime for ``tenant`` whose cache injects ``plan``'s faults:
    the tenant's next request checks it out."""
    rt = server.pool.checkout(tenant)
    rt.cache.fault_plan = plan
    server.pool.checkin(tenant, rt)


class TestEnvelope:
    def test_healthz(self, srv):
        status, payload = srv.handle("GET", "/healthz", None)
        assert status == 200 and payload["ok"] is True
        assert payload["requests"] >= 1

    def test_run_source(self, srv):
        status, payload = srv.handle("POST", "/run", {"source": HELLO})
        assert status == 200 and payload["ok"] is True
        assert payload["output"] == "42\n"
        assert payload["tenant"] == "default"
        assert payload["stats"]["cache_misses"] > 0  # cold
        assert payload["elapsed_ms"] > 0

    def test_run_path(self, srv, tmp_path):
        path = tmp_path / "prog.rkt"
        path.write_text(HELLO, encoding="utf-8")
        status, payload = srv.handle("POST", "/run", {"path": str(path)})
        assert status == 200 and payload["ok"] is True
        assert payload["output"] == "42\n"

    def test_compile_has_no_output(self, srv):
        status, payload = srv.handle("POST", "/compile", {"source": HELLO})
        assert status == 200 and payload["ok"] is True
        assert "output" not in payload
        assert payload["stats"]["cache_stores"] > 0

    def test_missing_file_is_s500_envelope(self, srv):
        status, payload = srv.handle(
            "POST", "/run", {"path": "/nonexistent/x.rkt"}
        )
        assert status == 200 and payload["ok"] is False
        assert payload["error"]["code"] == "S500"

    def test_reader_error_is_r_coded_envelope(self, srv):
        source = '#lang racket\n(displayln "oops)\n'
        status, payload = srv.handle("POST", "/run", {"source": source})
        assert status == 200 and payload["ok"] is False
        assert payload["error"]["code"] == "R003"
        assert payload["error"]["message"].endswith(":2:11: unterminated string")

    def test_exact_to_flonum_overflow_is_a_value(self, srv):
        source = "#lang racket\n(displayln (+ (expt 10 400) 1.5))\n"
        status, payload = srv.handle("POST", "/run", {"source": source})
        assert status == 200 and payload["ok"] is True, payload
        assert payload["output"] == "+inf.0\n"

    def test_numeric_edge_values_are_values(self, srv):
        source = (
            "#lang racket\n(displayln (asin 2))\n(displayln (acos 2.0))\n"
            "(displayln (expt 1e200+1.0i 3))\n"
        )
        status, payload = srv.handle("POST", "/run", {"source": source})
        assert status == 200 and payload["ok"] is True, payload
        assert payload["output"] == (
            "1.5707963267948966-1.3169578969248166i\n"
            "0.0+1.3169578969248166i\n+inf.0+inf.0i\n"
        )

    def test_complex_exp_and_log_edge_values_are_values(self, srv):
        source = (
            "#lang racket\n(displayln (exp 1000+1.0i))\n"
            "(displayln (log 0.0+0.0i))\n"
        )
        status, payload = srv.handle("POST", "/run", {"source": source})
        assert status == 200 and payload["ok"] is True, payload
        assert payload["output"] == "+inf.0+inf.0i\n-inf.0+0.0i\n"

    def test_routing_errors(self, srv):
        status, payload = srv.handle("GET", "/nope", None)
        assert status == 404 and payload["error"]["code"] == "S404"
        status, payload = srv.handle("GET", "/run", None)
        assert status == 405 and payload["error"]["code"] == "S405"


class TestWarmth:
    def test_same_source_is_warm_across_tenants(self, srv):
        _, cold = srv.handle("POST", "/run", {"source": HELLO, "tenant": "a"})
        assert cold["stats"]["cache_misses"] > 0
        _, warm = srv.handle("POST", "/run", {"source": HELLO, "tenant": "b"})
        assert warm["ok"] is True and warm["output"] == "42\n"
        # tenant b never compiled: the content-derived module path hit
        # the artifacts tenant a stored
        assert warm["stats"]["cache_hits"] > 0
        assert warm["stats"]["cache_misses"] == 0
        assert warm["stats"]["cache_stores"] == 0

    def test_tenant_pooling_reuses_runtimes(self, srv):
        srv.handle("POST", "/run", {"source": HELLO, "tenant": "a"})
        srv.handle("POST", "/run", {"source": HELLO, "tenant": "a"})
        assert srv.pool.reused >= 1
        _, stats = srv.handle("GET", "/stats", None)
        assert stats["runtimes"]["created"] >= 1
        assert stats["runtimes"]["reused"] >= 1


class TestBudgets:
    def test_budget_kill_is_well_formed_g001(self, srv):
        status, payload = srv.handle(
            "POST", "/run", {"source": BUSY, "budget": {"steps": 5}}
        )
        # a governed kill is a *successful* service reply, not a 5xx
        assert status == 200 and payload["ok"] is False
        assert payload["error"]["code"] == "G001"
        assert "stats" in payload
        _, stats = srv.handle("GET", "/stats", None)
        assert stats["budget_kills"].get("G001", 0) >= 1

    def test_killed_runtime_is_reusable(self, srv):
        srv.handle("POST", "/run", {"source": BUSY, "budget": {"steps": 5}})
        status, payload = srv.handle(
            "POST", "/run", {"source": HELLO, "tenant": "default"}
        )
        assert payload["ok"] is True and payload["output"] == "42\n"

    def test_default_budget_applies(self, tmp_path):
        with ReproServer(
            cache_dir=str(tmp_path / "cache"),
            default_budget={"steps": 5},
        ) as server:
            _, payload = server.handle("POST", "/run", {"source": BUSY})
            assert payload["ok"] is False
            assert payload["error"]["code"] == "G001"
            # a per-request budget overrides the default
            _, ok = server.handle(
                "POST", "/run", {"source": BUSY, "budget": {"steps": 100000}}
            )
            assert ok["ok"] is True


class TestTrace:
    def test_trace_opt_in_returns_spans(self, srv):
        status, payload = srv.handle(
            "POST", "/run", {"source": HELLO, "trace": True}
        )
        assert status == 200 and payload["ok"] is True
        assert payload["output"] == "42\n"
        trace = payload["trace"]
        assert trace["schema"] == "repro-trace/1"
        assert trace["dropped"] == 0
        assert trace["events"], "a cold compile+run must produce spans"
        for event in trace["events"]:
            assert event["kind"] in ("X", "I")
            assert isinstance(event["cat"], str) and event["cat"]
            assert isinstance(event["name"], str)
            assert isinstance(event["ts"], float)
        # the whole pipeline ran under the request recorder
        cats = {e["cat"] for e in trace["events"]}
        assert {"read", "expand", "compile"} <= cats
        # and the envelope is JSON-serializable as-is
        json.dumps(payload)

    def test_traced_server_request_gets_its_own_trace(self, tmp_path):
        """On a server with a server-wide tracer, a ``"trace": true``
        request still gets its own spans back, and the checked-in Runtime
        records to the server's tracer again."""
        with ReproServer(cache_dir=str(tmp_path / "cache"), trace=True) as server:
            shared = server.pool.tracer
            _, payload = server.handle(
                "POST", "/run", {"source": HELLO, "trace": True}
            )
            assert payload["ok"] is True and payload["output"] == "42\n"
            cats = {e["cat"] for e in payload["trace"]["events"]}
            assert {"read", "expand", "compile", "run"} <= cats
            assert shared.events == []
            _, payload = server.handle("POST", "/run", {"source": HELLO})
            assert "trace" not in payload
            assert {e.category for e in shared.events} >= {"serve", "run"}

    def test_trace_sees_dialect_spans(self, srv):
        src = "#lang racket/infix\n(displayln {2 + 3 * 4})\n"
        _, payload = srv.handle("POST", "/run", {"source": src, "trace": True})
        assert payload["ok"] is True and payload["output"] == "14\n"
        cats = {e["cat"] for e in payload["trace"]["events"]}
        assert "dialect" in cats

    def test_default_path_has_no_trace(self, srv):
        _, payload = srv.handle("POST", "/run", {"source": HELLO})
        assert "trace" not in payload
        _, payload = srv.handle(
            "POST", "/run", {"source": HELLO, "trace": False}
        )
        assert "trace" not in payload

    def test_trace_must_be_boolean(self, srv):
        with pytest.raises(_BadRequest):
            srv.handle("POST", "/run", {"source": HELLO, "trace": "yes"})


class TestValidation:
    @pytest.mark.parametrize("body", [
        None,
        {},
        {"source": HELLO, "path": "x.rkt"},
        {"source": 3},
        {"path": 3},
        {"source": HELLO, "tenant": ""},
        {"source": HELLO, "budget": {"bogus": 1}},
        {"source": HELLO, "budget": "fast"},
        {"source": HELLO, "budget": {"seconds": "x"}},
        {"source": HELLO, "budget": {"max_depth": "a"}},
        {"source": HELLO, "budget": {"steps": -5}},
        {"source": HELLO, "budget": {"steps": True}},
        {"source": HELLO, "budget": {"steps": 1.5}},
        {"source": HELLO, "budget": {"allocations": "z"}},
    ])
    def test_bad_run_bodies(self, srv, body):
        with pytest.raises(_BadRequest):
            srv.handle("POST", "/run", body)

    @pytest.mark.parametrize("body", [
        {"paths": "not-a-list"},
        {"paths": [1, 2]},
        {"paths": [], "jobs": 0},
        {"paths": [], "jobs": True},
        {"paths": [], "tenant": ""},
    ])
    def test_bad_graph_bodies(self, srv, body):
        with pytest.raises(_BadRequest):
            srv.handle("POST", "/compile", body)


class TestFaults:
    def test_cache_fault_degrades_with_diagnostics(self, srv):
        srv.handle("POST", "/run", {"source": HELLO, "tenant": "a"})
        plan = FaultPlan(rules=[FaultRule("cache.read", "garble", times=1)])
        with_fault_plan(srv, "b", plan)
        _, payload = srv.handle(
            "POST", "/run", {"source": HELLO, "tenant": "b"}
        )
        assert plan.fired == [("cache.read", "garble")]
        # the garbled artifact is quarantined and the module recompiled:
        # the request still succeeds, carrying the C-coded warning
        assert payload["ok"] is True and payload["output"] == "42\n"
        assert payload.get("diagnostics"), payload
        assert srv.warnings >= 1


class TestGraphEndpoint:
    def test_compile_graph_over_service(self, srv, tmp_path):
        paths = []
        for i in range(3):
            req = f'(require "m{i - 1}.rkt")\n' if i else ""
            body = f"#lang racket\n{req}(define v{i} {i})\n(provide v{i})\n"
            p = tmp_path / f"m{i}.rkt"
            p.write_text(body, encoding="utf-8")
            paths.append(str(p))
        status, payload = srv.handle(
            "POST", "/compile", {"paths": paths, "jobs": 2}
        )
        assert status == 200 and payload["ok"] is True
        assert payload["counts"]["compiled"] == 3
        assert payload["counts"]["failed"] == 0
        assert [m["status"] for m in payload["modules"].values()] == [
            "compiled"
        ] * 3

    def test_jobs_clamped_to_cpu_count(self, srv, tmp_path, monkeypatch):
        """No request forks more workers than the host has CPUs; the reply
        reports the jobs actually used."""
        p = tmp_path / "m.rkt"
        p.write_text("#lang racket\n(define v 1)\n", encoding="utf-8")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        status, payload = srv.handle(
            "POST", "/compile", {"paths": [str(p)], "jobs": 64}
        )
        assert status == 200 and payload["ok"] is True
        assert (payload["jobs"], payload["mode"]) == (1, "serial")

    def test_graph_failure_reports_x100(self, srv, tmp_path):
        bad = tmp_path / "bad.rkt"
        bad.write_text(
            "#lang racket\n(define v no-such-binding)\n", encoding="utf-8"
        )
        status, payload = srv.handle(
            "POST", "/compile", {"paths": [str(bad)], "jobs": 1}
        )
        assert status == 200 and payload["ok"] is False
        assert payload["error"]["code"] == "X100"
        assert payload["counts"]["failed"] == 1


class TestHTTP:
    """Round-trips through the real socket layer."""

    def _post(self, url, path, body):
        data = json.dumps(body).encode("utf-8") if body is not None else b"{"
        req = urllib.request.Request(
            url + path, data=data, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                return resp.status, json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read().decode("utf-8"))

    def test_run_over_http(self, srv):
        status, payload = self._post(srv.url, "/run", {"source": HELLO})
        assert status == 200 and payload["ok"] is True
        assert payload["output"] == "42\n"

    def test_budget_kill_over_http(self, srv):
        status, payload = self._post(
            srv.url, "/run", {"source": BUSY, "budget": {"steps": 5}}
        )
        assert status == 200 and payload["ok"] is False
        assert payload["error"]["code"] == "G001"

    def test_cache_fault_over_http(self, srv):
        self._post(srv.url, "/run", {"source": HELLO, "tenant": "a"})
        plan = FaultPlan(rules=[FaultRule("cache.read", "garble", times=1)])
        with_fault_plan(srv, "b", plan)
        status, payload = self._post(
            srv.url, "/run", {"source": HELLO, "tenant": "b"}
        )
        assert plan.fired == [("cache.read", "garble")]
        assert status == 200 and payload["ok"] is True
        assert payload["output"] == "42\n"
        assert payload.get("diagnostics"), payload

    def test_bad_request_is_http_400(self, srv):
        status, payload = self._post(srv.url, "/run", {})
        assert status == 400 and payload["error"]["code"] == "S400"

    def test_invalid_json_is_http_400(self, srv):
        status, payload = self._post(srv.url, "/run", None)  # sends b"{"
        assert status == 400 and payload["error"]["code"] == "S400"

    def test_healthz_over_http(self, srv):
        with urllib.request.urlopen(srv.url + "/healthz", timeout=60) as resp:
            payload = json.loads(resp.read().decode("utf-8"))
        assert resp.status == 200 and payload["ok"] is True

    def test_keep_alive_replies_do_not_stall(self, srv):
        conn = http.client.HTTPConnection(*srv.address, timeout=60)
        try:
            start = time.perf_counter()
            for _ in range(10):
                conn.request("GET", "/healthz")
                assert json.loads(conn.getresponse().read())["ok"] is True
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.3, f"10 kept-alive requests took {elapsed:.3f}s"


def _raw_post(address, content_length: str, body: bytes = b""):
    """POST /run over a bare socket; returns (status, decoded JSON reply)."""
    request = (
        "POST /run HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    ).encode("ascii") + body
    with socket.create_connection(address, timeout=60) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


class TestContentLength:
    """A malformed Content-Length gets an error envelope, never a dropped
    socket."""

    @pytest.mark.parametrize(
        "declared, status, code",
        [
            ("abc", 400, "S400"),
            ("-1", 400, "S400"),
            ("1.5", 400, "S400"),
            (str(MAX_BODY_BYTES + 1), 413, "S413"),
        ],
    )
    def test_bad_length_is_an_envelope(self, srv, declared, status, code):
        got, payload = _raw_post(srv.address, declared)
        assert got == status
        assert payload["ok"] is False and payload["error"]["code"] == code

    def test_short_body_times_out_with_an_envelope(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        with ReproServer(cache_dir=str(tmp_path / "cache")) as server:
            status, payload = _raw_post(server.address, "100", b'{"source"')
            assert status == 408
            assert payload["ok"] is False and payload["error"]["code"] == "S408"
            # the thread that waited is free: the server still answers
            status, payload = _raw_post(server.address, "2", b"{}")
            assert status == 400 and payload["error"]["code"] == "S400"


def _raw_exchange(address, request: bytes) -> bytes:
    """Send ``request`` over a bare socket, half-close, and return every
    byte the server sent back before closing the connection."""
    chunks = []
    with socket.create_connection(address, timeout=30) as sock:
        try:
            sock.sendall(request)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server may reject and close before reading it all
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(chunks)


def _replies(stream: bytes) -> list[tuple[Optional[int], dict]]:
    """Split a response stream into ``(status, JSON payload)`` replies;
    an HTTP/0.9 reply has no status line (``None``) and runs to EOF."""
    out = []
    while stream:
        if not stream.startswith(b"HTTP/"):
            out.append((None, json.loads(stream)))
            break
        head, sep, rest = stream.partition(b"\r\n\r\n")
        assert sep, f"unterminated reply head: {head[:200]!r}"
        lines = head.decode("iso-8859-1").split("\r\n")
        headers = dict(
            (name.strip().lower(), value.strip())
            for name, _, value in (line.partition(":") for line in lines[1:])
        )
        assert headers.get("content-type") == "application/json", lines
        length = int(headers["content-length"])
        out.append((int(lines[0].split()[1]), json.loads(rest[:length])))
        stream = rest[length:]
    return out


def _assert_envelopes(stream: bytes) -> None:
    replies = _replies(stream)
    assert replies, "no reply"
    for status, payload in replies:
        assert isinstance(payload, dict) and isinstance(payload.get("ok"), bool)
        if status is not None and status >= 400:
            assert payload["ok"] is False
            assert payload["error"]["code"] == f"S{status}"


class TestMalformedHTTP:
    """Requests ``http.server`` rejects before any handler runs still get
    the JSON error envelope, never its HTML error page."""

    @pytest.mark.parametrize("request_bytes, status", [
        (b"GARBAGE\r\n\r\n", 400),
        (b"PUT /run HTTP/1.1\r\nHost: t\r\n\r\n", 501),
        (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", 431),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET / HTTP/2.0\r\n\r\n", 505),
    ], ids=["garbage-line", "put", "long-header", "long-line", "http2"])
    def test_rejected_request_is_an_envelope(self, srv, request_bytes, status):
        stream = _raw_exchange(srv.address, request_bytes)
        assert stream.startswith(b"HTTP/1.1 "), stream[:100]
        [(got, payload)] = _replies(stream)
        assert got == status
        assert payload["ok"] is False and payload["error"]["code"] == f"S{status}"

    def test_http09_request_closes_despite_keep_alive(self, srv):
        # the reply has no length, so a second request on the connection
        # would be glued onto it
        stream = _raw_exchange(
            srv.address,
            b"GET /healthz\r\nConnection: keep-alive\r\n\r\nGARBAGE\r\n\r\n",
        )
        [(status, payload)] = _replies(stream)
        assert status is None and payload["ok"] is True

    def test_fuzzed_requests_get_envelopes(self, srv):
        rng = random.Random(20110604)
        junk = [bytes([c]) for c in range(256) if c not in b"\r\n"]

        def text(lo: int, hi: int) -> bytes:
            return b"".join(rng.choice(junk) for _ in range(rng.randint(lo, hi)))

        def request_line() -> bytes:
            kind = rng.randrange(5)
            if kind == 0:
                return text(1, 40)
            method = rng.choice([b"GET", b"POST", b"PUT", b"DELETE", b"HEAD",
                                 b"OPTIONS", b"get", text(1, 8)])
            path = rng.choice([b"/run", b"/compile", b"/healthz", b"/stats",
                               b"/", b"/nope", b"/" + text(0, 30)])
            version = rng.choice([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0",
                                  b"HTTP/1.x", b"http/1.1", text(1, 10), b""])
            if kind == 1:
                return b" ".join(
                    rng.sample([method, path, version], rng.randint(1, 3))
                )
            if kind == 2:
                return method + b" " + path + b" " + version + b" " + text(1, 10)
            return (method + b" " + path + b" " + version).rstrip()

        def headers() -> list[bytes]:
            lines = []
            for _ in range(rng.choice([0, 1, 3, 8, 120])):
                kind = rng.randrange(6)
                if kind == 0:
                    lines.append(text(0, 60))
                elif kind == 1:
                    lines.append(b"Content-Length: " + rng.choice([
                        b"0", b"2", b"17", b"-5", b"abc", b"1.5", b"",
                        b"99999999999", str(rng.randint(0, 300)).encode(),
                    ]))
                elif kind == 2:
                    lines.append(b"Transfer-Encoding: chunked")
                elif kind == 3:
                    lines.append(b"X-Long: " + b"a" * rng.choice([100, 70_000]))
                elif kind == 4:
                    lines.append(b" continued " + text(0, 20))
                else:
                    lines.append(b"Connection: " + rng.choice(
                        [b"close", b"keep-alive", text(0, 10)]
                    ))
            return lines

        def body() -> bytes:
            return rng.choice([
                b"", b"{}", b"{", b'{"source": 5}', b"[1, 2]", b"null",
                b'{"paths": "x"}', text(1, 200), b"\xff\xfe\x00",
                b"GET /healthz HTTP/1.1\r\n\r\n",
            ])

        for case in range(150):
            line = request_line()
            request = b"\r\n".join([line, *headers(), b"", body()])
            stream = _raw_exchange(srv.address, request)
            if not line.strip() and not stream:
                continue  # a blank request line is not a request
            try:
                _assert_envelopes(stream)
            except Exception as err:
                raise AssertionError(
                    f"case {case}: {request[:300]!r} -> {stream[:300]!r}"
                ) from err
        with urllib.request.urlopen(srv.url + "/healthz", timeout=60) as resp:
            assert resp.status == 200
            assert json.loads(resp.read())["ok"] is True
