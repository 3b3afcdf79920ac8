"""Per-tenant Runtime pools for the serve layer.

Each tenant (a logical client namespace) gets its own pool of Runtimes.
Runtimes are *never* shared between concurrent requests — a request checks
one out, uses it exclusively, and checks it back in — because a Runtime's
stats, budget, and registry are single-operation state (DESIGN §11). What
tenants *do* share is the artifact cache directory: a module one tenant
compiled is a warm cache hit for every other tenant, which is the point of
running the service long-lived.

The pool bounds idle Runtimes per tenant (:data:`MAX_IDLE`); a burst of
concurrent requests above the bound builds throwaway Runtimes that are
closed on check-in instead of pooled. A closed Runtime's bindings live
on its own scopes and go with it, so bursts do not permanently grow the
process.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.observe.recorder import resolve_trace
from repro.tools.runner import Runtime

#: idle Runtimes kept per tenant
MAX_IDLE = 4


class RuntimePool:
    """Checkout/checkin pools of Runtimes, one pool per tenant.

    ``trace`` is resolved once, here (see
    :func:`~repro.observe.resolve_trace`): every Runtime the pool builds
    records to that one recorder, or to none.
    """

    def __init__(
        self,
        *,
        cache_dir: Optional[str] = None,
        backend: Optional[str] = None,
        trace: Any = None,
    ) -> None:
        self.cache_dir = cache_dir
        self.backend = backend
        self.tracer = resolve_trace(trace)
        self._idle: dict[str, list[Runtime]] = {}
        self._lock = threading.Lock()
        #: Runtimes ever built (a service health metric)
        self.created = 0
        #: checkouts served from the pool (vs fresh builds)
        self.reused = 0

    def checkout(self, tenant: str) -> Runtime:
        """An exclusive Runtime for ``tenant`` — pooled if one is idle."""
        with self._lock:
            idle = self._idle.get(tenant)
            if idle:
                self.reused += 1
                return idle.pop()
            self.created += 1
        # built outside the lock: Runtime construction installs languages
        # and is by far the slowest path here
        return Runtime(
            cache_dir=self.cache_dir,
            cache=False if self.cache_dir is None else None,
            backend=self.backend,
            trace=self.tracer if self.tracer is not None else False,
        )

    def checkin(self, tenant: str, rt: Runtime) -> None:
        """Return a Runtime to its tenant's pool (or close it if full)."""
        # per-request budgets and tracers never outlive the request
        rt.budget = None
        rt.tracer = self.tracer
        with self._lock:
            idle = self._idle.setdefault(tenant, [])
            if len(idle) < MAX_IDLE:
                idle.append(rt)
                return
        rt.close()

    def sizes(self) -> dict[str, int]:
        with self._lock:
            return {tenant: len(idle) for tenant, idle in self._idle.items()}

    def close(self) -> None:
        """Close every idle Runtime (server shutdown)."""
        with self._lock:
            pools = list(self._idle.values())
            self._idle = {}
        for idle in pools:
            for rt in idle:
                rt.close()
