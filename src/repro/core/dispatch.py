"""Parallel per-server I/O dispatch (§4.2, made concurrent).

Request combination folds a processor's bricks into one request per
server and staggers each processor's starting server — but the paper's
speedups (Figs. 11–14) rest on the *independent storage devices then
working simultaneously*.  This module supplies that missing half on the
client: a shared worker pool that fans a wire plan's per-server
requests out concurrently, with a bounded retry-with-exponential-
backoff policy for transient failures (ServerBusy admission rejections,
lost connections, injected transient faults) and a per-request
completion deadline.  This is the only retry loop on the request path:
the transports beneath make one attempt and raise.

Transience is attribute-based: any exception whose ``transient``
attribute is truthy (:func:`is_transient`) is retried up to
``DispatchPolicy.retries`` times, so a request is tried at most
``retries + 1`` times; every other error propagates
unchanged on first occurrence.  When a transient error outlives the
budget it is wrapped in :class:`repro.errors.RetryExhausted` naming the
failing server, with the original exception chained.

Invariants:

- results come back in plan order regardless of completion order, so
  staggered schedules keep their meaning;
- a dispatch returns (or raises) only after every submitted request has
  finished — no worker is still scattering into a caller's buffer when
  control returns.  The single exception is the batch deadline: without
  ``collect_errors`` a :class:`DispatchTimeout` is raised, stragglers
  are abandoned and the caller must discard the target buffer; with
  ``collect_errors`` the timed-out slots *hold* a
  :class:`DispatchTimeout` and the batch still accounts for every slot;
- with ``max_workers=1`` requests run inline on the calling thread, in
  plan order — byte-identical semantics to sequential dispatch;
- when the first (permanent) error is raised, every *successful*
  request has already been reported through ``on_result``, so partial-
  progress accounting survives a failure;
- a dispatch issued *from* a pool worker runs inline (never re-enters
  the pool), so nested fan-out cannot deadlock on pool capacity;
- the dispatcher never retries a non-transient error: retrying a
  failed *write* blindly could double-apply side effects, so only
  errors the raiser explicitly marked safe-to-retry are replayed.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

from ..errors import ConfigError, DispatchTimeout, RetryExhausted
from ..obs.registry import MetricsRegistry
from ..obs.trace import current_span, span, use_span

__all__ = [
    "DispatchPolicy",
    "DispatchResult",
    "DispatcherStats",
    "Dispatcher",
    "is_transient",
]

T = TypeVar("T")

#: thread-name prefix of pool workers (the nested-dispatch guard keys
#: off it)
_WORKER_PREFIX = "dpfs-io"

#: ceiling of the exponential backoff between re-attempts
_BACKOFF_CAP_S = 0.25


def is_transient(exc: BaseException) -> bool:
    """True when ``exc`` is marked safe to retry (``.transient``)."""
    return bool(getattr(exc, "transient", False))


@dataclass(frozen=True)
class DispatchPolicy:
    """Tuning knobs of one dispatcher.

    ``timeout_s`` is the completion deadline the waiter enforces per
    request (pooled mode only — an inline request cannot be pre-empted
    from its own thread).  ``retries`` counts *re*-attempts: a request
    is tried at most ``retries + 1`` times.
    """

    max_workers: int = 4
    timeout_s: float | None = None
    retries: int = 3
    backoff_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ConfigError("max_workers must be >= 1")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if self.backoff_s < 0:
            raise ConfigError("backoff must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError("timeout_s must be positive")


class DispatchResult:
    """Per-request completion record handed to ``on_result``.

    ``latency_s`` is total wall time from first attempt to completion
    (failed attempts and backoff sleeps included); ``service_s`` is the
    duration of the *successful* attempt alone and ``backoff_s`` the
    total time slept between attempts, so
    ``latency_s >= service_s + backoff_s`` always holds and the
    difference is time burnt in failed attempts.  ``queue_wait_s`` is
    how long the request sat between submission and its first attempt.

    A plain slotted class, not a dataclass: one record is built per
    request on the dispatch hot path, and a frozen dataclass's
    ``object.__setattr__``-per-field construction costs ~3x as much.
    """

    __slots__ = (
        "value",
        "server",
        "latency_s",
        "retries",
        "queue_wait_s",
        "service_s",
        "backoff_s",
    )

    def __init__(
        self,
        value: Any,
        server: int,
        latency_s: float,
        retries: int,
        queue_wait_s: float = 0.0,
        service_s: float = 0.0,
        backoff_s: float = 0.0,
    ) -> None:
        self.value = value
        self.server = server
        self.latency_s = latency_s   # wall time incl. retries and backoff
        self.retries = retries       # re-attempts needed (0 = first try)
        self.queue_wait_s = queue_wait_s
        self.service_s = service_s
        self.backoff_s = backoff_s

    def __repr__(self) -> str:
        return (
            f"DispatchResult(server={self.server}, "
            f"latency_s={self.latency_s:.6f}, retries={self.retries}, "
            f"queue_wait_s={self.queue_wait_s:.6f}, "
            f"service_s={self.service_s:.6f}, backoff_s={self.backoff_s:.6f})"
        )


class DispatcherStats:
    """Aggregate counters across every dispatch through one pool.

    Since the observability refactor this is a *view* over the shared
    :class:`~repro.obs.registry.MetricsRegistry` — the registry is the
    source of truth and these properties keep the historical attribute
    API (``stats.batches`` etc.) working on top of it.  Unlike the old
    ad-hoc counters, ``retries`` here includes re-attempts of requests
    that ultimately *failed* (``RetryExhausted``), which per-handle
    ``IOStats`` — success-only by construction — never sees.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._batches = registry.counter(
            "dpfs_dispatch_batches_total", "dispatch batches issued"
        )
        self._inline = registry.counter(
            "dpfs_dispatch_inline_batches_total", "batches run without the pool"
        )
        self._requests = registry.counter(
            "dpfs_dispatch_requests_total", "per-server requests dispatched"
        )
        self._retries = registry.counter(
            "dpfs_dispatch_retries_total", "transient re-attempts (incl. failed requests)"
        )
        self._failures = registry.counter(
            "dpfs_dispatch_failures_total", "requests that raised permanently"
        )
        self._timeouts = registry.counter(
            "dpfs_dispatch_timeouts_total", "dispatches abandoned at the deadline"
        )

    @property
    def batches(self) -> int:
        return int(self._batches.total())

    @property
    def inline_batches(self) -> int:
        return int(self._inline.total())

    @property
    def requests(self) -> int:
        return int(self._requests.total())

    @property
    def retries(self) -> int:
        return int(self._retries.total())

    @property
    def failures(self) -> int:
        return int(self._failures.total())

    @property
    def timeouts(self) -> int:
        return int(self._timeouts.total())

    def per_server_retries(self) -> dict[int, int]:
        """Retry counts by server id (every request, failed ones too)."""
        return {
            int(k): int(v) for k, v in self._retries.by_label("server").items()
        }


class Dispatcher:
    """A shared scheduler fanning per-server requests over a thread pool.

    One dispatcher is owned by one :class:`repro.core.filesystem.DPFS`
    instance and shared by every handle it opens; the pool is created
    lazily on the first dispatch that can use it and torn down by
    :meth:`shutdown` (``DPFS.close``).
    """

    def __init__(
        self,
        policy: DispatchPolicy | None = None,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.policy = policy or DispatchPolicy()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stats = DispatcherStats(self.registry)
        self._h_queue = self.registry.histogram(
            "dpfs_dispatch_queue_wait_seconds",
            "time between submission and first attempt, by server",
        )
        self._h_service = self.registry.histogram(
            "dpfs_dispatch_service_seconds",
            "duration of the successful attempt (no queueing, no backoff)",
        )
        self._c_backoff = self.registry.counter(
            "dpfs_dispatch_backoff_seconds_total",
            "total time slept between transient re-attempts",
        )
        #: per-server bound-series caches (hot path: no label-key churn)
        self._by_server: dict[int, tuple] = {}
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False

    def _server_series(self, server: int) -> tuple:
        """(requests, retries, service, queue-wait) bound to one server.

        Bound series hold per-series locks, so workers fanning out to
        different servers never contend on metric-wide locks.
        """
        series = self._by_server.get(server)
        if series is None:
            series = (
                self.stats._requests.labels(server=server),
                self.stats._retries.labels(server=server),
                self._h_service.labels(server=server),
                self._h_queue.labels(server=server),
            )
            with self._lock:
                self._by_server.setdefault(server, series)
                series = self._by_server[server]
        return series

    # -- lifecycle ---------------------------------------------------------
    def shutdown(self) -> None:
        """Drain and release the worker pool (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "Dispatcher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def _ensure_pool(self) -> ThreadPoolExecutor | None:
        with self._lock:
            if self._closed:
                return None
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.policy.max_workers,
                    thread_name_prefix=_WORKER_PREFIX,
                )
            return self._pool

    @staticmethod
    def _in_worker() -> bool:
        return threading.current_thread().name.startswith(_WORKER_PREFIX)

    # -- execution ---------------------------------------------------------
    def run(
        self,
        items: Sequence[T],
        fn: Callable[[T], Any],
        *,
        server_of: Callable[[T], int] | None = None,
        on_result: Callable[[T, DispatchResult], None] | None = None,
        collect_errors: bool = False,
    ) -> list[Any]:
        """Execute ``fn(item)`` for every item; return values in item order.

        ``server_of`` names the server a request targets (for error
        messages and stats); it defaults to ``item.server``.
        ``on_result`` is invoked once per *successful* request — from
        the worker thread that ran it — as soon as it completes.

        ``collect_errors=True`` changes failure semantics: instead of
        raising the first permanent error (leaving sibling requests'
        outcomes unknown to the caller), every request runs to
        completion and a failed slot holds its exception *instance* in
        the returned list.  Callers use this for all-servers mutations
        (remove/rename fan-out) that must never stop half-way, then
        aggregate the failures themselves.  Only :class:`Exception`
        subclasses are collected — a :class:`BaseException` (simulated
        crash, KeyboardInterrupt) still propagates immediately.  A
        request that misses the batch deadline is collected too (its
        slot holds a :class:`DispatchTimeout`) rather than aborting the
        batch; the underlying request may still finish in the
        background, which is safe for these idempotent journalled
        mutations because a recovery sweep converges the survivors.
        """
        if not items:
            return []
        if server_of is None:
            server_of = lambda item: getattr(item, "server", -1)  # noqa: E731

        self.stats._batches.inc()

        pool = None
        if (
            self.policy.max_workers > 1
            and len(items) > 1
            and not self._in_worker()
        ):
            pool = self._ensure_pool()
        if pool is None:
            self.stats._inline.inc()
            with span("dispatch.batch", requests=len(items), mode="inline"):
                parent = current_span()
                now = time.perf_counter
                if not collect_errors:
                    return [
                        self._attempt(item, fn, server_of(item), on_result, now(), parent)
                        for item in items
                    ]
                collected: list[Any] = []
                for item in items:
                    try:
                        collected.append(
                            self._attempt(
                                item, fn, server_of(item), on_result, now(), parent
                            )
                        )
                    except Exception as exc:  # noqa: BLE001 - returned to caller
                        collected.append(exc)
                return collected

        with span("dispatch.batch", requests=len(items), mode="pool"):
            parent = current_span()
            submitted = time.perf_counter()
            # one deadline for the whole batch, fixed at submission: a
            # batch of N stuck requests must fail after timeout_s, not
            # after N × timeout_s of sequential per-future waits
            deadline = (
                None
                if self.policy.timeout_s is None
                else submitted + self.policy.timeout_s
            )
            futures = [
                pool.submit(
                    self._attempt, item, fn, server_of(item), on_result,
                    submitted, parent,
                )
                for item in items
            ]
            results: list[Any] = [None] * len(items)
            first_error: BaseException | None = None
            for i, future in enumerate(futures):
                try:
                    if deadline is None:
                        results[i] = future.result()
                    else:
                        results[i] = future.result(
                            timeout=max(0.0, deadline - time.perf_counter())
                        )
                except _FutureTimeout:
                    self.stats._timeouts.inc()
                    timeout = DispatchTimeout(
                        f"server {server_of(items[i])}: request still running "
                        f"at the batch deadline ({self.policy.timeout_s}s "
                        f"from submission)"
                    )
                    if collect_errors:
                        # the contract is every-slot-accounted-for: the
                        # timed-out slot holds its exception and the
                        # remaining futures are still collected (each
                        # against the already-expired deadline), instead
                        # of aborting the batch mid-way
                        results[i] = timeout
                        continue
                    for straggler in futures:
                        straggler.cancel()
                    raise timeout from None
                except Exception as exc:  # noqa: BLE001 - re-raised below
                    if collect_errors:
                        results[i] = exc
                    elif first_error is None:
                        first_error = exc
            if first_error is not None:
                raise first_error
            return results

    def _attempt(
        self,
        item: T,
        fn: Callable[[T], Any],
        server: int,
        on_result: Callable[[T, DispatchResult], None] | None,
        submitted: float,
        parent: Any = None,
    ) -> Any:
        """One request: bounded retry loop, timing, success reporting.

        ``submitted`` is the perf_counter timestamp at submission (queue
        wait = first-attempt start − submitted); ``parent`` is the span
        active in the submitting thread, adopted here so per-request
        spans land in the right trace even from pool workers.
        """
        if parent is None:
            return self._attempt_inner(item, fn, server, on_result, submitted)
        with use_span(parent):
            with span("dispatch.request", server=server) as sp:
                return self._attempt_inner(
                    item, fn, server, on_result, submitted, sp
                )

    def _attempt_inner(
        self,
        item: T,
        fn: Callable[[T], Any],
        server: int,
        on_result: Callable[[T, DispatchResult], None] | None,
        submitted: float,
        sp: Any = None,
    ) -> Any:
        policy = self.policy
        c_requests, c_retries, h_service, h_queue = self._server_series(server)
        delay = policy.backoff_s
        retries = 0
        backoff_total = 0.0
        start = time.perf_counter()
        queue_wait = start - submitted
        while True:
            attempt_start = time.perf_counter()
            try:
                value = fn(item)
            except Exception as exc:
                if not is_transient(exc):
                    self.stats._failures.inc(server=server)
                    raise
                if retries >= policy.retries:
                    self.stats._failures.inc(server=server)
                    raise RetryExhausted(
                        f"server {server}: transient error persisted after "
                        f"{retries + 1} attempts: {exc}"
                    ) from exc
                retries += 1
                c_retries.inc()
                if delay:
                    time.sleep(delay)
                    backoff_total += delay
                delay = min(delay * 2 if delay else policy.backoff_s, _BACKOFF_CAP_S)
                continue
            done = time.perf_counter()
            service = done - attempt_start
            c_requests.inc()
            h_queue.observe(queue_wait)
            h_service.observe(service)
            if backoff_total:
                self._c_backoff.inc(backoff_total, server=server)
            if sp is not None:
                sp.tag(
                    queue_wait_s=queue_wait,
                    service_s=service,
                    retries=retries,
                    backoff_s=backoff_total,
                )
            result = DispatchResult(
                value=value,
                server=server,
                latency_s=done - start,
                retries=retries,
                queue_wait_s=queue_wait,
                service_s=service,
                backoff_s=backoff_total,
            )
            if on_result is not None:
                on_result(item, result)
            return value
