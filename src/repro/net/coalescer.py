"""Server-side request coalescing into the batch paths.

Concurrently in-flight GET/PUT requests for the same tenant are merged
into one :meth:`ShardRouter.get_many` / :meth:`ShardRouter.put_many`
call — the PR-2 batch paths were built for exactly this.  The window
is bounded two ways:

* **max_batch** — a queue that reaches this size flushes immediately;
* **max_delay** — the first request into an empty queue arms a timer;
  whatever has accumulated when it fires is flushed.

So an isolated request pays at most ``max_delay`` of added latency,
and a busy server pays (amortized) one thread-pool dispatch per
*batch* instead of per request — which is where the tail-latency win
in ``BENCH_PR7.json`` comes from.  With ``max_batch <= 1`` or
``max_delay <= 0`` the coalescer degrades to per-request dispatch
(the bench's baseline mode).

The router's batch calls are synchronous (they loop over their shards
on the calling thread), so flushes run on the coalescer's own 4-thread
executor via ``loop.run_in_executor`` — the event loop never blocks on
index work, and that executor is the request's one thread hop.
Each queued request holds an :class:`asyncio.Future`; a failed flush
fails every future in the batch, never silently drops one.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import SIZE_BUCKETS
from repro.obs.runtime import active_registry, active_tracer
from repro.obs.tracing import Span, Tracer
from repro.service.router import ShardRouter
from repro.service.shard import Pair
from repro.service.partition import Key

#: RA004: literal instrument names for the coalescing path.
_COUNTERS = {
    "batches": "net.coalesce.batches",
    "requests": "net.coalesce.requests",
    "timer_flushes": "net.coalesce.timer_flushes",
    "size_flushes": "net.coalesce.size_flushes",
}
_BATCH_SIZE_HISTOGRAM = "net.coalesce.batch_size"
#: RA004: span-name literal for one flushed batch.
_BATCH_SPAN = "net.coalesce.batch"

_GET = "get"
_PUT = "put"

#: One queued request: payload, its future, and (when the request is part
#: of a sampled distributed trace) the server span to link/nest under.
_Entry = Tuple[Any, "asyncio.Future[Any]", Optional[Span]]


def _adopting(
    tracer: Tracer, span: Span, call: Callable[[], Any]
) -> Callable[[], Any]:
    """Wrap ``call`` so it runs with ``span`` adopted on its thread."""

    def run() -> Any:
        with tracer.adopt(span):
            return call()

    return run


class _Queue:
    """Pending entries for one (tenant, kind) batch window."""

    __slots__ = ("kind", "entries", "timer")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.entries: List[_Entry] = []
        self.timer: Optional[asyncio.TimerHandle] = None


class Coalescer:
    """Merges in-flight requests into per-tenant router batches."""

    def __init__(
        self,
        max_batch: int = 128,
        max_delay: float = 0.001,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._executor: Optional[ThreadPoolExecutor] = None
        self._queues: Dict[Tuple[int, str], _Queue] = {}
        self._routers: Dict[int, ShardRouter] = {}
        self.batches_flushed = 0
        self.requests_coalesced = 0

    @property
    def enabled(self) -> bool:
        """False when configured down to per-request dispatch."""
        return self.max_batch > 1 and self.max_delay > 0

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=4, thread_name_prefix="repro-net"
            )
        return self._executor

    def close(self) -> None:
        """Flush nothing further; shut the executor down."""
        for queue in self._queues.values():
            if queue.timer is not None:
                queue.timer.cancel()
                queue.timer = None
        self._queues.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    # ------------------------------------------------------------------
    # Enqueue (event-loop side)
    # ------------------------------------------------------------------
    def get(
        self, router: ShardRouter, key: Key, span: Optional[Span] = None
    ) -> "asyncio.Future[Any]":
        """Queue one GET against ``router``; resolves to the value/None."""
        return self._enqueue(router, _GET, key, span)

    def put(
        self, router: ShardRouter, pair: Pair, span: Optional[Span] = None
    ) -> "asyncio.Future[Any]":
        """Queue one PUT against ``router``; resolves to None on ack."""
        return self._enqueue(router, _PUT, pair, span)

    def run_single(
        self, call: Callable[[], Any], span: Optional[Span] = None
    ) -> "asyncio.Future[Any]":
        """Dispatch one uncoalesced call (scan/delete/stats) off-loop.

        When the request carries a sampled trace, ``span`` (the server
        span) is adopted on the executor thread so the router/shard/index
        spans the call emits nest under it.
        """
        loop = asyncio.get_running_loop()
        tracer = active_tracer()
        task = call
        if span is not None and tracer is not None:
            task = _adopting(tracer, span, call)
        return asyncio.ensure_future(loop.run_in_executor(self._pool(), task))

    def _enqueue(
        self,
        router: ShardRouter,
        kind: str,
        payload: Any,
        span: Optional[Span] = None,
    ) -> "asyncio.Future[Any]":
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        if not self.enabled:
            # Per-request mode: one executor dispatch per request.
            self._routers[id(router)] = router
            self._flush_entries(router, kind, [(payload, future, span)], timer=False)
            return future
        slot = (id(router), kind)
        self._routers[id(router)] = router
        queue = self._queues.get(slot)
        if queue is None:
            queue = self._queues[slot] = _Queue(kind)
        queue.entries.append((payload, future, span))
        if len(queue.entries) >= self.max_batch:
            self._flush_queue(router, queue, timer=False)
        elif queue.timer is None:
            queue.timer = loop.call_later(
                self.max_delay, self._flush_queue, router, queue, True
            )
        return future

    # ------------------------------------------------------------------
    # Flush (event-loop side -> executor)
    # ------------------------------------------------------------------
    def _flush_queue(self, router: ShardRouter, queue: _Queue, timer: bool) -> None:
        if queue.timer is not None:
            queue.timer.cancel()
            queue.timer = None
        entries, queue.entries = queue.entries, []
        if entries:
            self._flush_entries(router, queue.kind, entries, timer=timer)

    def _flush_entries(
        self,
        router: ShardRouter,
        kind: str,
        entries: List[_Entry],
        timer: bool,
    ) -> None:
        loop = asyncio.get_running_loop()
        self.batches_flushed += 1
        self.requests_coalesced += len(entries)
        registry = active_registry()
        if registry is not None:
            registry.counter(_COUNTERS["batches"]).inc()
            registry.counter(_COUNTERS["requests"]).inc(len(entries))
            if timer:
                registry.counter(_COUNTERS["timer_flushes"]).inc()
            else:
                registry.counter(_COUNTERS["size_flushes"]).inc()
            registry.histogram(_BATCH_SIZE_HISTOGRAM, SIZE_BUCKETS).record(len(entries))
        payloads = [payload for payload, _, _ in entries]

        # One batch span per flush, parented under the *first* traced
        # request's server span; the other coalesced requests are linked
        # by span id so the stitch tool can attribute the shared work to
        # every trace that rode the batch.
        tracer = active_tracer()
        batch_span: Optional[Span] = None
        if tracer is not None:
            spans = [span for _, _, span in entries if span is not None]
            if spans:
                batch_span = tracer.start_child(
                    _BATCH_SPAN,
                    spans[0],
                    kind=kind,
                    size=len(entries),
                    timer_flush=timer,
                )
                if len(spans) > 1:
                    batch_span.set(
                        link_span_ids=[s.span_id for s in spans[1:]],
                        link_trace_ids=[s.trace_id for s in spans[1:]],
                    )
        started = loop.time()

        def call() -> Any:
            if kind == _GET:
                return router.get_many(payloads)
            return router.put_many(payloads)

        task = call
        if batch_span is not None and tracer is not None:
            task = _adopting(tracer, batch_span, call)
        dispatch = loop.run_in_executor(self._pool(), task)
        dispatch.add_done_callback(
            lambda done: self._resolve(kind, entries, done, batch_span, started)
        )

    def _resolve(
        self,
        kind: str,
        entries: List[_Entry],
        done: "asyncio.Future[Any]",
        batch_span: Optional[Span],
        started: float,
    ) -> None:
        if batch_span is not None:
            tracer = active_tracer()
            if tracer is not None:
                elapsed = asyncio.get_running_loop().time() - started
                tracer.finish(batch_span, elapsed_s=elapsed)
        error = done.exception() if not done.cancelled() else None
        if done.cancelled() or error is not None:
            for _, future, _ in entries:
                if not future.done():
                    if error is not None:
                        future.set_exception(error)
                    else:
                        future.cancel()
            return
        if kind == _GET:
            values = done.result()
            for (_, future, _), value in zip(entries, values):
                if not future.done():
                    future.set_result(value)
        else:
            for _, future, _ in entries:
                if not future.done():
                    future.set_result(None)
