"""Micro-batching: coalesce concurrent point queries into array calls.

The query plane (PR 5) made *batches* cheap — ``query_many`` is one
gather, ``route_batch`` one numpy step per hop for every in-flight
packet — but a serving front-end receives point queries one ``await``
at a time.  :class:`MicroBatcher` closes that gap without a timer.
A batch flushes when either trigger fires:

* **size** — the pending list reaches ``max_batch`` (flush now, inside
  the submit that filled it), or
* **idle** — the first submit of a loop tick schedules one flush at the
  end of that tick (``loop.call_soon``), which every request submitted
  in the tick rides.  A lone request is flushed at the end of the tick
  it was submitted in.

The flush function receives the pending payloads as one list and must
return one result per payload, in order; results resolve the
per-request futures.  It runs on the event-loop thread: the engine
calls it wraps are small-array numpy steps that hold the GIL, so a
worker thread could not run them alongside the loop anyway, and a
thread-pool round trip costs more than most of them.  One engine call
runs at a time, and ``max_batch`` bounds how long it holds the loop.
An exception fails every request in that batch — item ``i``'s result
never silently becomes item ``j``'s.

Single event loop: a batcher instance serves one running loop at a time
(futures and scheduled flushes belong to the submitting loop).
Sequential ``asyncio.run`` blocks are fine — each run drains its own
submissions.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

FlushFn = Callable[[List[Any]], Sequence[Any]]


@dataclass
class BatcherStats:
    """Counters for one :class:`MicroBatcher` (JSON-safe via snapshot)."""

    submitted: int = 0
    completed: int = 0
    flushes: int = 0
    size_flushes: int = 0
    idle_flushes: int = 0
    drain_flushes: int = 0
    errors: int = 0
    cancelled: int = 0
    max_batch_seen: int = 0

    @property
    def mean_batch(self) -> Optional[float]:
        """Mean flushed batch size; ``None`` before the first flush."""
        if not self.flushes:
            return None
        return self.completed / self.flushes

    def snapshot(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "flushes": self.flushes,
            "size_flushes": self.size_flushes,
            "idle_flushes": self.idle_flushes,
            "deadline_flushes": 0,  # no timer; perfbench/run.py reads it
            "drain_flushes": self.drain_flushes,
            "errors": self.errors,
            "cancelled": self.cancelled,
            "max_batch_seen": self.max_batch_seen,
            "mean_batch": self.mean_batch,
        }


@dataclass
class _Pending:
    """One coalesced request: its payload and the future to resolve."""

    payload: Any
    future: "asyncio.Future[Any]" = field(repr=False)


class MicroBatcher:
    """Coalesce awaited point requests into vectorized flush calls.

    ``flush`` maps a list of payloads to an equal-length sequence of
    results; it runs on the event-loop thread.
    """

    def __init__(
        self,
        flush: FlushFn,
        max_batch: int = 32,
        on_flush: Optional[Callable[[int], None]] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._flush = flush
        self.max_batch = int(max_batch)
        self._on_flush = on_flush
        self._pending: List[_Pending] = []
        #: An idle flush is queued with ``call_soon`` and has not run yet.
        self._scheduled = False
        self.stats = BatcherStats()

    @property
    def pending(self) -> int:
        """Requests currently waiting for a flush."""
        return len(self._pending)

    async def submit(self, payload: Any) -> Any:
        """Enqueue one payload; resolves with its flush result."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        self._pending.append(_Pending(payload, future))
        self.stats.submitted += 1
        if len(self._pending) >= self.max_batch:
            self._flush_pending("size")
        elif not self._scheduled:
            self._scheduled = True
            loop.call_soon(self._flush_idle)
        return await future

    def _flush_idle(self) -> None:
        self._scheduled = False
        if self._pending:
            self._flush_pending("idle")

    def _flush_pending(self, reason: str) -> None:
        """Flush the pending list now and resolve its futures in order.

        Requests whose future is already done (cancelled while parked)
        are left out of the engine call and counted in
        ``stats.cancelled``.
        """
        batch = [item for item in self._pending if not item.future.done()]
        self.stats.cancelled += len(self._pending) - len(batch)
        self._pending = []
        if not batch:
            return
        self.stats.flushes += 1
        if reason == "size":
            self.stats.size_flushes += 1
        elif reason == "idle":
            self.stats.idle_flushes += 1
        else:
            self.stats.drain_flushes += 1
        if len(batch) > self.stats.max_batch_seen:
            self.stats.max_batch_seen = len(batch)
        payloads = [item.payload for item in batch]
        try:
            results = self._flush(payloads)
            if len(results) != len(payloads):
                raise RuntimeError(
                    f"flush returned {len(results)} results for "
                    f"{len(payloads)} payloads"
                )
        except Exception as exc:  # noqa: BLE001 - forwarded to every waiter
            self.stats.errors += 1
            for item in batch:
                item.future.set_exception(exc)
            return
        self.stats.completed += len(batch)
        if self._on_flush is not None:
            self._on_flush(len(batch))
        for item, result in zip(batch, results):
            item.future.set_result(result)

    async def drain(self) -> None:
        """Flush anything pending; every submitted request is then resolved."""
        if self._pending:
            self._flush_pending("drain")

    def fail_pending(self, exc: Optional[BaseException] = None) -> int:
        """Fail every still-parked request instead of leaving it hung.

        The shutdown path for callers that cannot ``await drain()`` (no
        running loop — e.g. a service ``close()`` after its event loop
        exited): detaches the pending list and cancels each parked
        future (or fails it with ``exc``).  It also forgets a queued idle
        flush, which a closed loop will never run.  Returns the number of
        requests failed; they are counted in ``stats.cancelled``.
        """
        self._scheduled = False
        batch, self._pending = self._pending, []
        failed = 0
        for item in batch:
            if item.future.done():
                continue
            try:
                if exc is not None:
                    item.future.set_exception(exc)
                else:
                    item.future.cancel()
            except RuntimeError:
                # The owning loop is already closed; nobody is listening,
                # but the request is detached either way.
                pass
            failed += 1
        self.stats.cancelled += failed
        return failed


__all__ = ["BatcherStats", "MicroBatcher", "FlushFn"]
