"""In-process async API over the micro-batching scheduler.

:class:`DecodeService` runs the scheduler as a background asyncio task:
``await service.submit(spec)`` queues a session and resolves with its
:class:`~repro.service.session.SessionResult` when the scheduler
retires it; :meth:`DecodeService.submit_wave` queues a whole wave (the
TCP front end in :mod:`repro.service.server` hands it every decode of
one request line), which then shares its first micro-batch round.  The
pump yields to the event loop between steps, so waves arriving while a
batch is in flight are admitted at the next between-rounds boundary —
cross-session micro-batching over live traffic — and a step's responses
are written before the next step starts.

The scheduler step itself is synchronous CPU work on the loop thread:
this service scales by *batching* concurrent sessions, not by threading
the decode.  Use::

    async with DecodeService() as service:
        result = await service.submit(SessionSpec(d=9, p=0.001, seed=7))
"""

from __future__ import annotations

import asyncio

from repro.service.scheduler import Backpressure, MicroBatchScheduler, SchedulerConfig
from repro.service.session import SessionResult, SessionSpec

__all__ = ["DecodeService"]


class DecodeService:
    """Async facade: submit sessions, await results.

    ``Backpressure`` from the scheduler propagates out of
    :meth:`submit` unchanged — transports decide how to shed.
    """

    def __init__(self, config: SchedulerConfig | None = None):
        self.scheduler = MicroBatchScheduler(config)
        self._waiters: dict[int, asyncio.Future] = {}
        self._wake: asyncio.Event | None = None
        self._pump_task: asyncio.Task | None = None
        self._closed = False
        self._abort = False
        self._failure: BaseException | None = None

    async def start(self) -> "DecodeService":
        """Start the background pump (idempotent)."""
        if self._pump_task is None:
            self._wake = asyncio.Event()
            self._pump_task = asyncio.create_task(
                self._pump(), name="decode-service-pump"
            )
        return self

    async def close(self, drain: bool = True) -> None:
        """Stop the pump.

        With ``drain`` (default) queued and active sessions finish
        first; with ``drain=False`` the pump stops at the next round
        boundary and every unresolved waiter gets a ``RuntimeError`` —
        the abort path for teardown under an exception.
        """
        if self._pump_task is None:
            return
        # A closed pump steps until nothing is pending, then returns.
        self._closed = True
        self._abort = not drain
        self._wake.set()
        await self._pump_task
        self._pump_task = None
        for future in self._waiters.values():
            if not future.done():
                future.set_exception(RuntimeError("decode service closed"))
        self._waiters.clear()

    async def __aenter__(self) -> "DecodeService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close(drain=not any(exc))

    async def submit(self, spec: SessionSpec) -> SessionResult:
        """Queue one session and await its result.

        Raises :class:`~repro.service.scheduler.Backpressure` when the
        admission queue is full and ``ValueError`` on a bad spec.
        """
        return await self.submit_wave([spec])[0]

    def submit_wave(self, specs) -> list[asyncio.Future]:
        """Queue a wave of sessions; one future per spec, in order,
        holding its :class:`SessionResult` or the exception :meth:`submit`
        would raise for that spec alone."""
        if self._pump_task is None:
            raise RuntimeError("service not started (use 'async with' or start())")
        if self._failure is not None:
            raise RuntimeError(
                f"decode service failed: {self._failure!r}"
            ) from self._failure
        if self._closed:
            raise RuntimeError("decode service closed")
        loop = asyncio.get_running_loop()
        futures = []
        for spec in specs:
            future = loop.create_future()
            try:
                session = self.scheduler.submit(spec)
            except (Backpressure, TypeError, ValueError) as exc:
                future.set_exception(exc)
            else:
                self._waiters[session.id] = future
            futures.append(future)
        self._wake.set()
        return futures

    async def metrics(self) -> dict:
        """Live metrics snapshot (see :class:`ServiceMetrics`); a
        coroutine like :meth:`~repro.service.shard.ShardRouter.metrics`,
        so the TCP front end is backend-agnostic."""
        return self.scheduler.metrics.snapshot()

    def record_client_retry(self) -> None:
        """Count one client-visible resubmission (``retry`` field on
        the wire) — same surface as
        :meth:`~repro.service.shard.ShardRouter.record_client_retry`,
        so the TCP front end is backend-agnostic."""
        self.scheduler.metrics.record_retry()

    @property
    def tracer(self):
        """The scheduler's :class:`~repro.obs.trace.Tracer` (or None)."""
        return self.scheduler.tracer

    async def _pump(self) -> None:
        while True:
            if self._abort:
                return
            if self.scheduler.pending == 0:
                if self._closed:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            # One slice per step: readers and response writers run
            # between rounds, and waves that arrived meanwhile are
            # admitted at this step's round boundary.
            await asyncio.sleep(0)
            try:
                finished = self.scheduler.step()
            except Exception as exc:
                # Containment: a step exception (bad session state, a
                # bug) must not silently kill the pump and hang every
                # co-tenant waiter.  Fail all waiters, mark the service
                # failed (subsequent submits raise, close() returns)
                # and stop.
                self._failure = exc
                self._closed = True
                for future in self._waiters.values():
                    if not future.done():
                        future.set_exception(
                            RuntimeError(f"decode service failed: {exc!r}")
                        )
                self._waiters.clear()
                return
            for session in finished:
                future = self._waiters.pop(session.id, None)
                if future is not None and not future.done():
                    future.set_result(session.result)
            if finished:
                # The results' done callbacks run on the next yield and
                # schedule the transport's response flush behind it;
                # yield once more so this step's responses are written
                # before the next step starts.
                await asyncio.sleep(0)
