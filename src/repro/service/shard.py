"""Sharded multi-process decode service: scale sessions/s with cores.

Everything below :class:`~repro.service.scheduler.MicroBatchScheduler`
is single-process Python: the committed service headline is
per-session-Python-bound on one CPU, not engine-bound.  This module
shards the scheduler across **worker processes** behind the existing
async/TCP front end:

- a :class:`ShardRouter` spawns ``n_shards`` worker processes, each
  owning a *full* ``MicroBatchScheduler`` (batch engines, state slabs,
  metrics) and running the synchronous admit/step/retire loop of
  :func:`_shard_worker`;
- sessions deal to workers **round-robin**: the router-issued ticket
  picks ``live[ticket % len(live)]`` over the alive shards in index
  order (a session is a pure function of its spec, so placement only
  balances load);
- specs travel to workers and results travel back over per-worker
  duplex pipes as the service's own pickled objects
  (:class:`~repro.service.session.SessionSpec` in,
  :class:`~repro.service.session.SessionResult` out), pumped by one
  writer and one reader thread per shard so the event loop never
  blocks on a pipe.  The wave is the message unit both ways:
  :meth:`ShardRouter.submit_wave` sends each worker its share of a
  wave as one ``submit`` message, and the worker answers each
  scheduler tick's retirements and rejections as one ``tick`` message;
- :meth:`ShardRouter.metrics` aggregates per-worker
  :class:`~repro.service.metrics.ServiceMetrics` snapshots under
  router-exact top-level counters (which survive worker death);
  latency/cycle distributions merge **exactly** — per-worker
  :class:`~repro.obs.hist.LogHistogram` buckets add integer-for-integer,
  so cross-shard percentiles equal a single scheduler having seen every
  observation (no max-of-maxes approximation);
- a worker that **dies mid-stream** (crash, kill -9) is detected by its
  reader thread seeing EOF: the shard stops taking placements, its
  in-flight sessions are **requeued once** onto surviving shards
  (decode state is a pure function of the spec, so a replayed session
  is bit-identical) or — when already requeued once, or when no shard
  survives — **shed** with :class:`ShardFailure`.  Co-tenant shards
  are unaffected: a session is pinned to its shard at admission;
- a worker that is **alive but hung** is caught by its own reader
  thread: workers heartbeat over their pipe every :data:`HEARTBEAT_S`
  (any frame counts as liveness — results included), and a reader that
  hears nothing for :data:`HEARTBEAT_TIMEOUT_S` SIGKILLs its worker,
  funnelling it into the same EOF death path — one recovery path, not
  two;
- a dead worker is **respawned** with exponential backoff (from
  :data:`RESPAWN_BACKOFF_S`) under a per-shard restart budget
  (:data:`RESPAWN_BUDGET`) and takes its turn in the deal again;
  in-flight sessions on survivors never move.  Sessions that could
  not be requeued because no shard survived are parked and replayed
  on the respawned worker, bit-identically (the spec carries the
  whole decode);
- deterministic chaos testing threads a seeded
  :class:`~repro.service.faults.FaultPlan` through the spawn arguments:
  each worker injects its own crashes / stalls / slow steps / malformed
  frames / heartbeat drops, behind ``faults is None`` guards that cost
  nothing when off (the default).  See ``docs/DESIGN.md`` section 12
  for the supervision state machine.

Routing is a pure *placement* decision: every session decodes
bit-identically to single-process serving (and hence to a standalone
:func:`repro.core.online.run_online_trial`) whichever worker it lands
on — enforced by ``tests/test_service_shard.py`` across 1-vs-4-shard
populations and by the open-loop benchmark in
``benchmarks/bench_service.py``.

Use it like :class:`~repro.service.api.DecodeService`::

    async with ShardRouter(n_shards=4) as router:
        result = await router.submit(SessionSpec(d=9, p=0.001, seed=7))
        snapshot = await router.metrics()   # async: asks the workers

or over TCP: ``repro-runner serve --shards 4``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import queue
import threading
import time
from dataclasses import dataclass

from repro.obs.hist import LogHistogram
from repro.obs.trace import Tracer, merge_summaries
from repro.service.metrics import HIST_FIELDS
from repro.service.scheduler import (
    TRACE_SAMPLE,
    Backpressure,
    MicroBatchScheduler,
    SchedulerConfig,
)
from repro.service.session import SessionResult, SessionSpec

__all__ = ["ShardFailure", "ShardRouter"]


class ShardFailure(RuntimeError):
    """A session was shed because its worker shard died mid-stream."""


RESPAWN_BUDGET = 5
"""Respawns allowed per shard index before its death becomes terminal."""

RESPAWN_BACKOFF_S = 0.5
"""Delay before a shard's first respawn; it doubles per prior respawn of
the same index, capped at 30 s."""

HEARTBEAT_S = 1.0
"""Worker heartbeat period: between scheduler steps, a live worker sends
some frame at least this often."""

HEARTBEAT_TIMEOUT_S = 5.0
"""Silence after which a shard's reader thread declares its worker hung
and kills it."""


# ----------------------------------------------------------------------
# The worker process
# ----------------------------------------------------------------------
def _shard_worker(
    conn,
    config: SchedulerConfig | None,
    index: int = 0,
    faults=None,
    heartbeat_s: float = HEARTBEAT_S,
    generation: int = 0,
) -> None:
    """One worker: a full scheduler pumped by messages on ``conn``.

    Protocol (tuples over the pipe, pickled):

    - in: ``("submit", [(ticket, SessionSpec), ...])`` (one wave) /
      ``("metrics", token)`` / ``("stop",)``
    - out: ``("tick", [SessionResult, ...], [(ticket, exception),
      ...])`` (one tick's retirements, each carrying its router ticket
      as ``session_id``, and rejections) / ``("metrics", token,
      snapshot)`` / ``("hb", tick)`` / ``("crashed", repr)`` /
      ``("stopped",)``

    The loop blocks on the pipe while idle, drains every buffered
    message before each step (a wave arrives whole in one message, so
    it shares its first micro-batch round), and steps the scheduler
    while any session is pending.  On ``stop`` it finishes the backlog,
    reports ``stopped`` and exits; a vanished router (EOF on the pipe)
    exits quietly.

    Liveness: the idle wait is bounded by ``heartbeat_s`` and an
    ``("hb", tick)`` frame goes out whenever that interval elapses —
    between steps too, so a busy worker stays visibly alive.  The
    router treats *any* frame as liveness; the explicit heartbeat only
    matters when the worker has nothing else to say.

    ``faults`` (a :class:`~repro.service.faults.FaultPlan`, ``None`` in
    production) injects this worker's scheduled misbehaviour: a crash
    is ``os._exit`` (no goodbye frame — the router sees raw EOF, as
    with kill -9), a stall sleeps without reading the pipe or
    heartbeating, a malformed fault sends a frame the router's protocol
    does not know.  ``generation`` scopes the plan to this life of the
    shard: respawned workers (generation >= 1) re-run none of
    generation 0's faults, so a crash schedule cannot become a crash
    loop.
    """
    worker_faults = (
        None if faults is None else faults.for_shard(index, generation)
    )
    scheduler = MicroBatchScheduler(config, faults=worker_faults)
    tickets: dict[int, int] = {}  # scheduler session id -> router ticket
    rejects: list[tuple[int, Exception]] = []  # sent with this tick's results
    stop = False
    tick = 0
    last_hb = time.monotonic()

    def drain_pipe() -> None:
        nonlocal stop
        while conn.poll(0.0):
            message = conn.recv()
            if message[0] == "submit":
                for ticket, spec in message[1]:
                    try:
                        session = scheduler.submit(spec)
                    except (Backpressure, TypeError, ValueError) as exc:
                        rejects.append((ticket, exc))
                    else:
                        tickets[session.id] = ticket
            elif message[0] == "metrics":
                conn.send(("metrics", message[1], scheduler.metrics.snapshot()))
            elif message[0] == "stop":
                stop = True

    def heartbeat() -> None:
        nonlocal last_hb
        now = time.monotonic()
        if now - last_hb < heartbeat_s:
            return
        last_hb = now
        if worker_faults is not None and worker_faults.drops_heartbeat(tick):
            return  # injected silence: the shard's reader sees a gap
        conn.send(("hb", tick))

    try:
        while True:
            if stop and not scheduler.pending:
                break
            if worker_faults is not None:
                for fault in worker_faults.at(tick):
                    if fault.kind == "crash":
                        os._exit(70 + index)  # simulated kill -9
                    elif fault.kind == "stall":
                        # Alive but hung: pipe unread, heartbeats silent.
                        time.sleep(fault.duration_s)
                    elif fault.kind == "malformed":
                        conn.send(("bogus", "injected-malformed-frame", tick))
            # Idle wait is bounded by the heartbeat interval.
            if conn.poll(0.0 if scheduler.pending else heartbeat_s):
                drain_pipe()
            heartbeat()
            results = []
            for session in scheduler.step() if scheduler.pending else ():
                # Workers number sessions locally; the router's ticket
                # is the service-wide session id clients see.
                session.result.session_id = tickets.pop(session.id)
                results.append(session.result)
            if results or rejects:
                conn.send(("tick", results, rejects))
                rejects.clear()
            tick += 1
        conn.send(("stopped",))
    except (EOFError, ConnectionError, OSError):
        return  # the router vanished; nothing left to report to
    except BaseException as exc:
        # Best-effort forensics before the process dies: the router
        # treats the subsequent EOF as worker death either way.
        try:
            conn.send(("crashed", repr(exc)))
        except (ConnectionError, OSError):
            pass
        raise
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------
@dataclass
class _Inflight:
    """One routed session awaiting its worker's result."""

    ticket: int
    spec: SessionSpec
    future: asyncio.Future
    submitted_at: float
    requeues: int = 0


_CLOSE = object()  # writer-thread sentinel


class _Shard:
    """Router-side handle of one worker process."""

    __slots__ = (
        "index", "process", "conn", "outbox", "inflight",
        "alive", "stopping", "done", "exited", "reader", "writer",
        "generation",
    )

    def __init__(self, index: int, process, conn, generation: int = 0):
        self.index = index
        self.process = process
        self.conn = conn
        self.outbox: queue.Queue = queue.Queue()
        self.inflight: dict[int, _Inflight] = {}
        self.alive = True       # takes placements
        self.stopping = False   # clean stop requested
        self.done = False       # exit already processed (idempotence)
        self.exited: asyncio.Event | None = None  # set on the loop thread
        self.reader: threading.Thread | None = None
        self.writer: threading.Thread | None = None
        self.generation = generation  # 0 = first spawn, +1 per respawn


class ShardRouter:
    """Route decode sessions across worker-process schedulers.

    Drop-in async facade next to :class:`~repro.service.api.DecodeService`
    (``submit`` awaits the :class:`SessionResult`, ``await metrics()``
    asks the workers; ``async with`` starts/stops the workers).

    ``config`` is the **per-worker** :class:`SchedulerConfig`: total
    capacity is ``n_shards * max_active``.  Sessions deal round-robin
    over the live shards by ticket.  A dead worker's in-flight sessions
    are replayed once on survivors; replays are exact because a
    session's decode depends only on its spec (seeded noise stream
    included).

    Supervision has one policy and no options (see ``docs/DESIGN.md``
    section 12): a dead worker is respawned after
    ``RESPAWN_BACKOFF_S * 2**n`` (n = prior respawns of that index,
    capped at 30 s) up to :data:`RESPAWN_BUDGET` times per shard and
    takes its turn in the round-robin deal again; a worker silent for
    :data:`HEARTBEAT_TIMEOUT_S` — the alive-but-hung case EOF detection
    cannot see — is killed by its shard's reader thread and recovered
    the same way.  ``faults`` (default ``None``) is a deterministic
    :class:`~repro.service.faults.FaultPlan` forwarded to every worker
    spawn — chaos testing only, costing one ``is None`` test when off.
    """

    def __init__(
        self,
        n_shards: int = 2,
        config: SchedulerConfig | None = None,
        faults=None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.config = config or SchedulerConfig()
        self.faults = faults
        # fork shares the parent's warm imports (numpy, repro) — orders
        # of magnitude cheaper than spawn; fall back where the platform
        # lacks it.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._shards: dict[int, _Shard] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False
        self._next_ticket = 1
        self._next_token = 1
        self._metric_waiters: dict[int, tuple[int, asyncio.Future]] = {}
        self._started_at = time.monotonic()
        # submit -> result as the router observes it, pipe transit
        # included; a histogram so it merges into the exposition like
        # every other latency field.
        self._latency = LogHistogram()
        # Router-side tracer (per-request spans via the TCP front end,
        # shard lifecycle events); workers build their own from the
        # same config and ship aggregates back inside snapshots.
        self.tracer = (
            Tracer(sample_every=TRACE_SAMPLE)
            if self.config.trace
            else None
        )
        self.counters = {
            "submitted": 0, "rejected": 0, "completed": 0,
            "failed": 0, "overflowed": 0,
            "shed": 0, "requeued": 0, "worker_deaths": 0,
            "respawns": 0, "heartbeat_timeouts": 0, "retries": 0,
        }
        self.last_crash: str | None = None
        # Supervision state (loop thread only).
        self._respawns: dict[int, int] = {}  # per-index restart count
        self._respawn_handles: dict[int, asyncio.TimerHandle] = {}
        self._parked: list[_Inflight] = []   # awaiting a respawned worker

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ShardRouter":
        """Spawn the worker fleet (idempotent)."""
        if self._shards:
            return self
        self._loop = asyncio.get_running_loop()
        self._started_at = time.monotonic()
        for index in range(self.n_shards):
            self._spawn(index)
        return self

    def _spawn(self, index: int) -> None:
        generation = self._respawns.get(index, 0)
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_worker,
            # HEARTBEAT_S travels with the spawn arguments, so a worker
            # started with "spawn" heartbeats at the router's cadence.
            args=(
                child_conn, self.config, index, self.faults,
                HEARTBEAT_S, generation,
            ),
            name=f"decode-shard-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker owns its end now
        shard = _Shard(index, process, parent_conn, generation=generation)
        shard.exited = asyncio.Event()
        shard.reader = threading.Thread(
            target=self._read_loop, args=(shard,),
            name=f"shard-{index}-reader", daemon=True,
        )
        shard.writer = threading.Thread(
            target=self._write_loop, args=(shard,),
            name=f"shard-{index}-writer", daemon=True,
        )
        shard.reader.start()
        shard.writer.start()
        self._shards[index] = shard

    async def close(self, drain: bool = True) -> None:
        """Stop the fleet.

        With ``drain`` (default) every worker finishes its backlog
        first; with ``drain=False`` workers are terminated and their
        in-flight sessions shed (:class:`ShardFailure` on the waiters).
        """
        if self._loop is None or self._closed:
            self._closed = True
            return
        self._closed = True
        # Supervision first: no respawn may race the teardown below.
        for handle in self._respawn_handles.values():
            handle.cancel()
        self._respawn_handles.clear()
        # Sessions parked for a respawn that will now never come.
        parked, self._parked = self._parked, []
        for entry in parked:
            self._shed(
                entry, f"router closed before session {entry.ticket} could "
                "be replayed on a respawned worker",
            )
        for shard in self._shards.values():
            if not shard.alive:
                continue
            shard.stopping = True
            if drain:
                shard.outbox.put(("stop",))
            else:
                shard.process.terminate()
        for shard in self._shards.values():
            try:
                await asyncio.wait_for(shard.exited.wait(), timeout=60)
            except asyncio.TimeoutError:
                shard.process.kill()
                await shard.exited.wait()
            shard.outbox.put(_CLOSE)
            await self._loop.run_in_executor(None, shard.process.join, 10)
            await self._loop.run_in_executor(None, shard.writer.join, 10)
            await self._loop.run_in_executor(None, shard.reader.join, 10)

    async def __aenter__(self) -> "ShardRouter":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close(drain=not any(exc))

    # ------------------------------------------------------------------
    # Pipe pump threads (all state mutation is marshalled to the loop)
    # ------------------------------------------------------------------
    def _write_loop(self, shard: _Shard) -> None:
        while True:
            message = shard.outbox.get()
            if message is _CLOSE:
                return
            try:
                shard.conn.send(message)
            except (ConnectionError, OSError):
                # The reader sees the matching EOF and runs the death
                # path; this thread just stops pushing.
                return

    def _read_loop(self, shard: _Shard) -> None:
        try:
            while True:
                # Any frame is liveness.  Silence past the timeout means
                # alive but hung: kill the worker, and the EOF that
                # follows runs the ordinary death path.  A stopping
                # worker may be quiet while it drains; close() bounds it.
                if not shard.conn.poll(HEARTBEAT_TIMEOUT_S):
                    if not shard.stopping:
                        self._post(self._on_heartbeat_timeout)
                        shard.process.kill()
                    continue
                message = shard.conn.recv()
                self._post(self._on_message, shard, message)
                if message[0] == "stopped":
                    break
        except (EOFError, ConnectionError, OSError):
            pass
        self._post(self._on_worker_exit, shard)

    def _post(self, callback, *args) -> None:
        try:
            self._loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            pass  # loop already closed (late teardown message)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _pick(self, ticket: int) -> _Shard | None:
        """Deal ``ticket`` round-robin over the alive shards in index
        order; ``None`` when no shard is alive."""
        # _shards holds indices in spawn order and a respawn replaces
        # its entry in place, so iteration order is index order.
        live = [shard for shard in self._shards.values() if shard.alive]
        return live[ticket % len(live)] if live else None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, spec: SessionSpec) -> SessionResult:
        """Route one session and await its result.

        Raises :class:`Backpressure` when the target worker's admission
        queue is full (or no worker survives), ``ValueError`` on a bad
        spec, and :class:`ShardFailure` when the session's worker died
        and the session could not be requeued.
        """
        return await self.submit_wave([spec])[0]

    def submit_wave(self, specs) -> list[asyncio.Future]:
        """Route a wave of sessions — each worker's share as one
        ``submit`` message; one future per spec, in order, holding its
        result or the exception :meth:`submit` would raise for it."""
        if self._loop is None:
            raise RuntimeError("router not started (use 'async with' or start())")
        if self._closed:
            raise RuntimeError("shard router closed")
        futures = []
        routed: list[tuple[_Shard, _Inflight]] = []
        now = time.monotonic()
        for spec in specs:
            future = self._loop.create_future()
            futures.append(future)
            try:
                spec.validate()  # shed bad specs here, not in a shared worker
            except (TypeError, ValueError) as exc:
                future.set_exception(exc)
                continue
            ticket = self._next_ticket
            self._next_ticket += 1
            self.counters["submitted"] += 1
            shard = self._pick(ticket)
            if shard is None:
                self.counters["rejected"] += 1
                future.set_exception(Backpressure("no live worker shards"))
                continue
            routed.append((shard, _Inflight(ticket, spec, future, submitted_at=now)))
        self._dispatch(routed)
        return futures

    def _dispatch(self, routed) -> None:
        """Hand each ``(shard, entry)`` to its worker: one ``submit``
        message per shard, entries in the given order."""
        waves: dict[_Shard, list] = {}
        for shard, entry in routed:
            shard.inflight[entry.ticket] = entry
            waves.setdefault(shard, []).append((entry.ticket, entry.spec))
        for shard, wave in waves.items():
            shard.outbox.put(("submit", wave))

    # ------------------------------------------------------------------
    # Worker messages (loop thread)
    # ------------------------------------------------------------------
    def _on_message(self, shard: _Shard, message) -> None:
        op = message[0]
        if op == "tick":
            _, results, rejects = message
            now = time.monotonic()
            for result in results:
                entry = shard.inflight.pop(result.session_id, None)
                if entry is None:
                    continue  # session was requeued elsewhere before the kill
                self.counters["completed"] += 1
                if result.failed:
                    self.counters["failed"] += 1
                if result.overflow:
                    self.counters["overflowed"] += 1
                self._latency.record(now - entry.submitted_at)
                if not entry.future.done():
                    entry.future.set_result(result)
            for ticket, exc in rejects:
                entry = shard.inflight.pop(ticket, None)
                self.counters["rejected"] += 1
                if entry is not None and not entry.future.done():
                    entry.future.set_exception(exc)
        elif op == "metrics":
            _, token, snapshot = message
            waiter = self._metric_waiters.pop(token, None)
            if waiter is not None and not waiter[1].done():
                waiter[1].set_result(snapshot)
        elif op == "crashed":
            self.last_crash = message[1]
        elif op == "hb":
            pass  # liveness is the reader's poll; nothing else
        else:
            # A frame the protocol does not know (chaos-injected, or a
            # version-skewed worker): drop the frame, keep the shard —
            # one bad frame must not cost a whole worker's sessions.
            if self.tracer is not None:
                self.tracer.event("malformed_frame")

    def _on_worker_exit(self, shard: _Shard) -> None:
        if shard.done:
            return
        shard.done = True
        shard.alive = False
        shard.exited.set()
        # Release the writer thread now: once this shard is replaced by
        # a respawn, close() no longer reaches its outbox.
        shard.outbox.put(_CLOSE)
        tracer = self.tracer
        died = not shard.stopping
        if died:
            # Neither a drain nor a deliberate terminate: the worker died.
            self.counters["worker_deaths"] += 1
            if tracer is not None:
                tracer.event("worker_death")
        respawning = False
        if died and not self._closed:
            respawning = self._schedule_respawn(shard.index)
        # Shed or requeue the shard's in-flight sessions, oldest first.
        entries = [shard.inflight.pop(t) for t in sorted(shard.inflight)]
        requeued = []
        for entry in entries:
            requeueable = entry.requeues == 0 and not self._closed
            target = self._pick(entry.ticket) if requeueable else None
            if target is None and not (requeueable and respawning):
                self._shed(
                    entry, f"worker shard {shard.index} died mid-stream; "
                    f"session {entry.ticket} shed"
                    + (f" (last crash: {self.last_crash})" if self.last_crash else ""),
                )
                continue
            entry.requeues += 1
            self.counters["requeued"] += 1
            if tracer is not None:
                tracer.event("requeue")
            if target is not None:
                requeued.append((target, entry))
            else:
                # No survivor to take it, but a respawn is scheduled:
                # park the session and replay it (bit-identically — the
                # spec carries the whole decode) on the respawned worker.
                self._parked.append(entry)
        self._dispatch(requeued)
        # Outstanding metrics requests against this shard resolve empty.
        for token in [
            t for t, (idx, _) in self._metric_waiters.items()
            if idx == shard.index
        ]:
            _, future = self._metric_waiters.pop(token)
            if not future.done():
                future.set_result(None)

    # ------------------------------------------------------------------
    # Supervision (loop thread)
    # ------------------------------------------------------------------
    def _schedule_respawn(self, index: int) -> bool:
        """Queue a respawn of ``index`` under backoff; false when the
        restart budget is spent (the shard stays down)."""
        if index in self._respawn_handles:
            return True
        n = self._respawns.get(index, 0)
        if n >= RESPAWN_BUDGET:
            if self.tracer is not None:
                self.tracer.event("respawn_budget_exhausted")
            return False
        delay = min(RESPAWN_BACKOFF_S * (2 ** n), 30.0)
        self._respawn_handles[index] = self._loop.call_later(
            delay, self._respawn, index
        )
        return True

    def _respawn(self, index: int) -> None:
        self._respawn_handles.pop(index, None)
        if self._closed:
            return
        self._respawns[index] = self._respawns.get(index, 0) + 1
        self._spawn(index)
        self.counters["respawns"] += 1
        if self.tracer is not None:
            self.tracer.event("respawn")
        # Replay sessions that had no survivor to requeue onto.
        parked, self._parked = self._parked, []
        replayed = []
        for entry in parked:
            target = self._pick(entry.ticket)
            if target is None:  # respawned worker died already
                self._shed(
                    entry, f"session {entry.ticket} shed: no worker "
                    "survived its respawn replay",
                )
            else:
                replayed.append((target, entry))
        self._dispatch(replayed)

    def _shed(self, entry: _Inflight, reason: str) -> None:
        """Give up on ``entry``: its waiter gets :class:`ShardFailure`."""
        self.counters["shed"] += 1
        if self.tracer is not None:
            self.tracer.event("shed")
        if not entry.future.done():
            entry.future.set_exception(ShardFailure(reason))

    def _on_heartbeat_timeout(self) -> None:
        """A reader thread killed its silent worker: count the liveness
        kill (the death itself is counted when the EOF arrives)."""
        self.counters["heartbeat_timeouts"] += 1
        if self.tracer is not None:
            self.tracer.event("heartbeat_timeout")

    def record_client_retry(self) -> None:
        """A client resubmitted a request it had already sent (its
        ``retry`` field was set): the server-side count of
        client-visible retries, exported as the ``retries`` counter."""
        self.counters["retries"] += 1

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    async def metrics(self) -> dict:
        """Cross-shard snapshot (coroutine — asks every live worker).

        Top-level counters are **router-exact** (they count at the
        router and survive worker death); worker-side distributions
        merge **exactly**: every latency/cycle field is a fixed-bucket
        :class:`~repro.obs.hist.LogHistogram` whose integer bucket
        counts add, so the merged percentiles are identical to what one
        scheduler reporting every observation would have said.  The
        per-worker snapshots still ride along under ``"shards"``, and
        worker tracer aggregates (when tracing is on) merge under
        ``"trace"`` alongside the router's own spans.
        """
        if self._loop is None:
            raise RuntimeError("router not started (use 'async with' or start())")
        waiters = []
        for shard in self._shards.values():
            if not shard.alive:
                continue
            token = self._next_token
            self._next_token += 1
            future = self._loop.create_future()
            self._metric_waiters[token] = (shard.index, future)
            shard.outbox.put(("metrics", token))
            waiters.append((shard.index, future))
        snapshots = {}
        for index, future in waiters:
            try:
                snapshot = await asyncio.wait_for(future, timeout=30)
            except asyncio.TimeoutError:
                snapshot = None
            if snapshot is not None:
                snapshots[index] = snapshot
        return self._aggregate(snapshots)

    def _aggregate(self, snapshots: dict[int, dict]) -> dict:
        def wmean(pairs):
            """Weighted mean over (value, weight), None-safe."""
            pairs = [(v, w) for v, w in pairs if v is not None and w]
            total = sum(w for _, w in pairs)
            return sum(v * w for v, w in pairs) / total if total else None

        def triple(hist: LogHistogram) -> dict:
            p50, p90, p99 = hist.percentiles((50.0, 90.0, 99.0))
            return {"p50": p50, "p90": p90, "p99": p99}

        elapsed = max(time.monotonic() - self._started_at, 1e-12)
        live = list(snapshots.values())
        counters = dict(self.counters)
        # Bucket-exact cross-shard merge: summed integer counts, so the
        # merged percentiles equal the single-scheduler answer.
        merged = {
            field: LogHistogram.merged(
                (s.get("hist") or {}).get(field) for s in live
            )
            or LogHistogram()
            for field in HIST_FIELDS
        }
        hist_block = {f: h.to_dict() for f, h in merged.items()}
        hist_block["session_latency_s"] = self._latency.to_dict()
        trace = merge_summaries(
            [s.get("trace") for s in live]
            + [None if self.tracer is None else self.tracer.summary()]
        )
        return {
            **counters,
            "admitted": sum(s["admitted"] for s in live),
            "elapsed_s": elapsed,
            "n_shards": self.n_shards,
            "live_shards": len([s for s in self._shards.values() if s.alive]),
            "throughput_sessions_per_s": counters["completed"] / elapsed,
            "drop_rate": (
                counters["rejected"] / counters["submitted"]
                if counters["submitted"] else 0.0
            ),
            "steps": sum(s["steps"] for s in live),
            "rounds_advanced": sum(s["rounds_advanced"] for s in live),
            "throughput_rounds_per_s": (
                sum(s["rounds_advanced"] for s in live) / elapsed
            ),
            **{
                field: wmean((s[field], s["steps"]) for s in live)
                for field in (
                    "mean_batch_sessions",
                    "mean_queue_depth",
                    "mean_active_sessions",
                )
            },
            "mean_wait_s": merged["wait_s"].mean(),
            "mean_service_s": merged["service_s"].mean(),
            "round_latency_s": triple(merged["round_latency_s"]),
            "decode_cycles": triple(merged["decode_cycles"]),
            # Admission-to-retire as the router observes it: submit()
            # to result, pipe transit included.
            "session_latency_s": triple(self._latency),
            "hist": hist_block,
            "trace": trace,
            "shards": [
                {"shard": index, **snapshot}
                for index, snapshot in sorted(snapshots.items())
            ],
        }
