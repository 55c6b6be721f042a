"""Cross-session micro-batching: lock-step advances over live traffic.

:class:`MicroBatchScheduler` multiplexes any number of concurrent
decode sessions onto the batched engine path: sessions of the same
shape (lattice distance — see :attr:`SessionSpec.shape_key`) form a
**micro-batch group** advanced one measurement round per
:meth:`~MicroBatchScheduler.step` through
:func:`repro.core.online.advance_streaming_round`, with admissions and
retirements happening **between rounds** — the capability PR 3's
fixed-membership chunk kernel lacked.  Each session keeps its own
engine, wall clock, noise substream and state-slab row, so its decode
is bit-identical to running alone whatever traffic shares its batches.

Capacity control:

- ``max_active`` bounds concurrently-decoding sessions; excess
  submissions wait in a FIFO admission queue,
- ``max_queue`` bounds that queue; beyond it :meth:`submit` raises
  :class:`Backpressure` (the transport layer reports the drop to the
  client, the metrics core counts it),
- a session whose Reg overflows retires immediately with the paper's
  overflow-failure semantics, freeing its capacity slot mid-stream.

Decode state dispatches by traffic density (both paths bit-identical,
so dispatch is purely a throughput decision):

- **dense sessions** (expected detection events per round at or above
  :data:`BATCH_EVENT_CUTOFF`) bind to a lane of a **persistent
  shot-major batch engine** — one
  :class:`~repro.core.engine_batch.QecoolEngineBatch` per
  ``(d, thv, reg_size)`` shape, admission = lane allocation,
  retirement = lane release, and the whole group's engine advance is
  one lock-step slab pass;
- **sparse sessions** keep per-shot scalar engines recycled through a
  ``(d, thv, reg_size)`` pool (:meth:`QecoolEngine.reset`): their
  rounds are dominated by the O(1) empty-layer fast entries, which the
  lock-step machinery cannot beat.

State rows live in one :class:`~repro.core.online.StreamingBlock` slab
per group either way.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from repro.core.engine import QecoolEngine
from repro.core.engine_batch import QecoolEngineBatch
from repro.core.online import (
    OnlineShot,
    StreamingBlock,
    StreamingRoster,
    advance_streaming_round,
)
from repro.core.window import SlidingWindowDecoder
from repro.experiments.montecarlo import resolve_noise
from repro.obs.trace import Tracer
from repro.service.metrics import ServiceMetrics
from repro.service.session import (
    DecodeSession,
    SessionResult,
    SessionSpec,
    SessionState,
    WindowShot,
)
from repro.surface_code.lattice import PlanarLattice

__all__ = [
    "BATCH_EVENT_CUTOFF",
    "Backpressure",
    "MicroBatchScheduler",
    "SchedulerConfig",
]

BATCH_EVENT_CUTOFF = 0.5
"""Expected detection events per round **at or above which** (dispatch
compares with ``>=``, so at-cutoff sessions are dense) a session decodes
on a batch-engine lane instead of a pooled scalar engine.  A heuristic
dispatch only — both paths are bit-identical.  Re-measured after the
session layer went slab-native: the lock-step lanes now win from ~0.6
expected events/round upward (d=9, p>=0.00075), but at near-idle
densities the scalar engine's O(1) empty-round fast entries still beat
the batch engine's fixed per-decode slab cost, so sparse traffic keeps
pooled scalar engines — whose session state, noise draws, and syndrome
passes ride the same slabs either way."""


class Backpressure(RuntimeError):
    """Raised by :meth:`MicroBatchScheduler.submit` when the admission
    queue is full; the caller should shed or retry the session."""


@dataclass(frozen=True)
class SchedulerConfig:
    """Capacity envelope of one scheduler."""

    max_active: int = 256
    max_queue: int = 1024
    engine_pool_per_shape: int = 256  # initial lanes per batch engine
    max_idle_shapes: int = 8  # drained shape groups kept warm (LRU)
    trace: bool = False
    """Enable the phase tracer (:class:`repro.obs.trace.Tracer`):
    scheduler tick phases, engine decodes and streaming-round sections
    get timed spans whose aggregates ride every metrics snapshot.  Off
    by default — the hot paths then cost one ``is not None`` test per
    phase (<2% on the committed service benchmark, asserted by
    ``benchmarks/bench_service.py``).  Plain dataclass fields, so shard
    worker processes inherit the setting through the pickled config."""
    trace_sample: int = 64
    """Keep one *full* span record per this many spans in the tracer's
    ring buffer (aggregates always see every span)."""
    trace_capacity: int = 4096
    """Ring-buffer bound on retained full span records."""

    def __post_init__(self) -> None:
        if self.max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {self.max_active}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.engine_pool_per_shape < 0:
            raise ValueError(
                f"engine_pool_per_shape must be >= 0, got {self.engine_pool_per_shape}"
            )
        if self.max_idle_shapes < 0:
            raise ValueError(
                f"max_idle_shapes must be >= 0, got {self.max_idle_shapes}"
            )
        if self.trace_sample < 1:
            raise ValueError(
                f"trace_sample must be >= 1, got {self.trace_sample}"
            )
        if self.trace_capacity < 1:
            raise ValueError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )


class _ShapeGroup:
    """One micro-batch: the active sessions sharing a lattice.

    ``roster`` caches the batch's per-round dispatch structure
    (:class:`~repro.core.online.StreamingRoster`); it is dropped on any
    membership change (admission, retirement) and lazily rebuilt on the
    next :meth:`MicroBatchScheduler.step`.
    """

    __slots__ = ("lattice", "block", "sessions", "roster")

    def __init__(self, lattice: PlanarLattice):
        self.lattice = lattice
        self.block = StreamingBlock(lattice, capacity=64)
        self.sessions: list[DecodeSession] = []
        self.roster: StreamingRoster | None = None


class MicroBatchScheduler:
    """Groups same-shape sessions and advances them in lock-step.

    ``clock`` is injectable (tests pass a fake) and only feeds metrics
    and session timestamps — never decode semantics, which are governed
    by each session's own decoder-cycle wall clock.
    """

    def __init__(
        self,
        config: SchedulerConfig | None = None,
        clock=time.monotonic,
        faults=None,
    ):
        self.config = config or SchedulerConfig()
        self._clock = clock
        # Deterministic chaos only (:mod:`repro.service.faults`): a
        # worker-scoped fault view whose "slow" windows stretch steps.
        # ``None`` in production — the step hook is one `is None` test,
        # same zero-overhead pattern as the tracer below (pinned by the
        # ``faults_off_overhead`` bench point).
        self.faults = faults
        # One tracer per scheduler (None when off): every engine and
        # streaming-round call site shares it, so per-phase aggregates
        # cover the whole tick.  It shares the scheduler's clock —
        # injectable fakes drive spans deterministically in tests.
        self.tracer = (
            Tracer(
                capacity=self.config.trace_capacity,
                sample_every=self.config.trace_sample,
                clock=clock,
            )
            if self.config.trace
            else None
        )
        self.metrics = ServiceMetrics(clock=clock, tracer=self.tracer)
        self._queue: deque[DecodeSession] = deque()
        self._groups: dict[int, _ShapeGroup] = {}
        self._lattices: dict[int, PlanarLattice] = {}
        # Persistent batch engine per (d, thv, reg_size) for dense
        # sessions (admission = lane allocation, retirement = lane
        # release) and a recycled scalar-engine pool for sparse ones.
        self._engine_pool: dict[tuple, QecoolEngineBatch] = {}
        self._scalar_pool: dict[tuple, list[QecoolEngine]] = {}
        self._noise_cache: dict[tuple, object] = {}
        self._rate_cache: dict[tuple, float] = {}
        # Insertion-ordered set of shape keys whose groups have fully
        # drained, oldest first — the LRU over which `max_idle_shapes`
        # bounds the slabs/lattices/engine pools kept warm.
        self._idle: dict[int, None] = {}
        self._n_active = 0
        self._next_id = 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_active(self) -> int:
        """Sessions currently decoding (occupying capacity)."""
        return self._n_active

    @property
    def n_queued(self) -> int:
        """Sessions waiting for admission."""
        return len(self._queue)

    @property
    def pending(self) -> int:
        """Sessions not yet finished (queued + active)."""
        return self._n_active + len(self._queue)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, spec: SessionSpec) -> DecodeSession:
        """Accept one session into the admission queue.

        Validates the spec, then either queues it (FIFO) or — when the
        queue is at ``max_queue`` — counts a drop and raises
        :class:`Backpressure`.  Admission itself happens on the next
        :meth:`step`, between micro-batch rounds.

        ``max_queue=0`` means "no waiting", not "no service": a spec is
        admitted directly into a free ``max_active`` slot (submission
        and admission coincide) and only sheds once capacity is full.
        """
        spec.validate()
        self.metrics.record_submit()
        if self.config.max_queue == 0:
            if self._n_active >= self.config.max_active:
                self.metrics.record_reject()
                raise Backpressure(
                    f"no free capacity ({self.config.max_active} active) "
                    f"and no admission queue (max_queue=0)"
                )
            session = DecodeSession(
                id=self._next_id, spec=spec, submitted_at=self._clock()
            )
            self._next_id += 1
            self._admit(session)
            return session
        if len(self._queue) >= self.config.max_queue:
            self.metrics.record_reject()
            raise Backpressure(
                f"admission queue full ({self.config.max_queue} sessions)"
            )
        session = DecodeSession(
            id=self._next_id, spec=spec, submitted_at=self._clock()
        )
        self._next_id += 1
        self._queue.append(session)
        return session

    def _lattice(self, d: int) -> PlanarLattice:
        lattice = self._lattices.get(d)
        if lattice is None:
            lattice = self._lattices[d] = PlanarLattice(d)
        return lattice

    def _batch_for(
        self, spec: SessionSpec, lattice: PlanarLattice
    ) -> QecoolEngineBatch:
        key = (spec.d, spec.thv, spec.reg_size)
        batch = self._engine_pool.get(key)
        if batch is None:
            capacity = max(
                1,
                min(self.config.engine_pool_per_shape, self.config.max_active),
            )
            batch = self._engine_pool[key] = QecoolEngineBatch(
                lattice, thv=spec.thv, reg_size=spec.reg_size,
                capacity=capacity,
            )
            batch.tracer = self.tracer
        return batch

    def _scalar_engine_for(
        self, spec: SessionSpec, lattice: PlanarLattice
    ) -> QecoolEngine:
        pool = self._scalar_pool.get((spec.d, spec.thv, spec.reg_size))
        if pool:
            return pool.pop()
        engine = QecoolEngine(lattice, thv=spec.thv, reg_size=spec.reg_size)
        engine.tracer = self.tracer
        return engine

    def _recycle_scalar(self, spec: SessionSpec, engine: QecoolEngine) -> None:
        key = (spec.d, spec.thv, spec.reg_size)
        pool = self._scalar_pool.setdefault(key, [])
        if len(pool) < self.config.engine_pool_per_shape:
            pool.append(engine.reset())

    def _events_per_round(
        self, noise, noise_key: tuple | None, spec: SessionSpec,
        lattice: PlanarLattice,
    ) -> float:
        """Rough expected detection events per round (dispatch heuristic:
        each data flip trips up to two ancillas, a measurement flip trips
        one now and one next round).  ``noise_key=None`` (uncacheable
        params) computes without caching."""
        key = None if noise_key is None else noise_key + (spec.rounds, spec.d)
        rate = None if key is None else self._rate_cache.get(key)
        if rate is None:
            data = float(noise.data_schedule(spec.rounds).mean())
            meas = float(noise.meas_schedule(spec.rounds).mean())
            rate = 2 * lattice.n_data * data + 2 * lattice.n_ancillas * meas
            if key is not None:
                self._rate_cache[key] = rate
        return rate

    def _admit(self, session: DecodeSession) -> None:
        spec = session.spec
        lattice = self._lattice(spec.shape_key)
        group = self._groups.get(spec.shape_key)
        if group is None:
            group = self._groups[spec.shape_key] = _ShapeGroup(lattice)
        # Noise models are frozen and admission-invariant: resolve each
        # distinct operating point once.  Unhashable noise_params values
        # (JSON lists are legal) skip the cache rather than fail.
        noise_key = (
            spec.noise, spec.p, spec.q,
            None
            if spec.noise_params is None
            else tuple(sorted(spec.noise_params.items())),
        )
        try:
            noise = self._noise_cache.get(noise_key)
        except TypeError:
            noise = noise_key = None
        if noise is None:
            noise = resolve_noise(
                spec.noise, "phenomenological", spec.p,
                q=spec.q, noise_params=spec.noise_params,
            )
            if noise_key is not None:
                # Keys are client-controlled; bound the caches so a
                # long-running service sweeping operating points cannot
                # grow them without limit.
                if len(self._noise_cache) >= 1024:
                    self._noise_cache.clear()
                    self._rate_cache.clear()
                self._noise_cache[noise_key] = noise
        block = group.block
        capacity_before = block.capacity
        if spec.mode == "online":
            dense = (
                self._events_per_round(noise, noise_key, spec, lattice)
                >= BATCH_EVENT_CUTOFF
            )
            session.shot = OnlineShot(
                lattice, noise, spec.rounds, spec.online_config(),
                rng=spec.seed,
                batch=self._batch_for(spec, lattice) if dense else None,
                engine=(
                    None if dense else self._scalar_engine_for(spec, lattice)
                ),
                block=block,
            )
        else:
            session.shot = WindowShot(
                lattice, noise, spec.rounds,
                SlidingWindowDecoder(window=spec.window, commit=spec.commit),
                rng=spec.seed,
                block=block,
            )
        if block.capacity != capacity_before:
            # The alloc grew the slab: refresh every live view.
            for other in group.sessions:
                other.shot.rebind()
        session.shot.owner = session
        session.state = SessionState.ACTIVE
        session.admitted_at = self._clock()
        group.sessions.append(session)
        group.roster = None  # membership changed
        self._idle.pop(spec.shape_key, None)
        self._n_active += 1
        self.metrics.record_admit()

    # ------------------------------------------------------------------
    # The micro-batch advance
    # ------------------------------------------------------------------
    def step(self) -> list[DecodeSession]:
        """One scheduler tick: admit, advance every group one round,
        retire.  Returns the sessions finished during this tick."""
        if self.faults is not None:
            # Injected slow-worker delay: degraded but live.  Sleeping
            # inside the step means the slowdown shows up in the round
            # latency histogram, exactly like a genuinely slow worker.
            delay = self.faults.step_delay(self.metrics.steps)
            if delay:
                time.sleep(delay)
        started = self._clock()
        tracer = self.tracer  # None when off: one attribute read per phase
        while self._queue and self._n_active < self.config.max_active:
            self._admit(self._queue.popleft())
        if tracer is not None:
            t = self._clock()
            tracer.add("scheduler.admit", started, t - started)
        finished: list[DecodeSession] = []
        advanced = 0
        for group in self._groups.values():
            sessions = group.sessions
            if not sessions:
                continue
            advanced += len(sessions)
            roster = group.roster
            if roster is None:
                if tracer is not None:
                    t = self._clock()
                roster = group.roster = StreamingRoster(
                    group.block, [s.shot for s in sessions]
                )
                if tracer is not None:
                    tracer.add("scheduler.roster_build", t, self._clock() - t)
            running, done = advance_streaming_round(
                group.lattice, roster.shots, block=group.block, roster=roster,
                tracer=tracer,
            )
            if done:
                if tracer is not None:
                    t = self._clock()
                group.sessions = [shot.owner for shot in running]
                group.roster = None  # membership changed
                for shot in done:
                    session = shot.owner
                    self._retire(session, group)
                    finished.append(session)
                if tracer is not None:
                    tracer.add("scheduler.retire", t, self._clock() - t)
        if finished:
            self._prune_idle()
        duration = self._clock() - started
        if tracer is not None:
            tracer.add("scheduler.step", started, duration)
        self.metrics.record_step(
            duration, advanced, len(self._queue), self._n_active
        )
        return finished

    def _retire(self, session: DecodeSession, group: _ShapeGroup) -> None:
        result = session.finish(self._clock())
        shot = session.shot
        group.block.release(shot.row)
        if shot.kind == "online":
            if shot._batch is not None:
                shot.release()  # free the batch-engine lane for reuse
            else:
                self._recycle_scalar(session.spec, shot.engine)
        session.shot = None  # drop lane/slab references
        self._n_active -= 1
        self.metrics.record_finish(result)

    def _prune_idle(self) -> None:
        """LRU-bound the fully-drained shape groups.

        A long-running service sweeping many distinct ``d`` values
        would otherwise accumulate empty groups — their state slabs,
        cached lattices and engine pools — forever.  Keep the
        ``max_idle_shapes`` most recently drained shapes warm for
        re-admission; evict the rest wholesale (a re-admission simply
        rebuilds the shape from scratch — dispatch state is
        per-session, so eviction never affects decode semantics).
        """
        for d, group in self._groups.items():
            if group.sessions:
                self._idle.pop(d, None)
            elif d not in self._idle:
                self._idle[d] = None
        while len(self._idle) > self.config.max_idle_shapes:
            d = next(iter(self._idle))
            del self._idle[d]
            self._drop_shape(d)

    def _drop_shape(self, d: int) -> None:
        self._groups.pop(d, None)
        self._lattices.pop(d, None)
        for pool in (self._engine_pool, self._scalar_pool):
            for key in [k for k in pool if k[0] == d]:
                del pool[key]

    def run_until_idle(self, max_steps: int | None = None) -> list[DecodeSession]:
        """Step until no session is queued or active (or ``max_steps``).

        The synchronous driver for tests, benchmarks and one-shot batch
        use; the async service (:mod:`repro.service.api`) instead
        interleaves steps with transport admissions.
        """
        finished: list[DecodeSession] = []
        steps = 0
        while self.pending:
            if max_steps is not None and steps >= max_steps:
                break
            finished.extend(self.step())
            steps += 1
        return finished

    def results_for(self, sessions) -> list[SessionResult]:
        """Convenience: results of ``sessions`` in submission order."""
        return [s.result for s in sessions]
