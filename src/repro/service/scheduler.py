"""Cross-session micro-batching: lock-step advances over live traffic.

:class:`MicroBatchScheduler` multiplexes any number of concurrent
decode sessions onto the batched engine path: sessions of the same
shape (lattice distance — see :attr:`SessionSpec.shape_key`) form a
**micro-batch group** advanced one measurement round per
:meth:`~MicroBatchScheduler.step` through
:func:`repro.core.online.advance_streaming_round`, with admissions and
retirements happening **between rounds**.  Each session keeps its own
engine state (a scalar engine or a batch-engine lane), operating point,
wall clock, noise substream and state-slab row, so its decode is
bit-identical to running alone whatever traffic shares its batches.

Capacity control:

- ``max_active`` bounds concurrently-decoding sessions; excess
  submissions wait in a FIFO admission queue, which each step admits
  as one wave (:meth:`MicroBatchScheduler._admit_wave`),
- ``max_queue`` bounds that queue; beyond it :meth:`submit` raises
  :class:`Backpressure` (the transport layer reports the drop to the
  client, the metrics core counts it),
- a session whose Reg overflows retires immediately with the paper's
  overflow-failure semantics, freeing its capacity slot mid-stream.

Decode state dispatches by traffic density (both paths bit-identical,
so dispatch is purely a throughput decision):

- **dense sessions** (expected detection events per round at or above
  :data:`BATCH_EVENT_CUTOFF`) bind to a lane of the group's **one
  shot-major batch engine**
  (:class:`~repro.core.engine_batch.QecoolEngineBatch`), built on the
  group's first dense admission.  Each lane carries its session's
  ``thv``/``reg_size``, so every operating point shares the engine:
  admission = lane allocation, retirement = lane release, and the
  whole group's engine advance is one lock-step slab pass;
- **sparse sessions** build their own scalar engine: their rounds are
  dominated by the O(1) empty-layer fast entries, which the lock-step
  machinery cannot beat.

State rows live in one :class:`~repro.core.online.StreamingBlock` slab
per group either way.  Nothing the scheduler keeps is keyed by a
client-chosen operating point: a group, its block and its engine go
together when the group is evicted (:data:`MAX_IDLE_SHAPES`).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from repro.core.engine_batch import QecoolEngineBatch
from repro.core.online import (
    OnlineShot,
    StreamingBlock,
    StreamingRoster,
    advance_streaming_round,
    fill_windows,
)
from repro.core.window import SlidingWindowDecoder
from repro.experiments.montecarlo import resolve_noise
from repro.obs.trace import Tracer
from repro.service.metrics import ServiceMetrics
from repro.service.session import (
    DecodeSession,
    SessionSpec,
    SessionState,
    WindowShot,
)
from repro.surface_code.lattice import PlanarLattice
from repro.util.rng import pcg64_states

__all__ = [
    "BATCH_EVENT_CUTOFF",
    "Backpressure",
    "MicroBatchScheduler",
    "SchedulerConfig",
    "TRACE_SAMPLE",
]

BATCH_EVENT_CUTOFF = 0.5
"""Expected detection events per round **at or above which** (dispatch
compares with ``>=``, so at-cutoff sessions are dense) a session decodes
on a batch-engine lane instead of its own scalar engine.  A heuristic
dispatch only — both paths are bit-identical.  Re-measured after the
session layer went slab-native: the lock-step lanes now win from ~0.6
expected events/round upward (d=9, p>=0.00075), but at near-idle
densities the scalar engine's O(1) empty-round fast entries still beat
the batch engine's fixed per-decode slab cost, so sparse traffic keeps
scalar engines — whose session state, noise draws, and syndrome passes
ride the same slabs either way."""


MAX_IDLE_SHAPES = 8
"""Fully drained shape groups (state slab, batch engine, cached
lattice) kept warm for re-admission, least recently drained evicted
first."""


_CACHE_BOUND = 1024
"""Entries at which the per-operating-point noise-model cache is
cleared: its keys are client-controlled."""


TRACE_SAMPLE = 64
"""A service tracer keeps one *full* span record per this many spans in
its ring buffer (aggregates always see every span)."""


class Backpressure(RuntimeError):
    """Raised by :meth:`MicroBatchScheduler.submit` when the admission
    queue is full; the caller should shed or retry the session."""


@dataclass(frozen=True)
class SchedulerConfig:
    """Capacity envelope of one scheduler."""

    max_active: int = 256
    max_queue: int = 1024
    trace: bool = False
    """Enable the phase tracer (:class:`repro.obs.trace.Tracer`):
    scheduler tick phases, engine decodes and streaming-round sections
    get timed spans whose aggregates ride every metrics snapshot.  Off
    by default — the hot paths then cost one ``is not None`` test per
    phase (<2% on the committed service benchmark, asserted by
    ``benchmarks/bench_service.py``).  Plain dataclass fields, so shard
    worker processes inherit the setting through the pickled config."""

    def __post_init__(self) -> None:
        if self.max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {self.max_active}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")


class _ShapeGroup:
    """One micro-batch: the active sessions sharing a lattice.

    ``engine`` is the group's one batch engine, built on its first
    dense admission at the block's capacity and grown by lane
    allocation; its lanes serve every dense operating point.
    ``roster`` caches the batch's per-round dispatch structure
    (:class:`~repro.core.online.StreamingRoster`); it is dropped on any
    membership change (admission, retirement) and lazily rebuilt on the
    next :meth:`MicroBatchScheduler.step`.
    """

    __slots__ = ("block", "engine", "sessions", "roster")

    def __init__(self, lattice: PlanarLattice):
        self.block = StreamingBlock(lattice, capacity=64)
        self.engine: QecoolEngineBatch | None = None
        self.sessions: list[DecodeSession] = []
        self.roster: StreamingRoster | None = None

    def batch_engine(self, tracer: Tracer | None) -> QecoolEngineBatch:
        """The group's batch engine, built on first use."""
        if self.engine is None:
            block = self.block
            self.engine = QecoolEngineBatch(block.lattice, block.capacity)
            self.engine.tracer = tracer
        return self.engine


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
            Tracer(sample_every=TRACE_SAMPLE, clock=clock)
            if self.config.trace
            else None
        )
        self.metrics = ServiceMetrics(clock=clock, tracer=self.tracer)
        self._queue: deque[DecodeSession] = deque()
        self._groups: dict[int, _ShapeGroup] = {}
        self._lattices: dict[int, PlanarLattice] = {}
        self._noise_cache: dict[tuple, object] = {}
        # Insertion-ordered set of shape keys whose groups have fully
        # drained, oldest first — the LRU over which `MAX_IDLE_SHAPES`
        # bounds the slabs/engines/lattices kept warm.
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
            self._admit_wave([session])
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

    def _operating_point(self, spec: SessionSpec, lattice: PlanarLattice):
        """``(noise model, dense)`` of a spec: its resolved noise and,
        for online sessions, whether it dispatches to a batch lane."""
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
                # Keys are client-controlled; bound the cache so a
                # long-running service sweeping operating points cannot
                # grow it without limit.
                if len(self._noise_cache) >= _CACHE_BOUND:
                    self._noise_cache.clear()
                self._noise_cache[noise_key] = noise
        if spec.mode != "online":
            return noise, False
        # Expected detection events per round (a data flip trips up to
        # two ancillas, a measurement flip one now and one next round)
        # at the middle round(s)' rates: the stream's mean for constant
        # and linear rates alike, at O(1) cost in n_rounds.  Python
        # sums: a numpy reduction would cost more than the rest.
        n = spec.rounds
        data, meas = noise.rates(n, (n - 1) // 2, n // 2 + 1)
        events = (
            2 * lattice.n_data * sum(data.tolist())
            + 2 * lattice.n_ancillas * sum(meas.tolist())
        ) / len(data)
        return noise, events >= BATCH_EVENT_CUTOFF

    def _admit_wave(self, sessions: list[DecodeSession]) -> None:
        """Admit ``sessions`` together: per shape group one slab
        allocation (at most one grow and one ``rebind`` sweep), per
        operating point one noise resolution and dispatch estimate,
        and every integer seed hashed to its PCG64 state in one
        vectorized pass (:func:`repro.util.rng.pcg64_states`); then one
        :func:`~repro.core.online.fill_windows` pass per group draws
        every new row's first window with the block's one ``PCG64``
        and derives its detection events."""
        states = pcg64_states([session.spec.seed for session in sessions])
        shapes: dict[int, list[int]] = {}
        for i, session in enumerate(sessions):
            shapes.setdefault(session.spec.shape_key, []).append(i)
        now = self._clock()
        for d, members in shapes.items():
            lattice = self._lattice(d)
            group = self._groups.get(d)
            if group is None:
                group = self._groups[d] = _ShapeGroup(lattice)
            block = group.block
            capacity_before = block.capacity
            rows = block.alloc(len(members))
            if block.capacity != capacity_before:
                # The alloc grew the slab: refresh every live view.
                for other in group.sessions:
                    other.shot.rebind()
            points: dict = {}
            for i, row in zip(members, rows):
                session = sessions[i]
                spec = session.spec
                key = (spec.noise, spec.p, spec.q, spec.rounds, spec.mode)
                point = points.get(key) if spec.noise_params is None else None
                if point is None:
                    point = self._operating_point(spec, lattice)
                    if spec.noise_params is None:
                        points[key] = point
                noise, dense = point
                if spec.mode == "online":
                    session.shot = OnlineShot(
                        lattice, noise, spec.rounds, spec.online_config(),
                        rng=states[i],
                        batch=group.batch_engine(self.tracer) if dense else None,
                        block=block,
                        row=row,
                    )
                else:
                    session.shot = WindowShot(
                        lattice, noise, spec.rounds,
                        SlidingWindowDecoder(
                            window=spec.window, commit=spec.commit
                        ),
                        rng=states[i],
                        block=block,
                        row=row,
                    )
                session.shot.owner = session
                session.state = SessionState.ACTIVE
                session.admitted_at = now
                group.sessions.append(session)
                self.metrics.record_admit()
            fill_windows(
                block, [sessions[i].shot for i in members], [0] * len(members)
            )
            group.roster = None  # membership changed
            self._idle.pop(d, None)
        self._n_active += len(sessions)

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
        room = min(len(self._queue), self.config.max_active - self._n_active)
        if room > 0:
            queue = self._queue
            self._admit_wave([queue.popleft() for _ in range(room)])
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
            running, done = advance_streaming_round(roster, tracer=tracer)
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
            shot.release()  # free its batch-engine lane, if it has one
        session.shot = None  # drop lane/slab references
        self._n_active -= 1
        self.metrics.record_finish(result)

    def _prune_idle(self) -> None:
        """LRU-bound the fully-drained shape groups.

        A long-running service sweeping many distinct ``d`` values
        would otherwise accumulate empty groups — their state slabs,
        batch engines and cached lattices — forever.  Keep the
        ``MAX_IDLE_SHAPES`` most recently drained shapes warm for
        re-admission; evict the rest wholesale (a re-admission simply
        rebuilds the shape from scratch — dispatch state is
        per-session, so eviction never affects decode semantics).
        """
        for d, group in self._groups.items():
            if group.sessions:
                self._idle.pop(d, None)
            elif d not in self._idle:
                self._idle[d] = None
        while len(self._idle) > MAX_IDLE_SHAPES:
            d = next(iter(self._idle))
            del self._idle[d]
            self._drop_shape(d)

    def _drop_shape(self, d: int) -> None:
        self._groups.pop(d, None)  # its block and batch engine go with it
        self._lattices.pop(d, None)

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
