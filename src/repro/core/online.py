"""Online-QEC simulation: streaming decode under a finite decoder clock.

This drives the experiment of Section V-B / Fig. 7.  Every measurement
interval (1 us in the paper) a new syndrome layer arrives; the decoder,
clocked at ``frequency_hz``, gets ``frequency_hz * interval`` execution
cycles between arrivals.  Detection events are pushed into the Units'
7-bit ``Reg`` queues; if a layer arrives while the queue is full the
trial is an **overflow failure** ("If Reg overflows because of the slow
QEC performance, the trial is considered as a failure").

Corrections are applied *physically* to the data qubits between rounds —
that is the point of online-QEC — and the decoder compensates its own
corrections out of the next round's detection events (the ``sendSyndrome``
feedback path of Algorithm 1): the event layer pushed for round ``t`` is

    raw_syndrome(t) XOR raw_syndrome(t-1) XOR H . corrections(t-1 -> t)

After the last noisy round a final perfectly-measured round is appended
and the engine drains (``thv`` wait lifted); the trial is a logical
failure if the residual error crosses the west-east cut.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.core.engine import IDLE, QecoolEngine
from repro.core.engine_batch import (
    LANE_SUSPENDED,
    QecoolEngineBatch,
)
from repro.decoders.base import Match, correction_from_matches
from repro.surface_code.lattice import PlanarLattice
from repro.surface_code.logical import logical_failure, logical_failures_batch
from repro.surface_code.noise import NoiseModel, PhenomenologicalNoise
from repro.util.rng import make_rng

__all__ = [
    "BATCH_ENGINE_CUTOFF",
    "OnlineConfig",
    "OnlineOutcome",
    "OnlineShot",
    "StreamingBlock",
    "StreamingRoster",
    "StreamingShotState",
    "advance_streaming_round",
    "run_online_chunk",
    "run_online_trial",
]

BATCH_ENGINE_CUTOFF = 2
"""Minimum chunk size for the shot-major batch engine; below it the
scalar engine's per-shot path is cheaper (single-lane batches pay the
lock-step machinery without amortising it)."""


@dataclass(frozen=True)
class OnlineConfig:
    """Operating point of the online decoder.

    ``frequency_hz=None`` models an unconstrained clock (used for
    Table III, which measures cycles per layer rather than real-time
    feasibility).
    """

    frequency_hz: float | None = 2.0e9
    measurement_interval_s: float = 1.0e-6
    thv: int = 3
    reg_size: int = 7

    @property
    def cycles_per_interval(self) -> float:
        """Decoder cycles available between measurement arrivals."""
        if self.frequency_hz is None:
            return math.inf
        return self.frequency_hz * self.measurement_interval_s


@dataclass
class OnlineOutcome:
    """Result of one online trial."""

    failed: bool
    overflow: bool
    layer_cycles: list[int] = field(default_factory=list)
    matches: list[Match] = field(default_factory=list)
    n_rounds: int = 0

    @property
    def logical_failed(self) -> bool:
        """Failure excluding overflow (pure matching-quality failures)."""
        return self.failed and not self.overflow


def _resolve_trial_noise(p: float | NoiseModel, q: float | None) -> NoiseModel:
    if isinstance(p, NoiseModel):
        if q is not None:
            raise ValueError("q is part of the noise model; pass one or the other")
        return p
    return PhenomenologicalNoise(p, q)


def run_online_trial(
    lattice: PlanarLattice,
    p: float | NoiseModel,
    n_rounds: int,
    config: OnlineConfig = OnlineConfig(),
    rng: np.random.Generator | int | None = None,
    q: float | None = None,
    engine_factory: Callable[..., QecoolEngine] | None = None,
) -> OnlineOutcome:
    """Run one online-QEC trial of ``n_rounds`` noisy measurement rounds.

    ``p`` is either the phenomenological data-flip rate (with ``q`` the
    optional measurement rate, defaulting to ``p``) or any
    :class:`~repro.surface_code.noise.NoiseModel` — round-dependent
    models such as ``drift`` are sampled with the trial's round index.
    Returns an :class:`OnlineOutcome`; ``failed`` is True on Reg overflow
    or on a residual logical error after the final drain.

    ``engine_factory`` swaps in an alternative engine implementation
    with the ``QecoolEngine`` constructor/generator contract — used by
    ``benchmarks/bench_engine.py`` to race the array-native engine
    against the frozen pre-rewrite baseline on identical trials.

    Monte-Carlo points batch trials across a chunk with
    :func:`run_online_chunk` instead (bit-identical outcomes).
    """
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    rng = make_rng(rng)
    noise = _resolve_trial_noise(p, q)
    engine = (engine_factory or QecoolEngine)(
        lattice, thv=config.thv, reg_size=config.reg_size
    )
    budget = config.cycles_per_interval
    # With no cycle deadline the decode between rounds always runs to
    # IDLE, so the engine can advance synchronously (no generator); a
    # finite clock needs run()'s resumable cycle stream.  The baseline
    # engine hook predates run_to_idle, so it always takes the
    # generator path.
    unconstrained = math.isinf(budget) and hasattr(engine, "run_to_idle")
    gen = None if unconstrained else engine.run(drain=False)

    # Per-trial scratch, allocated once and reused across rounds.
    error = np.zeros(lattice.n_data, dtype=np.uint8)
    prev_raw = np.zeros(lattice.n_ancillas, dtype=np.uint8)
    compensation = np.zeros(lattice.n_ancillas, dtype=np.uint8)
    events_row = np.empty(lattice.n_ancillas, dtype=np.uint8)
    wall = 0.0  # decoder-cycle wall clock
    consumed_matches = 0

    for k in range(n_rounds + 1):
        final_round = k == n_rounds
        if final_round:
            raw = lattice.syndrome_of(error)
        else:
            data_flips, meas_flips = noise.sample_round(lattice, rng, t=k, n_rounds=n_rounds)
            error ^= data_flips
            raw = lattice.syndrome_of(error) ^ meas_flips
        np.bitwise_xor(raw, prev_raw, out=events_row)
        events_row ^= compensation
        prev_raw[:] = raw
        compensation.fill(0)

        if not engine.push_layer(events_row):
            return OnlineOutcome(
                failed=True,
                overflow=True,
                layer_cycles=list(engine.layer_cycles),
                matches=list(engine.matches),
                n_rounds=k,
            )

        if math.isinf(budget):
            arrival, deadline = 0.0, math.inf
        else:
            arrival, deadline = k * budget, (k + 1) * budget
        wall = max(wall, arrival)
        if final_round:
            engine.begin_drain()
            deadline = math.inf
        if unconstrained:
            engine.run_to_idle()
        else:
            for chunk in gen:
                if chunk == IDLE:
                    break
                wall += chunk
                if wall >= deadline:
                    break
        # Apply the window's corrections physically before the next round.
        new_matches = engine.matches[consumed_matches:]
        consumed_matches = len(engine.matches)
        if new_matches:
            window_correction = correction_from_matches(lattice, new_matches)
            error ^= window_correction
            compensation[:] = lattice.syndrome_of(window_correction)

    failed = logical_failure(
        lattice, error, np.zeros(lattice.n_data, dtype=np.uint8)
    )
    return OnlineOutcome(
        failed=failed,
        overflow=False,
        layer_cycles=list(engine.layer_cycles),
        matches=list(engine.matches),
        n_rounds=n_rounds,
    )


@lru_cache(maxsize=4096)
def _shot_entropy(seed: int) -> np.random.SeedSequence:
    """Memoised entropy mixing for integer-seeded shots (~10 us per
    ``SeedSequence``, a pure function of the seed — the decode service
    admits one seeded shot per session).  The cached sequence is only
    ever *read* into a fresh bit generator; it must never be spawned
    from (spawning mutates the parent's child counter), which is why
    this stays private to the streaming-shot constructor rather than
    living in :func:`repro.util.rng.make_rng`.
    """
    return np.random.SeedSequence(seed)


def _shot_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """The exact ``make_rng`` stream, with integer seeds memoised."""
    if isinstance(seed, (int, np.integer)):
        return np.random.Generator(np.random.PCG64(_shot_entropy(int(seed))))
    return make_rng(seed)


@lru_cache(maxsize=512)
def _rates_table(
    noise: NoiseModel, n_rounds: int
) -> list[tuple[float, float]]:
    """Python-float (data, measurement) rates per round, memoised.

    One tuple per round so the per-round batch loop never touches numpy
    scalars; keyed by the (frozen, hashed-by-value) noise model, so
    every admission of the same operating point shares one table.
    """
    return [
        (float(p_t), float(q_t))
        for p_t, q_t in zip(
            noise.data_schedule(n_rounds), noise.meas_schedule(n_rounds)
        )
    ]


class StreamingBlock:
    """Shot-major state slab shared by a batch of streaming shots.

    Holds every per-shot quantity :func:`advance_streaming_round` needs
    on its running path as contiguous row-indexed arrays, so a whole
    round runs as fancy-index gathers/scatters instead of per-shot
    Python:

    - the physical rows — ``errors`` / ``prev`` / ``comp`` (uint8);
    - the **session-state** rows — round cursor ``k``, round budget
      ``rounds``, decoder-cycle ``wall`` clock, per-interval cycle
      ``budget`` (``inf`` = unconstrained clock, mirrored by the
      ``finite`` mask so the vector wall arithmetic never multiplies
      into ``inf``), the engine-idle flag ``at_idle`` and the
      consumed-match cursor ``consumed``;
    - the **pre-drawn noise** rows — ``u[row, t]`` holds round ``t``'s
      uniform draws and ``pq[row, t]`` its (data, measurement) flip
      rates, for rows flagged ``has_u`` (streams above the per-shot
      size bound keep drawing per round instead).

    Rows are allocated to shots on admission and recycled on retirement
    (the decode service's scheduler keeps one block per micro-batch
    shape group); shots hold *views* into the physical rows, so
    :meth:`grow` reallocations require :meth:`OnlineShot.rebind` on
    every live shot — the scheduler owns that bookkeeping.  The
    session-state rows are only ever indexed, never viewed, so growth
    cannot strand them.
    """

    _SLABS = (
        "errors", "prev", "comp",
        "k", "rounds", "wall", "budget", "finite", "at_idle",
        "consumed", "has_u", "u", "pq",
    )

    def __init__(self, lattice: PlanarLattice, capacity: int = 64):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.lattice = lattice
        self.capacity = capacity
        self.errors = np.zeros((capacity, lattice.n_data), dtype=np.uint8)
        self.prev = np.zeros((capacity, lattice.n_ancillas), dtype=np.uint8)
        self.comp = np.zeros((capacity, lattice.n_ancillas), dtype=np.uint8)
        self.k = np.zeros(capacity, dtype=np.int64)
        self.rounds = np.zeros(capacity, dtype=np.int64)
        self.wall = np.zeros(capacity, dtype=np.float64)
        self.budget = np.full(capacity, math.inf, dtype=np.float64)
        self.finite = np.zeros(capacity, dtype=bool)
        self.at_idle = np.ones(capacity, dtype=bool)
        self.consumed = np.zeros(capacity, dtype=np.int64)
        self.has_u = np.zeros(capacity, dtype=bool)
        # Per-round noise slabs, grown along the round axis on demand.
        width = lattice.n_data + lattice.n_ancillas
        self.n_rounds_cap = 0
        self.u = np.zeros((capacity, 0, width), dtype=np.float64)
        self.pq = np.zeros((capacity, 0, 2), dtype=np.float64)
        self._free = list(range(capacity - 1, -1, -1))

    @property
    def n_free(self) -> int:
        """Rows currently unallocated."""
        return len(self._free)

    def alloc(self) -> int:
        """Claim a reset row; grows the block when none are free."""
        if not self._free:
            self.grow()
        row = self._free.pop()
        self.errors[row] = 0
        self.prev[row] = 0
        self.comp[row] = 0
        self.k[row] = 0
        self.rounds[row] = 0
        self.wall[row] = 0.0
        self.budget[row] = math.inf
        self.finite[row] = False
        self.at_idle[row] = True
        self.consumed[row] = 0
        self.has_u[row] = False
        return row

    def release(self, row: int) -> None:
        """Return a retired shot's row to the free list."""
        self._free.append(row)

    def ensure_rounds(self, n_rounds: int) -> None:
        """Grow the per-round noise slabs to cover ``n_rounds`` rounds.

        Unlike :meth:`grow` this reallocation strands no views — the
        noise slabs are only ever indexed.
        """
        if n_rounds <= self.n_rounds_cap:
            return
        new = max(n_rounds, 2 * self.n_rounds_cap)
        for name in ("u", "pq"):
            arr = getattr(self, name)
            grown = np.zeros(
                (self.capacity, new) + arr.shape[2:], dtype=arr.dtype
            )
            grown[:, : self.n_rounds_cap] = arr
            setattr(self, name, grown)
        self.n_rounds_cap = new

    def grow(self) -> None:
        """Double capacity, preserving live rows.

        Existing views go stale: every live shot must ``rebind``.
        """
        old = self.capacity
        self.capacity = old * 2
        for name in self._SLABS:
            arr = getattr(self, name)
            grown = np.zeros((self.capacity,) + arr.shape[1:], dtype=arr.dtype)
            grown[:old] = arr
            setattr(self, name, grown)
        self._free.extend(range(self.capacity - 1, old - 1, -1))


class StreamingShotState:
    """Shared per-shot state of the streaming-shot protocol.

    The plumbing every shot kind needs — the physical error row, the
    previous raw syndrome, the pending correction compensation, the
    noise substream and its python-float rate table, and the round
    counter.  All of it is **slab-resident**: state lives in the rows
    of a :class:`StreamingBlock` (a shared one when batched — the
    decode service allocates one row per admission — or a private
    single-row block otherwise), and the shot object is a *shim* over
    its row: attribute access reads/writes the slab, so per-shot and
    vectorized advances see the same state.  Concrete shots
    (:class:`OnlineShot` here, ``WindowShot`` in
    :mod:`repro.service.session`) add their decode state and implement
    ``step()``, ``finish_pair()`` and ``finalize()``.
    """

    __slots__ = (
        "lattice", "noise", "n_rounds", "rng",
        "error", "prev_raw", "compensation", "outcome",
        "block", "row", "_rates", "owner",
    )

    def __init__(
        self,
        lattice: PlanarLattice,
        noise: NoiseModel,
        n_rounds: int,
        rng: np.random.Generator | int | None,
        block: StreamingBlock | None,
    ):
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
        self.lattice = lattice
        self.noise = noise
        self.n_rounds = n_rounds
        self.rng = _shot_rng(rng)
        # State rows: a shared StreamingBlock when batched (row released
        # by the owner at retirement), a private single-row block
        # otherwise — identical layout and semantics either way.
        if block is None:
            block = StreamingBlock(lattice, capacity=1)
        self.block = block
        self.row = block.alloc()
        self.rebind()
        block.rounds[self.row] = n_rounds
        self.outcome = None
        self.owner = None  # opaque back-reference for schedulers
        # The whole stream's uniform draws, taken up front in one call
        # straight into the block's noise slab: numpy fills row-major,
        # so u[row, k] holds exactly the doubles round k's
        # `sample_round` would draw — the same stream, one generator
        # call instead of one per round.  (A shot that stops early —
        # Reg overflow — leaves its generator past where the per-round
        # reference would; nothing reads it afterwards.)  Bounded by
        # *size*, not rounds, so long/large-lattice streams cannot pin
        # multi-MB slab rows per session (a busy scheduler holds
        # hundreds of shots); oversize streams draw per round and skip
        # the vectorized noise gather (``has_u`` stays False).
        # Drawn into a fresh (n_rounds, width) array — the exact
        # generator call of the per-round reference, independent of the
        # slab's round-axis over-allocation — then copied into the slab.
        width = lattice.n_data + lattice.n_ancillas
        if n_rounds * width <= 16384:
            block.ensure_rounds(n_rounds)
            block.u[self.row, :n_rounds] = self.rng.random((n_rounds, width))
            block.has_u[self.row] = True
        try:
            self._rates = _rates_table(noise, n_rounds)
        except TypeError:  # an unhashable custom model: build directly
            self._rates = _rates_table.__wrapped__(noise, n_rounds)
        if block.has_u[self.row]:
            block.pq[self.row, :n_rounds] = self._rates

    @property
    def k(self) -> int:
        """Current round index (slab-resident)."""
        return int(self.block.k[self.row])

    @k.setter
    def k(self, value: int) -> None:
        self.block.k[self.row] = value

    def rebind(self) -> None:
        """Refresh the block-row views (after ``StreamingBlock.grow``)."""
        self.error = self.block.errors[self.row]
        self.prev_raw = self.block.prev[self.row]
        self.compensation = self.block.comp[self.row]

    def rates(self) -> tuple[float, float]:
        """This round's (data, measurement) flip rates — exactly what
        ``noise.sample_round(..., t=k, n_rounds=n_rounds)`` would use."""
        return self._rates[self.k]


class OnlineShot(StreamingShotState):
    """Streaming state of one online decode, advanced round by round.

    The session-granular unit under both :func:`run_online_chunk` and
    the decode service's micro-batching scheduler
    (:mod:`repro.service.scheduler`): everything one trial owns — the
    engine, its resumable Controller generator, the physical error
    state, the previous raw syndrome, the pending correction
    compensation, the wall clock and the noise substream — bundled so
    shots can be **added to or removed from a running batch between
    rounds**.  :func:`advance_streaming_round` advances any set of
    same-lattice shots one round in lock-step; a shot fed one round at
    a time evolves bit-identically to :func:`run_online_trial` on the
    same seed, whatever other shots share its batches.
    """

    __slots__ = (
        "config", "engine",
        "_budget", "_unconstrained", "_gen",
        "_batch", "_lane",
    )

    kind = "online"

    def __init__(
        self,
        lattice: PlanarLattice,
        noise: NoiseModel,
        n_rounds: int,
        config: OnlineConfig,
        rng: np.random.Generator | int | None,
        engine: QecoolEngine | None = None,
        block: StreamingBlock | None = None,
        batch: QecoolEngineBatch | None = None,
    ):
        super().__init__(lattice, noise, n_rounds, rng, block)
        self.config = config
        self._budget = config.cycles_per_interval
        self._unconstrained = math.isinf(self._budget)
        if not self._unconstrained:
            # alloc() reset the row to the unconstrained defaults
            # (budget=inf, finite=False); stamp the finite clock so the
            # vectorized wall arithmetic can mask on ``finite`` and
            # never multiply a round index into ``inf``.
            self.block.budget[self.row] = self._budget
            self.block.finite[self.row] = True
        # ``batch`` binds the shot to a lane of a shot-major batch
        # engine (the fast path of :func:`run_online_chunk` and the
        # decode service's lane allocator); ``engine`` keeps the scalar
        # per-shot engine — the oracle and sub-cutoff fallback.
        self._batch = batch
        if batch is not None:
            if engine is not None:
                raise ValueError("pass a scalar engine or a batch, not both")
            if (batch.thv, batch.reg_size) != (config.thv, config.reg_size):
                raise ValueError("batch engine shape does not match config")
            self._lane = batch.alloc_lane()
            batch.set_wall_exact(
                self._lane,
                self._unconstrained or float(self._budget).is_integer(),
            )
            self.engine = None
            self._gen = None
        else:
            self._lane = -1
            # ``engine`` lets a caller recycle a reset engine of the
            # same (lattice, thv, reg_size) shape instead of allocating.
            self.engine = (
                QecoolEngine(lattice, thv=config.thv, reg_size=config.reg_size)
                if engine is None
                else engine
            )
            # A finite clock needs run()'s resumable cycle stream
            # (decodes freeze mid-sweep at the interval boundary);
            # without a deadline the engine advances synchronously via
            # run_to_idle().
            self._gen = (
                None if self._unconstrained else self.engine.run(drain=False)
            )

    # Slab-resident session state: the wall clock, engine-idle flag and
    # consumed-match cursor live in the shot's StreamingBlock row so
    # whole-batch advances read/write them as vector gathers/scatters;
    # these shims keep the per-shot (scalar-engine) paths working on
    # the same state.

    @property
    def wall(self) -> float:
        """Decoder-cycle wall clock (slab-resident)."""
        return float(self.block.wall[self.row])

    @wall.setter
    def wall(self, value: float) -> None:
        self.block.wall[self.row] = value

    @property
    def _at_idle(self) -> bool:
        return bool(self.block.at_idle[self.row])

    @_at_idle.setter
    def _at_idle(self, value: bool) -> None:
        self.block.at_idle[self.row] = value

    @property
    def _consumed(self) -> int:
        return int(self.block.consumed[self.row])

    @_consumed.setter
    def _consumed(self, value: int) -> None:
        self.block.consumed[self.row] = value

    def release(self) -> None:
        """Return the shot's batch lane (after its outcome is built)."""
        if self._batch is not None and self._lane >= 0:
            self._batch.free_lane(self._lane)
            self._lane = -1

    def _engine_matches(self) -> list[Match]:
        return (
            self.engine.matches
            if self._batch is None
            else self._batch.matches_of(self._lane)
        )

    def _engine_layer_cycles(self) -> list[int]:
        return (
            self.engine.layer_cycles
            if self._batch is None
            else self._batch.layer_cycles_of(self._lane)
        )

    def _overflow_outcome(self) -> OnlineOutcome:
        self.outcome = OnlineOutcome(
            failed=True,
            overflow=True,
            layer_cycles=list(self._engine_layer_cycles()),
            matches=list(self._engine_matches()),
            n_rounds=self.k,
        )
        return self.outcome

    def step(
        self, events_row: np.ndarray, empty: bool
    ) -> tuple[str, np.ndarray | None]:
        """Consume round ``k``'s detection events; decode under the clock.

        ``events_row`` is the round's detection-event layer, already
        XOR-folded against ``prev_raw``/``compensation`` by the caller
        (:func:`advance_streaming_round`, which also batch-updates
        those rows; ``empty`` flags an all-zero layer).  Returns
        ``(status, correction)`` with status ``"running"``/``"done"``/
        ``"overflow"``; a non-None correction has been applied to
        ``error`` and still needs its compensation syndrome (batched by
        the caller into ``compensation``).
        """
        if self._batch is not None:
            return _advance_batch_group(
                self._batch, [self],
                np.asarray(events_row, dtype=np.uint8)[None, :],
                [empty],
            )[0]
        block, row = self.block, self.row
        k = int(block.k[row])
        final = k == self.n_rounds
        engine = self.engine
        # Empty layer into an IDLE-parked engine: the simulated path is
        # a fixed state delta in two common streaming cases — an empty
        # engine (immediate pop, no sinks: idle_layer_fast) and events
        # still waiting on the thv look-ahead with no newly-exposed
        # sink (try_push_empty_idle).  Both are bit-identical to the
        # generator path and never touch it.
        if empty and not final and block.at_idle[row]:
            if not engine._live and not engine.m:
                cost = engine.idle_layer_fast()
                if not self._unconstrained:
                    block.wall[row] = (
                        max(float(block.wall[row]), k * self._budget) + cost
                    )
                block.k[row] = k + 1
                return "running", None
            absorbed = engine.try_push_empty_idle()
            if absorbed:
                if not self._unconstrained:
                    block.wall[row] = max(
                        float(block.wall[row]), k * self._budget
                    )
                block.k[row] = k + 1
                return "running", None
            if absorbed is False:
                self._overflow_outcome()
                return "overflow", None
        if not engine.push_layer(events_row):
            self._overflow_outcome()
            return "overflow", None
        if self._unconstrained:
            deadline = math.inf
        else:
            wall = max(float(block.wall[row]), k * self._budget)
            block.wall[row] = wall
            deadline = (k + 1) * self._budget
        if final:
            engine.begin_drain()
            deadline = math.inf
        if self._unconstrained:
            engine.run_to_idle()
        else:
            at_idle = True  # generator exhaustion (drain) parks clean too
            for chunk in self._gen:
                if chunk == IDLE:
                    break
                wall += chunk
                if wall >= deadline:
                    at_idle = False
                    break
            block.wall[row] = wall
            block.at_idle[row] = at_idle
        block.k[row] = k + 1
        consumed = int(block.consumed[row])
        new_matches = engine.matches[consumed:]
        block.consumed[row] = len(engine.matches)
        correction = None
        if new_matches:
            correction = correction_from_matches(self.lattice, new_matches)
            self.error ^= correction
        return ("done" if final else "running"), correction

    def finish_pair(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(final error, correction) for the batched logical-failure
        check; ``None`` means the all-zero correction (online shots
        apply corrections physically as they stream)."""
        return self.error, None

    def finalize(self, failed: bool) -> None:
        """Record the end-of-trial outcome after the failure check."""
        self.outcome = OnlineOutcome(
            failed=bool(failed),
            overflow=False,
            layer_cycles=list(self._engine_layer_cycles()),
            matches=list(self._engine_matches()),
            n_rounds=self.n_rounds,
        )


def _advance_batch_group(
    batch: QecoolEngineBatch,
    shots: list["OnlineShot"],
    events: np.ndarray,
    empties: Sequence[bool],
) -> list[tuple[str, np.ndarray | None]]:
    """One round's :meth:`OnlineShot.step` for every lane of one batch
    engine, with the per-shot engine work batched.

    Mirrors the scalar ``step`` case for case: the two empty-layer fast
    entries dispatch vectorized (``empty_layers_fast`` /
    ``try_push_empty``), pushes land in one slab pass, and the decode —
    under each shot's own wall clock and interval deadline — runs
    through the batch engine's lock-step Controller.  Returns the
    per-shot ``(status, correction)`` pairs in input order.
    """
    results: list = [None] * len(shots)
    fast_idle: list[int] = []
    fast_try: list[int] = []
    pushes: list[int] = []
    # Inlined batch.is_parked / is_empty_idle (this classification runs
    # once per shot per round — the service's per-session hot path).
    parked_arr, cursors = batch._parked, batch._cursors
    m_arr, drain_arr = batch._m, batch._drain
    for j, shot in enumerate(shots):
        lane = shot._lane
        if (
            empties[j]
            and shot.k != shot.n_rounds
            and shot._at_idle
            and parked_arr[lane]
            and lane not in cursors
        ):
            if not m_arr[lane] and not drain_arr[lane]:
                fast_idle.append(j)
            else:
                fast_try.append(j)
        else:
            pushes.append(j)
    if fast_idle:
        lanes = np.fromiter(
            (shots[j]._lane for j in fast_idle), np.int64, len(fast_idle)
        )
        costs = batch.empty_layers_fast(lanes).tolist()
        for j, cost in zip(fast_idle, costs):
            shot = shots[j]
            if not shot._unconstrained:
                shot.wall = max(shot.wall, shot.k * shot._budget) + cost
            shot.k += 1
            results[j] = ("running", None)
    if fast_try:
        lanes = np.fromiter(
            (shots[j]._lane for j in fast_try), np.int64, len(fast_try)
        )
        for j, res in zip(fast_try, batch.try_push_empty(lanes).tolist()):
            shot = shots[j]
            if res == 1:
                if not shot._unconstrained:
                    shot.wall = max(shot.wall, shot.k * shot._budget)
                shot.k += 1
                results[j] = ("running", None)
            elif res == 0:
                shot._overflow_outcome()
                results[j] = ("overflow", None)
            else:
                pushes.append(j)  # a sink would be exposed: simulate
    if not pushes:
        return results
    lanes = np.fromiter((shots[j]._lane for j in pushes), np.int64, len(pushes))
    ok = batch.push_layers(lanes, events[pushes])
    decode: list[int] = []
    for j, okj in zip(pushes, ok.tolist()):
        if okj:
            decode.append(j)
        else:
            shots[j]._overflow_outcome()
            results[j] = ("overflow", None)
    if not decode:
        return results
    lanes = np.fromiter((shots[j]._lane for j in decode), np.int64, len(decode))
    finals = np.fromiter(
        (shots[j].k == shots[j].n_rounds for j in decode), bool, len(decode)
    )
    if finals.any():
        batch.begin_drain(lanes[finals])
    wall = np.zeros(len(decode), dtype=np.float64)
    deadline = np.full(len(decode), math.inf)
    for jj, j in enumerate(decode):
        shot = shots[j]
        if not shot._unconstrained:
            shot.wall = max(shot.wall, shot.k * shot._budget)
            wall[jj] = shot.wall
            if not finals[jj]:
                deadline[jj] = (shot.k + 1) * shot._budget
    statuses = batch.decode(lanes, wall, deadline)
    for jj, j in enumerate(decode):
        shot = shots[j]
        if not shot._unconstrained:
            shot.wall = float(wall[jj])
        shot._at_idle = statuses[jj] != LANE_SUSPENDED
        shot.k += 1
        lane_matches = batch.matches_of(shot._lane)
        new_matches = lane_matches[shot._consumed :]
        shot._consumed = len(lane_matches)
        correction = None
        if new_matches:
            correction = correction_from_matches(shot.lattice, new_matches)
            shot.error ^= correction
        results[j] = (("done" if finals[jj] else "running"), correction)
    return results


class StreamingRoster:
    """Precomputed dispatch structure for a fixed set of slab shots.

    Building the per-round dispatch — the row gather index, the
    batch-engine lane groupings, the per-shot-fallback list — takes a
    Python pass over the shots.  A roster caches that pass, so a
    scheduler advancing the same membership round after round pays it
    once per membership *change* rather than once per round
    (:func:`advance_streaming_round` builds a throwaway roster when
    none is passed).  Any membership change — admission, retirement,
    overflow — invalidates the roster; build a fresh one.
    """

    __slots__ = ("shots", "rows", "parts", "object_idx")

    def __init__(self, block: StreamingBlock, shots: Sequence) -> None:
        self.shots = list(shots)
        for shot in self.shots:
            if shot.block is not block:
                # A stray shot's row indexes a *different* block;
                # advancing it against this one's slabs would silently
                # read/corrupt a co-tenant's row.
                raise ValueError(
                    "every shot must hold a row in the passed block"
                )
        self.rows = np.fromiter(
            (s.row for s in self.shots), np.intp, len(self.shots)
        )
        # Shots bound to a shot-major batch engine advance together,
        # one vectorized group step per engine; everything else
        # (scalar-engine online shots, window shots) takes its
        # per-shot ``step``.
        groups: dict[int, tuple[QecoolEngineBatch, list[int]]] = {}
        object_idx: list[int] = []
        for i, shot in enumerate(self.shots):
            batch = getattr(shot, "_batch", None)
            if batch is not None:
                groups.setdefault(id(batch), (batch, []))[1].append(i)
            else:
                object_idx.append(i)
        self.parts = [
            (
                batch,
                np.asarray(idxs, dtype=np.intp),
                np.fromiter(
                    (self.shots[i]._lane for i in idxs), np.int64, len(idxs)
                ),
            )
            for batch, idxs in groups.values()
        ]
        self.object_idx = object_idx


def _advance_batch_rows(
    batch: QecoolEngineBatch,
    block: StreamingBlock,
    shots: list,
    rows: np.ndarray,
    kk: np.ndarray,
    idx: np.ndarray,
    lanes: np.ndarray,
    events: np.ndarray,
    nonempty: np.ndarray,
    done: list,
    finished: list,
    corrected_rows: list[int],
    corrections: list[np.ndarray],
) -> None:
    """One round's engine advance for every lane of one batch engine,
    with the session state vectorized over the shots' slab rows.

    The slab-native counterpart of :func:`_advance_batch_group`: the
    same case-for-case mirror of the scalar :meth:`OnlineShot.step` —
    the two empty-layer fast entries, the slab push, the lock-step
    decode under each shot's own wall clock and interval deadline —
    but the wall/round/idle/consumed bookkeeping runs as masked vector
    arithmetic on the block's session slabs (``finite`` masks every
    wall product so an unconstrained row never multiplies into
    ``inf``).  The only per-shot Python left on the running path is
    correction materialisation for lanes whose match list actually
    grew, and outcome construction for shots that drop out.
    """
    r = rows[idx]
    k = kk[idx]
    final = k == block.rounds[r]
    # Empty-layer fast-entry eligibility, vectorized over the group
    # (the conditions of the scalar step's ``empty and not final and
    # at_idle and parked and lane not in cursors`` guard).
    eligible = (
        ~nonempty[idx] & ~final & block.at_idle[r] & batch._parked[lanes]
    )
    if batch._cursors and eligible.any():
        eligible &= np.fromiter(
            (lane not in batch._cursors for lane in lanes.tolist()),
            bool, lanes.size,
        )
    hold = (batch._m[lanes] != 0) | batch._drain[lanes]
    push = ~eligible
    fi = np.flatnonzero(eligible & ~hold)
    if fi.size:
        costs = batch.empty_layers_fast(lanes[fi])
        rf = r[fi]
        fin = block.finite[rf]
        if fin.any():
            rff = rf[fin]
            block.wall[rff] = (
                np.maximum(block.wall[rff], k[fi][fin] * block.budget[rff])
                + costs[fin]
            )
        block.k[rf] += 1
    ft = np.flatnonzero(eligible & hold)
    if ft.size:
        res = batch.try_push_empty(lanes[ft])
        absorbed = ft[res == 1]
        if absorbed.size:
            ra = r[absorbed]
            fin = block.finite[ra]
            if fin.any():
                raf = ra[fin]
                block.wall[raf] = np.maximum(
                    block.wall[raf], k[absorbed][fin] * block.budget[raf]
                )
            block.k[ra] += 1
        for j in ft[res == 0].tolist():
            shot = shots[idx[j]]
            shot._overflow_outcome()
            finished.append(shot)
        push[ft[res == -1]] = True  # a sink would be exposed: simulate
    pi = np.flatnonzero(push)
    if not pi.size:
        return
    pl = lanes[pi]
    ok = batch.push_layers(pl, events[idx[pi]])
    if not ok.all():
        for j in pi[~ok].tolist():
            shot = shots[idx[j]]
            shot._overflow_outcome()
            finished.append(shot)
        pi = pi[ok]
        if not pi.size:
            return
        pl = lanes[pi]
    rd = r[pi]
    kd = k[pi]
    dfinal = final[pi]
    if dfinal.any():
        batch.begin_drain(pl[dfinal])
    wall_in = np.zeros(pi.size, dtype=np.float64)
    deadline = np.full(pi.size, math.inf)
    fin = block.finite[rd]
    if fin.any():
        rdf = rd[fin]
        wall_in[fin] = np.maximum(
            block.wall[rdf], kd[fin] * block.budget[rdf]
        )
        ddl = fin & ~dfinal
        if ddl.any():
            deadline[ddl] = (kd[ddl] + 1) * block.budget[rd[ddl]]
    statuses = batch.decode(pl, wall_in, deadline)
    if fin.any():
        block.wall[rd[fin]] = wall_in[fin]
    block.at_idle[rd] = statuses != LANE_SUSPENDED
    block.k[rd] += 1
    counts = batch.match_counts(pl)
    consumed = block.consumed[rd]
    changed = np.flatnonzero(counts != consumed)
    for j in changed.tolist():
        shot = shots[idx[pi[j]]]
        new_matches = batch.matches_of(int(pl[j]))[int(consumed[j]):]
        correction = correction_from_matches(shot.lattice, new_matches)
        row = int(rd[j])
        np.bitwise_xor(block.errors[row], correction, out=block.errors[row])
        if not dfinal[j]:
            corrected_rows.append(row)
            corrections.append(correction)
    if changed.size:
        block.consumed[rd[changed]] = counts[changed]
    for j in np.flatnonzero(dfinal).tolist():
        done.append(shots[idx[pi[j]]])


def _finalize_done(lattice: PlanarLattice, done: list) -> None:
    """Batched end-of-stream logical-failure check + outcome build."""
    final_errors = np.empty((len(done), lattice.n_data), dtype=np.uint8)
    final_corrections = np.zeros((len(done), lattice.n_data), dtype=np.uint8)
    for j, shot in enumerate(done):
        error, correction = shot.finish_pair()
        final_errors[j] = error
        if correction is not None:
            final_corrections[j] = correction
    fails = logical_failures_batch(lattice, final_errors, final_corrections)
    for shot, fail in zip(done, fails):
        shot.finalize(bool(fail))


def advance_streaming_round(
    lattice: PlanarLattice,
    shots: Sequence["OnlineShot"],
    block: StreamingBlock | None = None,
    roster: StreamingRoster | None = None,
    tracer=None,
) -> tuple[list, list]:
    """Advance every shot one measurement round, batched across shots.

    The micro-batching kernel: per-round noise sampling (each shot's
    own substream and schedule — shots may sit at *different* round
    indices, carry different noise models, clocks and round budgets),
    syndrome extraction, detection-event folding,
    correction-compensation syndromes *and the per-session state
    bookkeeping* (round cursors, wall clocks, idle flags,
    consumed-match cursors) each run as one vectorized pass over the
    batch's slab rows.  Membership is free to change between calls —
    that is what the decode service's scheduler does — and every
    shot's evolution is bit-identical to running it alone
    (``tests/test_online.py``, ``tests/test_service.py``).

    ``shots`` may mix any objects implementing the streaming-shot
    protocol (see :class:`OnlineShot`) on the same lattice.  When
    every shot's state rows live in ``block`` (a shared
    :class:`StreamingBlock`), pass it — and, for repeated same-
    membership rounds, a cached :class:`StreamingRoster` — so the
    per-round state traffic runs as whole-batch gathers/scatters
    instead of per-shot row copies.  Returns ``(running, finished)``;
    ``running`` preserves input order and finished shots have
    ``outcome`` set.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`, or ``None`` — the
    default) times the round's three sections on the slab path — noise
    gather, batch-lane advance, scalar advance — as spans.  Tracing
    only reads a clock; it never touches decode state, so traced and
    untraced rounds are bit-identical.
    """
    if roster is not None:
        shots = roster.shots
    n = len(shots)
    if not n:
        return [], []
    if block is None:
        return _advance_round_views(lattice, shots)
    if roster is None:
        roster = StreamingRoster(block, shots)
    if tracer is not None:
        t = tracer.clock()
    rows = roster.rows
    kk = block.k[rows]
    n_data = lattice.n_data
    errors = block.errors[rows]
    nidx = np.flatnonzero(kk < block.rounds[rows])
    if nidx.size:
        # Per-round noise, gathered straight from the block's pre-drawn
        # uniform/rate slabs (rows above the pre-draw size bound fall
        # back to their own substream, drawn here in round order).
        sel = rows[nidx]
        ksel = kk[nidx]
        hasu = block.has_u[sel]
        if hasu.all():
            uniforms = block.u[sel, ksel]
            pq = block.pq[sel, ksel]
        else:
            uniforms = np.empty((nidx.size, n_data + lattice.n_ancillas))
            pq = np.empty((nidx.size, 2))
            hj = np.flatnonzero(hasu)
            if hj.size:
                uniforms[hj] = block.u[sel[hj], ksel[hj]]
                pq[hj] = block.pq[sel[hj], ksel[hj]]
            for j in np.flatnonzero(~hasu).tolist():
                shot = shots[int(nidx[j])]
                shot.rng.random(out=uniforms[j])
                pq[j] = shot._rates[int(ksel[j])]
        data_flips = (uniforms[:, :n_data] < pq[:, 0:1]).view(np.uint8)
        meas_flips = (uniforms[:, n_data:] < pq[:, 1:2]).view(np.uint8)
        errors[nidx] ^= data_flips
        block.errors[sel] = errors[nidx]
    raws = lattice.syndrome_of_batch(errors)
    if nidx.size:
        raws[nidx] ^= meas_flips
    events = raws ^ block.prev[rows] ^ block.comp[rows]
    block.prev[rows] = raws
    block.comp[rows] = 0
    nonempty = events.any(axis=1)
    if tracer is not None:
        now = tracer.clock()
        tracer.add("round.noise_gather", t, now - t)
        t = now

    done: list = []
    finished: list = []
    corrected_rows: list[int] = []
    corrections: list[np.ndarray] = []
    for batch, idx, lanes in roster.parts:
        _advance_batch_rows(
            batch, block, shots, rows, kk, idx, lanes, events, nonempty,
            done, finished, corrected_rows, corrections,
        )
    if tracer is not None:
        now = tracer.clock()
        if roster.parts:
            tracer.add("round.batch_advance", t, now - t)
        t = now
    for i in roster.object_idx:
        shot = shots[i]
        status, correction = shot.step(events[i], not nonempty[i])
        if status == "overflow":
            finished.append(shot)
            continue
        if correction is not None and status == "running":
            corrected_rows.append(shot.row)
            corrections.append(correction)
        if status == "done":
            done.append(shot)
    if tracer is not None and len(roster.object_idx):
        tracer.add("round.scalar_advance", t, tracer.clock() - t)
    if corrections:
        comp_rows = lattice.syndrome_of_batch(np.stack(corrections))
        block.comp[np.asarray(corrected_rows, dtype=np.intp)] = comp_rows
    if done:
        _finalize_done(lattice, done)
        finished.extend(done)
    if not finished:
        return list(shots), []
    drop = set(map(id, finished))
    return [s for s in shots if id(s) not in drop], finished


def _advance_round_views(
    lattice: PlanarLattice, shots: Sequence["OnlineShot"]
) -> tuple[list, list]:
    """Blockless advance: shots whose state rows live in *different*
    blocks (private single-row blocks, typically) advance through
    their per-shot views — the pre-slab object path, kept as the
    bit-identity oracle and for direct step-by-step drivers."""
    n = len(shots)
    noisy = [i for i, s in enumerate(shots) if s.k < s.n_rounds]
    if noisy:
        nn = len(noisy)
        n_data = lattice.n_data
        uniforms = np.empty((nn, n_data + lattice.n_ancillas))
        rates = []
        for j, i in enumerate(noisy):
            shot = shots[i]
            if shot.block.has_u[shot.row]:
                uniforms[j] = shot.block.u[shot.row, shot.k]
            else:
                shot.rng.random(out=uniforms[j])
            rates.append(shot._rates[shot.k])
        pq = np.asarray(rates)
        data_flips = (uniforms[:, :n_data] < pq[:, 0:1]).view(np.uint8)
        meas_flips = (uniforms[:, n_data:] < pq[:, 1:2]).view(np.uint8)
        for j, i in enumerate(noisy):
            shot = shots[i]
            np.bitwise_xor(shot.error, data_flips[j], out=shot.error)
    errors = np.empty((n, lattice.n_data), dtype=np.uint8)
    prev = np.empty((n, lattice.n_ancillas), dtype=np.uint8)
    comp = np.empty((n, lattice.n_ancillas), dtype=np.uint8)
    for i, shot in enumerate(shots):
        errors[i] = shot.error
        prev[i] = shot.prev_raw
        comp[i] = shot.compensation
    raws = lattice.syndrome_of_batch(errors)
    if noisy:
        raws[noisy] ^= meas_flips
    events = raws ^ prev ^ comp
    for i, shot in enumerate(shots):
        shot.prev_raw[:] = raws[i]
        shot.compensation.fill(0)
    nonempty = events.any(axis=1)

    # Shots bound to a shot-major batch engine advance together, one
    # batched group step per engine; everything else (scalar-engine
    # online shots, window shots) takes its per-shot ``step``.
    batch_results: dict[int, tuple] = {}
    groups: dict[int, tuple[QecoolEngineBatch, list[int]]] = {}
    for i, shot in enumerate(shots):
        batch = getattr(shot, "_batch", None)
        if batch is not None:
            groups.setdefault(id(batch), (batch, []))[1].append(i)
    for batch, idxs in groups.values():
        group_results = _advance_batch_group(
            batch,
            [shots[i] for i in idxs],
            events[idxs],
            (~nonempty[idxs]).tolist(),
        )
        batch_results.update(zip(idxs, group_results))

    running: list = []
    done: list = []
    finished: list = []
    corrected: list = []
    corrections: list[np.ndarray] = []
    for i, shot in enumerate(shots):
        if i in batch_results:
            status, correction = batch_results[i]
        else:
            status, correction = shot.step(events[i], not nonempty[i])
        if status == "overflow":
            finished.append(shot)
            continue
        if status == "running":
            if correction is not None:
                corrected.append(shot)
                corrections.append(correction)
            running.append(shot)
        else:
            done.append(shot)
    if corrections:
        comp_rows = lattice.syndrome_of_batch(np.stack(corrections))
        for shot, row in zip(corrected, comp_rows):
            shot.compensation[:] = row
    if done:
        _finalize_done(lattice, done)
        finished.extend(done)
    return running, finished


def run_online_chunk(
    lattice: PlanarLattice,
    p: float | NoiseModel,
    n_rounds: int,
    config: OnlineConfig,
    rngs: Sequence[np.random.Generator],
    q: float | None = None,
) -> list[OnlineOutcome]:
    """Run a chunk of online trials batched across shots.

    **Bit-identical** to calling :func:`run_online_trial` once per
    generator in ``rngs`` (covered by ``tests/test_online.py``): each
    shot keeps its own wall clock and noise substream
    (:class:`OnlineShot`), but the per-round heavy lifting — noise
    sampling, syndrome extraction, event folding, correction
    compensation *and the engine advance itself* — runs batched over
    the still-active shots: one :class:`~repro.core.engine_batch.
    QecoolEngineBatch` lane per shot, decoded in lock-step (chunks
    below :data:`BATCH_ENGINE_CUTOFF` keep the scalar per-shot
    engines).  Shots drop out of the batch when their Reg overflows,
    exactly where their per-shot trial would return.
    """
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    noise = _resolve_trial_noise(p, q)
    rngs = list(rngs)
    block = StreamingBlock(lattice, capacity=max(1, len(rngs)))
    batch = (
        QecoolEngineBatch(
            lattice, thv=config.thv, reg_size=config.reg_size,
            capacity=len(rngs),
        )
        if len(rngs) >= BATCH_ENGINE_CUTOFF
        else None
    )
    shots = [
        OnlineShot(lattice, noise, n_rounds, config, rng, block=block, batch=batch)
        for rng in rngs
    ]
    active: list = list(shots)
    for _ in range(n_rounds + 1):
        active, _ = advance_streaming_round(lattice, active, block=block)
    return [shot.outcome for shot in shots]  # type: ignore[misc]
