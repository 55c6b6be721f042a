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

:func:`run_online_trial` runs exactly that physical loop and is the
oracle.  The compensation cancels the corrections, so the layer equals

    events(t) = H . d(t) XOR m(t) XOR m(t-1)

for round ``t``'s new data flips ``d(t)`` and measurement flips
``m(t)`` (``m(-1) = 0``), a function of the noise alone.  The streaming
path (:class:`StreamingBlock`, :func:`advance_streaming_round`) derives
each window of event layers from its uniforms in one vectorized pass
and only XORs the window's data-flip parity and the applied
corrections into the error row, which is read once, at the end.

After the last noisy round a final perfectly-measured round is appended
(its layer is ``m(n-1)``) and the engine drains (``thv`` wait lifted);
the trial is a logical failure if the residual error crosses the
west-east cut.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

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
from repro.util.rng import make_rng, pcg64_states

__all__ = [
    "BATCH_ENGINE_CUTOFF",
    "NOISE_WINDOW_DOUBLES",
    "OnlineConfig",
    "OnlineOutcome",
    "OnlineShot",
    "StreamingBlock",
    "StreamingRoster",
    "StreamingShotState",
    "advance_streaming_round",
    "fill_windows",
    "run_online_chunk",
    "run_online_trial",
]

BATCH_ENGINE_CUTOFF = 2
"""Minimum chunk size for the shot-major batch engine; below it the
scalar engine's per-shot path is cheaper (single-lane batches pay the
lock-step machinery without amortising it)."""

NOISE_WINDOW_DOUBLES = 16384
"""Uniform draws one row's window takes (128 KiB of float64).

A :class:`StreamingBlock` of lattice width ``w = n_data + n_ancillas``
draws at most ``max(1, NOISE_WINDOW_DOUBLES // w)`` rounds of noise per
row at a time (75 at ``d = 9``) and keeps only their event layers; a
longer stream refills its row from its own stream each time its round
cursor crosses a window boundary."""


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
) -> OnlineOutcome:
    """Run one online-QEC trial of ``n_rounds`` noisy measurement rounds.

    ``p`` is either the phenomenological data-flip rate (with ``q`` the
    optional measurement rate, defaulting to ``p``) or any
    :class:`~repro.surface_code.noise.NoiseModel` — round-dependent
    models such as ``drift`` are sampled with the trial's round index.
    Returns an :class:`OnlineOutcome`; ``failed`` is True on Reg overflow
    or on a residual logical error after the final drain.

    Monte-Carlo points batch trials across a chunk with
    :func:`run_online_chunk` instead (bit-identical outcomes).
    """
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    rng = make_rng(rng)
    noise = _resolve_trial_noise(p, q)
    engine = QecoolEngine(lattice, thv=config.thv, reg_size=config.reg_size)
    budget = config.cycles_per_interval
    # One resumable Controller for the whole trial: a finite clock
    # suspends it mid-sweep at each interval boundary; with no deadline
    # every decode simply runs on to IDLE.
    gen = engine.run(drain=False)

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


class StreamingBlock:
    """Shot-major state slab shared by a batch of streaming shots.

    Holds every per-shot quantity :func:`advance_streaming_round` needs
    on its running path as contiguous row-indexed arrays, so a whole
    round runs as fancy-index gathers/scatters instead of per-shot
    Python:

    - the physical row ``errors`` (uint8): the data-flip parity of
      every window drawn so far XOR every correction applied, read once
      at the end of the stream;
    - the **session-state** rows — round cursor ``k``, round budget
      ``rounds``, decoder-cycle ``wall`` clock, per-interval cycle
      ``budget`` (``inf`` = unconstrained clock, mirrored by the
      ``finite`` mask so the vector wall arithmetic never multiplies
      into ``inf``), the engine-idle flag ``at_idle`` and the
      consumed-match cursor ``consumed``;
    - the **event window** rows — ``events[row, t - win0[row]]`` holds
      round ``t``'s detection-event layer for the rounds
      ``[win0, win1)`` drawn last, and slot ``win1 - win0`` holds
      ``m(win1 - 1)``: the final layer when ``win1`` is the stream's
      last noisy round, else the part of the next window's first layer
      this window owes.  A window spans at most ``noise_window``
      rounds (:data:`NOISE_WINDOW_DOUBLES` uniforms); a longer stream
      refills as its cursor reaches ``win1`` (:func:`fill_windows`).

    Rows are allocated to shots on admission and recycled on retirement
    (the decode service's scheduler keeps one block per micro-batch
    shape group); shots hold a *view* of their ``errors`` row, so
    :meth:`grow` reallocations require :meth:`StreamingShotState.rebind`
    on every live shot — the scheduler owns that bookkeeping.  Every
    other slab is only ever indexed, never viewed, so growth cannot
    strand it.  The block also owns the one ``PCG64`` that draws the
    windows of its integer-seeded shots.
    """

    _SLABS = (
        "errors",
        "k", "rounds", "wall", "budget", "finite", "at_idle",
        "consumed", "win0", "win1", "events",
    )

    def __init__(self, lattice: PlanarLattice, capacity: int = 64):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.lattice = lattice
        self.capacity = capacity
        self.errors = np.zeros((capacity, lattice.n_data), dtype=np.uint8)
        self.k = np.zeros(capacity, dtype=np.int64)
        self.rounds = np.zeros(capacity, dtype=np.int64)
        self.wall = np.zeros(capacity, dtype=np.float64)
        self.budget = np.full(capacity, math.inf, dtype=np.float64)
        self.finite = np.zeros(capacity, dtype=bool)
        self.at_idle = np.ones(capacity, dtype=bool)
        self.consumed = np.zeros(capacity, dtype=np.int64)
        self.win0 = np.zeros(capacity, dtype=np.int64)
        self.win1 = np.zeros(capacity, dtype=np.int64)
        # Per-row event windows, grown along the round axis on demand up
        # to ``noise_window`` rounds (plus the owed/final slot).
        width = lattice.n_data + lattice.n_ancillas
        self.noise_window = max(1, NOISE_WINDOW_DOUBLES // width)
        self.n_rounds_cap = 0
        self.events = np.zeros((capacity, 1, lattice.n_ancillas), dtype=np.uint8)
        # Each stabilizer's (at most 4) data qubits, padded with the
        # index of an always-zero flip column: a window's syndromes are
        # four column gathers XORed, no matmul.
        support = np.full((4, lattice.n_ancillas), lattice.n_data, dtype=np.intp)
        for a, row in enumerate(lattice.parity_matrix):
            qubits = np.flatnonzero(row)
            support[: qubits.size, a] = qubits
        self.support = support
        self._phase = 0
        self._pcg = np.random.PCG64(0)
        self._draw = np.random.Generator(self._pcg)
        self._free = list(range(capacity - 1, -1, -1))

    @property
    def n_free(self) -> int:
        """Rows currently unallocated."""
        return len(self._free)

    def alloc(self, count: int = 1) -> list[int]:
        """Claim ``count`` reset rows, growing the block (once) when too
        few are free."""
        if count < 1:
            return []
        if count > len(self._free):
            self.grow(self.capacity - len(self._free) + count)
        rows = self._free[-count:][::-1]
        del self._free[-count:]
        r = rows[0] if count == 1 else np.array(rows)
        self.errors[r] = 0
        self.k[r] = 0
        self.rounds[r] = 0
        self.wall[r] = 0.0
        self.budget[r] = math.inf
        self.finite[r] = False
        self.at_idle[r] = True
        self.consumed[r] = 0
        self.win0[r] = 0
        self.win1[r] = 0
        return rows

    def release(self, row: int) -> None:
        """Return a retired shot's row to the free list."""
        self._free.append(row)

    def next_phase(self) -> int:
        """The first-window shortening of the next stream longer than
        one window: successive long streams take successive phases, so
        streams admitted together refill on different rounds."""
        phase = self._phase
        self._phase = (phase + 1) % self.noise_window
        return phase

    def ensure_rounds(self, n_rounds: int) -> None:
        """Grow the event slab to hold windows of ``n_rounds`` rounds,
        never past ``noise_window``.

        Unlike :meth:`grow` this reallocation strands no views — the
        event slab is only ever indexed.
        """
        if n_rounds <= self.n_rounds_cap:
            return
        new = min(max(n_rounds, 2 * self.n_rounds_cap), self.noise_window)
        grown = np.zeros(
            (self.capacity, new + 1, self.lattice.n_ancillas), dtype=np.uint8
        )
        grown[:, : self.n_rounds_cap + 1] = self.events
        self.events = grown
        self.n_rounds_cap = new

    def grow(self, min_capacity: int | None = None) -> None:
        """Double capacity (repeatedly, up to ``min_capacity``) in one
        reallocation, preserving live rows.

        The ``errors`` views go stale: every live shot must ``rebind``.
        """
        old = self.capacity
        new = 2 * old
        while min_capacity is not None and new < min_capacity:
            new *= 2
        self.capacity = new
        for name in self._SLABS:
            arr = getattr(self, name)
            grown = np.zeros((new,) + arr.shape[1:], dtype=arr.dtype)
            grown[:old] = arr
            setattr(self, name, grown)
        self._free.extend(range(new - 1, old - 1, -1))


class StreamingShotState:
    """Shared per-shot state of the streaming-shot protocol.

    The plumbing every shot kind needs — the physical error row, the
    noise stream and the round counter.  All of it is
    **slab-resident**: state lives in one row of the
    :class:`StreamingBlock` the shot is built on (the decode service
    allocates rows per admission wave and passes each shot its
    ``row``; the owner releases it at retirement), and the shot's
    ``error`` is a view into that row.  Concrete shots
    (:class:`OnlineShot` here, ``WindowShot`` in
    :mod:`repro.service.session`) add their decode state and implement
    ``finish_pair()`` and ``finalize()``, plus ``step()`` unless they
    ride a batch-engine lane.

    ``rng`` is an integer seed, a pre-hashed ``(state, inc)`` PCG64
    pair (:func:`repro.util.rng.pcg64_states`), or anything
    :func:`~repro.util.rng.make_rng` takes (a ``Generator`` then draws
    every window itself).  An integer-seeded stream is kept as that
    pair alone, and its windows are drawn by the block's own ``PCG64``.
    Nothing is drawn here: the owner fills the first window
    (:func:`fill_windows`, as the scheduler does for a whole admission
    wave), or else the first :func:`advance_streaming_round` does.
    """

    __slots__ = (
        "lattice", "noise", "n_rounds", "rng", "phase",
        "error", "outcome", "block", "row", "owner",
    )

    def __init__(
        self,
        lattice: PlanarLattice,
        noise: NoiseModel,
        n_rounds: int,
        rng: np.random.Generator | int | tuple[int, int] | None,
        block: StreamingBlock,
        row: int | None = None,
    ):
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
        self.lattice = lattice
        self.noise = noise
        self.n_rounds = n_rounds
        if isinstance(rng, tuple):
            self.rng = rng
        elif isinstance(rng, (int, np.integer)):
            self.rng = pcg64_states([rng])[0]
        else:
            self.rng = make_rng(rng)
        self.block = block
        self.row = block.alloc()[0] if row is None else row
        self.rebind()
        block.rounds[self.row] = n_rounds
        self.phase = block.next_phase() if n_rounds > block.noise_window else 0
        self.outcome = None
        self.owner = None  # opaque back-reference for schedulers

    def window_end(self, k: int) -> int:
        """The round at which the window starting at round ``k`` ends:
        the next multiple of ``noise_window`` less the shot's phase, or
        the end of the stream."""
        w = self.block.noise_window
        return min(self.n_rounds, ((k + self.phase) // w + 1) * w - self.phase)

    @property
    def k(self) -> int:
        """Current round index (slab-resident)."""
        return int(self.block.k[self.row])

    @k.setter
    def k(self, value: int) -> None:
        self.block.k[self.row] = value

    def rebind(self) -> None:
        """Refresh the block-row view (after ``StreamingBlock.grow``)."""
        self.error = self.block.errors[self.row]


def fill_windows(block: StreamingBlock, shots: list, ks: list[int]) -> None:
    """Draw the next window of each shot (whose cursor sits at its
    ``ks`` entry, a window boundary: ``0`` for a new shot) and derive
    its event layers.

    Each shot's uniforms come from its own stream in one call, row
    after row into one scratch: numpy fills row-major, one 64-bit
    output per double, so round ``t`` gets exactly the doubles
    ``sample_round`` would draw for it — the per-round reference's
    stream, one call per window.  (A shot that stops early — Reg
    overflow — leaves its stream past where the reference would;
    nothing reads it afterwards.)  An integer-seeded stream is drawn by
    the block's ``PCG64`` set to its ``(state, inc)`` pair, and keeps
    the advanced pair only if another window follows.

    Everything after the draw is one vectorized pass over all the
    windows: the flips against each round's rates (asked of the model
    by window, so a refill costs its window whatever ``n_rounds`` is),
    ``H . d(t)`` as four column gathers XORed, ``m(t) ^ m(t-1)`` along
    each window (its first layer takes the ``m`` the previous window
    owes it), the scatter into the event slab and the XOR of each
    window's data-flip parity into its error row.
    """
    lattice = block.lattice
    n_data, n_anc = lattice.n_data, lattice.n_ancillas
    rows = np.fromiter((shot.row for shot in shots), np.intp, len(shots))
    lengths = [shot.window_end(k) - k for shot, k in zip(shots, ks)]
    block.ensure_rounds(max(lengths))
    total = sum(lengths)
    uniforms = np.empty((total, n_data + n_anc))
    data_rates, meas_rates = [], []
    window_rates: dict = {}
    pcg, draw = block._pcg, block._draw
    at = 0
    for shot, k, m in zip(shots, ks, lengths):
        key = (id(shot.noise), shot.n_rounds, k, m)
        rates = window_rates.get(key)
        if rates is None:
            rates = window_rates[key] = shot.noise.rates(shot.n_rounds, k, k + m)
        data_rates.append(rates[0])
        meas_rates.append(rates[1])
        stream = shot.rng
        if type(stream) is tuple:
            pcg.state = {
                "bit_generator": "PCG64",
                "state": {"state": stream[0], "inc": stream[1]},
                "has_uint32": 0,
                "uinteger": 0,
            }
            draw.random(out=uniforms[at : at + m])
            if k + m < shot.n_rounds:
                shot.rng = (pcg.state["state"]["state"], stream[1])
        else:
            stream.random(out=uniforms[at : at + m])
        at += m
    # Flip columns padded to whole uint64 words, the pad column included
    # (index n_data, always 0): the parity below XORs words.
    flips = np.zeros((total, (n_data + 8) // 8 * 8), dtype=bool)
    np.less(
        uniforms[:, :n_data], np.concatenate(data_rates)[:, None],
        out=flips[:, :n_data],
    )
    meas = (uniforms[:, n_data:] < np.concatenate(meas_rates)[:, None]).view(
        np.uint8
    )
    data = flips.view(np.uint8)
    a, b, c, d = block.support
    layers = data[:, a]
    layers ^= data[:, b]
    layers ^= data[:, c]
    layers ^= data[:, d]
    layers ^= meas
    layers[1:] ^= meas[:-1]
    m_arr = np.array(lengths)
    starts = np.cumsum(m_arr) - m_arr
    layers[starts[1:]] ^= meas[starts[1:] - 1]  # not across windows
    k_arr = np.array(ks)
    owed = block.events[rows, k_arr - block.win0[rows]]
    owed[k_arr == 0] = 0  # a first window owes nothing
    layers[starts] ^= owed
    slots = block.events.shape[1]
    events = block.events.reshape(-1, n_anc)
    first = rows * slots
    events[np.repeat(first - starts, m_arr) + np.arange(total)] = layers
    events[first + m_arr] = meas[starts + m_arr - 1]
    parity = np.bitwise_xor.reduceat(flips.view(np.uint64), starts, axis=0)
    block.errors[rows] ^= parity.view(np.uint8)[:, :n_data]
    block.win0[rows] = k_arr
    block.win1[rows] = k_arr + m_arr


class OnlineShot(StreamingShotState):
    """Streaming state of one online decode, advanced round by round.

    The session-granular unit under both :func:`run_online_chunk` and
    the decode service's micro-batching scheduler
    (:mod:`repro.service.scheduler`): everything one trial owns — the
    engine, its resumable Controller generator, the physical error
    state, the event window, the wall clock and the noise substream —
    bundled so shots can be **added to or removed from a running batch
    between rounds**.  :func:`advance_streaming_round` advances a roster of
    shots on one block in lock-step; a shot fed one round at a time
    evolves bit-identically to :func:`run_online_trial` on the same
    seed, whatever other shots share its batches.
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
        rng: np.random.Generator | int | tuple[int, int] | None,
        block: StreamingBlock,
        batch: QecoolEngineBatch | None = None,
        row: int | None = None,
    ):
        super().__init__(lattice, noise, n_rounds, rng, block, row)
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
        # engine at the shot's operating point (the fast path of
        # :func:`run_online_chunk` and the decode service's dense
        # sessions); otherwise the shot builds its own scalar engine —
        # the oracle and sparse-traffic path.
        self._batch = batch
        if batch is not None:
            self._lane = batch.alloc_lane(config.thv, config.reg_size)
            batch.set_wall_exact(
                self._lane,
                self._unconstrained or float(self._budget).is_integer(),
            )
            self.engine = None
            self._gen = None
        else:
            self._lane = -1
            self.engine = QecoolEngine(
                lattice, thv=config.thv, reg_size=config.reg_size
            )
            # The resumable Controller: a finite clock freezes decodes
            # mid-sweep at the interval boundary; without a deadline
            # every decode runs on to IDLE.
            self._gen = self.engine.run(drain=False)

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

    def step(self, events_row: np.ndarray, empty: bool) -> str:
        """Consume round ``k``'s detection events on the scalar engine;
        decode under the clock.

        ``events_row`` is the round's detection-event layer, read from
        the row's event window by :func:`advance_streaming_round`
        (``empty`` flags an all-zero layer).  Returns the status
        ``"running"``/``"done"``/``"overflow"``; a correction the decode
        commits is applied to ``error`` here.  Shots on a batch-engine
        lane never come here: the round advances them in
        :func:`_advance_batch_rows`.
        """
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
                return "running"
            absorbed = engine.try_push_empty_idle()
            if absorbed:
                if not self._unconstrained:
                    block.wall[row] = max(
                        float(block.wall[row]), k * self._budget
                    )
                block.k[row] = k + 1
                return "running"
            if absorbed is False:
                self._overflow_outcome()
                return "overflow"
        if not engine.push_layer(events_row):
            self._overflow_outcome()
            return "overflow"
        # An unconstrained row keeps wall 0 (as on batch lanes): only a
        # finite clock does wall arithmetic, so nothing multiplies into
        # ``inf``.
        if self._unconstrained:
            wall, deadline = 0.0, math.inf
        else:
            wall = max(float(block.wall[row]), k * self._budget)
            deadline = (k + 1) * self._budget
        if final:
            engine.begin_drain()
            deadline = math.inf
        at_idle = True  # generator exhaustion (drain) parks clean too
        for chunk in self._gen:
            if chunk == IDLE:
                break
            wall += chunk
            if wall >= deadline:
                at_idle = False
                break
        if not self._unconstrained:
            block.wall[row] = wall
        block.at_idle[row] = at_idle
        block.k[row] = k + 1
        consumed = int(block.consumed[row])
        new_matches = engine.matches[consumed:]
        block.consumed[row] = len(engine.matches)
        if new_matches:
            self.error ^= correction_from_matches(self.lattice, new_matches)
        return "done" if final else "running"

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


class StreamingRoster:
    """The input of :func:`advance_streaming_round`: a fixed set of
    shots on one :class:`StreamingBlock`, with its per-round dispatch
    precomputed.

    Building the dispatch — the row gather index, the batch-engine
    lanes, the per-shot ``step`` list — takes a Python pass over the
    shots.  A roster caches that pass, so a caller advancing the same
    membership round after round pays it once per membership *change*
    rather than once per round.  Any membership change — admission,
    retirement, overflow — invalidates the roster; build a fresh one.

    Every shot must hold a row of the one block, and every lane-bound
    shot a lane of the one ``batch`` engine (lanes carry their own
    operating points, so one engine serves a whole block).
    """

    __slots__ = (
        "block", "shots", "rows", "batch", "batch_idx", "lanes", "object_idx",
    )

    def __init__(self, block: StreamingBlock, shots: Sequence) -> None:
        self.block = block
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
        # Shots bound to the batch engine advance together in one
        # vectorized step; everything else (scalar-engine online shots,
        # window shots) takes its per-shot ``step``.
        self.batch: QecoolEngineBatch | None = None
        batch_idx: list[int] = []
        object_idx: list[int] = []
        for i, shot in enumerate(self.shots):
            batch = getattr(shot, "_batch", None)
            if batch is None:
                object_idx.append(i)
                continue
            if self.batch is None:
                self.batch = batch
            elif batch is not self.batch:
                raise ValueError(
                    "every lane-bound shot must share one batch engine"
                )
            batch_idx.append(i)
        self.batch_idx = np.asarray(batch_idx, dtype=np.intp)
        self.lanes = np.fromiter(
            (self.shots[i]._lane for i in batch_idx), np.int64, len(batch_idx)
        )
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
) -> None:
    """One round's engine advance for every lane of the batch engine,
    with the session state vectorized over the shots' slab rows.

    A case-for-case mirror of the scalar :meth:`OnlineShot.step` —
    the two empty-layer fast entries, the slab push, the lock-step
    decode under each shot's own wall clock and interval deadline —
    with the wall/round/idle/consumed bookkeeping run as masked vector
    arithmetic on the block's session slabs (``finite`` masks every
    wall product so an unconstrained row never multiplies into
    ``inf``).  The only per-shot Python left on the running path is
    correction materialisation for lanes whose match list actually
    grew (XORed into the error rows), and outcome construction for
    shots that drop out.
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
        new_matches = batch.matches_of(int(pl[j]))[int(consumed[j]):]
        block.errors[int(rd[j])] ^= correction_from_matches(
            block.lattice, new_matches
        )
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
    roster: StreamingRoster, tracer=None
) -> tuple[list, list]:
    """Advance every shot of ``roster`` one measurement round, batched
    across shots.

    The micro-batching kernel: the round's detection events (each
    shot's own stream and rates — shots may sit at *different* round
    indices, carry different noise models, clocks and round budgets)
    are one gather from the rows' event windows, after one
    :func:`fill_windows` pass over every row whose cursor reached the
    end of its window (a new row's first window included), and *the
    per-session state bookkeeping* (round cursors, wall clocks, idle
    flags, consumed-match cursors) runs as vectorized passes over the
    roster's slab rows in ``roster.block``.  Membership is free to
    change between calls — build a new :class:`StreamingRoster`, as
    the decode service's scheduler does — and every shot's evolution
    is bit-identical to running it alone (``tests/test_online.py``,
    ``tests/test_service.py``).

    The roster's shots may mix any objects implementing the
    streaming-shot protocol (see :class:`StreamingShotState`): shots
    on a lane of the roster's batch engine advance together in
    :func:`_advance_batch_rows`, every other shot through its own
    ``step``.  Returns ``(running, finished)``; ``running`` preserves
    roster order and finished shots have ``outcome`` set.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`, or ``None`` — the
    default) times the round's three sections — noise gather,
    batch-lane advance, scalar advance — as spans.  Tracing only reads
    a clock; it never touches decode state, so traced and untraced
    rounds are bit-identical.
    """
    shots = roster.shots
    if not shots:
        return [], []
    block = roster.block
    if tracer is not None:
        t = tracer.clock()
    rows = roster.rows
    kk = block.k[rows]
    refill = np.flatnonzero((kk == block.win1[rows]) & (kk < block.rounds[rows]))
    if refill.size:
        fill_windows(
            block, [shots[i] for i in refill.tolist()], kk[refill].tolist()
        )
    events = block.events[rows, kk - block.win0[rows]]
    nonempty = events.any(axis=1)
    if tracer is not None:
        now = tracer.clock()
        tracer.add("round.noise_gather", t, now - t)
        t = now

    done: list = []
    finished: list = []
    batch = roster.batch
    if batch is not None:
        _advance_batch_rows(
            batch, block, shots, rows, kk, roster.batch_idx, roster.lanes,
            events, nonempty, done, finished,
        )
    if tracer is not None:
        now = tracer.clock()
        if batch is not None:
            tracer.add("round.batch_advance", t, now - t)
        t = now
    for i in roster.object_idx:
        shot = shots[i]
        status = shot.step(events[i], not nonempty[i])
        if status == "overflow":
            finished.append(shot)
        elif status == "done":
            done.append(shot)
    if tracer is not None and len(roster.object_idx):
        tracer.add("round.scalar_advance", t, tracer.clock() - t)
    if done:
        _finalize_done(block.lattice, done)
        finished.extend(done)
    if not finished:
        return list(shots), []
    drop = set(map(id, finished))
    return [s for s in shots if id(s) not in drop], finished


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
    (:class:`OnlineShot`), but the heavy lifting — noise sampling and
    event derivation per window, *the engine advance itself* per
    round — runs batched over the still-active shots: one
    :class:`~repro.core.engine_batch.QecoolEngineBatch` lane per shot,
    decoded in lock-step (chunks
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
        QecoolEngineBatch(lattice, capacity=len(rngs))
        if len(rngs) >= BATCH_ENGINE_CUTOFF
        else None
    )
    shots = [
        OnlineShot(lattice, noise, n_rounds, config, rng, block, batch=batch)
        for rng in rngs
    ]
    roster = StreamingRoster(block, shots)
    for _ in range(n_rounds + 1):
        running, finished = advance_streaming_round(roster)
        if finished:
            roster = StreamingRoster(block, running)
    return [shot.outcome for shot in shots]  # type: ignore[misc]
