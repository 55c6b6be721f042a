"""Cycle-level behavioural machine for the QECOOL architecture.

This is the decoder of Algorithm 1, modelled at the level the paper's
evaluation consumes: matching decisions (who pairs with whom) and
execution cycles per layer (Table III).  The machine simulates

- one **Unit** per ancilla with a ``Reg`` queue of detection events
  (a bitmask; bit ``b`` set = unmatched event ``b`` layers above the
  oldest stored measurement),
- **Row Masters** that skip token distribution over event-free rows,
- shared west/east **Boundary Units** that answer every spike request
  (half a cycle late, to lose ties against normal Units),
- the **Controller**'s row-major token scan with a growing timeout: in
  outer iteration ``C`` a sink only completes matches whose race winner
  needs at most ``C`` hops, so close pairs match before far ones — the
  greedy growing-radius policy.

Cycle accounting (see ``docs/DESIGN.md`` section 4):

==========================  =======================================
action                      cycles
==========================  =======================================
Row Master skips a row      1
token crosses an active row  ``cols`` (one per Unit hand-off)
sink matches at distance h  ``2 h + 2`` (request, spike in, syndrome
                            back, finish)
sink times out at budget C  ``2 C + 2``
layer pop (shift)           1 + one row scan (shift detection)
==========================  =======================================

Sweeps guaranteed to produce no matches (every live sink's winner needs
more hops than the current budget) are *accounted analytically* instead
of simulated unit-by-unit — bit-exact same cycles and matches, hundreds
of times faster.

The Unit state is **array-native** (see ``docs/DESIGN.md`` section 5):
one ``uint64`` Reg mask per ancilla in a flat numpy vector (with a
plain-int mirror for the scalar inner loops), per-lattice geometry
tables (pairwise Manhattan distances, arrival-port priorities, packed
boundary keys) cached once and shared across shots, and every race
candidate represented as a single ``int64`` **packed key** whose
integer order equals the race-resolution order of
:attr:`repro.core.spike.SpikeCandidate.key` (doubled arrival | port |
source depth | source index).  Whenever the live-sink x live-event
workload is big enough to amortise numpy dispatch, the winner race runs
through the kernels shared with the batch engine
(:mod:`repro.core.kernels`) on a one-lane view of the mask vector;
small workloads take an equivalent scalar scan.

A lazily-validated winner cache (packed keys) sits on top.  Matches
only ever *remove* candidates, so a cached winner stays optimal while
the event bit it races to survives — and when that bit is gone the
stale entry is still a **lower bound** on the new winner, which lets
the Controller charge timeouts and skip minimum recomputation without
resolving the race again.  Pushes invalidate selectively (a new event
must race in strictly faster to evict an entry); cache keys use
absolute depths, so pops need no reindexing (dead entries are purged
once they outnumber the live working set).  The ``uint64`` store caps
the Reg at 64 stored layers — far
above the paper's 7-bit hardware and every batch workload (``d + 1``
layers); exceeding it raises.

The engine is resumable: :meth:`QecoolEngine.run` is a generator that
yields the cycle cost of each atomic action, so the online simulator
(:mod:`repro.core.online`) can interleave decoding with measurement
arrivals under a finite clock.  The sentinel :data:`IDLE` is yielded when
nothing is matchable or poppable (the hardware would spin waiting for
the next measurement).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from repro.core import kernels
from repro.core.spike import (
    PRIORITY_EAST,
    PRIORITY_NORTH,
    PRIORITY_SOUTH,
    PRIORITY_WEST,
    boundary_spikes,
    port_table,
)
from repro.decoders.base import BOUNDARY_EAST, BOUNDARY_WEST, Match
from repro.surface_code.lattice import PlanarLattice

__all__ = ["IDLE", "MAX_LAYERS", "QecoolEngine"]

IDLE = -1
"""Yielded by :meth:`QecoolEngine.run` when the engine has nothing to do."""

MAX_LAYERS = 64
"""Reg depth ceiling of the ``uint64`` array state (paper hardware: 7)."""

_ONE = np.uint64(1)

# Packed-key sentinel: larger than any real candidate's packed key.
_NO_CANDIDATE = 2**62

# Below this many sink x live-event pairs the broadcast race costs more
# in numpy dispatch than it saves; an equivalent scalar scan runs
# instead.  Chosen empirically on the d=9 online operating point; any
# value is bit-exact (both paths implement the same total order).
_BULK_CUTOFF = 192


def _fast_match(kind: str, a: tuple, b: tuple | None, side: str | None) -> Match:
    """Construct a :class:`Match` without ``__init__``/``__post_init__``.

    The engine emits on the order of one Match per defect pair per shot;
    skipping the frozen-dataclass ceremony (four guarded ``__setattr__``
    calls plus validation that the packed winner key already guarantees)
    is a measurable win.  Field-wise identical to ``Match(kind, a, b,
    side)`` for every combination the engine produces.
    """
    match = Match.__new__(Match)
    d = match.__dict__
    d["kind"] = kind
    d["a"] = a
    d["b"] = b
    d["side"] = side
    return match


@lru_cache(maxsize=None)
def _packed_boundaries(lattice: PlanarLattice) -> tuple[int, ...]:
    """Packed race keys of every ancilla's nearest-Boundary-Unit spike.

    Cached per lattice (``PlanarLattice`` hashes by ``d``), shared by
    every engine on every shot.
    """
    radix = lattice.n_ancillas + 1
    # arrival is dist + 0.5, so the doubled arrival digit is odd —
    # boundary keys can never tie a pair or vertical key.
    return tuple(
        (int(cand.arrival * 2) * 8 + cand.port) * 128 * radix
        for cand in boundary_spikes(lattice)
    )


@lru_cache(maxsize=None)
def _packed_boundaries_arr(lattice: PlanarLattice) -> np.ndarray:
    """:func:`_packed_boundaries` as a read-only int64 vector."""
    arr = np.asarray(_packed_boundaries(lattice), dtype=np.int64)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _depth_key_table(lattice: PlanarLattice) -> np.ndarray:
    """Packed-key contribution of a source depth, indexed by ``t_rel``.

    ``table[t] = t * (2048 + 1) * radix`` — the source depth raises the
    doubled-arrival digit and fills the depth digit.  Index 64 (the
    lowest-set-bit result of an empty shifted mask) holds the
    no-candidate sentinel, so empty Units fall out of the race without
    a masking pass.  Cached per lattice, read-only, int64.
    """
    radix = lattice.n_ancillas + 1
    table = np.arange(MAX_LAYERS + 1, dtype=np.int64) * (2049 * radix)
    table[MAX_LAYERS] = _NO_CANDIDATE
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _pair_base_table(lattice: PlanarLattice) -> np.ndarray:
    """Depth-independent part of every pair candidate's packed key.

    ``base[sink, source] = (dist * 16 + port) * 128 * radix + source + 1``
    — the full packed key is ``base + t_rel * (2048 * radix + radix)``
    (the source depth raises both the arrival digit and the depth
    digit).  The diagonal holds the no-candidate sentinel: a Unit never
    pairs with itself (its own later events race as vertical
    candidates).  Cached per lattice, read-only, int64.
    """
    radix = lattice.n_ancillas + 1
    dist = lattice.pairwise_manhattan.astype(np.int64)
    ports = port_table(lattice).astype(np.int64)
    base = (dist * 16 + ports) * (128 * radix) + (
        np.arange(lattice.n_ancillas, dtype=np.int64)[None, :] + 1
    )
    np.fill_diagonal(base, _NO_CANDIDATE)
    base.setflags(write=False)
    return base


@lru_cache(maxsize=None)
def _kernel_geometry(lattice: PlanarLattice) -> kernels.Geometry:
    """The race-geometry bundle every kernel call receives.

    Cached per lattice (the tables themselves already are); shared by
    the scalar and batch engines.
    """
    radix = lattice.n_ancillas + 1
    return kernels.Geometry(
        pair_base=_pair_base_table(lattice),
        depth_lut=_depth_key_table(lattice),
        bpacked=_packed_boundaries_arr(lattice),
        bpacked_t=_packed_boundaries(lattice),
        radix=radix,
        hops_div=1024 * radix,
    )


def _stall_limit(lattice: PlanarLattice, reg_size: int | None) -> int:
    """Sweeps in a row without a match or pop after which a Controller
    is declared stuck (a policy bug, never a decode outcome)."""
    depth = reg_size if reg_size is not None else lattice.d + 1
    return lattice.rows + lattice.cols + 2 * depth + 6


class QecoolEngine:
    """The QECOOL decoding machine for one logical-qubit sector.

    Parameters
    ----------
    lattice:
        Geometry (Unit grid shape, boundary distances, correction paths).
    thv:
        Vertical look-ahead threshold: a base layer ``b`` is only
        decodable once ``m - b > thv`` measurements are stored.  ``-1``
        disables the wait (batch-QECOOL / 2-D); the paper's online
        configuration uses 3.
    reg_size:
        ``Reg`` capacity in bits; ``None`` means unbounded (batch).  The
        paper's hardware uses 7.  Pushing a layer when full signals
        overflow (the trial fails).  The array state caps even the
        unbounded Reg at :data:`MAX_LAYERS` stored layers.

    The Controller's hop budget grows without a cap: every sink's
    boundary candidate bounds its winner, so a sweep at that many hops
    always matches.
    """

    def __init__(
        self,
        lattice: PlanarLattice,
        thv: int = -1,
        reg_size: int | None = None,
    ):
        if thv < -1:
            raise ValueError(f"thv must be >= -1, got {thv}")
        if reg_size is not None and reg_size < 1:
            raise ValueError(f"reg_size must be >= 1, got {reg_size}")
        if reg_size is not None and reg_size > MAX_LAYERS:
            raise ValueError(
                f"reg_size must be <= {MAX_LAYERS} (uint64 array state),"
                f" got {reg_size}"
            )
        self.lattice = lattice
        self.thv = thv
        self.reg_size = reg_size
        self._stall_limit = _stall_limit(lattice, reg_size)
        # Unit state: one uint64 event bitmask per ancilla (flat
        # row-major index) in a numpy vector — the canonical store for
        # every vectorized pass — mirrored into plain ints for the
        # scalar inner loops, plus the set of live (event-holding)
        # Units, per-row occupancy counts, and a lazily-validated cache
        # of packed race-winner keys (see docs/DESIGN.md section 5).
        # ``_slab`` is the one-lane (1, N) view the kernels race on.
        self._masks = np.zeros(lattice.n_ancillas, dtype=np.uint64)
        self._slab = self._masks[None]
        self._mask_ints: list[int] = [0] * lattice.n_ancillas
        self._live: set[int] = set()
        self._l0 = 0  # Units with a layer-0 event (shift-detection count)
        self.m = 0  # layers currently stored
        self.popped = 0  # layers shifted out so far (absolute-time offset)
        self._row_counts: list[int] = [0] * lattice.rows
        self._winner_cache: dict[tuple[int, int], int] = {}
        # Geometry tables, cached per lattice and shared across shots.
        self._bpacked = _packed_boundaries(lattice)
        self._pair_base = _pair_base_table(lattice)
        self._radix = lattice.n_ancillas + 1  # packed-key source digit
        self._geo = _kernel_geometry(lattice)
        # Accounting.
        self.cycles = 0
        self._cycles_at_last_pop = 0
        self.layer_cycles: list[int] = []
        self.matches: list[Match] = []
        self._drain = False
        # Optional repro.obs.trace.Tracer; None (the default) keeps the
        # decode loop entirely untimed.
        self.tracer = None

    # ------------------------------------------------------------------
    # Measurement interface
    # ------------------------------------------------------------------
    @property
    def masks(self) -> list[int]:
        """Unit Reg bitmasks as plain ints (row-major view of the
        ``uint64`` array state; do not mutate)."""
        return list(self._mask_ints)

    def push_layer(self, events_row: np.ndarray) -> bool:
        """Store one layer of detection events at the back of every Reg.

        Returns ``False`` on overflow (Reg full) — the paper counts the
        trial as a failure.  The layer is *not* stored in that case.
        """
        if self.reg_size is not None and self.m >= self.reg_size:
            return False
        if self.m >= MAX_LAYERS:
            raise ValueError(
                f"array engine stores at most {MAX_LAYERS} layers; pop or"
                " drain before pushing more"
            )
        if type(events_row) is not np.ndarray or events_row.dtype != np.uint8:
            events_row = np.asarray(events_row, dtype=np.uint8)
        if events_row.shape != (self.lattice.n_ancillas,):
            raise ValueError(
                f"events_row must have shape ({self.lattice.n_ancillas},),"
                f" got {events_row.shape}"
            )
        bit = 1 << self.m
        pushed = np.flatnonzero(events_row)
        pushed_list = pushed.tolist()
        if pushed_list:
            mask_ints = self._mask_ints
            cols = self.lattice.cols
            for a in pushed_list:
                old = mask_ints[a]
                if not old:
                    self._live.add(a)
                    self._row_counts[a // cols] += 1
                mask_ints[a] = old | bit
            self._masks[pushed] |= np.uint64(bit)
            if bit == 1:  # pushing layer 0: the Reg was empty
                self._l0 += len(pushed_list)
        t_new = self.m
        self.m += 1
        # Selective cache invalidation: a cached winner is only beaten if
        # one of the *new* events races in faster (exact key comparison;
        # a new event in a Unit with an earlier event at/above the base
        # can never beat the already-considered earlier one).
        if pushed_list and self._winner_cache:
            self._invalidate_after_push(pushed, pushed_list, t_new)
        return True

    def _invalidate_after_push(
        self, pushed: np.ndarray, pushed_list: list[int], t_new: int
    ) -> None:
        """Drop cached winners that a just-pushed event would outrace.

        Compares packed candidate keys — bit-equivalent to rebuilding
        each candidate and comparing ``cand.key < win.key`` tuples.  One
        :func:`repro.core.kernels.push_beats` broadcast over (cache
        entries) x (new events) when the workload is large; a scalar
        scan below the cutoff.
        """
        cache = self._winner_cache
        radix = self._radix
        hops_div = 1024 * self._radix
        t_new_abs = self.popped + t_new
        if len(cache) * len(pushed_list) < _BULK_CUTOFF:
            pair_base = self._pair_base
            depth_step = 2049 * radix
            stale_keys = []
            for (idx, b_abs), win_packed in cache.items():
                t_rel = t_new_abs - b_abs  # >= 1: cached bases sit below the new layer
                if win_packed // hops_div >> 1 < t_rel:
                    # A new event races in no faster than its depth;
                    # winners already beating that depth are safe.
                    continue
                # The vertical key (own Unit) is the depth term alone.
                depth = t_rel * depth_step
                for a in pushed_list:
                    cand = depth if a == idx else int(pair_base[idx, a]) + depth
                    if cand < win_packed:
                        stale_keys.append((idx, b_abs))
                        break
            for key in stale_keys:
                del cache[key]
            return
        keys = list(cache)
        n_entries = len(keys)
        sink_idx = np.fromiter((k[0] for k in keys), np.int64, n_entries)
        bs = np.fromiter((k[1] for k in keys), np.int64, n_entries)
        win_packed = np.fromiter(cache.values(), np.int64, n_entries)
        t_rel = t_new_abs - bs
        # A new event races in no faster than its depth below the new
        # layer, so only winners needing at least that many hops can be
        # beaten — the broadcast runs over that subset alone.
        beatable = (win_packed // hops_div >> 1) >= t_rel
        if not beatable.any():
            return
        rows = np.flatnonzero(beatable)
        stale = kernels.push_beats(
            sink_idx[rows, None], pushed[None, :], t_rel[rows, None],
            win_packed[rows, None], self._geo,
        ).any(axis=1)
        for i in rows[stale].tolist():
            del cache[keys[i]]

    def begin_drain(self) -> None:
        """Lift the ``thv`` wait: measurements have ended, decode all
        remaining layers (end-of-experiment flush)."""
        self._drain = True

    def idle_layer_fast(self) -> int:
        """Absorb one *empty* measurement layer while empty and idle.

        Session-granular fast entry for streaming callers: when the
        engine holds no events, stores no layers, and its Controller is
        parked at IDLE (or a fresh :meth:`run` generator / the sync
        path), pushing an all-zero layer and running back to IDLE is a
        fixed state delta — the layer is popped immediately (``1`` shift
        cycle plus a ``1``-cycle Row-Master skip per row) and the survey
        finds no sinks.  This method applies that delta directly —
        ``popped``, ``cycles`` and ``layer_cycles`` advance exactly as
        the simulated path would — and returns the charged cost (the
        caller's wall clock still pays it).  Callers must NOT also call
        :meth:`push_layer` for the layer.  Raises if the engine is not
        in the empty-idle state (the caller's dispatch is wrong).
        """
        if self._live or self.m or self._drain:
            raise RuntimeError(
                "idle_layer_fast requires an empty, non-draining engine"
            )
        cost = self._charge(1 + self.lattice.rows)
        self.popped += 1
        # Mirror _pop's dead-entry purge so cache growth stays bounded
        # on long-running sessions regardless of which path their empty
        # rounds take (contents are a performance detail, never
        # observable in matches or cycle accounting).
        if len(self._winner_cache) > 32:
            cutoff = self.popped
            self._winner_cache = {
                k: v for k, v in self._winner_cache.items() if k[1] >= cutoff
            }
        self.layer_cycles.append(self.cycles - self._cycles_at_last_pop)
        self._cycles_at_last_pop = self.cycles
        return cost

    def try_push_empty_idle(self) -> bool | None:
        """Try to absorb an *empty* layer while parked at IDLE with
        events still waiting on the ``thv`` look-ahead.

        Companion fast entry to :meth:`idle_layer_fast` for the other
        common streaming case: the engine holds events (``m > 0``) but
        was parked at IDLE — no decodable sink — and the new layer is
        all zeros.  Pushing it changes nothing except ``m`` *unless*
        the one newly-exposed base depth (``b_max`` grows by one with
        ``m``) holds an event; layer 0 stays occupied (else IDLE would
        have popped it), so no shift fires, no sweep runs, no cycles
        are charged.  Returns ``True`` when the layer was absorbed
        (state delta: ``m += 1``), ``False`` on Reg overflow (the layer
        is *not* stored — the paper fails the trial), and ``None`` when
        the push would expose a decodable sink and the caller must take
        the simulated path instead.
        """
        if self._drain:
            return None
        if self.reg_size is not None and self.m >= self.reg_size:
            return False
        if self.m >= MAX_LAYERS:
            raise ValueError(
                f"array engine stores at most {MAX_LAYERS} layers; pop or"
                " drain before pushing more"
            )
        if self.thv >= 0:
            # After the push, b_max = (m + 1) - thv - 1 = m - thv; depths
            # at or below the old b_max were sink-free at IDLE, so only
            # the newly-exposed depth needs checking.
            exposed = self.m - self.thv
            if exposed >= 0:
                bit = 1 << exposed
                mask_ints = self._mask_ints
                for a in self._live:
                    if mask_ints[a] & bit:
                        return None
        # thv < 0 exposes depth m, beyond any stored event: always clear.
        self.m += 1
        return True

    @property
    def defects_remaining(self) -> int:
        """Unmatched detection events currently stored."""
        return int(np.bitwise_count(self._masks).sum())

    # ------------------------------------------------------------------
    # Controller
    # ------------------------------------------------------------------
    def run(self, drain: bool = False) -> Iterator[int]:
        """The Controller loop, as a generator of per-action cycle costs.

        With ``drain=True`` the generator terminates once every stored
        event is matched and every layer popped (batch decoding).  With
        ``drain=False`` it runs forever, yielding :data:`IDLE` whenever
        nothing is matchable or poppable — the caller then feeds more
        layers via :meth:`push_layer` (online decoding; call
        :meth:`begin_drain` to flush at the end).
        """
        if drain:
            self._drain = True
        budget = 1  # the Controller's growing hop budget, C in Algorithm 1
        stall_guard = 0
        while True:
            progressed = False
            # Shift detection: pop while the oldest layer is clear.
            while self.m > 0 and not self._layer0_occupied():
                yield self._pop()
                budget = 1  # `goto start loop` after SHIFTREG
                progressed = True
            if self._drain and self.m == 0:
                return
            b_max = self._b_max()
            n_sinks, need = self._survey(b_max)
            if not n_sinks:
                if self._drain and self.m > 0 and self.defects_remaining == 0:
                    # Only empty layers above a non-empty layer 0 cannot
                    # happen: layer 0 occupied implies a defect exists.
                    raise RuntimeError("drain stalled with no defects but layers left")
                yield IDLE
                budget = 1
                continue
            if need > budget:
                # Analytically account the fruitless sweeps in between.
                for cl in range(budget, need):
                    yield self._sweep_overhead(b_max) + n_sinks * (2 * cl + 2)
                budget = need
            # One real sweep at the current budget.
            matched, popped_mid_sweep = yield from self._sweep(budget, b_max)
            progressed = progressed or matched or popped_mid_sweep
            if popped_mid_sweep:
                budget = 1  # `goto start loop` after SHIFTREG
            else:
                budget += 1
            if progressed:
                stall_guard = 0
            else:
                stall_guard += 1
                if stall_guard > self._stall_limit:
                    raise RuntimeError(
                        "QECOOL engine made no progress over a full budget"
                        " cycle — matching policy bug"
                    )

    def decode_loaded(self) -> None:
        """Drain synchronously (batch decoding helper): run the Controller
        to completion, discarding the cycle stream (totals are still
        accumulated on the instance)."""
        self.run_to_idle(drain=True)

    def run_to_idle(self, drain: bool = False) -> None:
        """Advance the Controller until it has nothing to do.

        Consumes a fresh :meth:`run` generator up to its first
        :data:`IDLE` (or, with ``drain=True``, until it returns once
        every layer is popped); the cycle stream is discarded (totals
        still accumulate on the instance).  A fresh generator restarts
        at budget 1, which is exactly the Controller's post-IDLE state,
        so this is valid whenever the caller imposes no cycle deadline.
        Never mix with a partially-consumed :meth:`run` generator on
        the same engine.
        """
        tracer = self.tracer
        t = tracer.clock() if tracer is not None else 0.0
        try:
            for chunk in self.run(drain):
                if chunk == IDLE:
                    break
        finally:
            if tracer is not None:
                tracer.add("engine.run_to_idle", t, tracer.clock() - t)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _b_max(self) -> int:
        """Largest decodable base depth (inclusive); -1 when none."""
        if self._drain or self.thv < 0:
            return self.m - 1
        return min(self.m - 1, self.m - self.thv - 1)

    def _layer0_occupied(self) -> bool:
        return self._l0 > 0

    def _clear_bit(self, idx: int, t: int) -> None:
        """Clear one event bit, keeping the mirror, live set, layer-0
        count and row occupancy counts in sync (matches only ever
        *clear* bits that are set)."""
        new = self._mask_ints[idx] & ~(1 << t)
        self._mask_ints[idx] = new
        self._masks[idx] = new
        if t == 0:
            self._l0 -= 1
        if not new:
            self._live.discard(idx)
            self._row_counts[idx // self.lattice.cols] -= 1

    # ------------------------------------------------------------------
    # The winner race, on packed keys.
    #
    # A packed key is ((2 * arrival) * 8 + port) * 128 * radix +
    # t_rel * radix + src1, with src1 = flat source index + 1 (0 for
    # vertical/boundary candidates) and radix = n_ancillas + 1: integer
    # order equals the race-resolution order of SpikeCandidate.key, and
    # every field is recoverable (kind included: src1 > 0 is a pair,
    # src1 == 0 with t_rel > 0 vertical, with t_rel == 0 boundary).
    # The hop count is the top digit halved — exact for pairs/verticals
    # (even doubled arrival) and for boundaries (odd doubled arrival
    # floors back to the distance).
    # ------------------------------------------------------------------
    def _survey(self, b_max: int) -> tuple[int, int]:
        """One pass over the live sinks: count them and find the
        smallest winner hop count, priming the winner cache for the
        sweep that follows.  Returns ``(n_sinks, need)``.

        Stale cache entries are lower bounds (matches only remove
        candidates), so a stale winner that already needs at least as
        many hops as the running minimum cannot lower it — its race is
        left unresolved.  Sinks that might beat the minimum are
        recomputed, scalar below the broadcast cutoff.  Sink scan order
        is irrelevant here — ``need`` is a minimum and the cache primes
        identically either way (winner lookups have no side effects on
        the event state) — so the live set is walked directly.
        """
        if b_max < 0:
            return 0, 0
        cache = self._winner_cache
        mask_ints = self._mask_ints
        popped = self.popped
        hops_div = 1024 * self._radix
        cutoff = (1 << (b_max + 1)) - 1
        need = 1 << 30
        n_sinks = 0
        missing: list[tuple[int, int]] = []
        stale: list[tuple[int, int, int]] = []
        for idx in self._live:
            low = mask_ints[idx] & cutoff
            while low:
                lsb = low & -low
                low ^= lsb
                b = lsb.bit_length() - 1
                n_sinks += 1
                win = cache.get((idx, popped + b))
                if win is None:
                    missing.append((b, idx))
                    continue
                hops = win // hops_div >> 1
                if hops >= need or self._packed_still_valid(win, idx, b):
                    # Valid: a real hop count. Stale at >= need: a lower
                    # bound that cannot improve the minimum.
                    if hops < need:
                        need = hops
                else:
                    stale.append((hops, b, idx))
        if stale:
            # Cheapest lower bounds first, so later entries can be
            # skipped once the running minimum undercuts them.
            stale.sort()
            for hops, b, idx in stale:
                if hops >= need:
                    break
                win = self._winner_for(idx, b)
                cache[(idx, popped + b)] = win
                hops = win // hops_div >> 1
                if hops < need:
                    need = hops
        if missing:
            if len(missing) * len(self._live) < _BULK_CUTOFF:
                for b, idx in missing:
                    win = self._winner_for(idx, b)
                    cache[(idx, popped + b)] = win
                    hops = win // hops_div >> 1
                    if hops < need:
                        need = hops
            else:
                for win in self._winners_bulk(missing):
                    hops = win // hops_div >> 1
                    if hops < need:
                        need = hops
        return n_sinks, need

    def _winner_for(self, idx: int, b: int) -> int:
        """One sink's packed winner, by whichever of the scalar scan and
        the single-row kernel race is cheaper for the current live count."""
        if len(self._live) >= 12:
            return kernels._race_one(self._slab, 0, idx, b, self._geo)
        return self._winner_scalar(idx, b)

    def _winners_bulk(self, sinks: list[tuple[int, int]]) -> list[int]:
        """Packed race winners for many ``(base, sink)`` requests in one
        :func:`repro.core.kernels.race` pass on the one-lane slab;
        stored in the cache and returned in request order."""
        n = len(sinks)
        b_arr = np.fromiter((b for b, _ in sinks), np.int64, n)
        sink_arr = np.fromiter((idx for _, idx in sinks), np.int64, n)
        best = kernels.race(
            self._slab, np.zeros(n, dtype=np.int64), sink_arr, b_arr, self._geo
        ).tolist()
        cache = self._winner_cache
        popped = self.popped
        for (b, idx), win in zip(sinks, best):
            cache[(idx, popped + b)] = win
        return best

    def _winner_scalar(self, idx: int, b: int) -> int:
        """Packed race winner for one sink via a scalar scan over live
        Units — the same total order the broadcast pass reduces."""
        radix = self._radix
        cols = self.lattice.cols
        mask_ints = self._mask_ints
        best = self._bpacked[idx]
        best_arr2 = best // (1024 * radix)  # doubled-arrival digit
        higher = mask_ints[idx] >> (b + 1)
        if higher:
            t = (higher & -higher).bit_length()
            cand = (t * 16 * 128 + t) * radix
            if cand < best:
                best = cand
                best_arr2 = 2 * t
        r, c = divmod(idx, cols)
        for a in self._live:
            if a == idx:
                continue
            rest = mask_ints[a] >> b
            if not rest:
                continue
            t_rel = (rest & -rest).bit_length() - 1
            r2, c2 = divmod(a, cols)
            arrival2 = 2 * (t_rel + abs(r2 - r) + abs(c2 - c))
            if arrival2 > best_arr2:
                continue
            if c2 > c:
                port = PRIORITY_EAST
            elif c2 < c:
                port = PRIORITY_WEST
            elif r2 < r:
                port = PRIORITY_NORTH
            else:
                port = PRIORITY_SOUTH
            cand = ((arrival2 * 8 + port) * 128 + t_rel) * radix + a + 1
            if cand < best:
                best = cand
                best_arr2 = arrival2
        return best

    def _packed_still_valid(self, packed: int, idx: int, b: int) -> bool:
        """A cached winner stays optimal as long as the exact event bit
        it races to is still present (boundary spikes always are)."""
        radix = self._radix
        src1 = packed % radix
        t_rel = packed // radix % 128
        if src1:
            unit = src1 - 1  # pair: the source Unit's event
        elif t_rel:
            unit = idx  # vertical: the sink's own later event
        else:
            return True  # boundary
        return bool((self._mask_ints[unit] >> (b + t_rel)) & 1)

    def _row_active(self, r: int) -> bool:
        """Row Master check: does any Unit in row ``r`` hold an event?"""
        return self._row_counts[r] > 0

    def _sweep_overhead(self, b_max: int) -> int:
        """Token-distribution cycles of one full sweep (no sink waits)."""
        cols = self.lattice.cols
        per_row = sum(cols if count else 1 for count in self._row_counts)
        return (b_max + 1) * per_row

    def _sweep(self, budget: int, b_max: int) -> Iterator[int]:
        """One real Controller sweep at hop ``budget``.

        Yields per-action cycle costs; generator-returns
        ``(matched, popped)``.  The shift check runs after every
        base-depth sub-sweep, as in Algorithm 1 (Controller lines
        18-22); a shift aborts the sweep so the Controller can restart
        with budget 1.

        Sinks at each base are gathered up front; each is re-checked
        against the live mask when the token reaches it, because an
        earlier match in the same sweep may have consumed it as a
        source (bits are only ever cleared, so the precomputed list is
        a superset of the true scan).  A sink whose cached winner went
        stale needs no recomputation when its stale hop count already
        exceeds the budget: the stale key is a lower bound, so the true
        winner times out just the same.
        """
        matched = False
        lattice = self.lattice
        cols = lattice.cols
        mask_ints = self._mask_ints
        row_counts = self._row_counts
        cache = self._winner_cache
        popped = self.popped
        hops_div = 1024 * self._radix
        timeout_cost = 2 * budget + 2
        for b in range(b_max + 1):
            bit = 1 << b
            live = self._live
            if len(live) > 48:
                hits = np.flatnonzero(
                    (self._masks >> np.uint64(b)) & _ONE
                ).tolist()
            else:
                hits = sorted(a for a in live if mask_ints[a] & bit)
            n_hits = len(hits)
            pos = 0
            any_match_this_b = False
            for r in range(lattice.rows):
                row_end = (r + 1) * cols
                if not row_counts[r]:
                    while pos < n_hits and hits[pos] < row_end:
                        pos += 1
                    self.cycles += 1
                    yield 1
                    continue
                self.cycles += cols
                yield cols
                while pos < n_hits and hits[pos] < row_end:
                    idx = hits[pos]
                    pos += 1
                    if not mask_ints[idx] & bit:
                        continue  # consumed as a source earlier this sweep
                    win = cache.get((idx, popped + b))
                    if win is not None:
                        hops = win // hops_div >> 1
                        if hops > budget:
                            # Lower bound beyond the budget — timeout
                            # whether or not the entry is still valid.
                            self.cycles += timeout_cost
                            yield timeout_cost
                            continue
                        if not self._packed_still_valid(win, idx, b):
                            win = self._winner_for(idx, b)
                            cache[(idx, popped + b)] = win
                            hops = win // hops_div >> 1
                    else:
                        win = self._winner_for(idx, b)
                        cache[(idx, popped + b)] = win
                        hops = win // hops_div >> 1
                    if hops <= budget:
                        boundary = self._apply(win, idx, b)
                        matched = True
                        any_match_this_b = True
                        if boundary:
                            # Boundary Units send no "Finish": the
                            # Controller waits out the full timeout.
                            cost = timeout_cost
                        else:
                            cost = 2 * hops + 2
                        self.cycles += cost
                        yield cost
                    else:
                        self.cycles += timeout_cost
                        yield timeout_cost
            if any_match_this_b and self.m > 0 and not self._layer0_occupied():
                yield self._pop()
                return matched, True
        return matched, False

    def _apply(self, packed: int, idx: int, b: int) -> bool:
        """Commit a match from its packed winner key: clear the consumed
        events, record the Match.  Returns True for boundary matches
        (whose Controller wait differs).

        Matches are built through :func:`_fast_match`, skipping the
        dataclass ``__init__`` — the packed key guarantees a valid
        combination, and equality/hash read the fields directly.
        """
        radix = self._radix
        cols = self.lattice.cols
        src1 = packed % radix
        t_rel = packed // radix % 128
        self._clear_bit(idx, b)
        r, c = divmod(idx, cols)
        t_abs = self.popped + b
        if src1:
            r2, c2 = divmod(src1 - 1, cols)
            t2 = b + t_rel
            self._clear_bit(src1 - 1, t2)
            self.matches.append(
                _fast_match("pair", (r, c, t_abs), (r2, c2, self.popped + t2), None)
            )
            return False
        if t_rel:
            t2 = b + t_rel
            self._clear_bit(idx, t2)
            self.matches.append(
                _fast_match("pair", (r, c, t_abs), (r, c, self.popped + t2), None)
            )
            return False
        port = packed // (128 * radix) % 8
        side = BOUNDARY_WEST if port == PRIORITY_WEST else BOUNDARY_EAST
        self.matches.append(_fast_match("boundary", (r, c, t_abs), None, side))
        return True

    def _pop(self) -> int:
        """Shift every Reg down one layer; record per-layer cycles."""
        mask_ints = self._mask_ints
        cols = self.lattice.cols
        live = self._live
        dying = [a for a in live if mask_ints[a] == 1]
        for a in live:
            mask_ints[a] >>= 1
        for a in dying:
            live.discard(a)
            self._row_counts[a // cols] -= 1
        self._l0 = sum(1 for a in live if mask_ints[a] & 1)
        np.right_shift(self._masks, _ONE, out=self._masks)
        self.m -= 1
        self.popped += 1
        # The winner cache is keyed by *absolute* depth (popped + b), so
        # a shift needs no reindexing; entries for popped-away depths go
        # dead silently (never looked up).  They are purged once they
        # outnumber the plausibly-live entries, so push invalidation
        # scans stay proportional to the real working set and
        # long-running online sessions stay bounded.
        if len(self._winner_cache) > 4 * max(8, len(self._live)):
            cutoff = self.popped
            self._winner_cache = {
                k: v for k, v in self._winner_cache.items() if k[1] >= cutoff
            }
        # Shift detection scans the rows once, plus the shift itself.
        cost = self._charge(
            1 + sum(cols if count else 1 for count in self._row_counts)
        )
        self.layer_cycles.append(self.cycles - self._cycles_at_last_pop)
        self._cycles_at_last_pop = self.cycles
        return cost

    def _charge(self, cost: int) -> int:
        """Advance the busy-cycle clock and return the cost."""
        self.cycles += cost
        return cost
