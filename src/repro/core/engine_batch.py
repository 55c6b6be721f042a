"""Shot-major batched QECOOL engine: one state slab, lane-parallel sweeps.

:class:`QecoolEngineBatch` simulates many independent :class:`
~repro.core.engine.QecoolEngine` machines ("lanes") of one shape
``(lattice, thv, reg_size, nlimit)`` at once.  All Unit state lives in
shot-major slabs — ``(S, N)`` uint64 Reg masks, ``(S,)`` clock/layer
registers, ``(S, rows)`` row-occupancy counts, an ``(S, N, L)``
packed-key winner slab — and the Controller phases (shift-detection
pops, the sink survey, analytic budget growth, token sweeps) advance
**every live lane in lock-step** as whole-batch numpy passes, with
per-lane divergence handled by boolean lane masks: idle, retired and
deadline-suspended lanes simply drop out of the index vectors instead
of being looped over.

Bit-identity contract (see ``tests/README.md``): every lane reproduces
the scalar engine's observable stream exactly — matches (objects and
order), per-layer cycle accounting, total cycles, overflow refusals,
and, under a finite decoder clock, the exact action boundary where the
decode freezes at the interval deadline.  The contract is kept by three
rules:

- **Race keys are shared.**  Winner races use the scalar engine's
  packed-int64 keys and per-lattice geometry tables verbatim, evaluated
  in bulk over flattened ``(lane, sink, base)`` triples.
- **Charges are lumped only when provably safe.**  A sub-sweep whose
  hits all time out charges a closed-form lump (row tokens plus
  ``n_hits`` timeouts).  The lump is applied only when the lane cannot
  cross its deadline inside it *and* its wall clock is integer-valued
  (every supported operating point: cycle budgets like 2 GHz x 1 us are
  integer floats, so lumped float adds are exact).  Otherwise the lane
  takes the exact per-action walk.
- **Divergent lanes fall back to the exact walk.**  A lane whose
  sub-sweep can match (or cross its deadline, or carries a non-integer
  wall) is walked action by action by :meth:`_walk_level` — the scalar
  ``_sweep`` body operating on slab state — and a lane suspended
  mid-sweep resumes through :meth:`_resume_lane` with its frozen
  ``(budget, b_max, hits, position)`` cursor, exactly like the scalar
  generator would.

The winner slab mirrors the scalar engine's lazily-validated cache:
entries are raced on demand, validated at use by checking that the
event bit they race to still exists, evicted in bulk when a pushed
event would out-race them, and shifted (never reindexed) on pops.
Cache contents are a performance detail — never observable in matches
or cycle accounting — which is what lets the slab organisation differ
from the scalar dict while the decisions stay identical.

MIRROR: the Controller logic here must stay in lock-step with
``QecoolEngine.run`` / ``run_to_idle`` / ``_sweep`` / ``_sweep_sync``
(the equivalence suites and golden pins police it).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.engine import (
    MAX_LAYERS,
    _fast_match,
    _kernel_geometry,
    QecoolEngine,
)
from repro.core import kernels
from repro.core.spike import PRIORITY_WEST, port_table
from repro.decoders.base import BOUNDARY_EAST, BOUNDARY_WEST
from repro.surface_code.lattice import PlanarLattice

__all__ = ["LANE_PARKED", "LANE_RETIRED", "LANE_SUSPENDED", "QecoolEngineBatch"]

_ONE = np.uint64(1)
_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)

LANE_PARKED = 0
"""Decode reached IDLE: nothing matchable or poppable until more layers."""

LANE_SUSPENDED = 1
"""Decode crossed the lane's deadline mid-stream; resumes next round."""

LANE_RETIRED = 2
"""Drain complete: every stored layer popped (the trial's decode ended)."""


class QecoolEngineBatch:
    """Lane-parallel QECOOL machines of one ``(lattice, thv, reg_size)``.

    Lanes are claimed with :meth:`alloc_lane` and returned with
    :meth:`free_lane`; a freed lane is reset and may be reused by a
    later admission (the decode service's lane allocator does exactly
    that).  All lanes share the engine shape; per-lane clocks and round
    budgets are the caller's business — :meth:`decode` takes per-lane
    wall/deadline vectors and charges them action by action.
    """

    def __init__(
        self,
        lattice: PlanarLattice,
        thv: int = -1,
        reg_size: int | None = None,
        nlimit: int | None = None,
        capacity: int = 8,
    ):
        if thv < -1:
            raise ValueError(f"thv must be >= -1, got {thv}")
        if reg_size is not None and not 1 <= reg_size <= MAX_LAYERS:
            raise ValueError(
                f"reg_size must be in [1, {MAX_LAYERS}], got {reg_size}"
            )
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.lattice = lattice
        self.thv = thv
        self.reg_size = reg_size
        self._depth_hint = reg_size if reg_size is not None else lattice.d + 1
        self.nlimit = (
            nlimit
            if nlimit is not None
            else lattice.rows + lattice.cols + self._depth_hint + 2
        )
        self._stall_limit = self.nlimit + self._depth_hint + 4
        # Geometry tables, shared with the scalar engine's caches.
        self._dist = lattice.pairwise_manhattan
        self._ports = port_table(lattice)
        self._radix = lattice.n_ancillas + 1
        self._hops_div = 1024 * self._radix
        self._geo = _kernel_geometry(lattice)
        # Optional repro.obs.trace.Tracer; None (the default) keeps
        # decode() entirely untimed.
        self.tracer = None
        self.capacity = 0
        self._n_depths = min(MAX_LAYERS, self._depth_hint + 2)
        self._alloc_slabs(capacity)
        self._free: list[int] = list(range(capacity - 1, -1, -1))

    # ------------------------------------------------------------------
    # Slabs and lane lifecycle
    # ------------------------------------------------------------------
    def _alloc_slabs(self, capacity: int) -> None:
        lattice = self.lattice
        old = self.capacity
        n, rows, nd = lattice.n_ancillas, lattice.rows, self._n_depths

        def grow(name, shape, dtype, fill=0):
            fresh = np.full(shape, fill, dtype=dtype)
            if old:
                fresh[:old] = getattr(self, name)
            setattr(self, name, fresh)

        grow("_masks", (capacity, n), np.uint64)
        grow("_m", (capacity,), np.int64)
        grow("_popped", (capacity,), np.int64)
        grow("_cycles", (capacity,), np.int64)
        grow("_cycles_at_last_pop", (capacity,), np.int64)
        grow("_l0", (capacity,), np.int64)
        grow("_row_counts", (capacity, rows), np.int64)
        grow("_budget", (capacity,), np.int64, fill=1)
        grow("_drain", (capacity,), bool)
        grow("_parked", (capacity,), bool, fill=True)
        grow("_in_use", (capacity,), bool)
        grow("_stall", (capacity,), np.int64)
        grow("_win", (capacity, n, nd), np.int64, fill=-1)
        grow("_win_dirty", (capacity,), bool)
        grow("_wall_exact", (capacity,), bool)
        # Per-call scratch, full-capacity so lane ids index directly.
        self._wall_full = np.zeros(capacity, dtype=np.float64)
        self._deadline_full = np.zeros(capacity, dtype=np.float64)
        self._pos_scratch = np.zeros(capacity, dtype=np.int64)
        self._status_scratch = np.full(capacity, -1, dtype=np.int8)
        if old:
            matches, layer_cycles = self._matches, self._layer_cycles
        else:
            matches, layer_cycles = [], []
        self._matches: list[list] = matches + [
            [] for _ in range(capacity - old)
        ]
        self._layer_cycles: list[list[int]] = layer_cycles + [
            [] for _ in range(capacity - old)
        ]
        if old == 0:
            self._cursors: dict[int, tuple] = {}
        self.capacity = capacity

    def _grow_depths(self, need: int) -> None:
        """Widen the winner slab's depth axis (rare: deep unbounded Regs)."""
        nd = min(MAX_LAYERS, max(need, self._n_depths * 2))
        fresh = np.full(
            (self.capacity, self.lattice.n_ancillas, nd), -1, dtype=np.int64
        )
        fresh[:, :, : self._n_depths] = self._win
        self._win = fresh
        self._n_depths = nd

    def alloc_lane(self) -> int:
        """Claim a reset lane, growing the slabs when none are free.

        Free lanes are kept clean (`free_lane` resets; fresh slabs are
        zeroed), so claiming is just a pop.
        """
        if not self._free:
            old = self.capacity
            self._alloc_slabs(old * 2)
            self._free.extend(range(self.capacity - 1, old - 1, -1))
        lane = self._free.pop()
        self._in_use[lane] = True
        return lane

    def free_lane(self, lane: int) -> None:
        """Return a lane to the free list (its state is reset)."""
        if not self._in_use[lane]:
            raise ValueError(f"lane {lane} is not allocated")
        self._in_use[lane] = False
        self._reset_lane(lane)
        self._free.append(lane)

    def _reset_lane(self, lane: int) -> None:
        self._masks[lane] = 0
        self._m[lane] = 0
        self._popped[lane] = 0
        self._cycles[lane] = 0
        self._cycles_at_last_pop[lane] = 0
        self._l0[lane] = 0
        self._row_counts[lane] = 0
        self._budget[lane] = 1
        self._drain[lane] = False
        self._parked[lane] = True
        self._stall[lane] = 0
        self._wall_exact[lane] = False
        if self._win_dirty[lane]:
            self._win[lane] = -1
            self._win_dirty[lane] = False
        self._matches[lane] = []
        self._layer_cycles[lane] = []
        self._cursors.pop(lane, None)

    @property
    def n_free(self) -> int:
        """Lanes currently unallocated."""
        return len(self._free)

    # Per-lane observables (the scalar engine's public accounting).
    def matches_of(self, lane: int) -> list:
        """The lane's match list (live object; do not mutate)."""
        return self._matches[lane]

    def layer_cycles_of(self, lane: int) -> list[int]:
        """The lane's per-layer cycle counts (live object; do not mutate)."""
        return self._layer_cycles[lane]

    def match_counts(self, lanes: np.ndarray) -> np.ndarray:
        """Per-lane match-list lengths, aligned with ``lanes``.

        The streaming session layer compares these against its
        consumed-match slab after each decode to find the (rare) lanes
        that need a correction materialised — the only per-shot Python
        left on its running path.
        """
        matches = self._matches
        return np.fromiter(
            (len(matches[lane]) for lane in lanes.tolist()),
            np.int64, len(lanes),
        )

    def cycles_of(self, lane: int) -> int:
        """The lane's busy-cycle clock."""
        return int(self._cycles[lane])

    def m_of(self, lane: int) -> int:
        """Layers currently stored in the lane's Regs."""
        return int(self._m[lane])

    def is_parked(self, lane: int) -> bool:
        """True when the lane's Controller sits at a clean IDLE point."""
        return bool(self._parked[lane]) and lane not in self._cursors

    def is_empty_idle(self, lane: int) -> bool:
        """Eligible for the batched ``idle_layer_fast`` delta."""
        return (
            self.is_parked(lane)
            and self._m[lane] == 0
            and not self._drain[lane]
        )

    def set_wall_exact(self, lane: int, exact: bool) -> None:
        """Declare the lane's wall clock integer-valued (see module doc:
        gates the lumped float charging; non-integer clocks always take
        the exact per-action walk)."""
        self._wall_exact[lane] = exact

    # ------------------------------------------------------------------
    # Measurement interface (batched)
    # ------------------------------------------------------------------
    def push_layers(self, lanes: np.ndarray, events: np.ndarray) -> np.ndarray:
        """Store one detection-event layer per lane; returns the per-lane
        acceptance mask (``False`` = Reg overflow, layer not stored)."""
        lanes = np.asarray(lanes, dtype=np.int64)
        m = self._m[lanes]
        ok = (
            np.ones(len(lanes), dtype=bool)
            if self.reg_size is None
            else m < self.reg_size
        )
        sel = lanes[ok]
        if not sel.size:
            return ok
        m_sel = m[ok]
        if (m_sel >= MAX_LAYERS).any():
            raise ValueError(
                f"array engine stores at most {MAX_LAYERS} layers; pop or"
                " drain before pushing more"
            )
        ev = events[ok].astype(bool)
        any_event = ev.any(axis=1)
        if any_event.any() and self._win_dirty[sel].any():
            self._invalidate_push(sel, ev, m_sel)
        sub = self._masks[sel]
        was_zero = (sub == 0) & ev
        self._masks[sel] = sub | (
            ev.astype(np.uint64) << m_sel.astype(np.uint64)[:, None]
        )
        rows, cols = self.lattice.rows, self.lattice.cols
        self._row_counts[sel] += was_zero.reshape(-1, rows, cols).sum(axis=2)
        at_zero = m_sel == 0
        if at_zero.any():
            self._l0[sel[at_zero]] += ev[at_zero].sum(axis=1)
        self._m[sel] = m_sel + 1
        if int(self._m[sel].max()) > self._n_depths:
            self._grow_depths(int(self._m[sel].max()))
        return ok

    def _invalidate_push(
        self, lanes: np.ndarray, ev: np.ndarray, t_new: np.ndarray
    ) -> None:
        """Evict winner-slab entries a just-pushed event would out-race.

        The batched mirror of the scalar ``_invalidate_after_push``: one
        broadcast of (pushed events) x (cached entries), with per-lane
        event groups reduced by ``logical_or.reduceat``.  Over-eviction
        would merely force a re-race, but the comparison is exact, so
        the kept/dropped set matches the scalar cache entry for entry.
        """
        dirty = self._win_dirty[lanes]
        lanes, ev, t_new = lanes[dirty], ev[dirty], t_new[dirty]
        if not lanes.size:
            return
        ev_rel, ev_units = np.nonzero(ev)
        if not ev_rel.size:
            return
        # Present slab entries of the pushing lanes, as sparse triples —
        # the cache is sparse (one entry per raced sink), so the
        # (entries x pushed events) cross product is built per lane
        # instead of broadcasting over the whole (N, L) slab.
        win_sub = self._win[lanes]
        e_rel, e_i, e_b = np.nonzero(win_sub >= 0)
        if not e_rel.size:
            return
        radix = self._radix
        n_lanes = len(lanes)
        ev_counts = np.bincount(ev_rel, minlength=n_lanes)
        ev_starts = np.concatenate(([0], np.cumsum(ev_counts)[:-1]))
        reps = ev_counts[e_rel]  # events faced by each entry
        if not reps.any():
            return
        pair_entry = np.repeat(np.arange(len(e_rel)), reps)
        offsets = np.concatenate(([0], np.cumsum(reps)[:-1]))
        within = np.arange(len(pair_entry)) - np.repeat(offsets, reps)
        pair_event = ev_starts[e_rel[pair_entry]] + within
        i = e_i[pair_entry]
        j = ev_units[pair_event]
        t_rel = t_new[e_rel[pair_entry]] - e_b[pair_entry]
        cand = (
            (t_rel + self._dist[i, j]) * 16 + self._ports[i, j]
        ) * (128 * radix) + t_rel * radix + (j + 1)
        vert = (t_rel * 2048 + t_rel) * radix
        cand = np.where(i == j, vert, cand)
        beaten = cand < win_sub[e_rel[pair_entry], i, e_b[pair_entry]]
        if not beaten.any():
            return
        stale = np.unique(pair_entry[beaten])
        self._win[lanes[e_rel[stale]], e_i[stale], e_b[stale]] = -1

    def begin_drain(self, lanes: np.ndarray) -> None:
        """Lift the ``thv`` wait on the given lanes (end-of-trial flush)."""
        self._drain[np.asarray(lanes, dtype=np.int64)] = True

    def empty_layers_fast(self, lanes: np.ndarray) -> np.ndarray:
        """Batched :meth:`QecoolEngine.idle_layer_fast`: absorb one empty
        layer per empty, parked lane.  Returns the per-lane charged cost
        (the caller's wall clock still pays it)."""
        lanes = np.asarray(lanes, dtype=np.int64)
        if (
            self._m[lanes].any()
            or self._drain[lanes].any()
            or not self._parked[lanes].all()
        ):
            raise RuntimeError(
                "empty_layers_fast requires empty, parked, non-draining lanes"
            )
        cost = 1 + self.lattice.rows
        deltas = kernels.charge_empty(
            self._cycles, self._popped, self._cycles_at_last_pop, lanes, cost
        ).tolist()
        for lane, delta in zip(lanes.tolist(), deltas):
            self._layer_cycles[lane].append(delta)
        dirty = lanes[self._win_dirty[lanes]]
        if dirty.size:
            # Every cached entry is dead (no layers stored); clearing the
            # rows is the slab's form of the scalar cache purge.
            self._win[dirty] = -1
            self._win_dirty[dirty] = False
        return np.full(len(lanes), cost, dtype=np.int64)

    def try_push_empty(self, lanes: np.ndarray) -> np.ndarray:
        """Batched :meth:`QecoolEngine.try_push_empty_idle`.

        Returns int8 per lane: ``1`` absorbed (``m += 1``), ``0`` Reg
        overflow (layer not stored), ``-1`` the push would expose a
        decodable sink (or the lane drains) — take the simulated path.
        """
        lanes = np.asarray(lanes, dtype=np.int64)
        out = np.full(len(lanes), -1, dtype=np.int8)
        m = self._m[lanes]
        simulate = self._drain[lanes].copy()
        if self.reg_size is not None:
            full = ~simulate & (m >= self.reg_size)
            out[full] = 0
        else:
            full = np.zeros(len(lanes), dtype=bool)
        cand = ~simulate & ~full
        if (m[cand] >= MAX_LAYERS).any():
            raise ValueError(
                f"array engine stores at most {MAX_LAYERS} layers; pop or"
                " drain before pushing more"
            )
        if self.thv >= 0 and cand.any():
            exposed = m - self.thv
            check = cand & (exposed >= 0)
            if check.any():
                sel = lanes[check]
                hit = kernels.exposed_any(self._masks, sel, exposed[check])
                blocked = np.flatnonzero(check)[hit]
                cand[blocked] = False
                out[blocked] = -1
        absorb = lanes[cand]
        self._m[absorb] += 1
        out[cand] = 1
        return out

    # ------------------------------------------------------------------
    # The Controller (lock-step across lanes)
    # ------------------------------------------------------------------
    def decode(
        self,
        lanes: np.ndarray,
        wall: np.ndarray,
        deadline: np.ndarray,
    ) -> np.ndarray:
        """Advance every lane's Controller until it parks at IDLE,
        finishes its drain, or crosses its deadline.

        ``wall``/``deadline`` are per-lane decoder-cycle clocks aligned
        with ``lanes``; ``wall`` is updated in place with every charged
        action (``math.inf`` deadline = unconstrained, wall untouched —
        the ``run_to_idle`` path).  Returns :data:`LANE_PARKED` /
        :data:`LANE_SUSPENDED` / :data:`LANE_RETIRED` per lane.
        """
        tracer = self.tracer
        if tracer is None:
            return self._decode(lanes, wall, deadline)
        t = tracer.clock()
        try:
            return self._decode(lanes, wall, deadline)
        finally:
            tracer.add("engine.batch_decode", t, tracer.clock() - t)

    def _decode(
        self,
        lanes: np.ndarray,
        wall: np.ndarray,
        deadline: np.ndarray,
    ) -> np.ndarray:
        lanes = np.asarray(lanes, dtype=np.int64)
        wf, df = self._wall_full, self._deadline_full
        wf[lanes] = wall
        df[lanes] = deadline
        status = self._status_scratch
        status[lanes] = -1
        self._parked[lanes] = False
        if self._cursors:
            top: list[int] = []
            for lane in lanes.tolist():
                if lane in self._cursors:
                    if self._resume_lane(lane, wf, df, status):
                        top.append(lane)
                else:
                    top.append(lane)
            top_arr = np.asarray(top, dtype=np.int64)
        else:
            top_arr = lanes
        self._top_loop(top_arr, wf, df, status)
        wall[:] = wf[lanes]
        return status[lanes]

    def run_to_idle(self, lanes: np.ndarray) -> np.ndarray:
        """Deadline-free decode (drain / unconstrained-clock path)."""
        lanes = np.asarray(lanes, dtype=np.int64)
        wall = np.zeros(len(lanes), dtype=np.float64)
        deadline = np.full(len(lanes), math.inf)
        return self.decode(lanes, wall, deadline)

    def _park(self, lanes: np.ndarray, status: np.ndarray) -> None:
        status[lanes] = LANE_PARKED
        self._budget[lanes] = 1
        self._parked[lanes] = True

    def _top_loop(
        self,
        top: np.ndarray,
        wf: np.ndarray,
        df: np.ndarray,
        status: np.ndarray,
    ) -> None:
        """The Controller while-loop for lanes at a clean iteration start.

        MIRROR of ``QecoolEngine.run`` / ``run_to_idle``: pops, the
        drain-return check, the survey, the analytic budget skip, one
        real sweep, the budget bump and the stall guard — each phase
        vectorized over the lanes still running it.
        """
        while top.size:
            progressed = np.zeros(self.capacity, dtype=bool)
            top = self._phase_pops(top, wf, df, status, progressed)
            if not top.size:
                break
            done = self._drain[top] & (self._m[top] == 0)
            if done.any():
                status[top[done]] = LANE_RETIRED
                top = top[~done]
                if not top.size:
                    break
            b_max, n_sinks, need = self._survey(top)
            idle = n_sinks == 0
            if idle.any():
                stalled = idle & self._drain[top] & (self._m[top] > 0)
                if stalled.any():
                    raise RuntimeError(
                        "drain stalled with no defects but layers left"
                    )
                self._park(top[idle], status)
                top, b_max, n_sinks, need = (
                    top[~idle], b_max[~idle], n_sinks[~idle], need[~idle]
                )
                if not top.size:
                    break
            top, b_max = self._phase_analytic(
                top, b_max, n_sinks, need, wf, df, status
            )
            if not top.size:
                break
            top = self._phase_sweep(top, b_max, wf, df, status, progressed)
            if top.size:
                prog = progressed[top]
                self._stall[top[prog]] = 0
                lag = top[~prog]
                self._stall[lag] += 1
                if (self._stall[lag] > self._stall_limit).any():
                    raise RuntimeError(
                        "QECOOL engine made no progress over a full budget"
                        " cycle — matching policy bug"
                    )

    # ------------------------------------------------------------------
    # Phase: shift-detection pops
    # ------------------------------------------------------------------
    def _phase_pops(
        self,
        top: np.ndarray,
        wf: np.ndarray,
        df: np.ndarray,
        status: np.ndarray,
        progressed: np.ndarray,
    ) -> np.ndarray:
        """Pop while the oldest layer is clear, every popping lane at
        once; one charged action (and deadline check) per pop."""
        while True:
            can = (self._m[top] > 0) & (self._l0[top] == 0)
            if not can.any():
                return top
            popping = top[can]
            costs = self._pop_lanes(popping)
            self._budget[popping] = 1
            progressed[popping] = True
            finite = df[popping] != math.inf
            if finite.any():
                charged = popping[finite]
                wf[charged] += costs[finite]
                crossed = charged[wf[charged] >= df[charged]]
                if crossed.size:
                    for lane in crossed.tolist():
                        self._cursors[lane] = ("top",)
                    status[crossed] = LANE_SUSPENDED
                    keep = np.ones(len(top), dtype=bool)
                    keep[np.isin(top, crossed)] = False
                    top = top[keep]

    def _pop_lanes(self, popping: np.ndarray) -> np.ndarray:
        """Shift every popping lane's Regs down one layer (the scalar
        ``_pop``, batched); returns the per-lane charged cost."""
        rows, cols = self.lattice.rows, self.lattice.cols
        sub = self._masks[popping]
        dying = sub == _ONE
        if dying.any():
            self._row_counts[popping] -= dying.reshape(-1, rows, cols).sum(
                axis=2
            )
        sub >>= _ONE
        self._masks[popping] = sub
        self._l0[popping] = (sub & _ONE).sum(axis=1).astype(np.int64)
        self._m[popping] -= 1
        self._popped[popping] += 1
        dirty = popping[self._win_dirty[popping]]
        if dirty.size:
            # A lane whose Regs just emptied has only dead cache entries
            # left: clear its row once and stop shifting it (the drain
            # tail pops many empty layers across every lane at once).
            emptied = ~(self._masks[dirty] != 0).any(axis=1)
            if emptied.any():
                cleared = dirty[emptied]
                self._win[cleared] = -1
                self._win_dirty[cleared] = False
                dirty = dirty[~emptied]
        if dirty.size:
            # Absolute-depth keys in the scalar cache need no reindex on
            # pops; the relative-depth slab shifts instead — same keys,
            # same survivors.
            win = self._win[dirty]
            win[:, :, :-1] = win[:, :, 1:]
            win[:, :, -1] = -1
            self._win[dirty] = win
        active = (self._row_counts[popping] > 0).sum(axis=1)
        cost = 1 + rows + (cols - 1) * active
        self._cycles[popping] += cost
        deltas = (
            self._cycles[popping] - self._cycles_at_last_pop[popping]
        ).tolist()
        for lane, delta in zip(popping.tolist(), deltas):
            self._layer_cycles[lane].append(delta)
        self._cycles_at_last_pop[popping] = self._cycles[popping]
        return cost

    # ------------------------------------------------------------------
    # Phase: survey (sink count and minimum winner hops)
    # ------------------------------------------------------------------
    def _survey(
        self, top: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Count decodable sinks and find each lane's minimum winner hop
        count, refreshing the winner slab for every live sink.

        The scalar survey's stale-entry shortcuts are pure work-savers
        (``need`` is the exact minimum either way); the batch version
        re-races every missing or invalidated sink entry in one bulk
        pass, which keeps the slab fresh for the sweep that follows.
        """
        m = self._m[top]
        if self.thv < 0:
            b_max = m - 1
        else:
            b_max = np.where(
                self._drain[top], m - 1, np.minimum(m - 1, m - self.thv - 1)
            )
        n_sinks = np.zeros(len(top), dtype=np.int64)
        has = b_max >= 0
        if not has.any():
            return b_max, n_sinks, np.zeros(len(top), dtype=np.int64)
        sel = np.flatnonzero(has)
        cutoff = _U64_MAX >> (np.uint64(63) - b_max[sel].astype(np.uint64))
        n_sinks[sel] = (
            np.bitwise_count(self._masks[top[sel]] & cutoff[:, None])
            .sum(axis=1)
            .astype(np.int64)
        )
        need = np.full(len(top), 1 << 30, dtype=np.int64)
        active = sel[n_sinks[sel] > 0]
        if not active.size:
            return b_max, n_sinks, need
        # Flatten every (lane, sink unit, base) triple.
        s_parts, i_parts, b_parts = [], [], []
        lanes_a = top[active]
        bmax_a = b_max[active]
        for b in range(int(bmax_a.max()) + 1):
            at = lanes_a[bmax_a >= b]
            rel, units = np.nonzero(
                (self._masks[at] >> np.uint64(b)) & _ONE
            )
            if rel.size:
                s_parts.append(at[rel])
                i_parts.append(units)
                b_parts.append(np.full(rel.size, b, dtype=np.int64))
        s = np.concatenate(s_parts)
        i = np.concatenate(i_parts).astype(np.int64)
        b = np.concatenate(b_parts)
        # Map lane ids back to positions in `top` without assuming order.
        pos_of = self._pos_scratch
        pos_of[top] = np.arange(len(top), dtype=np.int64)
        pos = pos_of[s]
        # Valid entries and missing races give a first minimum, and a
        # stale entry is a lower bound (matches only remove
        # candidates), so only stale entries that could still beat the
        # running minimum need re-racing — the kernel refines them
        # until the exact minimum settles.  The rest stay stale in the
        # slab; the sweep handles them (timeout past the budget,
        # validate when matchable).
        need = kernels.survey_need(
            self._masks, self._win, self._win_dirty, s, i, b, pos,
            len(top), self._geo,
        )
        return b_max, n_sinks, need

    # ------------------------------------------------------------------
    # Phase: analytic budget growth
    # ------------------------------------------------------------------
    def _row_scan_cost(self, lanes: np.ndarray) -> np.ndarray:
        """One row scan's token cycles per lane (the per-depth term of
        the scalar ``_sweep_overhead``)."""
        rows, cols = self.lattice.rows, self.lattice.cols
        active = (self._row_counts[lanes] > 0).sum(axis=1)
        return rows + (cols - 1) * active

    def _phase_analytic(
        self,
        top: np.ndarray,
        b_max: np.ndarray,
        n_sinks: np.ndarray,
        need: np.ndarray,
        wf: np.ndarray,
        df: np.ndarray,
        status: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Account the provably-fruitless sweeps below ``need`` without
        simulating them: wall-clock-only charges, one per skipped budget
        level (lump-charged when the lane cannot cross its deadline
        inside the whole run and its wall arithmetic is exact)."""
        budget = self._budget[top]
        grow = need > budget
        if not grow.any():
            return top, b_max
        target = np.minimum(need, self.nlimit)
        unconstrained = df[top] == math.inf
        fast = grow & unconstrained
        self._budget[top[fast]] = target[fast]
        slow = grow & ~unconstrained
        if not slow.any():
            return top, b_max
        levels = target[slow] - budget[slow]
        overhead = (b_max[slow] + 1) * self._row_scan_cost(top[slow])
        # sum_{cl=budget}^{target-1} (overhead + n_sinks * (2 cl + 2))
        total = levels * overhead + n_sinks[slow] * (
            (budget[slow] + target[slow] - 1) * levels + 2 * levels
        )
        lanes_s = top[slow]
        lump_ok = self._wall_exact[lanes_s] & (
            wf[lanes_s] + total < df[lanes_s]
        )
        lumped = lanes_s[lump_ok]
        wf[lumped] += total[lump_ok]
        self._budget[lumped] = target[slow][lump_ok]
        slow_pos = np.flatnonzero(slow)
        drop: list[int] = []
        for j in np.flatnonzero(~lump_ok).tolist():
            pos = int(slow_pos[j])
            lane = int(top[pos])
            crossed = self._analytic_steps(
                lane, int(budget[pos]), int(target[pos]), int(n_sinks[pos]),
                int(overhead[j]), int(b_max[pos]), wf, df,
            )
            if crossed:
                status[lane] = LANE_SUSPENDED
                drop.append(lane)
        if drop:
            keep = ~np.isin(top, np.asarray(drop, dtype=np.int64))
            top, b_max = top[keep], b_max[keep]
        return top, b_max

    def _analytic_steps(
        self,
        lane: int,
        budget: int,
        target: int,
        n_sinks: int,
        overhead: int,
        b_max: int,
        wf: np.ndarray,
        df: np.ndarray,
    ) -> bool:
        """Per-level analytic charges for one deadline-threatened lane;
        freezes an ``("analytic", ...)`` cursor on crossing."""
        wall = float(wf[lane])
        deadline = float(df[lane])
        for cl in range(budget, target):
            wall += overhead + n_sinks * (2 * cl + 2)
            if wall >= deadline:
                wf[lane] = wall
                self._budget[lane] = target
                self._cursors[lane] = (
                    "analytic", cl + 1, target, n_sinks, overhead, b_max,
                )
                return True
        wf[lane] = wall
        self._budget[lane] = target
        return False

    # ------------------------------------------------------------------
    # Phase: one real sweep
    # ------------------------------------------------------------------
    def _phase_sweep(
        self,
        top: np.ndarray,
        b_max: np.ndarray,
        wf: np.ndarray,
        df: np.ndarray,
        status: np.ndarray,
        progressed: np.ndarray,
    ) -> np.ndarray:
        """One Controller sweep per lane, lock-stepped over base depths.

        At each depth, lanes whose hits all time out lump-charge the
        level (row tokens + timeouts, closed form); lanes that can match
        — or could cross their deadline, or carry non-exact walls — take
        the per-action walk.  The mid-sweep shift check runs after every
        depth, batched.
        """
        rows, cols = self.lattice.rows, self.lattice.cols
        cap = self.capacity
        bmax_full = np.zeros(cap, dtype=np.int64)
        bmax_full[top] = b_max
        level_match = np.zeros(cap, dtype=bool)  # any match at depth b
        survivors: list[int] = []
        cur = top
        b = 0
        max_b = int(b_max.max())
        while b <= max_b and cur.size:
            hitbits = (self._masks[cur] >> np.uint64(b)) & _ONE
            rel, units = np.nonzero(hitbits)
            if not rel.size:
                # No hits at this depth anywhere: every lane charges the
                # bare row scan (deadline-safety per the lump argument
                # below; an at-risk lane still needs the exact walk).
                rowcost = (
                    rows
                    + (cols - 1) * (self._row_counts[cur] > 0).sum(axis=1)
                )
                finite = df[cur] != math.inf
                at_risk = finite & (
                    ~self._wall_exact[cur] | (wf[cur] + rowcost >= df[cur])
                )
                easy = ~at_risk
                self._cycles[cur[easy]] += rowcost[easy]
                fin_easy = easy & finite
                wf[cur[fin_easy]] += rowcost[fin_easy]
                dropped = []
                for pos in np.flatnonzero(at_risk).tolist():
                    lane = int(cur[pos])
                    crossed, _ = self._walk_level(
                        lane, b, int(self._budget[lane]), [], 0, 0, False,
                        wf, df,
                    )
                    if crossed:
                        cursor = self._cursors[lane]
                        self._cursors[lane] = cursor + (
                            int(bmax_full[lane]), b, False,
                            bool(progressed[lane]),
                        )
                        status[lane] = LANE_SUSPENDED
                        dropped.append(lane)
                if dropped:
                    cur = cur[
                        ~np.isin(cur, np.asarray(dropped, dtype=np.int64))
                    ]
                done = bmax_full[cur] <= b
                if done.any():
                    finished = cur[done]
                    bump = self._budget[finished]
                    self._budget[finished] = np.where(
                        bump < self.nlimit, bump + 1, 1
                    )
                    survivors.extend(finished.tolist())
                    cur = cur[~done]
                b += 1
                continue
            budget = self._budget[cur]
            timeout_cost = 2 * budget + 2
            units = units.astype(np.int64)
            n_hits = np.bincount(rel, minlength=len(cur))
            has_match = np.zeros(len(cur), dtype=bool)
            entries = hops = matchable = None
            if rel.size:
                s_flat = cur[rel]
                entries = self._win[s_flat, units, b]
                missing = entries < 0
                if missing.any():
                    b_arr = np.full(int(missing.sum()), b, dtype=np.int64)
                    raced = kernels.race(
                        self._masks, s_flat[missing], units[missing], b_arr,
                        self._geo,
                    )
                    self._win[s_flat[missing], units[missing], b] = raced
                    self._win_dirty[s_flat[missing]] = True
                    entries = entries.copy()
                    entries[missing] = raced
                hops = entries // self._hops_div >> 1
                matchable = hops <= budget[rel]
                if matchable.any():
                    # The scalar machine validates (and re-races) only
                    # entries cheap enough to match; stale entries past
                    # the budget time out as lower bounds.
                    mi = np.flatnonzero(matchable)
                    b_arr = np.full(mi.size, b, dtype=np.int64)
                    valid = kernels.valid_entries(
                        entries[mi], self._masks, s_flat[mi], units[mi],
                        b_arr, self._geo,
                    )
                    if not valid.all():
                        ri = mi[~valid]
                        raced = kernels.race(
                            self._masks, s_flat[ri], units[ri],
                            np.full(ri.size, b, dtype=np.int64), self._geo,
                        )
                        self._win[s_flat[ri], units[ri], b] = raced
                        entries = entries.copy()
                        entries[ri] = raced
                        hops = entries // self._hops_div >> 1
                        matchable = hops <= budget[rel]
                    has_match = (
                        np.bincount(
                            rel[matchable], minlength=len(cur)
                        ) > 0
                    )
            rowcost = (
                rows + (cols - 1) * (self._row_counts[cur] > 0).sum(axis=1)
            )
            lump = rowcost + n_hits * timeout_cost
            finite = df[cur] != math.inf
            # `lump` bounds the level's true charge from above (matches
            # cost at most a timeout, skips nothing, cleared rows less),
            # so lanes strictly inside their deadline cannot cross.
            at_risk = finite & (
                ~self._wall_exact[cur] | (wf[cur] + lump >= df[cur])
            )
            easy = ~at_risk & ~has_match
            easy_lanes = cur[easy]
            self._cycles[easy_lanes] += lump[easy]
            fin_easy = easy & finite
            wf[cur[fin_easy]] += lump[fin_easy]
            level_match[cur] = False
            commit = ~at_risk & has_match
            if commit.any():
                commit_flat = commit[rel]
                self._commit_level(
                    cur, b, rel[commit_flat], units[commit_flat],
                    entries[commit_flat], hops[commit_flat],
                    matchable[commit_flat], budget, rowcost, wf, finite,
                    level_match, progressed,
                )
            dropped: list[int] = []
            if at_risk.any():
                hit_lists = self._split_hits(rel, units, len(cur))
                for pos in np.flatnonzero(at_risk).tolist():
                    lane = int(cur[pos])
                    crossed, am = self._walk_level(
                        lane, b, int(budget[pos]), hit_lists[pos],
                        0, 0, False, wf, df,
                    )
                    if am:
                        level_match[lane] = True
                        progressed[lane] = True
                    if crossed:
                        cursor = self._cursors[lane]
                        self._cursors[lane] = cursor + (
                            int(bmax_full[lane]), b, am, bool(progressed[lane]),
                        )
                        status[lane] = LANE_SUSPENDED
                        dropped.append(lane)
            if dropped:
                cur = cur[~np.isin(cur, np.asarray(dropped, dtype=np.int64))]
            # Mid-sweep shift check (Algorithm 1, Controller lines 18-22).
            pop_now = (
                level_match[cur] & (self._m[cur] > 0) & (self._l0[cur] == 0)
            )
            if pop_now.any():
                popping = cur[pop_now]
                costs = self._pop_lanes(popping)
                self._budget[popping] = 1
                progressed[popping] = True
                finite_p = df[popping] != math.inf
                charged = popping[finite_p]
                wf[charged] += costs[finite_p]
                crossed_p = charged[wf[charged] >= df[charged]]
                for lane in crossed_p.tolist():
                    self._cursors[lane] = ("top",)
                    status[lane] = LANE_SUSPENDED
                exited = popping[~np.isin(popping, crossed_p)]
                survivors.extend(exited.tolist())
                cur = cur[~pop_now]
            done = bmax_full[cur] <= b
            if done.any():
                finished = cur[done]
                bump = self._budget[finished]
                self._budget[finished] = np.where(
                    bump < self.nlimit, bump + 1, 1
                )
                survivors.extend(finished.tolist())
                cur = cur[~done]
            b += 1
        return np.asarray(sorted(survivors), dtype=np.int64)

    def _commit_level(
        self,
        cur: np.ndarray,
        b: int,
        rel: np.ndarray,
        units: np.ndarray,
        entries: np.ndarray,
        hops: np.ndarray,
        matchable: np.ndarray,
        budget: np.ndarray,
        rowcost: np.ndarray,
        wf: np.ndarray,
        finite: np.ndarray,
        level_match: np.ndarray,
        progressed: np.ndarray,
    ) -> None:
        """Resolve one base-depth sub-sweep for every deadline-safe lane
        with matchable hits, without per-action Python.

        The sequential conflict scan — a hit consumed as an earlier
        match's source is skipped, a hit whose pre-raced winner lost
        its target event re-races against the post-commit state — runs
        in :func:`repro.core.kernels.commit_scan`, which returns every
        observable mutation as flat records; this wrapper materialises
        the match objects (in scan order, so per-lane match order is the
        scalar one) and applies charges, occupancy updates and Reg bit
        clears to the slabs in bulk.  Decisions and charges are exactly the scalar
        ``_sweep`` level's: the pre-race is valid while its target
        survives (candidates are only ever removed), and the charge
        total is order-independent because deadline-safe lanes have no
        mid-level observation points.
        """
        cols = self.lattice.cols
        res = kernels.commit_scan(
            self._masks, self._win, self._row_counts, self._popped,
            cur, b, rel, units, entries, hops, matchable, budget,
            rowcost, self._geo,
        )
        cur_l = cur.tolist()
        matches = self._matches
        for pos, u, t1, u2, t2, port in zip(
            res.rec_pos.tolist(), res.rec_u.tolist(), res.rec_t.tolist(),
            res.rec_u2.tolist(), res.rec_t2.tolist(),
            res.rec_port.tolist(),
        ):
            lane = cur_l[pos]
            r, c = divmod(u, cols)
            if u2 < 0:
                side = (
                    BOUNDARY_WEST if port == PRIORITY_WEST else BOUNDARY_EAST
                )
                matches[lane].append(
                    _fast_match("boundary", (r, c, t1), None, side)
                )
            else:
                matches[lane].append(
                    _fast_match(
                        "pair", (r, c, t1), (u2 // cols, u2 % cols, t2), None
                    )
                )
        for pos, total, l0_dec, any_m in zip(
            res.g_pos.tolist(), res.g_total.tolist(), res.g_l0.tolist(),
            res.g_match.tolist(),
        ):
            lane = cur_l[pos]
            self._cycles[lane] += total
            if finite[pos]:
                wf[lane] += total
            if l0_dec:
                self._l0[lane] -= l0_dec
            if any_m:
                level_match[lane] = True
                progressed[lane] = True
        for pos, rc in zip(res.fc_pos.tolist(), res.fc_row.tolist()):
            self._row_counts[cur_l[pos], rc] -= 1
        if len(res.clear_pos):
            la = cur[res.clear_pos]
            self._masks[la, res.clear_unit] &= ~res.clear_bits

    @staticmethod
    def _split_hits(
        rel: np.ndarray, units: np.ndarray, n: int
    ) -> list[list[int]]:
        """Group the flat (lane-position, unit) hit pairs into per-lane
        ascending unit lists (``np.nonzero`` order is already sorted)."""
        lists: list[list[int]] = [[] for _ in range(n)]
        if rel.size:
            counts = np.bincount(rel, minlength=n)
            for pos, chunk in enumerate(
                np.split(units, np.cumsum(counts)[:-1])
            ):
                lists[pos] = chunk.tolist()
        return lists

    # ------------------------------------------------------------------
    # The exact per-lane walk (scalar ``_sweep`` body on slab state)
    # ------------------------------------------------------------------
    def _walk_level(
        self,
        lane: int,
        b: int,
        budget: int,
        hits: list[int],
        r0: int,
        pos0: int,
        row_charged: bool,
        wf: np.ndarray,
        df: np.ndarray,
    ) -> tuple[bool, bool]:
        """Walk one base-depth sub-sweep for one lane, action by action.

        MIRROR of the ``for r in range(lattice.rows)`` body of the
        scalar ``_sweep``: row-token charges, per-hit races (winner slab
        consulted, validated, re-raced on conflict), match application,
        timeout charges — each followed by the caller-side deadline
        check.  On crossing, freezes a ``("sweep", ...)`` cursor prefix
        (the caller appends sweep-level context) and returns
        ``crossed=True``.  Returns ``(crossed, any_match_this_b)``.
        """
        lattice = self.lattice
        rows, cols = lattice.rows, lattice.cols
        masks = self._masks
        row_counts = self._row_counts[lane]
        win_row = self._win[lane]
        radix = self._radix
        hops_div = self._hops_div
        timeout_cost = 2 * budget + 2
        wall = float(wf[lane])
        deadline = float(df[lane])
        unconstrained = deadline == math.inf
        cycles = 0
        n_hits = len(hits)
        pos = pos0
        any_match = False
        bit = np.uint64(1 << b)

        def suspend(r: int, pos: int, charged: bool) -> tuple[bool, bool]:
            self._cycles[lane] += cycles
            wf[lane] = wall
            self._cursors[lane] = ("sweep", budget, hits, r, pos, charged)
            return True, any_match

        for r in range(r0, rows):
            row_end = (r + 1) * cols
            if row_charged and r == r0:
                # Resuming mid-row: the token is already here (and a
                # pre-suspension match may have emptied the row since —
                # the scalar generator does not recheck either).
                pass
            elif not row_counts[r]:
                while pos < n_hits and hits[pos] < row_end:
                    pos += 1
                cycles += 1
                if not unconstrained:
                    wall += 1
                    if wall >= deadline:
                        return suspend(r + 1, pos, False)
                continue
            else:
                cycles += cols
                if not unconstrained:
                    wall += cols
                    if wall >= deadline:
                        return suspend(r, pos, True)
            while pos < n_hits and hits[pos] < row_end:
                idx = hits[pos]
                pos += 1
                if not masks[lane, idx] & bit:
                    continue  # consumed as a source earlier this sweep
                win = int(win_row[idx, b])
                if win >= 0:
                    hops = win // hops_div >> 1
                    if hops > budget:
                        # Lower bound beyond the budget — timeout whether
                        # or not the entry is still valid.
                        cycles += timeout_cost
                        if not unconstrained:
                            wall += timeout_cost
                            if wall >= deadline:
                                return suspend(r, pos, True)
                        continue
                    if not self._still_valid_one(lane, idx, b, win):
                        win = kernels._race_one(self._masks, lane, idx, b, {}, self._geo)
                        win_row[idx, b] = win
                        hops = win // hops_div >> 1
                else:
                    win = kernels._race_one(self._masks, lane, idx, b, {}, self._geo)
                    win_row[idx, b] = win
                    self._win_dirty[lane] = True
                    hops = win // hops_div >> 1
                if hops <= budget:
                    boundary = self._apply_one(lane, idx, b, win)
                    any_match = True
                    cost = timeout_cost if boundary else 2 * hops + 2
                else:
                    cost = timeout_cost
                cycles += cost
                if not unconstrained:
                    wall += cost
                    if wall >= deadline:
                        return suspend(r, pos, True)
        self._cycles[lane] += cycles
        wf[lane] = wall
        return False, any_match

    def _still_valid_one(self, lane: int, idx: int, b: int, packed: int) -> bool:
        """Scalar ``_packed_still_valid`` against the lane's slab row."""
        radix = self._radix
        src1 = packed % radix
        t_rel = packed // radix % 128
        if src1:
            unit = src1 - 1
        elif t_rel:
            unit = idx
        else:
            return True
        return bool((int(self._masks[lane, unit]) >> (b + t_rel)) & 1)

    def _apply_one(self, lane: int, idx: int, b: int, packed: int) -> bool:
        """Commit one match (the scalar ``_apply`` on slab state)."""
        radix = self._radix
        cols = self.lattice.cols
        src1 = packed % radix
        t_rel = packed // radix % 128
        self._clear_bit_one(lane, idx, b)
        r, c = divmod(idx, cols)
        popped = int(self._popped[lane])
        t_abs = popped + b
        if src1:
            r2, c2 = divmod(src1 - 1, cols)
            t2 = b + t_rel
            self._clear_bit_one(lane, src1 - 1, t2)
            self._matches[lane].append(
                _fast_match("pair", (r, c, t_abs), (r2, c2, popped + t2), None)
            )
            return False
        if t_rel:
            t2 = b + t_rel
            self._clear_bit_one(lane, idx, t2)
            self._matches[lane].append(
                _fast_match("pair", (r, c, t_abs), (r, c, popped + t2), None)
            )
            return False
        port = packed // (128 * radix) % 8
        side = BOUNDARY_WEST if port == PRIORITY_WEST else BOUNDARY_EAST
        self._matches[lane].append(
            _fast_match("boundary", (r, c, t_abs), None, side)
        )
        return True

    def _clear_bit_one(self, lane: int, idx: int, t: int) -> None:
        new = int(self._masks[lane, idx]) & ~(1 << t)
        self._masks[lane, idx] = np.uint64(new)
        if t == 0:
            self._l0[lane] -= 1
        if not new:
            self._row_counts[lane, idx // self.lattice.cols] -= 1

    # ------------------------------------------------------------------
    # Mid-decode resumption
    # ------------------------------------------------------------------
    def _resume_lane(
        self, lane: int, wf: np.ndarray, df: np.ndarray, status: np.ndarray
    ) -> bool:
        """Continue a deadline-suspended lane from its frozen cursor.

        Returns True when the lane reached a clean Controller-top point
        and should join the lock-step loop; False when it suspended
        again (or its status was otherwise settled) this round.
        """
        cursor = self._cursors.pop(lane)
        kind = cursor[0]
        if kind == "top":
            return True
        if kind == "analytic":
            _, cl_next, target, n_sinks, overhead, b_max = cursor
            wall = float(wf[lane])
            deadline = float(df[lane])
            crossed = False
            for cl in range(cl_next, target):
                wall += overhead + n_sinks * (2 * cl + 2)
                if wall >= deadline:
                    self._cursors[lane] = (
                        "analytic", cl + 1, target, n_sinks, overhead, b_max,
                    )
                    crossed = True
                    break
            wf[lane] = wall
            self._budget[lane] = target
            if crossed:
                status[lane] = LANE_SUSPENDED
                return False
            return self._walk_sweep(
                lane, b_max, 0, None, 0, 0, False, False, False,
                wf, df, status,
            )
        # kind == "sweep": (tag, budget, hits, r, pos, charged,
        #                   b_max, b, any_match, matched)
        _, budget, hits, r, pos, charged, b_max, b, any_match, matched = cursor
        return self._walk_sweep(
            lane, b_max, b, hits, r, pos, charged, any_match, matched,
            wf, df, status,
        )

    def _walk_sweep(
        self,
        lane: int,
        b_max: int,
        b: int,
        hits: list[int] | None,
        r: int,
        pos: int,
        charged: bool,
        any_match: bool,
        matched: bool,
        wf: np.ndarray,
        df: np.ndarray,
        status: np.ndarray,
    ) -> bool:
        """Finish one lane's suspended sweep action by action, then hand
        it back to the lock-step loop at the Controller top."""
        lane_arr = np.asarray([lane], dtype=np.int64)
        progressed = matched
        while b <= b_max:
            if hits is None:
                row = self._masks[lane]
                hits = np.flatnonzero(
                    (row >> np.uint64(b)) & _ONE
                ).tolist()
                level_match = False
            else:
                level_match = any_match
            budget = int(self._budget[lane])
            crossed, am = self._walk_level(
                lane, b, budget, hits, r, pos, charged, wf, df
            )
            level_match = level_match or am
            if am:
                progressed = True
            if crossed:
                self._cursors[lane] = self._cursors[lane] + (
                    b_max, b, level_match, progressed,
                )
                status[lane] = LANE_SUSPENDED
                return False
            if (
                level_match
                and self._m[lane] > 0
                and self._l0[lane] == 0
            ):
                cost = int(self._pop_lanes(lane_arr)[0])
                self._budget[lane] = 1
                if df[lane] != math.inf:
                    wf[lane] += cost
                    if wf[lane] >= df[lane]:
                        self._cursors[lane] = ("top",)
                        status[lane] = LANE_SUSPENDED
                        return False
                self._stall[lane] = 0
                return True
            hits = None
            r = pos = 0
            charged = False
            any_match = False
            b += 1
        budget = int(self._budget[lane])
        self._budget[lane] = budget + 1 if budget < self.nlimit else 1
        if progressed:
            self._stall[lane] = 0
        else:
            self._stall[lane] += 1
            if self._stall[lane] > self._stall_limit:
                raise RuntimeError(
                    "QECOOL engine made no progress over a full budget"
                    " cycle — matching policy bug"
                )
        return True

    # ------------------------------------------------------------------
    # Oracle cross-check helper
    # ------------------------------------------------------------------
    def scalar_twin(self, lane: int) -> QecoolEngine:
        """A fresh scalar engine of this batch's shape (the oracle the
        equivalence tests replay each lane's input stream through)."""
        return QecoolEngine(
            self.lattice, thv=self.thv, reg_size=self.reg_size,
            nlimit=self.nlimit,
        )
