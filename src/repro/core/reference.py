"""Independent reference implementations of the QECOOL machine.

This module re-implements Algorithm 1 in the most literal, unoptimised
way possible — explicit per-Unit event lists, full Controller sweeps
with no analytic shortcuts, winners recomputed from scratch — so the
property-based tests can assert that the optimised engine
(:mod:`repro.core.engine`: uint64 array state, packed-key broadcast
races, lazily-validated winner cache) behaves *exactly* the same on
arbitrary inputs.

Two layers of reference:

- :func:`reference_greedy_matching` — drain-mode matching decisions
  only (the historical oracle for ``QecoolDecoder``),
- :class:`ReferenceEngine` — the full streaming machine: ``push_layer``
  with overflow refusal, the ``thv`` look-ahead gate, layer pops, and
  **cycle accounting** bit-compatible with ``QecoolEngine`` (see the
  class docstring for the one charging convention both share).

It intentionally shares only the spike arithmetic helpers
(:mod:`repro.core.spike`); control flow and state are kept separate so a
bug in the engine's optimisations cannot hide here.
"""

from __future__ import annotations

import numpy as np

from repro.core.spike import (
    SpikeCandidate,
    boundary_candidate,
    pair_candidate,
    vertical_candidate,
)
from repro.decoders.base import BOUNDARY_EAST, BOUNDARY_WEST, Match
from repro.surface_code.lattice import PlanarLattice

__all__ = ["ReferenceEngine", "reference_greedy_matching"]


def reference_greedy_matching(
    lattice: PlanarLattice,
    events: np.ndarray,
    thv: int = -1,
    nlimit: int | None = None,
) -> list[Match]:
    """Decode an event stack with the naive QECOOL policy; return matches.

    Mirrors the engine's drain-mode behaviour: pops (with Controller
    restart) when the oldest layer clears, growing hop budget, row-major
    token order, race-key winner selection.
    """
    events = np.asarray(events, dtype=np.uint8)
    if events.ndim == 1:
        events = events[None, :]
    n_layers = events.shape[0]
    if events.shape[1] != lattice.n_ancillas:
        raise ValueError("events have the wrong width")
    if nlimit is None:
        nlimit = lattice.rows + lattice.cols + n_layers + 2

    # reg[(r, c)] = sorted list of relative depths holding events.
    reg: dict[tuple[int, int], list[int]] = {
        (r, c): [] for r in range(lattice.rows) for c in range(lattice.cols)
    }
    for t in range(n_layers):
        for a in np.flatnonzero(events[t]):
            r, c = lattice.ancilla_coords(int(a))
            reg[(r, c)].append(t)
    m = n_layers
    popped = 0
    matches: list[Match] = []

    def first_at_or_above(unit: tuple[int, int], b: int) -> int | None:
        for t in reg[unit]:
            if t >= b:
                return t
        return None

    def winner_for(sink: tuple[int, int], b: int) -> SpikeCandidate:
        best = boundary_candidate(lattice, sink)
        own_higher = [t for t in reg[sink] if t > b]
        if own_higher:
            cand = vertical_candidate(own_higher[0] - b)
            if cand.key < best.key:
                best = cand
        for unit, depths in reg.items():
            if unit == sink or not depths:
                continue
            t = first_at_or_above(unit, b)
            if t is None:
                continue
            cand = pair_candidate(lattice, sink, unit, t - b)
            if cand.key < best.key:
                best = cand
        return best

    while True:
        # Pop cleared oldest layers (Controller restarts after a shift).
        while m > 0 and not any(depths and depths[0] == 0 for depths in reg.values()):
            for depths in reg.values():
                depths[:] = [t - 1 for t in depths]
            m -= 1
            popped += 1
        if m == 0:
            return matches
        made_progress = False
        for budget in range(1, nlimit + 1):
            restart = False
            for b in range(m):
                for r in range(lattice.rows):
                    for c in range(lattice.cols):
                        sink = (r, c)
                        if b not in reg[sink]:
                            continue
                        win = winner_for(sink, b)
                        if win.hops > budget:
                            continue
                        made_progress = True
                        reg[sink].remove(b)
                        t_abs = popped + b
                        if win.kind == "boundary":
                            side = BOUNDARY_WEST if win.side == "west" else BOUNDARY_EAST
                            matches.append(Match("boundary", (r, c, t_abs), side=side))
                        elif win.kind == "vertical":
                            t2 = b + win.t_rel
                            reg[sink].remove(t2)
                            matches.append(
                                Match("pair", (r, c, t_abs), (r, c, popped + t2))
                            )
                        else:
                            r2, c2 = win.source
                            t2 = b + win.t_rel
                            reg[(r2, c2)].remove(t2)
                            matches.append(
                                Match("pair", (r, c, t_abs), (r2, c2, popped + t2))
                            )
                # Shift check after each base-depth sub-sweep.
                if m > 0 and not any(
                    depths and depths[0] == 0 for depths in reg.values()
                ):
                    restart = True
                    break
            if restart:
                break
        else:
            if not made_progress:
                raise RuntimeError("reference matcher stalled — policy bug")


class ReferenceEngine:
    """Literal streaming QECOOL machine with cycle accounting.

    State is a plain ``dict`` of sorted per-Unit event depth lists; the
    Controller grows its hop budget one sweep at a time and *simulates
    every sweep in full*, recomputing every sink's race winner from
    scratch with the shared spike helpers — no bitmasks, no winner
    cache, no analytic skip.

    Cycle accounting follows the engine's charging convention: a sweep
    is charged to ``cycles`` only if it produced a match, or if it ran
    at this oracle's own hop cap ``nlimit`` (which no winner reaches;
    the engines have no cap and simulate exactly the matching sweeps).
    Provably-fruitless budget-growth sweeps are emitted to the caller's
    wall clock but never charged (see ``docs/DESIGN.md`` section 4).
    Matches, ``cycles``, ``layer_cycles``, pops and overflow refusals
    are bit-identical to :class:`~repro.core.engine.QecoolEngine`
    driven to the same IDLE points, which is what
    ``tests/test_engine_equivalence.py`` asserts on random streams.

    The machine is deliberately slow (every budget level is simulated
    unit by unit); use it only as a test oracle.
    """

    def __init__(
        self,
        lattice: PlanarLattice,
        thv: int = -1,
        reg_size: int | None = None,
        nlimit: int | None = None,
    ):
        if thv < -1:
            raise ValueError(f"thv must be >= -1, got {thv}")
        if reg_size is not None and reg_size < 1:
            raise ValueError(f"reg_size must be >= 1, got {reg_size}")
        self.lattice = lattice
        self.thv = thv
        self.reg_size = reg_size
        depth_hint = reg_size if reg_size is not None else lattice.d + 1
        self.nlimit = (
            nlimit
            if nlimit is not None
            else lattice.rows + lattice.cols + depth_hint + 2
        )
        self._stall_limit = self.nlimit + depth_hint + 4
        self.reg: dict[tuple[int, int], list[int]] = {
            (r, c): [] for r in range(lattice.rows) for c in range(lattice.cols)
        }
        self.m = 0
        self.popped = 0
        self.cycles = 0
        self._cycles_at_last_pop = 0
        self.layer_cycles: list[int] = []
        self.matches: list[Match] = []
        self._drain = False
        self._budget = 1
        self._stalled = 0

    # ------------------------------------------------------------------
    def push_layer(self, events_row: np.ndarray) -> bool:
        """Store one event layer; refuse (``False``) when the Reg is full."""
        if self.reg_size is not None and self.m >= self.reg_size:
            return False
        events_row = np.asarray(events_row, dtype=np.uint8)
        if events_row.shape != (self.lattice.n_ancillas,):
            raise ValueError("events_row has the wrong shape")
        for a in np.flatnonzero(events_row):
            self.reg[self.lattice.ancilla_coords(int(a))].append(self.m)
        self.m += 1
        return True

    def begin_drain(self) -> None:
        self._drain = True

    @property
    def defects_remaining(self) -> int:
        return sum(len(depths) for depths in self.reg.values())

    # ------------------------------------------------------------------
    def advance(self) -> None:
        """Run the Controller until it would idle (or, after
        :meth:`begin_drain`, until fully drained) — the literal
        counterpart of driving ``QecoolEngine.run`` to its next IDLE."""
        while True:
            progressed = False
            while self.m > 0 and not self._layer0_occupied():
                self._pop()
                self._budget = 1
                progressed = True
            if self._drain and self.m == 0:
                return
            b_max = self._b_max()
            if not self._has_sinks(b_max):
                if self._drain and self.m > 0 and self.defects_remaining == 0:
                    raise RuntimeError("drain stalled with no defects but layers left")
                self._budget = 1
                return
            matched, popped_mid_sweep = self._sweep(self._budget, b_max)
            progressed = progressed or matched or popped_mid_sweep
            if popped_mid_sweep:
                self._budget = 1
            elif self._budget < self.nlimit:
                self._budget += 1
            else:
                self._budget = 1
            if progressed:
                self._stalled = 0
            else:
                self._stalled += 1
                if self._stalled > self._stall_limit:
                    raise RuntimeError("reference engine stalled — policy bug")

    # ------------------------------------------------------------------
    def _b_max(self) -> int:
        if self._drain or self.thv < 0:
            return self.m - 1
        return min(self.m - 1, self.m - self.thv - 1)

    def _layer0_occupied(self) -> bool:
        return any(depths and depths[0] == 0 for depths in self.reg.values())

    def _has_sinks(self, b_max: int) -> bool:
        return b_max >= 0 and any(
            depths and depths[0] <= b_max for depths in self.reg.values()
        )

    def _row_active(self, r: int) -> bool:
        return any(self.reg[(r, c)] for c in range(self.lattice.cols))

    def _winner(self, sink: tuple[int, int], b: int) -> SpikeCandidate:
        best = boundary_candidate(self.lattice, sink)
        own_higher = [t for t in self.reg[sink] if t > b]
        if own_higher:
            cand = vertical_candidate(own_higher[0] - b)
            if cand.key < best.key:
                best = cand
        for unit, depths in self.reg.items():
            if unit == sink or not depths:
                continue
            t = next((t for t in depths if t >= b), None)
            if t is None:
                continue
            cand = pair_candidate(self.lattice, sink, unit, t - b)
            if cand.key < best.key:
                best = cand
        return best

    def _sweep(self, budget: int, b_max: int) -> tuple[bool, bool]:
        """One full literal sweep at ``budget``; charges itself per the
        shared convention (matched sweeps and nlimit sweeps only)."""
        lattice = self.lattice
        matched = False
        cost = 0
        for b in range(b_max + 1):
            any_match_this_b = False
            for r in range(lattice.rows):
                if not self._row_active(r):
                    cost += 1
                    continue
                cost += lattice.cols
                for c in range(lattice.cols):
                    sink = (r, c)
                    if b not in self.reg[sink]:
                        continue
                    win = self._winner(sink, b)
                    if win.hops > budget:
                        cost += 2 * budget + 2
                        continue
                    matched = True
                    any_match_this_b = True
                    self.reg[sink].remove(b)
                    t_abs = self.popped + b
                    if win.kind == "boundary":
                        side = BOUNDARY_WEST if win.side == "west" else BOUNDARY_EAST
                        self.matches.append(Match("boundary", (r, c, t_abs), side=side))
                        cost += 2 * budget + 2
                    elif win.kind == "vertical":
                        t2 = b + win.t_rel
                        self.reg[sink].remove(t2)
                        self.matches.append(
                            Match("pair", (r, c, t_abs), (r, c, self.popped + t2))
                        )
                        cost += 2 * win.hops + 2
                    else:
                        r2, c2 = win.source
                        t2 = b + win.t_rel
                        self.reg[(r2, c2)].remove(t2)
                        self.matches.append(
                            Match("pair", (r, c, t_abs), (r2, c2, self.popped + t2))
                        )
                        cost += 2 * win.hops + 2
            if any_match_this_b and self.m > 0 and not self._layer0_occupied():
                self.cycles += cost  # matched sweeps are always charged
                self._pop()
                return matched, True
        if matched or budget == self.nlimit:
            self.cycles += cost
        return matched, False

    def _pop(self) -> None:
        for depths in self.reg.values():
            depths[:] = [t - 1 for t in depths]
        self.m -= 1
        self.popped += 1
        self.cycles += 1 + sum(
            self.lattice.cols if self._row_active(r) else 1
            for r in range(self.lattice.rows)
        )
        self.layer_cycles.append(self.cycles - self._cycles_at_last_pop)
        self._cycles_at_last_pop = self.cycles
