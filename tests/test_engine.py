"""Unit tests for the QECOOL cycle-level engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import IDLE, QecoolEngine
from repro.decoders.base import Match


def events_for(lattice, defects, n_layers):
    """Event stack with 1s at the given (r, c, t) defects."""
    events = np.zeros((n_layers, lattice.n_ancillas), dtype=np.uint8)
    for r, c, t in defects:
        events[t, lattice.ancilla_index(r, c)] = 1
    return events


def drain(engine):
    for _ in engine.run(drain=True):
        pass


class TestPushPop:
    def test_push_within_capacity(self, d5):
        engine = QecoolEngine(d5, reg_size=3)
        row = np.zeros(d5.n_ancillas, dtype=np.uint8)
        assert engine.push_layer(row)
        assert engine.push_layer(row)
        assert engine.push_layer(row)
        assert engine.m == 3

    def test_push_overflow_refused(self, d5):
        engine = QecoolEngine(d5, reg_size=2)
        row = np.zeros(d5.n_ancillas, dtype=np.uint8)
        engine.push_layer(row)
        engine.push_layer(row)
        assert not engine.push_layer(row)
        assert engine.m == 2

    def test_unbounded_reg(self, d5):
        engine = QecoolEngine(d5)
        row = np.zeros(d5.n_ancillas, dtype=np.uint8)
        for _ in range(40):
            assert engine.push_layer(row)

    def test_wrong_row_shape_rejected(self, d5):
        engine = QecoolEngine(d5)
        with pytest.raises(ValueError):
            engine.push_layer(np.zeros(3, dtype=np.uint8))

    def test_bad_parameters_rejected(self, d5):
        with pytest.raises(ValueError):
            QecoolEngine(d5, thv=-2)
        with pytest.raises(ValueError):
            QecoolEngine(d5, reg_size=0)


class TestBatchMatching:
    def test_empty_events_pop_everything(self, d5):
        engine = QecoolEngine(d5)
        for row in events_for(d5, [], 4):
            engine.push_layer(row)
        drain(engine)
        assert engine.m == 0
        assert engine.matches == []
        assert len(engine.layer_cycles) == 4
        assert all(c > 0 for c in engine.layer_cycles)

    def test_adjacent_pair_matches(self, d5):
        engine = QecoolEngine(d5)
        for row in events_for(d5, [(1, 1, 0), (1, 2, 0)], 1):
            engine.push_layer(row)
        drain(engine)
        assert engine.matches == [Match("pair", (1, 1, 0), (1, 2, 0))]

    def test_lone_defect_goes_to_nearest_boundary(self, d5):
        engine = QecoolEngine(d5)
        for row in events_for(d5, [(2, 0, 0)], 1):
            engine.push_layer(row)
        drain(engine)
        assert engine.matches == [Match("boundary", (2, 0, 0), side="west")]

        engine = QecoolEngine(d5)
        for row in events_for(d5, [(2, 3, 0)], 1):
            engine.push_layer(row)
        drain(engine)
        assert engine.matches == [Match("boundary", (2, 3, 0), side="east")]

    def test_vertical_pair_matches_without_spatial_travel(self, d5):
        engine = QecoolEngine(d5)
        for row in events_for(d5, [(2, 2, 1), (2, 2, 2)], 4):
            engine.push_layer(row)
        drain(engine)
        assert engine.matches == [Match("pair", (2, 2, 1), (2, 2, 2))]

    def test_greedy_prefers_close_pair(self, d5):
        # A-B at distance 1, C two more steps east; C is closer to the
        # east boundary (distance 1) than to B.
        defects = [(2, 1, 0), (2, 2, 0), (2, 3, 0)]
        engine = QecoolEngine(d5)
        for row in events_for(d5, defects, 1):
            engine.push_layer(row)
        drain(engine)
        kinds = sorted(m.kind for m in engine.matches)
        assert kinds == ["boundary", "pair"]
        pair = next(m for m in engine.matches if m.kind == "pair")
        assert {pair.a[:2], pair.b[:2]} == {(2, 1), (2, 2)}

    def test_diagonal_spacetime_match(self, d5):
        # Same data-qubit chain interpretation: defects one apart in
        # space and one apart in time still pair (3-D Manhattan 2 beats
        # two boundary matches costing 2+2).
        engine = QecoolEngine(d5)
        for row in events_for(d5, [(2, 1, 0), (2, 2, 1)], 2):
            engine.push_layer(row)
        drain(engine)
        assert engine.matches == [Match("pair", (2, 1, 0), (2, 2, 1))]

    def test_match_times_are_absolute_after_pops(self, d5):
        # Layers 0-1 are empty and pop before the defect layer decodes.
        engine = QecoolEngine(d5)
        for row in events_for(d5, [(0, 0, 2)], 3):
            engine.push_layer(row)
        drain(engine)
        assert engine.matches == [Match("boundary", (0, 0, 2), side="west")]

    def test_deterministic(self, d5, rng):
        events = (rng.random((4, d5.n_ancillas)) < 0.1).astype(np.uint8)
        results = []
        for _ in range(2):
            engine = QecoolEngine(d5)
            for row in events:
                engine.push_layer(row)
            drain(engine)
            results.append(engine.matches)
        assert results[0] == results[1]

    def test_all_defects_consumed(self, d5, rng):
        events = (rng.random((5, d5.n_ancillas)) < 0.15).astype(np.uint8)
        engine = QecoolEngine(d5)
        for row in events:
            engine.push_layer(row)
        drain(engine)
        assert engine.defects_remaining == 0
        consumed = [e for m in engine.matches for e in m.endpoints()]
        assert len(consumed) == len(set(consumed)) == int(events.sum())


class TestCycleAccounting:
    def test_cycles_increase_with_defects(self, d5):
        quiet = QecoolEngine(d5)
        for row in events_for(d5, [], 3):
            quiet.push_layer(row)
        drain(quiet)
        busy = QecoolEngine(d5)
        for row in events_for(d5, [(1, 1, 0), (3, 2, 1), (0, 0, 2)], 3):
            busy.push_layer(row)
        drain(busy)
        assert busy.cycles > quiet.cycles

    def test_layer_cycles_sum_to_total(self, d5, rng):
        events = (rng.random((4, d5.n_ancillas)) < 0.1).astype(np.uint8)
        engine = QecoolEngine(d5)
        for row in events:
            engine.push_layer(row)
        drain(engine)
        assert sum(engine.layer_cycles) == engine.cycles
        assert len(engine.layer_cycles) == 4

    def test_empty_layer_cost_scales_with_rows(self):
        from repro.surface_code.lattice import PlanarLattice

        costs = {}
        for d in (5, 9, 13):
            engine = QecoolEngine(PlanarLattice(d))
            engine.push_layer(np.zeros(engine.lattice.n_ancillas, dtype=np.uint8))
            drain(engine)
            costs[d] = engine.layer_cycles[0]
        assert costs[5] < costs[9] < costs[13]


class TestOnlineGating:
    def test_thv_blocks_until_lookahead(self, d5):
        engine = QecoolEngine(d5, thv=3, reg_size=7)
        gen = engine.run()
        for row in events_for(d5, [(2, 2, 0)], 1):
            engine.push_layer(row)
        chunk = next(gen)
        assert chunk == IDLE  # defect stored but b=0 not yet decodable
        assert engine.matches == []

    def test_lookahead_reached_allows_match(self, d5):
        engine = QecoolEngine(d5, thv=3, reg_size=7)
        gen = engine.run()
        rows = events_for(d5, [(2, 0, 0)], 4)
        for row in rows:
            engine.push_layer(row)
        for chunk in gen:
            if chunk == IDLE:
                break
        assert engine.matches == [Match("boundary", (2, 0, 0), side="west")]

    def test_begin_drain_lifts_gating(self, d5):
        engine = QecoolEngine(d5, thv=3, reg_size=7)
        for row in events_for(d5, [(2, 0, 0)], 1):
            engine.push_layer(row)
        engine.begin_drain()
        drain(engine)
        assert engine.m == 0
        assert len(engine.matches) == 1

    def test_empty_layers_pop_despite_thv(self, d5):
        """The shift check is independent of the look-ahead gate: clean
        layers pop immediately even when nothing is decodable."""
        engine = QecoolEngine(d5, thv=3, reg_size=7)
        gen = engine.run()
        engine.push_layer(np.zeros(d5.n_ancillas, dtype=np.uint8))
        for chunk in gen:
            if chunk == IDLE:
                break
        assert engine.m == 0
        assert engine.popped == 1


class TestSessionEntryPoints:
    """The streaming service's session-granular fast entries."""

    def test_idle_layer_fast_matches_simulated_path(self, d5):
        """Empty layer onto an empty idle engine: same popped count,
        cycles and layer_cycles as pushing and running the generator."""
        simulated = QecoolEngine(d5, thv=3, reg_size=7)
        gen = simulated.run()
        fast = QecoolEngine(d5, thv=3, reg_size=7)
        for _ in range(3):
            simulated.push_layer(np.zeros(d5.n_ancillas, dtype=np.uint8))
            for chunk in gen:
                if chunk == IDLE:
                    break
            fast.idle_layer_fast()
        assert fast.popped == simulated.popped == 3
        assert fast.cycles == simulated.cycles
        assert fast.layer_cycles == simulated.layer_cycles
        assert fast.m == simulated.m == 0

    def test_idle_layer_fast_rejects_nonempty_engine(self, d5):
        engine = QecoolEngine(d5, thv=3, reg_size=7)
        engine.push_layer(events_for(d5, [(2, 2, 0)], 1)[0])
        with pytest.raises(RuntimeError, match="empty"):
            engine.idle_layer_fast()

    def test_try_push_empty_idle_absorbs_waiting_layers(self, d5):
        """While events wait on thv, empty layers are absorbed as a pure
        m increment — same observable state as the generator path."""
        simulated = QecoolEngine(d5, thv=3, reg_size=7)
        gen = simulated.run()
        fast = QecoolEngine(d5, thv=3, reg_size=7)
        defect = events_for(d5, [(2, 2, 0)], 1)[0]
        for engine in (simulated, fast):
            engine.push_layer(defect)
        for chunk in gen:
            if chunk == IDLE:
                break
        # One empty layer: still below the look-ahead, no sink exposed.
        simulated.push_layer(np.zeros(d5.n_ancillas, dtype=np.uint8))
        for chunk in gen:
            if chunk == IDLE:
                break
        assert fast.try_push_empty_idle() is True
        assert (fast.m, fast.popped, fast.cycles) == (
            simulated.m, simulated.popped, simulated.cycles,
        )
        assert fast.matches == simulated.matches == []

    def test_try_push_empty_idle_defers_when_sink_exposed(self, d5):
        """The push that lifts the defect layer above thv must take the
        simulated path (a sink becomes decodable)."""
        engine = QecoolEngine(d5, thv=3, reg_size=7)
        engine.push_layer(events_for(d5, [(2, 2, 0)], 1)[0])
        for _ in range(2):
            assert engine.try_push_empty_idle() is True
        # m=3: the next push would lift b_max to 0, exposing the stored
        # event as a decodable sink — the simulated path must run it.
        assert engine.try_push_empty_idle() is None
        assert engine.m == 3

    def test_try_push_empty_idle_signals_overflow(self, d5):
        engine = QecoolEngine(d5, thv=10, reg_size=3)
        engine.push_layer(events_for(d5, [(2, 2, 0)], 1)[0])
        assert engine.try_push_empty_idle() is True
        assert engine.try_push_empty_idle() is True
        assert engine.try_push_empty_idle() is False  # Reg full
        assert engine.m == 3
