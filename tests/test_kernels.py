"""The engine kernels (``repro.core.kernels``) against scalar oracles.

The machine-level suites (``test_engine_equivalence.py``,
``test_engine_batch.py``) pin whole decodes to ``ReferenceEngine``;
these checks are the faster, more targeted complement: each vectorized
kernel is compared, on reachable Reg states, with the scalar engine's
own per-sink race (``QecoolEngine._winner_scalar``, a plain loop over
lattice coordinates and port priorities) or with a plain-Python
restatement of the kernel's contract.

States come from pushing random layers into an unbounded scalar engine
without decoding; the "full" case fills all 64 Reg layers, so sinks sit
at base 63 (the two-step shift in ``race``) and cached winners reach
depth 63 (the shift clip in ``valid_entries``).  A second, "cleared"
state drops a random subset of those events, as commits would: winners
raced on the full state are then stale-or-fresh cache entries for it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels
from repro.core.engine import MAX_LAYERS, QecoolEngine
from repro.surface_code.lattice import PlanarLattice

LATTICES = {d: PlanarLattice(d) for d in (3, 5, 7)}

# (name, layers pushed, event density)
CASES = [("shallow", 5, 0.25), ("deep", 33, 0.06), ("full", MAX_LAYERS, 0.08)]


def _engine(lattice, rows):
    engine = QecoolEngine(lattice, thv=-1, reg_size=None)
    for row in rows:
        assert engine.push_layer(row)
    return engine


def _states(d, case, seed):
    """Full and cleared scalar engines for one lane, plus the pending
    clears (unit -> cleared bits) that lead from the first to the
    second."""
    _, n_layers, density = case
    lattice = LATTICES[d]
    rng = np.random.default_rng(seed)
    rows = (rng.random((n_layers, lattice.n_ancillas)) < density).astype(
        np.uint8
    )
    rows[0, 0] = rows[-1, -1] = 1  # a sink at the deepest pushed base
    keep = (rng.random(rows.shape) < 0.7).astype(np.uint8)
    keep[-1, -1] = 1
    cleared_rows = rows & keep
    pending: dict[int, int] = {}
    for t, u in zip(*np.nonzero(rows & (1 - keep))):
        pending[int(u)] = pending.get(int(u), 0) | (1 << int(t))
    return _engine(lattice, rows), _engine(lattice, cleared_rows), pending


def _lanes(d, case):
    """Two independently seeded lanes: [(full, cleared, pending), ...]."""
    base = 1000 * d + 10 * CASES.index(case)
    return [_states(d, case, base + lane) for lane in range(2)]


def _sinks(engine):
    """Every (unit, base) whose unit holds the base bit — the triples
    the engines' surveys race."""
    return [
        (idx, b)
        for idx in sorted(engine._live)
        for b in range(MAX_LAYERS)
        if engine._mask_ints[idx] >> b & 1
    ]


def _triples(engines):
    """Flattened (lane, sink, base) race requests over a lane slab."""
    s, i, b = [], [], []
    for lane, engine in enumerate(engines):
        for idx, base in _sinks(engine):
            s.append(lane)
            i.append(idx)
            b.append(base)
    return tuple(np.asarray(xs, dtype=np.int64) for xs in (s, i, b))


def _slab(engines):
    return np.stack([engine._masks for engine in engines])


params = pytest.mark.parametrize(
    "d,case",
    [(d, case) for d in (3, 5, 7) for case in CASES],
    ids=[f"d{d}-{case[0]}" for d in (3, 5, 7) for case in CASES],
)


@params
def test_race_matches_scalar_scan(d, case):
    engines = [full for full, _, _ in _lanes(d, case)]
    s, i, b = _triples(engines)
    got = kernels.race(_slab(engines), s, i, b, engines[0]._geo)
    want = [engines[lane]._winner_scalar(idx, base)
            for lane, idx, base in zip(s.tolist(), i.tolist(), b.tolist())]
    assert got.tolist() == want
    if case[1] == MAX_LAYERS:
        assert (b == MAX_LAYERS - 1).any()


@params
def test_winners_bulk_matches_scalar_scan(d, case):
    for full, _, _ in _lanes(d, case):
        sinks = _sinks(full)
        got = kernels.winners_bulk(
            full._masks,
            full._live_units(),
            np.asarray([idx for idx, _ in sinks], dtype=np.int64),
            np.asarray([b for _, b in sinks], dtype=np.int64),
            full._geo,
        )
        assert got.tolist() == [full._winner_scalar(idx, b) for idx, b in sinks]


@params
def test_race_one_sees_pending_clears(d, case):
    """The commit scan's mid-level re-race, handed the pre-commit slab
    plus pending clears, must see exactly the post-commit state."""
    lanes = _lanes(d, case)
    masks = _slab([full for full, _, _ in lanes])
    geo = lanes[0][0]._geo
    for lane, (full, cleared, pending) in enumerate(lanes):
        for idx, b in _sinks(cleared):
            assert kernels._race_one(
                masks, lane, idx, b, pending, geo
            ) == cleared._winner_scalar(idx, b)
        for idx, b in _sinks(full)[::5]:
            assert kernels._race_one(
                masks, lane, idx, b, {}, geo
            ) == full._winner_scalar(idx, b)


@params
def test_valid_entries_matches_scalar_check(d, case):
    """Winners raced on the full state, checked against the cleared
    one: fresh where the raced-to event survived, stale where it did
    not, and never valid when absent (-1)."""
    lanes = _lanes(d, case)
    cleared = [c for _, c, _ in lanes]
    s, i, b = _triples(cleared)
    entries = np.asarray(
        [lanes[lane][0]._winner_scalar(idx, base)
         for lane, idx, base in zip(s.tolist(), i.tolist(), b.tolist())],
        dtype=np.int64,
    )
    entries[::4] = -1
    got = kernels.valid_entries(entries, _slab(cleared), s, i, b,
                                cleared[0]._geo)
    want = [
        w >= 0 and cleared[lane]._packed_still_valid(w, idx, base)
        for w, lane, idx, base in zip(
            entries.tolist(), s.tolist(), i.tolist(), b.tolist()
        )
    ]
    assert got.tolist() == want
    assert not all(want) and any(want)


@params
def test_survey_need_is_exact_minimum(d, case):
    """Minimum winner hops per group, from a slab mixing missing, fresh
    and stale (lower-bound) entries, equals the brute-force minimum over
    true winners; every entry it re-races is the true winner.  Grouped
    per lane (as the engine does) and per sink (so every stale entry
    that could beat its group's minimum must be re-raced)."""
    lanes = _lanes(d, case)
    cleared = [c for _, c, _ in lanes]
    geo = cleared[0]._geo
    n = LATTICES[d].n_ancillas
    s, i, b = _triples(cleared)
    keys = list(zip(s.tolist(), i.tolist(), b.tolist()))
    true_hops = np.asarray(
        [cleared[lane]._winner_scalar(idx, base) // geo.hops_div >> 1
         for lane, idx, base in keys],
        dtype=np.int64,
    )
    for pos in (s, np.arange(len(s), dtype=np.int64)):
        n_top = int(pos.max()) + 1
        win = np.full((len(lanes), n, MAX_LAYERS), -1, dtype=np.int64)
        for k, (lane, idx, base) in enumerate(keys):
            if k % 3:  # two thirds cached from the full state
                win[lane, idx, base] = lanes[lane][0]._winner_scalar(idx, base)
        before = win.copy()
        win_dirty = np.zeros(len(lanes), dtype=bool)
        need = kernels.survey_need(
            _slab(cleared), win, win_dirty, s, i, b, pos, n_top, geo
        )
        want = np.full(n_top, 1 << 30, dtype=np.int64)
        np.minimum.at(want, pos, true_hops)
        np.testing.assert_array_equal(need, want)
        assert win_dirty.all()
        for lane, idx, base in keys:
            if win[lane, idx, base] != before[lane, idx, base]:
                assert win[lane, idx, base] == cleared[lane]._winner_scalar(
                    idx, base
                )


@params
def test_exposed_any_and_charge_empty(d, case):
    lanes = _lanes(d, case)
    engines = [full for full, _, _ in lanes] + [c for _, c, _ in lanes]
    masks = _slab(engines)
    rng = np.random.default_rng(d)
    sel = np.asarray([3, 0, 2], dtype=np.int64)
    exposed = rng.integers(0, case[1], len(sel))
    got = kernels.exposed_any(masks, sel, exposed)
    assert got.tolist() == [
        any(m >> int(e) & 1 for m in engines[lane]._mask_ints)
        for lane, e in zip(sel.tolist(), exposed.tolist())
    ]
    cycles = rng.integers(0, 100, 8).astype(np.int64)
    popped = rng.integers(0, 5, 8).astype(np.int64)
    at_pop = np.minimum(cycles, rng.integers(0, 50, 8)).astype(np.int64)
    want_cycles, want_popped, want_at = (
        cycles.tolist(), popped.tolist(), at_pop.tolist()
    )
    lane_ids = [1, 4, 6]
    want_deltas = []
    for lane in lane_ids:
        want_cycles[lane] += 11
        want_popped[lane] += 1
        want_deltas.append(want_cycles[lane] - want_at[lane])
        want_at[lane] = want_cycles[lane]
    deltas = kernels.charge_empty(
        cycles, popped, at_pop, np.asarray(lane_ids, dtype=np.int64), 11
    )
    assert deltas.tolist() == want_deltas
    assert cycles.tolist() == want_cycles
    assert popped.tolist() == want_popped
    assert at_pop.tolist() == want_at
