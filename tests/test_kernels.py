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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.engine import MAX_LAYERS, QecoolEngine
from repro.core.engine_batch import QecoolEngineBatch
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
    """A two-lane slab, and each lane alone as the scalar engine's
    one-lane ``(1, N)`` view of its mask vector."""
    engines = [full for full, _, _ in _lanes(d, case)]
    inputs = [(engines, _slab(engines))]
    inputs += [([engine], engine._slab) for engine in engines]
    for group, slab in inputs:
        s, i, b = _triples(group)
        got = kernels.race(slab, s, i, b, group[0]._geo)
        want = [group[lane]._winner_scalar(idx, base)
                for lane, idx, base in zip(s.tolist(), i.tolist(), b.tolist())]
        assert got.tolist() == want
        if case[1] == MAX_LAYERS:
            assert (b == MAX_LAYERS - 1).any()


@params
def test_winners_bulk_matches_scalar_scan(d, case):
    """The scalar engine's bulk survey path (``_winners_bulk``: one
    ``race`` call on its one-lane slab) returns every sink's scalar
    winner in request order and caches it under its absolute depth."""
    for full, _, _ in _lanes(d, case):
        sinks = [(b, idx) for idx, b in _sinks(full)]
        full._winner_cache.clear()
        got = full._winners_bulk(sinks)
        want = [full._winner_scalar(idx, b) for b, idx in sinks]
        assert got == want
        assert full._winner_cache == {
            (idx, full.popped + b): w for (b, idx), w in zip(sinks, want)
        }


@params
def test_race_one_sees_pending_clears(d, case):
    """The commit scan applies each commit's Reg bit clears to the slab
    before a later hit of its level re-races, so the mid-level re-race
    on the pre-commit slab with those clears applied in place must see
    exactly the post-commit state (and the untouched slab the full
    one)."""
    lanes = _lanes(d, case)
    full_masks = _slab([full for full, _, _ in lanes])
    masks = full_masks.copy()
    geo = lanes[0][0]._geo
    for lane, (full, cleared, pending) in enumerate(lanes):
        for u, bits in pending.items():
            masks[lane, u] &= ~np.uint64(bits)
        np.testing.assert_array_equal(masks[lane], cleared._masks)
        for idx, b in _sinks(cleared):
            assert kernels._race_one(
                masks, lane, idx, b, geo
            ) == cleared._winner_scalar(idx, b)
        for idx, b in _sinks(full)[::5]:
            assert kernels._race_one(
                full_masks, lane, idx, b, geo
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


def _push_evicts(engine, cache, pushed, t_new):
    """Plain-Python restatement of the scalar branch of
    ``QecoolEngine._invalidate_after_push``: the cache keys a layer
    pushed at depth ``t_new`` (units ``pushed``) out-races."""
    radix = engine._radix
    evicted = set()
    for (idx, b), win in cache.items():
        t_rel = t_new - b
        if win // (1024 * radix) >> 1 < t_rel:
            continue  # winner faster than any event that deep
        for a in pushed:
            if a == idx:
                cand = (t_rel * 16 * 128 + t_rel) * radix  # vertical
            else:
                cand = int(engine._pair_base[idx, a]) + t_rel * 2049 * radix
            if cand < win:
                evicted.add((idx, b))
                break
    return evicted


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([3, 5, 7]),
    n_layers=st.integers(1, MAX_LAYERS - 1),
    density=st.sampled_from([0.03, 0.1, 0.3]),
    push_density=st.sampled_from([0.02, 0.1, 0.5]),
    seed=st.integers(0, 2**32),
)
def test_push_beats_matches_scalar_branch(
    d, n_layers, density, push_density, seed
):
    """Cached winners raced on a reachable state (two thirds of them
    stale against the cleared state the push lands on), then one more
    layer pushed: ``push_beats`` evicts exactly the entries the scalar
    branch does, and so does the engine's own push at either size
    (scalar scan or kernel broadcast)."""
    lattice = LATTICES[d]
    rng = np.random.default_rng(seed)
    n = lattice.n_ancillas
    rows = (rng.random((n_layers, n)) < density).astype(np.uint8)
    rows[0, 0] = 1
    keep = (rng.random(rows.shape) < 0.7).astype(np.uint8)
    keep[0, 0] = 1
    full, engine = _engine(lattice, rows), _engine(lattice, rows & keep)
    cache = {key: full._winner_scalar(*key) for key in _sinks(full)}
    row = (rng.random(n) < push_density).astype(np.uint8)
    pushed = np.flatnonzero(row)
    want = _push_evicts(engine, cache, pushed.tolist(), n_layers)
    keys = list(cache)
    i = np.asarray([idx for idx, _ in keys], dtype=np.int64)
    t_rel = n_layers - np.asarray([b for _, b in keys], dtype=np.int64)
    win = np.asarray(list(cache.values()), dtype=np.int64)
    beaten = kernels.push_beats(
        i[:, None], pushed[None, :], t_rel[:, None], win[:, None],
        engine._geo,
    ).any(axis=1)
    assert {key for key, hit in zip(keys, beaten.tolist()) if hit} == want
    engine._winner_cache = dict(cache)
    assert engine.push_layer(row)
    assert set(cache) - set(engine._winner_cache) == want


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
    """The batch engine's idle-layer helpers against plain-Python
    restatements: ``try_push_empty``'s exposed-depth check (any Reg
    bit at depth ``m - thv`` blocks the absorbed push) and
    ``empty_layers_fast``'s per-lane charge of one empty layer."""
    lanes = _lanes(d, case)
    engines = [full for full, _, _ in lanes] + [c for _, c, _ in lanes]
    # Drop the top layer of a full Reg so one more push is legal; the
    # rest is the state pushing the first `m` rows leaves behind.
    m = min(case[1], MAX_LAYERS - 1)
    low = (1 << m) - 1
    sel = np.asarray([3, 0, 2], dtype=np.int64)
    for thv in sorted({0, 1, m // 2, m - 1}):
        batch = QecoolEngineBatch(LATTICES[d], capacity=4)
        for lane, engine in enumerate(engines):
            assert batch.alloc_lane(thv, None) == lane
            batch._masks[lane] = engine._masks & np.uint64(low)
            batch._m[lane] = m
        blocked = [
            any((mask & low) >> (m - thv) & 1
                for mask in engines[lane]._mask_ints)
            for lane in sel.tolist()
        ]
        got = batch.try_push_empty(sel)
        assert got.tolist() == [-1 if b else 1 for b in blocked]
        assert batch._m[sel].tolist() == [m if b else m + 1 for b in blocked]
    rng = np.random.default_rng(d)
    batch = QecoolEngineBatch(LATTICES[d], capacity=8)
    for _ in range(8):
        batch.alloc_lane(-1, None)
    cycles = rng.integers(0, 100, 8).astype(np.int64)
    popped = rng.integers(0, 5, 8).astype(np.int64)
    at_pop = np.minimum(cycles, rng.integers(0, 50, 8)).astype(np.int64)
    batch._cycles[:] = cycles
    batch._popped[:] = popped
    batch._cycles_at_last_pop[:] = at_pop
    want_cycles, want_popped, want_at = (
        cycles.tolist(), popped.tolist(), at_pop.tolist()
    )
    cost = 1 + LATTICES[d].rows
    lane_ids = [1, 4, 6]
    want_deltas = []
    for lane in lane_ids:
        want_cycles[lane] += cost
        want_popped[lane] += 1
        want_deltas.append(want_cycles[lane] - want_at[lane])
        want_at[lane] = want_cycles[lane]
    got = batch.empty_layers_fast(np.asarray(lane_ids, dtype=np.int64))
    assert got.tolist() == [cost] * len(lane_ids)
    assert [batch.layer_cycles_of(lane) for lane in lane_ids] == [
        [delta] for delta in want_deltas
    ]
    assert batch._cycles.tolist() == want_cycles
    assert batch._popped.tolist() == want_popped
    assert batch._cycles_at_last_pop.tolist() == want_at
