"""Streaming equivalence: array engine vs literal reference machine.

``ReferenceEngine`` (:mod:`repro.core.reference`) simulates Algorithm 1
sweep by sweep with per-Unit event lists and from-scratch winner
recomputation; ``QecoolEngine`` is the array-native production machine
(uint64 masks, packed-key broadcast races, lazily-validated winner
cache, analytic fruitless-sweep accounting).  Random event streams —
including overflow refusals, ``thv``-gated idling, mid-stream pops and
the end-of-experiment drain — must drive both through **identical**
matches, total cycles, per-layer cycles and overflow decisions at every
synchronisation point (each decode-to-IDLE).

This is the PR-level contract for "bit-exact": same match stream, same
cycle accounting, same generator-visible decisions — not merely the
same corrections.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import IDLE, QecoolEngine
from repro.core.reference import ReferenceEngine
from repro.surface_code.lattice import PlanarLattice


def _drive_engine_to_idle(engine, gen):
    """Consume the engine generator until IDLE (or exhaustion in drain)."""
    for chunk in gen:
        if chunk == IDLE:
            break


def _assert_synced(engine: QecoolEngine, ref: ReferenceEngine) -> None:
    assert engine.matches == ref.matches
    assert engine.cycles == ref.cycles
    assert engine.layer_cycles == ref.layer_cycles
    assert engine.m == ref.m
    assert engine.popped == ref.popped
    assert engine.defects_remaining == ref.defects_remaining


# Per-layer event densities a stream draws from.  "mixed" hits thv
# waits, busy layers that back the Reg up toward overflow, and empty
# layers that pop through; "sparse" is long empty stretches (the
# idle-layer pop path); "burst" is back-to-back dense layers (many
# sinks per sweep level, so commit conflicts and re-races).
PROFILES = {
    "mixed": [0.0, 0.05, 0.15, 0.4],
    "sparse": [0.0, 0.0, 0.0, 0.03],
    "burst": [0.3, 0.5],
}


def _random_stream_case(
    d, reg_size, thv, seed, n_rounds=8, sync_mode="generator",
    profile="mixed",
):
    """Stream random layers through both machines, syncing at every IDLE."""
    lattice = PlanarLattice(d)
    rng = np.random.default_rng(seed)
    engine = QecoolEngine(lattice, thv=thv, reg_size=reg_size)
    ref = ReferenceEngine(lattice, thv=thv, reg_size=reg_size)
    gen = engine.run(drain=False) if sync_mode == "generator" else None

    saw_overflow = False
    for k in range(n_rounds):
        density = rng.choice(PROFILES[profile])
        row = (rng.random(lattice.n_ancillas) < density).astype(np.uint8)
        ok_engine = engine.push_layer(row)
        ok_ref = ref.push_layer(row)
        assert ok_engine == ok_ref, "overflow decisions diverged"
        if not ok_engine:
            saw_overflow = True
            break
        if gen is not None:
            _drive_engine_to_idle(engine, gen)
        else:
            engine.run_to_idle()
        ref.advance()
        _assert_synced(engine, ref)

    engine.begin_drain()
    ref.begin_drain()
    if gen is not None:
        _drive_engine_to_idle(engine, gen)
    else:
        engine.run_to_idle()
    ref.advance()
    _assert_synced(engine, ref)
    assert engine.m == 0
    assert engine.defects_remaining == 0
    return saw_overflow


@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("reg_size", [None, 7])
@pytest.mark.parametrize("thv", [-1, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_streaming_equivalence(d, reg_size, thv, seed):
    _random_stream_case(
        d, reg_size, thv, seed=1000 * d + 10 * (seed + 1) + (thv > 0)
    )


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("reg_size", [None, 7])
def test_streaming_equivalence_sync_path(d, reg_size):
    """run_to_idle (the deadline-free sync path) is the same machine."""
    _random_stream_case(d, reg_size, thv=3, seed=97 * d, sync_mode="sync")


@pytest.mark.parametrize("profile", ["sparse", "burst"])
@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("reg_size", [None, 7])
@pytest.mark.parametrize("thv", [-1, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_streaming_equivalence_profiles(d, reg_size, thv, seed, profile):
    """The streaming grid at the density extremes."""
    _random_stream_case(
        d, reg_size, thv, seed=1000 * d + 10 * (seed + 1) + (thv > 0) + 5,
        n_rounds=12, profile=profile,
    )


@pytest.mark.parametrize("profile", ["sparse", "burst"])
@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("reg_size", [None, 7])
def test_streaming_equivalence_sync_path_profiles(d, reg_size, profile):
    """The sync path at the density extremes."""
    _random_stream_case(
        d, reg_size, thv=3, seed=97 * d + 1, n_rounds=12, sync_mode="sync",
        profile=profile,
    )


def test_overflow_edge_reached_and_identical():
    """A tiny Reg under dense noise must overflow, identically, with the
    pre-overflow state still in lockstep."""
    lattice = PlanarLattice(3)
    rng = np.random.default_rng(5)
    engine = QecoolEngine(lattice, thv=3, reg_size=2)
    ref = ReferenceEngine(lattice, thv=3, reg_size=2)
    overflowed = False
    for _ in range(4):
        row = (rng.random(lattice.n_ancillas) < 0.5).astype(np.uint8)
        ok_engine = engine.push_layer(row)
        ok_ref = ref.push_layer(row)
        assert ok_engine == ok_ref
        if not ok_engine:
            overflowed = True
            break
        # thv=3 with reg_size=2 never decodes: both must idle instantly.
        engine.run_to_idle()
        ref.advance()
        _assert_synced(engine, ref)
    assert overflowed, "reg_size=2 under 50% noise must refuse a push"


def test_thv_wait_idles_without_cycles():
    """Below the look-ahead threshold both machines store layers but
    burn no cycles (pure thv-gate check)."""
    lattice = PlanarLattice(5)
    rng = np.random.default_rng(11)
    engine = QecoolEngine(lattice, thv=3, reg_size=7)
    ref = ReferenceEngine(lattice, thv=3, reg_size=7)
    for _ in range(3):  # 3 layers < thv + 1: nothing decodable
        row = (rng.random(lattice.n_ancillas) < 0.3).astype(np.uint8)
        assert engine.push_layer(row) and ref.push_layer(row)
        engine.run_to_idle()
        ref.advance()
        _assert_synced(engine, ref)
    assert engine.cycles == 0
    assert engine.matches == []


def test_empty_layers_pop_identically():
    """All-empty streams exercise the pop/shift accounting alone."""
    lattice = PlanarLattice(5)
    engine = QecoolEngine(lattice, thv=3, reg_size=7)
    ref = ReferenceEngine(lattice, thv=3, reg_size=7)
    gen = engine.run(drain=False)
    row = np.zeros(lattice.n_ancillas, dtype=np.uint8)
    for _ in range(5):
        assert engine.push_layer(row) and ref.push_layer(row)
        _drive_engine_to_idle(engine, gen)
        ref.advance()
        _assert_synced(engine, ref)
    assert engine.popped == 5
    assert len(engine.layer_cycles) == 5
