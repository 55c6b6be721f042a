"""Lane-for-lane bit-identity of the shot-major batch engine.

``QecoolEngineBatch`` simulates many scalar ``QecoolEngine`` machines at
once; its contract (see ``tests/README.md``) is that every lane's
observable stream — matches, per-layer cycles, total cycles, overflow
refusals, and the per-round wall clock under a finite decoder budget —
equals the scalar engine's exactly, whatever other lanes share the
slabs (at whatever operating points), however lanes are admitted,
retired and reused, and wherever the interval deadline happens to
freeze a decode.  The scalar engine is the
oracle here; ``ReferenceEngine`` (the literal Algorithm 1 machine)
additionally pins the unconstrained cases from a third, independent
implementation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import IDLE, MAX_LAYERS, QecoolEngine
from repro.core.engine_batch import (
    LANE_PARKED,
    QecoolEngineBatch,
)
from repro.core.online import OnlineConfig, run_online_trial
from repro.core.reference import ReferenceEngine
from repro.surface_code.lattice import PlanarLattice

LATTICES = {d: PlanarLattice(d) for d in (3, 5, 7)}


class ScalarStream:
    """Drives one scalar engine with the online-trial round protocol
    (push, decode under the interval deadline, drain on the last round)
    — the oracle each batch lane is compared against."""

    def __init__(self, lattice, thv, reg, budget):
        self.engine = QecoolEngine(lattice, thv=thv, reg_size=reg)
        self.budget = budget
        self.unconstrained = budget is None
        self.gen = None if self.unconstrained else self.engine.run(drain=False)
        self.wall = 0.0
        self.overflowed = False

    def step(self, k, row, final):
        engine = self.engine
        if not engine.push_layer(row):
            self.overflowed = True
            return
        if self.unconstrained:
            deadline = math.inf
        else:
            self.wall = max(self.wall, k * self.budget)
            deadline = (k + 1) * self.budget
        if final:
            engine.begin_drain()
            deadline = math.inf
        if self.unconstrained:
            engine.run_to_idle()
            return
        for chunk in self.gen:
            if chunk == IDLE:
                break
            self.wall += chunk
            if self.wall >= deadline:
                break


class BatchStream:
    """Drives one batch-engine lane with the identical round protocol,
    including the two empty-layer fast entries the online layer uses."""

    def __init__(self, batch, thv, reg, budget):
        self.batch = batch
        self.lane = batch.alloc_lane(thv, reg)
        self.budget = budget
        self.unconstrained = budget is None
        batch.set_wall_exact(
            self.lane, budget is None or float(budget).is_integer()
        )
        self.wall = 0.0
        self.parked = True
        self.overflowed = False

    def step(self, k, row, final):
        step_lanes([self], [k], [row], [final])

    def release(self):
        self.batch.free_lane(self.lane)


def step_lanes(streams, ks, rows, finals):
    """One round of :meth:`BatchStream.step` for lanes of one engine in
    lock-step: each engine call (fast entries, push, decode) takes every
    lane of its phase at once, as the online layer's batched round
    does, stream ``j`` at its own round ``ks[j]``."""
    batch = streams[0].batch
    lanes = np.asarray([bs.lane for bs in streams], dtype=np.int64)
    finals = np.asarray(finals, dtype=bool)
    eligible = np.asarray([
        not row.any() and not final and bs.parked and batch.is_parked(bs.lane)
        for bs, row, final in zip(streams, rows, finals)
    ], dtype=bool)
    idle = eligible & np.asarray(
        [batch.is_empty_idle(lane) for lane in lanes.tolist()], dtype=bool
    )
    push = ~eligible
    if idle.any():
        costs = batch.empty_layers_fast(lanes[idle])
        for j, cost in zip(np.flatnonzero(idle).tolist(), costs.tolist()):
            bs = streams[j]
            if not bs.unconstrained:
                bs.wall = max(bs.wall, ks[j] * bs.budget) + cost
    held = eligible & ~idle
    if held.any():
        res = batch.try_push_empty(lanes[held])
        for j, r in zip(np.flatnonzero(held).tolist(), res.tolist()):
            bs = streams[j]
            if r == 1 and not bs.unconstrained:
                bs.wall = max(bs.wall, ks[j] * bs.budget)
            elif r == 0:
                bs.overflowed = True
            elif r == -1:
                push[j] = True
    pi = np.flatnonzero(push)
    if not pi.size:
        return
    ok = batch.push_layers(lanes[pi], np.stack([rows[j] for j in pi]))
    for j in pi[~ok].tolist():
        streams[j].overflowed = True
    pi = pi[ok]
    if not pi.size:
        return
    if finals[pi].any():
        batch.begin_drain(lanes[pi][finals[pi]])
    wall = np.zeros(pi.size)
    deadline = np.full(pi.size, math.inf)
    for n, j in enumerate(pi.tolist()):
        bs = streams[j]
        if not bs.unconstrained:
            bs.wall = max(bs.wall, ks[j] * bs.budget)
            wall[n] = bs.wall
            if not finals[j]:
                deadline[n] = (ks[j] + 1) * bs.budget
    status = batch.decode(lanes[pi], wall, deadline)
    for n, j in enumerate(pi.tolist()):
        bs = streams[j]
        if not bs.unconstrained:
            bs.wall = float(wall[n])
        bs.parked = status[n] == LANE_PARKED


def assert_lane_matches_scalar(batch_stream, scalar_stream, ctx=""):
    lane = batch_stream.lane
    batch = batch_stream.batch
    engine = scalar_stream.engine
    assert batch_stream.overflowed == scalar_stream.overflowed, ctx
    assert batch.matches_of(lane) == engine.matches, ctx
    assert batch.layer_cycles_of(lane) == engine.layer_cycles, ctx
    assert batch.cycles_of(lane) == engine.cycles, ctx


def run_pair(
    lattice, points, budget, streams, admit_rounds, batch=None,
    lockstep=False,
):
    """Run staggered shots through one batch engine and per-shot scalar
    oracles, shot ``i`` at operating point ``points[i] = (thv,
    reg_size)``; compare after every round and at the end.  ``lockstep``
    steps a round's lanes together (:func:`step_lanes`) instead of one
    engine call per lane."""
    if batch is None:
        batch = QecoolEngineBatch(
            lattice, capacity=max(1, len(streams) // 2)
        )
    pairs = [None] * len(streams)
    n_rounds = max(
        admit + len(stream) for admit, stream in zip(admit_rounds, streams)
    )

    def check(i, k, final):
        bs, ss = pairs[i]
        if not final and not bs.unconstrained and not bs.overflowed:
            # Wall clocks must agree at every interval boundary.
            # (Not after the final drain: there the scalar keeps
            # accumulating under an infinite deadline while the
            # batch engine stops charging — the one sanctioned,
            # outcome-invisible divergence.)
            assert bs.wall == ss.wall, f"shot {i} wall at round {k}"
        if bs.overflowed or ss.overflowed or final:
            assert_lane_matches_scalar(bs, ss, ctx=f"shot {i} round {k}")
            bs.release()  # lane becomes reusable mid-batch

    for k in range(n_rounds):
        due = []
        for i, (admit, stream) in enumerate(zip(admit_rounds, streams)):
            if k < admit or k >= admit + len(stream):
                continue
            if pairs[i] is None:
                pairs[i] = (
                    BatchStream(batch, *points[i], budget),
                    ScalarStream(lattice, *points[i], budget),
                )
            bs, ss = pairs[i]
            if bs.overflowed:
                continue
            local_k = k - admit
            final = local_k == len(stream) - 1
            row = stream[local_k]
            if lockstep:
                due.append((i, local_k, row, final))
                continue
            bs.step(local_k, row, final)
            ss.step(local_k, row, final)
            check(i, k, final)
        if due:
            step_lanes(*zip(*[
                (pairs[i][0], local_k, row, final)
                for i, local_k, row, final in due
            ]))
            for i, local_k, row, final in due:
                pairs[i][1].step(local_k, row, final)
                check(i, k, final)
    for i, pair in enumerate(pairs):
        assert pair is not None, f"shot {i} never ran"
    return batch


def stream_strategy(draw, lattice, max_rounds=7):
    n_rounds = draw(st.integers(2, max_rounds))
    p = draw(st.sampled_from([0.0, 0.05, 0.2, 0.45]))
    seed = draw(st.integers(0, 2**20))
    rng = np.random.default_rng(seed)
    return (rng.random((n_rounds, lattice.n_ancillas)) < p).astype(np.uint8)


@st.composite
def workloads(draw):
    d = draw(st.sampled_from([3, 5]))
    lattice = LATTICES[d]
    thv = draw(st.sampled_from([-1, 3]))
    reg = draw(st.sampled_from([None, 7]))
    freq = draw(st.sampled_from([None, 2.0e9, 1.0e6, 2.5e6]))
    n_shots = draw(st.integers(1, 5))
    streams = [stream_strategy(draw, lattice) for _ in range(n_shots)]
    admits = [draw(st.integers(0, 4)) for _ in range(n_shots)]
    budget = None if freq is None else freq * 1.0e-6
    return lattice, [(thv, reg)] * n_shots, budget, streams, admits


@st.composite
def mixed_workloads(draw):
    """Like :func:`workloads`, but every lane at its own operating
    point, ``thv`` past ``MAX_LAYERS`` and past int64 included.  Sparser
    streams and closer admissions put several lanes in each fast entry
    together."""
    d = draw(st.sampled_from([3, 5]))
    lattice = LATTICES[d]
    freq = draw(st.sampled_from([None, 2.0e9, 1.0e6, 2.5e6]))
    n_shots = draw(st.integers(2, 8))
    points = [
        (
            draw(st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 63, 64, 2**63])),
            draw(st.sampled_from([None, 1, 2, 3, 4, 5, 6, 7, 8])),
        )
        for _ in range(n_shots)
    ]
    streams = []
    for _ in range(n_shots):
        n_rounds = draw(st.integers(2, 10))
        p = draw(st.sampled_from([0.0, 0.02, 0.05, 0.2]))
        rng = np.random.default_rng(draw(st.integers(0, 2**20)))
        streams.append(
            (rng.random((n_rounds, lattice.n_ancillas)) < p).astype(np.uint8)
        )
    admits = [draw(st.integers(0, 2)) for _ in range(n_shots)]
    budget = None if freq is None else freq * 1.0e-6
    return lattice, points, budget, streams, admits


class TestLaneForLaneIdentity:
    @settings(max_examples=80, deadline=None)
    @given(workloads(), st.booleans())
    def test_ragged_admission_matches_scalar(self, workload, lockstep):
        """Arbitrary shapes, clocks, admission offsets, retirement order
        and lane reuse: every lane == its standalone scalar engine,
        whether each engine call takes one lane or a round's lanes
        together."""
        run_pair(*workload, lockstep=lockstep)

    @settings(max_examples=150, deadline=None)
    @given(mixed_workloads())
    def test_mixed_operating_points_share_one_engine(self, workload):
        """Lanes of one engine at different ``thv``/``reg_size``, stepped
        in lock-step: every lane == a scalar engine at its own point."""
        run_pair(*workload, lockstep=True)

    def test_lane_reuse_after_retirement_is_clean(self, d5):
        """Retire + readmit into the same lane: the reused lane must
        show no residue of its previous tenant."""
        rng = np.random.default_rng(7)
        batch = QecoolEngineBatch(d5, capacity=1)
        for wave in range(3):
            stream = (rng.random((6, d5.n_ancillas)) < 0.3).astype(np.uint8)
            bs = BatchStream(batch, 3, 7, 2000.0)
            ss = ScalarStream(d5, 3, 7, 2000.0)
            for k, row in enumerate(stream):
                final = k == len(stream) - 1
                bs.step(k, row, final)
                ss.step(k, row, final)
                if bs.overflowed or ss.overflowed:
                    break
            assert bs.lane == 0  # same physical lane every wave
            assert_lane_matches_scalar(bs, ss, ctx=f"wave {wave}")
            bs.release()

    @pytest.mark.parametrize("d", [3, 5, 7])
    @pytest.mark.parametrize("thv,reg", [(-1, None), (3, 7), (-1, 7)])
    def test_dense_drain_matches_scalar_and_reference(self, d, thv, reg):
        """Unconstrained streams across the full shape grid, stepped in
        lock-step, pinned by both the scalar engine and the literal
        ReferenceEngine."""
        lattice = LATTICES[d]
        rng = np.random.default_rng(100 * d + thv + (0 if reg is None else reg))
        n_shots, n_rounds = 4, 5
        streams = [
            (rng.random((n_rounds, lattice.n_ancillas)) < 0.15).astype(np.uint8)
            for _ in range(n_shots)
        ]
        batch = QecoolEngineBatch(lattice, capacity=n_shots)
        lanes = [BatchStream(batch, thv, reg, None) for _ in streams]
        for k in range(n_rounds):
            live = [j for j, bs in enumerate(lanes) if not bs.overflowed]
            if live:
                final = k == n_rounds - 1
                step_lanes(
                    [lanes[j] for j in live], [k] * len(live),
                    [streams[j][k] for j in live], [final] * len(live),
                )
        refs = []
        for stream in streams:
            ref = ReferenceEngine(lattice, thv=thv, reg_size=reg)
            ref_dead = False
            for k, row in enumerate(stream):
                final = k == len(stream) - 1
                if not ref_dead:
                    if not ref.push_layer(row):
                        ref_dead = True
                    else:
                        if final:
                            ref.begin_drain()
                        ref.advance()
            refs.append((ref, ref_dead))
        for i, (bs, (ref, ref_dead)) in enumerate(zip(lanes, refs)):
            assert bs.overflowed == ref_dead, f"shot {i}"
            assert batch.matches_of(bs.lane) == ref.matches, f"shot {i}"
            assert batch.layer_cycles_of(bs.lane) == ref.layer_cycles, f"shot {i}"
            assert batch.cycles_of(bs.lane) == ref.cycles, f"shot {i}"

    @pytest.mark.parametrize("d", [3, 5])
    def test_full_depth_reg_drain(self, d):
        """A full uint64 Reg: 64 random layers pushed into an unbounded
        Reg with no decode in between, then drained.  Only a full Reg
        makes the survey race a sink at base 63, the case the two-step
        shift in ``kernels.race`` exists for."""
        lattice = LATTICES[d]
        rng = np.random.default_rng(6400 + d)
        rows = (rng.random((MAX_LAYERS, lattice.n_ancillas)) < 0.1).astype(
            np.uint8
        )
        # Occupied first and last layers: no layer pops before the
        # survey, so it races a sink at base 63.
        rows[0, 0] = rows[-1, -1] = 1
        batch = QecoolEngineBatch(lattice, capacity=2)
        lanes = np.asarray([batch.alloc_lane(-1, None) for _ in range(2)])
        scalar = QecoolEngine(lattice, thv=-1, reg_size=None)
        ref = ReferenceEngine(lattice, thv=-1, reg_size=None)
        for row in rows:
            batch.push_layers(lanes, np.broadcast_to(row, (2, len(row))))
            assert scalar.push_layer(row)
            assert ref.push_layer(row)
        assert batch.m_of(int(lanes[0])) == scalar.m == ref.m == MAX_LAYERS
        batch.begin_drain(lanes)
        batch.run_to_idle(lanes)
        scalar.begin_drain()
        scalar.run_to_idle()
        ref.begin_drain()
        ref.advance()
        assert scalar.m == ref.m == 0
        assert scalar.matches == ref.matches
        assert scalar.layer_cycles == ref.layer_cycles
        assert scalar.cycles == ref.cycles
        for lane in lanes.tolist():
            assert batch.m_of(lane) == 0
            assert batch.matches_of(lane) == ref.matches
            assert batch.layer_cycles_of(lane) == ref.layer_cycles
            assert batch.cycles_of(lane) == ref.cycles

    def test_lane_alloc_free_errors(self, d5):
        batch = QecoolEngineBatch(d5, capacity=2)
        lane = batch.alloc_lane(3, 7)
        batch.free_lane(lane)
        with pytest.raises(ValueError):
            batch.free_lane(lane)

    def test_capacity_grows_on_demand(self, d5):
        batch = QecoolEngineBatch(d5, capacity=1)
        lanes = [batch.alloc_lane(3, 7) for _ in range(5)]
        assert len(set(lanes)) == 5
        assert batch.capacity >= 5

    def test_shape_validation(self, d5):
        batch = QecoolEngineBatch(d5, capacity=1)
        with pytest.raises(ValueError):
            batch.alloc_lane(-2, None)
        with pytest.raises(ValueError):
            batch.alloc_lane(3, 0)
        with pytest.raises(ValueError):
            batch.alloc_lane(3, MAX_LAYERS + 1)
        assert batch.n_free == 1  # a refused operating point claims no lane
        with pytest.raises(ValueError):
            QecoolEngineBatch(d5, capacity=0)


class TestThvPastMaxLayers:
    @settings(max_examples=25, deadline=None)
    @given(
        d=st.sampled_from([3, 5]),
        thv=st.integers(MAX_LAYERS, 2**70),
        reg=st.sampled_from([None, 7, MAX_LAYERS]),
        n_rounds=st.integers(1, MAX_LAYERS - 1),
        p=st.sampled_from([0.01, 0.05]),
        freq=st.sampled_from([None, 2.0e9, 1.0e6]),
        seed=st.integers(0, 2**32),
    )
    def test_trial_reads_every_thv_as_max_layers(
        self, d, thv, reg, n_rounds, p, freq, seed
    ):
        """At most ``MAX_LAYERS`` layers are stored, so a ``thv`` of
        ``MAX_LAYERS`` or more never lets a sink decode before drain:
        the scalar trial is the same for all of them (the batch engine
        stores ``min(thv, MAX_LAYERS)`` on that ground)."""
        lattice = LATTICES[d]

        def trial(thv):
            config = OnlineConfig(frequency_hz=freq, thv=thv, reg_size=reg)
            return run_online_trial(lattice, p, n_rounds, config, rng=seed)

        got, want = trial(thv), trial(MAX_LAYERS)
        assert (got.failed, got.overflow, got.n_rounds) == (
            want.failed, want.overflow, want.n_rounds,
        )
        assert got.matches == want.matches
        assert got.layer_cycles == want.layer_cycles
