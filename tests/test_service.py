"""Tests for the streaming decode service (sessions, scheduler, metrics).

The load-bearing contract is **scheduler bit-identity**: whatever the
admission order, capacity, queueing and co-tenants, every online
session's match stream, correction stream and cycle accounting is
bit-identical to a standalone ``run_online_trial`` on the same seed
(property-tested across d in {3,5,7}, thv in {-1,3}, both modes and
a refill-forcing noise window below; see ``tests/README.md``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import math
import numbers
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.online as online_module
from repro.core.engine_batch import QecoolEngineBatch
from repro.core.online import (
    OnlineShot,
    StreamingBlock,
    StreamingRoster,
    advance_streaming_round,
    run_online_trial,
)
from repro.core.window import SlidingWindowDecoder
from repro.experiments.montecarlo import resolve_noise
from repro.service import (
    Backpressure,
    DecodeService,
    MicroBatchScheduler,
    SchedulerConfig,
    SessionSpec,
    SessionState,
)
from repro.service.metrics import ServiceMetrics, _Mean
from repro.service.session import MAX_D, MAX_ROUNDS, SessionResult
from repro.surface_code.lattice import PlanarLattice
from repro.surface_code.logical import logical_failure
from repro.surface_code.noise import PhenomenologicalNoise
from repro.surface_code.syndrome import detection_events
from repro.util.rng import make_rng


def spec_noise(spec: SessionSpec):
    """The noise model a session's spec resolves to."""
    return resolve_noise(
        spec.noise, "phenomenological", spec.p,
        q=spec.q, noise_params=spec.noise_params,
    )


def reference_trial(spec: SessionSpec):
    """The standalone decode a session must reproduce bit for bit."""
    return run_online_trial(
        PlanarLattice(spec.d), spec_noise(spec), spec.rounds,
        spec.online_config(), rng=spec.seed,
    )


def window_reference(spec: SessionSpec):
    """Direct sliding-window decode on the session's noise stream."""
    lattice = PlanarLattice(spec.d)
    noise = spec_noise(spec)
    rng = make_rng(spec.seed)
    error = np.zeros(lattice.n_data, dtype=np.uint8)
    measured = np.empty((spec.rounds + 1, lattice.n_ancillas), dtype=np.uint8)
    for t in range(spec.rounds):
        data, meas = noise.sample_round(lattice, rng, t=t, n_rounds=spec.rounds)
        error ^= data
        measured[t] = lattice.syndrome_of(error) ^ meas
    measured[spec.rounds] = lattice.syndrome_of(error)
    decoder = SlidingWindowDecoder(window=spec.window, commit=spec.commit)
    result = decoder.decode(lattice, detection_events(measured))
    return result, error


def assert_session_matches_trial(session):
    spec = session.spec
    reference = reference_trial(spec)
    result = session.result
    assert result.failed == reference.failed
    assert result.overflow == reference.overflow
    assert result.n_rounds == reference.n_rounds
    assert result.matches == reference.matches
    assert result.layer_cycles == list(reference.layer_cycles)


def assert_session_matches_reference(session):
    """Either mode: an online session against its standalone trial, a
    window session against a direct decode of the same stream."""
    if session.spec.mode == "online":
        assert_session_matches_trial(session)
        return
    reference, final_error = window_reference(session.spec)
    assert session.result.matches == reference.matches
    assert session.result.cycles == reference.cycles
    assert session.result.failed == logical_failure(
        PlanarLattice(session.spec.d), final_error, reference.correction
    )


class TestSessionSpec:
    def test_defaults_follow_paper(self):
        spec = SessionSpec(d=9, p=0.001, seed=1)
        assert spec.rounds == 9
        assert spec.thv == 3
        assert spec.reg_size == 7
        assert spec.online_config().cycles_per_interval == 2000

    def test_payload_round_trip(self):
        spec = SessionSpec(
            d=5, p=0.02, seed=7, mode="window", window=3, commit=2,
            frequency_hz=None, noise="drift", noise_params={"ramp": 2.5},
        )
        payload = spec.to_payload()
        assert SessionSpec.from_payload(payload) == spec
        # A payload never aliases the frozen spec.
        payload["noise_params"]["ramp"] = 9.0
        assert spec.noise_params == {"ramp": 2.5}

    def test_unknown_payload_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SessionSpec.from_payload({"d": 5, "p": 0.01, "seed": 1, "bogus": 2})

    @pytest.mark.parametrize("bad", [
        dict(d=4), dict(d=1), dict(p=1.5), dict(n_rounds=0), dict(thv=-2),
        dict(reg_size=0), dict(reg_size=65), dict(mode="offline"),
        dict(window=0), dict(mode="window", commit=9),
        dict(frequency_hz=0.0), dict(frequency_hz=-1e9),
        dict(measurement_interval_s=0.0),
        # Remote DoS guard: an unbounded Reg at 80 rounds would exceed
        # the engine's MAX_LAYERS cap inside a shared scheduler step.
        dict(reg_size=None, n_rounds=80),
        dict(mode="window", window=80, commit=1),
        dict(q=1.5),
        # The scheduler tick is shared: a noise spec that would blow up
        # inside _admit() must be rejected at validation instead.
        dict(noise="bogus"),
        dict(noise="drift", noise_params={"no_such_param": 1}),
        dict(noise_params="not-a-dict"),
        # Wrong types a JSON client can send: each must be a ValueError
        # (shed as bad-spec), never a TypeError from the shared step.
        dict(seed=1.5), dict(seed="x"), dict(seed=True), dict(seed=-1),
        dict(seed=None), dict(thv=2.5), dict(d=9.0), dict(d="9"),
        dict(n_rounds=True), dict(n_rounds=5.0), dict(window=2.0),
        dict(commit=True), dict(reg_size=7.0), dict(reg_size=False),
        dict(p=True), dict(p="0.01"), dict(p=float("nan")),
        dict(q=float("nan")), dict(q=False),
        dict(frequency_hz=float("inf")), dict(frequency_hz="2e9"),
        dict(measurement_interval_s=float("inf")),
        dict(measurement_interval_s=True),
        # Memory bounds: per-lattice tables grow with (d(d-1))**2 and a
        # session's work with its rounds.
        dict(d=MAX_D + 2), dict(d=301), dict(n_rounds=MAX_ROUNDS + 1),
        dict(n_rounds=10**7),
    ])
    def test_validation(self, bad):
        spec = SessionSpec(**{"d": 5, "p": 0.01, "seed": 1, **bad})
        with pytest.raises(ValueError):
            spec.validate()

    @staticmethod
    def abc_type_ok(name, value):
        """The field type rule, by ``numbers`` ABCs alone."""
        if value is None:
            return name in ("n_rounds", "reg_size", "q", "frequency_hz")
        if isinstance(value, bool):
            return False
        if name in ("p", "q", "frequency_hz", "measurement_interval_s"):
            return isinstance(value, numbers.Real) and (
                isinstance(value, int) or math.isfinite(value)
            )
        return isinstance(value, numbers.Integral)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([
            "d", "seed", "n_rounds", "thv", "reg_size", "window", "commit",
            "p", "q", "frequency_hz", "measurement_interval_s",
        ]),
        st.one_of(
            st.booleans(),
            st.none(),
            st.integers(-(2**70), 2**70),
            st.floats(allow_nan=True, allow_infinity=True),
            st.text(max_size=3),
            st.integers(-100, 100).map(np.int64),
            st.integers(0, 2**64 - 1).map(np.uint64),
            st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
            st.floats(width=32).map(np.float32),
            st.booleans().map(np.bool_),
        ),
    )
    def test_type_checks_match_the_abc_rule(self, name, value):
        """The exact-type fast path accepts and rejects exactly what the
        ``numbers`` ABC checks do; a value of the right type may still
        fail a range check, but never as a type error."""
        spec = SessionSpec(**{"d": 5, "p": 0.01, "seed": 1, name: value})
        try:
            spec.validate()
            type_error = False
        except ValueError as exc:
            type_error = "must be an integer" in str(
                exc
            ) or "must be a finite number" in str(exc)
        assert type_error is not self.abc_type_ok(name, value)

    def test_unbounded_reg_accepts_max_layer_budget(self):
        SessionSpec(d=5, p=0.01, seed=1, reg_size=None, n_rounds=63).validate()

    def test_bounds_are_inclusive(self):
        SessionSpec(d=MAX_D, p=0.01, seed=1, n_rounds=MAX_ROUNDS).validate()


class TestWirePayload:
    """``SessionResult.to_payload`` is the TCP response body: its JSON
    bytes are pinned, so an encoder rewrite cannot reorder, drop or
    retype a field."""

    GOLDEN = {
        "online": (
            SessionSpec(d=5, p=0.02, seed=1, n_rounds=3),
            '{"session_id":1,"mode":"online","d":5,"failed":false,'
            '"overflow":false,"n_rounds":3,"matches":['
            '["boundary",[0,0,1],null,"west"],["pair",[1,3,1],[2,3,1],null],'
            '["pair",[3,1,2],[3,1,3],null]],"layer_cycles":[6,31,18,6],'
            '"cycles":61,"wait_s":0.25,"service_s":0.125,'
            '"logical_failed":false}',
        ),
        "overflow": (
            SessionSpec(
                d=5, p=0.03, seed=2, n_rounds=8, reg_size=4, frequency_hz=1e7
            ),
            '{"session_id":1,"mode":"online","d":5,"failed":true,'
            '"overflow":true,"n_rounds":5,"matches":['
            '["pair",[0,0,1],[1,0,1],null],["pair",[0,2,1],[0,3,1],null]],'
            '"layer_cycles":[6],"cycles":6,"wait_s":0.25,"service_s":0.125,'
            '"logical_failed":false}',
        ),
        "window": (
            SessionSpec(
                d=3, p=0.05, seed=5, mode="window", window=2, commit=1,
                n_rounds=3,
            ),
            '{"session_id":1,"mode":"window","d":3,"failed":true,'
            '"overflow":false,"n_rounds":3,"matches":['
            '["boundary",[2,0,0],null,"west"],["pair",[0,1,1],[0,1,2],null],'
            '["boundary",[2,1,1],null,"east"],["boundary",[1,1,2],null,"east"]],'
            '"layer_cycles":[],"cycles":79,"wait_s":0.25,"service_s":0.125,'
            '"logical_failed":true}',
        ),
    }

    @staticmethod
    def _result(spec):
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=4))
        session = scheduler.submit(spec)
        scheduler.run_until_idle()
        result = session.result
        result.wait_s, result.service_s = 0.25, 0.125
        return result

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_wire_bytes(self, case):
        spec, golden = self.GOLDEN[case]
        payload = self._result(spec).to_payload()
        assert json.dumps(payload, separators=(",", ":")) == golden

    def test_result_payload_keys_cover_every_field(self):
        result = self._result(self.GOLDEN["online"][0])
        assert set(result.to_payload()) == (
            {f.name for f in dataclasses.fields(SessionResult)} | {"logical_failed"}
        )

    def test_spec_payload_keys_cover_every_field(self):
        spec = SessionSpec(d=5, p=0.01, seed=1)
        assert set(spec.to_payload()) == {
            f.name for f in dataclasses.fields(SessionSpec)
        }


REFILL_WINDOW_DOUBLES = 128
"""A noise window of 6, 2 and 1 rounds at d = 3, 5 and 7: 1-7-round
sessions then refill their slab rows mid-stream."""


def workloads():
    """Mixed-shape, mixed-mode session workloads with arbitrary
    admission pacing, at the default or a refill-forcing noise window."""
    spec = st.builds(
        SessionSpec,
        d=st.sampled_from([3, 5, 7]),
        p=st.sampled_from([0.0, 0.01, 0.03, 0.08]),
        seed=st.integers(0, 2**31 - 1),
        n_rounds=st.integers(1, 7),
        mode=st.sampled_from(["online", "online", "window"]),
        thv=st.sampled_from([-1, 3]),
        reg_size=st.sampled_from([7, None]),
        frequency_hz=st.sampled_from([2.0e9, 0.5e9, 1.0e6, 2.5e6, None]),
        # Drift rates change every round, so a refill must take the
        # schedule at the right offset.
        noise=st.sampled_from([None, "drift"]),
        window=st.integers(1, 4),
    )
    return st.tuples(
        st.lists(spec, min_size=1, max_size=8),
        st.integers(1, 8),                      # max_active
        st.lists(st.integers(0, 3), min_size=8, max_size=8),  # steps between submits
        st.sampled_from([None, REFILL_WINDOW_DOUBLES]),  # noise window
    )


class TestSchedulerBitIdentity:
    @settings(max_examples=24, deadline=None)
    @given(workloads())
    def test_any_admission_order_matches_standalone_trials(self, workload):
        """The acceptance contract: arbitrary specs, capacities and
        admission pacing, with and without mid-stream noise refills;
        every session == its standalone reference."""
        specs, max_active, gaps, window_doubles = workload
        with pytest.MonkeyPatch.context() as mp:
            if window_doubles is not None:
                mp.setattr(
                    online_module, "NOISE_WINDOW_DOUBLES", window_doubles
                )
            scheduler = MicroBatchScheduler(
                SchedulerConfig(max_active=max_active, max_queue=64)
            )
            sessions = []
            for spec, gap in zip(specs, gaps):
                sessions.append(scheduler.submit(spec))
                for _ in range(gap):
                    scheduler.step()
            scheduler.run_until_idle()
        for session in sessions:
            assert session.state is SessionState.DONE
            assert_session_matches_reference(session)

    def test_staggered_rounds_share_one_batch(self):
        """Sessions admitted mid-flight join batches whose members sit
        at different round indices — and still decode identically."""
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=16))
        early = scheduler.submit(SessionSpec(d=5, p=0.03, seed=11, n_rounds=8))
        for _ in range(4):
            scheduler.step()
        late = scheduler.submit(SessionSpec(d=5, p=0.03, seed=12, n_rounds=8))
        scheduler.run_until_idle()
        assert early.result.n_rounds == late.result.n_rounds == 8
        for session in (early, late):
            assert_session_matches_trial(session)

    def test_recycled_engines_stay_bit_identical(self):
        """Back-to-back dense sessions of one shape reuse batch-engine
        lanes; the second batch must not see any first-batch residue."""
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=4))
        first = [
            scheduler.submit(SessionSpec(d=5, p=0.05, seed=100 + i))
            for i in range(4)
        ]
        scheduler.run_until_idle()
        engine = scheduler._groups[5].engine
        assert engine is not None  # lanes were recycled in place
        second = [
            scheduler.submit(SessionSpec(d=5, p=0.05, seed=200 + i))
            for i in range(4)
        ]
        scheduler.run_until_idle()
        assert scheduler._groups[5].engine is engine
        for session in first + second:
            assert_session_matches_trial(session)

    def test_recycled_scalar_engines_stay_bit_identical(self, monkeypatch):
        """Sessions below BATCH_EVENT_CUTOFF decode on scalar engines
        of their own; back-to-back waves on the same slab rows must
        show no residue of the previous session.  Pin the cutoff high
        so every session takes the scalar path, whatever its event
        rate."""
        import repro.service.scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module, "BATCH_EVENT_CUTOFF", 1e9)
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=4))
        first = [
            scheduler.submit(SessionSpec(d=5, p=0.001, seed=300 + i))
            for i in range(4)
        ]
        scheduler.run_until_idle()
        assert scheduler._groups[5].engine is None  # no batch engine built
        second = [
            scheduler.submit(SessionSpec(d=5, p=0.001, seed=400 + i))
            for i in range(4)
        ]
        scheduler.run_until_idle()
        for session in first + second:
            assert_session_matches_trial(session)


class TestSchedulerLifecycle:
    def test_bad_spec_leaves_co_tenant_bit_identical(self):
        """A spec refused at submit (a float seed, which would raise
        inside the shared step()) leaves its co-tenant bit-identical."""
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=8))
        good = scheduler.submit(SessionSpec(d=5, p=0.03, seed=21, n_rounds=6))
        with pytest.raises(ValueError, match="seed"):
            scheduler.submit(SessionSpec(d=5, p=0.03, seed=1.5, n_rounds=6))
        scheduler.run_until_idle()
        assert scheduler.metrics.submitted == 1
        assert_session_matches_trial(good)

    def test_backpressure_raises_and_counts(self):
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=1, max_queue=2))
        spec = SessionSpec(d=3, p=0.01, seed=1)
        scheduler.submit(spec)
        scheduler.submit(spec)
        with pytest.raises(Backpressure):
            scheduler.submit(spec)
        assert scheduler.metrics.rejected == 1
        assert scheduler.metrics.submitted == 3
        assert scheduler.metrics.snapshot()["drop_rate"] == pytest.approx(1 / 3)

    def test_max_queue_zero_means_no_waiting_not_no_service(self):
        """``max_queue=0`` admits straight into free capacity (submission
        and admission coincide); it only sheds once ``max_active`` fills."""
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=2, max_queue=0))
        a = scheduler.submit(SessionSpec(d=3, p=0.01, seed=21))
        b = scheduler.submit(SessionSpec(d=3, p=0.01, seed=22))
        assert a.state is SessionState.ACTIVE
        assert b.state is SessionState.ACTIVE
        assert scheduler.n_active == 2
        assert scheduler.n_queued == 0
        with pytest.raises(Backpressure, match="max_queue=0"):
            scheduler.submit(SessionSpec(d=3, p=0.01, seed=23))
        assert scheduler.metrics.rejected == 1
        scheduler.run_until_idle()
        for session in (a, b):
            assert_session_matches_trial(session)
        # Capacity freed: submission works again.
        c = scheduler.submit(SessionSpec(d=3, p=0.01, seed=24))
        scheduler.run_until_idle()
        assert_session_matches_trial(c)

    def test_drained_shape_groups_are_lru_bounded(self, monkeypatch):
        """Retired shapes must not leak: beyond ``MAX_IDLE_SHAPES`` the
        oldest drained group — its state slab, batch engine and cached
        lattice — is dropped wholesale."""
        import repro.service.scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module, "MAX_IDLE_SHAPES", 1)
        scheduler = MicroBatchScheduler(
            SchedulerConfig(max_active=8, max_queue=64)
        )
        for d in (3, 5, 7):
            scheduler.submit(SessionSpec(d=d, p=0.01, seed=30 + d))
            scheduler.run_until_idle()
        # Only the most recently drained shape stays warm.
        assert set(scheduler._groups) == {7}
        assert set(scheduler._lattices) == {7}
        # An evicted shape re-admits from scratch, bit-identically.
        revisit = scheduler.submit(SessionSpec(d=3, p=0.01, seed=33))
        scheduler.run_until_idle()
        assert_session_matches_trial(revisit)
        # A shape with live sessions is never evicted, however stale.
        long_lived = scheduler.submit(
            SessionSpec(d=9, p=0.01, seed=39, n_rounds=40)
        )
        for d in (3, 5):
            scheduler.submit(SessionSpec(d=d, p=0.01, seed=50 + d))
        for _ in range(20):  # d=3/d=5 retire and prune; d=9 still live
            scheduler.step()
        assert 9 in scheduler._groups
        assert scheduler._groups[9].sessions
        assert len(scheduler._groups) <= 3  # 9 plus <=1 idle + in-flight
        scheduler.run_until_idle()
        assert_session_matches_trial(long_lived)

    def test_noise_cache_is_bounded(self, monkeypatch):
        """Operating points are client-controlled: past ``_CACHE_BOUND``
        distinct ones the noise-model cache is cleared, not grown, and
        every session still decodes bit-identically."""
        import repro.service.scheduler as scheduler_module

        bound = 3
        monkeypatch.setattr(scheduler_module, "_CACHE_BOUND", bound)
        scheduler = MicroBatchScheduler(
            SchedulerConfig(max_active=4, max_queue=64)
        )
        sessions = [
            scheduler.submit(
                SessionSpec(d=3, p=0.01 + 0.002 * i, seed=60 + i, n_rounds=4)
            )
            for i in range(3 * bound + 1)
        ]
        scheduler.run_until_idle()
        assert 0 < len(scheduler._noise_cache) <= bound
        for session in sessions:
            assert_session_matches_trial(session)

    def test_capacity_bounds_active_sessions(self):
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=2, max_queue=64))
        for i in range(6):
            scheduler.submit(SessionSpec(d=3, p=0.01, seed=i))
        scheduler.step()
        assert scheduler.n_active <= 2
        assert scheduler.pending == 6
        scheduler.run_until_idle()
        assert scheduler.pending == 0
        assert scheduler.metrics.completed == 6

    def test_overflow_retires_mid_stream_and_frees_capacity(self):
        """A starved decoder clock overflows its Reg; the session must
        drop out before its last round, freeing the slot for the queue."""
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=1, max_queue=64))
        starved = scheduler.submit(
            SessionSpec(d=5, p=0.08, seed=3, n_rounds=12, frequency_hz=1.0e6)
        )
        healthy = scheduler.submit(SessionSpec(d=5, p=0.01, seed=4))
        scheduler.run_until_idle()
        assert starved.result.overflow
        assert starved.result.n_rounds < 12
        assert not healthy.result.overflow
        for session in (starved, healthy):
            assert_session_matches_trial(session)
        assert scheduler.metrics.overflowed == 1

    def test_fifo_admission(self):
        clock_t = [0.0]

        def clock():
            clock_t[0] += 1.0
            return clock_t[0]

        scheduler = MicroBatchScheduler(
            SchedulerConfig(max_active=1, max_queue=64), clock=clock
        )
        a = scheduler.submit(SessionSpec(d=3, p=0.0, seed=1))
        b = scheduler.submit(SessionSpec(d=3, p=0.0, seed=2))
        scheduler.run_until_idle()
        assert a.admitted_at < b.admitted_at
        assert a.finished_at <= b.finished_at

    def test_run_until_idle_respects_max_steps(self):
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=4))
        scheduler.submit(SessionSpec(d=5, p=0.01, seed=5, n_rounds=7))
        scheduler.run_until_idle(max_steps=2)
        assert scheduler.pending == 1  # still mid-stream
        scheduler.run_until_idle()
        assert scheduler.pending == 0


class TestWaveAdmission:
    """A step admits its whole queue as one wave: one slab alloc per
    shape, one noise resolution and dispatch estimate per operating
    point, every seed hashed in one pass."""

    @staticmethod
    def mixed_specs():
        seeds = [0, 7, 2**31 + 1, 2**40 + 3, 2**64 + 9, 2**128, 2**130 + 11]
        specs = []
        for i, (d, p, noise, mode, n_rounds) in enumerate([
            (3, 0.0005, None, "online", 3),
            (3, 0.05, "drift", "online", 14),
            (5, 0.01, "depolarizing", "window", 9),
            (5, 0.05, None, "online", 7),
            (7, 0.002, "drift", "window", 4),
            (7, 0.03, None, "online", 7),
            (3, 0.03, "depolarizing", "online", 20),
            (5, 0.0005, "drift", "online", 5),
            (3, 0.05, None, "window", 13),
            (7, 0.05, "drift", "online", 3),
        ] * 2):
            specs.append(SessionSpec(
                d=d, p=p, seed=seeds[i % len(seeds)] + i, n_rounds=n_rounds,
                mode=mode, noise=noise, window=3, commit=1,
                frequency_hz=(2.0e9, None, 0.5e9)[i % 3],
            ))
        return specs

    def test_mixed_wave_matches_references(self, monkeypatch):
        """Distances, operating points, noise families, both modes,
        seeds past 2**128 and streams crossing several refills (a
        window of 1-6 rounds here), all admitted in one step."""
        monkeypatch.setattr(online_module, "NOISE_WINDOW_DOUBLES", 128)
        scheduler = MicroBatchScheduler(
            SchedulerConfig(max_active=64, max_queue=64)
        )
        specs = self.mixed_specs()
        sessions = [scheduler.submit(spec) for spec in specs]
        scheduler.step()
        assert scheduler.n_queued == 0
        assert scheduler.n_active + len(
            [s for s in sessions if s.state is SessionState.DONE]
        ) == len(specs)
        assert any(
            spec.rounds > scheduler._groups[spec.d].block.noise_window
            for spec in specs
        )
        scheduler.run_until_idle()
        for session in sessions:
            assert_session_matches_reference(session)

    def test_one_submit_per_spec_and_one_lane_per_dense_session(
        self, monkeypatch
    ):
        """What the traced e2e ledger counts: ``scheduler.dense_share``
        is lane allocations over submits."""
        calls = {"submit": 0, "alloc_lane": 0}

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(MicroBatchScheduler, "submit")
        counting(QecoolEngineBatch, "alloc_lane")
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=64))
        for i in range(6):
            scheduler.submit(SessionSpec(d=9, p=0.0005, seed=i))
        scheduler.step()
        assert calls == {"submit": 6, "alloc_lane": 0}
        for i in range(4):
            scheduler.submit(SessionSpec(d=9, p=0.005, seed=10 + i))
        scheduler.step()
        assert calls == {"submit": 10, "alloc_lane": 4}
        scheduler.run_until_idle()

    def test_integer_seeds_build_no_generator(self, monkeypatch):
        def refuse(seed):
            raise AssertionError("make_rng called for an integer seed")

        monkeypatch.setattr(online_module, "make_rng", refuse)
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=8))
        sessions = [
            scheduler.submit(SessionSpec(d=5, p=0.03, seed=40 + i))
            for i in range(8)
        ]
        scheduler.run_until_idle()
        monkeypatch.undo()  # the reference trial builds its generator
        for session in sessions:
            assert_session_matches_trial(session)

    def test_co_admitted_long_streams_refill_on_spread_rounds(
        self, monkeypatch
    ):
        """Each stream longer than one window starts with a window
        shortened by its own phase, so 64 streams admitted together do
        not all refill on the same step."""
        refills = []
        fill = online_module.fill_windows

        def recording(block, shots, ks):
            refills.append(sum(k > 0 for k in ks))
            fill(block, shots, ks)

        monkeypatch.setattr(online_module, "fill_windows", recording)
        scheduler = MicroBatchScheduler(
            SchedulerConfig(max_active=64, max_queue=64)
        )
        sessions = [
            scheduler.submit(
                SessionSpec(d=9, p=0.001, seed=500 + i, n_rounds=1000)
            )
            for i in range(64)
        ]
        scheduler.run_until_idle()
        window = scheduler._groups[9].block.noise_window
        assert max(refills) <= math.ceil(64 / window) + 1
        assert sum(refills) >= 64 * (1000 // window - 1)
        for session in sessions:
            assert_session_matches_trial(session)


class TestOperatingPointsShareOneEngine:
    """The batch engine follows the lattice and the operating point
    follows the lane: client-chosen ``thv``/``reg_size`` values key
    nothing the scheduler keeps, so neither a huge ``thv`` nor a sweep
    of distinct operating points can break or bloat the service."""

    @staticmethod
    def hostile_wave():
        good = [
            SessionSpec(d=5, p=0.01, seed=9000 + i, n_rounds=5)
            for i in range(6)
        ]
        return good + [
            SessionSpec(d=5, p=0.01, seed=9006, n_rounds=5, thv=2**63)
        ]

    @staticmethod
    def operating_points():
        """100 one-round dense d=9 sessions, no two at one operating
        point (``thv`` -1..98, ``reg_size`` unbounded or 2..64)."""
        return [
            SessionSpec(
                d=9, p=0.01, seed=9100 + i, n_rounds=1, thv=i - 1,
                reg_size=None if i % 10 == 0 else 1 + i % 64,
            )
            for i in range(100)
        ]

    def test_unbounded_thv_wave_decodes_and_service_stays_up(self):
        """One wave of six dense sessions plus ``thv = 2**63`` (past
        int64): all seven decode bit-identically to ``run_online_trial``
        (whose scalar engine takes the raw ``thv``) and a later decode
        still succeeds."""
        specs = self.hostile_wave()

        async def run():
            config = SchedulerConfig(max_active=16)
            async with DecodeService(config) as service:
                results = await asyncio.gather(*service.submit_wave(specs))
                later = await service.submit(specs[0])
                dense = service.scheduler._groups[5].engine
            return results, later, dense

        results, later, dense = asyncio.run(run())
        assert dense is not None  # the wave rode batch lanes
        for spec, result in zip(specs, results):
            reference = reference_trial(spec)
            assert result.matches == reference.matches, spec
            assert result.layer_cycles == list(reference.layer_cycles), spec
            assert (result.failed, result.overflow, result.n_rounds) == (
                reference.failed, reference.overflow, reference.n_rounds,
            ), spec
        assert later.matches == results[0].matches

    def test_distinct_operating_points_keep_one_engine(self):
        """100 sessions at 100 operating points, one after another: one
        batch engine for the shape group, bounded memory, and every
        session bit-identical to its standalone trial."""
        specs = self.operating_points()
        gc.collect()
        engines_before = sum(
            isinstance(obj, QecoolEngineBatch) for obj in gc.get_objects()
        )
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            scheduler = MicroBatchScheduler(SchedulerConfig())
            sessions = []
            for spec in specs:
                sessions.append(scheduler.submit(spec))
                scheduler.run_until_idle()
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        engines = sum(
            isinstance(obj, QecoolEngineBatch) for obj in gc.get_objects()
        )
        assert set(scheduler._groups) == {9}
        assert scheduler._groups[9].engine is not None
        assert engines - engines_before == 1
        assert grown < 8 * 2**20, f"{grown / 2**20:.1f} MiB"
        for session in sessions:
            assert_session_matches_trial(session)


class TestWindowSessions:
    def test_window_session_equals_direct_decode(self):
        spec = SessionSpec(d=5, p=0.03, seed=21, mode="window", window=4, commit=2)
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=4))
        session = scheduler.submit(spec)
        scheduler.run_until_idle()
        assert_session_matches_reference(session)

    def test_window_and_online_interleave_in_one_batch(self):
        """The satellite contract: window and online sessions of one
        lattice advance through the same scheduler micro-batches, and
        neither mode perturbs the other."""
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=16))
        online = [
            scheduler.submit(SessionSpec(d=5, p=0.03, seed=40 + i))
            for i in range(3)
        ]
        windowed = [
            scheduler.submit(
                SessionSpec(d=5, p=0.03, seed=50 + i, mode="window", window=4)
            )
            for i in range(3)
        ]
        scheduler.step()
        # Same shape group: one micro-batch carried all six sessions.
        assert scheduler.metrics.step_batch_sessions.mean() == 6
        scheduler.run_until_idle()
        for session in online:
            assert_session_matches_trial(session)
        for session in windowed:
            assert_session_matches_reference(session)

    def test_window_sessions_report_no_overflow(self):
        spec = SessionSpec(d=3, p=0.05, seed=9, mode="window")
        scheduler = MicroBatchScheduler()
        session = scheduler.submit(spec)
        scheduler.run_until_idle()
        assert session.result.overflow is False
        assert session.result.mode == "window"


class TestDynamicMembership:
    """advance_streaming_round with hand-managed rosters."""

    def test_join_a_running_batch(self, d5):
        block = StreamingBlock(d5, capacity=4)
        noise = PhenomenologicalNoise(0.03)
        config = SessionSpec(d=5, p=0.03, seed=0).online_config()
        solo = OnlineShot(d5, noise, 6, config, rng=61, block=block)
        running = [solo]
        for _ in range(3):
            running, _ = advance_streaming_round(StreamingRoster(block, running))
        # Admitted mid-stream: the joiner starts at round 0 while the
        # solo shot is at round 3.
        joiner = OnlineShot(d5, noise, 6, config, rng=62, block=block)
        running.append(joiner)
        while running:
            running, _ = advance_streaming_round(StreamingRoster(block, running))
        for shot, seed in ((solo, 61), (joiner, 62)):
            reference = run_online_trial(d5, 0.03, 6, config, rng=seed)
            assert shot.outcome.matches == reference.matches
            assert shot.outcome.layer_cycles == reference.layer_cycles

    def test_shot_from_another_block_rejected(self, d5):
        """A shot whose row indexes a *second* block would alias a row
        of this one's slabs; the roster must refuse, not corrupt."""
        block = StreamingBlock(d5, capacity=4)
        other = StreamingBlock(d5, capacity=4)
        noise = PhenomenologicalNoise(0.02)
        config = SessionSpec(d=5, p=0.02, seed=0).online_config()
        good = OnlineShot(d5, noise, 5, config, rng=1, block=block)
        stray = OnlineShot(d5, noise, 5, config, rng=2, block=other)
        with pytest.raises(ValueError, match="row"):
            StreamingRoster(block, [good, stray])

    def test_lanes_of_two_engines_rejected(self, d5):
        """A roster advances one batch engine: lanes at different
        operating points share it, so a second engine is a caller bug."""
        block = StreamingBlock(d5, capacity=4)
        noise = PhenomenologicalNoise(0.02)
        paper = SessionSpec(d=5, p=0.02, seed=0).online_config()
        eager = SessionSpec(
            d=5, p=0.02, seed=0, thv=-1, reg_size=None
        ).online_config()
        engine, other = QecoolEngineBatch(d5, 2), QecoolEngineBatch(d5, 2)
        shots = [
            OnlineShot(d5, noise, 5, paper, 1, block, batch=engine),
            OnlineShot(d5, noise, 5, eager, 2, block, batch=engine),
        ]
        StreamingRoster(block, shots)  # two operating points, one engine
        stray = OnlineShot(d5, noise, 5, paper, 3, block, batch=other)
        with pytest.raises(ValueError, match="one batch engine"):
            StreamingRoster(block, shots + [stray])

    def test_block_grow_rebinds(self, d5):
        block = StreamingBlock(d5, capacity=2)
        noise = PhenomenologicalNoise(0.02)
        config = SessionSpec(d=5, p=0.02, seed=0).online_config()
        shots = [
            OnlineShot(d5, noise, 5, config, rng=70 + i, block=block)
            for i in range(2)
        ]
        batch, _ = advance_streaming_round(StreamingRoster(block, shots))
        # Grow mid-stream (as the scheduler does on admission overflow).
        block.grow()
        for shot in shots:
            shot.rebind()
        late = OnlineShot(d5, noise, 5, config, rng=72, block=block)
        batch.append(late)
        while batch:
            batch, _ = advance_streaming_round(StreamingRoster(block, batch))
        for shot, seed in zip(shots + [late], (70, 71, 72)):
            reference = run_online_trial(d5, 0.02, 5, config, rng=seed)
            assert shot.outcome.matches == reference.matches
            assert shot.outcome.layer_cycles == reference.layer_cycles


class TestMetrics:
    def test_occupancy_mean_is_exact(self):
        series = _Mean()
        assert series.mean() is None
        values = [(7 * i) % 13 for i in range(10_000)]  # > 4096 adds
        for value in values:
            series.add(value)
        assert series.n == len(values)
        assert series.mean() == sum(values) / len(values)

    def test_snapshot_is_json_safe_when_empty(self):
        import json

        metrics = ServiceMetrics(clock=lambda: 0.0)
        snapshot = metrics.snapshot()
        json.dumps(snapshot, allow_nan=False)  # no NaNs anywhere
        assert snapshot["round_latency_s"]["p50"] is None

    def test_counters_flow_through_scheduler(self):
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=8))
        for i in range(5):
            scheduler.submit(SessionSpec(d=3, p=0.02, seed=i))
        scheduler.run_until_idle()
        snapshot = scheduler.metrics.snapshot()
        assert snapshot["submitted"] == snapshot["admitted"] == 5
        assert snapshot["completed"] == 5
        assert snapshot["rounds_advanced"] >= 5 * 4
        assert snapshot["round_latency_s"]["p50"] is not None
        assert snapshot["throughput_sessions_per_s"] > 0

class TestSnapshotSchema:
    """The exact snapshot contract behind the `metrics` op, the HTTP
    exposition and results schema v3 (docs/OBSERVABILITY.md)."""

    KEYS = {
        "elapsed_s",
        "submitted", "rejected", "admitted", "completed", "failed",
        "overflowed", "steps", "rounds_advanced", "retries",
        "throughput_sessions_per_s", "throughput_rounds_per_s", "drop_rate",
        "round_latency_s", "decode_cycles",
        "mean_batch_sessions", "mean_queue_depth", "mean_active_sessions",
        "mean_wait_s", "mean_service_s",
        "hist", "trace",
    }

    def test_exact_key_set(self):
        """Adding or removing a snapshot field is a schema change:
        update this pin together with docs/SERVING.md section 4 and
        the exposition tables in repro/obs/expo.py."""
        snapshot = ServiceMetrics(clock=lambda: 0.0).snapshot()
        assert set(snapshot) == self.KEYS

    def test_hist_block_covers_hist_fields(self):
        from repro.service.metrics import HIST_FIELDS

        snapshot = ServiceMetrics(clock=lambda: 0.0).snapshot()
        assert set(snapshot["hist"]) == set(HIST_FIELDS)
        for payload in snapshot["hist"].values():
            assert payload["scheme"] == "log10"
            assert payload["n"] == 0

    def _assert_finite_json(self, snapshot):
        import json

        json.dumps(snapshot, allow_nan=False)
        for field in ("throughput_sessions_per_s", "throughput_rounds_per_s",
                      "drop_rate", "elapsed_s"):
            value = snapshot[field]
            assert value == value and abs(value) != float("inf")

    def test_empty_service_has_no_nans(self):
        """Zero submissions, zero elapsed (frozen clock): every ratio is
        zero-division-guarded and every empty distribution is None."""
        snapshot = ServiceMetrics(clock=lambda: 0.0).snapshot()
        self._assert_finite_json(snapshot)
        assert snapshot["drop_rate"] == 0.0
        assert snapshot["throughput_sessions_per_s"] == 0.0
        for triple in (snapshot["round_latency_s"], snapshot["decode_cycles"]):
            assert triple == {"p50": None, "p90": None, "p99": None}
        assert snapshot["mean_wait_s"] is None
        assert snapshot["mean_service_s"] is None
        assert snapshot["mean_batch_sessions"] is None
        assert snapshot["trace"] is None

    def test_all_shed_service_has_no_nans(self):
        """Everything rejected: submitted > 0, nothing ever retired."""
        metrics = ServiceMetrics(clock=lambda: 0.0)
        for _ in range(4):
            metrics.record_submit()
            metrics.record_reject()
        snapshot = metrics.snapshot()
        self._assert_finite_json(snapshot)
        assert snapshot["drop_rate"] == 1.0
        assert snapshot["completed"] == 0
        assert snapshot["mean_wait_s"] is None

    def test_steps_without_retirements_has_no_nans(self):
        """Ticks happened but no session finished (mid-flight scrape)."""
        metrics = ServiceMetrics(clock=lambda: 0.0)
        metrics.record_step(1e-3, 0, queue_depth=0, n_active=0)
        snapshot = metrics.snapshot()
        self._assert_finite_json(snapshot)
        assert snapshot["steps"] == 1
        assert snapshot["round_latency_s"]["p50"] is None  # weight-0 step
        assert snapshot["mean_batch_sessions"] == 0.0

    def test_live_snapshot_is_json_safe(self):
        import json

        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=4, trace=True))
        for i in range(3):
            scheduler.submit(SessionSpec(d=3, p=0.02, seed=400 + i))
        scheduler.run_until_idle()
        snapshot = scheduler.metrics.snapshot()
        json.dumps(snapshot, allow_nan=False)
        assert set(snapshot) == self.KEYS
        assert snapshot["trace"]["seen"] > 0
        assert snapshot["round_latency_s"]["p50"] is not None
        assert snapshot["decode_cycles"]["p50"] is not None


class TestTraceNeutrality:
    """Instrumentation must never change an answer (design rule 2 in
    docs/OBSERVABILITY.md) — and must cost nothing when off."""

    SPECS = [
        SessionSpec(d=3, p=0.03, seed=501, n_rounds=6),
        SessionSpec(d=5, p=0.02, seed=502, n_rounds=5),
        SessionSpec(d=5, p=0.0, seed=503, n_rounds=4),
        SessionSpec(d=7, p=0.05, seed=504, n_rounds=3, thv=3, reg_size=7),
    ]

    def _run(self, **config_kwargs):
        scheduler = MicroBatchScheduler(
            SchedulerConfig(max_active=4, **config_kwargs)
        )
        sessions = [scheduler.submit(spec) for spec in self.SPECS]
        scheduler.run_until_idle()
        return scheduler, [s.result for s in sessions]

    def test_traced_run_bit_identical_to_untraced(self):
        _, plain = self._run()
        traced_scheduler, traced = self._run(trace=True)
        for a, b in zip(plain, traced):
            assert a.failed == b.failed
            assert a.overflow == b.overflow
            assert a.n_rounds == b.n_rounds
            assert a.matches == b.matches
            assert a.layer_cycles == b.layer_cycles
        summary = traced_scheduler.tracer.summary()
        assert summary["seen"] > 0
        assert "scheduler.step" in summary["spans"]

    def test_tracing_off_leaves_no_tracer_anywhere(self):
        scheduler, _ = self._run()
        assert scheduler.tracer is None
        assert scheduler.metrics.tracer is None
        engines = [group.engine for group in scheduler._groups.values()]
        assert any(engines)
        for engine in engines:
            assert engine is None or engine.tracer is None
