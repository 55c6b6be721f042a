"""Tests for the streaming decode service (sessions, scheduler, metrics).

The load-bearing contract is **scheduler bit-identity**: whatever the
admission order, capacity, queueing and co-tenants, every online
session's match stream, correction stream and cycle accounting is
bit-identical to a standalone ``run_online_trial`` on the same seed
(property-tested across d in {3,5,7} and thv in {-1,3} below; see
``tests/README.md``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.online import OnlineShot, StreamingBlock, advance_streaming_round, run_online_trial
from repro.core.window import SlidingWindowDecoder
from repro.service import (
    Backpressure,
    MicroBatchScheduler,
    SchedulerConfig,
    SessionSpec,
    SessionState,
)
from repro.service.metrics import ServiceMetrics, _Mean
from repro.surface_code.lattice import PlanarLattice
from repro.surface_code.noise import PhenomenologicalNoise
from repro.surface_code.syndrome import detection_events
from repro.util.rng import make_rng


def reference_trial(spec: SessionSpec):
    """The standalone decode a session must reproduce bit for bit."""
    return run_online_trial(
        PlanarLattice(spec.d), spec.p, spec.rounds, spec.online_config(),
        rng=spec.seed, q=spec.q,
    )


def assert_session_matches_trial(session):
    spec = session.spec
    reference = reference_trial(spec)
    result = session.result
    assert result.failed == reference.failed
    assert result.overflow == reference.overflow
    assert result.n_rounds == reference.n_rounds
    assert result.matches == reference.matches
    assert result.layer_cycles == list(reference.layer_cycles)


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
        assert SessionSpec.from_payload(spec.to_payload()) == spec

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
    ])
    def test_validation(self, bad):
        spec = SessionSpec(**{"d": 5, "p": 0.01, "seed": 1, **bad})
        with pytest.raises(ValueError):
            spec.validate()

    def test_unbounded_reg_accepts_max_layer_budget(self):
        SessionSpec(d=5, p=0.01, seed=1, reg_size=None, n_rounds=63).validate()


def workloads():
    """Mixed-shape session workloads with arbitrary admission pacing."""
    spec = st.builds(
        SessionSpec,
        d=st.sampled_from([3, 5, 7]),
        p=st.sampled_from([0.0, 0.01, 0.03, 0.08]),
        seed=st.integers(0, 2**31 - 1),
        n_rounds=st.integers(1, 7),
        thv=st.sampled_from([-1, 3]),
        reg_size=st.sampled_from([7, None]),
        frequency_hz=st.sampled_from([2.0e9, 0.5e9, 1.0e6, None]),
    )
    return st.tuples(
        st.lists(spec, min_size=1, max_size=8),
        st.integers(1, 8),                      # max_active
        st.lists(st.integers(0, 3), min_size=8, max_size=8),  # steps between submits
    )


class TestSchedulerBitIdentity:
    @settings(max_examples=12, deadline=None)
    @given(workloads())
    def test_any_admission_order_matches_standalone_trials(self, workload):
        """The acceptance contract: arbitrary specs, capacities and
        admission pacing; every session == its standalone trial."""
        specs, max_active, gaps = workload
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
            assert_session_matches_trial(session)

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
        assert scheduler._engine_pool  # lanes were recycled in place
        second = [
            scheduler.submit(SessionSpec(d=5, p=0.05, seed=200 + i))
            for i in range(4)
        ]
        scheduler.run_until_idle()
        for session in first + second:
            assert_session_matches_trial(session)

    def test_recycled_scalar_engines_stay_bit_identical(self, monkeypatch):
        """Sessions below BATCH_EVENT_CUTOFF dispatch to pooled scalar
        engines; a recycled (reset) engine must show no residue of its
        previous session.  The production cutoff is 0 (everything rides
        the batch engine), so pin it high to force the scalar path."""
        import repro.service.scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module, "BATCH_EVENT_CUTOFF", 1e9)
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=4))
        first = [
            scheduler.submit(SessionSpec(d=5, p=0.001, seed=300 + i))
            for i in range(4)
        ]
        scheduler.run_until_idle()
        assert scheduler._scalar_pool  # scalar engines were recycled
        assert not scheduler._engine_pool  # ... and no batch engine built
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

    def test_drained_shape_groups_are_lru_bounded(self):
        """Retired shapes must not leak: beyond ``max_idle_shapes`` the
        oldest drained group — its state slab, cached lattice and engine
        pools — is dropped wholesale."""
        scheduler = MicroBatchScheduler(
            SchedulerConfig(max_active=8, max_queue=64, max_idle_shapes=1)
        )
        for d in (3, 5, 7):
            scheduler.submit(SessionSpec(d=d, p=0.01, seed=30 + d))
            scheduler.run_until_idle()
        # Only the most recently drained shape stays warm.
        assert set(scheduler._groups) == {7}
        assert set(scheduler._lattices) == {7}
        assert all(key[0] == 7 for key in scheduler._engine_pool)
        assert all(key[0] == 7 for key in scheduler._scalar_pool)
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


class TestWindowSessions:
    def window_reference(self, spec: SessionSpec):
        """Direct sliding-window decode on the session's noise stream."""
        lattice = PlanarLattice(spec.d)
        noise = PhenomenologicalNoise(spec.p, spec.q)
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

    def test_window_session_equals_direct_decode(self):
        spec = SessionSpec(d=5, p=0.03, seed=21, mode="window", window=4, commit=2)
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=4))
        session = scheduler.submit(spec)
        scheduler.run_until_idle()
        reference, final_error = self.window_reference(spec)
        assert session.result.matches == reference.matches
        assert session.result.cycles == reference.cycles
        from repro.surface_code.logical import logical_failure

        lattice = PlanarLattice(spec.d)
        assert session.result.failed == logical_failure(
            lattice, final_error, reference.correction
        )

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
            reference, _ = self.window_reference(session.spec)
            assert session.result.matches == reference.matches

    def test_window_sessions_report_no_overflow(self):
        spec = SessionSpec(d=3, p=0.05, seed=9, mode="window")
        scheduler = MicroBatchScheduler()
        session = scheduler.submit(spec)
        scheduler.run_until_idle()
        assert session.result.overflow is False
        assert session.result.mode == "window"


class TestDynamicMembership:
    """advance_streaming_round with hand-managed membership."""

    def test_join_a_running_batch(self, d5):
        noise = PhenomenologicalNoise(0.03)
        config = SessionSpec(d=5, p=0.03, seed=0).online_config()
        solo = OnlineShot(d5, noise, 6, config, rng=61)
        batch = [solo]
        for _ in range(3):
            batch, _ = advance_streaming_round(d5, batch)
        joiner = OnlineShot(d5, noise, 6, config, rng=62)
        batch.append(joiner)
        while batch:
            batch, _ = advance_streaming_round(d5, batch)
        for shot, seed in ((solo, 61), (joiner, 62)):
            reference = run_online_trial(d5, 0.03, 6, config, rng=seed)
            assert shot.outcome.matches == reference.matches
            assert shot.outcome.layer_cycles == reference.layer_cycles

    def test_blockless_shot_in_slab_batch_rejected(self, d5):
        """A block-less shot (row == -1) passed with block= would alias
        the slab's last row; the advance must refuse, not corrupt."""
        block = StreamingBlock(d5, capacity=4)
        noise = PhenomenologicalNoise(0.02)
        config = SessionSpec(d=5, p=0.02, seed=0).online_config()
        good = OnlineShot(d5, noise, 5, config, rng=1, block=block)
        stray = OnlineShot(d5, noise, 5, config, rng=2)  # private rows
        with pytest.raises(ValueError, match="row"):
            advance_streaming_round(d5, [good, stray], block=block)

    def test_block_grow_rebinds(self, d5):
        block = StreamingBlock(d5, capacity=2)
        noise = PhenomenologicalNoise(0.02)
        config = SessionSpec(d=5, p=0.02, seed=0).online_config()
        shots = [
            OnlineShot(d5, noise, 5, config, rng=70 + i, block=block)
            for i in range(2)
        ]
        batch = list(shots)
        batch, _ = advance_streaming_round(d5, batch, block=block)
        # Grow mid-stream (as the scheduler does on admission overflow).
        block.grow()
        for shot in shots:
            shot.rebind()
        late = OnlineShot(d5, noise, 5, config, rng=72, block=block)
        batch.append(late)
        while batch:
            batch, _ = advance_streaming_round(d5, batch, block=block)
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
        traced_scheduler, traced = self._run(trace=True, trace_sample=1)
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
        for batch in scheduler._engine_pool.values():
            assert batch.tracer is None
        for pool in scheduler._scalar_pool.values():
            for engine in pool:
                assert engine.tracer is None
