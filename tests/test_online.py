"""Tests for the online-QEC simulator."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.online as online
from repro.core.online import OnlineConfig, run_online_trial
from repro.surface_code.lattice import PlanarLattice

REFILL_WINDOWS = (online.NOISE_WINDOW_DOUBLES, 128)
"""The default noise window, and one of 2 rounds at d = 5 that a
5-round stream refills twice."""


class TestOnlineConfig:
    def test_cycles_per_interval(self):
        config = OnlineConfig(frequency_hz=2e9, measurement_interval_s=1e-6)
        assert config.cycles_per_interval == 2000

    def test_unconstrained(self):
        assert OnlineConfig(frequency_hz=None).cycles_per_interval == float("inf")

    def test_paper_defaults(self):
        config = OnlineConfig()
        assert config.thv == 3
        assert config.reg_size == 7
        assert config.measurement_interval_s == 1e-6


class TestOnlineTrial:
    def test_noiseless_never_fails(self, d5):
        for freq in (None, 2e9, 0.5e9):
            outcome = run_online_trial(
                d5, p=0.0, n_rounds=5, config=OnlineConfig(frequency_hz=freq), rng=1
            )
            assert not outcome.failed
            assert not outcome.overflow

    def test_noiseless_pops_every_layer(self, d5):
        outcome = run_online_trial(
            d5, p=0.0, n_rounds=5, config=OnlineConfig(frequency_hz=None), rng=1
        )
        # n_rounds noisy layers + the final perfect layer all popped.
        assert len(outcome.layer_cycles) == 6

    def test_rejects_zero_rounds(self, d5):
        with pytest.raises(ValueError):
            run_online_trial(d5, p=0.01, n_rounds=0)

    def test_deterministic_for_seed(self, d5):
        a = run_online_trial(d5, 0.02, 5, OnlineConfig(), rng=42)
        b = run_online_trial(d5, 0.02, 5, OnlineConfig(), rng=42)
        assert a.failed == b.failed
        assert a.matches == b.matches
        assert a.layer_cycles == b.layer_cycles

    def test_residual_syndrome_always_clean(self, d5):
        """run_online_trial's final logical check raises on a dirty
        residual; many random trials exercising matching + compensation
        must never trigger it."""
        rng = np.random.default_rng(7)
        for _ in range(40):
            run_online_trial(d5, 0.03, 5, OnlineConfig(), rng=rng)

    def test_starved_decoder_overflows(self, d5):
        """A decoder clocked absurdly slowly cannot keep up with a noisy
        stream and must hit Reg overflow."""
        config = OnlineConfig(frequency_hz=1e6)  # 1 cycle per layer
        rng = np.random.default_rng(3)
        outcomes = [
            run_online_trial(d5, 0.05, 10, config, rng=rng) for _ in range(20)
        ]
        assert any(o.overflow for o in outcomes)
        for o in outcomes:
            if o.overflow:
                assert o.failed
                assert not o.logical_failed  # overflow is not a matching failure

    def test_overflow_rate_monotone_in_frequency(self):
        lattice = PlanarLattice(9)
        rates = []
        for freq in (5e7, 2e8, 2e9):
            rng = np.random.default_rng(11)
            overflows = sum(
                run_online_trial(
                    lattice, 0.01, 9, OnlineConfig(frequency_hz=freq), rng=rng
                ).overflow
                for _ in range(25)
            )
            rates.append(overflows)
        assert rates[0] >= rates[1] >= rates[2]
        assert rates[0] > 0
        assert rates[2] == 0

    def test_low_noise_mostly_succeeds(self, d5):
        rng = np.random.default_rng(5)
        failures = sum(
            run_online_trial(d5, 0.001, 5, OnlineConfig(), rng=rng).failed
            for _ in range(50)
        )
        assert failures <= 2

    def test_matches_carry_absolute_times(self, d5):
        rng = np.random.default_rng(9)
        outcome = run_online_trial(
            d5, 0.05, 6, OnlineConfig(frequency_hz=None), rng=rng
        )
        for match in outcome.matches:
            for (_, _, t) in match.endpoints():
                assert 0 <= t <= 6  # within the 7 pushed layers


class TestOnlineChunk:
    """run_online_chunk must be bit-identical to per-shot trials."""

    @pytest.mark.parametrize("freq", [None, 2e9, 0.5e9])
    def test_chunk_matches_per_shot_trials(self, d5, freq, monkeypatch):
        from repro.core.online import run_online_chunk
        from repro.util.rng import substream

        config = OnlineConfig(frequency_hz=freq)
        root = np.random.SeedSequence(31)
        rngs = lambda: [substream(root, i) for i in range(12)]
        singles = [
            run_online_trial(d5, 0.04, 5, config, rng) for rng in rngs()
        ]
        for window_doubles in REFILL_WINDOWS:
            monkeypatch.setattr(online, "NOISE_WINDOW_DOUBLES", window_doubles)
            chunk = run_online_chunk(d5, 0.04, 5, config, rngs())
            for a, b in zip(chunk, singles):
                assert a.failed == b.failed
                assert a.overflow == b.overflow
                assert a.n_rounds == b.n_rounds
                assert a.matches == b.matches
                assert a.layer_cycles == b.layer_cycles

    def test_chunk_overflow_paths_match(self):
        """A starved clock overflows some shots; the batch must drop
        them at the identical round with identical partial state."""
        from repro.core.online import run_online_chunk
        from repro.util.rng import substream

        lattice = PlanarLattice(5)
        config = OnlineConfig(frequency_hz=1e6)
        root = np.random.SeedSequence(77)
        rngs = lambda: [substream(root, i) for i in range(16)]
        chunk = run_online_chunk(lattice, 0.05, 10, config, rngs())
        singles = [
            run_online_trial(lattice, 0.05, 10, config, rng) for rng in rngs()
        ]
        assert any(o.overflow for o in singles), "operating point must overflow"
        for a, b in zip(chunk, singles):
            assert (a.failed, a.overflow, a.n_rounds) == (
                b.failed, b.overflow, b.n_rounds,
            )
            assert a.matches == b.matches

    def test_chunk_with_noise_model(self, d5, monkeypatch):
        from repro.core.online import run_online_chunk
        from repro.surface_code.noise import get_noise
        from repro.util.rng import substream

        noise = get_noise("drift", p=0.03, ramp=3.0)
        root = np.random.SeedSequence(13)
        rngs = lambda: [substream(root, i) for i in range(8)]
        singles = [
            run_online_trial(d5, noise, 5, OnlineConfig(), rng) for rng in rngs()
        ]
        for window_doubles in REFILL_WINDOWS:
            monkeypatch.setattr(online, "NOISE_WINDOW_DOUBLES", window_doubles)
            chunk = run_online_chunk(d5, noise, 5, OnlineConfig(), rngs())
            for a, b in zip(chunk, singles):
                assert a.matches == b.matches
                assert a.failed == b.failed


class TestNoiseWindow:
    def test_long_streams_retain_nothing_after_release(self):
        """Shots of distinct lengths near ``MAX_ROUNDS`` leave no memory
        behind once released: a slab row holds one window of noise,
        refilled from the shot's own generator, and nothing is cached
        per ``(noise, n_rounds)``."""
        import gc
        import tracemalloc

        from repro.core.online import StreamingBlock, StreamingShotState
        from repro.service.session import MAX_ROUNDS
        from repro.surface_code.noise import get_noise

        lattice = PlanarLattice(3)
        noise = get_noise("drift", p=0.0123, ramp=1.5)
        block = StreamingBlock(lattice, capacity=1)

        def build_and_release(n_rounds):
            shot = StreamingShotState(lattice, noise, n_rounds, n_rounds, block)
            block.release(shot.row)

        build_and_release(MAX_ROUNDS)  # size the block's window slabs
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            retained = []
            for n_rounds in range(MAX_ROUNDS - 1, MAX_ROUNDS - 6, -1):
                build_and_release(n_rounds)
                gc.collect()
                retained.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()
        # A per-round table for one such length would be ~10 MiB.
        assert retained[-1] - retained[0] < 256 * 1024, retained
        assert retained[-1] < 1 << 20, retained

    def test_rate_requests_scale_with_the_window(self, monkeypatch):
        """Refill, admission dispatch and the per-round reference ask the
        noise model only for the rounds they use, never for all
        ``n_rounds``: a 100 000-round stream costs its window."""
        import repro.service.scheduler as scheduler_module
        from repro.core.online import (
            OnlineShot,
            StreamingBlock,
            StreamingRoster,
            advance_streaming_round,
        )
        from repro.service import MicroBatchScheduler, SessionSpec
        from repro.surface_code.noise import DriftNoise

        lengths: list[int] = []

        class RecordingDrift(DriftNoise):
            def rates(self, n_rounds, start=0, stop=None):
                data, meas = super().rates(n_rounds, start, stop)
                lengths.append(len(data))
                return data, meas

        n_rounds = 100_000
        noise = RecordingDrift(0.001)
        lattice = PlanarLattice(9)

        block = StreamingBlock(lattice, capacity=1)
        shot = OnlineShot(lattice, noise, n_rounds, OnlineConfig(None), 1, block)
        roster = StreamingRoster(block, [shot])
        for _ in range(3 * block.noise_window + 1):  # three refills
            running, _ = advance_streaming_round(roster)
            assert running == [shot]
        assert len(lengths) == 4
        assert max(lengths) <= block.noise_window

        lengths.clear()
        monkeypatch.setattr(scheduler_module, "resolve_noise", lambda *a, **k: noise)
        scheduler = MicroBatchScheduler()
        scheduler.submit(SessionSpec(d=9, p=0.001, seed=2, n_rounds=n_rounds))
        scheduler.step()  # admits, then advances round 0
        dispatch, refill = lengths  # the estimate, then the first window
        assert dispatch <= 2
        assert refill <= scheduler._groups[9].block.noise_window

        lengths.clear()
        noise.sample_round(lattice, 3, t=n_rounds // 2, n_rounds=n_rounds)
        assert lengths == [1]
