"""Golden-value regression pins for the seeded Monte-Carlo runners.

These values were produced by the sharded executor's per-shot-substream
scheme (every shot's generator is ``SeedSequence(seed)``'s child at the
shot's index).  They pin the *exact* seeded outputs of small points so
a future refactor of the executor, the noise samplers or the decoders
cannot silently shift seeded results: any legitimate change to the
stream layout must update these constants in the same commit, making
the break visible in review.

Chunking/parallelism invariance (the other half of the determinism
contract) is covered in ``tests/test_executor.py``; these pins anchor
the absolute values.
"""

from __future__ import annotations

from repro.core.decoder import QecoolDecoder
from repro.core.online import OnlineConfig, run_online_trial
from repro.decoders.mwpm import MwpmDecoder
from repro.experiments.executor import PointCache
from repro.experiments.montecarlo import (
    run_batch_point,
    run_code_capacity_point,
    run_online_point,
)
from repro.surface_code.lattice import PlanarLattice


class TestGoldenCodeCapacity:
    def test_qecool_d5(self):
        point = run_code_capacity_point(QecoolDecoder(), 5, 0.08, 40, rng=2021)
        assert point.failures == 5
        assert point.shots == 40


class TestGoldenBatch:
    def test_qecool_d3(self):
        point = run_batch_point(QecoolDecoder(), 3, 0.05, 30, rng=1234)
        assert (point.failures, point.n_matches, point.n_deep_vertical) == (8, 88, 0)

    def test_mwpm_d3(self):
        point = run_batch_point(MwpmDecoder(), 3, 0.05, 30, rng=1234)
        assert (point.failures, point.n_matches, point.n_deep_vertical) == (7, 86, 0)

    def test_same_seed_pairs_noise_across_decoders(self):
        # The ordering ablation's contract: one integer seed names one
        # noise realisation, whatever decoder consumes it.
        a = run_batch_point(QecoolDecoder(), 3, 0.05, 30, rng=1234)
        b = run_batch_point(MwpmDecoder(), 3, 0.05, 30, rng=1234)
        assert a.shots == b.shots == 30  # paired budgets, pinned above


class TestGoldenOnline:
    def test_unbounded_clock_with_cycles(self):
        point = run_online_point(
            3, 0.02, 25, OnlineConfig(), rng=99,
            n_rounds=5, keep_layer_cycles=True,
        )
        assert (point.failures, point.overflows) == (1, 0)
        assert len(point.layer_cycles) == 25 * 6
        assert sum(point.layer_cycles) == 1068

    def test_unconstrained_clock_on_batch_lanes(self):
        # ``frequency_hz=None``: no cycle deadline at all (the default
        # config above is the 2 GHz clock).
        point = run_online_point(
            3, 0.02, 25, OnlineConfig(frequency_hz=None), rng=99,
            n_rounds=5, keep_layer_cycles=True,
        )
        assert (point.failures, point.overflows) == (1, 0)
        assert len(point.layer_cycles) == 25 * 6
        assert sum(point.layer_cycles) == 1068

    def test_unconstrained_clock_scalar_trial(self):
        outcome = run_online_trial(
            PlanarLattice(5), 0.03, 8, OnlineConfig(frequency_hz=None), rng=11
        )
        assert (outcome.failed, outcome.overflow) == (False, False)
        assert len(outcome.matches) == 17
        assert sum(outcome.layer_cycles) == 360

    def test_finite_clock(self):
        point = run_online_point(
            5, 0.01, 15, OnlineConfig(frequency_hz=0.5e9), rng=7
        )
        assert (point.failures, point.overflows) == (0, 0)
        assert point.frequency_hz == 0.5e9

    def test_jobs_do_not_move_the_pins(self):
        point = run_online_point(
            3, 0.02, 25, OnlineConfig(), rng=99,
            n_rounds=5, keep_layer_cycles=True, jobs=2, chunk_size=4,
        )
        assert (point.failures, point.overflows) == (1, 0)
        assert sum(point.layer_cycles) == 1068


class TestGoldenNoiseScenarios:
    """Seeded pins for registered non-default noise families.

    These anchor the registry plumbing the same way the pins above
    anchor the default models: a stream-layout change under ``--noise``
    must update these constants in the same commit.
    """

    def test_explicit_default_name_matches_implicit_default(self):
        implicit = run_batch_point(QecoolDecoder(), 3, 0.05, 30, rng=1234)
        explicit = run_batch_point(
            QecoolDecoder(), 3, 0.05, 30, rng=1234, noise="phenomenological",
        )
        assert (implicit.failures, implicit.n_matches) == (
            explicit.failures, explicit.n_matches,
        )

    def test_biased_z_sees_fewer_failures_than_default(self):
        # Same seed, same total rate: the Z-biased model hides most
        # flips from this sector, so it cannot fail more often.
        default = run_batch_point(QecoolDecoder(), 3, 0.05, 30, rng=1234)
        biased = run_batch_point(
            QecoolDecoder(), 3, 0.05, 30, rng=1234,
            noise="biased_z", noise_params={"bias": 10.0},
        )
        assert biased.failures <= default.failures
        assert biased.n_matches < default.n_matches

    def test_drift_online_is_seed_stable(self):
        a = run_online_point(
            3, 0.02, 25, OnlineConfig(), rng=99, n_rounds=5,
            noise="drift", noise_params={"ramp": 3.0},
        )
        b = run_online_point(
            3, 0.02, 25, OnlineConfig(), rng=99, n_rounds=5,
            noise="drift", noise_params={"ramp": 3.0}, jobs=2, chunk_size=4,
        )
        assert (a.failures, a.overflows) == (b.failures, b.overflows)

    def test_noise_models_get_distinct_cache_keys(self, tmp_path):
        """Acceptance: biased/drift points never collide with the
        default model's cache entries at identical coordinates."""
        cache = PointCache(tmp_path)
        kwargs = dict(shots=12, rng=7, cache=cache)
        run_batch_point(QecoolDecoder(), 3, 0.05, **kwargs)
        run_batch_point(
            QecoolDecoder(), 3, 0.05,
            noise="biased_z", noise_params={"bias": 10.0}, **kwargs,
        )
        run_batch_point(
            QecoolDecoder(), 3, 0.05,
            noise="drift", noise_params={"ramp": 3.0}, **kwargs,
        )
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_cache_roundtrip_under_custom_noise(self, tmp_path):
        cache = PointCache(tmp_path)
        kwargs = dict(
            shots=12, rng=7, cache=cache,
            noise="biased_z", noise_params={"bias": 10.0},
        )
        first = run_batch_point(QecoolDecoder(), 3, 0.05, **kwargs)
        again = run_batch_point(QecoolDecoder(), 3, 0.05, **kwargs)
        assert len(list(tmp_path.glob("*.json"))) == 1
        assert (first.failures, first.n_matches) == (again.failures, again.n_matches)
