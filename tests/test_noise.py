"""Tests for the noise models, the registry and the batched kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.surface_code.noise import (
    BiasedNoise,
    CodeCapacityNoise,
    DepolarizingNoise,
    DriftNoise,
    PhenomenologicalNoise,
    available_noise_models,
    get_noise,
    register_noise,
    sample_code_capacity,
    sample_phenomenological,
)
from repro.surface_code.lattice import PlanarLattice
from repro.util.rng import substream


class TestCodeCapacity:
    def test_zero_probability_is_clean(self, d5, rng):
        assert not CodeCapacityNoise(0.0).sample(d5, rng).any()

    def test_unit_probability_flips_everything(self, d5, rng):
        assert CodeCapacityNoise(1.0).sample(d5, rng).all()

    def test_shape_and_dtype(self, d5, rng):
        sample = CodeCapacityNoise(0.3).sample(d5, rng)
        assert sample.shape == (d5.n_data,)
        assert sample.dtype == np.uint8

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            CodeCapacityNoise(1.5)
        with pytest.raises(ValueError):
            CodeCapacityNoise(-0.1)

    def test_rate_statistics(self, d7):
        rng = np.random.default_rng(0)
        total = sum(
            sample_code_capacity(d7, 0.2, rng).sum() for _ in range(200)
        )
        rate = total / (200 * d7.n_data)
        assert 0.17 < rate < 0.23

    def test_deterministic_for_seed(self, d5):
        a = sample_code_capacity(d5, 0.3, 99)
        b = sample_code_capacity(d5, 0.3, 99)
        assert np.array_equal(a, b)


class TestPhenomenological:
    def test_q_defaults_to_p(self):
        assert PhenomenologicalNoise(0.01).measurement_error_rate == 0.01

    def test_explicit_q(self):
        assert PhenomenologicalNoise(0.01, q=0.02).measurement_error_rate == 0.02

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            PhenomenologicalNoise(0.01, q=2.0)

    def test_sample_round_shapes(self, d5, rng):
        data, meas = PhenomenologicalNoise(0.1).sample_round(d5, rng)
        assert data.shape == (d5.n_data,)
        assert meas.shape == (d5.n_ancillas,)

    def test_multiround_shapes(self, d5, rng):
        data, meas = sample_phenomenological(d5, 0.05, 7, rng)
        assert data.shape == (7, d5.n_data)
        assert meas.shape == (7, d5.n_ancillas)

    def test_zero_rounds_allowed(self, d5, rng):
        data, meas = sample_phenomenological(d5, 0.05, 0, rng)
        assert data.shape[0] == 0

    def test_negative_rounds_rejected(self, d5, rng):
        with pytest.raises(ValueError):
            sample_phenomenological(d5, 0.05, -1, rng)

    def test_measurement_rate_statistics(self, d5):
        rng = np.random.default_rng(3)
        _, meas = sample_phenomenological(d5, 0.1, 500, rng)
        rate = meas.mean()
        assert 0.08 < rate < 0.12

    def test_q_not_p_sampling(self, d5):
        """q != p must decouple the two Bernoulli streams' rates."""
        rng = np.random.default_rng(8)
        data, meas = PhenomenologicalNoise(0.2, q=0.02).sample_rounds(d5, 400, rng)
        assert 0.17 < data.mean() < 0.23
        assert 0.01 < meas.mean() < 0.03

    def test_q_zero_means_perfect_measurement(self, d5, rng):
        _, meas = PhenomenologicalNoise(0.3, q=0.0).sample_rounds(d5, 20, rng)
        assert not meas.any()


ALL_FAMILIES = ("code_capacity", "phenomenological", "biased_x", "biased_z",
                "depolarizing", "drift")


class TestRegistry:
    def test_all_families_registered(self):
        assert set(ALL_FAMILIES) <= set(available_noise_models())

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_round_trip_name_to_model_to_name(self, name):
        model = get_noise(name, p=0.01)
        assert model.name == name
        rebuilt = get_noise(model.name, **model.params())
        assert rebuilt == model
        assert rebuilt.key == model.key

    def test_unknown_name_raises_and_lists_choices(self):
        with pytest.raises(ValueError, match="phenomenological"):
            get_noise("nope", p=0.01)

    def test_bad_parameters_name_the_model(self):
        with pytest.raises(ValueError, match="drift"):
            get_noise("drift", p=0.01, bias=3.0)  # bias is not a drift knob

    def test_code_capacity_rejects_q(self):
        with pytest.raises(ValueError, match="code_capacity"):
            get_noise("code_capacity", p=0.01, q=0.05)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_noise("phenomenological", PhenomenologicalNoise)

    def test_keys_distinguish_families_and_parameters(self):
        keys = {
            get_noise("phenomenological", p=0.01).key,
            get_noise("biased_z", p=0.01).key,
            get_noise("biased_z", p=0.01, bias=3.0).key,
            get_noise("biased_x", p=0.01).key,
            get_noise("drift", p=0.01).key,
            get_noise("drift", p=0.01, ramp=3.0).key,
        }
        assert len(keys) == 6


class TestFamilyExtremes:
    """p = 0 and p = 1 must be exact, not merely statistical."""

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_p_zero_is_clean(self, name, d3, rng):
        data, meas = get_noise(name, p=0.0).sample_rounds(d3, 6, rng)
        assert not data.any() and not meas.any()

    @pytest.mark.parametrize("name", ("code_capacity", "phenomenological"))
    def test_p_one_flips_every_qubit_every_round(self, name, d3, rng):
        data, _ = get_noise(name, p=1.0).sample_rounds(d3, 6, rng)
        assert data.all()

    def test_p_one_phenomenological_flips_measurements_too(self, d3, rng):
        _, meas = PhenomenologicalNoise(1.0).sample_rounds(d3, 6, rng)
        assert meas.all()

    def test_fully_x_biased_at_p_one_flips_everything(self, d3, rng):
        # bias=0 under axis="x" puts the whole budget on the Z axis and
        # vice versa; axis="x" with huge bias converges to the full rate.
        data, _ = BiasedNoise(1.0, bias=1e12, axis="x").sample_rounds(d3, 4, rng)
        assert data.all()

    def test_fully_z_biased_is_invisible_here(self, d3, rng):
        data, meas = BiasedNoise(1.0, q=0.0, bias=1e12, axis="z").sample_rounds(d3, 4, rng)
        assert not data.any() and not meas.any()

    def test_probability_validation(self):
        for bad in (-0.1, 1.5):
            for family in ALL_FAMILIES:
                with pytest.raises(ValueError):
                    get_noise(family, p=bad)

    def test_drift_peak_rate_validated(self):
        with pytest.raises(ValueError):
            DriftNoise(0.6, ramp=2.0)  # final-round rate 1.2 > 1
        with pytest.raises(ValueError):
            DriftNoise(0.01, q=0.9, ramp=2.0)  # q ramps past 1 too


class TestProjectedRates:
    def test_biased_z_visible_rate(self):
        assert BiasedNoise(0.11, bias=10.0, axis="z").visible_rate == pytest.approx(0.01)

    def test_biased_x_visible_rate(self):
        assert BiasedNoise(0.11, bias=10.0, axis="x").visible_rate == pytest.approx(0.1)

    def test_depolarizing_visible_rate(self):
        assert DepolarizingNoise(0.03).visible_rate == pytest.approx(0.02)

    def test_q_defaults_to_visible_rate(self, d5):
        model = BiasedNoise(0.11, bias=10.0, axis="z")
        assert model.rates(3)[1] == pytest.approx([0.01] * 3)

    def test_drift_schedule_ramps_linearly(self):
        model = DriftNoise(0.01, ramp=3.0)
        np.testing.assert_allclose(model.rates(3)[0], [0.01, 0.02, 0.03])
        np.testing.assert_allclose(model.rates(1)[0], [0.01])

    def test_drift_q_ramps_from_q(self):
        model = DriftNoise(0.01, q=0.002, ramp=3.0)
        np.testing.assert_allclose(model.rates(3)[1], [0.002, 0.004, 0.006])


class TestRateWindows:
    """``rates(n, start, stop)`` is exactly that slice of ``rates(n)``:
    callers ask only for the rounds they draw, bit-identically."""

    WINDOWS = (
        (1, 0, 1),  # a one-round experiment
        (1, 1, 1),  # ... and its empty tail
        (7, 6, 7),  # start = n - 1
        (7, 3, 7),  # ends at n
        (7, 2, 5),
        (100_000, 0, 75),
        (100_000, 49_999, 50_001),
        (100_000, 99_925, 100_000),
    )

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    @pytest.mark.parametrize("n,start,stop", WINDOWS)
    def test_window_equals_slice_of_all_rounds(self, name, n, start, stop):
        model = get_noise(name, p=0.0123)
        full = model.rates(n)
        window = model.rates(n, start, stop)
        assert len(full) == len(window) == 2
        for whole, part in zip(full, window):
            assert whole.dtype == part.dtype == np.float64
            assert whole.shape == (n,)
            assert np.array_equal(part, whole[start:stop])
        for whole, tail in zip(full, model.rates(n, start)):
            assert np.array_equal(tail, whole[start:])

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_window_outside_the_experiment_rejected(self, name):
        model = get_noise(name, p=0.0123)
        for start, stop in ((-1, 2), (3, 6), (3, 2)):
            with pytest.raises(ValueError, match="out of range"):
                model.rates(5, start, stop)


class TestSampleRoundBatch:
    """Round-indexed sampling: the round must lie inside the experiment."""

    def test_round_out_of_range_rejected(self):
        lattice = PlanarLattice(3)
        model = PhenomenologicalNoise(0.1)
        for t in (-1, 3, 5):
            with pytest.raises(ValueError, match="out of range"):
                model.sample_round(lattice, rng=1, t=t, n_rounds=3)


class TestBatchedSampling:
    """The batched kernels against the per-shot loop, same seeds."""

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_batched_equals_loop_for_per_shot_substreams(self, name, d3):
        """With per-shot generators, sample_batch must reproduce the
        per-shot sample_rounds loop bit for bit (the executor's
        determinism contract)."""
        model = get_noise(name, p=0.15)
        root = np.random.SeedSequence(77)
        shots, rounds = 9, 4
        data_b, meas_b = model.sample_batch(
            d3, rounds, rng=[substream(root, i) for i in range(shots)],
        )
        for i in range(shots):
            data_i, meas_i = model.sample_rounds(d3, rounds, substream(root, i))
            assert np.array_equal(data_b[i], data_i)
            assert np.array_equal(meas_b[i], meas_i)

    def test_data_batch_equals_single_shot_loop(self, d3):
        model = CodeCapacityNoise(0.3)
        root = np.random.SeedSequence(5)
        errors = model.sample_data_batch(
            d3, rng=[substream(root, i) for i in range(6)],
        )
        for i in range(6):
            assert np.array_equal(errors[i], model.sample(d3, substream(root, i)))

    def test_single_stream_mode_shapes_and_determinism(self, d3):
        model = PhenomenologicalNoise(0.1)
        data, meas = model.sample_batch(d3, 5, shots=7, rng=123)
        assert data.shape == (7, 5, d3.n_data)
        assert meas.shape == (7, 5, d3.n_ancillas)
        data2, _ = model.sample_batch(d3, 5, shots=7, rng=123)
        assert np.array_equal(data, data2)

    def test_single_stream_mode_requires_shots(self, d3):
        with pytest.raises(ValueError, match="shots"):
            PhenomenologicalNoise(0.1).sample_batch(d3, 5, rng=123)

    def test_shots_mismatch_with_generator_list_rejected(self, d3):
        rngs = [np.random.default_rng(i) for i in range(3)]
        with pytest.raises(ValueError, match="generators"):
            PhenomenologicalNoise(0.1).sample_batch(d3, 2, shots=5, rng=rngs)

    def test_zero_shots_allowed(self, d3):
        data, meas = PhenomenologicalNoise(0.1).sample_batch(d3, 3, shots=0, rng=1)
        assert data.shape == (0, 3, d3.n_data)

    def test_drift_batch_rates_vary_by_round(self, d3):
        data, _ = DriftNoise(0.05, ramp=4.0).sample_batch(d3, 8, shots=400, rng=2)
        first, last = data[:, 0, :].mean(), data[:, -1, :].mean()
        assert last > 2.5 * first  # ramp=4 modulo sampling noise
