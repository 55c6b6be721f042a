"""Tests for repro.util.rng."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import make_rng, pcg64_states, spawn_rngs


class TestMakeRng:
    def test_from_int_is_deterministic(self):
        a = make_rng(7).random(5)
        b = make_rng(7).random(5)
        assert np.array_equal(a, b)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(1, 5)) == 5

    def test_streams_differ(self):
        a, b = spawn_rngs(1, 2)
        assert not np.array_equal(a.random(8), b.random(8))

    def test_deterministic_across_calls(self):
        a1 = spawn_rngs(9, 3)[2].random(4)
        a2 = spawn_rngs(9, 3)[2].random(4)
        assert np.array_equal(a1, a2)

    def test_prefix_stable_when_n_grows(self):
        small = spawn_rngs(9, 2)
        large = spawn_rngs(9, 6)
        assert np.array_equal(small[0].random(4), large[0].random(4))
        assert np.array_equal(small[1].random(4), large[1].random(4))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_zero_ok(self):
        assert spawn_rngs(0, 0) == []


class TestPcg64States:
    """The wave-admission seeding reimplements numpy's SeedSequence
    mixing and PCG64 set-seed; it must land on numpy's own state."""

    @staticmethod
    def numpy_state(seed):
        state = np.random.PCG64(seed).state["state"]
        return state["state"], state["inc"]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just(0),
                st.integers(0, 2**32 - 1),
                st.integers(2**32, 2**64 - 1),
                st.integers(2**64, 2**128 - 1),
                st.integers(2**128, 2**300),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_states_equal_numpy_for_every_seed_width(self, seeds):
        """One call mixes seeds of 1 to 10 words: the words past the
        pool size are masked per seed."""
        assert pcg64_states(seeds) == [self.numpy_state(s) for s in seeds]

    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128]
    )
    def test_word_boundaries(self, seed):
        assert pcg64_states([seed]) == [self.numpy_state(seed)]

    def test_numpy_integer_seeds(self):
        seeds = [np.int64(7), np.uint64(2**63 + 5)]
        assert pcg64_states(seeds) == [self.numpy_state(int(s)) for s in seeds]

    def test_state_draws_the_seeded_stream(self):
        state, inc = pcg64_states([12345])[0]
        pcg = np.random.PCG64()
        pcg.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        expected = np.random.default_rng(12345).random(16)
        assert np.array_equal(np.random.Generator(pcg).random(16), expected)

    def test_empty_and_negative(self):
        assert pcg64_states([]) == []
        with pytest.raises(ValueError):
            pcg64_states([3, -1])
