"""Tests for the benchmark's pure parts (no server is started).

    python3 -m pytest e2ebench/tests -q
"""

import numpy as np
import pytest

from spans import SpanRecorder, merge_self_times, self_times
from workloads import (
    WORKLOADS,
    Population,
    highest_percentile,
    percentile,
    supports_percentile,
    window_rate,
)


# ----------------------------------------------------------------------
# Populations and schedules
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_population_is_a_function_of_the_seed(name):
    workload = WORKLOADS[name]
    a = Population(workload, 7).specs(0, 300)
    b = Population(workload, 7)
    assert [b.spec(i) for i in reversed(range(300))][::-1] == a
    assert Population(workload, 8).specs(0, 300) != a
    assert {(s["d"], s["p"], s["n_rounds"]) for s in a} == {(9, workload.p, 9)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_session_of_a_run_has_its_own_seed(name):
    workload = WORKLOADS[name]
    seeds = [
        spec["seed"]
        for stream in ("timed", "warmup", "setup")
        for spec in Population(workload, 3, stream).specs(0, 50_000)
    ]
    assert len(set(seeds)) == len(seeds)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_keeps_ten_samples_beyond_it():
    assert supports_percentile(1000, 99) and not supports_percentile(999, 99)
    assert highest_percentile(10_000) == 99.9
    assert highest_percentile(9_999) == 99.0
    assert highest_percentile(100) == 90.0
    assert highest_percentile(19) is None
    values = np.arange(1, 1001, dtype=float)
    p99 = percentile(values, 99)
    assert (values > p99).sum() == 10
    assert percentile(values, 50) == 500.0
    with pytest.raises(ValueError):
        percentile(values[:999], 99)


def test_window_rate_spreads_waves_over_the_window():
    # 64-session waves back to back, one a second, over a 30 s window.
    waves = [(t, t + 1.0, 64) for t in range(0, 30)]
    assert window_rate(waves, 0.0, 30.0) == pytest.approx(64.0)
    # The last third slowed to half rate: the mean over the window feels it.
    slow = [(t, t + 1.0, 64) for t in range(0, 20)] + [(t, t + 2.0, 64) for t in range(20, 30, 2)]
    assert window_rate(slow, 0.0, 30.0) == pytest.approx(64.0 * 25 / 30)
    # A wave straddling an edge counts in proportion to its overlap.
    assert window_rate([(29.5, 30.5, 20)], 0.0, 30.0) == pytest.approx(10.0 / 30.0)
    with pytest.raises(ValueError):
        window_rate(waves, 1.0, 1.0)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def _nested_spans():
    # step [0, 100) > advance_round [10, 90) > batch_decode [20, 50),
    # syndrome_of_batch [60, 70); a second step [200, 230) with no children.
    return [
        (2, 1, "engine.batch_decode", 20.0, 50.0),
        (3, 1, "lattice.syndrome_batch", 60.0, 70.0),
        (1, 0, "online.advance_round", 10.0, 90.0),
        (0, -1, "scheduler.step", 0.0, 100.0),
        (4, -1, "scheduler.step", 200.0, 230.0),
    ]


def test_self_time_subtracts_direct_children_only():
    rows = self_times(_nested_spans())
    assert rows["scheduler.step"] == {"self_s": 20.0 + 30.0, "total_s": 130.0, "calls": 2}
    assert rows["online.advance_round"]["self_s"] == 80.0 - 30.0 - 10.0
    assert rows["engine.batch_decode"]["self_s"] == 30.0
    assert rows["lattice.syndrome_batch"]["self_s"] == 10.0
    # Self times of a fully nested tree add up to the roots' durations.
    assert sum(r["self_s"] for r in rows.values()) == 130.0


def test_self_time_window_counts_spans_that_start_inside_it():
    rows = self_times(_nested_spans(), start=15.0, end=150.0)
    assert "scheduler.step" not in rows and "online.advance_round" not in rows
    assert rows["engine.batch_decode"]["calls"] == 1
    assert rows["lattice.syndrome_batch"]["calls"] == 1


def test_merge_self_times_sums_processes():
    rows = merge_self_times([self_times(_nested_spans()), self_times(_nested_spans())])
    assert rows["scheduler.step"]["calls"] == 4
    assert rows["engine.batch_decode"]["self_s"] == 60.0


def test_recorder_nests_wrapped_calls(tmp_path):
    ticks = iter(range(100))
    recorder = SpanRecorder(tmp_path, clock=lambda: float(next(ticks)))

    class Layer:
        def step(self):
            return self.advance() + 1

        def advance(self):
            return 41

        @classmethod
        def build(cls, value):
            return value

    recorder.wrap(Layer, "step", "scheduler.step")
    recorder.wrap(Layer, "advance", "online.advance_round")
    recorder.wrap(Layer, "build", "session.from_payload")
    assert Layer().step() == 42
    assert Layer.build(3) == 3
    spans = {name: (span_id, parent) for span_id, parent, name, *_ in recorder.spans}
    assert spans["online.advance_round"][1] == spans["scheduler.step"][0]
    assert spans["scheduler.step"][1] == -1 and spans["session.from_payload"][1] == -1
    path = recorder.flush()
    rows = self_times([tuple(s) for s in recorder.spans])
    assert rows["scheduler.step"]["self_s"] == 2.0  # 0..3 minus the child's 1..2
    assert path.read_text().count("\n") == 3
