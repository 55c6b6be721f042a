"""Tests for experiment-result JSON persistence."""

from __future__ import annotations

import pytest

import json

import numpy as np

from repro.experiments.montecarlo import BatchPoint, OnlinePoint
from repro.experiments.results import (
    load_batch_points,
    load_meta,
    load_online_points,
    load_service_metrics,
    save_points,
    save_service_metrics,
)


class TestRoundTrip:
    def test_batch_points(self, tmp_path):
        points = [
            BatchPoint("qecool", 5, 0.01, 100, 7, n_matches=42, n_deep_vertical=1),
            BatchPoint("mwpm", 7, 0.02, 50, 3),
        ]
        path = tmp_path / "batch.json"
        save_points(path, points)
        loaded = load_batch_points(path)
        assert loaded == points
        assert loaded[0].logical_rate.rate == pytest.approx(0.07)

    def test_online_points(self, tmp_path):
        points = [
            OnlinePoint(9, 0.01, 2e9, 100, 5, 1, layer_cycles=[3, 4, 5]),
            OnlinePoint(5, 0.002, None, 40, 0, 0),
        ]
        path = tmp_path / "online.json"
        save_points(path, points)
        loaded = load_online_points(path)
        assert loaded == points
        assert loaded[0].overflow_rate.rate == pytest.approx(0.01)

    def test_empty_list(self, tmp_path):
        path = tmp_path / "empty.json"
        save_points(path, [])
        assert load_batch_points(path) == []
        assert load_online_points(path) == []

    def test_kind_mismatch_rejected(self, tmp_path):
        path = tmp_path / "batch.json"
        save_points(path, [BatchPoint("qecool", 5, 0.01, 10, 1)])
        with pytest.raises(ValueError, match="online"):
            load_online_points(path)

    def test_unsupported_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_points(tmp_path / "x.json", [object()])

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99, "kind": "batch", "points": []}')
        with pytest.raises(ValueError, match="schema"):
            load_batch_points(path)


class TestSchemaV2:
    def test_meta_block_written(self, tmp_path):
        path = tmp_path / "v2.json"
        save_points(path, [BatchPoint("qecool", 5, 0.01, 10, 1)], noise="ph(p=0.01)")
        payload = json.loads(path.read_text())
        assert payload["schema"] == 3
        assert payload["meta"]["numpy"] == np.__version__
        assert payload["meta"]["noise"] == "ph(p=0.01)"
        assert "git_describe" in payload["meta"]
        meta = load_meta(path)
        assert meta["noise"] == "ph(p=0.01)"

    def test_v1_files_still_load(self, tmp_path):
        """Files written before the meta block (schema 1) stay readable."""
        path = tmp_path / "v1.json"
        point = OnlinePoint(9, 0.01, 2e9, 100, 5, 1, layer_cycles=[3, 4])
        path.write_text(json.dumps({
            "schema": 1,
            "kind": "online",
            "points": [{
                "d": 9, "p": 0.01, "frequency_hz": 2e9, "shots": 100,
                "failures": 5, "overflows": 1, "layer_cycles": [3, 4],
            }],
        }))
        assert load_online_points(path) == [point]
        assert load_meta(path) == {}

    def test_service_metrics_round_trip(self, tmp_path):
        snapshot = {
            "completed": 64, "rejected": 2, "drop_rate": 2 / 66,
            "round_latency_s": {"p50": 1e-3, "p90": 2e-3, "p99": 5e-3},
            "throughput_sessions_per_s": 812.5,
        }
        path = tmp_path / "service.json"
        save_service_metrics(path, snapshot, noise="ph(p=0.001,q=0.001)")
        assert load_service_metrics(path) == snapshot
        assert load_meta(path)["noise"] == "ph(p=0.001,q=0.001)"

    def test_service_metrics_kind_checked(self, tmp_path):
        path = tmp_path / "points.json"
        save_points(path, [BatchPoint("qecool", 5, 0.01, 10, 1)])
        with pytest.raises(ValueError, match="service_metrics"):
            load_service_metrics(path)


class TestSchemaV3:
    """v3: service-metrics files carry histogram/trace payloads plus an
    ``meta.obs`` block describing them; v2 files still load."""

    def _live_snapshot(self, traced: bool = True) -> dict:
        from repro.service.scheduler import MicroBatchScheduler, SchedulerConfig
        from repro.service.session import SessionSpec

        config = SchedulerConfig(trace=traced)
        scheduler = MicroBatchScheduler(config)
        for seed in range(4):
            scheduler.submit(SessionSpec(d=3, p=0.02, seed=7000 + seed))
        scheduler.run_until_idle()
        return scheduler.metrics.snapshot()

    def test_histograms_and_trace_round_trip(self, tmp_path):
        snapshot = self._live_snapshot()
        path = tmp_path / "v3.json"
        save_service_metrics(path, snapshot)
        loaded = load_service_metrics(path)
        # Lossless through JSON: integer bucket counts and the trace
        # aggregates come back exactly (keys restringed by JSON are
        # already strings in the payloads).
        assert loaded["hist"] == snapshot["hist"]
        assert loaded["trace"]["spans"] == snapshot["trace"]["spans"]
        assert loaded["completed"] == snapshot["completed"]
        from repro.obs.hist import LogHistogram

        hist = LogHistogram.from_dict(loaded["hist"]["decode_cycles"])
        assert hist.n == snapshot["completed"]

    def test_obs_meta_block(self, tmp_path):
        snapshot = self._live_snapshot()
        path = tmp_path / "v3.json"
        save_service_metrics(path, snapshot)
        payload = json.loads(path.read_text())
        assert payload["schema"] == 3
        obs = payload["meta"]["obs"]
        assert obs["hist"]["scheme"] == "log10"
        assert "decode_cycles" in obs["hist"]["fields"]
        assert obs["hist"]["buckets_per_decade"] == 10
        assert obs["trace"] == {"sample_every": 64, "capacity": 4096}

    def test_untraced_snapshot_has_no_trace_meta(self, tmp_path):
        snapshot = self._live_snapshot(traced=False)
        path = tmp_path / "v3.json"
        save_service_metrics(path, snapshot)
        obs = json.loads(path.read_text())["meta"]["obs"]
        assert "trace" not in obs
        assert obs["hist"]["scheme"] == "log10"

    def test_v2_service_files_still_load(self, tmp_path):
        """Pre-observability files (no hist/trace, schema 2) stay readable."""
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({
            "schema": 2,
            "kind": "service_metrics",
            "meta": {"numpy": "1.0"},
            "metrics": {
                "completed": 10,
                "round_latency_s": {"p50": 1e-3, "p90": 2e-3, "p99": 3e-3},
            },
        }))
        loaded = load_service_metrics(path)
        assert loaded["completed"] == 10
        assert "hist" not in loaded
