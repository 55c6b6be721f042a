"""Unit tests for the observability package (`repro.obs`).

The contract under test (docs/OBSERVABILITY.md): fixed-log-bucket
histograms merge *exactly* (integer counts, associative, no drift);
the tracer's aggregates are exact regardless of ring sampling; the
Prometheus exposition renders valid text and the strict checker
rejects the malformations it claims to.
"""

from __future__ import annotations

import json
import math
import urllib.request

import pytest

from repro.obs.expo import render_exposition, validate_exposition
from repro.obs.hist import LogHistogram
from repro.obs.http import MetricsHTTPServer
from repro.obs.trace import Tracer, merge_summaries


class TestLogHistogramBuckets:
    def test_bucket_edges_are_pure_layout(self):
        hist = LogHistogram(buckets_per_decade=10)
        # 1.0 = 10^0 lands in bucket index 0: [10^0, 10^0.1).
        hist.record(1.0)
        ((index, edge, count),) = hist.items()
        assert index == 0
        assert edge == pytest.approx(10 ** 0.1)
        assert count == 1

    def test_decade_boundaries(self):
        hist = LogHistogram(buckets_per_decade=1)
        hist.record(1.0)     # [1, 10)
        hist.record(9.999)   # same bucket
        hist.record(10.0)    # [10, 100)
        indices = sorted(hist.counts)
        assert indices == [0, 1]
        assert hist.counts[0] == 2
        assert hist.counts[1] == 1

    def test_zero_and_negative_clamp_to_bottom(self):
        hist = LogHistogram()
        hist.record(0.0)
        hist.record(-3.5)
        hist.record(1e-300)
        bottom = hist.min_exp * hist.buckets_per_decade
        assert hist.counts == {bottom: 3}

    def test_huge_values_clamp_to_top(self):
        hist = LogHistogram()
        hist.record(1e300)
        top = hist.max_exp * hist.buckets_per_decade - 1
        assert hist.counts == {top: 1}

    def test_weight_counts_many(self):
        hist = LogHistogram()
        hist.record(2.0, weight=5)
        assert hist.n == 5
        assert hist.total == pytest.approx(10.0)
        hist.record(2.0, weight=0)   # no-op
        hist.record(2.0, weight=-3)  # no-op
        assert hist.n == 5

    def test_layout_validation(self):
        with pytest.raises(ValueError, match="buckets_per_decade"):
            LogHistogram(buckets_per_decade=0)
        with pytest.raises(ValueError, match="min_exp"):
            LogHistogram(min_exp=3, max_exp=3)


class TestLogHistogramExactness:
    def test_merge_equals_interleaved_recording(self):
        """The tentpole property: sharding a stream changes nothing."""
        values = [10 ** ((i * 37 % 160) / 10 - 8) * (1 + (i % 7) / 10)
                  for i in range(500)]
        one = LogHistogram()
        for v in values:
            one.record(v)
        a, b, c = LogHistogram(), LogHistogram(), LogHistogram()
        for i, v in enumerate(values):
            (a, b, c)[i % 3].record(v)
        merged = a.merge(b).merge(c)
        assert merged.counts == one.counts
        assert merged.n == one.n

    def test_merge_via_payloads_classmethod(self):
        a, b = LogHistogram(), LogHistogram()
        a.record(0.5)
        b.record(0.5)
        b.record(2.0)
        merged = LogHistogram.merged([a.to_dict(), None, b.to_dict()])
        assert merged.n == 3
        assert merged.counts[a._index(0.5)] == 2

    def test_merged_all_none_is_none(self):
        assert LogHistogram.merged([None, None]) is None
        assert LogHistogram.merged([]) is None

    def test_merge_rejects_layout_mismatch(self):
        with pytest.raises(ValueError, match="layout"):
            LogHistogram(buckets_per_decade=10).merge(
                LogHistogram(buckets_per_decade=5)
            )

    def test_mean_is_exact(self):
        hist = LogHistogram()
        for v in (1.0, 2.0, 3.0, 10.0):
            hist.record(v)
        assert hist.mean() == pytest.approx(4.0)
        assert LogHistogram().mean() is None


class TestLogHistogramPercentiles:
    def test_percentile_is_conservative_upper_edge(self):
        hist = LogHistogram()
        for v in [0.001] * 99 + [1.0]:
            hist.record(v)
        p50 = hist.percentile(50)
        # Never under-reports: the edge is >= every value in the bucket.
        assert p50 >= 0.001
        # And at log-bucket resolution, not wildly above.
        assert p50 <= 0.001 * 10 ** 0.1 * 1.0001
        assert hist.percentile(100) >= 1.0

    def test_percentiles_empty_is_none(self):
        assert LogHistogram().percentiles((50, 90, 99)) == [None, None, None]

    def test_percentile_rank_math(self):
        hist = LogHistogram(buckets_per_decade=1)
        hist.record(1.0, weight=90)   # bucket [1, 10)
        hist.record(100.0, weight=10)  # bucket [100, 1000)
        assert hist.percentile(90) == pytest.approx(10.0)
        assert hist.percentile(91) == pytest.approx(1000.0)


class TestLogHistogramPersistence:
    def test_round_trip(self):
        hist = LogHistogram(buckets_per_decade=5, min_exp=-4, max_exp=4)
        for v in (0.01, 0.5, 7.0, 7.0):
            hist.record(v)
        back = LogHistogram.from_dict(json.loads(json.dumps(hist.to_dict())))
        assert back.counts == hist.counts
        assert back.n == hist.n
        assert back.total == pytest.approx(hist.total)
        assert (back.buckets_per_decade, back.min_exp, back.max_exp) == (5, -4, 4)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            LogHistogram.from_dict({"scheme": "linear"})


class TestTracer:
    def _fake_clock(self):
        state = {"t": 0.0}

        def clock():
            state["t"] += 0.25
            return state["t"]

        return clock

    def test_aggregates_exact_under_sampling(self):
        tracer = Tracer(capacity=4, sample_every=10, clock=self._fake_clock())
        for i in range(100):
            tracer.add("phase", float(i), 0.5)
        agg = tracer.summary()["spans"]["phase"]
        # Aggregates see every span; only the ring is thinned.
        assert agg["count"] == 100
        assert agg["total_s"] == pytest.approx(50.0)
        assert agg["max_s"] == pytest.approx(0.5)
        assert tracer.seen == 100

    def test_ring_thinning_deterministic(self):
        tracer = Tracer(capacity=1000, sample_every=10)
        for i in range(95):
            tracer.add("p", float(i), 0.1)
        records = tracer.drain()
        # Admissions 0, 10, 20, ..., 90 — counter-based, no randomness.
        assert [r["t"] for r in records] == [float(i) for i in range(0, 95, 10)]

    def test_ring_wraps_keeping_newest(self):
        tracer = Tracer(capacity=4, sample_every=1)
        for i in range(10):
            tracer.add("p", float(i), 0.1)
        assert [r["t"] for r in tracer.drain()] == [6.0, 7.0, 8.0, 9.0]

    def test_span_context_manager_and_tags(self):
        tracer = Tracer(clock=self._fake_clock())
        with tracer.span("engine.decode", tag="numpy"):
            pass
        summary = tracer.summary()
        assert summary["spans"]["engine.decode@numpy"]["count"] == 1
        assert summary["spans"]["engine.decode@numpy"]["total_s"] == pytest.approx(0.25)

    def test_events_counted(self):
        tracer = Tracer()
        tracer.event("worker_death")
        tracer.event("requeue", n=3)
        assert tracer.summary()["events"] == {"requeue": 3, "worker_death": 1}

    def test_export_jsonl(self, tmp_path):
        tracer = Tracer(sample_every=1)
        tracer.add("a", 1.0, 0.5, tag="x")
        tracer.add("b", 2.0, 0.25)
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == 2
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0] == {"name": "a", "t": 1.0, "dur_s": 0.5, "tag": "x"}
        assert records[1]["tag"] is None

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)
        with pytest.raises(ValueError, match="sample_every"):
            Tracer(sample_every=0)


class TestMergeSummaries:
    def test_merge_is_exact_union(self):
        a, b = Tracer(sample_every=1), Tracer(sample_every=1)
        a.add("step", 0.0, 1.0)
        a.add("step", 1.0, 3.0)
        b.add("step", 0.0, 2.0)
        b.add("decode", 0.0, 0.5, tag="numpy")
        b.event("shed", 2)
        merged = merge_summaries([a.summary(), None, b.summary()])
        assert merged["spans"]["step"] == {
            "count": 3, "total_s": pytest.approx(6.0), "max_s": pytest.approx(3.0),
        }
        assert merged["spans"]["decode@numpy"]["count"] == 1
        assert merged["events"] == {"shed": 2}
        assert merged["seen"] == a.seen + b.seen

    def test_all_none_is_none(self):
        assert merge_summaries([None, None]) is None
        assert merge_summaries([]) is None

    def test_merge_matches_one_tracer_seeing_everything(self):
        whole = Tracer(sample_every=1)
        parts = [Tracer(sample_every=1) for _ in range(3)]
        for i in range(60):
            dur = (i % 7 + 1) / 16
            whole.add("tick", float(i), dur)
            parts[i % 3].add("tick", float(i), dur)
        merged = merge_summaries([t.summary() for t in parts])
        assert merged["spans"] == whole.summary()["spans"]


def _snapshot_with_everything() -> dict:
    hist = LogHistogram()
    for v in (1e-4, 2e-4, 5e-3, 5e-3, 0.1):
        hist.record(v)
    tracer = Tracer(sample_every=1)
    tracer.add("scheduler.step", 0.0, 1e-3)
    tracer.add("engine.batch_decode", 0.0, 2e-3, tag="numpy")
    tracer.event("worker_death")
    return {
        "elapsed_s": 1.5,
        "submitted": 10, "rejected": 1, "admitted": 9, "completed": 8,
        "failed": 1, "overflowed": 0, "steps": 40, "rounds_advanced": 90,
        "throughput_sessions_per_s": 5.33, "drop_rate": 0.1,
        "mean_wait_s": 0.01, "mean_service_s": 0.02,
        "hist": {"round_latency_s": hist.to_dict()},
        "trace": tracer.summary(),
    }


class TestExposition:
    def test_render_is_valid(self):
        text = render_exposition(_snapshot_with_everything())
        assert validate_exposition(text) == []
        assert "repro_service_completed_total 8" in text
        assert 'repro_service_round_latency_seconds_bucket{le="+Inf"} 5' in text
        assert 'span="engine.batch_decode",tag="numpy"' in text
        assert 'repro_service_trace_events_total{event="worker_death"} 1' in text

    def test_render_minimal_snapshot(self):
        # No hist/trace blocks (e.g. a pre-v3 snapshot): still valid.
        text = render_exposition({"completed": 4, "elapsed_s": 2.0})
        assert validate_exposition(text) == []
        assert "_bucket" not in text

    def test_histogram_buckets_cumulative(self):
        text = render_exposition(_snapshot_with_everything())
        cums = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_service_round_latency_seconds_bucket")
        ]
        assert cums == sorted(cums)
        assert cums[-1] == 5

    def test_validator_rejects_bad_label_escaping(self):
        bad = (
            "# HELP m_total c\n# TYPE m_total counter\n"
            'm_total{tag="un\\escaped"} 1\n'
        )
        assert any("escap" in e for e in validate_exposition(bad))

    def test_validator_rejects_nonmonotonic_buckets(self):
        bad = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\nh_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 3\nh_sum 1.0\nh_count 3\n'
        )
        assert any("decrease" in e for e in validate_exposition(bad))

    def test_validator_rejects_inf_count_mismatch(self):
        bad = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="1"} 3\nh_bucket{le="+Inf"} 3\n'
            "h_sum 1.0\nh_count 4\n"
        )
        assert any("_count" in e for e in validate_exposition(bad))

    def test_validator_rejects_missing_inf_and_sum(self):
        bad = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="1"} 3\nh_count 3\n'
        )
        errors = validate_exposition(bad)
        assert any("+Inf" in e for e in errors)

    def test_validator_rejects_untyped_and_duplicate_samples(self):
        assert any(
            "TYPE" in e for e in validate_exposition("orphan_metric 1\n")
        )
        dup = (
            "# HELP m_total c\n# TYPE m_total counter\n"
            "m_total 1\nm_total 2\n"
        )
        assert any("duplicate" in e for e in validate_exposition(dup))

    def test_validator_rejects_negative_counter(self):
        bad = "# HELP m_total c\n# TYPE m_total counter\nm_total -1\n"
        assert any(">= 0" in e for e in validate_exposition(bad))

    def test_nan_and_inf_render(self):
        text = render_exposition({"drop_rate": float("nan"), "elapsed_s": math.inf})
        assert "repro_service_drop_rate NaN" in text
        assert "repro_service_uptime_seconds +Inf" in text
        assert validate_exposition(text) == []


class TestMetricsHTTPServer:
    def test_serves_metrics_and_healthz(self):
        with MetricsHTTPServer(_snapshot_with_everything, port=0) as server:
            host, port = server.address
            with urllib.request.urlopen(f"http://{host}:{port}/metrics") as resp:
                assert resp.status == 200
                assert "0.0.4" in resp.headers["Content-Type"]
                text = resp.read().decode()
            assert validate_exposition(text) == []
            with urllib.request.urlopen(f"http://{host}:{port}/healthz") as resp:
                assert resp.read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"http://{host}:{port}/nope")
            assert excinfo.value.code == 404

    def test_snapshot_failure_is_500(self):
        def boom():
            raise RuntimeError("snapshot broke")

        with MetricsHTTPServer(boom, port=0) as server:
            host, port = server.address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"http://{host}:{port}/metrics")
            assert excinfo.value.code == 500


class TestStatsTable:
    def test_render_table_covers_snapshot(self):
        from repro.service.stats import render_table

        table = render_table(_snapshot_with_everything())
        assert "completed" in table
        assert "scheduler.step" in table
        assert "worker_death" in table

    def test_render_table_handles_missing_fields(self):
        from repro.service.stats import render_table

        table = render_table({"completed": 3})
        assert "completed" in table
        assert "span" not in table.lower().split()  # no trace section


class TestTracedServeTargets:
    """``e2ebench/serve_traced.py`` wraps program callables by
    ``vars(owner)[attr]``; a rename or a move to a base class would
    break ``--trace 1`` only at serve time.  Check every target here."""

    def test_every_target_is_a_callable_own_attribute(self, monkeypatch):
        import importlib.util
        import sys
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "e2ebench" / "serve_traced.py"
        # The module puts its own directory on sys.path; undo that after.
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("serve_traced", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        targets = module._traced_targets()
        assert targets
        for owner, attr, _name in targets:
            assert attr in vars(owner), f"{owner!r} has no own {attr!r}"
            value = vars(owner)[attr]
            if isinstance(value, classmethod):
                value = value.__func__
            assert callable(value), f"{owner!r}.{attr} is not callable"
