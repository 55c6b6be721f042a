"""Service metrics: latency histograms, throughput, drops, queue depth.

The scheduler feeds two streams: one :meth:`ServiceMetrics.record_step`
per micro-batch advance (step duration + how many sessions moved one
round — each active session experiences the whole step as its round
latency) and one :meth:`ServiceMetrics.record_finish` per retired
session.  Counters are exact; latency/cycle distributions go into
fixed-log-bucket histograms (:class:`repro.obs.hist.LogHistogram`)
whose **merges are exact** — the shard router pools per-worker
histograms bucket-for-bucket instead of approximating percentiles —
and whose means are computed over *every* observation, not a sample.
Occupancy series (queue depth, batch size) report only a mean, kept
exactly as a count and a sum.

``snapshot()`` returns the JSON-safe form persisted through
:func:`repro.experiments.results.save_service_metrics` and served by
the TCP front end's ``metrics`` op and HTTP ``/metrics`` exposition.
When the scheduler carries a :class:`repro.obs.trace.Tracer`, its
aggregate summary rides the snapshot under ``"trace"`` (``None`` when
tracing is off — the default, costing nothing).
"""

from __future__ import annotations

import time

from repro.obs.hist import LogHistogram

__all__ = ["ServiceMetrics"]

# The histogram fields every snapshot carries (and the shard router
# merges).  ``decode_cycles`` is the paper's own latency unit: total
# decoder cycles per session, a pure function of the session spec —
# which is what makes its cross-shard merge *bit-identical* for a fixed
# population, however the sessions were placed.
HIST_FIELDS = ("round_latency_s", "wait_s", "service_s", "decode_cycles")


class _Mean:
    """Exact running mean of a series: a count and a sum, no samples."""

    def __init__(self):
        self.n = 0
        self.total = 0

    def add(self, value) -> None:
        self.n += 1
        self.total += value

    def mean(self) -> float | None:
        """The mean of every value added, or ``None`` before the first."""
        return self.total / self.n if self.n else None


class ServiceMetrics:
    """Counters, histograms and occupancy means for one scheduler."""

    def __init__(self, clock=time.monotonic, tracer=None):
        self._clock = clock
        self.tracer = tracer
        self.started_at = clock()
        # Exact counters.
        self.submitted = 0
        self.rejected = 0
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.overflowed = 0
        self.steps = 0
        self.rounds_advanced = 0
        self.retries = 0
        # Exact-merge distributions (see module docstring).
        self.hists: dict[str, LogHistogram] = {
            name: LogHistogram() for name in HIST_FIELDS
        }
        # Occupancy series (mean-only reporting).
        self.step_batch_sessions = _Mean()
        self.queue_depth = _Mean()
        self.active_sessions = _Mean()

    # ------------------------------------------------------------------
    # Scheduler hooks
    # ------------------------------------------------------------------
    def record_submit(self) -> None:
        self.submitted += 1

    def record_reject(self) -> None:
        self.rejected += 1

    def record_admit(self) -> None:
        self.admitted += 1

    def record_retry(self) -> None:
        """A client resubmitted a request it had already sent (marked
        by the ``retry`` field on the wire): the server-side count of
        client-visible retries.  Resubmission is idempotent — a decode
        is a pure function of its spec — so this is an observability
        counter, not a dedup mechanism."""
        self.retries += 1

    def record_step(
        self, duration_s: float, n_sessions: int, queue_depth: int, n_active: int
    ) -> None:
        """One micro-batch advance: every session in it waited the whole
        step for its round, so the step duration enters the round-latency
        population once per session (histogram weight = batch size)."""
        self.steps += 1
        self.rounds_advanced += n_sessions
        if n_sessions:
            self.hists["round_latency_s"].record(duration_s, n_sessions)
        self.step_batch_sessions.add(n_sessions)
        self.queue_depth.add(queue_depth)
        self.active_sessions.add(n_active)

    def record_finish(self, result) -> None:
        """One retired session (a :class:`~repro.service.session.SessionResult`)."""
        self.completed += 1
        if result.failed:
            self.failed += 1
        if result.overflow:
            self.overflowed += 1
        self.hists["wait_s"].record(result.wait_s)
        self.hists["service_s"].record(result.service_s)
        self.hists["decode_cycles"].record(result.cycles)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe summary of everything above.

        Empty distributions report ``None`` (never NaN, which strict
        JSON encoders reject), and every ratio is zero-division-guarded:
        an *empty* service (no submissions, no retirements, zero
        elapsed under a frozen test clock), an all-shed service
        (submitted > 0, completed == 0) and a service that only ever
        rejected must all produce a finite, ``json.dumps``-able
        snapshot — pinned by ``tests/test_service.py``.
        """
        elapsed = max(self._clock() - self.started_at, 1e-12)

        def triple(name: str) -> dict:
            p50, p90, p99 = self.hists[name].percentiles((50.0, 90.0, 99.0))
            return {"p50": p50, "p90": p90, "p99": p99}

        return {
            "elapsed_s": elapsed,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "overflowed": self.overflowed,
            "steps": self.steps,
            "rounds_advanced": self.rounds_advanced,
            "retries": self.retries,
            "throughput_sessions_per_s": self.completed / elapsed,
            "throughput_rounds_per_s": self.rounds_advanced / elapsed,
            "drop_rate": self.rejected / self.submitted if self.submitted else 0.0,
            "round_latency_s": triple("round_latency_s"),
            "decode_cycles": triple("decode_cycles"),
            "mean_batch_sessions": self.step_batch_sessions.mean(),
            "mean_queue_depth": self.queue_depth.mean(),
            "mean_active_sessions": self.active_sessions.mean(),
            "mean_wait_s": self.hists["wait_s"].mean(),
            "mean_service_s": self.hists["service_s"].mean(),
            "hist": {name: hist.to_dict() for name, hist in self.hists.items()},
            "trace": None if self.tracer is None else self.tracer.summary(),
        }
