"""Phase timer / span tracer: where a scheduler tick spends its time.

A :class:`Tracer` records **spans** — named, tagged, monotonic-clocked
timings of one phase of work (an admission wave, a roster build, a
noise gather, a batch-lane advance, one engine decode, one TCP
request) — and **events** (supervision lifecycle marks: a worker
death, a requeue, a shed, a respawn, a heartbeat timeout, a dropped
malformed frame).  Two retention tiers keep it cheap
at service rates:

- *aggregates* are always exact: per ``(name, tag)`` the tracer keeps
  count / total seconds / max seconds, integers and float adds only —
  these ride every metrics snapshot (mergeable across shards via
  :func:`merge_summaries`);
- *full records* go to a bounded **ring buffer**, thinned to 1-in-
  ``sample_every`` spans (deterministic counter, no randomness), and
  export as JSON lines (``repro-runner serve --trace FILE``) for
  offline timeline digging.

The tracer never touches decode state — it reads a clock and appends
to Python structures — so instrumentation is bit-identity-neutral by
construction.  Hot paths guard every call site with
``if tracer is not None``; ``None`` is the default everywhere, making
the disabled cost one attribute test per phase (asserted <2% on the
committed service benchmark).
"""

from __future__ import annotations

import json
import time

__all__ = ["Tracer", "merge_summaries"]


class _Span:
    """Context-manager handle timing one phase (``with tracer.span(..)``)."""

    __slots__ = ("tracer", "name", "tag", "t0")

    def __init__(self, tracer: "Tracer", name: str, tag: str | None):
        self.tracer = tracer
        self.name = name
        self.tag = tag

    def __enter__(self) -> "_Span":
        self.t0 = self.tracer.clock()
        return self

    def __exit__(self, *exc) -> None:
        t1 = self.tracer.clock()
        self.tracer.add(self.name, self.t0, t1 - self.t0, self.tag)


class Tracer:
    """Bounded span recorder with always-exact aggregates.

    ``capacity`` bounds the full-record ring, ``sample_every`` thins
    admissions into it (1-in-N, counter-based so reruns are
    reproducible), ``clock`` is injectable for tests (defaults to
    :func:`time.perf_counter`).  Aggregates see **every** span
    regardless of sampling.
    """

    __slots__ = (
        "clock", "capacity", "sample_every",
        "spans", "events", "seen",
        "_ring", "_cursor", "_stored",
    )

    def __init__(
        self,
        capacity: int = 4096,
        sample_every: int = 1,
        clock=time.perf_counter,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.clock = clock
        self.capacity = capacity
        self.sample_every = sample_every
        # (name, tag) -> [count, total_s, max_s]; exact, never thinned.
        self.spans: dict[tuple[str, str | None], list] = {}
        self.events: dict[str, int] = {}
        self.seen = 0
        self._ring: list = [None] * capacity
        self._cursor = 0
        self._stored = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add(
        self, name: str, started: float, duration: float, tag: str | None = None
    ) -> None:
        """One finished span.  Aggregates always; ring 1-in-``sample_every``."""
        agg = self.spans.get((name, tag))
        if agg is None:
            agg = self.spans[(name, tag)] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        if duration > agg[2]:
            agg[2] = duration
        if self.seen % self.sample_every == 0:
            self._ring[self._cursor] = (started, duration, name, tag)
            self._cursor = (self._cursor + 1) % self.capacity
            if self._stored < self.capacity:
                self._stored += 1
        self.seen += 1

    def span(self, name: str, tag: str | None = None) -> _Span:
        """``with tracer.span("scheduler.step"): ...`` — times the block."""
        return _Span(self, name, tag)

    def event(self, name: str, n: int = 1) -> None:
        """Count an occurrence with no duration (worker death, requeue)."""
        self.events[name] = self.events.get(name, 0) + n

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def drain(self) -> list[dict]:
        """The ring's records, oldest first, as JSON-safe dicts.

        Non-destructive: the ring keeps filling afterwards.
        """
        if self._stored < self.capacity:
            stored = self._ring[: self._stored]
        else:  # wrapped: cursor points at the oldest record
            stored = self._ring[self._cursor:] + self._ring[: self._cursor]
        return [
            {"name": name, "t": started, "dur_s": duration, "tag": tag}
            for started, duration, name, tag in stored
        ]

    def export_jsonl(self, path) -> int:
        """Write the ring as JSON lines; returns the record count."""
        records = self.drain()
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        return len(records)

    def summary(self) -> dict:
        """JSON-safe aggregate view (rides metrics snapshots).

        Span keys are ``name`` or ``name@tag``; values carry exact
        count/total/max over *all* spans seen (sampling only thins the
        full-record ring, never these).
        """
        return {
            "sample_every": self.sample_every,
            "capacity": self.capacity,
            "seen": self.seen,
            "recorded": self._stored,
            "spans": {
                name if tag is None else f"{name}@{tag}": {
                    "count": agg[0],
                    "total_s": agg[1],
                    "max_s": agg[2],
                }
                for (name, tag), agg in sorted(
                    self.spans.items(), key=lambda item: (item[0][0], item[0][1] or "")
                )
            },
            "events": dict(sorted(self.events.items())),
        }


def merge_summaries(summaries) -> dict | None:
    """Merge :meth:`Tracer.summary` dicts across shards (``None``-safe).

    Counts and totals add, maxima take the max — the same exactness
    story as histogram merging: the merged aggregate equals one tracer
    having seen every shard's spans.
    """
    merged: dict | None = None
    for summary in summaries:
        if summary is None:
            continue
        if merged is None:
            merged = {
                "sample_every": summary["sample_every"],
                "capacity": summary["capacity"],
                "seen": 0,
                "recorded": 0,
                "spans": {},
                "events": {},
            }
        merged["seen"] += summary["seen"]
        merged["recorded"] += summary["recorded"]
        for key, agg in summary["spans"].items():
            into = merged["spans"].get(key)
            if into is None:
                merged["spans"][key] = dict(agg)
            else:
                into["count"] += agg["count"]
                into["total_s"] += agg["total_s"]
                into["max_s"] = max(into["max_s"], agg["max_s"])
        for key, count in summary["events"].items():
            merged["events"][key] = merged["events"].get(key, 0) + count
    if merged is not None:
        merged["spans"] = dict(sorted(merged["spans"].items()))
        merged["events"] = dict(sorted(merged["events"].items()))
    return merged
