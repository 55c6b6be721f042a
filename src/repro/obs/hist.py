"""Fixed-log-bucket histograms that merge exactly.

The service's old percentile story sampled: it kept a stride-thinned
series per scheduler, and the shard router — with no raw samples to
pool — reported cross-shard percentiles as per-percentile maxima.  A
:class:`LogHistogram` replaces both ends of that compromise: every
observation lands in a **fixed, globally-agreed bucket** (log10
spacing, ``buckets_per_decade`` buckets per decade), so any two
histograms over the same layout merge by *adding bucket counts* — the
merged histogram is bit-for-bit the histogram a single observer of the
combined stream would have built.  Percentiles read from the merged
counts are then as exact as the bucket resolution (a
``buckets_per_decade=10`` layout bounds relative error per bucket at
``10^(1/10) - 1 ~ 26%``; latencies spanning decades care about the
decade, not the third digit).

Counts are integers (weights included), so merging is associative and
commutative with no float drift: sharding a seeded population 1-way or
4-way yields **identical** merged bucket counts for any value that is a
pure function of the session spec (e.g. decoder cycles) — pinned by
``tests/test_service_shard.py``.

JSON-safe via :meth:`to_dict` / :meth:`from_dict`; bucket upper edges
feed the Prometheus ``le`` labels in :mod:`repro.obs.expo`.
"""

from __future__ import annotations

import math

__all__ = ["LogHistogram"]

_SCHEME = "log10"


class LogHistogram:
    """Sparse log10-bucketed histogram with exact integer merges.

    Bucket ``i`` covers ``[10^(i/bpd), 10^((i+1)/bpd))`` where ``bpd``
    is ``buckets_per_decade``.  Values at or below
    ``10^min_exp`` (zero and negatives included) clamp into the bottom
    bucket; values at or above ``10^max_exp`` clamp into the top one —
    the layout is *fixed*, which is what makes merges exact.
    """

    __slots__ = ("buckets_per_decade", "min_exp", "max_exp", "counts", "n", "total")

    def __init__(
        self,
        buckets_per_decade: int = 10,
        min_exp: int = -8,
        max_exp: int = 8,
    ):
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        if min_exp >= max_exp:
            raise ValueError(
                f"need min_exp < max_exp, got {min_exp} >= {max_exp}"
            )
        self.buckets_per_decade = buckets_per_decade
        self.min_exp = min_exp
        self.max_exp = max_exp
        self.counts: dict[int, int] = {}
        self.n = 0              # total observations (weights included)
        self.total = 0.0        # sum of value * weight (the Prometheus _sum)

    # ------------------------------------------------------------------
    # Recording and merging
    # ------------------------------------------------------------------
    def _index(self, value: float) -> int:
        lo = self.min_exp * self.buckets_per_decade
        hi = self.max_exp * self.buckets_per_decade - 1
        if value <= 0.0:
            return lo
        index = math.floor(math.log10(value) * self.buckets_per_decade)
        return min(max(index, lo), hi)

    def record(self, value: float, weight: int = 1) -> None:
        """One observation (``weight`` counts it that many times —
        integer, so merged totals stay exact)."""
        if weight <= 0:
            return
        index = self._index(value)
        self.counts[index] = self.counts.get(index, 0) + weight
        self.n += weight
        self.total += float(value) * weight

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` in (in place).  Exact: bucket counts add."""
        if (
            other.buckets_per_decade != self.buckets_per_decade
            or other.min_exp != self.min_exp
            or other.max_exp != self.max_exp
        ):
            raise ValueError(
                "cannot merge histograms with different bucket layouts"
            )
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.n += other.n
        self.total += other.total
        return self

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def upper_edge(self, index: int) -> float:
        """The bucket's exclusive upper bound (the Prometheus ``le``)."""
        return 10.0 ** ((index + 1) / self.buckets_per_decade)

    def items(self) -> list[tuple[int, float, int]]:
        """``(index, upper_edge, count)`` for occupied buckets, ascending."""
        return [
            (index, self.upper_edge(index), self.counts[index])
            for index in sorted(self.counts)
        ]

    def percentile(self, q: float) -> float | None:
        """The q-th percentile's bucket upper edge (``None`` if empty).

        Upper edge, not midpoint: the report errs toward "at most this
        slow", the conservative direction for a latency budget.
        """
        if not self.n:
            return None
        target = self.n * q / 100.0
        cum = 0
        for index in sorted(self.counts):
            cum += self.counts[index]
            if cum >= target:
                return self.upper_edge(index)
        return self.upper_edge(max(self.counts))

    def percentiles(self, qs: tuple[float, ...]) -> list[float | None]:
        return [self.percentile(q) for q in qs]

    def mean(self) -> float | None:
        return self.total / self.n if self.n else None

    # ------------------------------------------------------------------
    # Persistence (JSON-safe; rides metrics snapshots across the wire)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "scheme": _SCHEME,
            "buckets_per_decade": self.buckets_per_decade,
            "min_exp": self.min_exp,
            "max_exp": self.max_exp,
            "n": self.n,
            "total": self.total,
            # JSON object keys are strings; sorted for stable files.
            "counts": {str(i): self.counts[i] for i in sorted(self.counts)},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LogHistogram":
        if payload.get("scheme") != _SCHEME:
            raise ValueError(
                f"unsupported histogram scheme {payload.get('scheme')!r}"
            )
        hist = cls(
            buckets_per_decade=payload["buckets_per_decade"],
            min_exp=payload["min_exp"],
            max_exp=payload["max_exp"],
        )
        hist.counts = {int(i): int(c) for i, c in payload["counts"].items()}
        hist.n = int(payload["n"])
        hist.total = float(payload["total"])
        return hist

    @classmethod
    def merged(cls, payloads) -> "LogHistogram | None":
        """Merge snapshot dicts (skipping ``None``); ``None`` if none."""
        merged = None
        for payload in payloads:
            if payload is None:
                continue
            hist = cls.from_dict(payload)
            merged = hist if merged is None else merged.merge(hist)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogHistogram(n={self.n}, buckets={len(self.counts)}, "
            f"mean={self.mean()})"
        )
