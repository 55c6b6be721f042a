"""Workload definitions and the benchmark's pure statistics.

Nothing here touches the decode service: populations and percentiles
are pure functions of their arguments, so the same ``--seed`` always
yields the same inputs and the unit tests in ``tests/`` can pin them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Fewest samples a reported percentile must leave beyond it.
MIN_BEYOND = 10

# Shared by both workloads: d=9 sessions of 9 noisy rounds, sent as
# closed-loop decode_many waves of 32 on two connections.  Two waves of
# 32 keep at most 64 lanes in a step, where the server's OpenBLAS helper
# thread stays idle (two waves of 64 made it spin).
D = 9
ROUNDS = 9
WAVE = 32
CONNECTIONS = 2


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one ``serve`` configuration."""

    name: str
    p: float
    serve_args: tuple[str, ...]
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="closed_sparse_d9",
            p=0.0005,
            serve_args=(),
            why=(
                "sparse d=9 sessions on the pooled scalar engine, in-process: "
                "client, wire and admission costs dominate"
            ),
        ),
        Workload(
            name="closed_dense_d9_shard1",
            p=0.005,
            serve_args=("--shards", "1"),
            why=(
                "dense d=9 sessions on batch-engine lanes in one shard worker: the "
                "engine decode dominates; the router hop runs beside it"
            ),
        ),
    )
}

# Workload-name salt for the seed streams (stable across Python runs,
# unlike hash()).
_SALT = {name: i + 1 for i, name in enumerate(WORKLOADS)}
_STREAMS = {"timed": 0, "warmup": 1, "setup": 2}


class Population:
    """The deterministic session population of one run.

    Session ``i`` of a stream is a pure function of ``(workload, seed,
    stream, i)``.  Session seeds are ``base + i`` with ``base`` drawn
    per stream, and the streams' bases sit 2**32 apart, so every
    session of a run has a distinct seed and no result cache can
    answer one session from another.
    """

    def __init__(self, workload: Workload, seed: int, stream: str = "timed"):
        rng = np.random.default_rng([seed, _SALT[workload.name], _STREAMS[stream]])
        self.workload = workload
        self.base = (_STREAMS[stream] << 32) + int(rng.integers(0, 1 << 31))

    def spec(self, i: int) -> dict:
        """Session ``i`` as a JSON spec payload (protocol defaults apply
        to every field not named)."""
        return {"d": D, "p": self.workload.p, "seed": self.base + i, "n_rounds": ROUNDS}

    def specs(self, start: int, count: int) -> list[dict]:
        return [self.spec(i) for i in range(start, start + count)]


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples
    (the tolerance keeps 99.9 * 10000 / 100 from rounding up a rank)."""
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def supports_percentile(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """Whether ``n`` samples leave at least ``min_beyond`` beyond the
    ``q``-th percentile."""
    return n - _rank(n, q) >= min_beyond


def highest_percentile(
    n: int,
    candidates: tuple[float, ...] = (99.9, 99.0, 90.0, 50.0),
    min_beyond: int = MIN_BEYOND,
) -> float | None:
    """The highest candidate percentile ``n`` samples support."""
    for q in sorted(candidates, reverse=True):
        if supports_percentile(n, q, min_beyond):
            return q
    return None


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-th percentile, refusing one the sample cannot support.

    Nearest-rank on the sorted sample, so the value is an observed
    sample and the count above it is exact.
    """
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = len(values)
    if not supports_percentile(n, q, min_beyond):
        raise ValueError(
            f"{n} samples leave fewer than {min_beyond} beyond p{q:g}"
        )
    return float(values[_rank(n, q) - 1])


def window_rate(waves, start: float, end: float) -> float:
    """Sessions per second completed in ``[start, end)``.

    ``waves`` are ``(t0, t1, sessions)``: when a closed-loop wave was in
    flight and how many sessions it carried.  A wave's sessions are
    spread over its interval, so one that straddles an edge of the
    window counts in proportion to its overlap with it.
    """
    if end <= start:
        raise ValueError("empty window")
    done = 0.0
    for t0, t1, sessions in waves:
        overlap = min(t1, end) - max(t0, start)
        if t1 > t0 and overlap > 0:
            done += sessions * overlap / (t1 - t0)
    return done / (end - start)
