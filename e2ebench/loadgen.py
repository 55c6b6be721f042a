"""Closed-loop load generator: ``ServiceClient`` connections sending waves.

Per-session outcomes stay compact (ok flag, shape check, the server's
``wait_s``/``service_s``), and the full result is kept only for the
deterministic reference sample, so a long run stays small in memory.
Nothing here compares against a reference: that happens after the
timed window (:mod:`check`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from workloads import Population

SAMPLE_EVERY = 8  # sessions with index % SAMPLE_EVERY == 0 are re-derived


@dataclass
class Outcomes:
    """What one stream of sessions produced."""

    ok: int = 0
    errors: list = field(default_factory=list)  # (index, reason)
    wait_s: list = field(default_factory=list)
    service_s: list = field(default_factory=list)
    outside_s: list = field(default_factory=list)  # latency - (wait_s + service_s)
    sampled: dict = field(default_factory=dict)  # index -> (spec, result)

    def record(self, index: int, spec: dict, response, latency_s: float) -> None:
        """Account one response (a result payload, or an error) that the
        caller got ``latency_s`` after sending it."""
        if not isinstance(response, dict):
            self.errors.append((index, f"error: {response}"))
            return
        n_rounds = response.get("n_rounds")
        if response.get("d") != spec["d"] or not (
            n_rounds == spec["n_rounds"]
            or (response.get("overflow") and 0 <= n_rounds <= spec["n_rounds"])
        ):
            self.errors.append((index, f"wrong shape: d={response.get('d')} n_rounds={n_rounds}"))
            return
        self.ok += 1
        self.wait_s.append(response["wait_s"])
        self.service_s.append(response["service_s"])
        self.outside_s.append(latency_s - response["wait_s"] - response["service_s"])
        if index % SAMPLE_EVERY == 0:
            self.sampled[index] = (spec, response)

    def merge(self, other: "Outcomes") -> None:
        self.ok += other.ok
        self.errors += other.errors
        self.wait_s += other.wait_s
        self.service_s += other.service_s
        self.outside_s += other.outside_s
        self.sampled.update(other.sampled)

    @property
    def attempted(self) -> int:
        return self.ok + len(self.errors)


@dataclass
class ClosedRun:
    outcomes: Outcomes
    started: float
    ended: float
    waves: list  # (t0, t1, n_sessions), by t0
    gaps: list  # per connection, a wave's return to the next wave's send


def run_closed(clients, population: Population, wave: int, seconds: float) -> ClosedRun:
    """Each client sends its next wave only after the previous returns.

    Waves take consecutive population indices in send order, so the
    sessions sent are the population's first ``n_waves * wave``.
    Client ``0`` runs on the calling thread, the rest on one thread each.
    """
    lock = threading.Lock()
    next_index = [0]
    per_client = [Outcomes() for _ in clients]
    waves: list = []
    gaps: list = []
    failures: list = []
    started = time.perf_counter()
    deadline = started + seconds

    def drive(k: int) -> None:
        client, outcomes = clients[k], per_client[k]
        returned = None
        try:
            while time.perf_counter() < deadline:
                with lock:
                    first = next_index[0]
                    next_index[0] += wave
                specs = population.specs(first, wave)
                t0 = time.perf_counter()
                if returned is not None:
                    gaps.append(t0 - returned)
                responses = client.decode_many(specs, return_errors=True)
                returned = t1 = time.perf_counter()
                waves.append((t0, t1, wave))
                # The caller gets every result when decode_many returns.
                for offset, (spec, response) in enumerate(zip(specs, responses)):
                    outcomes.record(first + offset, spec, response, t1 - t0)
        except Exception as exc:  # reported below; the run is invalid
            failures.append(repr(exc))

    threads = [threading.Thread(target=drive, args=(k,)) for k in range(1, len(clients))]
    for thread in threads:
        thread.start()
    drive(0)
    for thread in threads:
        thread.join()
    ended = time.perf_counter()
    outcomes = Outcomes()
    for part in per_client:
        outcomes.merge(part)
    for reason in failures:
        outcomes.errors.append((-1, f"client failed: {reason}"))
    return ClosedRun(outcomes, started, ended, sorted(waves), gaps)
