"""Deterministic fault injection for the decode service (chaos testing).

A :class:`FaultPlan` is a seeded, picklable description of *when and
where* the serving stack misbehaves.  It travels to shard workers with
the spawn arguments, so a worker injects its own faults from inside —
no test reaching into process internals — while the supervision layer
(:class:`~repro.service.shard.ShardRouter` heartbeats and respawn)
must recover without losing a session.  The chaos
invariant, asserted by ``python -m repro.service.smoke --chaos`` and
``tests/test_service_chaos.py``: *every admitted session retires or
sheds with an attributed reason — none lost, none hung.*

Fault taxonomy (``Fault.kind``):

- ``"crash"`` — the worker process exits hard (``os._exit``, the
  moral equivalent of ``kill -9``) at worker-loop tick ``tick``; no
  goodbye frame, the router sees raw pipe EOF.
- ``"stall"`` — the worker sleeps ``duration_s`` at ``tick`` without
  reading its pipe or heartbeating: alive-but-hung, the case EOF
  detection cannot see.  Its shard's reader thread must kill it.
- ``"slow"`` — the worker's scheduler sleeps ``duration_s`` before
  each of ``ticks`` consecutive steps starting at ``tick``: degraded
  but live, sessions retire late but nothing should be killed.
- ``"malformed"`` — the worker sends one frame the pipe protocol does
  not know at ``tick``; the router must drop it, not drop the shard.
- ``"heartbeat-drop"`` — the worker suppresses its explicit heartbeat
  frames for ``ticks`` worker ticks starting at ``tick``.  Results
  still count as liveness, so this only looks like a hang on an
  otherwise-idle worker.
- ``"garble"`` — the TCP front end emits one unparseable junk line
  immediately before its ``tick``-th decode response (``shard`` is
  ignored); exercises the client's frame resync.

Injection sites follow the PR 9 tracer pattern exactly: every hook is
behind an ``if faults is None`` (or ``is not None``) guard with a
``None`` default, so the production path pays one attribute test —
pinned within 2% of the serving headline by the ``faults_off_overhead``
point in ``benchmarks/bench_service.py``.

Determinism: :meth:`FaultPlan.seeded` draws the schedule from
``random.Random(seed)``, so a seed fully determines the plan.  Faults
carry a ``generation``: a respawned worker (generation >= 1) re-runs
none of generation 0's faults, so a crash-at-tick-k cannot become a
crash loop that eats the restart budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.service import shard

__all__ = ["Fault", "FaultPlan", "ServerFaults", "WorkerFaults"]

FAULT_KINDS = ("crash", "stall", "slow", "malformed", "heartbeat-drop", "garble")


@dataclass(frozen=True)
class Fault:
    """One scheduled misbehaviour.  ``tick`` is the worker-loop tick
    (or, for ``garble``, the 1-based decode-response ordinal at the TCP
    front end).  ``ticks`` is the window length for the windowed kinds
    (``slow``, ``heartbeat-drop``); ``duration_s`` the sleep for
    ``stall``/``slow``.  ``generation`` scopes the fault to one life of
    the worker (0 = the initially-spawned process)."""

    kind: str
    shard: int
    tick: int
    duration_s: float = 0.0
    ticks: int = 1
    generation: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if self.tick < 0:
            raise ValueError(f"tick must be >= 0, got {self.tick}")
        if self.ticks < 1:
            raise ValueError(f"ticks must be >= 1, got {self.ticks}")
        if self.duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {self.duration_s}")

    def to_payload(self) -> dict:
        return {
            "kind": self.kind, "shard": self.shard, "tick": self.tick,
            "duration_s": self.duration_s, "ticks": self.ticks,
            "generation": self.generation,
        }


class WorkerFaults:
    """One worker's view of the plan: the faults scoped to its shard
    index and generation.  Pure lookups — the worker loop decides what
    each kind means (see :func:`repro.service.shard._shard_worker`)."""

    def __init__(self, faults: list[Fault]):
        self.faults = faults

    def __len__(self) -> int:
        return len(self.faults)

    def at(self, tick: int) -> list[Fault]:
        """Point faults (crash / stall / malformed) firing at ``tick``.
        Worker ticks advance monotonically by one, so equality fires
        each fault exactly once."""
        return [
            f for f in self.faults
            if f.tick == tick and f.kind in ("crash", "stall", "malformed")
        ]

    def step_delay(self, step: int) -> float:
        """Injected per-step slowdown covering scheduler step ``step``."""
        return sum(
            f.duration_s for f in self.faults
            if f.kind == "slow" and f.tick <= step < f.tick + f.ticks
        )

    def drops_heartbeat(self, tick: int) -> bool:
        """Whether the heartbeat due at worker tick ``tick`` is eaten."""
        return any(
            f.kind == "heartbeat-drop" and f.tick <= tick < f.tick + f.ticks
            for f in self.faults
        )


class ServerFaults:
    """The TCP front end's view: which decode responses to garble."""

    def __init__(self, garble_at: frozenset[int]):
        self.garble_at = garble_at
        self._responses = 0

    def garble_next(self) -> bool:
        """Called once per decode response (event-loop thread only);
        true when a junk line should precede this response."""
        self._responses += 1
        return self._responses in self.garble_at


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults across the serving stack.

    Frozen and picklable: the router forwards the whole plan to every
    worker it spawns (including respawns, which filter by generation),
    and ``serve()`` derives the front-end view via :meth:`for_server`.
    """

    faults: tuple[Fault, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    @classmethod
    def seeded(cls, seed: int, n_shards: int) -> "FaultPlan":
        """The canonical chaos schedule: one fault of every kind, drawn
        deterministically from ``seed``.

        Kinds land on *distinct* shards when ``n_shards`` allows, so an
        early fault never pre-empts a later one on the same process:
        the stall fires early (while traffic is in flight — the
        liveness check must catch it mid-load) and the crash fires
        later (possibly idle — it must still be detected and
        respawned).  The stall outlasts
        :data:`~repro.service.shard.HEARTBEAT_TIMEOUT_S` by a second,
        so it is declared a hang.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        rng = random.Random(seed)
        shards = list(range(n_shards))
        rng.shuffle(shards)
        pick = lambda i: shards[i % n_shards]
        stall_s = shard.HEARTBEAT_TIMEOUT_S + 1.0
        faults = (
            Fault("stall", pick(0), rng.randrange(2, 10), duration_s=stall_s),
            Fault("crash", pick(1), rng.randrange(12, 28)),
            Fault("slow", pick(2), rng.randrange(2, 8),
                  duration_s=0.002, ticks=rng.randrange(10, 30)),
            Fault("malformed", pick(3), rng.randrange(1, 12)),
            # Short window: long enough to be real, short enough that an
            # idle worker's silence (one heartbeat period per dropped
            # tick, plus one) stays well under the heartbeat timeout
            # (drops during traffic are invisible anyway — results count
            # as liveness).
            Fault("heartbeat-drop", pick(4), rng.randrange(4, 16), ticks=3),
            Fault("garble", -1, rng.randrange(2, 8)),
        )
        return cls(faults=faults, seed=seed)

    def for_shard(self, index: int, generation: int = 0) -> WorkerFaults | None:
        """The worker-side view, or ``None`` when nothing applies — the
        common case, so the worker keeps the zero-overhead guard."""
        mine = [
            f for f in self.faults
            if f.shard == index and f.generation == generation
            and f.kind != "garble"
        ]
        return WorkerFaults(mine) if mine else None

    def for_server(self) -> ServerFaults | None:
        """The TCP front end's view (``garble`` faults), or ``None``."""
        ticks = frozenset(f.tick for f in self.faults if f.kind == "garble")
        return ServerFaults(ticks) if ticks else None

    def to_payload(self) -> dict:
        """JSON-safe form for the chaos transcript."""
        return {
            "seed": self.seed,
            "faults": [f.to_payload() for f in self.faults],
        }
