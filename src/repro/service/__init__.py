"""Streaming decode service: sessions, micro-batching, transport.

The serving layer over the batched online engine
(:mod:`repro.core.online`): a **session** is one logical-qubit decode
stream (syndrome ingestion round by round, per-session engine state and
wall clock, the paper's Reg-overflow drop-out semantics); the
**micro-batching scheduler** multiplexes concurrent sessions onto
lock-step batched engine advances, admitting and retiring sessions
between rounds with backpressure; the **transport** is an in-process
async API plus a JSON-lines TCP front end (``repro-runner serve`` /
:mod:`repro.service.client`); the **shard router**
(:mod:`repro.service.shard`, ``repro-runner serve --shards N``) scales
sessions/s with cores by dealing sessions round-robin across worker
processes that each own a full scheduler, requeueing or shedding a dead
worker's in-flight sessions; the **supervision layer** (heartbeat
liveness checked by each shard's reader thread, exponential-backoff
respawn, deterministic fault injection via :class:`FaultPlan` — see
:mod:`repro.service.faults`) heals the fleet after worker crashes and
hangs, with fixed timing and no options; the **metrics core** tracks per-round
latency percentiles, throughput, drop rate and queue depth, persisted
through :mod:`repro.experiments.results`.

Every session's decode is **bit-identical** to a standalone
:func:`repro.core.online.run_online_trial` on the same seed, whatever
traffic it shared micro-batches with (``tests/test_service.py``,
``benchmarks/bench_service.py``).
"""

from repro.service.api import DecodeService
from repro.service.faults import Fault, FaultPlan
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import Backpressure, MicroBatchScheduler, SchedulerConfig
from repro.service.session import (
    DecodeSession,
    SessionResult,
    SessionSpec,
    SessionState,
    WindowOutcome,
    WindowShot,
)
from repro.service.shard import ShardFailure, ShardRouter

__all__ = [
    "Backpressure",
    "DecodeService",
    "DecodeSession",
    "Fault",
    "FaultPlan",
    "MicroBatchScheduler",
    "SchedulerConfig",
    "ServiceMetrics",
    "SessionResult",
    "SessionSpec",
    "SessionState",
    "ShardFailure",
    "ShardRouter",
    "WindowOutcome",
    "WindowShot",
]
