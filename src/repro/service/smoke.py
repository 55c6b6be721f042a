"""End-to-end service smoke: TCP server + client + bit-identity check.

The CI ``service-smoke`` step runs this module: it starts the JSON-lines
TCP server on an ephemeral port (in a background thread of this
process), drives a mixed load of online and window sessions through
:class:`~repro.service.client.ServiceClient` pipelining, verifies every
online session's match stream and cycle accounting **bit-identically**
against a standalone :func:`~repro.core.online.run_online_trial`, asks
the server to shut down, and asserts the clean exit.

The smoke also exercises the observability surface end-to-end: the
server runs with the phase tracer on and an HTTP ``/metrics`` endpoint
up; both the ``metrics``-op snapshot and a live HTTP scrape are pushed
through the strict exposition checker
(:func:`repro.obs.expo.validate_exposition`) and **any** malformed line
— bad label escaping, non-monotonic histogram bucket counts, a missing
``+Inf`` bucket — fails the smoke.  ``--expo-out``/``--trace-out``
capture the scrape and the span ring for CI artifacts.  Exit code 0
means the whole loop — transport, scheduler, batch-engine lanes, tracer,
exposition, drain, shutdown — held together::

    python -m repro.service.smoke --sessions 50

``--chaos`` runs the deterministic fault-injection smoke instead
(CI job ``chaos-smoke``): a seeded :class:`~repro.service.faults
.FaultPlan` crashes one worker, hangs another, garbles a client frame
and more, while the supervision layer (heartbeats, respawn, requeue)
recovers.  The chaos invariant asserted here: **every admitted session
retires or sheds with an attributed reason — none lost, none hung** —
every killed worker is respawned and serving again, and every session
that completes (first try or respawn-replay) is bit-identical to the
unfaulted reference::

    python -m repro.service.smoke --chaos --shards 2
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import logging
import queue
import sys
import threading
import time
import urllib.request
from pathlib import Path

from repro.core.online import run_online_trial
from repro.experiments.montecarlo import resolve_noise
from repro.obs.expo import render_exposition, validate_exposition
from repro.service.client import ServiceClient, ServiceError
from repro.service.faults import FaultPlan
from repro.service.scheduler import SchedulerConfig
from repro.service.server import serve
from repro.service.session import SessionSpec
from repro.surface_code.lattice import PlanarLattice

__all__ = ["main", "run_chaos", "run_smoke"]

# Error kinds a chaos session may legitimately end with: transient
# serving-side conditions (the client's retry budget ran dry) and
# admission shedding.  Anything else — or a hang — fails the smoke.
CHAOS_ERROR_KINDS = frozenset(
    {"shard-failure", "timeout", "connection", "backpressure"}
)


def _mixed_specs(n_sessions: int, seed0: int = 4000) -> list[SessionSpec]:
    """A mixed batch: several distances, operating points and modes.

    The short online sessions mix ``thv`` 3 and -1 with Regs of 7, 3
    and unbounded depth, and one of them waits with ``thv = 2**63``
    (past int64): the dense ones share their shape group's one batch
    engine, each lane at its own operating point.

    Every tenth session is a 70-round ``d = 13`` online stream, longer
    than the 34-round noise window of a d = 13 slab row: the row
    refills twice mid-stream, so the bit-identity check covers the
    refill.  Every other one of those streams runs ``drift`` noise,
    whose rates change by round, so the refilled windows must take
    their own rounds' rates too.
    """
    specs = []
    for i in range(n_sessions):
        d = (3, 5, 7)[i % 3]
        if i % 5 == 4:
            specs.append(
                SessionSpec(d=d, p=0.02, seed=seed0 + i, mode="window", window=4)
            )
        elif i % 10 == 7:
            specs.append(
                SessionSpec(
                    d=13, p=0.02, seed=seed0 + i, n_rounds=70,
                    noise="drift" if i % 20 == 7 else None,
                )
            )
        else:
            specs.append(
                SessionSpec(
                    d=d, p=0.02, seed=seed0 + i,
                    thv=2**63 if i == 1 else (3, -1)[i % 2],
                    reg_size=(7, 3, None)[i // 2 % 3],
                    frequency_hz=(2.0e9, None)[i % 2],
                )
            )
    return specs


def _chaos_specs(n_sessions: int, seed0: int) -> list[SessionSpec]:
    """All-online sessions with staggered lengths: the long ones keep
    workers mid-stream when the scheduled stall/crash ticks arrive, the
    short ones keep results (liveness signals) flowing throughout."""
    return [
        SessionSpec(
            d=(3, 5)[i % 2], p=0.02, seed=seed0 + i,
            n_rounds=(1500, 800, 300)[i % 3],
        )
        for i in range(n_sessions)
    ]


def _assert_valid_exposition(text: str, source: str) -> None:
    errors = validate_exposition(text)
    assert not errors, (
        f"malformed {source} exposition: " + "; ".join(errors)
    )


@contextlib.contextmanager
def _serving(config: SchedulerConfig, shards: int, **serve_kwargs):
    """Run ``serve`` (with a ``/metrics`` endpoint) in a background
    thread; yields its ``(host, port)`` and the endpoint's, then asserts
    a clean exit once the body has sent ``shutdown``.

    A healthy run is also *silent*: no unretrieved task exceptions, no
    event-loop error reports.  asyncio funnels both through the
    "asyncio" logger at ERROR, so capture it and fail on any record.
    """
    bound: queue.Queue = queue.Queue()
    metrics_bound: queue.Queue = queue.Queue()
    records: list[logging.LogRecord] = []

    class _Capture(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            records.append(record)

    thread = threading.Thread(
        target=lambda: asyncio.run(serve(
            "127.0.0.1", 0, config, ready=bound.put, shards=shards,
            metrics_port=0, metrics_ready=metrics_bound.put, **serve_kwargs,
        )),
        name="smoke-server", daemon=True,
    )
    handler = _Capture(level=logging.ERROR)
    logging.getLogger("asyncio").addHandler(handler)
    try:
        thread.start()
        yield bound.get(timeout=30), metrics_bound.get(timeout=30)
        thread.join(timeout=60)
        assert not thread.is_alive(), "server did not shut down cleanly"
        gc.collect()  # dropped tasks report unretrieved exceptions here
    finally:
        logging.getLogger("asyncio").removeHandler(handler)
    assert not records, (
        "event loop reported errors: " + "; ".join(r.getMessage() for r in records)
    )


def _assert_bit_identical(spec: SessionSpec, result: dict) -> bool:
    """Check one wire result against a standalone reference run; returns
    whether the spec was checkable (online mode)."""
    assert result["d"] == spec.d
    if spec.mode != "online":
        return False
    noise = resolve_noise(
        spec.noise, "phenomenological", spec.p,
        q=spec.q, noise_params=spec.noise_params,
    )
    reference = run_online_trial(
        PlanarLattice(spec.d), noise, spec.rounds,
        spec.online_config(), rng=spec.seed,
    )
    assert result["failed"] == reference.failed, f"failed flag diverged: {spec}"
    assert result["overflow"] == reference.overflow, f"overflow diverged: {spec}"
    assert result["n_rounds"] == reference.n_rounds, f"n_rounds diverged: {spec}"
    assert result["layer_cycles"] == list(reference.layer_cycles), (
        f"cycle accounting diverged: {spec}"
    )
    wire_matches = [
        [m.kind, list(m.a), None if m.b is None else list(m.b), m.side]
        for m in reference.matches
    ]
    assert result["matches"] == wire_matches, f"match stream diverged: {spec}"
    return True


def run_smoke(
    n_sessions: int = 50,
    capacity: int = 16,
    shards: int = 0,
    expo_out: str | None = None,
    trace_out: str | None = None,
) -> dict:
    """Drive the full TCP loop; returns the final metrics snapshot.

    ``shards > 0`` serves from that many worker processes behind the
    :class:`~repro.service.shard.ShardRouter` (``capacity`` applies per
    worker) — same protocol, same bit-identity assertions, so the exact
    same checks cover the shard boundary.  The server always runs with
    tracing on and the ``/metrics`` HTTP endpoint up; ``expo_out`` /
    ``trace_out`` write the validated scrape and the span ring to disk.
    Raises ``AssertionError`` on any bit-identity, exposition or
    lifecycle failure.
    """
    config = SchedulerConfig(
        max_active=capacity, max_queue=4 * n_sessions, trace=True
    )
    specs = _mixed_specs(n_sessions)
    with _serving(config, shards, trace_path=trace_out) as (
        (host, port), (metrics_host, metrics_port)
    ):
        with ServiceClient(host=host, port=port) as client:
            assert client.ping(), "server did not answer ping"
            results = client.decode_many(specs)
            metrics = client.metrics()
            # Live HTTP scrape while the service is still up, through
            # the same renderer a Prometheus would hit.
            with urllib.request.urlopen(
                f"http://{metrics_host}:{metrics_port}/metrics", timeout=30
            ) as response:
                assert response.status == 200
                scraped = response.read().decode()
            client.shutdown()

    # Exposition contract, both paths: the HTTP scrape and a render of
    # the metrics-op snapshot must pass the strict checker.
    _assert_valid_exposition(scraped, "HTTP /metrics")
    _assert_valid_exposition(render_exposition(metrics), "metrics-op")
    assert "repro_service_completed_total" in scraped
    assert "repro_service_round_latency_seconds_bucket" in scraped
    assert "repro_service_throughput_rounds_per_second" in scraped
    trace = metrics.get("trace")
    assert trace is not None and trace["seen"] > 0, "tracer saw no spans"
    assert any(
        key.startswith("scheduler.step") for key in trace["spans"]
    ), f"no scheduler.step spans in {sorted(trace['spans'])}"
    if expo_out:
        Path(expo_out).write_text(scraped)
    if trace_out:
        records = Path(trace_out).read_text().splitlines()
        assert records, "server exported an empty trace ring"

    assert len(results) == n_sessions
    checked = sum(
        _assert_bit_identical(spec, result)
        for spec, result in zip(specs, results)
    )
    assert checked > 0, "no online sessions verified"
    assert metrics["completed"] >= n_sessions
    assert metrics["rejected"] == 0
    if shards:
        assert metrics["n_shards"] == shards
        assert metrics["live_shards"] == shards, "a worker shard died"
        assert metrics["worker_deaths"] == 0 and metrics["shed"] == 0
        # Routing actually spread the load: every worker served something.
        assert all(s["completed"] > 0 for s in metrics["shards"]), (
            "a shard served nothing — routing is not spreading sessions"
        )
    return metrics


def run_chaos(
    n_sessions: int = 24,
    capacity: int = 16,
    shards: int = 2,
    seed: int = 1234,
    chaos_out: str | None = None,
) -> dict:
    """Chaos smoke: seeded fault injection against the supervised
    sharded service; returns the final metrics snapshot.

    Three acts, all deterministic given ``seed``:

    1. **Fault wave** — pipeline ``n_sessions`` decodes while the
       :meth:`FaultPlan.seeded` schedule fires (worker crash, hung
       worker, slow worker, malformed pipe frame, dropped heartbeats,
       garbled TCP frame).  Every session must resolve: a bit-identical
       result (first placement, requeue or respawn-replay — all the
       same, a decode is a pure function of its spec) or a
       :class:`ServiceError` with an attributed, expected kind.
    2. **Recovery** — poll the ``metrics`` op until every killed worker
       has been respawned and answers again (``live_shards`` back to
       full strength, every shard index reporting).
    3. **Proof of service** — a clean second wave through the healed
       fleet; everything must succeed and bit-check.

    The closing invariant over router-exact counters: ``submitted ==
    completed + rejected + shed`` — no session unaccounted for.  The
    fleet runs at the supervision timing every server gets (the
    constants in :mod:`repro.service.shard`): the stall waits out the
    full heartbeat timeout.
    ``chaos_out`` writes a JSON-lines transcript (the plan, every
    session outcome, the recovery and final snapshots) for CI triage.
    """
    if shards < 1:
        raise ValueError(f"chaos smoke needs shards >= 1, got {shards}")
    plan = FaultPlan.seeded(seed, shards)
    # Workers that the plan crashes outright or hangs (the stall
    # outlasts the heartbeat timeout) must die and respawn; a stall can
    # pre-empt a same-shard crash (1-shard plans), hence distinct shards.
    min_deaths = len({
        f.shard for f in plan.faults
        if f.kind in ("crash", "stall") and f.generation == 0
    })
    transcript: list[dict] = [{"type": "plan", **plan.to_payload()}]

    config = SchedulerConfig(max_active=capacity, max_queue=8 * n_sessions)
    with _serving(config, shards, faults=plan) as (
        (host, port), (metrics_host, metrics_port)
    ):
        with ServiceClient(
            host=host, port=port, timeout=60, retries=4, backoff_s=0.05
        ) as client:
            assert client.ping(), "server did not answer ping"

            # Act 1: traffic through the fault schedule.  Every admitted
            # session must resolve with a result or an attributed error.
            specs = _chaos_specs(n_sessions, seed0=9000)
            outcomes = client.decode_many(specs, return_errors=True)
            assert len(outcomes) == n_sessions
            ok = 0
            for i, (spec, outcome) in enumerate(zip(specs, outcomes)):
                if isinstance(outcome, ServiceError):
                    assert outcome.error in CHAOS_ERROR_KINDS, (
                        f"unattributed failure for {spec}: {outcome}"
                    )
                    entry = {"outcome": "error", "error": outcome.error,
                             "detail": outcome.detail}
                else:
                    assert outcome is not None, f"session lost: {spec}"
                    assert _assert_bit_identical(spec, outcome)
                    entry = {"outcome": "ok"}
                    ok += 1
                transcript.append(
                    {"type": "session", "wave": 1, "index": i,
                     "spec": spec.to_payload(), **entry}
                )
            assert ok > 0, "chaos wave served nothing at all"

            # Act 2: every killed worker respawned and answering again.
            deadline = time.monotonic() + 60
            while True:
                snapshot = client.metrics()
                recovered = (
                    snapshot["live_shards"] == shards
                    and snapshot["worker_deaths"] >= min_deaths
                    and snapshot["respawns"] >= min_deaths
                    and [s["shard"] for s in snapshot["shards"]]
                    == list(range(shards))
                )
                if recovered:
                    break
                assert time.monotonic() < deadline, (
                    f"fleet did not heal: live={snapshot['live_shards']}"
                    f"/{shards}, deaths={snapshot['worker_deaths']}, "
                    f"respawns={snapshot['respawns']} "
                    f"(expected >= {min_deaths})"
                )
                time.sleep(0.25)
            transcript.append({"type": "recovered", "metrics": {
                k: snapshot[k] for k in (
                    "live_shards", "worker_deaths", "respawns",
                    "heartbeat_timeouts", "requeued", "shed",
                )
            }})

            # Act 3: a clean wave through the healed fleet — respawned
            # generations re-run none of the plan, so everything must
            # succeed (the retry budget absorbs any residual transient).
            specs2 = _chaos_specs(max(shards * 4, n_sessions // 2), seed0=9500)
            results2 = client.decode_many(specs2)
            for i, (spec, result) in enumerate(zip(specs2, results2)):
                assert _assert_bit_identical(spec, result)
                transcript.append(
                    {"type": "session", "wave": 2, "index": i,
                     "spec": spec.to_payload(), "outcome": "ok"}
                )

            metrics = client.metrics()
            with urllib.request.urlopen(
                f"http://{metrics_host}:{metrics_port}/metrics", timeout=30
            ) as response:
                assert response.status == 200
                scraped = response.read().decode()
            malformed_frames = client.malformed_frames
            client.shutdown()

    # The closing invariant: nothing lost, nothing hung, everything
    # attributed — and the supervision counters are on the wire.
    assert metrics["submitted"] == (
        metrics["completed"] + metrics["rejected"] + metrics["shed"]
    ), f"sessions unaccounted for: {metrics}"
    assert metrics["worker_deaths"] >= min_deaths
    assert metrics["respawns"] >= min_deaths
    assert metrics["live_shards"] == shards
    _assert_valid_exposition(scraped, "HTTP /metrics")
    assert "repro_service_respawns_total" in scraped
    assert "repro_service_heartbeat_timeouts_total" in scraped
    transcript.append({"type": "final", "metrics": {
        k: metrics[k] for k in (
            "submitted", "completed", "rejected", "shed", "requeued",
            "worker_deaths", "respawns", "heartbeat_timeouts", "retries",
            "live_shards", "n_shards",
        )
    }, "client": {
        # The garbled-frame fault fired iff the client skipped a frame.
        "malformed_frames": malformed_frames,
    }})
    if chaos_out:
        Path(chaos_out).write_text(
            "".join(json.dumps(line) + "\n" for line in transcript)
        )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=50)
    parser.add_argument(
        "--capacity", type=int, default=16,
        help="scheduler max_active (smaller than --sessions exercises queueing)",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="worker shards (0 = single in-process scheduler)",
    )
    parser.add_argument(
        "--expo-out", default=None, metavar="FILE",
        help="write the validated /metrics scrape here (CI artifact)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the server's span ring here as JSON lines (CI artifact)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="run the fault-injection smoke instead (requires --shards)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=1234, metavar="N",
        help="with --chaos: the FaultPlan seed (fully determines the plan)",
    )
    parser.add_argument(
        "--chaos-out", default=None, metavar="FILE",
        help="with --chaos: write the JSON-lines chaos transcript here "
        "(CI artifact)",
    )
    args = parser.parse_args(argv)
    if args.chaos:
        if args.shards < 1:
            parser.error("--chaos needs --shards >= 1 (supervision is sharded)")
        sessions = args.sessions if args.sessions != 50 else 24
        metrics = run_chaos(
            sessions, args.capacity, args.shards,
            seed=args.chaos_seed, chaos_out=args.chaos_out,
        )
        print(
            f"chaos smoke ok: {metrics['completed']} sessions retired, "
            f"{metrics['shed']} shed (all attributed), "
            f"{metrics['worker_deaths']} worker deaths, "
            f"{metrics['respawns']} respawns, "
            f"{metrics['requeued']} requeues, "
            f"{metrics['retries']} client retries, "
            f"fleet healed to {metrics['live_shards']}/{args.shards} shards"
        )
        return 0
    metrics = run_smoke(
        args.sessions, args.capacity, args.shards,
        expo_out=args.expo_out, trace_out=args.trace_out,
    )
    print(
        f"service smoke ok: {metrics['completed']} sessions"
        + (f" across {args.shards} worker shards" if args.shards else "")
        + f", {metrics['steps']} micro-batch steps, "
        f"mean batch {metrics['mean_batch_sessions']:.1f} sessions, "
        f"round-latency p50 {metrics['round_latency_s']['p50'] * 1e6:.0f}us, "
        f"exposition valid, clean shutdown"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
