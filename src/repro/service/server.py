"""JSON-lines TCP front end for the decode service.

Protocol: one JSON object per line, in both directions.  Requests carry
an ``op`` (default ``decode``) and an optional client-chosen ``id``
echoed back on the response, so clients may pipeline many decodes per
connection and match responses as sessions retire (responses arrive in
*completion* order, not request order):

- ``{"op": "decode", "id": 1, "spec": {...}}`` ->
  ``{"id": 1, "ok": true, "result": {...}}`` or
  ``{"id": 1, "ok": false, "error": "backpressure", ...}``
- ``{"op": "metrics"}`` -> ``{"ok": true, "metrics": {...}}``
- ``{"op": "ping"}`` -> ``{"ok": true, "pong": true}``
- ``{"op": "shutdown"}`` -> ``{"ok": true}`` and the server drains and
  exits (used by the CI smoke driver for clean-shutdown checks).

Run it as ``repro-runner serve --port 7421`` or
``python -m repro.service.server``; drive it with
:class:`repro.service.client.ServiceClient`.  ``--shards N`` puts the
sharded multi-process back end (:class:`repro.service.shard.ShardRouter`,
one full scheduler per worker process) behind the same protocol —
``--capacity``/``--max-queue`` then apply per worker, a dead worker's
unrescued sessions report an extra ``shard-failure`` error kind, and
the ``metrics`` op returns the cross-shard aggregate.  Dead workers
are respawned with exponential backoff (``--no-respawn`` disables);
``--heartbeat-interval`` / ``--session-deadline`` bound how long a
hung-but-alive worker survives before it is killed and respawned (see
``docs/SERVING.md`` for the full failure-semantics matrix).

Observability (all off by default, costing nothing):

- ``--metrics-port N`` serves Prometheus text exposition over HTTP
  (``GET /metrics``, :mod:`repro.obs.http`) next to the TCP port;
- ``--trace FILE`` enables the phase tracer
  (:class:`repro.obs.trace.Tracer`) and writes its sampled span ring
  as JSON lines to ``FILE`` on shutdown.  With ``--shards`` the file
  holds the *router-side* ring (per-request spans, shard lifecycle);
  worker-side aggregates still ride every metrics snapshot.
"""

from __future__ import annotations

import argparse
import asyncio
import inspect
import json
import sys

from repro.obs.http import MetricsHTTPServer
from repro.service.api import DecodeService
from repro.service.scheduler import Backpressure, SchedulerConfig
from repro.service.session import SessionSpec
from repro.service.shard import ShardFailure, ShardRouter

__all__ = ["main", "serve"]


def _error(payload_id, error: str, **extra) -> dict:
    return {"id": payload_id, "ok": False, "error": error, **extra}


class _Connection:
    """One client connection: a read loop plus write-serialised responses."""

    def __init__(
        self,
        service: DecodeService,
        reader,
        writer,
        shutdown: asyncio.Event,
        faults=None,
    ):
        self.service = service
        self.reader = reader
        self.writer = writer
        self.shutdown = shutdown
        self.faults = faults
        self.write_lock = asyncio.Lock()
        self.decodes: set[asyncio.Task] = set()

    async def send(self, payload: dict) -> None:
        data = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        async with self.write_lock:
            try:
                self.writer.write(data)
                await self.writer.drain()
            except (ConnectionError, OSError):
                # The client vanished mid-response (reset, broken
                # pipe).  Its session already ran; there is no one left
                # to report to — drop the payload and let the read loop
                # observe EOF.
                pass

    async def _decode(self, payload_id, spec_payload) -> None:
        tracer = self.service.tracer
        started = tracer.clock() if tracer is not None else 0.0
        outcome = "ok"
        try:
            spec = SessionSpec.from_payload(spec_payload)
            result = await self.service.submit(spec)
        except Backpressure as exc:
            outcome = "backpressure"
            await self.send(_error(payload_id, "backpressure", detail=str(exc)))
        except ShardFailure as exc:
            outcome = "shard-failure"
            await self.send(_error(payload_id, "shard-failure", detail=str(exc)))
        except (TypeError, ValueError) as exc:
            outcome = "bad-spec"
            await self.send(_error(payload_id, "bad-spec", detail=str(exc)))
        else:
            if self.faults is not None and self.faults.garble_next():
                # Chaos: a corrupted frame ahead of the real response —
                # the client must skip it and still match the result.
                async with self.write_lock:
                    try:
                        self.writer.write(b'{"garbled frame\n')
                        await self.writer.drain()
                    except (ConnectionError, OSError):
                        pass
            await self.send(
                {"id": payload_id, "ok": True, "result": result.to_payload()}
            )
        finally:
            if tracer is not None:
                # Request receipt to response flushed, queueing included.
                tracer.add(
                    "server.request", started, tracer.clock() - started,
                    tag=outcome,
                )

    async def _readline_or_shutdown(self) -> bytes:
        """Next request line, or ``b""`` once shutdown is signalled.

        Racing the read against the shutdown event lets every handler
        unwind *before* the event loop closes — a connection parked in
        ``readline`` would otherwise be cancelled at teardown and spray
        CancelledError tracebacks through the stream callbacks.
        """
        read = asyncio.ensure_future(self.reader.readline())
        stop = asyncio.ensure_future(self.shutdown.wait())
        done, pending = await asyncio.wait(
            (read, stop), return_when=asyncio.FIRST_COMPLETED
        )
        for task in pending:
            task.cancel()
        if read in done:
            try:
                return read.result()
            except (ConnectionError, OSError):
                # An abrupt disconnect (e.g. RST) surfaces here as
                # ConnectionResetError; treat it as EOF so the handler
                # unwinds quietly instead of leaving an unretrieved
                # task exception behind.
                return b""
        return b""

    async def run(self) -> None:
        try:
            await self._serve_requests()
        except (ConnectionError, OSError):
            pass  # abrupt disconnect anywhere in the loop: close quietly
        finally:
            if self.decodes:
                await asyncio.gather(*self.decodes, return_exceptions=True)
            self.writer.close()
            # On the shutdown path the loop is about to tear the
            # transport down anyway; awaiting the close handshake there
            # only races teardown (and loses, noisily).
            if not self.shutdown.is_set():
                try:
                    await self.writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _serve_requests(self) -> None:
        while True:
            line = await self._readline_or_shutdown()
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                await self.send(_error(None, "bad-json", detail=str(exc)))
                continue
            payload_id = request.get("id")
            op = request.get("op", "decode")
            if op == "decode":
                if request.get("retry"):
                    # Client-visible resubmission (idempotent; see
                    # ServiceClient) — count it server-side.
                    self.service.record_client_retry()
                # Spawn so the read loop keeps accepting pipelined
                # requests while this session decodes.
                task = asyncio.create_task(
                    self._decode(payload_id, request.get("spec") or {})
                )
                self.decodes.add(task)
                task.add_done_callback(self.decodes.discard)
            elif op == "metrics":
                # DecodeService.metrics is sync; ShardRouter's is a
                # coroutine (the numbers live in the workers).
                snapshot = self.service.metrics()
                if inspect.isawaitable(snapshot):
                    snapshot = await snapshot
                await self.send(
                    {"id": payload_id, "ok": True, "metrics": snapshot}
                )
            elif op == "ping":
                await self.send({"id": payload_id, "ok": True, "pong": True})
            elif op == "shutdown":
                await self.send({"id": payload_id, "ok": True})
                self.shutdown.set()
            else:
                await self.send(_error(payload_id, f"unknown-op:{op}"))


async def serve(
    host: str = "127.0.0.1",
    port: int = 7421,
    config: SchedulerConfig | None = None,
    ready=None,
    shards: int = 0,
    metrics_port: int | None = None,
    metrics_ready=None,
    trace_path=None,
    respawn: bool = True,
    respawn_backoff: float = 0.5,
    heartbeat_interval: float = 1.0,
    heartbeat_timeout: float | None = None,
    session_deadline: float | None = None,
    faults=None,
) -> None:
    """Run the TCP service until a client sends ``shutdown``.

    ``ready`` (optional callable) receives the actually-bound ``(host,
    port)`` once listening — lets callers pass ``port=0`` and discover
    the ephemeral port (the smoke driver and tests do).  ``shards=0``
    (default) serves from one in-process scheduler; ``shards >= 1``
    serves from that many worker processes behind a
    :class:`~repro.service.shard.ShardRouter` (``config`` then applies
    per worker).

    Supervision (sharded back end only): ``respawn`` re-forks dead
    workers with exponential backoff starting at ``respawn_backoff``
    seconds; ``heartbeat_interval`` (0 disables the liveness layer)
    and ``heartbeat_timeout`` (default 5x the interval) bound how long
    a silent worker lives; ``session_deadline`` seconds *per session
    round* bounds how long one session may sit on a worker before the
    worker is declared hung.  ``faults`` takes a
    :class:`~repro.service.faults.FaultPlan` for deterministic chaos
    injection (``None`` — the default — costs nothing).

    ``metrics_port`` (0 = ephemeral) additionally serves Prometheus
    text exposition on HTTP ``GET /metrics``; ``metrics_ready``
    receives its bound ``(host, port)``.  The endpoint's snapshot
    callable runs on the HTTP thread and marshals onto this event loop,
    so scheduler state stays single-threaded.  ``trace_path`` writes
    the service tracer's span ring as JSON lines at shutdown (requires
    ``config.trace``; silently skipped when tracing is off).
    """
    shutdown = asyncio.Event()
    connections: set[asyncio.Task] = set()
    backend = (
        ShardRouter(
            n_shards=shards,
            config=config,
            respawn=respawn,
            respawn_backoff_s=respawn_backoff,
            heartbeat_interval_s=heartbeat_interval,
            heartbeat_timeout_s=heartbeat_timeout,
            session_deadline_s=session_deadline,
            faults=faults,
        )
        if shards
        else DecodeService(config=config)
    )
    server_faults = faults.for_server() if faults is not None else None
    loop = asyncio.get_running_loop()
    async with backend as service:
        async def handler(reader, writer):
            task = asyncio.current_task()
            connections.add(task)
            task.add_done_callback(connections.discard)
            await _Connection(
                service, reader, writer, shutdown, faults=server_faults
            ).run()

        async def grab_snapshot():
            snapshot = service.metrics()
            if inspect.isawaitable(snapshot):
                snapshot = await snapshot
            return snapshot

        def snapshot_fn():
            # Runs on the HTTP thread: marshal onto the loop.
            future = asyncio.run_coroutine_threadsafe(grab_snapshot(), loop)
            return future.result(timeout=30)

        metrics_server = None
        if metrics_port is not None:
            metrics_server = MetricsHTTPServer(
                snapshot_fn, host=host, port=metrics_port
            ).start()
            if metrics_ready is not None:
                metrics_ready(metrics_server.address)
        try:
            server = await asyncio.start_server(handler, host=host, port=port)
            bound = server.sockets[0].getsockname()[:2]
            if ready is not None:
                ready(bound)
            async with server:
                await shutdown.wait()
            # Listener closed.  Explicitly await the connection handlers
            # (each flushes its in-flight pipelined responses in its
            # ``finally``) while the service is still pumping — on Python
            # 3.11 ``Server.wait_closed`` does not cover handler tasks, so
            # returning here would strand their unsent responses.  The
            # ``async with`` exit then drains the service itself.
            if connections:
                await asyncio.gather(*connections, return_exceptions=True)
            if trace_path is not None and service.tracer is not None:
                service.tracer.export_jsonl(trace_path)
        finally:
            if metrics_server is not None:
                metrics_server.stop()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``repro-runner serve`` forwards here)."""
    parser = argparse.ArgumentParser(
        prog="repro-runner serve",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7421,
        help="TCP port (0 = ephemeral, printed once bound)",
    )
    parser.add_argument(
        "--capacity", type=int, default=256,
        help="max concurrently-decoding sessions (micro-batch ceiling)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=1024,
        help="admission queue bound; beyond it decodes are rejected "
        "with a backpressure error",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="worker processes to shard the scheduler across "
        "(0 = single in-process scheduler; --capacity/--max-queue "
        "apply per worker)",
    )
    parser.add_argument(
        "--respawn", action=argparse.BooleanOptionalAction, default=True,
        help="with --shards: respawn dead worker processes with "
        "exponential backoff and replay their rescued sessions "
        "(--no-respawn restores shed-only recovery)",
    )
    parser.add_argument(
        "--respawn-backoff", type=float, default=0.5, metavar="S",
        help="with --respawn: initial respawn delay in seconds, "
        "doubling per consecutive death of the same shard",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=1.0, metavar="S",
        help="with --shards: worker heartbeat period; a worker silent "
        "for 5x this (see --shards docs for the timeout) is declared "
        "hung, killed and respawned (0 disables liveness checking)",
    )
    parser.add_argument(
        "--session-deadline", type=float, default=None, metavar="S",
        help="with --shards: per-round session deadline — a session "
        "held longer than S * (rounds + 1) seconds marks its worker "
        "hung (default: no deadline)",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="N",
        help="also serve Prometheus text exposition on HTTP "
        "GET /metrics at this port (0 = ephemeral, printed once bound)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="enable the phase tracer and write its sampled span ring "
        "to FILE as JSON lines on shutdown",
    )
    parser.add_argument(
        "--trace-sample", type=int, default=64, metavar="N",
        help="with --trace: keep one full span record per N spans "
        "(aggregates always see every span)",
    )
    args = parser.parse_args(argv)
    config = SchedulerConfig(
        max_active=args.capacity, max_queue=args.max_queue,
        trace=args.trace is not None,
        trace_sample=args.trace_sample,
    )

    def announce(bound):
        print(
            f"decode service listening on {bound[0]}:{bound[1]}"
            + (f" ({args.shards} worker shards)" if args.shards else ""),
            flush=True,
        )

    def announce_metrics(bound):
        print(
            f"metrics exposition on http://{bound[0]}:{bound[1]}/metrics",
            flush=True,
        )

    try:
        asyncio.run(
            serve(
                args.host, args.port, config,
                ready=announce, shards=args.shards,
                metrics_port=args.metrics_port,
                metrics_ready=announce_metrics,
                trace_path=args.trace,
                respawn=args.respawn,
                respawn_backoff=args.respawn_backoff,
                heartbeat_interval=args.heartbeat_interval,
                session_deadline=args.session_deadline,
            )
        )
    except KeyboardInterrupt:
        return 130
    if args.trace is not None:
        print(f"trace written to {args.trace}", flush=True)
    print("decode service stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
