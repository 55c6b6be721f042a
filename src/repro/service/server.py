"""JSON-lines TCP front end for the decode service.

Protocol: JSON lines.  A request line holds one request object or a
JSON array of them — a *wave*: every decode of one line is submitted to
the service together, so its sessions share micro-batches from their
first round.  Requests carry an ``op`` (default ``decode``) and an
optional client-chosen ``id`` echoed back on the response.  Each
request gets its own one-object response line, in *completion* order,
not request order; the lines queued in one event-loop pass (every
response one scheduler tick retires) go out in one socket write:

- ``{"op": "decode", "id": 1, "spec": {...}}`` ->
  ``{"id": 1, "ok": true, "result": {...}}`` or
  ``{"id": 1, "ok": false, "error": "backpressure", ...}``
- ``{"op": "metrics"}`` -> ``{"ok": true, "metrics": {...}}``
- ``{"op": "ping"}`` -> ``{"ok": true, "pong": true}``
- ``{"op": "shutdown"}`` -> ``{"ok": true}`` and the server drains and
  exits (used by the CI smoke driver for clean-shutdown checks).

A line that is not JSON, and a line or array item that is not an
object, gets ``{"id": null, "ok": false, "error": "bad-json", ...}``
and the connection serves on.  A decode on a failed or closed service
gets the terminal error kind ``internal``.  A line longer than
:data:`~repro.service.session.MAX_LINE_BYTES` (64 KiB) gets one such
``bad-json`` error naming the limit, then that connection closes.

Run it as ``repro-runner serve --port 7421`` or
``python -m repro.service.server``; drive it with
:class:`repro.service.client.ServiceClient`.  ``--shards N`` puts the
sharded multi-process back end (:class:`repro.service.shard.ShardRouter`,
one full scheduler per worker process) behind the same protocol —
``--capacity``/``--max-queue`` then apply per worker, a dead worker's
unrescued sessions report an extra ``shard-failure`` error kind, and
the ``metrics`` op returns the cross-shard aggregate.  Dead workers
are respawned with exponential backoff, and a worker silent for five
heartbeat periods is declared hung, killed and respawned the same way
(see ``docs/SERVING.md`` for the full failure-semantics matrix).

Observability (all off by default, costing nothing):

- ``--metrics-port N`` serves Prometheus text exposition over HTTP
  (``GET /metrics``, :mod:`repro.obs.http`) next to the TCP port;
- ``--trace FILE`` enables the phase tracer
  (:class:`repro.obs.trace.Tracer`) and writes its sampled span ring
  as JSON lines to ``FILE`` on shutdown (one full record per 64 spans;
  aggregates see every span).  With ``--shards`` the file
  holds the *router-side* ring (per-request spans, shard lifecycle);
  worker-side aggregates still ride every metrics snapshot.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import sys

from repro.service.api import DecodeService
from repro.service.scheduler import Backpressure, SchedulerConfig
from repro.service.session import MAX_LINE_BYTES, SessionSpec
from repro.service.shard import ShardFailure, ShardRouter

__all__ = ["main", "serve"]


def _error(payload_id, error: str, **extra) -> dict:
    return {"id": payload_id, "ok": False, "error": error, **extra}


# Wire error kind of a decode's exception; first match wins, and any
# other exception (a failed or closed service) is ``internal``.
_ERROR_KINDS = (
    (Backpressure, "backpressure"),
    (ShardFailure, "shard-failure"),
    ((TypeError, ValueError), "bad-spec"),
)


class _Connection:
    """One client connection: a read loop that submits each request
    line's decodes as one wave, and done callbacks that queue each
    decode's response line as its future completes.  Lines queued in
    one event-loop pass go out in one transport write."""

    def __init__(
        self,
        service: DecodeService,
        reader,
        writer,
        shutdown: asyncio.Future,
        faults=None,
    ):
        self.service = service
        self.reader = reader
        self.writer = writer
        self.shutdown = shutdown
        self.faults = faults
        self.outstanding: set[asyncio.Future] = set()
        self._lines: list[bytes] = []

    def write(self, payload: dict) -> None:
        """Queue one response line."""
        self._queue(json.dumps(payload, separators=(",", ":")).encode() + b"\n")

    def _queue(self, line: bytes) -> None:
        """Queue ``line``.  The first line of a pass schedules the flush
        behind every callback already queued — all the done callbacks
        of one scheduler tick — so a tick's responses share one write.
        Never awaits, so the read loop keeps reading while the client
        is still writing."""
        if not self._lines:
            asyncio.get_running_loop().call_soon(self._flush)
        self._lines.append(line)

    def _flush(self) -> None:
        """Write every queued line at once; a closing transport (the
        client vanished) drops them."""
        lines, self._lines = self._lines, []
        if lines and not self.writer.is_closing():
            self.writer.write(b"".join(lines))

    def _trace(self, started: float, outcome: str) -> None:
        tracer = self.service.tracer
        if tracer is not None:
            # Request line receipt to response queued (written one loop
            # pass later), service queueing included.
            tracer.add(
                "server.request", started, tracer.clock() - started, tag=outcome
            )

    def _respond(self, payload_id, started: float, future) -> None:
        """Done callback of one decode future: queue its response."""
        self.outstanding.discard(future)
        exc = future.exception()
        if exc is None:
            outcome = "ok"
            if self.faults is not None and self.faults.garble_next():
                # Chaos: a corrupted frame ahead of the real response —
                # the client must skip it and still match the result.
                self._queue(b'{"garbled frame\n')
            response = {"id": payload_id, "ok": True, "result": future.result().to_payload()}
        else:
            outcome = next(
                (k for t, k in _ERROR_KINDS if isinstance(exc, t)), "internal"
            )
            response = _error(payload_id, outcome, detail=str(exc))
        self.write(response)
        self._trace(started, outcome)

    async def run(self) -> None:
        try:
            await self._serve_requests()
        except (ConnectionError, OSError):
            pass  # abrupt disconnect anywhere in the loop: close quietly
        finally:
            # Every admitted decode's response is written before close.
            if self.outstanding:
                await asyncio.wait(self.outstanding)
            self._flush()
            self.writer.close()
            # On the shutdown path the loop is about to tear the
            # transport down anyway; awaiting the close handshake there
            # only races teardown (and loses, noisily).
            if not self.shutdown.done():
                try:
                    await self.writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    def stop_reading(self) -> None:
        """Shutdown: end the read loop at its next ``readline``.  Reading
        pauses first, so no bytes arrive behind the injected EOF."""
        self.writer.transport.pause_reading()
        self.reader.feed_eof()

    async def _serve_requests(self) -> None:
        while not self.shutdown.done():
            try:
                line = await self.reader.readline()
            except ValueError:  # over MAX_LINE_BYTES: the stream is desynced
                self.write(_error(
                    None, "bad-json",
                    detail=f"request line exceeds {MAX_LINE_BYTES} bytes",
                ))
                return
            # After shutdown the line may be a fragment cut by the
            # injected EOF: never parse it.
            if not line or self.shutdown.done():
                break
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except ValueError as exc:  # malformed JSON or UTF-8
                self.write(_error(None, "bad-json", detail=str(exc)))
                continue
            await self._handle(request if isinstance(request, list) else [request])

    async def _handle(self, requests: list) -> None:
        """Answer one request line: control ops in order, and every
        decode of the line as one wave on the service."""
        tracer = self.service.tracer
        started = tracer.clock() if tracer is not None else 0.0
        ids, specs = [], []
        for request in requests:
            if not isinstance(request, dict):
                self.write(_error(None, "bad-json", detail="request is not a JSON object"))
                continue
            payload_id = request.get("id")
            op = request.get("op", "decode")
            if op == "decode":
                if request.get("retry"):
                    # Client-visible resubmission (idempotent; see
                    # ServiceClient) — count it server-side.
                    self.service.record_client_retry()
                try:
                    specs.append(SessionSpec.from_payload(request.get("spec") or {}))
                except (TypeError, ValueError) as exc:
                    self.write(_error(payload_id, "bad-spec", detail=str(exc)))
                    self._trace(started, "bad-spec")
                    continue
                ids.append(payload_id)
            elif op == "metrics":
                snapshot = await self.service.metrics()
                self.write({"id": payload_id, "ok": True, "metrics": snapshot})
            elif op == "ping":
                self.write({"id": payload_id, "ok": True, "pong": True})
            elif op == "shutdown":
                self.write({"id": payload_id, "ok": True})
                if not self.shutdown.done():
                    self.shutdown.set_result(None)
            else:
                self.write(_error(payload_id, f"unknown-op:{op}"))
        if specs:
            try:
                futures = self.service.submit_wave(specs)
            except RuntimeError as exc:  # the service failed or closed
                for payload_id in ids:
                    self.write(_error(payload_id, "internal", detail=str(exc)))
                    self._trace(started, "internal")
                return
            for payload_id, future in zip(ids, futures):
                self.outstanding.add(future)
                future.add_done_callback(
                    functools.partial(self._respond, payload_id, started)
                )


async def serve(
    host: str = "127.0.0.1",
    port: int = 7421,
    config: SchedulerConfig | None = None,
    ready=None,
    shards: int = 0,
    metrics_port: int | None = None,
    metrics_ready=None,
    trace_path=None,
    faults=None,
) -> None:
    """Run the TCP service until a client sends ``shutdown``.

    ``ready`` (optional callable) receives the actually-bound ``(host,
    port)`` once listening — lets callers pass ``port=0`` and discover
    the ephemeral port (the smoke driver and tests do).  ``shards=0``
    (default) serves from one in-process scheduler; ``shards >= 1``
    serves from that many worker processes behind a
    :class:`~repro.service.shard.ShardRouter` (``config`` then applies
    per worker; its workers are supervised as the router describes).
    ``faults`` takes a :class:`~repro.service.faults.FaultPlan` for
    deterministic chaos injection (``None`` — the default — costs
    nothing).

    ``metrics_port`` (0 = ephemeral) additionally serves Prometheus
    text exposition on HTTP ``GET /metrics``; ``metrics_ready``
    receives its bound ``(host, port)``.  The endpoint's snapshot
    callable runs on the HTTP thread and marshals onto this event loop,
    so scheduler state stays single-threaded.  ``trace_path`` writes
    the service tracer's span ring as JSON lines at shutdown (requires
    ``config.trace``; silently skipped when tracing is off).
    """
    loop = asyncio.get_running_loop()
    shutdown = loop.create_future()
    connections: dict[asyncio.Task, _Connection] = {}
    backend = (
        ShardRouter(n_shards=shards, config=config, faults=faults)
        if shards
        else DecodeService(config=config)
    )
    server_faults = faults.for_server() if faults is not None else None
    async with backend as service:
        async def handler(reader, writer):
            task = asyncio.current_task()
            connection = _Connection(
                service, reader, writer, shutdown, faults=server_faults
            )
            connections[task] = connection
            task.add_done_callback(connections.pop)
            await connection.run()

        def snapshot_fn():
            # Runs on the HTTP thread: marshal onto the loop.
            future = asyncio.run_coroutine_threadsafe(service.metrics(), loop)
            return future.result(timeout=30)

        metrics_server = None
        if metrics_port is not None:
            # Imported here so a serve process without --metrics-port
            # never loads http.server and its dependencies.
            from repro.obs.http import MetricsHTTPServer

            metrics_server = MetricsHTTPServer(
                snapshot_fn, host=host, port=metrics_port
            ).start()
            if metrics_ready is not None:
                metrics_ready(metrics_server.address)
        try:
            server = await asyncio.start_server(
                handler, host=host, port=port, limit=MAX_LINE_BYTES
            )
            bound = server.sockets[0].getsockname()[:2]
            if ready is not None:
                ready(bound)
            async with server:
                await shutdown
                # Every handler unwinds before the event loop closes: one
                # parked in readline would otherwise be cancelled at
                # teardown and spray CancelledError tracebacks.
                for connection in connections.values():
                    connection.stop_reading()
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
        "--metrics-port", type=int, default=None, metavar="N",
        help="also serve Prometheus text exposition on HTTP "
        "GET /metrics at this port (0 = ephemeral, printed once bound)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="enable the phase tracer and write its sampled span ring "
        "to FILE as JSON lines on shutdown",
    )
    args = parser.parse_args(argv)
    config = SchedulerConfig(
        max_active=args.capacity, max_queue=args.max_queue,
        trace=args.trace is not None,
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
