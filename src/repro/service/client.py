"""Blocking JSON-lines TCP client for the decode service.

The counterpart of :mod:`repro.service.server` for scripts, benchmarks
and CI: a plain-socket client that sends a whole wave of decode
requests as JSON-array lines on one connection (the server responds one
line per session, in completion order; responses are matched back by
request id)::

    from repro.service.client import ServiceClient
    from repro.service.session import SessionSpec

    with ServiceClient(port=7421) as client:
        result = client.decode(SessionSpec(d=9, p=0.001, seed=7))
        results = client.decode_many(
            [SessionSpec(d=9, p=0.001, seed=s) for s in range(64)]
        )
        print(client.metrics()["throughput_sessions_per_s"])
        client.shutdown()

Resilience (``retries``, default 2): transport faults (timeout,
connection reset) and retryable service errors (``shard-failure``)
are retried with jittered exponential backoff.  Resubmission is
**idempotent and keyed by ticket**: a decode is a pure function of its
spec, and a resubmitted request reuses its original request id, so a
retry can never be double-counted against a different response.
Resubmitted requests carry a ``retry`` field the server counts as the
client-visible ``retries`` metric.  Terminal errors (``bad-spec``,
``backpressure``, ``bad-json``, ``internal``) raise immediately — retrying a
rejected spec cannot succeed, and retrying into backpressure only
amplifies the overload (shed-and-retry-later is the open-loop
client's job, not this transport's).

After any timeout or connection error the client **reconnects before
doing anything else**: a timed-out ``readline`` may have consumed a
partial frame, leaving the old stream undefined — the classic
mis-matched-response bug — so the old socket is never reused.  On the
new connection, frames for abandoned request ids cannot arrive at all;
on an intact connection, stale or unparseable frames (e.g. a
chaos-garbled line) are counted and skipped rather than trusted.
"""

from __future__ import annotations

import json
import random
import socket
import time

from repro.service.session import MAX_LINE_BYTES, SessionSpec

__all__ = ["ServiceClient", "ServiceError"]

# Consecutive junk frames tolerated before declaring the stream broken.
_MAX_CONSECUTIVE_JUNK = 64


class ServiceError(RuntimeError):
    """A failed request: a response with ``ok: false``, or a transport
    fault mapped to the ``timeout`` / ``connection`` kinds.

    ``error`` is the kind; :attr:`retryable` says whether resubmitting
    the same request can succeed (`shard-failure`, timeout, connection
    — transient serving-side conditions) or not (`bad-spec` is wrong
    forever, `backpressure` means *back off*, not *try again now*).
    """

    RETRYABLE = frozenset({"shard-failure", "timeout", "connection"})

    def __init__(self, error: str, detail: str = ""):
        super().__init__(f"{error}: {detail}" if detail else error)
        self.error = error
        self.detail = detail

    @property
    def retryable(self) -> bool:
        return self.error in self.RETRYABLE


class ServiceClient:
    """One TCP connection to a running decode service.

    ``retries`` bounds resubmissions per request (0 disables);
    ``backoff_s`` seeds the jittered exponential backoff between
    attempts.  :attr:`retries_performed`, :attr:`reconnects`,
    :attr:`stale_frames` and :attr:`malformed_frames` count what the
    resilience layer actually did.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7421,
        timeout: float = 120.0,
        retries: int = 2,
        backoff_s: float = 0.05,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_s <= 0:
            raise ValueError(f"backoff_s must be > 0, got {backoff_s}")
        self._host = host
        self._port = port
        self._timeout = timeout
        self.max_retries = retries
        self.backoff_s = backoff_s
        # Deterministic jitter: seeded by the endpoint, so two clients
        # hammering the same server still decorrelate their retries.
        self._rng = random.Random(f"{host}:{port}")
        self._next_id = 1
        self.retries_performed = 0
        self.reconnects = 0
        self.stale_frames = 0
        self.malformed_frames = 0
        self._connect()

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._file = self._sock.makefile("rwb")

    def _reconnect(self) -> None:
        """Drop the (possibly desynced) connection and open a fresh one.

        Request ids keep incrementing across reconnects, so a response
        matched on the new stream can never belong to an abandoned
        request from the old one.
        """
        self.reconnects += 1
        self.close()
        self._connect()

    def _backoff(self, attempt: int) -> None:
        """Jittered exponential backoff before resubmission ``attempt``."""
        delay = self.backoff_s * (2 ** attempt) * (0.5 + self._rng.random())
        time.sleep(delay)

    def _send_wave(self, requests: list[dict]) -> list[int]:
        """Write ``requests`` as JSON-array lines, each within
        :data:`MAX_LINE_BYTES`; returns the ids of requests too long to
        fit a line even alone (they are not sent)."""
        too_long, items, size = [], [], 1  # size: "[" + items and separators
        for request in requests:
            item = json.dumps(request, separators=(",", ":")).encode()
            if len(item) + 2 > MAX_LINE_BYTES:
                too_long.append(request["id"])
                continue
            if size + len(item) + 1 > MAX_LINE_BYTES:
                self._file.write(b"[" + b",".join(items) + b"]\n")
                items, size = [], 1
            items.append(item)
            size += len(item) + 1
        if items:
            self._file.write(b"[" + b",".join(items) + b"]\n")
        self._file.flush()
        return too_long

    def _read_frame(self, expected_ids) -> dict:
        """The next response belonging to ``expected_ids``.

        Unparseable lines (a garbled frame) and responses for unknown
        ids (stale — e.g. the server answering a request this client
        already gave up on) are counted and skipped, bounded so a
        babbling stream still fails loudly instead of spinning.
        """
        junk = 0
        while True:
            line = self._file.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            try:
                response = json.loads(line)
            except json.JSONDecodeError:
                self.malformed_frames += 1
                junk += 1
            else:
                if response.get("id") in expected_ids:
                    return response
                self.stale_frames += 1
                junk += 1
            if junk >= _MAX_CONSECUTIVE_JUNK:
                raise ServiceError(
                    "protocol",
                    f"{junk} consecutive frames with no expected response",
                )

    def _call(self, requests: list[dict], reconnect: bool = True) -> list:
        """Send ``requests`` as one wave; returns a response or a
        :class:`ServiceError` per request, in request order.

        The wave goes out up front as JSON-array lines (split to fit
        :data:`MAX_LINE_BYTES`) and responses arrive in completion
        order.  Retryable failures are resubmitted (same request id,
        ``retry`` field set) under the per-request retry budget, as one
        wave once the current one has answered; a transport fault
        reconnects first — the old stream is undefined after a timeout
        — then resubmits every unanswered request, or re-raises with
        ``reconnect=False``.
        """
        ids = list(range(self._next_id, self._next_id + len(requests)))
        self._next_id += len(requests)
        outcomes: list = [None] * len(requests)
        attempts = [0] * len(requests)
        todo = range(len(requests))
        while todo:
            retry: list[int] = []

            def settle(index: int, error: ServiceError) -> None:
                if error.retryable and attempts[index] < self.max_retries:
                    retry.append(index)
                else:
                    outcomes[index] = error

            wave = []
            for i in todo:
                request = {"id": ids[i], **requests[i]}
                if attempts[i]:
                    request["retry"] = attempts[i]
                wave.append(request)
            pending = {ids[i]: i for i in todo}  # request id -> index
            try:
                for request_id in self._send_wave(wave):
                    outcomes[pending.pop(request_id)] = ServiceError(
                        "bad-json",
                        f"request exceeds the {MAX_LINE_BYTES}-byte line limit",
                    )
                while pending:
                    response = self._read_frame(pending)
                    index = pending.pop(response["id"])
                    if response.get("ok"):
                        outcomes[index] = response
                    else:
                        settle(index, ServiceError(
                            response.get("error", "unknown"),
                            response.get("detail", ""),
                        ))
            except (TimeoutError, ConnectionError, OSError) as exc:
                if not reconnect:
                    raise
                kind = "timeout" if isinstance(exc, TimeoutError) else "connection"
                # The stream is undefined from here (a partial frame may
                # have been consumed): resync on a fresh connection
                # before anything else touches the socket.
                self._reconnect()
                for index in sorted(pending.values()):
                    settle(index, ServiceError(kind, str(exc)))
            if retry:
                self._backoff(min(attempts[i] for i in retry))
                for i in retry:
                    attempts[i] += 1
                    self.retries_performed += 1
            todo = sorted(retry)
        return outcomes

    def _request(self, payload: dict, reconnect: bool = True) -> dict:
        """One control request's response; raises :class:`ServiceError`."""
        outcome = self._call([payload], reconnect)[0]
        if isinstance(outcome, ServiceError):
            raise outcome
        return outcome

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def decode(self, spec: SessionSpec | dict) -> dict:
        """Decode one session; returns the result payload.

        Retryable failures (shard death mid-decode, transport faults)
        are resubmitted up to ``retries`` times; terminal errors raise
        :class:`ServiceError` immediately.
        """
        return self.decode_many([spec])[0]

    def decode_many(self, specs, return_errors: bool = False) -> list:
        """Decode a wave of sessions on this connection.

        The whole wave goes out up front (see :meth:`_call`), so the
        server admits it as one wave and the sessions share its
        micro-batches; results come back in request order.

        With ``return_errors`` the outcome list holds a result payload
        *or* a :class:`ServiceError` per spec (chaos harnesses want
        every session's attributed outcome); without it (default) the
        first failure in request order raises after all outcomes are
        in, matching the original semantics.
        """
        outcomes = [
            outcome if isinstance(outcome, ServiceError) else outcome["result"]
            for outcome in self._call([
                {
                    "op": "decode",
                    "spec": s.to_payload() if isinstance(s, SessionSpec) else dict(s),
                }
                for s in specs
            ])
        ]
        if not return_errors:
            for outcome in outcomes:
                if isinstance(outcome, ServiceError):
                    raise outcome
        return outcomes

    def metrics(self) -> dict:
        """The service's live metrics snapshot."""
        return self._request({"op": "metrics"})["metrics"]

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return bool(self._request({"op": "ping"}).get("pong"))

    def shutdown(self) -> None:
        """Ask the server to drain and exit.

        Never resubmitted through a reconnect: racing a second shutdown
        against a server that is already tearing down only manufactures
        connection noise.
        """
        self._request({"op": "shutdown"}, reconnect=False)

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._file.close()
        except OSError:
            pass
        finally:
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
