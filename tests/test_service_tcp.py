"""Transport-layer tests: in-process async API and JSON-lines TCP.

The transports must preserve the scheduler's bit-identity contract end
to end (wire-serialized match streams equal the standalone trial's) and
shut down cleanly — the same loop CI's ``service-smoke`` step drives at
larger scale via :mod:`repro.service.smoke`.
"""

from __future__ import annotations

import asyncio
import gc
import json
import logging
import queue
import socket
import struct
import threading
import time

import pytest

from repro.core.online import run_online_trial
from repro.service import Backpressure, DecodeService, SchedulerConfig, SessionSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import serve
from repro.surface_code.lattice import PlanarLattice


def wire_matches(matches):
    """A match list as the TCP payload represents it."""
    return [
        [m.kind, list(m.a), None if m.b is None else list(m.b), m.side]
        for m in matches
    ]


class TestDecodeService:
    def test_concurrent_submissions_batch_and_match_trials(self):
        async def scenario():
            specs = [
                SessionSpec(d=(3, 5)[i % 2], p=0.02, seed=300 + i, thv=(3, -1)[i % 2])
                for i in range(10)
            ]
            async with DecodeService(config=SchedulerConfig(max_active=8)) as service:
                results = await asyncio.gather(
                    *(service.submit(spec) for spec in specs)
                )
                snapshot = service.metrics()
            for spec, result in zip(specs, results):
                reference = run_online_trial(
                    PlanarLattice(spec.d), spec.p, spec.rounds,
                    spec.online_config(), rng=spec.seed,
                )
                assert result.matches == reference.matches
                assert result.layer_cycles == list(reference.layer_cycles)
                assert result.failed == reference.failed
            # Concurrent submissions actually shared micro-batches.
            assert snapshot["mean_batch_sessions"] > 1.0
            return True

        assert asyncio.run(scenario())

    def test_backpressure_propagates(self):
        async def scenario():
            config = SchedulerConfig(max_active=1, max_queue=2)
            async with DecodeService(config=config) as service:
                spec = SessionSpec(d=3, p=0.01, seed=1)
                # Submissions are synchronous up to the queue; the pump
                # has not run yet, so the third one must shed.
                first = asyncio.ensure_future(service.submit(spec))
                second = asyncio.ensure_future(service.submit(spec))
                await asyncio.sleep(0)
                with pytest.raises(Backpressure):
                    await service.submit(spec)
                await asyncio.gather(first, second)
            return True

        assert asyncio.run(scenario())

    def test_submit_requires_start(self):
        async def scenario():
            service = DecodeService()
            with pytest.raises(RuntimeError, match="not started"):
                await service.submit(SessionSpec(d=3, p=0.01, seed=1))

        asyncio.run(scenario())

    def test_step_exception_fails_waiters_instead_of_hanging(self):
        """Containment: an exception escaping scheduler.step() must fail
        every in-flight waiter and leave close() able to return — not
        silently kill the pump and hang the service."""

        async def scenario():
            service = await DecodeService(
                config=SchedulerConfig(max_active=4, max_queue=64)
            ).start()
            boom = RuntimeError("poisoned step")

            def poisoned_step():
                raise boom

            service.scheduler.step = poisoned_step
            with pytest.raises(RuntimeError, match="decode service failed"):
                await service.submit(SessionSpec(d=3, p=0.01, seed=1))
            # Subsequent submissions shed immediately with the cause...
            with pytest.raises(RuntimeError, match="poisoned"):
                await service.submit(SessionSpec(d=3, p=0.01, seed=2))
            # ...and teardown returns despite pending sessions.
            await asyncio.wait_for(service.close(), timeout=5)
            return True

        assert asyncio.run(scenario())

    def test_close_without_drain_aborts_promptly(self):
        """close(drain=False) is the teardown path: it must stop the
        pump at a round boundary and fail the waiters, not silently
        decode the whole backlog first."""

        async def scenario():
            service = await DecodeService(
                config=SchedulerConfig(max_active=2, max_queue=64)
            ).start()
            futures = [
                asyncio.ensure_future(
                    service.submit(SessionSpec(d=5, p=0.01, seed=i, n_rounds=9))
                )
                for i in range(6)
            ]
            await asyncio.sleep(0)  # let the submissions queue
            await service.close(drain=False)
            results = await asyncio.gather(*futures, return_exceptions=True)
            assert all(isinstance(r, RuntimeError) for r in results)
            # The backlog was abandoned, not drained behind our back.
            assert service.scheduler.pending > 0
            return True

        assert asyncio.run(scenario())


@pytest.fixture()
def tcp_service():
    """A live TCP server on an ephemeral port, in a daemon thread."""
    bound: queue.Queue = queue.Queue()
    config = SchedulerConfig(max_active=8, max_queue=64)
    thread = threading.Thread(
        target=lambda: asyncio.run(serve("127.0.0.1", 0, config, ready=bound.put)),
        daemon=True,
    )
    thread.start()
    host, port = bound.get(timeout=30)
    yield host, port, thread
    if thread.is_alive():
        try:
            with ServiceClient(host=host, port=port, timeout=10) as client:
                client.shutdown()
        except OSError:
            pass
        thread.join(timeout=30)


class TestTcpFrontEnd:
    def test_ping(self, tcp_service):
        host, port, _ = tcp_service
        with ServiceClient(host=host, port=port) as client:
            assert client.ping()

    def test_pipelined_decodes_are_bit_identical(self, tcp_service):
        host, port, _ = tcp_service
        specs = [
            SessionSpec(d=(3, 5, 7)[i % 3], p=0.02, seed=500 + i)
            for i in range(9)
        ] + [SessionSpec(d=5, p=0.02, seed=600, mode="window")]
        with ServiceClient(host=host, port=port) as client:
            results = client.decode_many(specs)
            metrics = client.metrics()
        for spec, result in zip(specs[:9], results):
            reference = run_online_trial(
                PlanarLattice(spec.d), spec.p, spec.rounds,
                spec.online_config(), rng=spec.seed,
            )
            assert result["matches"] == wire_matches(reference.matches)
            assert result["layer_cycles"] == list(reference.layer_cycles)
            assert result["failed"] == reference.failed
            assert result["logical_failed"] == reference.logical_failed
        assert results[-1]["mode"] == "window"
        assert metrics["completed"] >= 10

    def test_bad_spec_reports_error(self, tcp_service):
        host, port, _ = tcp_service
        with ServiceClient(host=host, port=port) as client:
            with pytest.raises(ServiceError, match="bad-spec"):
                client.decode({"d": 4, "p": 0.01, "seed": 1})

    def test_wrong_typed_spec_is_bad_spec(self, tcp_service):
        """JSON numbers of the wrong kind are shed at validation, and
        the same connection keeps decoding exactly."""
        host, port, _ = tcp_service
        with ServiceClient(host=host, port=port) as client:
            for bad in ({"seed": 1.5}, {"seed": -1}, {"d": "3"},
                        {"n_rounds": True}):
                with pytest.raises(ServiceError, match="bad-spec"):
                    client.decode({"d": 3, "p": 0.01, "seed": 1, **bad})
            spec = SessionSpec(d=3, p=0.02, seed=315)
            result = client.decode(spec)
        reference = run_online_trial(
            PlanarLattice(spec.d), spec.p, spec.rounds,
            spec.online_config(), rng=spec.seed,
        )
        assert result["matches"] == wire_matches(reference.matches)

    def test_bogus_noise_is_rejected_and_scheduler_survives(self, tcp_service):
        """A noise spec that only blows up at noise-model resolution must
        be shed as ``bad-spec`` at validation — before it reaches the
        shared scheduler tick — leaving co-tenant sessions undisturbed."""
        host, port, _ = tcp_service
        with ServiceClient(host=host, port=port) as client:
            with pytest.raises(ServiceError, match="bad-spec"):
                client.decode({"d": 3, "p": 0.01, "seed": 1, "noise": "bogus"})
            with pytest.raises(ServiceError, match="bad-spec"):
                client.decode({
                    "d": 3, "p": 0.01, "seed": 1,
                    "noise": "drift", "noise_params": {"no_such_param": 1},
                })
            # Same connection, same scheduler: still serving, still exact.
            spec = SessionSpec(d=3, p=0.02, seed=314)
            result = client.decode(spec)
        reference = run_online_trial(
            PlanarLattice(spec.d), spec.p, spec.rounds,
            spec.online_config(), rng=spec.seed,
        )
        assert result["matches"] == wire_matches(reference.matches)
        assert result["failed"] == reference.failed

    def test_abrupt_disconnect_mid_pipeline_is_quiet(self, tcp_service):
        """A client that dies mid-pipeline (RST, not FIN) must not leave
        'Task exception was never retrieved' noise behind — the handler
        treats connection errors as EOF — and the service keeps serving."""
        host, port, _ = tcp_service
        records: list[logging.LogRecord] = []

        class _Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        logger = logging.getLogger("asyncio")
        handler = _Capture(level=logging.ERROR)
        logger.addHandler(handler)
        try:
            rude = socket.create_connection((host, port), timeout=10)
            for i in range(4):
                payload = {
                    "op": "decode", "id": i,
                    "spec": SessionSpec(d=5, p=0.02, seed=700 + i).to_payload(),
                }
                rude.sendall(json.dumps(payload).encode() + b"\n")
            # SO_LINGER(on, 0): close sends RST, so the server-side
            # readline raises ConnectionResetError instead of seeing EOF.
            rude.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            rude.close()
            # The service must still be healthy for the next client.
            spec = SessionSpec(d=3, p=0.02, seed=777)
            with ServiceClient(host=host, port=port) as client:
                result = client.decode(spec)
            reference = run_online_trial(
                PlanarLattice(spec.d), spec.p, spec.rounds,
                spec.online_config(), rng=spec.seed,
            )
            assert result["matches"] == wire_matches(reference.matches)
            time.sleep(0.2)  # let the dead connection's handler unwind
            gc.collect()  # a dropped task reports unretrieved exceptions here
        finally:
            logger.removeHandler(handler)
        assert not records, [r.getMessage() for r in records]

    def test_shutdown_is_clean(self, tcp_service):
        host, port, thread = tcp_service
        with ServiceClient(host=host, port=port) as client:
            client.decode(SessionSpec(d=3, p=0.01, seed=2))
            client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_server_counts_client_retries(self, tcp_service):
        """A resubmitted request (``retry`` field on the wire) shows up
        in the server's ``retries`` counter — the client-visible retry
        metric of docs/SERVING.md."""
        host, port, _ = tcp_service
        with ServiceClient(host=host, port=port) as client:
            request_id = client._send({
                "op": "decode", "retry": 1,
                "spec": SessionSpec(d=3, p=0.01, seed=42).to_payload(),
            })
            response = client._read()
            assert response["id"] == request_id and response["ok"]
            assert client.metrics()["retries"] == 1

    def test_shutdown_flushes_inflight_pipelined_decodes(self, tcp_service):
        """A shutdown op racing pipelined decodes must not strand their
        responses: the server waits for connection handlers (which
        flush in-flight sessions) before tearing the loop down — on
        3.11, Server.wait_closed alone does not cover handler tasks."""
        host, port, thread = tcp_service
        with ServiceClient(host=host, port=port) as client:
            ids = [
                client._send({
                    "op": "decode",
                    "spec": SessionSpec(d=3, p=0.01, seed=900 + i).to_payload(),
                })
                for i in range(6)
            ]
            shutdown_id = client._send({"op": "shutdown"})
            responses = {}
            while len(responses) < 7:
                response = client._read()
                responses[response["id"]] = response
        for request_id in ids:
            assert responses[request_id]["ok"], responses[request_id]
            assert "result" in responses[request_id]
        assert responses[shutdown_id]["ok"]
        thread.join(timeout=30)
        assert not thread.is_alive()


class _ScriptedServer:
    """A hand-rolled JSON-lines endpoint with scripted per-connection
    behaviour — drives the client's resilience paths (mid-pipeline
    timeout, garbled frames, stale ids, retryable errors)
    deterministically, without a real scheduler behind them.

    Connection ``n`` runs ``handlers[n]`` in its own daemon thread (a
    handler may park forever holding its socket — exactly how a hung
    server looks to the client).  Every request frame read lands in
    ``requests``, in arrival order.
    """

    def __init__(self, *handlers):
        self.handlers = list(handlers)
        self.requests: list[dict] = []
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.host, self.port = self.sock.getsockname()
        self._accept = threading.Thread(target=self._serve, daemon=True)
        self._accept.start()

    def _serve(self):
        for handler in self.handlers:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(
                target=self._run, args=(handler, conn), daemon=True
            ).start()

    def _run(self, handler, conn):
        file = conn.makefile("rwb")
        try:
            handler(self, file)
        except (ConnectionError, OSError, ValueError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def read(self, file) -> dict:
        line = file.readline()
        if not line:
            raise ConnectionError("client went away")
        request = json.loads(line)
        self.requests.append(request)
        return request

    @staticmethod
    def write(file, payload: dict) -> None:
        file.write(json.dumps(payload).encode() + b"\n")
        file.flush()

    @staticmethod
    def write_raw(file, data: bytes) -> None:
        file.write(data)
        file.flush()

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "_ScriptedServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TestClientResilience:
    """The client's retry/reconnect layer against scripted misbehaviour.

    The contract under test: resubmission is idempotent and keyed by
    ticket (same request id, ``retry`` field set), a timed-out stream
    is *never* reused (reconnect-then-resync — the mid-pipeline desync
    bug), junk frames are skipped not trusted, and terminal errors are
    never retried.
    """

    SPECS = [SessionSpec(d=3, p=0.01, seed=40 + i) for i in range(2)]

    def test_mid_pipeline_timeout_reconnects_and_resubmits_unanswered(self):
        """The desync scenario: the server answers one of two pipelined
        decodes, then stalls mid-frame.  The old stream is undefined
        after the read timeout — the client must reconnect and resubmit
        the unanswered request (same id) on the fresh connection, and
        the answered one must not be disturbed."""

        def stalls_mid_frame(server, file):
            a = server.read(file)
            server.read(file)
            server.write(file, {"id": a["id"], "ok": True, "result": {"who": "a"}})
            server.write_raw(file, b'{"id": ')  # partial frame, then hang
            time.sleep(30)

        def serves_everything(server, file):
            while True:
                r = server.read(file)
                server.write(
                    file, {"id": r["id"], "ok": True, "result": {"who": "b"}}
                )

        with _ScriptedServer(stalls_mid_frame, serves_everything) as server:
            with ServiceClient(
                host=server.host, port=server.port,
                timeout=0.3, retries=2, backoff_s=0.05,
            ) as client:
                results = client.decode_many(self.SPECS)
                assert [r["who"] for r in results] == ["a", "b"]
                assert client.reconnects == 1
                assert client.retries_performed == 1
        first_b, retried_b = server.requests[1], server.requests[2]
        assert retried_b["id"] == first_b["id"], "retry must reuse its id"
        assert retried_b["retry"] == 1
        assert retried_b["spec"] == first_b["spec"]

    def test_garbled_and_stale_frames_are_skipped(self):
        """Junk on the stream — an unparseable line, a response for an
        id this client never sent — is counted and skipped, and the
        real response still matches."""

        def noisy(server, file):
            r = server.read(file)
            server.write_raw(file, b"!! not json !!\n")
            server.write(file, {"id": 999_999, "ok": True, "result": {}})
            server.write(file, {"id": r["id"], "ok": True, "result": {"who": "real"}})

        with _ScriptedServer(noisy) as server:
            with ServiceClient(host=server.host, port=server.port) as client:
                result = client.decode(self.SPECS[0])
                assert result["who"] == "real"
                assert client.malformed_frames == 1
                assert client.stale_frames == 1

    def test_shard_failure_is_resubmitted_with_same_id(self):
        """A retryable error response (shard-failure) triggers an
        idempotent resubmission under the same request id; the second
        answer wins."""

        def fails_once(server, file):
            r1 = server.read(file)
            server.write(file, {
                "id": r1["id"], "ok": False,
                "error": "shard-failure", "detail": "worker died",
            })
            r2 = server.read(file)
            server.write(file, {"id": r2["id"], "ok": True, "result": {"who": "ok"}})

        with _ScriptedServer(fails_once) as server:
            with ServiceClient(
                host=server.host, port=server.port, backoff_s=0.01
            ) as client:
                result = client.decode(self.SPECS[0])
                assert result["who"] == "ok"
                assert client.retries_performed == 1
        assert server.requests[1]["id"] == server.requests[0]["id"]
        assert server.requests[1]["retry"] == 1

    def test_terminal_error_is_not_retried(self):
        """bad-spec is wrong forever: exactly one request on the wire,
        the error raised immediately."""

        def rejects(server, file):
            r = server.read(file)
            server.write(file, {
                "id": r["id"], "ok": False,
                "error": "bad-spec", "detail": "even distance",
            })
            server.read(file)  # EOF expected: no resubmission

        with _ScriptedServer(rejects) as server:
            with ServiceClient(
                host=server.host, port=server.port, retries=4, backoff_s=0.01
            ) as client:
                with pytest.raises(ServiceError, match="bad-spec") as info:
                    client.decode(self.SPECS[0])
                assert not info.value.retryable
                assert client.retries_performed == 0
        assert len(server.requests) == 1

    def test_retry_budget_exhaustion_surfaces_the_error(self):
        """Every resubmission of a retryable error consumed: the final
        failure surfaces with its attributed kind instead of looping."""

        def always_fails(server, file):
            while True:
                r = server.read(file)
                server.write(file, {
                    "id": r["id"], "ok": False,
                    "error": "shard-failure", "detail": "still dead",
                })

        with _ScriptedServer(always_fails) as server:
            with ServiceClient(
                host=server.host, port=server.port, retries=2, backoff_s=0.01
            ) as client:
                with pytest.raises(ServiceError, match="shard-failure"):
                    client.decode(self.SPECS[0])
                assert client.retries_performed == 2
        assert len(server.requests) == 3  # original + 2 resubmissions

    def test_junk_flood_fails_loudly(self):
        """A stream that babbles junk without ever answering must raise
        a protocol error, not spin forever."""

        def babbles(server, file):
            server.read(file)
            for _ in range(100):
                server.write_raw(file, b"???\n")
            time.sleep(30)

        with _ScriptedServer(babbles) as server:
            with ServiceClient(
                host=server.host, port=server.port, retries=0
            ) as client:
                with pytest.raises(ServiceError, match="protocol"):
                    client.decode(self.SPECS[0])
