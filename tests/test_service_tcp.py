"""Transport-layer tests: in-process async API and JSON-lines TCP.

The transports must preserve the scheduler's bit-identity contract end
to end (wire-serialized match streams equal the standalone trial's) and
shut down cleanly — the same loop CI's ``service-smoke`` step drives at
larger scale via :mod:`repro.service.smoke`.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import logging
import queue
import socket
import struct
import threading
import time

import pytest

import repro.service.shard as shard_module
from repro.core.online import run_online_trial
from repro.service import (
    Backpressure,
    DecodeService,
    MicroBatchScheduler,
    SchedulerConfig,
    SessionSpec,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import serve
from repro.service.session import MAX_LINE_BYTES
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
                snapshot = await service.metrics()
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


@contextlib.contextmanager
def _live_server(config: SchedulerConfig, shards: int = 0, on_loop=None):
    """``serve`` on an ephemeral port in a daemon thread, shut down on
    exit; yields ``(host, port, thread)``.  ``on_loop`` runs on the
    server's event loop before it starts serving."""
    bound: queue.Queue = queue.Queue()

    async def main():
        if on_loop is not None:
            on_loop(asyncio.get_running_loop())
        await serve("127.0.0.1", 0, config, ready=bound.put, shards=shards)

    thread = threading.Thread(target=lambda: asyncio.run(main()), daemon=True)
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


@contextlib.contextmanager
def _asyncio_errors():
    """Collect ERROR records the asyncio logger emits inside the block."""
    records: list[logging.LogRecord] = []

    class _Capture(logging.Handler):
        def emit(self, record):
            records.append(record)

    logger = logging.getLogger("asyncio")
    handler = _Capture(level=logging.ERROR)
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


def _assert_exact(spec, result):
    """A wire result equals the standalone trial of its spec."""
    reference = run_online_trial(
        PlanarLattice(spec.d), spec.p, spec.rounds,
        spec.online_config(), rng=spec.seed,
    )
    assert result["matches"] == wire_matches(reference.matches), spec
    assert result["layer_cycles"] == list(reference.layer_cycles), spec


def _assert_decodes_exactly(host, port, spec):
    """A fresh client decodes ``spec`` bit-identically to the trial."""
    with ServiceClient(host=host, port=port) as client:
        _assert_exact(spec, client.decode(spec))


class _Wire:
    """A bare JSON-lines connection, for request lines ``ServiceClient``
    never writes (raw bytes, arrays mixing ops, hand-picked ids)."""

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=30)
        self.file = self.sock.makefile("rwb")

    def send(self, line) -> None:
        """Write one line: raw ``bytes``, or any JSON value."""
        if not isinstance(line, bytes):
            line = json.dumps(line).encode()
        self.file.write(line + b"\n")
        self.file.flush()

    def recv(self) -> dict | None:
        """The next response, or ``None`` once the server closed."""
        line = self.file.readline()
        return json.loads(line) if line else None

    def __enter__(self) -> "_Wire":
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()
        self.sock.close()


@pytest.fixture()
def tcp_service():
    """A live TCP server on an ephemeral port, in a daemon thread."""
    with _live_server(SchedulerConfig(max_active=8, max_queue=64)) as live:
        yield live


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
        with _asyncio_errors() as records:
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
            _assert_decodes_exactly(host, port, SessionSpec(d=3, p=0.02, seed=777))
            time.sleep(0.2)  # let the dead connection's handler unwind
            gc.collect()  # a dropped task reports unretrieved exceptions here
        assert not records, [r.getMessage() for r in records]

    def test_over_long_line_gets_bad_json_and_closes_only_its_connection(
        self, tcp_service
    ):
        """A line past MAX_LINE_BYTES is answered with one bad-json
        error naming the limit, then that connection closes — no
        unhandled asyncio error, and the service keeps decoding."""
        host, port, _ = tcp_service
        with _asyncio_errors() as records:
            with _Wire(host, port) as wire:
                wire.send({"op": "ping", "pad": "x" * MAX_LINE_BYTES})
                response = wire.recv()
                assert wire.recv() is None  # closed after the error
            assert response["id"] is None and response["error"] == "bad-json"
            assert str(MAX_LINE_BYTES) in response["detail"]
            _assert_decodes_exactly(host, port, SessionSpec(d=3, p=0.02, seed=778))
            time.sleep(0.2)
            gc.collect()
        assert not records, [r.getMessage() for r in records]

    def test_non_object_json_is_bad_json_and_the_connection_serves_on(
        self, tcp_service
    ):
        """Valid JSON that is not a request object — a number, a string,
        an array item — gets bad-json with a null id, and the same
        connection keeps answering."""
        host, port, _ = tcp_service
        with _asyncio_errors() as records:
            with _Wire(host, port) as wire:
                for line in (42, "x", [1]):
                    wire.send(line)
                    response = wire.recv()
                    assert response["id"] is None
                    assert response["error"] == "bad-json"
                wire.send({"op": "ping", "id": 7})
                assert wire.recv() == {"id": 7, "ok": True, "pong": True}
            _assert_decodes_exactly(host, port, SessionSpec(d=3, p=0.02, seed=779))
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
        with _Wire(host, port) as wire:
            wire.send({
                "op": "decode", "id": 1, "retry": 1,
                "spec": SessionSpec(d=3, p=0.01, seed=42).to_payload(),
            })
            response = wire.recv()
            assert response["id"] == 1 and response["ok"]
        with ServiceClient(host=host, port=port) as client:
            assert client.metrics()["retries"] == 1

    def test_shutdown_flushes_inflight_pipelined_decodes(self, tcp_service):
        """A shutdown op racing pipelined decodes must not strand their
        responses: the server waits for connection handlers (which
        flush in-flight sessions) before tearing the loop down — on
        3.11, Server.wait_closed alone does not cover handler tasks."""
        host, port, thread = tcp_service
        ids, shutdown_id = range(6), 6
        with _Wire(host, port) as wire:
            for request_id in ids:
                wire.send({
                    "op": "decode", "id": request_id,
                    "spec": SessionSpec(d=3, p=0.01, seed=900 + request_id).to_payload(),
                })
            wire.send({"op": "shutdown", "id": shutdown_id})
            responses = {}
            while len(responses) < 7:
                response = wire.recv()
                responses[response["id"]] = response
        for request_id in ids:
            assert responses[request_id]["ok"], responses[request_id]
            assert "result" in responses[request_id]
        assert responses[shutdown_id]["ok"]
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_failed_service_answers_internal_instead_of_going_silent(
        self, monkeypatch
    ):
        """Once the service has failed (a scheduler step raised), the
        decode in flight and every later decode get a terminal
        ``internal`` error promptly — no silent client, no dead handler
        and no asyncio error in the log."""

        def poisoned_step(self):
            raise RuntimeError("poisoned step")

        monkeypatch.setattr(MicroBatchScheduler, "step", poisoned_step)
        config = SchedulerConfig(max_active=4, max_queue=16)
        with _asyncio_errors() as records:
            with _live_server(config) as (host, port, _):
                with _Wire(host, port) as wire:
                    wire.sock.settimeout(5)
                    for request_id in (1, 2):
                        wire.send({
                            "op": "decode", "id": request_id,
                            "spec": SessionSpec(d=3, p=0.01, seed=request_id).to_payload(),
                        })
                        response = wire.recv()
                        assert response["id"] == request_id
                        assert response["ok"] is False
                        assert response["error"] == "internal"
                        assert "poisoned step" in response["detail"]
                    wire.send({"op": "ping", "id": 3})
                    assert wire.recv() == {"id": 3, "ok": True, "pong": True}
            gc.collect()
        assert not records, [r.getMessage() for r in records]


@pytest.fixture(params=[0, 1], ids=["in-process", "shards=1"])
def wave_service(request, monkeypatch):
    """A live server, in-process or on shard workers, that counts the
    tasks its event loop creates and its ``StreamWriter.write`` calls,
    and records every message put on a shard outbox as ``(shard index,
    message)``."""
    counts = {"tasks": 0, "writes": 0, "outbox": []}
    write = asyncio.StreamWriter.write

    def counting_write(self, data):
        counts["writes"] += 1
        write(self, data)
    init = shard_module._Shard.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        put = self.outbox.put

        def counted(message, *a, **kw):
            if isinstance(message, tuple):
                counts["outbox"].append((self.index, message))
            put(message, *a, **kw)

        self.outbox.put = counted

    def count_tasks(loop):
        def factory(loop, coro, **kwargs):
            counts["tasks"] += 1
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(factory)

    monkeypatch.setattr(shard_module._Shard, "__init__", counting_init)
    monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)
    config = SchedulerConfig(max_active=16, max_queue=128)
    with _live_server(config, request.param, on_loop=count_tasks) as live:
        yield live[:2], counts


def _wave(n, seed0):
    return [
        SessionSpec(d=(3, 5)[i % 2], p=0.02, seed=seed0 + i) for i in range(n)
    ]


class TestWaveFrames:
    """A decode_many wave is one unit from the client to the worker:
    one request line, one service submission, one pipe message."""

    def test_a_wave_costs_a_fixed_handful_of_server_tasks(self, wave_service):
        """Tasks scale with connections, not sessions or lines: the
        connection handler reads its lines itself."""
        (host, port), counts = wave_service
        specs = _wave(64, seed0=1100)
        before = counts["tasks"]
        with ServiceClient(host=host, port=port) as client:
            results = client.decode_many(specs)
            tasks = counts["tasks"] - before
        assert tasks <= 8, tasks
        for spec, result in zip(specs, results):
            _assert_exact(spec, result)

    def test_responses_are_coalesced_per_scheduler_step(self, wave_service):
        """A wave's responses stay one line per session but share
        socket writes: at most one write per scheduler step, so fewer
        writes than sessions."""
        (host, port), counts = wave_service
        specs = _wave(64, seed0=1400)
        with ServiceClient(host=host, port=port) as client:
            steps = client.metrics()["steps"]
            writes = counts["writes"]
            results = client.decode_many(specs)
            writes = counts["writes"] - writes
            steps = client.metrics()["steps"] - steps
        assert writes < len(specs), (writes, steps)
        assert writes <= steps, (writes, steps)
        for spec, result in zip(specs, results):
            _assert_exact(spec, result)

    def test_in_process_step_responses_are_written_before_the_next_step(
        self, monkeypatch
    ):
        """In-process, every response a scheduler step retires is
        flushed to the socket before the next step starts — a response
        never waits behind a further step of decode work."""
        from repro.service import server as server_module

        events = []
        step = MicroBatchScheduler.step
        flush = server_module._Connection._flush

        def logged_step(self):
            finished = step(self)
            events.append(("step", len(finished)))
            return finished

        def logged_flush(self):
            events.append(("flush", len(self._lines)))
            flush(self)

        monkeypatch.setattr(MicroBatchScheduler, "step", logged_step)
        monkeypatch.setattr(server_module._Connection, "_flush", logged_flush)
        specs = _wave(24, seed0=1500)
        config = SchedulerConfig(max_active=16, max_queue=128)
        with _live_server(config) as (host, port, _):
            with ServiceClient(host=host, port=port) as client:
                results = client.decode_many(specs)
        for spec, result in zip(specs, results):
            _assert_exact(spec, result)
        retiring = [
            i for i, (kind, n) in enumerate(events) if kind == "step" and n
        ]
        assert retiring, events
        for i in retiring:
            following = []
            for kind, n in events[i + 1:]:
                if kind == "step":
                    break
                following.append(n)
            else:
                continue  # the last step: nothing runs after it
            assert any(following), (
                f"step {i} retired sessions but the next step ran before "
                f"their flush: {events}"
            )

    @pytest.mark.parametrize("wave_service", [1, 2], indirect=True)
    def test_a_wave_reaches_the_worker_as_one_submit_message(
        self, wave_service, request
    ):
        """Each worker gets its round-robin share of the wave as one
        ``submit`` message of ``(ticket, SessionSpec)`` items."""
        n_shards = request.node.callspec.params["wave_service"]
        (host, port), counts = wave_service
        with ServiceClient(host=host, port=port) as client:
            client.decode_many(_wave(64, seed0=1200))
        submits = [
            (index, message[1])
            for index, message in counts["outbox"]
            if message[0] == "submit"
        ]
        assert sorted(index for index, _ in submits) == list(range(n_shards))
        for _, items in submits:
            assert len(items) == 64 // n_shards
            for ticket, spec in items:
                assert isinstance(ticket, int)
                assert isinstance(spec, SessionSpec)

    def test_mixed_array_line_answers_every_item(self, wave_service):
        """One array line mixing good specs, a wrong-typed spec, a
        non-object item and a retry: each item gets its own response,
        good ones bit-identical, and the retry is counted once."""
        (host, port), _ = wave_service
        good = _wave(3, seed0=1300)
        line = [
            {"op": "decode", "id": "g0", "spec": good[0].to_payload()},
            {"op": "decode", "id": "typed", "spec": {"d": 3, "p": 0.01, "seed": 1.5}},
            42,
            {"op": "decode", "id": "g1", "retry": 1, "spec": good[1].to_payload()},
            {"op": "decode", "id": "g2", "spec": good[2].to_payload()},
        ]
        with _Wire(host, port) as wire:
            wire.send(line)
            responses = [wire.recv() for _ in line]
            wire.send({"op": "metrics"})
            retries = wire.recv()["metrics"]["retries"]
        by_id = {r["id"]: r for r in responses}
        assert len(by_id) == len(line)
        assert by_id["typed"]["error"] == "bad-spec"
        assert by_id[None]["error"] == "bad-json"
        for request_id, spec in zip(("g0", "g1", "g2"), good):
            _assert_exact(spec, by_id[request_id]["result"])
        assert retries == 1


class TestBoundedSpecs:
    """Specs past the memory bounds (``MAX_D``, ``MAX_ROUNDS``) are shed
    as ``bad-spec`` at the transport, never built inside the shared
    scheduler tick, so the wave they ride in decodes exactly and the
    service keeps serving."""

    PROBES = {
        "huge-d": {"d": 301, "p": 0.01, "seed": 1, "n_rounds": 1},
        "huge-rounds": {"d": 3, "p": 0.01, "seed": 1, "n_rounds": 10**7},
    }

    @pytest.mark.parametrize("shards", [0, 2], ids=["in-process", "shards=2"])
    def test_probes_shed_and_co_tenants_decode_exactly(self, shards):
        co_tenants = _wave(8, seed0=1700)
        line = [
            {"op": "decode", "id": name, "spec": spec}
            for name, spec in self.PROBES.items()
        ] + [
            {"op": "decode", "id": i, "spec": spec.to_payload()}
            for i, spec in enumerate(co_tenants)
        ]
        config = SchedulerConfig(max_active=8, max_queue=64)
        with _live_server(config, shards) as (host, port, _):
            with _Wire(host, port) as wire:
                wire.send(line)
                by_id = {r["id"]: r for r in (wire.recv() for _ in line)}
            for name in self.PROBES:
                assert by_id[name]["ok"] is False, by_id[name]
                assert by_id[name]["error"] == "bad-spec", by_id[name]
            for i, spec in enumerate(co_tenants):
                _assert_exact(spec, by_id[i]["result"])
            # Still serving after the probes.
            _assert_decodes_exactly(host, port, SessionSpec(d=5, p=0.02, seed=1799))


class _ScriptedServer:
    """A hand-rolled JSON-lines endpoint with scripted per-connection
    behaviour — drives the client's resilience paths (mid-pipeline
    timeout, garbled frames, stale ids, retryable errors)
    deterministically, without a real scheduler behind them.

    Connection ``n`` runs ``handlers[n]`` in its own daemon thread (a
    handler may park forever holding its socket — exactly how a hung
    server looks to the client).  Every request read — each item of an
    array line — lands in ``requests``, in arrival order.
    """

    def __init__(self, *handlers):
        self.handlers = list(handlers)
        self.requests: list[dict] = []
        self.line_sizes: list[int] = []  # bytes per request line, newline excluded
        self._unread: dict = {}  # file -> items of its last array line
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
        """The next request item; an array line is read whole and its
        items handed out one per call."""
        if not self._unread.get(file):
            line = file.readline()
            if not line:
                raise ConnectionError("client went away")
            self.line_sizes.append(len(line.rstrip(b"\n")))
            request = json.loads(line)
            items = request if isinstance(request, list) else [request]
            self.requests.extend(items)
            self._unread[file] = items
        return self._unread[file].pop(0)

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

    def test_wave_splits_into_lines_within_the_limit(self):
        """A wave too big for one line goes out as several array lines,
        each within MAX_LINE_BYTES, every request answered in order; a
        request too long even alone fails as bad-json, unsent."""

        def echoes(server, file):
            while True:
                r = server.read(file)
                server.write(file, {
                    "id": r["id"], "ok": True, "result": {"seed": r["spec"]["seed"]},
                })

        specs = [SessionSpec(d=3, p=0.01, seed=i) for i in range(600)]
        huge = {"d": 3, "p": 0.01, "seed": 600, "noise_params": {"x": "y" * MAX_LINE_BYTES}}
        with _ScriptedServer(echoes) as server:
            with ServiceClient(host=server.host, port=server.port) as client:
                outcomes = client.decode_many(specs + [huge], return_errors=True)
        assert [r["seed"] for r in outcomes[:-1]] == list(range(600))
        assert outcomes[-1].error == "bad-json" and not outcomes[-1].retryable
        assert len(server.requests) == 600
        assert len(server.line_sizes) > 1
        assert max(server.line_sizes) <= MAX_LINE_BYTES

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
