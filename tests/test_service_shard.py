"""Sharded decode service: routing, bit-identity, worker-failure tests.

The shard boundary must be invisible in results: whatever worker a
session lands on — and however many workers share the load — its match
stream, cycle accounting and failure flags equal single-process serving
and hence a standalone ``run_online_trial`` (the sharded-serving
bit-identity contract, ``tests/README.md``).  Worker death must shed or
requeue, never hang, and never disturb co-tenant shards.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.online import run_online_trial
from repro.service import (
    Backpressure,
    Fault,
    FaultPlan,
    MicroBatchScheduler,
    SchedulerConfig,
    SessionSpec,
    ShardFailure,
    ShardRouter,
)
from repro.service import shard as shard_module
from repro.service.client import ServiceClient
from repro.service.server import serve
from repro.surface_code.lattice import PlanarLattice

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _reference(spec: SessionSpec):
    return run_online_trial(
        PlanarLattice(spec.d), spec.p, spec.rounds,
        spec.online_config(), rng=spec.seed,
    )


def _assert_matches_reference(spec: SessionSpec, result) -> None:
    reference = _reference(spec)
    assert result.matches == reference.matches, spec
    assert result.layer_cycles == list(reference.layer_cycles), spec
    assert result.failed == reference.failed, spec
    assert result.overflow == reference.overflow, spec
    assert result.n_rounds == reference.n_rounds, spec


class TestPlacement:
    def test_tickets_deal_round_robin_over_live_shards(self):
        """Tickets deal round-robin over the alive shards in index
        order: a dead shard is skipped, and it takes its turn again once
        respawned.  Placement is pure, so no worker needs to run."""
        router = ShardRouter(n_shards=3)
        router._shards = {
            index: shard_module._Shard(index, process=None, conn=None)
            for index in range(3)
        }

        def deal(tickets):
            return [router._pick(t).index for t in tickets]

        assert deal(range(1, 7)) == [1, 2, 0, 1, 2, 0]
        router._shards[1].alive = False
        assert deal(range(1, 7)) == [2, 0, 2, 0, 2, 0]
        router._shards[1] = shard_module._Shard(1, None, None, generation=1)
        assert deal(range(1, 7)) == [1, 2, 0, 1, 2, 0]
        for shard in router._shards.values():
            shard.alive = False
        assert router._pick(1) is None


class TestShardedBitIdentity:
    def test_one_vs_four_shards_and_standalone(self):
        """A mixed-d population served over 1 shard, over 4 shards and
        standalone must produce identical per-session results."""
        specs = [
            SessionSpec(
                d=(3, 5, 7)[i % 3], p=0.02, seed=8200 + i,
                thv=(3, -1)[i % 2], frequency_hz=(2.0e9, None)[i % 2],
            )
            for i in range(24)
        ]

        async def run(n_shards):
            config = SchedulerConfig(max_active=16, max_queue=64)
            async with ShardRouter(n_shards=n_shards, config=config) as router:
                results = await asyncio.gather(
                    *(router.submit(spec) for spec in specs)
                )
                snapshot = await router.metrics()
            return results, snapshot

        one, _ = asyncio.run(run(1))
        four, snapshot = asyncio.run(run(4))
        for spec, a, b in zip(specs, one, four):
            assert a.matches == b.matches, spec
            assert a.layer_cycles == b.layer_cycles, spec
            assert (a.failed, a.overflow, a.n_rounds) == (
                b.failed, b.overflow, b.n_rounds,
            ), spec
            _assert_matches_reference(spec, b)
        assert snapshot["completed"] == len(specs)
        assert snapshot["live_shards"] == 4
        # Round-robin placement actually spread the population.
        assert sum(1 for s in snapshot["shards"] if s["completed"]) >= 2

    def test_sharded_snapshot_carries_every_in_process_field(self):
        """``/metrics`` and ``repro-runner stats`` read the same keys
        whether the service is sharded or not: the router's aggregate
        holds every key of the in-process snapshot, and the step-means
        and round throughput are derived, not dropped."""
        specs = [SessionSpec(d=3, p=0.02, seed=8700 + i) for i in range(6)]
        scheduler = MicroBatchScheduler(SchedulerConfig())
        for spec in specs:
            scheduler.submit(spec)
        scheduler.run_until_idle()
        in_process = scheduler.metrics.snapshot()

        async def run():
            async with ShardRouter(n_shards=1) as router:
                await asyncio.gather(*(router.submit(spec) for spec in specs))
                return await router.metrics()

        sharded = asyncio.run(run())
        assert set(in_process) <= set(sharded)
        for field in (
            "throughput_rounds_per_s",
            "mean_batch_sessions",
            "mean_queue_depth",
            "mean_active_sessions",
        ):
            assert sharded[field] is not None, field
        assert sharded["rounds_advanced"] == in_process["rounds_advanced"]
        assert sharded["throughput_rounds_per_s"] > 0

    def test_bad_spec_rejected_at_router(self):
        async def run():
            async with ShardRouter(n_shards=1) as router:
                with pytest.raises(ValueError, match="odd distance"):
                    await router.submit(SessionSpec(d=4, p=0.01, seed=1))
                snapshot = await router.metrics()
            # The bad spec never reached a worker.
            assert snapshot["shards"][0]["submitted"] == 0

        asyncio.run(run())

    def test_worker_backpressure_propagates(self):
        """A full worker queue surfaces as Backpressure on the awaiting
        submitter — asynchronously, across the process boundary."""

        async def run():
            config = SchedulerConfig(max_active=1, max_queue=0)
            async with ShardRouter(n_shards=1, config=config) as router:
                specs = [
                    SessionSpec(d=3, p=0.02, seed=8600 + i, n_rounds=500)
                    for i in range(6)
                ]
                results = await asyncio.gather(
                    *(router.submit(s) for s in specs), return_exceptions=True
                )
            ok = [r for r in results if not isinstance(r, BaseException)]
            shed = [r for r in results if isinstance(r, Backpressure)]
            unexpected = [
                r for r in results
                if isinstance(r, BaseException) and not isinstance(r, Backpressure)
            ]
            assert not unexpected, unexpected
            # max_active=1, max_queue=0: the burst cannot all be served.
            assert ok and shed
            for spec, result in zip(specs, results):
                if not isinstance(result, BaseException):
                    _assert_matches_reference(spec, result)

        asyncio.run(run())


class TestOperatingPoints:
    """Per-session operating points on two shards, as in-process
    (``TestOperatingPointsShareOneEngine`` in ``test_service.py``): a
    ``thv`` past int64 kills no worker, and a population of distinct
    operating points decodes bit-identically."""

    def test_unbounded_thv_wave_kills_no_worker(self):
        specs = [
            SessionSpec(d=5, p=0.01, seed=9000 + i, n_rounds=5)
            for i in range(6)
        ] + [SessionSpec(d=5, p=0.01, seed=9006, n_rounds=5, thv=2**63)]

        async def run():
            config = SchedulerConfig(max_active=16, max_queue=64)
            async with ShardRouter(n_shards=2, config=config) as router:
                results = await asyncio.gather(*router.submit_wave(specs))
                later = await router.submit(specs[0])
                snapshot = await router.metrics()
            return results, later, snapshot

        results, later, snapshot = asyncio.run(run())
        for spec, result in zip(specs, results):
            _assert_matches_reference(spec, result)
        _assert_matches_reference(specs[0], later)
        assert snapshot["worker_deaths"] == 0
        assert snapshot["live_shards"] == 2

    def test_distinct_operating_points_bit_identical(self):
        specs = [
            SessionSpec(
                d=9, p=0.01, seed=9100 + i, n_rounds=1, thv=i - 1,
                reg_size=None if i % 10 == 0 else 1 + i % 64,
            )
            for i in range(100)
        ]

        async def run():
            config = SchedulerConfig(max_active=16, max_queue=128)
            async with ShardRouter(n_shards=2, config=config) as router:
                results = await asyncio.gather(
                    *(router.submit(spec) for spec in specs)
                )
                snapshot = await router.metrics()
            return results, snapshot

        results, snapshot = asyncio.run(run())
        for spec, result in zip(specs, results):
            _assert_matches_reference(spec, result)
        assert snapshot["completed"] == len(specs)
        assert snapshot["worker_deaths"] == 0


class TestWorkerFailure:
    KILL_SPECS = [
        SessionSpec(d=3, p=0.02, seed=8400 + i, n_rounds=3000)
        for i in range(12)
    ]

    @pytest.fixture(autouse=True)
    def _no_respawn(self, monkeypatch):
        # A respawn budget of 0 pins shed-on-death: a dead shard stays
        # dead (see TestSupervision for respawn).
        monkeypatch.setattr(shard_module, "RESPAWN_BUDGET", 0)

    async def _run_with_kill(self, n_shards: int):
        config = SchedulerConfig(max_active=16, max_queue=64)
        async with ShardRouter(n_shards=n_shards, config=config) as router:
            futures = [
                asyncio.ensure_future(router.submit(spec))
                for spec in self.KILL_SPECS
            ]
            await asyncio.sleep(0.15)  # let every shard get mid-stream
            victim = max(
                router._shards.values(), key=lambda s: len(s.inflight)
            )
            victim_inflight = len(victim.inflight)
            victim.process.kill()
            # Shed, not hang: everything resolves promptly.
            results = await asyncio.wait_for(
                asyncio.gather(*futures, return_exceptions=True), timeout=60
            )
            snapshot = await router.metrics()
        return results, snapshot, victim_inflight

    def test_kill_sheds_instead_of_hanging_and_spares_cotenants(self):
        """One shard, respawn budget 0: with no survivor to requeue to, the
        dead worker's in-flight sessions shed promptly instead of
        hanging, and any session that finished first stays
        bit-identical.  The requeue case pins that a surviving
        co-tenant shard is unaffected."""
        results, snapshot, victim_inflight = asyncio.run(
            self._run_with_kill(n_shards=1)
        )
        shed = [r for r in results if isinstance(r, ShardFailure)]
        ok = [r for r in results if not isinstance(r, BaseException)]
        unexpected = [
            r for r in results
            if isinstance(r, BaseException) and not isinstance(r, ShardFailure)
        ]
        assert not unexpected, unexpected
        assert victim_inflight > 0 and len(shed) == victim_inflight
        assert len(ok) + len(shed) == len(self.KILL_SPECS)
        assert snapshot["worker_deaths"] == 1
        assert snapshot["shed"] == len(shed)
        assert snapshot["live_shards"] == 0
        for spec, result in zip(self.KILL_SPECS, results):
            if not isinstance(result, BaseException):
                _assert_matches_reference(spec, result)

    def test_kill_with_requeue_replays_bit_identically(self):
        """Requeued sessions restart from their spec on a survivor —
        and a session's decode is a pure function of its spec, so the
        replay is exact."""
        results, snapshot, victim_inflight = asyncio.run(
            self._run_with_kill(n_shards=2)
        )
        assert not any(isinstance(r, BaseException) for r in results), results
        assert victim_inflight > 0
        assert snapshot["worker_deaths"] == 1
        assert snapshot["requeued"] == victim_inflight
        assert snapshot["shed"] == 0
        assert snapshot["completed"] == len(self.KILL_SPECS)
        for spec, result in zip(self.KILL_SPECS, results):
            _assert_matches_reference(spec, result)


async def _await_respawn(router, shards: int, respawns: int, timeout: float = 30.0):
    """Poll the router until the fleet is back to full strength with at
    least ``respawns`` respawns counted; returns the snapshot."""
    deadline = time.monotonic() + timeout
    while True:
        snapshot = await router.metrics()
        if (
            snapshot["live_shards"] == shards
            and snapshot["respawns"] >= respawns
        ):
            return snapshot
        assert time.monotonic() < deadline, (
            f"no respawn: live={snapshot['live_shards']}/{shards}, "
            f"respawns={snapshot['respawns']}"
        )
        await asyncio.sleep(0.05)


class TestSupervision:
    """The self-healing layer: dead workers respawn with backoff, rejoin
    the round-robin deal, and replay their rescued sessions
    bit-identically."""

    @pytest.fixture(autouse=True)
    def _fast_respawn(self, monkeypatch):
        monkeypatch.setattr(shard_module, "RESPAWN_BACKOFF_S", 0.05)

    def test_killed_worker_respawns_rejoins_and_serves(self):
        specs = [
            SessionSpec(d=3, p=0.02, seed=8400 + i, n_rounds=3000)
            for i in range(12)
        ]

        async def run():
            config = SchedulerConfig(max_active=16, max_queue=64)
            async with ShardRouter(n_shards=2, config=config) as router:
                futures = [
                    asyncio.ensure_future(router.submit(s)) for s in specs
                ]
                await asyncio.sleep(0.15)
                victim = max(
                    router._shards.values(), key=lambda s: len(s.inflight)
                )
                victim_index = victim.index
                victim.process.kill()
                # Everything resolves: survivors keep theirs, the
                # victim's are requeued.
                results = await asyncio.wait_for(
                    asyncio.gather(*futures), timeout=60
                )
                snapshot = await _await_respawn(router, shards=2, respawns=1)
                # The healed fleet serves fresh traffic — including on
                # the respawned shard.
                wave2 = [
                    SessionSpec(d=3, p=0.02, seed=8700 + i) for i in range(16)
                ]
                results2 = await asyncio.gather(
                    *(router.submit(s) for s in wave2)
                )
                final = await router.metrics()
            for spec, result in zip(specs, results):
                _assert_matches_reference(spec, result)
            for spec, result in zip(wave2, results2):
                _assert_matches_reference(spec, result)
            assert snapshot["worker_deaths"] == 1
            assert snapshot["respawns"] == 1
            assert final["live_shards"] == 2
            assert final["shed"] == 0
            assert [s["shard"] for s in final["shards"]] == [0, 1]
            # The respawned worker (a fresh scheduler, zeroed counters)
            # actually served wave 2.
            respawned = next(
                s for s in final["shards"] if s["shard"] == victim_index
            )
            assert respawned["completed"] > 0

        asyncio.run(run())

    def test_single_shard_parked_sessions_replay_bit_identically(self):
        """With no survivor to requeue to, a dead worker's sessions are
        *parked* and replayed on the respawn — and a decode is a pure
        function of its spec, so the replay is exact."""
        specs = [
            SessionSpec(d=3, p=0.02, seed=8450 + i, n_rounds=3000)
            for i in range(8)
        ]

        async def run():
            config = SchedulerConfig(max_active=16, max_queue=64)
            async with ShardRouter(n_shards=1, config=config) as router:
                futures = [
                    asyncio.ensure_future(router.submit(s)) for s in specs
                ]
                await asyncio.sleep(0.15)
                next(iter(router._shards.values())).process.kill()
                results = await asyncio.wait_for(
                    asyncio.gather(*futures), timeout=60
                )
                snapshot = await router.metrics()
            assert snapshot["worker_deaths"] == 1
            assert snapshot["respawns"] >= 1
            assert snapshot["requeued"] == len(specs)
            assert snapshot["shed"] == 0
            assert snapshot["completed"] == len(specs)
            for spec, result in zip(specs, results):
                _assert_matches_reference(spec, result)

        asyncio.run(run())

    def test_outage_admissions_stay_on_survivors_after_rejoin(
        self, monkeypatch
    ):
        """Sessions admitted while a shard is down land on survivors and
        *stay there* through the rejoin: placement is fixed at admission,
        so the healed fleet never yanks an in-flight session."""
        # Slow enough that the outage admissions below land first.
        monkeypatch.setattr(shard_module, "RESPAWN_BACKOFF_S", 0.4)

        async def run():
            config = SchedulerConfig(max_active=32, max_queue=128)
            async with ShardRouter(n_shards=2, config=config) as router:
                wave1 = [
                    SessionSpec(d=3, p=0.02, seed=8500 + i, n_rounds=3000)
                    for i in range(8)
                ]
                futures = [
                    asyncio.ensure_future(router.submit(s)) for s in wave1
                ]
                await asyncio.sleep(0.15)
                victim = max(
                    router._shards.values(), key=lambda s: len(s.inflight)
                )
                victim_inflight = len(victim.inflight)
                victim.process.kill()
                await asyncio.sleep(0.1)  # death observed, respawn pending
                # Admitted during the outage: must route to the survivor.
                wave2 = [
                    SessionSpec(d=3, p=0.02, seed=8550 + i, n_rounds=3000)
                    for i in range(8)
                ]
                futures += [
                    asyncio.ensure_future(router.submit(s)) for s in wave2
                ]
                await _await_respawn(router, shards=2, respawns=1)
                results = await asyncio.wait_for(
                    asyncio.gather(*futures), timeout=60
                )
                snapshot = await router.metrics()
            assert victim_inflight > 0
            # Only the victim's own sessions ever moved: the rejoin did
            # not remap outage admissions off the healthy shard.
            assert snapshot["requeued"] == victim_inflight
            assert snapshot["shed"] == 0
            assert snapshot["completed"] == len(results)
            for spec, result in zip(wave1 + wave2, results):
                _assert_matches_reference(spec, result)

        asyncio.run(run())

    def test_hung_worker_is_detected_killed_and_respawned(self, monkeypatch):
        """An alive-but-hung worker (injected stall, longer than the
        heartbeat timeout) is invisible to EOF detection: its shard's
        reader thread must declare it dead, kill it, and the normal
        death/respawn path must recover every session."""
        monkeypatch.setattr(shard_module, "HEARTBEAT_S", 0.1)
        monkeypatch.setattr(shard_module, "HEARTBEAT_TIMEOUT_S", 0.5)
        plan = FaultPlan(faults=(Fault("stall", 0, 3, duration_s=1.5),))
        specs = [
            SessionSpec(d=3, p=0.02, seed=8650 + i, n_rounds=500)
            for i in range(6)
        ]

        async def run():
            config = SchedulerConfig(max_active=16, max_queue=64)
            async with ShardRouter(
                n_shards=1, config=config, faults=plan
            ) as router:
                results = await asyncio.wait_for(
                    asyncio.gather(*(router.submit(s) for s in specs)),
                    timeout=60,
                )
                snapshot = await router.metrics()
            assert snapshot["heartbeat_timeouts"] >= 1
            assert snapshot["worker_deaths"] == 1
            assert snapshot["respawns"] >= 1
            assert snapshot["shed"] == 0
            assert snapshot["completed"] == len(specs)
            for spec, result in zip(specs, results):
                _assert_matches_reference(spec, result)

        asyncio.run(run())

    def test_idle_worker_with_dropped_heartbeats_is_not_killed(
        self, monkeypatch
    ):
        """The false-positive side of the hang check: an idle worker
        that skips a couple of heartbeats stays under the timeout, so
        it survives several timeouts' worth of idling and then decodes
        exactly."""
        monkeypatch.setattr(shard_module, "HEARTBEAT_S", 0.1)
        monkeypatch.setattr(shard_module, "HEARTBEAT_TIMEOUT_S", 0.6)
        plan = FaultPlan(faults=(Fault("heartbeat-drop", 0, 1, ticks=2),))
        spec = SessionSpec(d=3, p=0.02, seed=8660)

        async def run():
            config = SchedulerConfig(max_active=16, max_queue=64)
            async with ShardRouter(
                n_shards=1, config=config, faults=plan
            ) as router:
                await asyncio.sleep(3 * shard_module.HEARTBEAT_TIMEOUT_S)
                result = await asyncio.wait_for(router.submit(spec), timeout=60)
                snapshot = await router.metrics()
            assert snapshot["heartbeat_timeouts"] == 0
            assert snapshot["worker_deaths"] == 0
            assert snapshot["completed"] == 1
            _assert_matches_reference(spec, result)

        asyncio.run(run())

    def test_exhausted_respawn_budget_sheds(self, monkeypatch):
        """RESPAWN_BUDGET=0: the death is terminal — sessions shed with
        an attributed ShardFailure instead of parking forever."""
        monkeypatch.setattr(shard_module, "RESPAWN_BUDGET", 0)

        async def run():
            config = SchedulerConfig(max_active=16, max_queue=64)
            async with ShardRouter(n_shards=1, config=config) as router:
                specs = [
                    SessionSpec(d=3, p=0.02, seed=8750 + i, n_rounds=3000)
                    for i in range(4)
                ]
                futures = [
                    asyncio.ensure_future(router.submit(s)) for s in specs
                ]
                await asyncio.sleep(0.15)
                next(iter(router._shards.values())).process.kill()
                results = await asyncio.wait_for(
                    asyncio.gather(*futures, return_exceptions=True),
                    timeout=60,
                )
                snapshot = await router.metrics()
            assert all(isinstance(r, ShardFailure) for r in results), results
            assert snapshot["respawns"] == 0
            assert snapshot["worker_deaths"] == 1
            assert snapshot["live_shards"] == 0
            assert snapshot["shed"] == len(results)

        asyncio.run(run())


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(17, 4).to_payload()
        b = FaultPlan.seeded(17, 4).to_payload()
        assert a == b
        assert FaultPlan.seeded(18, 4).to_payload() != a

    def test_stall_and_crash_land_on_distinct_shards(self):
        """An early stall must never pre-empt the scheduled crash on the
        same process (when the fleet is big enough to separate them)."""
        for seed in range(20):
            plan = FaultPlan.seeded(seed, 2)
            targets = {
                f.kind: f.shard for f in plan.faults
                if f.kind in ("stall", "crash")
            }
            assert targets["stall"] != targets["crash"], seed

    def test_generation_scoping(self):
        """A respawned worker (generation >= 1) re-runs none of the
        initial generation's faults — no crash loops."""
        plan = FaultPlan.seeded(3, 2)
        for index in range(2):
            assert plan.for_shard(index, generation=0) is not None
            assert plan.for_shard(index, generation=1) is None

    def test_for_server_exposes_garble_only(self):
        plan = FaultPlan.seeded(3, 2)
        server = plan.for_server()
        garble_tick = next(
            f.tick for f in plan.faults if f.kind == "garble"
        )
        assert server is not None
        hits = [server.garble_next() for _ in range(30)]
        assert hits == [t + 1 == garble_tick for t in range(30)]
        # Workers never see the garble fault.
        for index in range(2):
            worker = plan.for_shard(index)
            assert all(f.kind != "garble" for f in worker.faults)

    def test_fault_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("meteor", 0, 1)
        with pytest.raises(ValueError, match="tick"):
            Fault("crash", 0, -1)
        with pytest.raises(ValueError, match="ticks"):
            Fault("slow", 0, 1, ticks=0)

    def test_windowed_lookups(self):
        plan = FaultPlan(faults=(
            Fault("slow", 0, 5, duration_s=0.25, ticks=3),
            Fault("heartbeat-drop", 0, 10, ticks=2),
            Fault("crash", 0, 7),
        ))
        worker = plan.for_shard(0)
        assert worker.step_delay(4) == 0.0
        assert worker.step_delay(5) == 0.25
        assert worker.step_delay(7) == 0.25
        assert worker.step_delay(8) == 0.0
        assert not worker.drops_heartbeat(9)
        assert worker.drops_heartbeat(10) and worker.drops_heartbeat(11)
        assert not worker.drops_heartbeat(12)
        assert [f.kind for f in worker.at(7)] == ["crash"]
        assert worker.at(6) == []


class TestShardedTcp:
    def test_two_shard_server_end_to_end(self):
        """The full TCP loop against a 2-shard back end: pipelined
        decodes bit-identical after wire serialisation, aggregated
        metrics, clean shutdown (CI runs this at larger scale via
        ``repro.service.smoke --shards 2``)."""
        import queue
        import threading

        bound: queue.Queue = queue.Queue()
        config = SchedulerConfig(max_active=8, max_queue=64)
        thread = threading.Thread(
            target=lambda: asyncio.run(
                serve("127.0.0.1", 0, config, ready=bound.put, shards=2)
            ),
            daemon=True,
        )
        thread.start()
        host, port = bound.get(timeout=30)
        specs = [
            SessionSpec(d=(3, 5, 7)[i % 3], p=0.02, seed=8800 + i)
            for i in range(12)
        ]
        with ServiceClient(host=host, port=port) as client:
            assert client.ping()
            results = client.decode_many(specs)
            metrics = client.metrics()
            client.shutdown()
        thread.join(timeout=60)
        assert not thread.is_alive(), "sharded server did not shut down"
        for spec, result in zip(specs, results):
            reference = _reference(spec)
            assert result["matches"] == [
                [m.kind, list(m.a), None if m.b is None else list(m.b), m.side]
                for m in reference.matches
            ], spec
            assert result["layer_cycles"] == list(reference.layer_cycles), spec
            assert result["failed"] == reference.failed, spec
        assert metrics["n_shards"] == 2
        assert metrics["completed"] == len(specs)
        assert metrics["rejected"] == 0


class TestExactHistogramMerge:
    """Cross-shard distributions are pooled bucket-for-bucket, so the
    merged histogram is the one a single observer would have built —
    pinned here on integer bucket counts (float totals are exact per
    observation but sum in shard order; counts are the merge contract).
    """

    SPECS = [
        SessionSpec(d=(3, 5, 7)[i % 3], p=0.02, seed=8800 + i,
                    n_rounds=(4, 6, 9)[i % 3])
        for i in range(24)
    ]

    def _snapshot(self, n_shards: int) -> dict:
        async def run():
            config = SchedulerConfig(max_active=16, max_queue=64)
            async with ShardRouter(n_shards=n_shards, config=config) as router:
                await asyncio.gather(*(router.submit(s) for s in self.SPECS))
                return await router.metrics()

        return asyncio.run(run())

    def test_decode_cycles_identical_one_vs_four_shards(self):
        """decode_cycles is a pure function of the spec, so for a fixed
        seeded population the merged histogram must be *bit-identical*
        however placement spread the sessions."""
        one = self._snapshot(1)
        four = self._snapshot(4)
        assert sum(1 for s in four["shards"] if s["completed"]) >= 2
        a = one["hist"]["decode_cycles"]
        b = four["hist"]["decode_cycles"]
        assert a["counts"] == b["counts"]
        assert a["n"] == b["n"] == len(self.SPECS)
        assert a["total"] == b["total"]  # integer-valued cycles: exact
        assert one["decode_cycles"] == four["decode_cycles"]

    def test_merged_counts_equal_bucketwise_shard_sum(self):
        """For every histogram field the router reports, the merged
        bucket counts equal the integer sum over per-shard snapshots —
        wall-clock values differ run to run, the merge algebra never."""
        from repro.service.metrics import HIST_FIELDS

        snapshot = self._snapshot(4)
        for field in HIST_FIELDS:
            merged = snapshot["hist"][field]["counts"]
            summed: dict[str, int] = {}
            for shard in snapshot["shards"]:
                for index, count in shard["hist"][field]["counts"].items():
                    summed[index] = summed.get(index, 0) + count
            assert merged == summed, field
            assert snapshot["hist"][field]["n"] == sum(
                s["hist"][field]["n"] for s in snapshot["shards"]
            )

    def test_router_adds_session_latency_histogram(self):
        snapshot = self._snapshot(2)
        latency = snapshot["hist"]["session_latency_s"]
        assert latency["n"] == len(self.SPECS)
        triple = snapshot["session_latency_s"]
        assert triple["p50"] is not None and triple["p99"] >= triple["p50"]
