"""Chaos-smoke tests: deterministic fault injection, tier-1 scale.

The same harness CI's ``chaos-smoke`` job drives
(:func:`repro.service.smoke.run_chaos`), at reduced session counts so
it fits the tier-1 budget.  The invariant under test is the
supervision contract of docs/DESIGN.md section 12: under a seeded
:class:`~repro.service.faults.FaultPlan` (worker crash, hung worker,
slow worker, malformed pipe frame, dropped heartbeats, garbled TCP
frame), **every admitted session retires or sheds with an attributed
reason — none lost, none hung** — every killed worker respawns and
serves again, and every completed session is bit-identical to the
unfaulted reference, respawn-replay included.

``run_chaos`` asserts all of that internally (outcome attribution,
recovery polling, the ``submitted == completed + rejected + shed``
ledger, exposition of the new supervision counters); these tests pin it
at both 2 and 4 shards and sanity-check the returned snapshot.
"""

from __future__ import annotations

import pytest

from repro.service import shard as shard_module
from repro.service.smoke import run_chaos

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(autouse=True)
def _tight_supervision(monkeypatch):
    """Supervision timing scaled down so the chaos resolves in tier-1
    time: the seeded stall (the heartbeat timeout plus one second)
    dwarfs the 0.6 s timeout.  The CI chaos smoke runs the production
    constants."""
    monkeypatch.setattr(shard_module, "RESPAWN_BACKOFF_S", 0.1)
    monkeypatch.setattr(shard_module, "HEARTBEAT_TIMEOUT_S", 0.6)
    monkeypatch.setattr(shard_module, "HEARTBEAT_S", 0.1)


@pytest.mark.parametrize("shards", [2, 4])
def test_chaos_invariant_holds(tmp_path, shards):
    transcript = tmp_path / "chaos.jsonl"
    metrics = run_chaos(
        n_sessions=12, capacity=16, shards=shards,
        seed=1234, chaos_out=str(transcript),
    )
    # run_chaos already asserted the invariant; pin the headline facts.
    assert metrics["live_shards"] == shards
    assert metrics["worker_deaths"] >= 2  # the stall and the crash
    assert metrics["respawns"] >= 2
    assert metrics["submitted"] == (
        metrics["completed"] + metrics["rejected"] + metrics["shed"]
    )
    lines = transcript.read_text().splitlines()
    assert lines, "empty chaos transcript"


def test_chaos_is_seed_deterministic_in_plan(tmp_path):
    """Two runs with the same seed inject the identical fault schedule
    (the *plan* is deterministic; wall-clock outcomes may differ)."""
    import json

    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        run_chaos(n_sessions=6, capacity=16, shards=2, seed=7,
                  chaos_out=str(path))
    plans = [
        json.loads(path.read_text().splitlines()[0]) for path in paths
    ]
    assert plans[0] == plans[1]
    assert plans[0]["type"] == "plan" and plans[0]["seed"] == 7
