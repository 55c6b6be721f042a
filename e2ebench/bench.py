"""One benchmark run: server set-up, warm-up, timed window, checks, metrics.

Imported by ``run.py`` once ``src/`` is on the path.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

from check import mismatches
from loadgen import Outcomes, run_closed
from procs import CLK_TCK, BenchError, Server, cpu_s, thread_cpu_s
from spans import load_spans, merge_self_times, self_times
from workloads import (
    CONNECTIONS,
    WAVE,
    WORKLOADS,
    Population,
    Workload,
    highest_percentile,
    percentile,
    window_rate,
)

from repro.service.client import ServiceClient

__all__ = ["BenchError", "WORKLOADS", "print_table", "run"]

ROOT = Path(__file__).resolve().parents[1]
WARMUP_S = 2.0
SETUPS = 3  # server start-ups per untraced run; setup_s is their median

# Ledger rows: span name -> metric name (self time, µs per session).
LEDGER = {
    "session.from_payload": "session.from_payload_us",
    "scheduler.submit": "scheduler.submit_us",
    "scheduler.step": "scheduler.step_us",
    "online.advance_round": "online.advance_round_us",
    "engine.scalar_step": "engine.scalar_step_us",
    "engine.batch_decode": "engine.batch_decode_us",
    "engine.alloc_lane": "engine.alloc_lane_us",
    "lattice.syndrome_batch": "lattice.syndrome_batch_us",
    "session.result_to_payload": "session.result_to_payload_us",
}
# Reported together as engine.advance_us: each workload bypasses one of
# the two engines, so apart they would read 0 there.
_ENGINE_ROWS = ("engine.scalar_step_us", "engine.batch_decode_us", "engine.alloc_lane_us")
UNATTRIBUTED = (
    "event loop, JSON parse/encode, socket I/O, asyncio tasks, GC"
    " and, when sharded, the router's pickle/pipe hop"
)


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def _steal_s() -> float:
    """CPU time the hypervisor took from the vCPUs (diagnostic)."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8]) / CLK_TCK


def _cpu_snapshot(server: Server) -> dict:
    busy = server.busy_pid()
    return {
        "t": time.perf_counter(),
        "steal": _steal_s(),
        "client": time.process_time(),
        "server": cpu_s(server.pid),
        "workers": sum(cpu_s(w) for w in server.workers),
        "busy_main": cpu_s(busy, busy),
        "busy_all": sum(thread_cpu_s(busy).values()),
    }


def _delta(a: dict, b: dict) -> dict:
    return {k: b[k] - a[k] for k in a}


def _start(workload: Workload, run_dir: Path, setup: Population, j: int, span_dir=None):
    """Spawn ``serve`` and time it to its first decode result."""
    spawned = time.perf_counter()
    server = Server(ROOT, run_dir, workload.serve_args, span_dir)
    try:
        server.ping()
        reply = server.request({"op": "decode", "id": 1, "spec": setup.spec(j)})
        if not reply.get("ok"):
            raise BenchError(f"first decode failed: {reply}")
        server.note_workers()
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - spawned


# ----------------------------------------------------------------------
# One phase: a server, warm-up and a timed window
# ----------------------------------------------------------------------
def _phase(workload: Workload, seed: int, seconds: float, run_dir: Path, setups: int, traced: bool) -> dict:
    setup_pop = Population(workload, seed, "setup")
    setup_s = []
    for j in range(setups - 1):  # throwaway start-ups, for a steadier setup_s
        server, took = _start(workload, run_dir, setup_pop, j)
        setup_s.append(took)
        server.stop()
    span_dir = run_dir / "spans" if traced else None
    server, took = _start(workload, run_dir, setup_pop, setups, span_dir)
    setup_s.append(took)
    try:
        phase = _closed(workload, seed, seconds, server)
        phase["rss_mb"] = server.tree_peak_rss_mb()
        phase["sharded"] = bool(server.workers)
        server.stop()
    except BaseException:
        server.kill()
        raise
    phase["setup_s"] = setup_s
    if traced:
        start, end = phase["window"]
        files = sorted(span_dir.glob("spans-*.jsonl"))
        if len(files) != 1 + phase["sharded"]:
            raise BenchError(f"expected span files from every server process, got {len(files)}")
        phase["self"] = merge_self_times(self_times(load_spans(f), start, end) for f in files)
    return phase


def _closed(workload: Workload, seed: int, seconds: float, server: Server) -> dict:
    clients = [
        ServiceClient(port=server.port, timeout=120.0, retries=0)
        for _ in range(CONNECTIONS)
    ]
    try:
        warm = run_closed(clients, Population(workload, seed, "warmup"), WAVE, WARMUP_S)
        m0, c0 = server.metrics(), _cpu_snapshot(server)
        run = run_closed(clients, Population(workload, seed, "timed"), WAVE, seconds)
        c1, m1 = _cpu_snapshot(server), server.metrics()
    finally:
        for client in clients:
            client.close()
    return {
        "outcomes": run.outcomes,
        "warmup_errors": warm.outcomes.errors,
        "warmup_attempted": warm.outcomes.attempted,
        "window": (run.started, run.ended),
        "rate_window": (run.started, run.started + seconds),
        "waves": run.waves,
        # A decode_many caller gets every result of a wave when the call
        # returns: that round trip is each of its sessions' latency.
        "latency_s": [t1 - t0 for t0, t1, n in run.waves for _ in range(n)],
        "gaps_s": run.gaps,
        "wall_s": run.ended - run.started,
        "cpu": _delta(c0, c1),
        "steps": m1["steps"] - m0["steps"],
        "rounds": m1["rounds_advanced"] - m0["rounds_advanced"],
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _end_to_end(phase: dict) -> dict:
    start, end = phase["rate_window"]
    return {
        "sessions_per_s": (window_rate(phase["waves"], start, end), "1/s"),
        "setup_s": (statistics.median(phase["setup_s"]), "s"),
        "server_rss_mb": (phase["rss_mb"], "MB"),
    }


def _per_session(phase: dict, seconds: float) -> float:
    return seconds * 1e6 / max(phase["outcomes"].ok, 1)


def _tail(values) -> float:
    q = highest_percentile(len(values), (99.0, 90.0))
    if q is None:
        raise BenchError(f"{len(values)} samples support no tail percentile")
    return percentile(values, q)


def _outside(phase: dict) -> dict:
    """Layer metrics that cost the server nothing to collect."""
    cpu, outcomes = phase["cpu"], phase["outcomes"]
    return {
        "client.latency_p50_ms": (percentile(phase["latency_s"], 50) * 1e3, "ms"),
        "client.latency_p99_ms": (percentile(phase["latency_s"], 99) * 1e3, "ms"),
        "client.cpu_us_per_session": (_per_session(phase, cpu["client"]), "us"),
        # Far fewer turnarounds than sessions: the highest of p99/p90
        # that keeps 10 samples beyond it.
        "loadgen.turnaround_ms_tail": (_tail(phase["gaps_s"]) * 1e3, "ms"),
        "server.cpu_us_per_session": (_per_session(phase, cpu["server"] + cpu["workers"]), "us"),
        "server.busy_share": (cpu["busy_main"] / phase["wall_s"], "ratio"),
        "server.helper_thread_cpu_share": (
            (cpu["busy_all"] - cpu["busy_main"]) / max(cpu["busy_all"], 1e-9), "ratio"
        ),
        # The front-end process and the scheduler's process: the router
        # and the shard worker when sharded, the same process otherwise.
        "router.cpu_us_per_session": (_per_session(phase, cpu["server"]), "us"),
        "worker.cpu_us_per_session": (_per_session(phase, cpu["busy_all"]), "us"),
        "scheduler.steps_per_wave": (phase["steps"] / max(len(phase["waves"]), 1), "count"),
        "scheduler.mean_batch_sessions": (phase["rounds"] / max(phase["steps"], 1), "count"),
        "scheduler.queue_wait_ms_p50": (percentile(outcomes.wait_s, 50) * 1e3, "ms"),
        "scheduler.queue_wait_ms_p99": (percentile(outcomes.wait_s, 99) * 1e3, "ms"),
        "scheduler.service_ms_p50": (percentile(outcomes.service_s, 50) * 1e3, "ms"),
        "shard.hop_ms_p50": (percentile(outcomes.outside_s, 50) * 1e3, "ms"),
        "shard.hop_ms_p99": (percentile(outcomes.outside_s, 99) * 1e3, "ms"),
    }


def _traced(plain: dict, traced: dict) -> tuple[dict, list]:
    """Ledger metrics from the traced phase; rows for the table."""
    rows = traced["self"]
    out = {}
    attributed = 0.0
    ledger = []
    for span, metric in LEDGER.items():
        us = _per_session(traced, rows.get(span, {"self_s": 0.0})["self_s"])
        attributed += us
        ledger.append((metric, us))
        if metric not in _ENGINE_ROWS:
            out[metric] = (us, "us")
    out["engine.advance_us"] = (sum(us for m, us in ledger if m in _ENGINE_ROWS), "us")
    calls = lambda span: rows.get(span, {"calls": 0})["calls"]  # noqa: E731
    sessions = max(traced["outcomes"].ok, 1)
    out["engine.scalar_step_calls_per_session"] = (calls("engine.scalar_step") / sessions, "count")
    out["engine.batch_decode_calls_per_session"] = (calls("engine.batch_decode") / sessions, "count")
    out["scheduler.dense_share"] = (
        calls("engine.alloc_lane") / max(calls("scheduler.submit"), 1), "ratio"
    )
    cpu = traced["cpu"]
    server_us = _per_session(traced, cpu["server"] + cpu["workers"])
    out["ledger.coverage"] = (attributed / server_us, "ratio")
    out["ledger.unattributed_us"] = (server_us - attributed, "us")
    ledger.append((f"unattributed ({UNATTRIBUTED})", server_us - attributed))
    rate = lambda phase: phase["outcomes"].ok / phase["wall_s"]  # noqa: E731
    out["trace.overhead_ratio"] = (rate(traced) / rate(plain), "ratio")
    return out, ledger


def _diagnostics(phase: dict) -> dict:
    """Run-level numbers kept beside the result, not reported as metrics."""
    cpu = phase["cpu"]
    return {
        "mean_rate": phase["outcomes"].ok / phase["wall_s"],
        "server_cpu_us": _per_session(phase, cpu["server"] + cpu["workers"]),
        "busy_share": cpu["busy_main"] / phase["wall_s"],
        "steal_share": cpu["steal"] / phase["wall_s"] / os.cpu_count(),
    }


def run(workload: Workload, seed: int, seconds: float, traced: bool, run_dir: Path) -> dict:
    """One full benchmark run; returns the report ``run.py`` prints."""
    if traced:
        half = seconds / 2.0
        phases = [
            _phase(workload, seed, half, run_dir / "plain", 1, traced=False),
            _phase(workload, seed, half, run_dir / "traced", 1, traced=True),
        ]
    else:
        phases = [_phase(workload, seed, seconds, run_dir, SETUPS, traced=False)]
    attempted = failed = 0
    errors = []
    for phase in phases:
        outcomes: Outcomes = phase["outcomes"]
        bad = mismatches(outcomes.sampled)
        errors += outcomes.errors + phase["warmup_errors"] + [(i, f"mismatch: {f}") for i, f in bad]
        attempted += outcomes.attempted + phase["warmup_attempted"] + len(phase["setup_s"])
        failed += len(outcomes.errors) + len(phase["warmup_errors"]) + len(bad)
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_share": failed / attempted,
        "errors": [list(e) for e in errors[:20]],
        "checked": sum(len(p["outcomes"].sampled) for p in phases),
        "diagnostics": [_diagnostics(p) for p in phases],
    }
    if traced:
        layer = _outside(phases[0])
        ledger_metrics, report["ledger"] = _traced(phases[0], phases[1])
        report["per_layer"] = {**layer, **ledger_metrics}
    else:
        report["end_to_end"] = _end_to_end(phases[0])
    return report


def print_table(report: dict, file) -> None:
    """Every metric by name and unit, plus the ledger when traced."""
    print(
        f"correct={report['correct']} attempted={report['attempted']} "
        f"failed={report['failed']} error_share={report['error_share']:.6f} "
        f"bit-identity checked={report['checked']}",
        file=file,
    )
    for block in ("end_to_end", "per_layer"):
        for name, (value, unit) in report.get(block, {}).items():
            print(f"  {block:10s} {name:40s} {value:14.4f} {unit}", file=file)
    if "ledger" in report:
        print("  ledger, self time in µs per session:", file=file)
        for name, us in report["ledger"]:
            print(f"    {us:10.2f}  {name}", file=file)
    for index, reason in report["errors"]:
        print(f"  error: session {index}: {reason}", file=file)
