"""Bench-floor guard: fail when a committed speedup record regresses.

The committed ``BENCH_engine.json`` / ``BENCH_service.json`` are the
perf trajectory of the repo — every full benchmark run rewrites them.
This guard pins the floors those records must keep: if a re-record (or
a hand edit) ever commits a headline speedup below its floor, CI fails
loudly instead of silently shipping a slower engine.

The check reads JSON only — no wall clocks — so it runs in every CI
job, including ``BENCH_SMOKE`` runs (where the benchmarks themselves
assert bit-identity but skip wall-clock floors because shared runners
cannot bench).  Freshly produced full-mode records can be checked too
by passing their paths.

Usage::

    python benchmarks/check_floors.py            # committed records
    python benchmarks/check_floors.py FILE...    # specific records
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Committed speedup floors per bench point.  Points absent from a
# record are an error when required (a disappearing headline point is
# itself a regression).
ENGINE_FLOORS = {
    "drain_d9": 3.0,
    "drain_d13": 3.0,
    "online_d9_2GHz": 3.0,
    "online_d9_unbounded": 3.0,
    # Batch engine must at least hold parity with the scalar engine at
    # its largest committed chunk (smaller chunks dispatch to scalar).
    "drain_batch_vs_scalar_d9_c256": 0.9,
    # The scalar engine remains a production dispatch target (sub-cutoff
    # drains, sparse service sessions): its vs-baseline floor stays.
    "drain_scalar_d9": 2.2,
}

# Raised after the slab-native session layer (PR 6): recorded speedups
# moved to 2.41x / 2.11x / 1.41x, so the floors follow them up with a
# small re-record margin.
SERVICE_FLOORS = {
    "serve_d9_p0.0005": 2.3,
    "serve_d9_p0.001": 2.0,
    "serve_d9_p0.005": 1.35,
    # Observability off-path (schema bench-service/3+): the headline
    # wave re-run on a default (untraced) scheduler must hold >= 98% of
    # the headline sessions/s — instrumentation may not tax the off
    # path beyond noise.  Its "speedup" is that ratio, ~1.0.
    "obs_overhead_d9": 0.98,
    # Fault-injection off-path (PR 10): the headline wave on a default
    # scheduler — chaos hooks present but no FaultPlan armed — must
    # likewise hold >= 98% of the headline sessions/s.  Its "speedup"
    # is that ratio, ~1.0.
    "faults_off_overhead": 0.98,
}

FLOORS_BY_SCHEMA = {
    "bench-engine": ENGINE_FLOORS,
    "bench-service": SERVICE_FLOORS,
}

# Floors that only make sense on hosts that can express them: the
# multi-process shard-scaling speedup needs real cores.  Records from
# smaller boxes must still carry the point (the open-loop benchmark and
# its bit-identity assertions ran), but the speedup floor itself is
# waived — mirroring the in-bench gate in ``bench_service.py``.
SCALING_MIN_CPUS = 4
SERVICE_SCALING_FLOORS = {
    "shard_scaling_d9": 1.6,
}

# Service points that must exist in every committed record even though
# they carry no scalar speedup (schema bench-service/2+).
SERVICE_REQUIRED_POINTS = ("openloop_mixed",)


def check(path: Path) -> list[str]:
    record = json.loads(path.read_text())
    schema = str(record.get("schema", "")).split("/")[0]
    floors = FLOORS_BY_SCHEMA.get(schema)
    if floors is None:
        return [f"{path}: unknown bench schema {record.get('schema')!r}"]
    if record.get("smoke"):
        return [
            f"{path}: is a smoke record — smoke runs must never be committed"
        ]
    errors = []
    seen = {}
    for point in record.get("points", []):
        seen[point.get("name")] = point
    for name, floor in floors.items():
        point = seen.get(name)
        if point is None:
            errors.append(f"{path}: required bench point {name!r} missing")
            continue
        speedup = point.get("speedup")
        if not isinstance(speedup, (int, float)) or speedup < floor:
            errors.append(
                f"{path}: {name} speedup {speedup!r} regressed below the"
                f" committed floor {floor}x"
            )
    if schema == "bench-service":
        for name in SERVICE_REQUIRED_POINTS:
            if name not in seen:
                errors.append(f"{path}: required bench point {name!r} missing")
        cpus = record.get("host", {}).get("cpus")
        for name, floor in SERVICE_SCALING_FLOORS.items():
            point = seen.get(name)
            if point is None:
                errors.append(f"{path}: required bench point {name!r} missing")
                continue
            if not isinstance(cpus, int) or cpus < SCALING_MIN_CPUS:
                continue  # floor waived on small hosts; presence still held
            speedup = point.get("speedup")
            if not isinstance(speedup, (int, float)) or speedup < floor:
                errors.append(
                    f"{path}: {name} speedup {speedup!r} regressed below the"
                    f" committed floor {floor}x (host has {cpus} CPUs)"
                )
    return errors


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or [
        REPO / "BENCH_engine.json",
        REPO / "BENCH_service.json",
    ]
    errors = []
    for path in paths:
        if not path.exists():
            errors.append(f"{path}: missing")
            continue
        errors.extend(check(path))
    for error in errors:
        print(f"FLOOR REGRESSION: {error}", file=sys.stderr)
    if not errors:
        print(f"bench floors hold across {len(paths)} record(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
