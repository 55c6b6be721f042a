"""End-to-end TCP decode-service benchmark with a per-layer ledger.

    python3 e2ebench/run.py --workload closed_sparse_d9 --seed 1 --seconds 50 --trace 0

Spawns a fresh ``serve`` process on an ephemeral loopback port, drives
it from this one load-generator process, checks every answer (all
``ok``, right shape, and a 1-in-8 sample bit-identical to
``run_online_trial``, re-derived after the timed window), and prints
one JSON object as the last line of standard output.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` splits the time between
an untraced server (zero-overhead ``/proc`` and result-field counters)
and a traced one (spans around each layer's public callables) and
reports the per-layer ledger.  A human-readable table of every metric
goes to standard error.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import os

# This process only generates load and re-derives references; one BLAS
# thread keeps it off the server's second core.  The server's own
# environment is left as a user would have it (see procs.Server).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".e2ebench_out"

WATCHDOG_S = 170


def _require_source() -> None:
    if not (ROOT / "src" / "repro" / "service" / "server.py").is_file():
        print(f"e2ebench: no decode-service source under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)


def box_probe() -> dict:
    """Time a fixed numpy + Python loop that does not touch the repo.

    A diagnostic, not a metric: when two sets of runs disagree, a probe
    that moved with them points at the host, one that did not at the
    program.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    t1 = time.perf_counter()
    rng = np.random.default_rng(12345)
    a = rng.random((192, 192))
    for _ in range(40):
        a = a @ a
        a /= np.abs(a).max()
    b = rng.integers(0, 2, size=(4096, 145), dtype=np.uint8)
    for _ in range(40):
        b = np.bitwise_xor(b, np.roll(b, 1, axis=1))
    t2 = time.perf_counter()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # diagnostic only; older numpy lacks mode="dicts"
        blas = "unknown"
    return {
        "python_loop_ms": (t1 - t0) * 1e3,
        "numpy_ms": (t2 - t1) * 1e3,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_source()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import bench  # the orchestration, importable only with src/ present

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(bench.WORKLOADS)}")

    def watchdog(signum, frame):
        raise bench.BenchError(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, watchdog)
    signal.alarm(WATCHDOG_S)
    run_dir = OUT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    probe = box_probe()
    print(f"box probe: {json.dumps(probe)}", file=sys.stderr)
    try:
        report = bench.run(
            bench.WORKLOADS[args.workload], args.seed, args.seconds,
            traced=bool(args.trace), run_dir=run_dir,
        )
    except (bench.BenchError, ValueError) as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    bench.print_table(report, file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "probe": probe, "report": report,
        }) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
