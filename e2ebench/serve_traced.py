"""Run ``repro-runner serve`` with spans around the service's layers.

    PYTHONPATH=src python3 e2ebench/serve_traced.py SPAN_DIR [serve flags...]

Wraps public callables of each layer (see ``TRACED`` below), then hands
the remaining arguments to the real ``serve`` entry point.  Every
process — the server and any forked shard worker — writes its spans to
``SPAN_DIR/spans-<pid>.jsonl`` when it exits.  Nothing inside the
program is modified; the untraced benchmark run uses plain
``python -m repro serve``.
"""

from __future__ import annotations

import atexit
import multiprocessing.util
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder  # noqa: E402


def _traced_targets():
    """``(owner, attribute, span name)`` for every wrapped callable."""
    import repro.service.scheduler as scheduler
    from repro.core.engine_batch import QecoolEngineBatch
    from repro.core.online import OnlineShot
    from repro.service.session import SessionResult, SessionSpec
    from repro.surface_code.lattice import PlanarLattice

    return (
        (SessionSpec, "from_payload", "session.from_payload"),
        (SessionResult, "to_payload", "session.result_to_payload"),
        (scheduler.MicroBatchScheduler, "submit", "scheduler.submit"),
        (scheduler.MicroBatchScheduler, "step", "scheduler.step"),
        # The scheduler imported it by name: patch that binding.
        (scheduler, "advance_streaming_round", "online.advance_round"),
        # Scalar sessions advance one round per OnlineShot.step; under
        # the default finite clock the engine runs inside it through its
        # run() generator, so QecoolEngine.run_to_idle is not on the path.
        (OnlineShot, "step", "engine.scalar_step"),
        (QecoolEngineBatch, "decode", "engine.batch_decode"),
        (QecoolEngineBatch, "alloc_lane", "engine.alloc_lane"),
        (PlanarLattice, "syndrome_of_batch", "lattice.syndrome_batch"),
    )


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    recorder = SpanRecorder(argv[0])
    for owner, attr, name in _traced_targets():
        recorder.wrap(owner, attr, name)

    def worker_started(rec: SpanRecorder) -> None:
        # Runs in each forked worker, after multiprocessing has cleared
        # the finalizers it inherited; the worker's exit runs this one.
        rec.reset_after_fork()
        multiprocessing.util.Finalize(None, rec.flush, exitpriority=100)

    multiprocessing.util.register_after_fork(recorder, worker_started)
    atexit.register(recorder.flush)

    from repro.experiments.runner import main as runner_main

    return runner_main(["serve", *argv[1:]])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
