"""Command-line entry point regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments.runner --experiment all --shots 200
    python -m repro.experiments.runner --experiment fig4a --shots 1000 --jobs 4
    python -m repro.experiments.runner --experiment table4 --adaptive
    python -m repro.experiments.runner --experiment table3
    python -m repro.experiments.runner serve --port 7421   # decode service

``--shots`` trades fidelity for runtime; benchmarks use small budgets,
``examples/threshold_study.py`` documents publication-scale runs.

Each experiment's generator module is imported only when that
experiment runs, so ``serve`` (and ``stats``) load none of them, nor
the ``networkx`` the MWPM baseline needs.

``--jobs N`` shards every Monte-Carlo point's shot loop across ``N``
worker processes (see :mod:`repro.experiments.executor`).  For a fixed
seed the printed numbers are **bit-identical** at any ``--jobs`` value
— parallelism changes wall-clock only, never results.

``--adaptive`` lets each point stop early once 100 failures are seen or
its Wilson interval is tight, reporting the shots actually spent.  This
re-allocates budget from easy (high-p) points to the sub-threshold tail
but does change the per-point shot counts, so seeded outputs differ
from a fixed-budget run.

Noise scenarios
---------------
``--noise NAME`` re-runs any experiment under a registered noise family
(see :mod:`repro.surface_code.noise`); family parameters ride along as
``--bias``, ``--ramp`` and ``--q``.  The default keeps the paper's
models (code-capacity for 2-D points, phenomenological with ``q = p``
for 3-D/online points).  Examples::

    # Fig. 4(a) under Z-biased noise (dephasing-dominated qubits):
    python -m repro.experiments.runner --experiment fig4a \
        --noise biased_z --bias 10

    # Fig. 7 with rates ramping to 3x over the experiment:
    python -m repro.experiments.runner --experiment fig7 \
        --noise drift --ramp 3

    # Table IV thresholds under projected depolarizing noise:
    python -m repro.experiments.runner --experiment table4 \
        --noise depolarizing

    # Phenomenological with measurement noise decoupled from data noise:
    python -m repro.experiments.runner --experiment fig4a --q 0.02

Differently-noised points never collide in the on-disk point cache —
the model's canonical key is part of every cache key.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.surface_code.noise import available_noise_models

__all__ = ["main", "run_experiment"]

EXPERIMENTS = (
    "tables12", "table3", "table4", "table5", "fig4a", "fig4b", "fig7",
    "ablations", "system",
)


def run_experiment(
    name: str,
    shots: int,
    out=None,
    jobs: int = 1,
    adaptive: bool = False,
    noise: str | None = None,
    noise_params: dict | None = None,
) -> None:
    """Run one named experiment and print its report to ``out``.

    ``out=None`` resolves to the *current* ``sys.stdout`` at call time
    (not import time), so redirection and capture work.  ``jobs`` and
    ``adaptive`` are forwarded to the Monte-Carlo executor, ``noise`` /
    ``noise_params`` to every Monte-Carlo point (re-running the figure
    under a registered noise family); experiments without a shot loop
    (``tables12``, ``system``) ignore them.
    """
    from repro.experiments.executor import default_adaptive

    if out is None:
        out = sys.stdout
    emit = lambda *parts: print(*parts, file=out)
    stopping = default_adaptive() if adaptive else None
    scenario = dict(noise=noise, noise_params=noise_params)
    if noise:
        emit(f"[noise scenario: {noise} {noise_params or {}}]")
    if name == "tables12":
        from repro.experiments.tables12 import (
            format_table1,
            format_table2,
            headline_numbers,
        )

        emit("== Table I: SFQ cell library ==")
        for line in format_table1():
            emit(line)
        emit()
        emit("== Table II: Unit composition (bottom-up vs published) ==")
        for line in format_table2():
            emit(line)
        emit()
        emit("== Headline numbers (Section IV-B / V-C) ==")
        for key, value in headline_numbers().items():
            emit(f"{key:<22} {value:.4g}")
    elif name == "table3":
        from repro.experiments.table3 import run_table3

        emit("== Table III: per-layer execution cycles ==")
        for row in run_table3(shots=max(10, shots // 5), jobs=jobs, **scenario):
            emit(row.format())
    elif name == "table4":
        from repro.experiments.table4 import run_table4

        emit("== Table IV: decoder thresholds (2-D / 3-D) ==")
        for row in run_table4(shots=shots, jobs=jobs, adaptive=stopping, **scenario):
            emit(row.format())
    elif name == "table5":
        from repro.experiments.table5 import run_table5

        emit("== Table V: AQEC vs QECOOL at d=9, p=0.001 ==")
        for row in run_table5(shots=max(20, shots // 4), jobs=jobs, **scenario):
            emit(row.format())
    elif name == "fig4a":
        from repro.experiments.fig4 import run_fig4a

        emit("== Fig. 4(a): batch-QECOOL vs MWPM error-rate scaling ==")
        result = run_fig4a(shots=shots, jobs=jobs, adaptive=stopping, **scenario)
        for line in result.rows():
            emit(line)
        for decoder in result.points:
            est = result.threshold(decoder)
            pth = "not in sampled range" if not est.found else f"{100 * est.p_th:.2f}%"
            emit(f"p_th({decoder}) = {pth}")
    elif name == "fig4b":
        from repro.experiments.fig4 import run_fig4b

        emit("== Fig. 4(b): deep vertical match proportion ==")
        for point in run_fig4b(shots=shots, jobs=jobs, adaptive=stopping, **scenario):
            emit(
                f"p={point.p:<7} deep(>= {point.deep_threshold} planes)"
                f" fraction={point.deep_vertical_fraction:.5f}"
                f" ({point.n_deep_vertical}/{point.n_matches})"
            )
    elif name == "fig7":
        from repro.experiments.fig7 import run_fig7

        emit("== Fig. 7: online QEC at 500 MHz / 1 GHz / 2 GHz ==")
        result = run_fig7(shots=shots, jobs=jobs, adaptive=stopping, **scenario)
        for line in result.rows():
            emit(line)
        for freq in result.points:
            est = result.threshold(freq)
            pth = "not in sampled range" if not est.found else f"{100 * est.p_th:.2f}%"
            emit(f"p_th({freq / 1e9:.1f} GHz) = {pth}")
    elif name == "ablations":
        from repro.experiments.ablations import (
            ordering_ablation,
            sweep_measurement_noise,
            sweep_reg_size,
            sweep_thv,
        )

        budget = max(30, shots // 2)
        emit("== Ablation: vertical look-ahead thv (paper fixes 3) ==")
        for point in sweep_thv(shots=budget, jobs=jobs, adaptive=stopping, **scenario):
            emit(point.format())
        emit()
        emit("== Ablation: Reg capacity at 500 MHz (paper uses 7 bits) ==")
        for point in sweep_reg_size(shots=budget, jobs=jobs, adaptive=stopping, **scenario):
            emit(point.format())
        emit()
        emit("== Ablation: readout-noise ratio q/p (paper assumes 1) ==")
        for point in sweep_measurement_noise(shots=budget, jobs=jobs, adaptive=stopping, **scenario):
            emit(point.format())
        emit()
        emit("== Ablation: matching order (batch, paired noise) ==")
        for decoder, est in ordering_ablation(shots=shots, jobs=jobs, **scenario).items():
            emit(f"{decoder:<8} p_L = {est}")
    elif name == "system":
        from repro.sfq.system import system_protectable_logical_qubits

        emit("== Extension: 4-K budget including overhead hardware ==")
        emit("d    capacity  overhead  (paper: Units only, d=9 -> 2498)")
        for d in (5, 7, 9, 11, 13):
            capacity, overhead = system_protectable_logical_qubits(d)
            emit(f"{d:<4} {capacity:<9} {overhead:.2%}")
    else:
        raise ValueError(f"unknown experiment {name!r}; pick from {EXPERIMENTS}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Besides the experiment flags below, ``repro-runner serve [...]``
    starts the streaming decode service's TCP front end (see
    :mod:`repro.service.server` for its flags) and ``repro-runner
    stats <host> <port> [--watch N]`` prints a running service's
    metrics snapshot as a terminal table (:mod:`repro.service.stats`)
    — kept as subcommands so the experiment CLI's flag surface stays
    unchanged.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        from repro.service.server import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "stats":
        from repro.service.stats import main as stats_main

        return stats_main(argv[1:])
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--experiment", default="all", choices=EXPERIMENTS + ("all",),
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--shots", type=int, default=200,
        help="Monte-Carlo budget per point (scaled internally per experiment)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes per Monte-Carlo point (1 = serial; "
        "seeded results are identical at any value)",
    )
    parser.add_argument(
        "--adaptive", action="store_true",
        help="stop each point early once its failure quota / Wilson "
        "interval target is met (reports shots actually spent)",
    )
    parser.add_argument(
        "--noise", default=None, choices=available_noise_models(),
        help="registered noise family to run the experiment under "
        "(default: the paper's code-capacity/phenomenological models)",
    )
    parser.add_argument(
        "--bias", type=float, default=None,
        help="bias ratio for --noise biased_x / biased_z (default 10)",
    )
    parser.add_argument(
        "--ramp", type=float, default=None,
        help="final-round rate multiplier for --noise drift (default 2)",
    )
    parser.add_argument(
        "--q", type=float, default=None,
        help="measurement-flip probability override (default: the noise "
        "model's own convention, q = p for the paper's models)",
    )
    args = parser.parse_args(argv)
    noise_params = {
        key: value
        for key, value in (("bias", args.bias), ("ramp", args.ramp), ("q", args.q))
        if value is not None
    }
    if args.noise is None and set(noise_params) - {"q"}:
        parser.error("--bias/--ramp require --noise naming the family they configure")
    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    for name in names:
        start = time.perf_counter()
        run_experiment(
            name, args.shots, jobs=args.jobs, adaptive=args.adaptive,
            noise=args.noise, noise_params=noise_params or None,
        )
        print(f"[{name} done in {time.perf_counter() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
