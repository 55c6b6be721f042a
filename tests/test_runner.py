"""Coverage for the experiment runner CLI.

Every experiment name must dispatch and print a report; heavy sweeps
are monkeypatched onto tiny lattices/budgets so the whole dispatch
table runs in seconds while still exercising the *real* generators and
formatters end to end (the stubs call the genuine functions with
reduced parameters, so interface drift between runner and generators
fails these tests).
"""

from __future__ import annotations

import io

import pytest

import repro.experiments.ablations as ablations_mod
import repro.experiments.fig4 as fig4_mod
import repro.experiments.fig7 as fig7_mod
import repro.experiments.table3 as table3_mod
import repro.experiments.table4 as table4_mod
import repro.experiments.table5 as table5_mod
from repro.experiments.ablations import (
    ordering_ablation,
    sweep_measurement_noise,
    sweep_reg_size,
    sweep_thv,
)
from repro.experiments.fig4 import run_fig4a, run_fig4b
from repro.experiments.fig7 import run_fig7
from repro.experiments.runner import EXPERIMENTS, main, run_experiment
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5


@pytest.fixture()
def light_experiments(monkeypatch):
    """Rebind every heavy generator to a tiny-parameter real run.

    The runner imports each generator inside its dispatch branch, so
    the stubs are patched onto the generator modules themselves.

    Each stub forwards ``**kwargs`` (``jobs``, ``adaptive``, ``noise``,
    ``noise_params``) so the runner's full plumbing — including noise
    scenarios — is exercised against the genuine generators.
    """
    monkeypatch.setattr(
        fig4_mod, "run_fig4a",
        lambda shots, **kw: run_fig4a(shots=4, distances=(3,), ps=(0.05,), **kw),
    )
    monkeypatch.setattr(
        fig4_mod, "run_fig4b",
        lambda shots, **kw: run_fig4b(shots=4, d=3, ps=(0.05,), **kw),
    )
    monkeypatch.setattr(
        fig7_mod, "run_fig7",
        lambda shots, **kw: run_fig7(
            shots=3, frequencies=(1e9,), distances=(3,), ps=(0.02,), **kw,
        ),
    )
    monkeypatch.setattr(
        table3_mod, "run_table3",
        lambda shots, **kw: run_table3(
            shots=2, distances=(3,), ps=(0.01,), rounds_per_shot=3, **kw,
        ),
    )
    monkeypatch.setattr(
        table4_mod, "run_table4",
        lambda shots, **kw: run_table4(
            shots=8, ps_2d=(0.08, 0.12), distances_2d=(3, 5),
            include_3d=False, **kw,
        ),
    )
    monkeypatch.setattr(
        table5_mod, "run_table5",
        lambda shots, **kw: run_table5(shots=2, rounds_per_shot=3, **kw),
    )
    monkeypatch.setattr(
        ablations_mod, "sweep_thv",
        lambda shots, **kw: sweep_thv(d=3, p=0.03, shots=2, thvs=(0, 1), **kw),
    )
    monkeypatch.setattr(
        ablations_mod, "sweep_reg_size",
        lambda shots, **kw: sweep_reg_size(d=3, p=0.03, shots=2, sizes=(4, 7), **kw),
    )
    monkeypatch.setattr(
        ablations_mod, "sweep_measurement_noise",
        lambda shots, **kw: sweep_measurement_noise(
            d=3, p=0.03, shots=2, q_over_p=(0.0, 1.0), **kw,
        ),
    )
    monkeypatch.setattr(
        ablations_mod, "ordering_ablation",
        lambda shots, **kw: ordering_ablation(d=3, p=0.05, shots=3, **kw),
    )


class TestDispatch:
    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_every_experiment_prints_a_report(self, name, light_experiments):
        out = io.StringIO()
        run_experiment(name, shots=10, out=out)
        report = out.getvalue()
        assert len(report) > 40
        assert "==" in report  # every report leads with a titled section

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_adaptive_and_jobs_kwargs_accepted(self, name, light_experiments):
        out = io.StringIO()
        run_experiment(name, shots=10, out=out, jobs=1, adaptive=True)
        assert out.getvalue()

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("nope", 10)

    def test_unknown_experiment_names_the_choices(self):
        with pytest.raises(ValueError, match="fig4a"):
            run_experiment("bogus", 10)


class TestCli:
    def test_jobs_and_adaptive_flags_parse(self, capsys):
        # tables12 has no shot loop, so this exercises flag plumbing
        # without Monte-Carlo cost.
        assert main(
            ["--experiment", "tables12", "--shots", "10", "--jobs", "2", "--adaptive"]
        ) == 0
        captured = capsys.readouterr()
        assert "Table I" in captured.out
        assert "[tables12 done in" in captured.out

    def test_default_experiment_is_all(self):
        parser_error = None
        try:
            main(["--experiment", "not-a-thing"])
        except SystemExit as exc:  # argparse rejects unknown choices
            parser_error = exc.code
        assert parser_error == 2

    def test_bad_jobs_value_rejected(self):
        with pytest.raises(SystemExit):
            main(["--jobs", "not-an-int"])


class TestNoiseScenarios:
    """End-to-end --noise plumbing through the runner CLI."""

    def test_biased_z_runs_end_to_end(self, light_experiments, capsys):
        assert main(
            ["--experiment", "fig4a", "--shots", "4",
             "--noise", "biased_z", "--bias", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "[noise scenario: biased_z {'bias': 4.0}]" in out
        assert "Fig. 4(a)" in out

    def test_drift_runs_end_to_end(self, light_experiments, capsys):
        assert main(
            ["--experiment", "fig7", "--shots", "3",
             "--noise", "drift", "--ramp", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "[noise scenario: drift {'ramp': 3.0}]" in out
        assert "Fig. 7" in out

    def test_online_experiment_accepts_noise(self, light_experiments, capsys):
        assert main(
            ["--experiment", "table3", "--shots", "3", "--noise", "depolarizing"]
        ) == 0
        assert "Table III" in capsys.readouterr().out

    def test_unknown_noise_rejected(self):
        with pytest.raises(SystemExit):
            main(["--noise", "not-a-model"])

    def test_bias_without_noise_rejected(self):
        with pytest.raises(SystemExit):
            main(["--bias", "4"])

    def test_global_q_does_not_crash_code_capacity_points(self, light_experiments):
        # --q rides along to every experiment; the 2-D column's default
        # code-capacity model (perfect measurement) must ignore it
        # instead of aborting the run.
        assert main(["--experiment", "table4", "--shots", "8", "--q", "0.02"]) == 0

    def test_explicit_code_capacity_with_q_still_errors(self):
        from repro.experiments.montecarlo import resolve_noise

        with pytest.raises(ValueError, match="code_capacity"):
            resolve_noise("code_capacity", "code_capacity", 0.05,
                          noise_params={"q": 0.02})

    def test_explicit_q_argument_wins_over_noise_params(self):
        # The q/p ablation passes its per-point q explicitly while a
        # global --q arrives via noise_params; the sweep's q must win.
        from repro.experiments.montecarlo import resolve_noise

        model = resolve_noise(None, "phenomenological", 0.05,
                              q=0.03, noise_params={"q": 0.01})
        assert model.measurement_error_rate == 0.03

    def test_ablations_sweep_q_under_global_q(self, light_experiments):
        # End-to-end: ablations with a global --q must still sweep q/p.
        out = io.StringIO()
        run_experiment("ablations", shots=10, out=out, noise_params={"q": 0.01})
        assert "q/p" in out.getvalue()

    def test_run_experiment_noise_changes_results(self, light_experiments):
        # A heavily Z-biased scenario hides most flips from this sector,
        # so the report must differ from the default model's.
        default_out, biased_out = io.StringIO(), io.StringIO()
        run_experiment("fig4a", shots=10, out=default_out)
        run_experiment(
            "fig4a", shots=10, out=biased_out,
            noise="biased_z", noise_params={"bias": 50.0},
        )
        assert default_out.getvalue() != biased_out.getvalue()
