"""Tests for the command-line interface (driven in-process)."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.spice.writer import write_spice


@pytest.fixture()
def deck_path(tmp_path, fake_design):
    path = tmp_path / "design.sp"
    write_spice(fake_design.netlist, path)
    return path


@pytest.fixture()
def deck4_path(tmp_path):
    """A 4-metal-layer deck matching the CLI trainer's default stack."""
    from repro.data.synthetic import generate_design, make_fake_spec

    design = generate_design(
        make_fake_spec("cli4", seed=5, pixels=16, num_layers=4)
    )
    path = tmp_path / "design4.sp"
    write_spice(design.netlist, path)
    return path


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    """A 16 px, one-epoch checkpoint from ``repro train``."""
    model = tmp_path_factory.mktemp("model") / "model.npz"
    code = main(
        ["train", str(model), "--pixels", "16", "--fake", "2",
         "--real", "1", "--epochs", "1", "--channels", "4"]
    )
    assert code == 0
    return model


@pytest.fixture(scope="module")
def real48_deck(tmp_path_factory):
    """A 48 px real-like deck: large enough that the quality preset's
    hierarchy keeps a K-cycle above its 1000-unknown coarsest level."""
    from repro.data.synthetic import generate_design, make_real_spec

    design = generate_design(make_real_spec("cli48", seed=0, pixels=48))
    path = tmp_path_factory.mktemp("real48") / "design.sp"
    write_spice(design.netlist, path)
    return path


class TestSimulate:
    def test_basic(self, deck_path, capsys):
        assert main(["simulate", str(deck_path)]) == 0
        out = capsys.readouterr().out
        assert "worst_drop_mV=" in out
        assert "converged=True" in out

    def test_signoff_pass(self, deck_path, capsys):
        code = main(["simulate", str(deck_path), "--limit-mv", "10000"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_signoff_fail(self, deck_path, capsys):
        code = main(["simulate", str(deck_path), "--limit-mv", "0.001"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_iteration_cap(self, real48_deck, capsys):
        assert main(["simulate", str(real48_deck), "--iterations", "2"]) == 0
        assert "iterations=2 converged=False" in capsys.readouterr().out

    def test_prints_the_hierarchy_it_built(self, real48_deck, capsys):
        from repro.solvers.amg import build_hierarchy
        from repro.solvers.cache import clear_setup_cache
        from repro.solvers.powerrush import PRESETS, PowerRushSimulator

        clear_setup_cache()
        assert main(["simulate", str(real48_deck), "--preset", "quality"]) == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        amg = [line for line in out.splitlines() if line.strip().startswith("amg:")]
        assert len(amg) == 1
        report = PowerRushSimulator(preset="quality").simulate_file(real48_deck)
        built = build_hierarchy(report.system.matrix, PRESETS["quality"][0])
        assert built.num_levels >= 2
        assert f"levels={built.num_levels} coarsest={built.levels[-1].size} " in amg[0]
        assert "operator_complexity=" in amg[0]

    def test_fast_preset(self, deck_path, capsys):
        assert main(
            ["simulate", str(deck_path), "--preset", "fast", "--iterations", "3"]
        ) == 0


class TestGenerate:
    def test_generates_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "gen"
        code = main(
            ["generate", str(out_dir), "--pixels", "16", "--seed", "3",
             "--golden"]
        )
        assert code == 0
        assert (out_dir / "netlist.sp").exists()
        assert (out_dir / "current_map.csv").exists()
        assert (out_dir / "ir_drop_map.csv").exists()

    def test_generated_deck_simulates(self, tmp_path, capsys):
        out_dir = tmp_path / "gen"
        main(["generate", str(out_dir), "--pixels", "16", "--kind", "real"])
        assert main(["simulate", str(out_dir / "netlist.sp")]) == 0


class TestTrainAnalyze:
    def test_train_then_analyze(self, tmp_path, deck4_path, capsys):
        model = tmp_path / "model.npz"
        code = main(
            ["train", str(model), "--pixels", "16", "--fake", "2",
             "--real", "1", "--epochs", "1", "--channels", "4"]
        )
        assert code == 0
        assert model.exists()
        meta = json.loads((tmp_path / "model.npz.json").read_text())
        assert meta["in_channels"] > 0

        map_csv = tmp_path / "map.csv"
        code = main(
            ["analyze", str(model), str(deck4_path), "--save-map", str(map_csv)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "worst_predicted_drop_mV=" in out
        drop = np.loadtxt(map_csv, delimiter=",")
        assert drop.ndim == 2

    def test_analyze_with_signoff(self, tmp_path, deck4_path, capsys):
        model = tmp_path / "model.npz"
        main(
            ["train", str(model), "--pixels", "16", "--fake", "2",
             "--real", "1", "--epochs", "1", "--channels", "4"]
        )
        code = main(
            ["analyze", str(model), str(deck4_path), "--limit-mv", "10000"]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_train_jobs_only_parallelises_feature_extraction(self, tmp_path):
        # --jobs fans the feature extraction out; the training loop is
        # the same either way, so the saved weights are bitwise equal.
        states = []
        for jobs in ("1", "2"):
            model = tmp_path / f"model{jobs}.npz"
            code = main(
                ["train", str(model), "--pixels", "16", "--fake", "2",
                 "--real", "1", "--epochs", "1", "--channels", "4",
                 "--jobs", jobs]
            )
            assert code == 0
            with np.load(model) as archive:
                states.append({key: archive[key] for key in archive.files})
        serial, pooled = states
        assert sorted(serial) == sorted(pooled)
        for key, value in serial.items():
            np.testing.assert_array_equal(pooled[key], value, err_msg=key)

    def test_aborted_training_exits_1_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.train.trainer import Trainer

        # Every epoch's loss is non-finite: the run aborts after its
        # recovery budget, and no model may be installed.
        monkeypatch.setattr(
            Trainer, "_run_epoch", lambda self, dataset, rng: float("nan")
        )
        model = tmp_path / "model.npz"
        code = main(
            ["train", str(model), "--pixels", "16", "--fake", "2",
             "--real", "1", "--epochs", "6", "--channels", "4"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "training aborted (nan_loss)" in captured.err
        assert "saved to" not in captured.out
        assert list(tmp_path.iterdir()) == []


class TestDiagnosticsOutput:
    def test_simulate_prints_diagnostics_block(self, deck_path, capsys):
        assert main(["simulate", str(deck_path)]) == 0
        out = capsys.readouterr().out
        assert "diagnostics: degraded=false" in out

    def test_simulate_reports_repairs_on_sick_deck(self, tmp_path, capsys):
        deck = tmp_path / "island.sp"
        deck.write_text(
            "* floating island\n"
            "R1 n1_m1_0_0 n1_m1_1000_0 1.0\n"
            "I1 n1_m1_1000_0 0 0.01\n"
            "V1 n1_m1_0_0 0 1.05\n"
            "R9 n1_m1_5000_5000 n1_m1_6000_5000 2.0\n"
            "I9 n1_m1_6000_5000 0 0.002\n"
            ".end\n"
        )
        assert main(["simulate", str(deck)]) == 0
        out = capsys.readouterr().out
        assert "diagnostics: degraded=true" in out
        assert "floating_nodes" in out
        assert "ground_tie" in out


class TestErrorHandling:
    def test_missing_deck_exits_2(self, capsys):
        code = main(["simulate", "/nonexistent/deck.sp"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad input:")
        assert "Traceback" not in err

    def test_malformed_deck_exits_2(self, tmp_path, capsys):
        deck = tmp_path / "bad.sp"
        deck.write_text("R1 only_two_tokens\n.end\n")
        code = main(["simulate", str(deck)])
        assert code == 2
        assert "error: bad input:" in capsys.readouterr().err

    def test_nan_tolerance_exits_2(self, deck_path, capsys):
        code = main(["simulate", str(deck_path), "--tol", "nan"])
        assert code == 2
        assert "tol must be non-negative" in capsys.readouterr().err

    def test_nan_signoff_limit_exits_2(self, deck_path, capsys):
        code = main(["simulate", str(deck_path), "--limit-mv", "nan"])
        assert code == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "limit must be positive and finite" in captured.err

    @pytest.mark.parametrize("limit", ["nan", "-5", "0", "inf"])
    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "/nonexistent/deck.sp"],
            ["analyze", "/nonexistent/model.npz", "/nonexistent/deck.sp"],
            ["analyze", "/nonexistent/model.npz", "/nonexistent/a.sp",
             "/nonexistent/b.sp"],
        ],
        ids=["simulate", "analyze", "analyze_batch"],
    )
    def test_bad_limit_is_refused_before_any_deck_is_read(
        self, command, limit, capsys
    ):
        code = main([*command, f"--limit-mv={limit}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "limit must be positive and finite" in captured.err

    def test_nan_batch_deadline_exits_2(self, tiny_model, deck4_path, capsys):
        code = main(
            ["analyze", str(tiny_model), str(deck4_path), str(deck4_path),
             "--deadline", "nan"]
        )
        assert code == 2
        assert "deadline must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--jobs", "-2"], "jobs must be >= 1"),
            (["--jobs", "0"], "jobs must be >= 1"),
            (["--jobs", "2", "--task-timeout", "-1"], "task_timeout must be"),
            (["--task-timeout", "0"], "task_timeout must be"),
            (["--retries", "-1"], "retries must be >= 0"),
            (["--deadline", "0"], "deadline must be"),
        ],
    )
    def test_out_of_range_batch_control_exits_2(
        self, tiny_model, deck4_path, capsys, flags, message
    ):
        code = main(
            ["analyze", str(tiny_model), str(deck4_path), str(deck4_path),
             *flags]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        # Refused before any deck ran.
        assert "worst_predicted_drop_mV" not in captured.out
        assert "batch:" not in captured.out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--task-timeout", "nan"], "task_timeout must be"),
            (["--task-timeout", "-5"], "task_timeout must be"),
            (["--retries", "-1"], "retries must be >= 0"),
            (["--deadline", "0"], "deadline must be"),
            (["--deadline", "-5"], "deadline must be"),
        ],
    )
    def test_out_of_range_run_control_exits_2_with_one_deck(
        self, tiny_model, deck4_path, capsys, flags, message
    ):
        # The same refusals as batch mode, before the deck runs.
        code = main(["analyze", str(tiny_model), str(deck4_path), *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert "worst_predicted_drop_mV" not in captured.out

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_expired_deadline_quarantines_every_deck_at_any_jobs(
        self, tiny_model, deck4_path, capsys, jobs
    ):
        code = main(
            ["analyze", str(tiny_model), str(deck4_path), str(deck4_path),
             "--jobs", str(jobs), "--deadline", "1e-6"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("reason=deadline") == 2
        assert "worst_predicted_drop_mV" not in out

    def test_save_map_with_many_decks_is_refused_before_the_model_loads(
        self, tmp_path, capsys
    ):
        code = main(
            ["analyze", str(tmp_path / "missing.npz"), "a.sp", "b.sp",
             "--save-map", str(tmp_path / "x.csv")]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--save-map needs a single deck" in captured.err
        assert not (tmp_path / "x.csv").exists()

    def test_missing_model_meta_exits_2(self, tmp_path, deck_path, capsys):
        code = main(["analyze", str(tmp_path / "no_model.npz"), str(deck_path)])
        assert code == 2
        assert "error: bad input:" in capsys.readouterr().err

    def test_debug_reraises(self, tmp_path):
        from repro.spice.parser import SpiceParseError

        deck = tmp_path / "bad.sp"
        deck.write_text("R1 only_two_tokens\n.end\n")
        with pytest.raises(SpiceParseError):
            main(["--debug", "simulate", str(deck)])

    def test_solver_failure_exits_3(self, deck_path, capsys, monkeypatch):
        from repro.solvers import powerrush
        from repro.solvers.guard import SolverDiagnostics, SolverFailure

        def explode(self, path):
            raise SolverFailure(
                "all fallback stages exhausted", SolverDiagnostics()
            )

        monkeypatch.setattr(
            powerrush.PowerRushSimulator, "simulate_file", explode
        )
        code = main(["simulate", str(deck_path)])
        assert code == 3
        assert "error: solver failure:" in capsys.readouterr().err

    def test_unexpected_error_exits_1(self, deck_path, capsys, monkeypatch):
        from repro.solvers import powerrush

        def explode(self, path):
            raise RuntimeError("boom")

        monkeypatch.setattr(
            powerrush.PowerRushSimulator, "simulate_file", explode
        )
        code = main(["simulate", str(deck_path)])
        assert code == 1
        assert "RuntimeError" in capsys.readouterr().err


class TestServeForwarding:
    """`repro serve ...` forwards its flags to `python -m repro.serve`.

    argparse.REMAINDER cannot start with an option-like token
    (bpo-17050), so `main` splits the forwarded argv off by hand —
    these pin the split against regressions.
    """

    def test_option_first_args_reach_serve(self, monkeypatch):
        from repro import cli

        captured = {}

        def fake_serve_main(argv):
            captured["argv"] = argv
            return 0

        monkeypatch.setattr(
            "repro.serve.__main__.main", fake_serve_main
        )
        code = cli.main(["serve", "--model-dir", "/nope", "--port", "0"])
        assert code == 0
        assert captured["argv"] == ["--model-dir", "/nope", "--port", "0"]

    def test_global_flags_stay_with_repro(self, monkeypatch):
        from repro import cli

        captured = {}

        def fake_serve_main(argv):
            captured["argv"] = argv
            return 0

        monkeypatch.setattr(
            "repro.serve.__main__.main", fake_serve_main
        )
        assert cli.main(["--debug", "serve", "--queue-limit", "2"]) == 0
        assert captured["argv"] == ["--queue-limit", "2"]

    def test_serve_as_positional_is_not_the_subcommand(self, capsys):
        # A deck literally named "serve" must not trigger forwarding:
        # analyze should fail on the missing file with exit code 2.
        assert main(["analyze", "model.npz", "serve"]) == 2

    def test_serve_help_is_forwarded(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        assert "--model-dir" in capsys.readouterr().out
