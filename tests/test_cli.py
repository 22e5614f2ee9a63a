import time

import pytest

from mipprune.cli import main
from mipprune.pruning import load_report


def run_ok(argv):
    code = main(argv)
    assert code == 0, f"exit {code} for {argv}"


def one_run_dir(root):
    dirs = [p for p in root.iterdir() if p.is_dir()]
    assert len(dirs) >= 1
    return sorted(dirs)[-1]


DATA = ["--data", "blobs", "--data-seed", "4", "--n-per-class", "8",
        "--classes", "3", "--dim", "2"]


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("train")
    run_ok(["train", "--out", str(root), *DATA, "--arch", "dense:5,dense:4",
            "--epochs", "40", "--lr", "0.01", "--seed", "3"])
    run = one_run_dir(root)
    assert (run / "model.net").exists()
    assert (run / "trace.csv").exists()
    assert (run / "config.txt").read_text().startswith("command train")
    return run / "model.net"


class TestTrainScorePrune:
    def test_score_writes_report(self, trained_model, tmp_path):
        run_ok(["score", "--out", str(tmp_path), *DATA, "--model", str(trained_model),
                "--lambda", "5"])
        report = load_report(one_run_dir(tmp_path) / "report.txt")
        assert len(report.scores) == 9
        assert report.lam == 5.0

    def test_prune_clamps_threshold(self, trained_model, tmp_path):
        run_ok(["score", "--out", str(tmp_path / "s"), *DATA, "--model", str(trained_model)])
        report_path = one_run_dir(tmp_path / "s") / "report.txt"
        with pytest.warns(UserWarning):
            run_ok(["prune", "--out", str(tmp_path / "p"), "--model", str(trained_model),
                    "--report", str(report_path), "--threshold", "1.5"])
        assert (one_run_dir(tmp_path / "p") / "pruned.net").exists()

    def test_same_second_runs_get_own_directories(self, trained_model, tmp_path, monkeypatch):
        run_ok(["score", "--out", str(tmp_path / "s"), *DATA, "--model", str(trained_model)])
        report_path = one_run_dir(tmp_path / "s") / "report.txt"
        monkeypatch.setattr(time, "strftime", lambda fmt: "20000101-000000")
        argv = ["prune", "--out", str(tmp_path / "p"), "--model", str(trained_model),
                "--report", str(report_path), "--threshold", "0.3"]
        run_ok(argv)
        run_ok(argv)
        first, second = sorted((tmp_path / "p").iterdir())
        assert second.name == first.name + "-1"
        assert (first / "pruned.net").exists() and (second / "pruned.net").exists()

    def test_evaluate_masked_and_unmasked(self, trained_model, tmp_path):
        run_ok(["evaluate", "--out", str(tmp_path / "e1"), *DATA,
                "--model", str(trained_model)])
        acc = float((one_run_dir(tmp_path / "e1") / "accuracy.txt").read_text())
        assert 0.0 <= acc <= 1.0


class TestExperimentCommands:
    def test_compare_baselines(self, trained_model, tmp_path):
        run_ok(["compare-baselines", "--out", str(tmp_path), *DATA,
                "--model", str(trained_model), "--threshold", "0.3", "--finetune",
                "--epsilon", "0.1"])
        text = (one_run_dir(tmp_path) / "result.txt").read_text()
        assert "accuracy ours" in text and "accuracy random" in text
        assert "accuracy ours_ft" in text

    def test_transfer(self, tmp_path):
        run_ok(["transfer", "--out", str(tmp_path), "--arch", "dense:5,dense:4",
                "--source", "blobs", "--target", "moons", "--classes", "2",
                "--n-per-class", "8", "--threshold", "0.3", "--epochs", "30",
                "--lr", "0.01", "--epsilon", "0.1"])
        text = (one_run_dir(tmp_path) / "result.txt").read_text()
        assert "kind transfer" in text

    def test_sweep_lambda_csv(self, trained_model, tmp_path):
        run_ok(["sweep-lambda", "--out", str(tmp_path), *DATA,
                "--model", str(trained_model), "--values", "1,5", "--threshold", "0.3"])
        lines = (one_run_dir(tmp_path) / "sweep.csv").read_text().splitlines()
        assert lines[0] == "lambda,masked_acc,prune_pct"
        assert len(lines) == 3


class TestLpRoundTrip:
    def test_export_solve_import_identical_scores(self, trained_model, tmp_path):
        run_ok(["export-lp", "--out", str(tmp_path / "x"), *DATA,
                "--model", str(trained_model), "--solve"])
        run = one_run_dir(tmp_path / "x")
        assert (run / "model.lp").exists()
        run_ok(["import-solution", "--out", str(tmp_path / "i"), *DATA,
                "--model", str(trained_model), "--solution", str(run / "model.sol")])
        imported = load_report(one_run_dir(tmp_path / "i") / "report.txt")
        run_ok(["score", "--out", str(tmp_path / "s"), *DATA, "--model", str(trained_model)])
        direct = load_report(one_run_dir(tmp_path / "s") / "report.txt")
        assert imported.scores.keys() == direct.scores.keys()
        for key in direct.scores:
            assert imported.scores[key] == pytest.approx(direct.scores[key], abs=1e-9)
        assert imported.objective == pytest.approx(direct.objective, abs=1e-9)

    def test_export_solve_writes_log(self, trained_model, tmp_path):
        run_ok(["export-lp", "--out", str(tmp_path), *DATA, "--model", str(trained_model),
                "--solve", "--log", "--epsilon", "0.1"])
        assert (one_run_dir(tmp_path) / "solver.log").read_text().strip()

    def test_log_ends_with_how_the_solve_ended(self, trained_model, tmp_path):
        # at eps 0 the warm start closes the root at the first node
        run_ok(["export-lp", "--out", str(tmp_path), *DATA, "--model", str(trained_model),
                "--solve", "--log"])
        lines = (one_run_dir(tmp_path) / "solver.log").read_text().splitlines()
        assert lines and lines[-1].startswith("end status ")


class TestUnprovenResults:
    @pytest.mark.parametrize("command", ["score", "score-classwise"])
    def test_limit_status_printed_and_warned(self, trained_model, tmp_path, capsys, command):
        run_ok([command, "--out", str(tmp_path), *DATA, "--model", str(trained_model),
                "--node-limit", "1", "--epsilon", "0.5"])
        assert load_report(one_run_dir(tmp_path) / "report.txt").status == "limit"
        out, err = capsys.readouterr()
        assert "status limit" in out
        assert "warning: solver status limit (gap " in err
        assert err.rstrip().endswith("scores are not proven optimal")

    def test_optimal_result_not_warned(self, trained_model, tmp_path, capsys):
        # at eps 0.5 the search improves on the warm start
        run_ok(["score", "--out", str(tmp_path), *DATA, "--model", str(trained_model),
                "--epsilon", "0.5"])
        out, err = capsys.readouterr()
        assert "status optimal" in out
        assert "warning" not in err

    @pytest.mark.parametrize("command, extra", [
        ("score", []),                                  # the warm start closes the root
        ("score-classwise", ["--node-limit", "0"]),     # no node is searched
    ])
    def test_scores_equal_to_the_warm_start_warned(self, trained_model, tmp_path, capsys,
                                                   command, extra):
        run_ok([command, "--out", str(tmp_path), *DATA, "--model", str(trained_model), *extra])
        report = load_report(one_run_dir(tmp_path) / "report.txt")
        assert set(report.scores.values()) == {1.0}
        _, err = capsys.readouterr()
        assert err.splitlines()[0] == ("warning: the scores equal the warm start's (every unit "
                                       "1.0); the search never improved on the unpruned network")
        assert len(err.splitlines()) == (1 if report.status == "optimal" else 2)


class TestExitCodes:
    def test_unknown_flag_usage_error(self):
        assert main(["score", "--nonsense"]) == 2

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_domain_error_exit_one(self, tmp_path):
        out = tmp_path / "out"
        assert main(["score", "--out", str(out), *DATA,
                     "--model", str(tmp_path / "missing.net")]) == 1
        assert list(out.iterdir()) == []  # the failed run leaves no directory

    @pytest.mark.parametrize("item", ["dense:abc", "avgpool:x", "conv:4x3", "dense:0", "dense:-1"])
    def test_malformed_arch_exits_one(self, tmp_path, capsys, item):
        out = tmp_path / "out"
        assert main(["train", "--out", str(out), *DATA, "--arch", item, "--epochs", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("shape", ["1xa", "2x4.5", "0x8x8", "1x-2"])
    def test_malformed_input_shape_exits_one(self, tmp_path, capsys, shape):
        out = tmp_path / "out"
        assert main(["train", "--out", str(out), *DATA, "--arch", "dense:3", "--epochs", "1",
                     "--input-shape", shape]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(shape) in err
        assert list(out.iterdir()) == []

    def test_truncated_report_exits_one(self, trained_model, tmp_path, capsys):
        run_ok(["score", "--out", str(tmp_path / "s"), *DATA, "--model", str(trained_model)])
        report = one_run_dir(tmp_path / "s") / "report.txt"
        report.write_text("\n".join(report.read_text().splitlines()[:5]) + "\n")
        capsys.readouterr()
        assert main(["prune", "--out", str(tmp_path / "p"), "--model", str(trained_model),
                     "--report", str(report), "--threshold", "0.3"]) == 1
        assert capsys.readouterr().err.startswith("error: line 5: ")

    def test_duplicate_score_line_exits_one(self, trained_model, tmp_path, capsys):
        run_ok(["score", "--out", str(tmp_path / "s"), *DATA, "--model", str(trained_model)])
        report = one_run_dir(tmp_path / "s") / "report.txt"
        lines = report.read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("0 1 "))
        lines[i] = "0 0 " + lines[i].split()[2]
        report.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["prune", "--out", str(tmp_path / "p"), "--model", str(trained_model),
                     "--report", str(report), "--threshold", "0.3"]) == 1
        assert capsys.readouterr().err.startswith("error: line ")

    def test_missing_threshold_for_masked_eval(self, trained_model, tmp_path):
        run_ok(["score", "--out", str(tmp_path / "s"), *DATA, "--model", str(trained_model)])
        report = one_run_dir(tmp_path / "s") / "report.txt"
        assert main(["evaluate", "--out", str(tmp_path / "e"), *DATA,
                     "--model", str(trained_model), "--report", str(report)]) == 1


# Each command's required flags, so that parsing can only fail on the flag under test.
REQUIRED = {
    "train": ["--data", "blobs", "--arch", "dense:2", "--epochs", "1"],
    "prune": ["--model", "m.net", "--report", "r.txt", "--threshold", "0.1"],
    "evaluate": ["--data", "blobs", "--model", "m.net"],
    "import-solution": ["--data", "blobs", "--model", "m.net", "--solution", "m.sol"],
    "score-classwise": ["--data", "blobs", "--model", "m.net"],
    "transfer": ["--arch", "dense:2", "--source", "blobs", "--target", "moons",
                 "--threshold", "0.1", "--epochs", "1"],
    "sweep-lambda": ["--data", "blobs", "--model", "m.net", "--values", "1"],
    "sweep-rescale": ["--data", "blobs", "--model", "m.net", "--values", "none"],
    "sweep-threshold": ["--data", "blobs", "--model", "m.net", "--values", "0.1"],
}
UNREAD = [
    *((command, flag) for command in ("train", "prune", "evaluate", "import-solution")
      for flag in ("--gap-tol", "--node-limit", "--time-limit")),
    ("import-solution", "--log"),
    ("score-classwise", "--per-class"),
    ("score-classwise", "--mode"),
    ("transfer", "--per-class"),
    ("sweep-lambda", "--lambda"),
    ("sweep-rescale", "--rescale"),
    ("sweep-threshold", "--threshold"),
]
FLAG_VALUES = {"--gap-tol": ["0.1"], "--node-limit": ["5"], "--time-limit": ["5"], "--log": [],
               "--per-class": ["1"], "--lambda": ["1"], "--rescale": ["none"],
               "--threshold": ["0.1"], "--mode": ["independent"]}


class TestEveryFlagIsRead:
    @pytest.mark.parametrize("command, flag", UNREAD, ids=[f"{c}{f}" for c, f in UNREAD])
    def test_flag_the_command_ignores_is_a_usage_error(self, tmp_path, capsys, command, flag):
        argv = [command, "--out", str(tmp_path), *REQUIRED[command], flag, *FLAG_VALUES[flag]]
        assert main(argv) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_evaluate_prints_run_directory(self, trained_model, tmp_path, capsys):
        run_ok(["evaluate", "--out", str(tmp_path), *DATA, "--model", str(trained_model)])
        assert capsys.readouterr().out.splitlines()[-1] == f"run directory: {one_run_dir(tmp_path)}"
