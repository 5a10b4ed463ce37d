import csv
import json

import pytest

from jumpclust.cli import main
from jumpclust.core import RunRecord
from jumpclust.metrics import (
    regret_bound_anytime,
    regret_bound_fixed,
    regret_bound_horizon,
    regret_bound_student,
)


@pytest.fixture()
def small_config_path(tmp_path):
    cfg = {
        "dim": 2,
        "max_clusters": 4,
        "radius": 12.0,
        "schedule": {"kind": "default"},
        "chain_length": 30,
        "seed": 17,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRun:
    def test_smoke_and_outputs(self, small_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["run", "--config", small_config_path, "--synthetic", "sine_drift",
             "--horizon", "12", "--out", str(out)]
        )
        assert code == 0
        records = (out / "records.jsonl").read_text().strip().splitlines()
        assert len(records) == 14  # header + 12 steps + final
        rows = read_csv(out / "summary.csv")
        assert rows[0] == ["t", "k", "loss", "cum_loss", "k_true"]
        assert len(rows) == 13

    def test_determinism_same_bytes(self, small_config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(
                ["run", "--config", small_config_path, "--synthetic", "sine_drift",
                 "--horizon", "8", "--out", str(out)]
            ) == 0
        assert (out1 / "records.jsonl").read_bytes() == (out2 / "records.jsonl").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_missing_config_no_partial_output(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(tmp_path / "absent.json"), "--synthetic", "sine_drift",
             "--out", str(out)]
        )
        assert code == 2
        assert not (out / "records.jsonl").exists()
        assert not (out / "summary.csv").exists()

    def test_refuses_overwrite(self, small_config_path, tmp_path):
        out = tmp_path / "out"
        args = ["run", "--config", small_config_path, "--synthetic", "sine_drift",
                "--horizon", "4", "--out", str(out)]
        assert main(args) == 0
        assert main(args) == 2
        assert main(args + ["--overwrite"]) == 0

    def test_runs_from_csv_data(self, small_config_path, tmp_path):
        data = tmp_path / "data.csv"
        assert main(["generate", "--horizon", "6", "--seed", "3", "--out", str(data)]) == 0
        out = tmp_path / "out"
        assert main(["run", "--config", small_config_path, "--data", str(data),
                     "--out", str(out)]) == 0
        assert len(read_csv(out / "summary.csv")) == 7

    def test_trace_step_round_trips_through_records(self, small_config_path, tmp_path):
        out = tmp_path / "out"
        assert main(
            ["run", "--config", small_config_path, "--synthetic", "sine_drift",
             "--horizon", "5", "--trace-step", "2", "--out", str(out)]
        ) == 0
        lines = (out / "records.jsonl").read_text().strip().splitlines()
        record = RunRecord.from_json_lines(lines)
        assert record.steps[1].trace is not None and len(record.steps[1].trace) == 30
        assert record.steps[0].trace is None
        assert record.to_json_lines() == lines

    def test_seed_override_changes_run(self, small_config_path, tmp_path):
        outs = []
        for seed in (17, 18):  # 17 is the config's own seed
            out = tmp_path / f"s{seed}"
            assert main(
                ["run", "--config", small_config_path, "--synthetic", "sine_drift",
                 "--horizon", "4", "--seed", str(seed), "--out", str(out)]
            ) == 0
            outs.append((out / "records.jsonl").read_text())
        base = tmp_path / "base"
        assert main(
            ["run", "--config", small_config_path, "--synthetic", "sine_drift",
             "--horizon", "4", "--out", str(base)]
        ) == 0
        assert outs[0] == (base / "records.jsonl").read_text()
        assert outs[0] != outs[1]

    def test_radius_auto(self, small_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(
            ["run", "--config", small_config_path, "--synthetic", "sine_drift",
             "--horizon", "4", "--radius-auto", "--out", str(out)]
        ) == 0
        assert (out / "records.jsonl").exists()

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config"])  # missing value
        assert exc.value.code == 1


class TestReplicate:
    def test_single_repetition(self, tmp_path):
        out = tmp_path / "rep"
        code = main(
            ["replicate", "--reps", "1", "--horizon", "10", "--chain-length", "25",
             "--regret-every", "5", "--ocl-restarts", "5", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "correct_k.csv")
        assert rows[0] == ["rep", "seed", "correct_k", "correct_k_updated"]
        assert len(rows) == 2
        stats = json.loads((out / "replicate_stats.json").read_text())
        assert stats["reps"] == 1 and stats["std"] is None
        regret = read_csv(out / "regret.csv")
        assert regret[0] == list(("t", "ecl", "ocl", "regret", "bound_adaptive", "k_true", "k_mode"))
        assert [r[0] for r in regret[1:]] == ["5", "10"]

    def test_caveat_printed(self, tmp_path, capsys):
        out = tmp_path / "rep"
        main(["replicate", "--reps", "1", "--horizon", "6", "--chain-length", "10",
              "--regret-every", "6", "--ocl-restarts", "3", "--out", str(out)])
        captured = capsys.readouterr()
        assert "upper approximation" in captured.out


class TestTrace:
    def test_trace_rows_and_ranges(self, small_config_path, tmp_path):
        out = tmp_path / "tr"
        code = main(
            ["trace", "--config", small_config_path, "--synthetic", "sine_drift",
             "--horizon", "6", "--step", "4", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "trace_t4.csv")
        assert rows[0] == ["t", "n", "k_current", "k_proposed", "alpha", "accepted"]
        body = rows[1:]
        assert len(body) == 30  # chain_length
        assert all(0.0 <= float(r[4]) <= 1.0 for r in body)
        assert all(1 <= int(r[2]) <= 4 for r in body)
        assert all(r[0] == "4" for r in body)

    def test_step_beyond_stream(self, small_config_path, tmp_path):
        code = main(
            ["trace", "--config", small_config_path, "--synthetic", "sine_drift",
             "--horizon", "6", "--step", "9", "--out", str(tmp_path / "tr")]
        )
        assert code == 2


class TestBounds:
    ARGS = ["bounds", "--k", "10", "--horizon", "200", "--dim", "2", "--radius", "15",
            "--eta", "0.0", "--max-clusters", "20", "--lam", "0.2", "--prior-scale", "1.0"]

    def test_json_matches_library(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["anytime"]["value"] == regret_bound_anytime(10, 200, 2, 15.0, 0.0, 20)
        assert out["horizon"]["value"] == regret_bound_horizon(10, 200, 2, 15.0, 0.0, 20)
        assert out["fixed"]["value"] == regret_bound_fixed(10, 200, 2, 15.0, 0.2, 0.0, 20)
        assert out["student"]["value"] == regret_bound_student(
            10, 200, 2, 15.0, 1.0, 0.0, 20, [15.0] * 10
        )

    def test_invalid_lambda_isolated(self, capsys):
        args = [a for a in self.ARGS]
        args[args.index("--lam") + 1] = "1e-9"
        assert main(args + ["--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "error" in out["fixed"]
        assert "value" in out["anytime"] and "value" in out["student"]

    def test_json_round_trips(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        text = capsys.readouterr().out
        assert json.loads(json.dumps(json.loads(text))) == json.loads(text)


class TestGenerate:
    def test_stdout_csv(self, capsys):
        assert main(["generate", "--horizon", "5", "--seed", "9"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
        assert rows[0] == ["t", "x1", "x2", "k_true"]
        assert len(rows) == 6

    def test_deterministic(self, capsys):
        main(["generate", "--horizon", "5", "--seed", "9"])
        first = capsys.readouterr().out
        main(["generate", "--horizon", "5", "--seed", "9"])
        assert capsys.readouterr().out == first


class TestOracleCheck:
    def test_refuses_large_instances(self, capsys):
        assert main(["oracle-check", "--max-clusters", "5"]) == 1

    def test_prior_only_quick(self, capsys):
        code = main(
            ["oracle-check", "--prior-only", "--max-clusters", "2", "--eta", "0.0",
             "--iters", "40000", "--burn-in", "1000", "--resolution", "150"]
        )
        out = capsys.readouterr().out
        assert "total variation" in out
        assert code == 0
