import argparse
import csv
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import jumpclust
from jumpclust import cli
from jumpclust.cli import build_parser, main
from jumpclust.core import RunRecord
from jumpclust.metrics import (
    regret_bound_anytime,
    regret_bound_fixed,
    regret_bound_horizon,
    regret_bound_student,
)
from jumpclust.posterior import grid_oracle


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


def exit_code(argv):
    """Exit status of ``jumpclust argv``: argparse usage errors raise SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_runs_leave_scipy_unloaded():
    script = (
        "import sys\n"
        "import jumpclust.cli\n"
        "from jumpclust.core import StreamConfig\n"
        "from jumpclust.online import TemperatureSchedule, run_stream\n"
        "xs = [[0.5, -1.0], [2.0, 0.25], [-1.5, 1.0]]\n"
        "for prior in ('uniform', 'student'):\n"
        "    cfg = StreamConfig(dim=2, max_clusters=3, radius=5.0, prior_kind=prior,\n"
        "                       schedule=TemperatureSchedule.inverse_sqrt(), chain_length=20)\n"
        "    assert len(run_stream(xs, cfg).steps) == 3\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(jumpclust.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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

    def test_csv_takes_only_numbered_x_columns(self, small_config_path, tmp_path):
        data = tmp_path / "data.csv"
        assert main(["generate", "--horizon", "6", "--seed", "3", "--out", str(data)]) == 0
        rows = read_csv(data)
        labelled = tmp_path / "labelled.csv"
        with open(labelled, "w", newline="") as fh:
            csv.writer(fh).writerows(
                [["xlabel"] + rows[0]] + [[f"obs{i}"] + row for i, row in enumerate(rows[1:])]
            )
        outs = tmp_path / "a", tmp_path / "b"
        for src, out in zip((data, labelled), outs):
            assert main(["run", "--config", small_config_path, "--data", str(src),
                         "--out", str(out)]) == 0
        a, b = ((out / "records.jsonl").read_bytes() for out in outs)
        assert a == b

    def test_trace_step_round_trips_through_records(self, small_config_path, tmp_path):
        out = tmp_path / "out"
        assert main(
            ["run", "--config", small_config_path, "--synthetic", "sine_drift",
             "--horizon", "5", "--trace-step", "2", "--out", str(out)]
        ) == 0
        lines = (out / "records.jsonl").read_text().strip().splitlines()
        record = RunRecord.from_json_lines(lines)
        trace = record.steps[1].trace
        assert trace is not None and len(trace) == 30  # chain_length
        assert all(0.0 <= a <= 1.0 for a in trace.alpha)
        assert all(1 <= k <= 4 for k in trace.k_current)
        assert record.steps[0].trace is None
        assert record.to_json_lines() == lines

    def test_trace_step_beyond_stream_refused_before_sampling(
        self, small_config_path, tmp_path, monkeypatch, capsys
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("the stream ran before --trace-step was checked")

        monkeypatch.setattr(cli, "run_stream", no_run)
        out = tmp_path / "out"
        code = main(["run", "--config", small_config_path, "--synthetic", "sine_drift",
                     "--horizon", "4", "--trace-step", "2", "--trace-step", "9", "--out", str(out)])
        assert code == 2
        assert "--trace-step 9 outside the stream (length 4)" in capsys.readouterr().err
        assert not out.exists()

    def test_summary_cum_loss_is_running_sum_of_losses(self, small_config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", small_config_path, "--synthetic", "sine_drift",
                     "--horizon", "6", "--out", str(out)]) == 0
        rows = read_csv(out / "summary.csv")[1:]
        record = RunRecord.from_json_lines((out / "records.jsonl").read_text().splitlines())
        assert [r[0] for r in rows] == ["1", "2", "3", "4", "5", "6"]
        assert [float(r[3]) for r in rows] == record.cumulative_losses().tolist()
        assert [int(r[1]) for r in rows] == record.k_sequence().tolist()

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

    def test_radius_auto_gives_the_schedule_the_new_radius(self, tmp_path):
        path = tmp_path / "horizon.json"
        cfg = {"dim": 2, "max_clusters": 4, "radius": 12.0, "chain_length": 30,
               "schedule": {"kind": "horizon", "horizon": 4, "radius": 12.0}}
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--synthetic", "sine_drift",
                     "--horizon", "4", "--radius-auto", "--out", str(tmp_path / "out")]) == 0

    def test_header_only_csv_writes_a_zero_step_record(self, small_config_path, tmp_path):
        data = tmp_path / "header.csv"
        data.write_text("t,x1,x2\n")
        out = tmp_path / "out"
        assert main(["run", "--config", small_config_path, "--data", str(data),
                     "--out", str(out)]) == 0
        record = RunRecord.from_json_lines((out / "records.jsonl").read_text().splitlines())
        assert record.horizon == 0
        assert read_csv(out / "summary.csv") == [["t", "k", "loss", "cum_loss"]]

    @pytest.mark.parametrize("rows", ["", "1,0.5\n"], ids=["header-only", "one-row"])
    def test_data_dimension_other_than_the_config_is_refused_before_output(
        self, small_config_path, tmp_path, capsys, rows
    ):
        data = tmp_path / "d1.csv"
        data.write_text("t,x1\n" + rows)
        out = tmp_path / "out"
        assert main(["run", "--config", small_config_path, "--data", str(data),
                     "--out", str(out)]) == 2
        assert "observation has dimension 1, expected 2" in capsys.readouterr().err
        assert not out.exists()

    def test_radius_auto_on_an_empty_stream_is_refused(self, small_config_path, tmp_path, capsys):
        data = tmp_path / "header.csv"
        data.write_text("t,x1,x2\n")
        out = tmp_path / "out"
        assert main(["run", "--config", small_config_path, "--data", str(data),
                     "--radius-auto", "--out", str(out)]) == 2
        assert "--radius-auto needs at least one observation" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_blank_lines_skipped_and_short_rows_named(self, small_config_path, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert main(["generate", "--horizon", "6", "--seed", "3", "--out", str(data)]) == 0
        lines = data.read_text().splitlines()
        blank = tmp_path / "blank.csv"
        blank.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n\n")
        short = tmp_path / "short.csv"
        short.write_text("\n".join(lines[:4] + [lines[4].rsplit(",", 1)[0]] + lines[5:]) + "\n")
        wide = tmp_path / "wide.csv"  # a field the header does not name is not dropped
        wide.write_text("\n".join(lines[:2] + [lines[2] + ",0.1"] + lines[3:]) + "\n")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        codes = {}
        for src in (data, blank, short, wide, empty):
            out = tmp_path / f"out-{src.stem}"
            codes[src.stem] = main(
                ["run", "--config", small_config_path, "--data", str(src), "--out", str(out)]
            )
        assert codes == {"data": 0, "blank": 0, "short": 2, "wide": 2, "empty": 2}
        err = capsys.readouterr().err
        assert "short.csv: line 5 has 3 fields, the header has 4" in err
        assert "wide.csv: line 3 has 5 fields, the header has 4" in err
        assert not (tmp_path / "out-short").exists() and not (tmp_path / "out-wide").exists()
        assert "no coordinate columns" in err
        plain, skipped = tmp_path / "out-data", tmp_path / "out-blank"
        written = sorted(f.name for f in plain.iterdir())
        assert written == sorted(f.name for f in skipped.iterdir())
        for name in written:
            assert (skipped / name).read_bytes() == (plain / name).read_bytes()

    @pytest.mark.parametrize("header, bad_row, message", [
        ("t,x1,x2", "2,nan,0.2", "line 3: x1 is 'nan', not a finite number"),
        ("t,x1,x2", "2,0.1,inf", "line 3: x2 is 'inf', not a finite number"),
        ("t,x1,x2", "2,-inf,0.2", "line 3: x1 is '-inf', not a finite number"),
        ("t,x1,x2", "2,abc,0.2", "line 3: x1 is 'abc', not a number"),
        ("t,x1,x2,k_true", "2,0.1,0.2,x", "line 3: k_true is 'x', not an integer"),
    ], ids=["nan", "inf", "-inf", "abc", "k_true"])
    def test_bad_cell_is_refused_with_its_line_before_output(
        self, small_config_path, tmp_path, capsys, header, bad_row, message
    ):
        good_row = "1,0.5,0.1" + ",1" * header.endswith("k_true")
        data = tmp_path / "bad.csv"
        data.write_text(f"{header}\n{good_row}\n{bad_row}\n{good_row}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", small_config_path, "--data", str(data),
                     "--out", str(out)]) == 2
        assert f"bad.csv: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_kmeans_block_is_ignored_with_a_warning(self, small_config_path, tmp_path):
        old = tmp_path / "old.json"
        kmeans = {"restarts": 1, "max_iter": 2, "tol": 0.5}
        with open(small_config_path) as fh:
            old.write_text(json.dumps({**json.load(fh), "kmeans": kmeans}))
        outs = tmp_path / "new", tmp_path / "old"
        assert main(["run", "--config", small_config_path, "--synthetic", "sine_drift",
                     "--horizon", "8", "--out", str(outs[0])]) == 0
        with pytest.warns(UserWarning, match="config field 'kmeans' is no longer used"):
            assert main(["run", "--config", str(old), "--synthetic", "sine_drift",
                         "--horizon", "8", "--out", str(outs[1])]) == 0
        a, b = ((out / "records.jsonl").read_bytes() for out in outs)
        assert a == b

    def test_malformed_config_is_reported(self, tmp_path, capsys):
        bad_fields = ({"schedule": "anytime"}, {"schedule": {"kind": "horizon", "horizon": 2.5}},
                      {"schedule": {"x": 1}}, {"schedule": {"kind": "anytime", "radius": -1.0}},
                      {"radius": 1e-200}, {"radius": 1e200},
                      {"radius": 1e-200, "schedule": {"kind": "anytime"}},
                      {"radius": 1e200, "schedule": {"kind": "fixed", "value": 1.0}},
                      {"radius": 1e-200, "schedule": {"kind": "inverse_sqrt"}})
        for bad in bad_fields:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({"dim": 2, "max_clusters": 4, "radius": 12.0, **bad}))
            out = tmp_path / "out"
            assert main(["run", "--config", str(path), "--synthetic", "sine_drift",
                         "--horizon", "3", "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("jumpclust: ")
            assert not out.exists()

    def test_nan_decay_is_reported_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"dim": 2, "max_clusters": 4, "radius": 12.0, "decay": NaN}')
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--synthetic", "sine_drift",
                     "--horizon", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("jumpclust: ") and "decay" in err
        assert not out.exists()

    def test_stray_schedule_field_is_reported(self, tmp_path, capsys):
        path = tmp_path / "stray.json"
        schedule = {"kind": "anytime", "value": 3.0, "values": [9.0]}
        cfg = {"dim": 2, "max_clusters": 4, "radius": 12.0, "schedule": schedule}
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--synthetic", "sine_drift",
                     "--horizon", "3", "--out", str(out)]) == 2
        assert "anytime schedule does not read field 'value'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "schedule, message",
        [({"kind": "custom", "values": [1.0, 0.9, 0.8]}, "custom schedule has no entry for t=8"),
         ({"kind": "horizon", "horizon": 5}, "t=8 exceeds the declared horizon 5")],
        ids=["custom", "horizon"],
    )
    def test_schedule_shorter_than_the_stream_is_refused_before_sampling(
        self, schedule, message, tmp_path, monkeypatch, capsys
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("the stream ran before the schedule was checked")

        monkeypatch.setattr(cli, "run_stream", no_run)
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"dim": 2, "max_clusters": 4, "radius": 12.0,
                                    "chain_length": 10, "schedule": schedule}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--synthetic", "sine_drift",
                     "--horizon", "8", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_schedule_as_long_as_the_stream_runs(self, tmp_path):
        path = tmp_path / "exact.json"
        schedule = {"kind": "custom", "values": [1.0, 0.9, 0.8, 0.7]}
        path.write_text(json.dumps({"dim": 2, "max_clusters": 4, "radius": 12.0,
                                    "chain_length": 10, "schedule": schedule}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--synthetic", "sine_drift",
                     "--horizon", "3", "--out", str(out)]) == 0
        assert len(read_csv(out / "summary.csv")) == 4

    def test_seed_outside_64_bits_in_the_config_is_refused_before_output(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        path.write_text('{"dim": 2, "max_clusters": 4, "radius": 12.0, "seed": -1}')
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--synthetic", "sine_drift",
                     "--horizon", "3", "--out", str(out)]) == 2
        assert "seed must be an integer in [0, 2**64), got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config"])  # missing value
        assert exc.value.code == 1

    def test_trace_is_not_a_command(self, small_config_path, tmp_path, capsys):
        # a step's trace comes from run --trace-step, stored in records.jsonl
        assert exit_code(["trace", "--config", small_config_path, "--synthetic", "sine_drift",
                          "--step", "2", "--out", str(tmp_path / "tr")]) == 1
        assert "invalid choice: 'trace'" in capsys.readouterr().err
        assert not (tmp_path / "tr").exists()


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

    def test_radius_whose_fourth_power_underflows_is_an_error_for_each_bound(self, capsys):
        args = self.ARGS[:]
        args[args.index("--radius") + 1] = "1e-200"
        assert main(args + ["--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert all("fourth power is positive and finite" in res["error"] for res in out.values())

    USAGE_CASES = {
        "k-0": (["--k", "0"], "--k: must be >= 1"),
        "horizon-0": (["--horizon", "0"], "--horizon: must be >= 1"),
        "dim-0": (["--dim", "0"], "--dim: must be >= 1"),
        "max-clusters-0": (["--max-clusters", "0"], "--max-clusters: must be >= 1"),
        "radius-nan": (["--radius", "nan"], "--radius: must be > 0 and finite"),
        "radius-0": (["--radius", "0"], "--radius: must be > 0 and finite"),
        "eta-negative": (["--eta", "-1"], "--eta: must be >= 0 and finite"),
        "lam-0": (["--lam", "0"], "--lam: must be > 0 and finite"),
        "prior-scale-inf": (["--prior-scale", "inf"], "--prior-scale: must be > 0 and finite"),
        "k-above-max-clusters": (["--k", "21"], "--k 21 exceeds --max-clusters 20"),
        "norm-count": (["--k", "3", "--center-norms", "1,2"], "gives 2 norms, --k 3 centers"),
        "norm-not-a-number": (["--k", "2", "--center-norms", "1,x"], "invalid float value: 'x'"),
        "norm-nan": (["--k", "2", "--center-norms", "1,nan"], "must be >= 0 and finite"),
    }

    @pytest.mark.parametrize("case", sorted(USAGE_CASES))
    def test_usage_errors_exit_1_before_any_bound(self, case, capsys):
        flags, message = self.USAGE_CASES[case]
        assert exit_code(self.ARGS + flags) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_center_norms_reach_the_student_bound(self, capsys):
        args = self.ARGS[:]
        args[args.index("--k") + 1] = "2"
        assert main(args + ["--center-norms", "3,4.5", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["student"]["value"] == regret_bound_student(
            2, 200, 2, 15.0, 1.0, 0.0, 20, [3.0, 4.5]
        )

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
    # SHA-1 of the masses' bytes, recorded before the oracle's distance and
    # enumeration kernels were rewritten to give the same bytes faster
    @pytest.mark.parametrize("flags, digest", [
        (["--dim", "1", "--resolution", "150"], "f0a0bddeb9d6f1a5833fba1ac6f766bc06beddec"),
        (["--dim", "1", "--resolution", "150", "--prior-only"],
         "c30cc4869b2b833aaccc3b4c91229022a5a11a47"),
        (["--dim", "2", "--max-clusters", "2", "--resolution", "30"],
         "b3da0267219259029892fd504196fbceae0a0cea"),
    ])
    def test_golden_oracle_masses(self, flags, digest):
        args = build_parser().parse_args(["oracle-check", *flags])
        masses = grid_oracle(cli._toy_target(args), args.resolution)
        assert hashlib.sha1(masses.tobytes()).hexdigest() == digest

    def test_refuses_large_instances(self, capsys):
        assert exit_code(["oracle-check", "--max-clusters", "5"]) == 1
        assert exit_code(["oracle-check", "--dim", "3"]) == 1

    @pytest.mark.parametrize(
        "iters, burn_in", [("100", "100"), ("100", "250"), ("100", "-1"), ("0", "0")]
    )
    def test_rejects_burn_in_outside_iters(self, iters, burn_in, capsys):
        assert exit_code(["oracle-check", "--iters", iters, "--burn-in", burn_in]) == 1
        captured = capsys.readouterr()
        assert ("--iters" if iters == "0" else "--burn-in") in captured.err
        assert "total variation" not in captured.out

    @pytest.mark.parametrize("flags", [["--dim", "2"], ["--dim", "1", "--resolution", "3000"]])
    def test_oversized_grid_refused_before_sampling(self, flags, monkeypatch, capsys):
        def no_chain(*args, **kwargs):
            raise AssertionError("the chain ran before the grid size was checked")

        monkeypatch.setattr(cli, "run_chain", no_chain)
        assert exit_code(["oracle-check", *flags]) == 1
        captured = capsys.readouterr()
        assert "grid would need" in captured.err
        assert "total variation" not in captured.out

    def test_prior_only_refuses_lam_before_sampling(self, monkeypatch, capsys):
        def no_chain(*args, **kwargs):
            raise AssertionError("the chain ran before --lam was checked")

        monkeypatch.setattr(cli, "run_chain", no_chain)
        assert exit_code(["oracle-check", "--prior-only", "--lam", "5"]) == 1
        captured = capsys.readouterr()
        assert "--lam does not apply with --prior-only" in captured.err
        assert "total variation" not in captured.out

    def test_prior_only_quick(self, capsys):
        code = main(
            ["oracle-check", "--prior-only", "--max-clusters", "2", "--eta", "0.0",
             "--iters", "40000", "--burn-in", "1000", "--resolution", "150"]
        )
        out = capsys.readouterr().out
        assert "total variation" in out
        assert code == 0


class TestRangesAtParseTime:
    """An out-of-range integer or float flag is a usage error (exit 1) before any work."""

    REPLICATE = ["replicate", "--reps", "1", "--horizon", "3", "--chain-length", "5",
                 "--ocl-restarts", "2", "--out", "OUT"]
    ORACLE = ["oracle-check", "--iters", "2000", "--burn-in", "0"]
    STREAM = ["--config", "CFG", "--synthetic", "sine_drift", "--horizon", "3", "--out", "OUT"]
    CASES = {
        "replicate-regret-every": REPLICATE + ["--regret-every", "0"],
        "replicate-ocl-restarts": REPLICATE + ["--ocl-restarts", "0"],
        "replicate-reps": REPLICATE + ["--reps", "0"],
        "replicate-chain-length": REPLICATE + ["--chain-length", "0"],
        "oracle-resolution-1": ORACLE + ["--resolution", "1"],
        "oracle-resolution-0": ORACLE + ["--resolution", "0"],
        "oracle-seed": ORACLE + ["--seed", "-1"],
        "run-horizon": ["run"] + STREAM + ["--horizon", "0"],
        "run-rep": ["run"] + STREAM + ["--rep", "-1"],
        "run-trace-step": ["run"] + STREAM + ["--trace-step", "0"],
        "generate-horizon": ["generate", "--horizon", "0", "--out", "OUT/stream.csv"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_1_before_any_work(self, case, small_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [
            a.replace("OUT", str(out)).replace("CFG", small_config_path) for a in self.CASES[case]
        ]
        assert exit_code(argv) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert "must be >=" in captured.err
        assert "total variation" not in captured.out

    FLOAT_CASES = {
        "oracle-radius-0": (["--radius", "0"], "--radius: must be > 0 and finite"),
        "oracle-radius-negative": (["--radius", "-1"], "--radius: must be > 0 and finite"),
        "oracle-radius-nan": (["--radius", "nan"], "--radius: must be > 0 and finite"),
        "oracle-radius-inf": (["--radius", "inf"], "--radius: must be > 0 and finite"),
        "oracle-radius-square-underflows": (
            ["--radius", "1e-200"], "--radius: oracle-check needs a finite radius > 0 whose square"),
        "oracle-radius-square-overflows": (
            ["--radius", "1e200"], "--radius: oracle-check needs a finite radius > 0 whose square"),
        "oracle-eta-negative": (["--eta", "-0.1"], "--eta: must be >= 0 and finite"),
        "oracle-eta-nan": (["--eta", "nan"], "--eta: must be >= 0 and finite"),
        "oracle-lam-negative": (["--lam", "-2"], "--lam: must be >= 0 and finite"),
        "oracle-lam-nan": (["--lam", "NaN"], "--lam: must be >= 0 and finite"),
        "oracle-tv-limit-negative": (["--tv-limit", "-1"], "--tv-limit: must be in (0, 1]"),
        "oracle-tv-limit-0": (["--tv-limit", "0"], "--tv-limit: must be in (0, 1]"),
        "oracle-tv-limit-above-1": (["--tv-limit", "1.5"], "--tv-limit: must be in (0, 1]"),
        "oracle-tv-limit-nan": (["--tv-limit", "nan"], "--tv-limit: must be in (0, 1]"),
    }

    @pytest.mark.parametrize("case", sorted(FLOAT_CASES))
    def test_float_flag_exits_1_before_any_work(self, case, capsys):
        flag, message = self.FLOAT_CASES[case]
        assert exit_code(self.ORACLE + flag) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "total variation" not in captured.out

    SEED_CASES = {
        "generate-seed": ["generate", "--out", "OUT/stream.csv", "--seed"],
        "oracle-seed": ORACLE + ["--seed"],
        "replicate-seed": REPLICATE + ["--seed"],
        "run-seed": ["run"] + STREAM + ["--seed"],
        "run-data-seed": ["run"] + STREAM + ["--data-seed"],
    }

    @pytest.mark.parametrize("seed", [str(2**64), "9" * 400], ids=["2**64", "400-digits"])
    @pytest.mark.parametrize("case", sorted(SEED_CASES))
    def test_seed_past_64_bits_exits_1(self, case, seed, small_config_path, tmp_path, capsys):
        # masked to 64 bits, seed 2**64 would replay seed 0's streams
        out = tmp_path / "out"
        argv = [a.replace("OUT", str(out)).replace("CFG", small_config_path)
                for a in self.SEED_CASES[case]]
        assert exit_code(argv + [seed]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert f"seed must be an integer in [0, 2**64), got {int(seed)}" in captured.err
        assert "Traceback" not in captured.err

    def test_largest_seed_is_accepted(self):
        args = build_parser().parse_args(self.ORACLE + ["--seed", str(2**64 - 1)])
        assert args.seed == 2**64 - 1

    def test_float_flag_bounds_are_accepted(self):
        parser = build_parser()
        args = parser.parse_args(
            self.ORACLE + ["--radius", "1e-3", "--eta", "0", "--lam", "0", "--tv-limit", "1"]
        )
        assert (args.radius, args.eta, args.lam, args.tv_limit) == (1e-3, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("radius", ["1e77", "1e150"])
    def test_radius_whose_toy_score_overflows_is_a_usage_error(self, radius, capsys):
        assert exit_code(self.ORACLE + ["--radius", radius, "--resolution", "5"]) == 1
        captured = capsys.readouterr()
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            "jumpclust oracle-check: error: argument --radius: the toy score overflows at "
            f"radius {radius}: its largest variance term "
            "((2R + max|x|)^2 - ref)^2 * lambda_0 is not a finite float"
        ]
        assert "Traceback" not in captured.err
        assert "total variation" not in captured.out

    @staticmethod
    def largest_accepted_radius():
        """The largest float ``--radius`` parses to, by bisection on the bit
        patterns of positive floats (ordered as the floats are)."""
        def as_float(bits):
            return struct.unpack("<d", struct.pack("<q", bits))[0]

        def accepted(bits):
            try:
                cli._radius(repr(as_float(bits)))
            except argparse.ArgumentTypeError:
                return False
            return True

        lo, hi = (struct.unpack("<q", struct.pack("<d", r))[0] for r in (1.0, 1e150))
        assert accepted(lo) and not accepted(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        return as_float(lo)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dim_args", [["--dim", "1"], ["--dim", "2", "--max-clusters", "2"]])
    def test_largest_accepted_radius_runs_without_overflow(self, dim_args, capsys):
        radius = self.largest_accepted_radius()
        assert 1e76 < radius < 1e77
        argv = ["oracle-check", "--radius", repr(radius), "--iters", "100", "--burn-in", "0",
                "--resolution", "5"] + dim_args
        assert exit_code(argv) in (0, 2)  # a verdict either way: 100 moves decide nothing
        assert "total variation" in capsys.readouterr().out
