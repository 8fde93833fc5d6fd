"""Command-line driver: files, exit codes, and output formats."""

import json
from pathlib import Path

import pytest

from conftest import CONFIG_DIR
from spikeopt import cli
from spikeopt.runtime import RunAbort, RunConfig


def write_config(tmp_path: Path, **overrides) -> Path:
    data = json.loads((CONFIG_DIR / "smoke.json").read_text())
    data.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


class TestRunCommand:
    def test_smoke_run_writes_all_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()
        assert (out / "spikes.csv").exists()
        assert (out / "summary.json").exists()

    def test_trace_row_count(self, tmp_path):
        cfg = write_config(tmp_path, budget=12)
        out = tmp_path / "out"
        cli.main(["run", "--config", str(cfg), "--out", str(out)])
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 12 + 1  # header + steps 0..budget

    def test_deterministic_runs_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, budget=40)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", str(cfg), "--out", str(out1)])
        cli.main(["run", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "spikes.csv").read_bytes() == (out2 / "spikes.csv").read_bytes()

    def test_seed_flag_changes_trace(self, tmp_path):
        cfg = write_config(tmp_path, budget=30)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", str(cfg), "--out", str(out1), "--seed", "1"])
        cli.main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "2"])
        assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()

    def test_summary_round_trips_to_config(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        rebuilt = RunConfig.from_dict(summary["config"])
        original = RunConfig.from_dict(json.loads(cfg_path.read_text()))
        assert rebuilt == original

    def test_async_mode_flag(self, tmp_path):
        cfg = write_config(tmp_path, budget=15)
        out = tmp_path / "out"
        code = cli.main(
            ["run", "--config", str(cfg), "--out", str(out), "--mode", "async",
             "--timeout", "60"]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "async"


class TestExitCodes:
    def test_missing_file_is_config_error(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["run", "--config", str(bad)]) == 2

    def test_bad_field_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, mode="warp")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": -1},
            {"seed": "abc"},
            {"n": 4.9},
            {"budget": True},
            {"problm": {"name": "rastrigin"}},
            {"unit": {"dynamics": {"dt": float("nan")}}},
            {"unit": {"transform": {"alpha": float("inf")}}},
            {"unit": {"transform": {"weights": [0.2, 0.3, 0.5]}}},
            {"topology": {"spike": "ring", "info": "random_m", "m": None}},
            {
                "unit": {
                    "transform": {
                        "xref": "self_global_neighbour_average",
                        "weights": [0.25, 0.25, 0.25, 0.25],
                    }
                }
            },
        ],
    )
    def test_malformed_config_is_one_line_exit_two(self, tmp_path, capsys, overrides):
        data = json.loads((CONFIG_DIR / "smoke.json").read_text())
        for key, value in overrides.items():
            if key == "unit":
                for section, fields in value.items():
                    data["unit"][section].update(fields)
            else:
                data[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_runtime_abort_is_exit_three(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)

        def exploding_run(config, timeout_s=None):
            raise RunAbort("core melted")

        monkeypatch.setattr(cli, "run", exploding_run)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


class TestPowerCommand:
    def test_worst_case_print(self, capsys):
        assert cli.main(["power", "--n", "90", "--d", "40", "--m", "89", "--dt-ms", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "N_syn = 28515600" in out
        assert "1.3460 W" in out
        assert "0.6730 mJ" in out

    def test_small_configuration_print(self, capsys):
        cli.main(["power", "--n", "30", "--d", "2", "--m", "10", "--dt-ms", "0.5"])
        out = capsys.readouterr().out
        assert "N_syn = 17400" in out


class TestSweepCommand:
    def test_tiny_sweep(self, tmp_path):
        base = json.loads((CONFIG_DIR / "smoke.json").read_text())
        base["budget"] = 8
        spec = {"base": base, "sweep": {"problem.name": ["sphere", "rastrigin"], "seed": [1, 2]}}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(spec))
        out = tmp_path / "runs"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        index = json.loads((out / "index.json").read_text())
        assert len(index) == 4
        for entry in index:
            assert (out / entry["dir"] / "summary.json").exists()

    def test_sweep_without_grid_is_config_error(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"base": {}}))
        assert cli.main(["sweep", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"outdir": "elsewhere"},  # unknown key
            {"sweep": {"seed": 5}},  # not a list
            {"sweep": {"seed": []}},  # empty list
            {"sweep": {"seed": [1, -1]}},  # the second combination is malformed
            {"sweep": {"n.x": [1]}},  # path through a number
        ],
    )
    def test_malformed_sweep_file_is_exit_two(self, tmp_path, capsys, overrides):
        base = json.loads((CONFIG_DIR / "smoke.json").read_text())
        base["budget"] = 2
        spec = {"base": base, "sweep": {"seed": [1]}, **overrides}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(spec))
        out = tmp_path / "runs"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not out.exists()  # no run started


class TestScaleCommand:
    def test_tiny_grid(self, tmp_path):
        base = json.loads((CONFIG_DIR / "smoke.json").read_text())
        spec = {"base": base, "grid": {"n": [4, 6], "d": [2]}, "budget": 5, "repeats": 2}
        cfg = tmp_path / "scale.json"
        cfg.write_text(json.dumps(spec))
        out = tmp_path / "scale"
        assert cli.main(["scale", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "scaling.csv").read_text().strip().splitlines()
        assert lines[0] == "n,d,mean_ms,std_ms,cv"
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            {"repeats": "x"},
            {"repeats": 0},
            {"budget": 2.5},
            {"budget": True},
            {"seed": 3},  # unknown key
            {"grid": {"n": 4, "d": [2]}},  # not a list
            {"grid": {"n": [4, 6], "d": [2], "m": [3]}},  # unknown grid key
        ],
    )
    def test_malformed_scale_file_is_exit_two(self, tmp_path, capsys, overrides):
        base = json.loads((CONFIG_DIR / "smoke.json").read_text())
        spec = {"base": base, "grid": {"n": [4, 6], "d": [2]}, "budget": 2, "repeats": 1}
        spec.update(overrides)
        cfg = tmp_path / "scale.json"
        cfg.write_text(json.dumps(spec))
        out = tmp_path / "scale"
        assert cli.main(["scale", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not out.exists()
