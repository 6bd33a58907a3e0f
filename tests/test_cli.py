"""End-to-end command-line workflow in a temporary directory."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from xmpc import testbed
from xmpc.cli import main


@pytest.fixture(scope="session")
def cli_workspace(tmp_path_factory):
    """excite -> train fx/fy -> run, shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    csv = root / "data.csv"
    assert main(["excite", "--days", "4", "--seed", "3", "--out", str(csv)]) == 0
    for target in ("fx", "fy"):
        rc = main([
            "train", "--data", str(csv), "--target", target,
            "--epochs", "150", "--seed", "0", "--out", str(root / f"{target}.json"),
        ])
        assert rc == 0
    rc = main([
        "run", "--days", "2", "--fx", str(root / "fx.json"), "--fy", str(root / "fy.json"),
        "--seed", "5", "--out", str(root / "episode.jsonl"),
    ])
    assert rc == 0
    return root


class TestExcite:
    def test_writes_csv_and_config_sidecar(self, cli_workspace):
        csv = cli_workspace / "data.csv"
        sidecar = cli_workspace / "data.csv.config.json"
        assert csv.exists() and sidecar.exists()
        data = testbed.ExcitationData.from_csv(csv)
        assert len(data) == 4 * 24
        cfg = testbed.load_config(sidecar)
        assert cfg.rng_seed == 3

    def test_reports_row_count(self, tmp_path, capsys):
        out = tmp_path / "tiny.csv"
        assert main(["excite", "--days", "1", "--out", str(out)]) == 0
        assert "wrote 24 rows" in capsys.readouterr().out

    def test_unknown_config_override_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"wall_color": "blue"}))
        rc = main(["excite", "--days", "1", "--out", str(tmp_path / "x.csv"),
                   "--config", str(cfg_path)])
        assert rc == 2
        assert "wall_color" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"thermal_resistance": ', "invalid JSON"),
        ('{"thermal_resistance": "x"}', "thermal_resistance must be of type float"),
        ('{"occupants": 2.5}', "occupants must be of type int"),
        ("[1, 2]", "expected a JSON object"),
    ])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        rc = main(["excite", "--days", "1", "--out", str(tmp_path / "x.csv"),
                   "--config", str(cfg_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_config_without_seed_takes_seed_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"occupants": 4}))
        out = tmp_path / "x.csv"
        assert main(["excite", "--days", "1", "--seed", "3", "--out", str(out),
                     "--config", str(cfg_path)]) == 0
        cfg = testbed.load_config(str(out) + ".config.json")
        assert (cfg.rng_seed, cfg.occupants) == (3, 4)


class TestTrain:
    def test_reports_validation_rmse(self, cli_workspace, tmp_path, capsys):
        rc = main([
            "train", "--data", str(cli_workspace / "data.csv"), "--target", "fx",
            "--epochs", "40", "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "validation RMSE" in out
        assert "degC" in out

    def test_missing_data_file_is_usage_error(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope.csv"), "--target", "fx",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["-1", "0", "nan", "inf"])
    def test_bad_learning_rate_is_usage_error(self, cli_workspace, tmp_path, capsys, lr):
        rc = main([
            "train", "--data", str(cli_workspace / "data.csv"), "--target", "fx",
            "--epochs", "40", "--lr", lr, "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training_is_runtime_error(self, cli_workspace, tmp_path, capsys):
        # A NaN measurement poisons the loss on the first epoch.
        lines = (cli_workspace / "data.csv").read_text().splitlines()
        fields = lines[1].split(",")
        fields[2] = "nan"
        lines[1] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main([
            "train", "--data", str(bad), "--target", "fx",
            "--epochs", "50", "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 3
        assert "runtime error:" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


class TestRun:
    def test_episode_file_written(self, cli_workspace):
        from xmpc.hub import load_episode

        episode = load_episode(cli_workspace / "episode.jsonl")
        assert len(episode) == 48
        assert {r.scenario for r in episode.records} <= {1, 2, 3}

    def test_prints_timing_and_census(self, cli_workspace, tmp_path, capsys):
        rc = main([
            "run", "--days", "1", "--fx", str(cli_workspace / "fx.json"),
            "--fy", str(cli_workspace / "fy.json"), "--seed", "9",
            "--out", str(tmp_path / "day.jsonl"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote 24 records" in out
        assert "mean" in out and "4.19" in out
        assert "scenario census:" in out

    def test_swapped_models_are_usage_error(self, cli_workspace, tmp_path, capsys):
        out = tmp_path / "swapped.jsonl"
        rc = main([
            "run", "--days", "1", "--fx", str(cli_workspace / "fy.json"),
            "--fy", str(cli_workspace / "fx.json"), "--out", str(out),
        ])
        assert rc == 2
        assert "fx model predicts 'cooling_rate'" in capsys.readouterr().err
        assert not out.exists()

    def test_no_timing_reruns_are_byte_identical(self, cli_workspace, tmp_path):
        args = [
            "run", "--days", "1", "--fx", str(cli_workspace / "fx.json"),
            "--fy", str(cli_workspace / "fy.json"), "--seed", "11", "--no-timing",
        ]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestExplain:
    def test_single_timestep_deterministic(self, cli_workspace, tmp_path, capsys):
        docs = tmp_path / "docs"
        rc = main(["explain", "--episode", str(cli_workspace / "episode.jsonl"),
                   "--t", "3", "--out", str(docs)])
        assert rc == 0
        assert "wrote 1 documents (5 files)" in capsys.readouterr().out
        assert (docs / "ts_3.md").exists()
        for k in range(1, 5):
            assert (docs / f"ts_3_attr{k}.svg").exists()

    def test_llm_stub_mode_offline(self, cli_workspace, tmp_path, no_network):
        docs = tmp_path / "docs"
        rc = main(["explain", "--episode", str(cli_workspace / "episode.jsonl"),
                   "--t", "14", "--mode", "llm", "--gateway", "stub",
                   "--out", str(docs)])
        assert rc == 0
        text = (docs / "ts_14.md").read_text()
        assert "Shapley value" in text

    def test_llm_online_without_endpoint_is_usage_error(self, cli_workspace, tmp_path, capsys):
        rc = main(["explain", "--episode", str(cli_workspace / "episode.jsonl"),
                   "--t", "0", "--mode", "llm", "--gateway", "online",
                   "--out", str(tmp_path / "docs")])
        assert rc == 2
        assert "--endpoint" in capsys.readouterr().err
        assert not (tmp_path / "docs").exists()

    def test_llm_online_without_key_is_usage_error(
        self, cli_workspace, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        rc = main(["explain", "--episode", str(cli_workspace / "episode.jsonl"),
                   "--t", "0", "--mode", "llm", "--gateway", "online",
                   "--endpoint", "https://gateway.example",
                   "--out", str(tmp_path / "docs")])
        assert rc == 2
        assert "LLM_API_KEY" in capsys.readouterr().err

    def test_bad_timestep_flag(self, cli_workspace, tmp_path, capsys):
        rc = main(["explain", "--episode", str(cli_workspace / "episode.jsonl"),
                   "--t", "soonish", "--out", str(tmp_path / "docs")])
        assert rc == 2
        assert "soonish" in capsys.readouterr().err


class TestAsk:
    def test_one_shot_stub_answer(self, cli_workspace, capsys, no_network):
        rc = main(["ask", "--episode", str(cli_workspace / "episode.jsonl"),
                   "--t", "13", "--question", "Is there a penalty risk?"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "P_limit(t+2)" in out
        assert "quadratic penalty" in out

    def test_question_or_repl_required(self, cli_workspace, capsys):
        rc = main(["ask", "--episode", str(cli_workspace / "episode.jsonl"), "--t", "0"])
        assert rc == 2
        assert "--question or --repl" in capsys.readouterr().err

    def test_repl_loop_reads_until_quit(self, cli_workspace, capsys, monkeypatch, no_network):
        lines = iter(["", "what limit applies?", "quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        rc = main(["ask", "--episode", str(cli_workspace / "episode.jsonl"),
                   "--t", "2", "--repl"])
        assert rc == 0
        assert "P_limit(t+2)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["explain", "--t", "0", "--out", "docs"],
    ["ask", "--t", "0", "--question", "Why precool?"],
])
def test_timestep_of_empty_episode_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    from xmpc.hub import Episode, save_episode

    monkeypatch.chdir(tmp_path)
    save_episode(Episode(seeds={}, model_digests={}, config={}), "empty.jsonl")
    rc = main([argv[0], "--episode", "empty.jsonl", *argv[1:]])
    assert rc == 2
    assert "episode has no records" in capsys.readouterr().err


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["conjure"])
        assert info.value.code == 2

    def test_command_is_required(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_nonpositive_days_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["excite", "--days", "0"])
        assert info.value.code == 2
