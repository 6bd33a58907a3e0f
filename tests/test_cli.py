"""End-to-end command-line workflow in a temporary directory."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest

from xmpc import errors, testbed
from xmpc.cli import build_parser, main
from xmpc.surrogate import SCHEMAS


class TestExcite:
    def test_writes_only_the_csv(self, cli_workspace):
        csv = cli_workspace / "data.csv"
        assert not (cli_workspace / "data.csv.config.json").exists()
        data = testbed.ExcitationData.from_csv(csv)
        assert len(data) == 4 * 24

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
        ('{"rng_seed": "3"}', "rng_seed must be of type int, got '3'"),
        ('{"rng_seed": true}', "rng_seed must be of type int, got True"),
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

    def test_negative_seed_in_config_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"rng_seed": -1}))
        rc = main(["excite", "--days", "1", "--out", str(tmp_path / "x.csv"),
                   "--config", str(cfg_path)])
        assert rc == 2
        assert "rng_seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_retired_config_field_is_usage_error(self, tmp_path, capsys):
        # The building is a set of constants now; a file setting part of it is refused.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"occupants": 4}))
        rc = main(["excite", "--days", "1", "--out", str(tmp_path / "x.csv"),
                   "--config", str(cfg_path)])
        assert rc == 2
        assert "unknown config fields ['occupants']" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_config_without_seed_takes_seed_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({}))
        out, flag_only = tmp_path / "x.csv", tmp_path / "y.csv"
        assert main(["excite", "--days", "1", "--seed", "3", "--out", str(out),
                     "--config", str(cfg_path)]) == 0
        assert main(["excite", "--days", "1", "--seed", "3", "--out", str(flag_only)]) == 0
        assert out.read_bytes() == flag_only.read_bytes()


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

    def test_reports_fit_time_but_does_not_store_it(self, cli_workspace, tmp_path, capsys):
        for name in ("a.json", "b.json"):
            rc = main([
                "train", "--data", str(cli_workspace / "data.csv"), "--target", "fy",
                "--epochs", "40", "--out", str(tmp_path / name),
            ])
            assert rc == 0
            assert re.search(r" for 40 epochs in \d+\.\d\d s \(\d+ epochs/s\): validation RMSE ",
                             capsys.readouterr().out)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_field_over_the_csv_limit_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text("a" * 200_000 + "\n")
        rc = main(["train", "--data", str(data), "--target", "fx",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {data}:1: field larger than field limit (131072)\n"
        assert not (tmp_path / "m.json").exists()

    def test_episode_as_data_names_the_first_wrong_column(self, cli_workspace, tmp_path, capsys):
        episode = cli_workspace / "episode.jsonl"
        rc = main(["train", "--data", str(episode), "--target", "fx",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        # The first CSV field of the header line, not the whole 700-character row.
        assert err.startswith(f"error: {episode}:1: unexpected header: column 1 is '{{\"")
        assert err.endswith("'; expected 'time_hour'\n")
        assert len(err) < 120 + len(str(episode))

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
        # A finite learning rate this large throws the weights past the float range at once.
        rc = main([
            "train", "--data", str(cli_workspace / "data.csv"), "--target", "fx",
            "--epochs", "50", "--lr", "1e300", "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 3
        assert "runtime error: non-finite training loss at epoch 1" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("column, rows, message", [
        (2, [5], "zone_temp_c cannot be standardized (mean 1."),
        (3, None, "oa_temp_c cannot be standardized (mean inf"),
    ], ids=["one-zone-temp", "every-oa-temp"])
    def test_field_too_large_to_standardize_is_usage_error(
        self, cli_workspace, tmp_path, capsys, column, rows, message
    ):
        # Finite fields, yet their mean or spread overflows: such a model would
        # store an infinite norm and standardize every input to 0 or NaN.
        lines = (cli_workspace / "data.csv").read_text().splitlines()
        for i in rows or range(1, len(lines)):
            fields = lines[i].split(",")
            fields[column] = "1e308"
            lines[i] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main([
            "train", "--data", str(bad), "--target", "fx",
            "--epochs", "50", "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("column, value", [
        (3, "nan"), (7, "inf"), (7, "-inf"), (3, "['28']"),
    ], ids=["nan-oa-temp", "inf-cooling", "minus-inf-cooling", "list-text-oa-temp"])
    def test_non_finite_field_is_usage_error(self, cli_workspace, tmp_path, capsys, column, value):
        lines = (cli_workspace / "data.csv").read_text().splitlines()
        fields = lines[5].split(",")
        fields[column] = value
        lines[5] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main([
            "train", "--data", str(bad), "--target", "fx",
            "--epochs", "50", "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 2
        name = testbed.CSV_COLUMNS[column]
        assert f"bad.csv:6: {name} must be a finite number, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


def copied_schema(model: dict) -> None:
    """Turn a model file back into the older shape that copied its schema."""
    schema = SCHEMAS[model.pop("target")]
    model["schema"] = {"features": [asdict(f) for f in schema.features],
                       "target": asdict(schema.target)}
    model["activation"] = "relu"


def thirty_hidden_units(model: dict) -> None:
    """Cut a model file to a consistent net of 30 hidden units, not the fixed 50."""
    hidden, output = model["layers"]
    hidden["w"], hidden["b"] = hidden["w"][:30], hidden["b"][:30]
    output["w"] = [row[:30] for row in output["w"]]


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
        [line] = [line for line in out.splitlines() if line.startswith("additivity:")]
        assert line.endswith("of max(1, |prediction|) (tolerance 1e-06)")
        assert 0.0 <= float(line.split()[3]) <= 1e-11

    def test_swapped_models_are_usage_error(self, cli_workspace, tmp_path, capsys):
        out = tmp_path / "swapped.jsonl"
        rc = main([
            "run", "--days", "1", "--fx", str(cli_workspace / "fy.json"),
            "--fy", str(cli_workspace / "fx.json"), "--out", str(out),
        ])
        assert rc == 2
        assert "fx model predicts 'cooling_rate'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (copied_schema, "missing required field 'target'"),
        (lambda m: m.update(target="fz"), "target must be one of ['fx', 'fy'], got 'fz'"),
        (lambda m: m.update(layers=[]), "'layers' must list 2 layers"),
        (lambda m: m.update(layers=m["layers"][:1]), "'layers' must list 2 layers"),
        (lambda m: m.update(layers=m["layers"][:1] + m["layers"]), "'layers' must list 2 layers"),
        (lambda m: m.update(meta=[]), "'meta' must be a JSON object"),
        (lambda m: m["norm"].update(means=[0.0]), "norm means shape (1,)"),
        (lambda m: m["meta"].update(background="warm"), "meta.background must be a finite"),
        (lambda m: m["meta"].update(background=[row[:4] for row in m["meta"]["background"]]),
         "meta.background must be a finite (k >= 1, 5) array"),
        (lambda m: m["meta"]["background"][3].__setitem__(1, float("nan")),
         "meta.background must be a finite"),
        (thirty_hidden_units, "layer (weight, bias) shapes [((30, 5), (30,)), ((1, 30), (1,))] "
         "are not the fixed network's"),
        (lambda m: m["layers"][0]["w"][3].pop(),
         "layers[0] weight row 3 has 4 numbers, row 0 has 5"),
    ], ids=["copied-schema", "unknown-target", "no-layers", "one-layer", "three-layers",
            "meta-array", "short-norm-means",
            "string-background", "narrow-background", "nan-background", "30-hidden-units",
            "ragged-weight-row"])
    def test_malformed_model_is_usage_error(self, cli_workspace, tmp_path, capsys, edit, message):
        model = json.loads((cli_workspace / "fx.json").read_text())
        edit(model)
        (tmp_path / "fx.json").write_text(json.dumps(model))
        out = tmp_path / "e.jsonl"
        rc = main([
            "run", "--days", "1", "--fx", str(tmp_path / "fx.json"),
            "--fy", str(cli_workspace / "fy.json"), "--out", str(out),
        ])
        assert rc == 2
        assert message in capsys.readouterr().err
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

    def test_string_in_model_number_is_usage_error(self, cli_workspace, tmp_path, capsys):
        model = json.loads((cli_workspace / "fx.json").read_text())
        model["norm"]["target_std"] = "1.7"
        bad = tmp_path / "fx.json"
        bad.write_text(json.dumps(model))
        rc = main(["run", "--days", "1", "--fx", str(bad), "--fy", str(cli_workspace / "fy.json"),
                   "--out", str(tmp_path / "e.jsonl")])
        assert rc == 2
        assert "target_std must be a finite number, got '1.7'" in capsys.readouterr().err
        assert not (tmp_path / "e.jsonl").exists()


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-3"])
    def test_bad_temperature_is_usage_error(self, cli_workspace, capsys, no_network, value):
        rc = main(["ask", "--episode", str(cli_workspace / "episode.jsonl"), "--t", "0",
                   "--question", "Why precool?", f"--temperature={value}"])
        assert rc == 2
        assert "temperature" in capsys.readouterr().err

    def test_online_without_endpoint_fails_before_reading_episode(self, tmp_path, capsys):
        rc = main(["ask", "--episode", str(tmp_path / "absent.jsonl"), "--t", "0",
                   "--question", "Why precool?", "--mode", "online"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--endpoint" in err
        assert "absent.jsonl" not in err

    def test_online_answer_is_printed(self, cli_workspace, capsys, monkeypatch, chat_server):
        reply = {"choices": [{"message": {"content": "canned loopback answer"}}]}
        chat_server.replies = [(200, reply)]
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        rc = main(["ask", "--episode", str(cli_workspace / "episode.jsonl"), "--t", "14",
                   "--question", "Why?", "--mode", "online", "--endpoint", chat_server.url])
        assert rc == 0
        assert capsys.readouterr() == ("canned loopback answer\n", "")
        assert len(chat_server.received) == 1

    def test_gateway_request_failure_is_runtime_error(
        self, cli_workspace, capsys, monkeypatch, chat_server
    ):
        chat_server.replies = [(302, b"")]  # a redirect that never ends
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        rc = main(["ask", "--episode", str(cli_workspace / "episode.jsonl"), "--t", "0",
                   "--question", "Why precool?", "--mode", "online",
                   "--endpoint", chat_server.url])
        assert rc == 3
        err = capsys.readouterr().err
        assert "runtime error:" in err
        assert "sk-test" not in err

    def test_endpoint_without_scheme_is_usage_error(
        self, cli_workspace, capsys, monkeypatch, no_network
    ):
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        rc = main(["ask", "--episode", str(cli_workspace / "episode.jsonl"), "--t", "0",
                   "--question", "Why precool?", "--mode", "online", "--endpoint", "example.com"])
        assert rc == 2
        assert "--endpoint 'example.com' is not a usable URL" in capsys.readouterr().err

    def test_repl_loop_reads_until_quit(self, cli_workspace, capsys, monkeypatch, no_network):
        lines = iter(["", "what limit applies?", "quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        rc = main(["ask", "--episode", str(cli_workspace / "episode.jsonl"),
                   "--t", "2", "--repl"])
        assert rc == 0
        assert "P_limit(t+2)" in capsys.readouterr().out

    def test_repl_ctrl_c_leaves_like_ctrl_d(self, cli_workspace, capsys, monkeypatch):
        def interrupted(prompt=""):
            raise KeyboardInterrupt

        monkeypatch.setattr("builtins.input", interrupted)
        try:
            rc = main(["ask", "--episode", str(cli_workspace / "episode.jsonl"),
                       "--t", "2", "--repl"])
        except KeyboardInterrupt:  # re-raised, it would stop the whole test session
            pytest.fail("Ctrl-C at the prompt escaped main()")
        assert rc == 0
        assert capsys.readouterr().out.endswith("'quit' to leave\n\n")


class TestLlmLog:
    def test_ask_appends_one_line(self, cli_workspace, tmp_path, no_network):
        log = tmp_path / "llm.log"
        for expected in (1, 2):
            rc = main(["ask", "--episode", str(cli_workspace / "episode.jsonl"), "--t", "14",
                       "--question", "Why precool?", "--llm-log", str(log)])
            assert rc == 0
            lines = log.read_text().splitlines()
            assert len(lines) == expected
        entry = json.loads(lines[-1])
        assert entry["mode"] == "stub"
        assert set(entry) >= {"system_digest", "user_digest", "response_digest", "usage"}

    def test_explain_llm_hour_appends_five_lines(self, cli_workspace, tmp_path, no_network):
        # One narration per attribution (four) and one scenario judgment.
        log = tmp_path / "llm.log"
        rc = main(["explain", "--episode", str(cli_workspace / "episode.jsonl"), "--t", "14",
                   "--mode", "llm", "--gateway", "stub", "--out", str(tmp_path / "docs"),
                   "--llm-log", str(log)])
        assert rc == 0
        lines = log.read_text().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["mode"] == "stub" for line in lines)

    def test_deterministic_explain_writes_no_log(self, cli_workspace, tmp_path):
        log = tmp_path / "llm.log"
        rc = main(["explain", "--episode", str(cli_workspace / "episode.jsonl"), "--t", "14",
                   "--out", str(tmp_path / "docs"), "--llm-log", str(log)])
        assert rc == 0
        assert not log.exists()

    @pytest.mark.parametrize("argv", [
        ["ask", "--t", "14", "--question", "Why precool?"],
        ["explain", "--t", "14", "--mode", "llm", "--gateway", "stub", "--out", "docs"],
    ], ids=["ask", "explain"])
    def test_unset_flag_writes_no_log(self, cli_workspace, tmp_path, monkeypatch, no_network,
                                      argv):
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], "--episode", str(cli_workspace / "episode.jsonl"), *argv[1:]]) == 0
        assert [p.name for p in tmp_path.iterdir()] == (["docs"] if argv[0] == "explain" else [])

    @pytest.mark.parametrize("gateway", ["stub", "online"])
    @pytest.mark.parametrize("argv", [  # each ends with its command's gateway flag
        ["ask", "--t", "14", "--question", "Why precool?", "--mode"],
        ["explain", "--t", "14", "--mode", "llm", "--out", "docs", "--gateway"],
    ], ids=["ask", "explain"])
    def test_unwritable_log_refused_before_any_exchange(
        self, cli_workspace, tmp_path, capsys, monkeypatch, chat_server, argv, gateway
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        rc = main([argv[0], "--episode", str(cli_workspace / "episode.jsonl"), *argv[1:], gateway,
                   "--endpoint", chat_server.url, "--llm-log", "missing_dir/x.log"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert (out, chat_server.connections, list(tmp_path.iterdir())) == ("", 0, [])
        assert err == ("error: --llm-log 'missing_dir/x.log' cannot be appended to: "
                       "No such file or directory\n")


@pytest.mark.parametrize("argv", [
    ["ask", "--t", "0", "--question", "Why precool?", "--mode", "online"],
    ["explain", "--t", "0", "--mode", "llm", "--gateway", "online", "--out", "docs"],
], ids=["ask", "explain"])
def test_null_message_content_is_runtime_error(
    cli_workspace, tmp_path, capsys, monkeypatch, chat_server, argv
):
    null = {"choices": [{"message": {"role": "assistant", "content": None}}]}
    chat_server.replies = [(200, null)]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    rc = main([argv[0], "--episode", str(cli_workspace / "episode.jsonl"), *argv[1:],
               "--endpoint", chat_server.url])
    assert rc == 3
    captured = capsys.readouterr()
    assert "runtime error: malformed chat-completions response" in captured.err
    assert "sk-test" not in captured.err
    assert "None" not in captured.out
    assert not Path("docs").exists()  # the first document failed, so no output directory


# Each is refused before the episode is read and before any connection, by
# name: no scheme, another scheme, no host, a port that is not a number, and
# whitespace in the host.
@pytest.mark.parametrize("endpoint", [
    "example.com", "ftp://x", "http://", "http://h:abc", "http://exa mple.com",
])
@pytest.mark.parametrize("argv", [
    ["ask", "--t", "0", "--question", "Why precool?", "--mode", "online"],
    ["explain", "--t", "0", "--mode", "llm", "--gateway", "online", "--out", "docs"],
], ids=["ask", "explain"])
def test_unusable_endpoint_is_usage_error(tmp_path, capsys, monkeypatch, no_network, argv,
                                          endpoint):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    rc = main([argv[0], "--episode", "absent.jsonl", *argv[1:], "--endpoint", endpoint])
    assert rc == 2
    out, err = capsys.readouterr()
    assert (out, list(tmp_path.iterdir())) == ("", [])
    assert err.startswith(f"error: --endpoint {endpoint!r} is not a usable URL")


@pytest.mark.parametrize("argv", [
    ["explain", "--t", "0", "--out", "docs"],
    ["ask", "--t", "0", "--question", "Why precool?"],
])
def test_timestep_of_empty_episode_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    from xmpc.hub import Episode, save_episode

    monkeypatch.chdir(tmp_path)
    save_episode(Episode(seeds={"run": 0, "testbed": 0},
                         model_digests={"fx": "0" * 64, "fy": "f" * 64}), "empty.jsonl")
    rc = main([argv[0], "--episode", "empty.jsonl", *argv[1:]])
    assert rc == 2
    assert "episode has no records" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["explain", "--t", "9999", "--out", "docs"],
    ["ask", "--t", "9999", "--question", "Why precool?"],
])
def test_timestep_out_of_range_is_usage_error(cli_workspace, tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    rc = main([argv[0], "--episode", str(cli_workspace / "episode.jsonl"), *argv[1:]])
    assert rc == 2
    assert "hour 9999 not in episode (valid range 0..47)" in capsys.readouterr().err


@pytest.mark.parametrize("relabel, message", [
    (lambda header, body: header.update(version=1) or header.pop("records_sha256"),
     "episode format version 1 is not 7; re-run `xmpc run`"),
    (lambda header, body: header.update(
        version=2, records_sha256=hashlib.sha256(body).hexdigest()),
     "episode format version 2 is not 7"),
    (lambda header, body: header.update(version=3), "episode format version 3 is not 7"),
    (lambda header, body: header.update(version=4),
     "episode format version 4 is not 7; re-run `xmpc run` to rebuild the episode"),
    (lambda header, body: header.update(version=5),
     "episode format version 5 is not 7; re-run `xmpc run` to rebuild the episode"),
    (lambda header, body: header.update(version=6),
     "episode format version 6 is not 7; re-run `xmpc run` to rebuild the episode"),
    (lambda header, body: header.pop("records_sha256"), "header lacks its seal, records_sha256"),
], ids=["v1", "v2", "v3", "v4", "v5", "v6", "unsealed"])
def test_legacy_or_unsealed_episode_is_usage_error(
    cli_workspace, tmp_path, capsys, relabel, message
):
    # Without a seal over its header (v1 and v2 files, or a header that lost
    # its digest), a raised event limit would load as written.
    head, _, body = (cli_workspace / "episode.jsonl").read_bytes().partition(b"\n")
    header = json.loads(head)
    limits = header["calendar"]
    limits[min(h for h, limit in limits.items() if limit < testbed.NORMAL_POWER_LIMIT_W)] = (
        testbed.NORMAL_POWER_LIMIT_W
    )
    relabel(header, body)
    edited = tmp_path / "edited.jsonl"
    edited.write_bytes(json.dumps(header, separators=(",", ":")).encode() + b"\n" + body)
    rc = main(["ask", "--episode", str(edited), "--t", "5", "--question", "Why?"])
    assert rc == 2
    assert message in capsys.readouterr().err


# Edits to record 14 that a recomputed seal vouches for: (path to the value,
# new value, the start of the loader's complaint).  Each left ask or explain
# with a traceback or a document written from a record that contradicts itself.
# Format 5 derives the chosen pair, its cost and the attributed feature
# vectors, so the probes that set them (setpoint-string, setpoint-off-grid,
# cost-not-minimum and the three *-values-* probes) now write a key the format
# does not hold.  Format 6 derives the hour from the line and the limits from
# the header calendar, so limit-string, negative-limit, a limit ahead that the
# calendar does not hold, and an hour key do too.  Format 7 takes the second
# hour's boundary conditions from the next line and each attribution's base
# value from the header, and explains the decision's own outputs, so
# negative-occupancy-t2, a second-hour outdoor temperature 3 K above the next
# record's, and a stored base value or prediction write a key the format does
# not hold.
FIVE_VALUES = [24.0, 99.0, 30.0, 400.0, 3.0]
MALFORMED_RECORDS = {
    "temp-string": (["zone_temp_c"], "26.0", "zone_temp_c must be a finite number, got '26.0')"),
    "temp-nan": (["zone_temp_c"], math.nan, "zone_temp_c must be a finite number, got nan)"),
    "limit-string": (["p_limit_t2_w"], "900", "unexpected or missing keys ['p_limit_t2_w'])"),
    "setpoint-string": (["decision", "u1_c"], "24.0", "unexpected or missing keys ['u1_c'])"),
    "prediction-null": (["decision", "y2_w"], None, "y2_w must be a finite number, got None)"),
    "timing-string": (["opt_seconds"], "fast", "opt_seconds must be a finite number, got 'fast')"),
    "stale-scenario": (["scenario"], 9, "unexpected or missing keys ['scenario'])"),
    "setpoint-off-grid": (["decision", "u1_c"], 99.0, "unexpected or missing keys ['u1_c'])"),
    "negative-limit": (["p_limit_t2_w"], -5, "unexpected or missing keys ['p_limit_t2_w'])"),
    # Hour 16 has the normal limit, and y2_w stays under this one, so format 5
    # loaded the record as facing an event and rendered it as one.
    "limit-contradicts-calendar": (["p_limit_t2_w"], 2500.0,
                                   "unexpected or missing keys ['p_limit_t2_w'])"),
    "hour-key": (["t"], 14, "unexpected or missing keys ['t'])"),
    "negative-occupancy": (["occupancy"], -3, "occupancy must be >= 0, got -3.0)"),
    "negative-occupancy-t2": (["occupancy_t2"], -3, "unexpected or missing keys ['occupancy_t2'])"),
    "t2-conditions-not-the-next-hours": (["oa_temp_t2_c"], 38.3,
                                         "unexpected or missing keys ['oa_temp_t2_c'])"),
    "base-value-key": (["attributions", "fx_t2", "base_value"], 23.0,
                       "unexpected or missing keys ['base_value'])"),
    "prediction-key": (["attributions", "fy_t1", "prediction"], 4584.0,
                       "unexpected or missing keys ['prediction'])"),
    "negative-cooling": (["cooling_rate_w"], -1e9,
                         "cooling_rate_w must be in [0, 6000.0], got -1000000000.0)"),
    "cost-not-minimum": (["decision", "cost"], 1, "unexpected or missing keys ['cost'])"),
    # (26, 26) is the first pair, so a cost of 0 makes it the chosen one.
    "cost-not-predictions-plus-penalties": (["decision", "costs", 0], 0.0,
                                            "chosen cost 0.0 is not max(0, y1_w) + v1 + "
                                            "max(0, y2_w) + v2)"),
    "costs-short": (["decision", "costs"], [900.0] * 24,
                    "costs must list 25 entries, one per setpoint pair)"),
    "costs-all-null": (["decision", "costs"], [None] * 25, "costs hold no finite entry)"),
    "cost-string": (["decision", "costs", 3], "900", "cost must be a finite number, got '900')"),
    "phi-not-additive": (["attributions", "fy_t1", "phi", 0], 1e6,
                         "fy_t1 base value + sum(phi) is not the decision's y1_w)"),
    "t1-values-not-costed": (["attributions", "fx_t1", "values"], FIVE_VALUES,
                             "unexpected or missing keys ['values'])"),
    "t2-values-not-costed": (["attributions", "fx_t2", "values"], FIVE_VALUES,
                             "unexpected or missing keys ['values'])"),
    "t2-values-differ": (["attributions", "fy_t2", "values"], FIVE_VALUES,
                         "unexpected or missing keys ['values'])"),
    # A list of a part's own keys passed the key check, then failed on
    # indexing with "list indices must be integers or slices, not str".
    "decision-list": (["decision"], ["x1_c", "x2_c", "y1_w", "y2_w", "costs"],
                      "decision must be a JSON object, got list)"),
    "attributions-list": (["attributions"], ["fx_t1", "fy_t1", "fx_t2", "fy_t2"],
                          "attributions must be a JSON object, got list)"),
    "phi-object-list": (["attributions", "fy_t1"], ["phi"],
                        "fy_t1 must be a JSON object, got list)"),
}


@pytest.mark.parametrize("keys, value, message", MALFORMED_RECORDS.values(), ids=MALFORMED_RECORDS)
@pytest.mark.parametrize("argv", [
    ["ask", "--t", "14", "--question", "Why?"],
    ["explain", "--t", "14", "--out", "docs"],
], ids=["ask", "explain"])
def test_malformed_record_is_usage_error(
    cli_workspace, tmp_path, capsys, monkeypatch, reseal, argv, keys, value, message
):
    monkeypatch.chdir(tmp_path)
    lines = (cli_workspace / "episode.jsonl").read_bytes().splitlines(keepends=True)
    record = json.loads(lines[15])
    *parents, last = keys
    target = record
    for key in parents:
        target = target[key]
    target[last] = value
    lines[15] = json.dumps(record, separators=(",", ":")).encode() + b"\n"
    Path("probe.jsonl").write_bytes(b"".join(lines))
    reseal("probe.jsonl")
    rc = main([argv[0], "--episode", "probe.jsonl", *argv[1:]])
    assert rc == 2
    assert f"probe.jsonl:16: bad record ({message}" in capsys.readouterr().err
    assert not Path("docs").exists()


@pytest.mark.parametrize("t", [13, 14])
def test_record_given_as_a_list_is_named(cli_workspace, tmp_path, capsys, monkeypatch, reseal, t):
    # Hour 13 reads line 16 only for its second hour's boundary conditions.
    monkeypatch.chdir(tmp_path)
    lines = (cli_workspace / "episode.jsonl").read_bytes().splitlines(keepends=True)
    lines[15] = json.dumps(list(json.loads(lines[15]))).encode() + b"\n"
    Path("probe.jsonl").write_bytes(b"".join(lines))
    reseal("probe.jsonl")
    assert main(["ask", "--episode", "probe.jsonl", "--t", str(t), "--question", "Why?"]) == 2
    assert ("probe.jsonl:16: bad record (record must be a JSON object, got list)"
            in capsys.readouterr().err)


def rewrite_record(src: Path, dst: Path, t: int, edit, reseal) -> None:
    """Copy an episode file with ``edit`` applied to record ``t``, behind a recomputed seal."""
    lines = src.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[t + 1])
    edit(record)
    lines[t + 1] = json.dumps(record, separators=(",", ":")).encode() + b"\n"
    dst.write_bytes(b"".join(lines))
    reseal(dst)


def _raise(record, keys, amount):
    *parents, last = keys
    for key in parents:
        record = record[key]
    record[last] += amount


# Each attribution explains the decision's output beside it: a phi raised by
# 500 W (with or without a stated prediction raised to match, as format 6
# stored one) and a predicted zone temperature of -1 or 1e11 degC, all of
# which format 6 loaded and rendered, no longer add up.
UNEXPLAINED = {
    "phi-plus-500": (lambda r: _raise(r, ["attributions", "fy_t1", "phi", 0], 500.0),
                     "fy_t1 base value + sum(phi) is not the decision's y1_w)"),
    "prediction-and-phi-plus-500": (
        lambda r: _raise(r, ["attributions", "fy_t1", "phi", 0], 500.0)
        or r["attributions"]["fy_t1"].update(prediction=r["decision"]["y1_w"] + 500.0),
        "unexpected or missing keys ['prediction'])"),
    "x1-negative": (lambda r: r["decision"].update(x1_c=-1.0),
                    "fx_t1 base value + sum(phi) is not the decision's x1_c)"),
    "x1-huge": (lambda r: r["decision"].update(x1_c=1e11),
                "fx_t1 base value + sum(phi) is not the decision's x1_c)"),
}


@pytest.mark.parametrize("edit, message", UNEXPLAINED.values(), ids=UNEXPLAINED)
@pytest.mark.parametrize("argv", [
    ["ask", "--t", "14", "--question", "Why?"],
    ["explain", "--t", "14", "--out", "docs"],
    ["explain", "--out", "docs"],
], ids=["ask", "explain", "explain-all"])
def test_attribution_not_explaining_its_decision_is_usage_error(
    cli_workspace, tmp_path, capsys, monkeypatch, reseal, argv, edit, message
):
    monkeypatch.chdir(tmp_path)
    rewrite_record(cli_workspace / "episode.jsonl", tmp_path / "probe.jsonl", 14, edit, reseal)
    rc = main([argv[0], "--episode", "probe.jsonl", *argv[1:]])
    assert rc == 2
    assert f"probe.jsonl:16: bad record ({message}" in capsys.readouterr().err
    assert not Path("docs").exists()


@pytest.mark.parametrize("field, value, message", [
    ("seeds", {"run": 5}, "probe.jsonl:1: seeds must be "),
    ("seeds", {"run": 5, "testbed": -1}, "probe.jsonl:1: seeds must be "),
    ("model_digests", {"fx": "0" * 64, "fy": "not a digest"},
     "probe.jsonl:1: model_digests must be "),
    ("model_digests", [0, 1], "probe.jsonl:1: model_digests must be "),
    # An hour with more digits than int() converts.
    ("calendar", {"1" * 5000: 1000.0},
     "probe.jsonl:1 calendar: hour '111111111111...1111111111111' is not a canonical"),
], ids=["seeds-missing-testbed", "seeds-negative", "digest-not-hex", "digests-list",
        "calendar-hour-of-5000-digits"])
@pytest.mark.parametrize("argv", [
    ["ask", "--t", "14", "--question", "Why?"],
    ["explain", "--out", "docs"],
], ids=["ask", "explain"])
def test_malformed_provenance_is_usage_error(
    cli_workspace, tmp_path, capsys, monkeypatch, reseal, argv, field, value, message
):
    monkeypatch.chdir(tmp_path)
    head, _, body = (cli_workspace / "episode.jsonl").read_bytes().partition(b"\n")
    header = json.loads(head)
    header[field] = value
    Path("probe.jsonl").write_bytes(json.dumps(header, separators=(",", ":")).encode()
                                    + b"\n" + body)
    reseal("probe.jsonl")
    rc = main([argv[0], "--episode", "probe.jsonl", *argv[1:]])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not Path("docs").exists()


@pytest.mark.parametrize("hour, limit", [
    (lambda event: event - 2, 500.0), (lambda event: event - 3, 500.0), (lambda _: 0, 500.0),
    (lambda _: 3, testbed.NORMAL_POWER_LIMIT_W),
], ids=["event-2", "event-3", "hour-0", "raised-hour-3"])
@pytest.mark.parametrize("argv", [
    ["ask", "--question", "Why?"],
    ["explain", "--out", "docs"],
], ids=["ask", "explain"])
def test_unsealed_header_limit_edit_names_the_seal(
    cli_workspace, tmp_path, capsys, monkeypatch, argv, hour, limit
):
    # Lowering an event's limit in the header changes the limits the record
    # two hours ahead of it derives, and raising it to the normal limit would
    # lift the event; the seal, checked before any record is decoded, is what
    # every hour reports.
    monkeypatch.chdir(tmp_path)
    head, _, body = (cli_workspace / "episode.jsonl").read_bytes().partition(b"\n")
    header = json.loads(head)
    event = min(int(h) for h, watts in header["calendar"].items()
                if watts < testbed.NORMAL_POWER_LIMIT_W)
    header["calendar"][str(event)] = limit
    Path("edited.jsonl").write_bytes(json.dumps(header, separators=(",", ":")).encode()
                                     + b"\n" + body)
    rc = main([argv[0], "--episode", "edited.jsonl", "--t", str(hour(event)), *argv[1:]])
    assert rc == 2
    assert "records_sha256" in capsys.readouterr().err
    assert not Path("docs").exists()


@pytest.mark.parametrize("unit, feature, code, message", [
    (5, 1, 2, "error: fx.json: the hidden layer's pre-activations on meta.background"),
    (0, 0, 3, "runtime error: additivity: worst residual"),
], ids=["overflows-on-its-background", "attributions-not-additive"])
def test_model_with_a_huge_finite_weight(
    cli_workspace, tmp_path, capsys, monkeypatch, unit, feature, code, message
):
    # Neither a traceback, nor numpy's overflow warnings ahead of the one
    # message line, nor an episode file that fails to load.
    monkeypatch.chdir(tmp_path)
    model = json.loads((cli_workspace / "fx.json").read_text())
    model["layers"][0]["w"][unit][feature] = -1e308
    Path("fx.json").write_text(json.dumps(model))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", "--days", "1", "--fx", "fx.json", "--fy", str(cli_workspace / "fy.json"),
                   "--out", "e.jsonl"])
    assert [str(w.message) for w in caught] == []
    assert rc == code
    [line] = capsys.readouterr().err.splitlines()
    assert message in line
    assert not Path("e.jsonl").exists()


@pytest.mark.parametrize("argv", [
    ["ask", "--t", "3", "--question", "Why precool?"],
    ["explain", "--t", "3", "--out", "docs"],
    ["explain", "--out", "docs"],
])
def test_edited_sealed_episode_is_usage_error(
    cli_workspace, tmp_path, capsys, monkeypatch, edit_digit, argv
):
    monkeypatch.chdir(tmp_path)
    edit_digit(cli_workspace / "episode.jsonl", tmp_path / "edited.jsonl", 30)
    rc = main([argv[0], "--episode", "edited.jsonl", *argv[1:]])
    assert rc == 2
    assert "records_sha256" in capsys.readouterr().err


# Placeholders: a directory, a file that is not text, a file in the way of an
# output directory, an episode whose header is a JSON array, a model file that
# is a JSON number, and the shared workspace.
@pytest.mark.parametrize("argv", [
    ["excite", "--days", "1", "--config", "{dir}", "--out", "x.csv"],
    ["train", "--data", "{dir}", "--target", "fx", "--out", "m.json"],
    ["explain", "--episode", "{dir}", "--out", "docs"],
    ["ask", "--episode", "{dir}", "--t", "0", "--question", "Why?"],
    ["train", "--data", "{binary}", "--target", "fx", "--out", "m.json"],
    ["run", "--days", "1", "--fx", "{binary}", "--fy", "{ws}/fy.json", "--out", "e.jsonl"],
    ["run", "--days", "1", "--fx", "{ws}/fx.json", "--fy", "{binary}", "--out", "e.jsonl"],
    ["run", "--days", "1", "--fx", "{number}", "--fy", "{ws}/fy.json", "--out", "e.jsonl"],
    ["explain", "--episode", "{binary}", "--out", "docs"],
    ["explain", "--episode", "{ws}/episode.jsonl", "--t", "0", "--out", "{file}"],
    ["explain", "--episode", "{array}", "--out", "docs"],
], ids=[
    "excite-config-dir", "train-data-dir", "explain-episode-dir", "ask-episode-dir",
    "train-data-binary", "run-fx-binary", "run-fy-binary", "run-fx-number",
    "explain-episode-binary", "explain-out-file", "explain-episode-array-header",
])
def test_bad_path_or_file_is_usage_error(cli_workspace, tmp_path, capsys, monkeypatch, argv):
    # An exception escaping main() would reach the user as a traceback.
    monkeypatch.chdir(tmp_path)
    Path("adir").mkdir()
    Path("binary").write_bytes(b"\xff\xfe\x80 not text\n")
    Path("file").write_text("in the way\n")
    Path("array.jsonl").write_text("[1]\n")
    Path("number.json").write_text("5\n")
    names = {"dir": "adir", "binary": "binary", "file": "file", "array": "array.jsonl",
             "number": "number.json", "ws": str(cli_workspace)}
    rc = main([arg.format(**names) for arg in argv])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["run", "--days", "1", "--fx", "nested.json", "--fy", "{ws}/fy.json", "--out", "e.jsonl"],
    ["excite", "--days", "1", "--config", "nested.json", "--out", "x.csv"],
    ["ask", "--episode", "nested.json", "--t", "0", "--question", "Why?"],
], ids=["run-fx", "excite-config", "ask-episode"])
def test_deeply_nested_json_is_usage_error(cli_workspace, tmp_path, capsys, monkeypatch, argv):
    # json raises RecursionError, not ValueError, on nesting this deep.
    monkeypatch.chdir(tmp_path)
    Path("nested.json").write_text("[" * 100_000 + "]" * 100_000)
    rc = main([arg.format(ws=cli_workspace) for arg in argv])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: nested.json")


ERROR_CLASSES = [obj for obj in vars(errors).values()
                 if isinstance(obj, type) and issubclass(obj, Exception)]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_base_class_is_exit_code(tmp_path, capsys, monkeypatch, cls):
    # Every error is a UsageError (exit 2) or a FailureError (exit 3), never both.
    assert issubclass(cls, errors.UsageError) != issubclass(cls, errors.FailureError)
    expected = 2 if issubclass(cls, errors.UsageError) else 3

    def raising(*args, **kwargs):
        raise cls("probe failure")

    monkeypatch.setattr(testbed, "run_excitation", raising)
    rc = main(["excite", "--days", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == expected
    assert "probe failure" in capsys.readouterr().err


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

    @pytest.mark.parametrize("argv", [
        ["explain", "--out", "docs", "--templates", "d"],
        ["ask", "--t", "0", "--question", "Why precool?", "--context-budget", "5"],
    ], ids=["explain-templates", "ask-context-budget"])
    def test_retired_option_is_usage_error(self, cli_workspace, tmp_path, monkeypatch, capsys,
                                           argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main([argv[0], "--episode", str(cli_workspace / "episode.jsonl"), *argv[1:]])
        assert info.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["excite", "--days", "1", "--seed", "-1", "--out", "bad.csv"],
        ["train", "--data", "data.csv", "--target", "fx", "--seed", "-2", "--out", "m.json"],
        ["run", "--days", "1", "--fx", "fx.json", "--fy", "fy.json", "--seed", "-1"],
    ], ids=["excite", "train", "run"])
    def test_negative_seed_rejected(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "expected a non-negative integer, got" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# argv per subcommand, valid and invalid, parsed alike with one subparser or all five.
PARSER_CASES = {
    "excite": [[], ["--days", "3", "--seed", "2", "--out", "d.csv", "--config", "c.json"],
               ["--days", "0"], ["--days", "x"], ["--seed", "-1"], ["--days"], ["--bogus"],
               ["extra"], ["--help"], ["-h", "--days", "0"]],
    "train": [["--data", "d.csv", "--target", "fy", "--epochs", "5", "--lr", "0.01",
               "--out", "m.json"], ["--data", "d.csv", "--target", "fz", "--out", "m.json"],
              ["--data", "d.csv", "--out", "m.json"], ["--target", "fx"],
              ["--data", "d.csv", "--target", "fx", "--lr", "fast", "--out", "m.json"], ["--help"]],
    "run": [["--fx", "a.json", "--fy", "b.json"],
            ["--days", "2", "--fx", "a", "--fy", "b", "--dr-prob", "0.5", "--no-timing"],
            ["--fx", "a"], ["--fx", "a", "--fy", "b", "--days", "-1"],
            ["--fx", "a", "--fy", "b", "--no-timing=1"], ["--help"]],
    "explain": [["--episode", "e.jsonl"],
                ["--episode", "e", "--t", "3", "--mode", "llm", "--gateway", "stub",
                 "--llm-log", "l.log", "--out", "o"],
                ["--episode", "e", "--mode", "chatty"], ["--t", "3"],
                ["--episode", "e", "--templates", "d"], ["--help"]],
    "ask": [["--episode", "e", "--t", "4", "--question", "Why?"],
            ["--episode", "e", "--t", "4", "--repl", "--mode", "online", "--endpoint", "h",
             "--temperature", "0", "--llm-log", "l.log"],
            ["--episode", "e", "--t", "x"], ["--episode", "e"], ["--episode", "e", "--t", "1", "x"],
            ["--episode", "e", "--t", "0", "--context-budget", "5"], ["--help"]],
}


def parse_outcome(parser, argv, capsys):
    """The Namespace ``argv`` parses to, or its exit code with what was printed."""
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [name, *args] for name, cases in PARSER_CASES.items() for args in cases
], ids=lambda argv: " ".join(argv))
def test_one_subcommand_parses_like_all_five(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    alone = parse_outcome(build_parser(argv[0]), argv, capsys)
    assert alone == parse_outcome(build_parser(), argv, capsys)
    # main builds the one-subcommand parser; a usage error leaves the same way.
    if not isinstance(alone, argparse.Namespace):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert (info.value.code, *capsys.readouterr()) == alone


HELP_TEXTS = {
    "": """\
usage: xmpc [-h] {excite,train,run,explain,ask} ...

surrogate MPC for building demand response, with Shapley explanations

positional arguments:
  {excite,train,run,explain,ask}
    excite              generate the excitation dataset
    train               train one surrogate from the excitation CSV
    run                 closed-loop episode with MPC and attributions
    explain             render explanation documents from an episode
    ask                 answer questions about one timestep

options:
  -h, --help            show this help message and exit
""",
    "excite": """\
usage: xmpc excite [-h] [--days DAYS] [--seed SEED] [--out OUT]
                   [--config CONFIG]

options:
  -h, --help       show this help message and exit
  --days DAYS
  --seed SEED
  --out OUT
  --config CONFIG  JSON file holding the weather seed, rng_seed
""",
    "train": """\
usage: xmpc train [-h] --data DATA --target {fx,fy} [--epochs EPOCHS]
                  [--lr LR] [--seed SEED] --out OUT

options:
  -h, --help        show this help message and exit
  --data DATA
  --target {fx,fy}
  --epochs EPOCHS
  --lr LR
  --seed SEED
  --out OUT
""",
    "run": """\
usage: xmpc run [-h] [--days DAYS] --fx FX --fy FY [--dr-prob DR_PROB]
                [--seed SEED] [--out OUT] [--no-timing] [--config CONFIG]

options:
  -h, --help         show this help message and exit
  --days DAYS
  --fx FX            temperature surrogate model JSON
  --fy FY            cooling surrogate model JSON
  --dr-prob DR_PROB  per-day event probability
  --seed SEED
  --out OUT
  --no-timing        canonical form: omit wall-clock fields
  --config CONFIG    JSON file holding the weather seed, rng_seed
""",
    "explain": """\
usage: xmpc explain [-h] --episode EPISODE [--t T]
                    [--mode {deterministic,llm}] [--gateway {online,stub}]
                    [--endpoint ENDPOINT] [--model MODEL]
                    [--temperature TEMPERATURE] [--llm-log PATH] [--out OUT]

options:
  -h, --help            show this help message and exit
  --episode EPISODE
  --t T                 hour index or 'all'
  --mode {deterministic,llm}
  --gateway {online,stub}
                        chat gateway used in llm mode
  --endpoint ENDPOINT   chat-completions endpoint for the online gateway
  --model MODEL
  --temperature TEMPERATURE
  --llm-log PATH        append one JSON line per LLM exchange (digests,
                        latency, usage) to PATH
  --out OUT
""",
    "ask": """\
usage: xmpc ask [-h] --episode EPISODE --t T [--question QUESTION] [--repl]
                [--mode {stub,online}] [--endpoint ENDPOINT] [--model MODEL]
                [--temperature TEMPERATURE] [--llm-log PATH]

options:
  -h, --help            show this help message and exit
  --episode EPISODE
  --t T
  --question QUESTION
  --repl
  --mode {stub,online}
  --endpoint ENDPOINT
  --model MODEL
  --temperature TEMPERATURE
  --llm-log PATH        append one JSON line per LLM exchange (digests,
                        latency, usage) to PATH
""",
}


@pytest.mark.parametrize("command", list(HELP_TEXTS), ids=lambda c: c or "xmpc")
def test_help_bytes(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main([command, "--help"] if command else ["--help"])
    assert info.value.code == 0
    assert capsys.readouterr() == (HELP_TEXTS[command], "")


@pytest.mark.parametrize("argv", [[], ["conjure"], ["--", "ask"], ["exc", "--days", "1"]],
                         ids=["none", "unknown", "dashdash", "prefix"])
def test_without_a_command_name_all_five_are_built(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(argv)
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert err.startswith("usage: xmpc [-h] {excite,train,run,explain,ask} ...\nxmpc: error: ")
    if argv:
        assert "invalid choice" in err and "'excite', 'train', 'run', 'explain', 'ask'" in err
    else:
        assert err.endswith("the following arguments are required: command\n")
