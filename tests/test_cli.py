"""End-to-end command-line workflow in a temporary directory."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path

import pytest
import requests

from xmpc import errors, testbed
from xmpc.cli import main
from xmpc.surrogate import SCHEMAS


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
        (3, "nan"), (7, "inf"), (7, "-inf"),
    ], ids=["nan-oa-temp", "inf-cooling", "minus-inf-cooling"])
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
    ], ids=["copied-schema", "unknown-target", "no-layers", "one-layer", "three-layers",
            "meta-array", "short-norm-means",
            "string-background", "narrow-background", "nan-background"])
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

    def test_gateway_request_failure_is_runtime_error(
        self, cli_workspace, capsys, monkeypatch, no_network
    ):
        def fake_post(url, **kwargs):
            raise requests.TooManyRedirects("Exceeded 30 redirects.")

        monkeypatch.setattr(requests, "post", fake_post)
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        rc = main(["ask", "--episode", str(cli_workspace / "episode.jsonl"), "--t", "0",
                   "--question", "Why precool?", "--mode", "online",
                   "--endpoint", "https://gateway.example"])
        assert rc == 3
        assert "runtime error:" in capsys.readouterr().err

    def test_endpoint_without_scheme_is_usage_error(
        self, cli_workspace, capsys, monkeypatch, no_network
    ):
        # requests rejects the URL before it opens any connection.
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


@pytest.mark.parametrize("argv", [
    ["ask", "--t", "0", "--question", "Why precool?", "--mode", "online"],
    ["explain", "--t", "0", "--mode", "llm", "--gateway", "online", "--out", "docs"],
], ids=["ask", "explain"])
def test_null_message_content_is_runtime_error(
    cli_workspace, tmp_path, capsys, monkeypatch, no_network, argv
):
    class NullContent:
        status_code = 200

        def json(self):
            return {"choices": [{"message": {"role": "assistant", "content": None}}]}

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(requests, "post", lambda url, **kwargs: NullContent())
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    rc = main([argv[0], "--episode", str(cli_workspace / "episode.jsonl"), *argv[1:],
               "--endpoint", "https://gateway.example"])
    assert rc == 3
    captured = capsys.readouterr()
    assert "runtime error: malformed chat-completions response" in captured.err
    assert "None" not in captured.out
    assert not Path("docs").exists()  # the first document failed, so no output directory


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
    "costs-all-null": (["decision", "costs"], [None] * 25,
                       "chosen cost inf is not max(0, y1_w) + v1 + max(0, y2_w) + v2)"),
    "cost-string": (["decision", "costs", 3], "900", "cost must be a finite number, got '900')"),
    "phi-not-additive": (["attributions", "fy_t1", "phi", 0], 1e6,
                         "fy_t1 base value + sum(phi) is not the decision's y1_w)"),
    "t1-values-not-costed": (["attributions", "fx_t1", "values"], FIVE_VALUES,
                             "unexpected or missing keys ['values'])"),
    "t2-values-not-costed": (["attributions", "fx_t2", "values"], FIVE_VALUES,
                             "unexpected or missing keys ['values'])"),
    "t2-values-differ": (["attributions", "fy_t2", "values"], FIVE_VALUES,
                         "unexpected or missing keys ['values'])"),
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


@pytest.mark.parametrize("field, value", [
    ("seeds", {"run": 5}),
    ("seeds", {"run": 5, "testbed": -1}),
    ("model_digests", {"fx": "0" * 64, "fy": "not a digest"}),
    ("model_digests", [0, 1]),
], ids=["seeds-missing-testbed", "seeds-negative", "digest-not-hex", "digests-list"])
@pytest.mark.parametrize("argv", [
    ["ask", "--t", "14", "--question", "Why?"],
    ["explain", "--out", "docs"],
], ids=["ask", "explain"])
def test_malformed_provenance_is_usage_error(
    cli_workspace, tmp_path, capsys, monkeypatch, reseal, argv, field, value
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
    assert f"probe.jsonl:1: {field} must be " in capsys.readouterr().err
    assert not Path("docs").exists()


@pytest.mark.parametrize("hour", [lambda event: event - 2, lambda event: event - 3, lambda _: 0],
                         ids=["event-2", "event-3", "hour-0"])
@pytest.mark.parametrize("argv", [
    ["ask", "--question", "Why?"],
    ["explain", "--out", "docs"],
], ids=["ask", "explain"])
def test_unsealed_header_limit_edit_names_the_seal(
    cli_workspace, tmp_path, capsys, monkeypatch, argv, hour
):
    # Lowering an event's limit in the header changes the limits the record
    # two hours ahead of it derives; the seal, checked before any record is
    # decoded, is what every hour reports.
    monkeypatch.chdir(tmp_path)
    head, _, body = (cli_workspace / "episode.jsonl").read_bytes().partition(b"\n")
    header = json.loads(head)
    event = min(int(h) for h, limit in header["calendar"].items()
                if limit < testbed.NORMAL_POWER_LIMIT_W)
    header["calendar"][str(event)] = 500.0
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
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_model_with_a_huge_finite_weight(
    cli_workspace, tmp_path, capsys, monkeypatch, unit, feature, code, message
):
    # Neither a traceback nor an episode file that fails to load.
    monkeypatch.chdir(tmp_path)
    model = json.loads((cli_workspace / "fx.json").read_text())
    model["layers"][0]["w"][unit][feature] = -1e308
    Path("fx.json").write_text(json.dumps(model))
    rc = main(["run", "--days", "1", "--fx", "fx.json", "--fy", str(cli_workspace / "fy.json"),
               "--out", "e.jsonl"])
    assert rc == code
    assert message in capsys.readouterr().err
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


def test_edited_episode_header_is_usage_error(cli_workspace, tmp_path, capsys):
    # The seal covers the header: a raised event limit must not load quietly.
    head, _, body = (cli_workspace / "episode.jsonl").read_bytes().partition(b"\n")
    header = json.loads(head)
    limits = header["calendar"]
    event = min(h for h, limit in limits.items() if limit < testbed.NORMAL_POWER_LIMIT_W)
    limits[event] = testbed.NORMAL_POWER_LIMIT_W
    edited = tmp_path / "edited.jsonl"
    edited.write_bytes(json.dumps(header, separators=(",", ":")).encode() + b"\n" + body)
    rc = main(["ask", "--episode", str(edited), "--t", "3", "--question", "Why?"])
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
