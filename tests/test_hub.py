"""Closed-loop episode runner and the episode file format."""

from __future__ import annotations

import json

import numpy as np
import pytest

from xmpc.errors import EpisodeIntegrityError, InvalidInputError, SchemaError
from xmpc.hub import (
    ATTRIBUTION_KEYS,
    EPISODE_VERSION,
    TimestepRecord,
    load_episode,
    run_episode,
    save_episode,
    timing_report,
)
from xmpc.shapley import verify_additivity
from xmpc.surrogate import digest, predict
from xmpc.testbed import ZoneState, generate_dr_calendar, power_limit_at, step


class TestRunEpisode:
    def test_record_count_and_fields(self, mini_episode):
        assert len(mini_episode) == 48
        assert mini_episode.version == EPISODE_VERSION
        for record in mini_episode.records:
            assert set(record.attributions) == set(ATTRIBUTION_KEYS)
            assert record.scenario in (1, 2, 3)
            assert record.setpoint_c == record.decision.u1_c
            assert 22.0 <= record.setpoint_c <= 26.0
            assert record.cooling_rate_w >= 0.0
            assert record.opt_seconds is not None and record.opt_seconds > 0.0

    def test_header_provenance(self, mini_episode, mini_models):
        fx, fy = mini_models
        assert mini_episode.model_digests == {"fx": digest(fx), "fy": digest(fy)}
        assert mini_episode.seeds == {"run": 5, "testbed": 0}
        assert mini_episode.config["n_days"] == 2
        assert mini_episode.config["testbed"]["thermal_capacitance"] == 8.0e6

    def test_limits_follow_calendar(self, mini_episode):
        calendar = generate_dr_calendar(2, 1.0, seed=5)
        for record in mini_episode.records:
            assert record.p_limit_t1_w == power_limit_at(calendar, record.t + 1)
            assert record.p_limit_t2_w == power_limit_at(calendar, record.t + 2)

    def test_closed_loop_replays_through_testbed(self, mini_episode, testbed_cfg):
        # Re-stepping the plant from each record's state must reproduce the
        # next record's state and this record's realized cooling exactly.
        records = mini_episode.records
        for prev, nxt in zip(records[:-1], records[1:]):
            stepped, hvac = step(
                ZoneState(prev.t, prev.zone_temp_c), prev.disturbance, prev.setpoint_c, testbed_cfg
            )
            assert stepped.zone_temp_c == nxt.zone_temp_c
            assert hvac.cooling_rate_w == prev.cooling_rate_w

    def test_attribution_features_match_decision(self, mini_episode, mini_models):
        fx, fy = mini_models
        for record in mini_episode.records[::7]:
            d = record.decision
            attr_fx1 = record.attributions["fx_t1"]
            assert attr_fx1.feature_values[0] == d.u1_c
            assert attr_fx1.feature_values[1] == record.zone_temp_c
            attr_fx2 = record.attributions["fx_t2"]
            assert attr_fx2.feature_values[0] == d.u2_c
            assert attr_fx2.feature_values[1] == d.x1_c
            # Attribution prediction is the model value at those features.
            assert attr_fx1.prediction == pytest.approx(
                predict(fx, attr_fx1.feature_values), rel=1e-12
            )
            assert record.attributions["fy_t1"].prediction == pytest.approx(
                predict(fy, attr_fx1.feature_values), rel=1e-12
            )

    def test_attributions_satisfy_additivity(self, mini_episode):
        for record in mini_episode.records[::5]:
            for key in ATTRIBUTION_KEYS:
                ok, _ = verify_additivity(record.attributions[key])
                assert ok

    def test_attribution_names_follow_model_schemas(self, mini_episode):
        record = mini_episode.records[0]
        assert record.attributions["fx_t1"].feature_names[1] == "zone_temp_tminus1"
        assert record.attributions["fy_t1"].feature_names[1] == "zone_temp_t"

    def test_invalid_day_count(self, testbed_cfg, mini_models):
        fx, fy = mini_models
        with pytest.raises(InvalidInputError):
            run_episode(0, testbed_cfg, fx, fy, {})

    def test_swapped_models_rejected(self, testbed_cfg, mini_models):
        fx, fy = mini_models
        with pytest.raises(SchemaError, match="fx model predicts 'cooling_rate'"):
            run_episode(1, testbed_cfg, fy, fx, {})
        with pytest.raises(SchemaError, match="fy model predicts 'zone_temp'"):
            run_episode(1, testbed_cfg, fx, fx, {})

    def test_rerun_is_identical(self, testbed_cfg, mini_models, tmp_path):
        fx, fy = mini_models
        calendar = generate_dr_calendar(1, 1.0, seed=9)
        ep1 = run_episode(1, testbed_cfg, fx, fy, calendar, seed=9)
        ep2 = run_episode(1, testbed_cfg, fx, fy, calendar, seed=9)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_episode(ep1, p1, include_timing=False)
        save_episode(ep2, p2, include_timing=False)
        assert p1.read_bytes() == p2.read_bytes()


class TestEpisodeFile:
    def test_roundtrip(self, mini_episode, tmp_path):
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path)
        loaded = load_episode(path)
        assert len(loaded) == len(mini_episode)
        assert loaded.seeds == mini_episode.seeds
        assert loaded.model_digests == mini_episode.model_digests
        assert loaded.version == EPISODE_VERSION
        for orig, back in zip(mini_episode.records, loaded.records):
            assert back.t == orig.t
            assert back.zone_temp_c == orig.zone_temp_c
            assert back.setpoint_c == orig.setpoint_c
            assert back.scenario == orig.scenario
            assert back.opt_seconds == orig.opt_seconds
            assert back.decision.cost == orig.decision.cost
            for key in ATTRIBUTION_KEYS:
                assert np.array_equal(
                    back.attributions[key].shapley_values,
                    orig.attributions[key].shapley_values,
                )

    def test_canonical_form_strips_timing(self, mini_episode, tmp_path):
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path, include_timing=False)
        loaded = load_episode(path)
        assert all(r.opt_seconds is None for r in loaded.records)
        with pytest.raises(InvalidInputError, match="timing"):
            timing_report(loaded)

    def test_failed_save_keeps_previous_file(self, mini_episode, tmp_path, monkeypatch):
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path)
        before = path.read_bytes()
        to_json = TimestepRecord.to_json
        calls = []

        def fail_on_third(record, *args, **kwargs):
            calls.append(record.t)
            if len(calls) == 3:
                raise RuntimeError("disk full")
            return to_json(record, *args, **kwargs)

        monkeypatch.setattr(TimestepRecord, "to_json", fail_on_third)
        with pytest.raises(RuntimeError, match="disk full"):
            save_episode(mini_episode, path, include_timing=False)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["episode.jsonl"]

    def test_timing_report(self, mini_episode):
        report = timing_report(mini_episode)
        assert report.n_intervals == 48
        assert 0.0 < report.mean_seconds <= report.max_seconds
        assert report.reference_seconds == 4.19
        text = str(report)
        assert "mean" in text and "4.19" in text

    def test_missing_file_line_errors(self, mini_episode, tmp_path):
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path)
        lines = path.read_text().splitlines()

        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(EpisodeIntegrityError, match="declares"):
            load_episode(truncated)

        corrupt = tmp_path / "corrupt.jsonl"
        bad_lines = list(lines)
        bad_lines[5] = bad_lines[5][:40]
        corrupt.write_text("\n".join(bad_lines) + "\n")
        with pytest.raises(EpisodeIntegrityError, match=":6"):
            load_episode(corrupt)

    def test_wrong_kind_and_empty(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(EpisodeIntegrityError, match="empty"):
            load_episode(empty)

        wrong = tmp_path / "wrong.jsonl"
        wrong.write_text(json.dumps({"kind": "model"}) + "\n")
        with pytest.raises(EpisodeIntegrityError, match="kind"):
            load_episode(wrong)

        garbled = tmp_path / "garbled.jsonl"
        garbled.write_text("{not json\n")
        with pytest.raises(EpisodeIntegrityError, match="header"):
            load_episode(garbled)

    def test_month_episode_shape(self, episode):
        # The month-long fixture: 31 days of hourly records, every scenario
        # label present under daily events.
        assert len(episode) == 744
        labels = {r.scenario for r in episode.records}
        assert labels == {1, 2, 3}
