"""Closed-loop episode runner and the episode file format."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from xmpc.errors import (
    DeserializationError,
    EpisodeIntegrityError,
    InvalidInputError,
    SchemaError,
)
from xmpc.hub import (
    ATTRIBUTION_KEYS,
    EPISODE_VERSION,
    REFERENCE_OPT_SECONDS,
    Episode,
    TimestepRecord,
    calendar_to_json,
    load_episode,
    run_episode,
    save_episode,
    timing_report,
)
from xmpc import hub
from xmpc.mpc import features
from xmpc.shapley import shapley, verify_additivity
from xmpc.surrogate import FX_SCHEMA, FY_SCHEMA, background_of, digest, predict
from xmpc.testbed import (
    NORMAL_POWER_LIMIT_W,
    ZoneState,
    generate_dr_calendar,
    power_limit_at,
    step,
)



def base_values_of(episode) -> dict[str, float]:
    """Each model's base value, which every attribution of the episode starts from."""
    first = episode.records[0].attributions
    return {"fx": first["fx_t1"].base_value, "fy": first["fy_t1"].base_value}


def rewrite_header(src, dst, edit) -> None:
    """Copy an episode file with ``edit`` applied to its header, written as saved."""
    head, _, body = src.read_bytes().partition(b"\n")
    header = json.loads(head)
    edit(header)
    dst.write_bytes(json.dumps(header, separators=(",", ":")).encode() + b"\n" + body)

class TestRunEpisode:
    def test_record_count_and_fields(self, mini_episode):
        assert len(mini_episode) == 48
        assert [record.t for record in mini_episode.records] == list(range(48))
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
        # The weather seed is the testbed's one setting; the building is fixed.
        assert mini_episode.seeds == {"run": 5, "testbed": 0}

    def test_limits_follow_calendar(self, mini_episode):
        calendar = generate_dr_calendar(2, 1.0, seed=5)
        for record in mini_episode.records:
            assert record.p_limit_t1_w == power_limit_at(calendar, record.t + 1)
            assert record.p_limit_t2_w == power_limit_at(calendar, record.t + 2)

    def test_second_hour_conditions_are_the_next_hours(self, mini_episode):
        # Stored once per record, they are what the next record holds as its own.
        records = mini_episode.records
        for prev, nxt in zip(records[:-1], records[1:]):
            assert prev.disturbance_t2 == nxt.disturbance
            assert prev.attributions["fy_t2"].feature_values[2:].tolist() == list(
                dataclasses.astuple(nxt.disturbance)
            )

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

    def test_one_shapley_call_per_model_after_control(
            self, testbed_cfg, mini_models, monkeypatch, tmp_path):
        fx, fy = mini_models
        calls = []

        def spy(model, instances, background):
            returned = shapley(model, instances, background)
            calls.append((model, np.array(instances), copy.deepcopy(returned)))
            return returned

        monkeypatch.setattr(hub, "shapley", spy)
        episode = run_episode(1, testbed_cfg, fx, fy, generate_dr_calendar(1, 1.0, seed=9), seed=9)
        assert len(calls) == 2 and calls[0][0] is fx and calls[1][0] is fy
        assert all(rows.shape == (48, 5) for _, rows, _ in calls)
        path = tmp_path / "episode.jsonl"
        save_episode(episode, path)
        fx_rows, fy_rows = (returned for _, _, returned in calls)
        n = len(episode)
        for record, back in zip(episode.records, load_episode(path).records):
            # Each record's four attributions are its own h1 and h2 attributed
            # alone, and, in memory and reloaded, what the episode's two calls
            # returned for them, bit for bit and field by field.
            d, t = record.decision, record.t
            h1 = features(d.u1_c, record.zone_temp_c, record.disturbance)
            h2 = features(d.u2_c, d.x1_c, record.disturbance_t2)
            outputs = (d.x1_c, d.y1_w, d.x2_c, d.y2_w)
            returned = (fx_rows[t], fy_rows[t], fx_rows[n + t], fy_rows[n + t])
            for key, model, h, output, want in zip(ATTRIBUTION_KEYS, (fx, fy, fx, fy),
                                                   (h1, h1, h2, h2), outputs, returned):
                alone = shapley(model, h, background_of(model))
                for got in (record.attributions[key], back.attributions[key]):
                    assert np.array_equal(got.feature_values, h)
                    assert got.shapley_values.tobytes() == alone.shapley_values.tobytes()
                    assert got.base_value == alone.base_value
                    assert got.feature_names == want.feature_names
                    assert got.feature_values.tobytes() == want.feature_values.tobytes()
                    assert got.shapley_values.tobytes() == want.shapley_values.tobytes()
                    assert got.base_value == want.base_value
                    # What is attributed is the decision's raw output, which the
                    # closed form's own v(all features) meets within round-off.
                    assert got.prediction == output
                    assert got.prediction == pytest.approx(want.prediction, rel=1e-11, abs=1e-9)
                    assert got.prediction == pytest.approx(alone.prediction, rel=1e-11, abs=1e-9)

    @pytest.mark.parametrize("reload", [False, True], ids=["in-memory", "reloaded"])
    def test_a_record_holds_its_phi_once(self, mini_episode, tmp_path, reload):
        # One (4, n) array, its rows in ATTRIBUTION_KEYS order.  The
        # Attributions built on access view it, so an in-place edit of one is
        # an edit of the record, which the file then holds and the loader refuses.
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path)
        episode = load_episode(path) if reload else copy.deepcopy(mini_episode)
        for record in episode.records:
            assert record.phi.shape == (4, 5)
            for row, attribution in zip(record.phi, record.attributions.values()):
                assert np.shares_memory(attribution.shapley_values, row)
        record = episode.records[5]
        before = record.to_json()["attributions"]["fy_t1"]["phi"]
        record.attributions["fy_t1"].shapley_values[2] += 1.0
        after = record.to_json()["attributions"]["fy_t1"]["phi"]
        assert after == record.phi[1].tolist() and after[2] == before[2] + 1.0
        save_episode(episode, path)
        message = ":7: bad record (fy_t1 base value + sum(phi) is not the decision's y1_w)"
        with pytest.raises(EpisodeIntegrityError, match=re.escape(message)):
            load_episode(path)

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
        assert loaded.calendar == mini_episode.calendar
        for orig, back in zip(mini_episode.records, loaded.records):
            assert back.to_json() == orig.to_json()
            assert back.setpoint_c == orig.setpoint_c
            assert back.scenario == orig.scenario
            # Derived on load, bit for bit: the chosen pair, its penalties and
            # cost, the candidate table and every attributed feature vector.
            assert back.decision == orig.decision
            for key in ATTRIBUTION_KEYS:
                for name in ("feature_values", "shapley_values"):
                    assert np.array_equal(
                        getattr(back.attributions[key], name), getattr(orig.attributions[key], name)
                    )

    def test_record_keys_are_the_fields_in_order(self, mini_episode):
        # Canonical episodes depend on this key order staying fixed.  The
        # hour, the limits, the setpoint, the scenario label, the chosen pair
        # with its penalties and cost, and the feature names and values are
        # derived, not stored.
        record = mini_episode.records[5]
        data = record.to_json()
        assert list(data) == [
            "zone_temp_c", "oa_temp_c", "oa_radiation_wm2", "occupancy", "cooling_rate_w",
            "decision", "attributions", "opt_seconds",
        ]
        assert list(data["decision"]) == ["x1_c", "x2_c", "y1_w", "y2_w", "costs"]
        assert len(data["decision"]["costs"]) == 25
        assert list(data["attributions"]) == list(ATTRIBUTION_KEYS)
        for attribution in data["attributions"].values():
            assert list(attribution) == ["phi"]
        base_values = base_values_of(mini_episode)
        back = TimestepRecord.from_json(json.loads(json.dumps(data)), 5, mini_episode.calendar,
                                        base_values, mini_episode.records[6].disturbance)
        assert back.to_json() == data
        assert (back.t, back.p_limit_t1_w, back.p_limit_t2_w, back.disturbance_t2) == (
            5, record.p_limit_t1_w, record.p_limit_t2_w, record.disturbance_t2
        )
        for key, output in zip(ATTRIBUTION_KEYS, ("x1_c", "y1_w", "x2_c", "y2_w")):
            assert back.attributions[key].base_value == base_values[key[:2]]
            assert back.attributions[key].prediction == getattr(record.decision, output)
        assert back.setpoint_c == record.decision.u1_c
        assert back.scenario == record.scenario
        assert back.attributions["fx_t1"].feature_names == FX_SCHEMA.feature_names
        assert back.attributions["fy_t2"].feature_names == FY_SCHEMA.feature_names

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
        assert REFERENCE_OPT_SECONDS == 4.19
        text = str(report)
        assert "mean" in text and "4.19" in text

    def test_missing_file_line_errors(self, mini_episode, tmp_path, reseal):
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
        with pytest.raises(EpisodeIntegrityError, match="records_sha256"):
            load_episode(corrupt)
        reseal(corrupt)
        with pytest.raises(EpisodeIntegrityError, match=":6: bad record"):
            load_episode(corrupt)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_line_numbers_and_messages_while_streaming(
        self, mini_episode, tmp_path, reseal, newline
    ):
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path)
        lines = path.read_text().splitlines()
        # A blank line after the header; record k then sits on line k + 2.
        text = newline.join([lines[0], "", *lines[1:]])
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_bytes((text + newline).encode())
        assert len(load_episode(spaced)) == len(mini_episode)

        # The last record truncated, behind a seal over the truncated line,
        # which the loader hashes the same without the blank line and with
        # either line ending.
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(lines)[:-10] + "\n")
        reseal(cut)
        sealed = cut.read_text().splitlines()
        cut.write_bytes(newline.join([sealed[0], "", *sealed[1:]]).encode())  # no line end
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(lines[-1][:-10])
        for hour in (None, len(lines) - 2):
            with pytest.raises(EpisodeIntegrityError) as info:
                load_episode(cut, hour)
            assert str(info.value) == f"{cut}:{len(lines) + 1}: bad record ({expected.value})"

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

    def test_selective_load_matches_full_load(self, mini_episode, tmp_path, monkeypatch):
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path)
        full = load_episode(path)
        for record in full.records:
            [alone] = load_episode(path, record.t).records
            assert alone.t == record.t
            assert alone.to_json() == record.to_json()
            assert alone.decision == record.decision
        decoded = []
        from_json = TimestepRecord.from_json

        def counting(data, t, *header_parts):
            decoded.append(t)
            return from_json(data, t, *header_parts)

        monkeypatch.setattr(TimestepRecord, "from_json", counting)
        picked = load_episode(path, 30)
        assert [r.t for r in picked.records] == [30]
        assert decoded == [30]
        assert picked.calendar == full.calendar == mini_episode.calendar

    def test_header_seal_and_calendar(self, mini_episode, tmp_path):
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path, include_timing=False)
        head, _, body = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        assert header["version"] == EPISODE_VERSION == 7
        assert header["n_records"] == len(mini_episode)
        assert "config" not in header  # its day count is n_records / 24
        # Each model's base value, and the last hour's second-hour conditions.
        last = mini_episode.records[-1]
        assert header["base_values"] == base_values_of(mini_episode)
        assert header["after_last"] == dataclasses.asdict(last.disturbance_t2)
        assert list(header["after_last"]) == ["oa_temp_c", "oa_radiation_wm2", "occupancy"]
        # The seal covers the header line, its own digest zeroed, then the records.
        unsealed = head.replace(header["records_sha256"].encode(), b"0" * 64)
        assert header["records_sha256"] == hashlib.sha256(unsealed + b"\n" + body).hexdigest()
        assert header["calendar"] == calendar_to_json(generate_dr_calendar(2, 1.0, seed=5))
        # Event hours only: every other hour has the normal limit.
        assert len(header["calendar"]) == 2
        assert all(limit < NORMAL_POWER_LIMIT_W for limit in header["calendar"].values())

    def test_edited_header_breaks_the_seal(self, mini_episode, tmp_path):
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path)
        event = min(h for h, limit in mini_episode.calendar.items() if limit < NORMAL_POWER_LIMIT_W)

        def limit(header):
            header["calendar"][str(event)] += 100.0

        def model_digest(header):
            header["model_digests"]["fx"] = "0" * 64

        # Rewritten unchanged, the header keeps its bytes and the file loads.
        rewrite_header(path, tmp_path / "same.jsonl", lambda header: None)
        assert (tmp_path / "same.jsonl").read_bytes() == path.read_bytes()
        for edit in (limit, model_digest):
            edited = tmp_path / f"{edit.__name__}.jsonl"
            rewrite_header(path, edited, edit)
            for hour in (None, 3):
                with pytest.raises(EpisodeIntegrityError, match="records_sha256"):
                    load_episode(edited, hour)

    @pytest.mark.parametrize("relabel, message", [
        (lambda header, body: header.update(version=1) or header.pop("records_sha256"),
         "episode format version 1 is not 7; re-run `xmpc run`"),
        (lambda header, body: header.update(
            version=2, records_sha256=hashlib.sha256(body).hexdigest()),
         "episode format version 2 is not 7"),
        (lambda header, body: header.update(version=3),
         "episode format version 3 is not 7; re-run `xmpc run`"),
        (lambda header, body: header.update(version=4),
         "episode format version 4 is not 7; re-run `xmpc run`"),
        (lambda header, body: header.update(version=5),
         "episode format version 5 is not 7; re-run `xmpc run`"),
        (lambda header, body: header.update(version=6),
         "episode format version 6 is not 7; re-run `xmpc run`"),
        (lambda header, body: header.pop("records_sha256"),
         ":1: header lacks its seal, records_sha256"),
    ], ids=["v1", "v2", "v3", "v4", "v5", "v6", "unsealed"])
    def test_legacy_or_unsealed_file_refused(self, mini_episode, tmp_path, relabel, message):
        # Version 1 had no seal and version 2 sealed the records only, so with
        # either label, or without its digest, an edited event limit loaded.
        # Version 3 records stored the scenario label and setpoint beside the
        # facts they follow from, and its header every normal hour's limit.
        # Version 4 records stored the chosen pair, its cost and penalties
        # beside the candidate table, and every attributed feature vector.
        # Version 5 records stored their hour and the two limits ahead beside
        # the line and the calendar they follow from.  Version 6 records
        # stored each attribution's base value and prediction beside the
        # decision's output, and the second hour's boundary conditions beside
        # the next record's.
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path)
        body = path.read_bytes().partition(b"\n")[2]
        event = min(h for h, limit in mini_episode.calendar.items() if limit < NORMAL_POWER_LIMIT_W)

        def edit(header):
            header["calendar"][str(event)] = NORMAL_POWER_LIMIT_W
            relabel(header, body)

        edited = tmp_path / "edited.jsonl"
        rewrite_header(path, edited, edit)
        for hour in (None, event - 2):
            with pytest.raises(EpisodeIntegrityError, match=re.escape(message)):
                load_episode(edited, hour)

    def test_record_must_hold_the_four_attributions(self, mini_episode, tmp_path, reseal):
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path)
        lines = path.read_text().splitlines(keepends=True)
        for change in ("drop", "add"):
            record = json.loads(lines[6])  # hour 5, on line 7
            if change == "drop":
                del record["attributions"]["fy_t2"]
            else:
                record["attributions"]["fy_t3"] = record["attributions"]["fy_t2"]
            bad = tmp_path / f"{change}.jsonl"
            bad.write_text("".join(lines[:6]) + json.dumps(record) + "\n" + "".join(lines[7:]))
            reseal(bad)
            key = {"drop": "fy_t2", "add": "fy_t3"}[change]
            for hour in (None, 5):
                with pytest.raises(EpisodeIntegrityError, match=re.escape(
                    f":7: bad record (unexpected or missing keys ['{key}'])"
                )):
                    load_episode(bad, hour)

    def test_edited_digit_breaks_the_seal(self, mini_episode, tmp_path, edit_digit):
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path)
        edited = tmp_path / "edited.jsonl"
        edit_digit(path, edited, 20)
        line = edited.read_text().splitlines()[21]
        decoded = TimestepRecord.from_json(json.loads(line), 20, mini_episode.calendar,
                                           base_values_of(mini_episode),
                                           mini_episode.records[21].disturbance)
        assert decoded.cooling_rate_w != mini_episode.records[20].cooling_rate_w
        for hour in (None, 3, 20):
            with pytest.raises(EpisodeIntegrityError, match="records_sha256"):
                load_episode(edited, hour)

    @pytest.mark.parametrize("key", ["t", "p_limit_t1_w", "p_limit_t2_w"])
    def test_record_stating_its_hour_or_a_limit_is_a_bad_record(
        self, mini_episode, tmp_path, reseal, key
    ):
        # The hour is the record's line and its limits are the calendar's, so
        # a record that states one, here the normal limit ahead of an event,
        # is refused behind a new seal.
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path)
        event = min(h for h, limit in mini_episode.calendar.items() if limit < NORMAL_POWER_LIMIT_W)
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[event - 1])  # hour event - 2
        record[key] = {"t": event - 2}.get(key, NORMAL_POWER_LIMIT_W)
        lines[event - 1] = json.dumps(record, separators=(",", ":")).encode() + b"\n"
        path.write_bytes(b"".join(lines))
        reseal(path)
        message = f":{event}: bad record (unexpected or missing keys ['{key}'])"
        for hour in (None, event - 2):
            with pytest.raises(EpisodeIntegrityError, match=re.escape(message)):
                load_episode(path, hour)

    def test_deeply_nested_record_is_a_bad_record(self, mini_episode, tmp_path, reseal):
        # json raises RecursionError, not ValueError, on nesting this deep.
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[4] = b"[" * 100_000 + b"]" * 100_000 + b"\n"
        path.write_bytes(b"".join(lines))
        reseal(path)
        with pytest.raises(EpisodeIntegrityError, match=":5: bad record"):
            load_episode(path, 3)

    def test_save_refuses_records_out_of_hour_order(self, mini_episode, tmp_path):
        path = tmp_path / "shuffled.jsonl"
        records = mini_episode.records
        for shuffled, message in ((records[10:], "record 0 holds hour 10, not 0"),
                                  (records[::-1], "record 0 holds hour 47, not 0"),
                                  # Hour 4's second hour is hour 5's first, not hour 6's.
                                  (records[:5] + records[6:], "record 4 holds second hour")):
            with pytest.raises(InvalidInputError, match=message):
                save_episode(Episode(mini_episode.seeds, mini_episode.model_digests, shuffled), path)
        assert list(tmp_path.iterdir()) == []

    def test_save_refuses_limits_not_the_calendars(self, mini_episode, tmp_path):
        # The file stores no limits: the loader takes them from the calendar.
        path = tmp_path / "moved.jsonl"
        event = min(h for h, limit in mini_episode.calendar.items() if limit < NORMAL_POWER_LIMIT_W)
        moved = {**mini_episode.calendar, event: mini_episode.calendar[event] + 100.0}
        with pytest.raises(InvalidInputError, match=re.escape(
            f"record {event - 2} holds limits [5000.0, {mini_episode.calendar[event]!r}], "
            f"not [5000.0, {moved[event]!r}]"
        )):
            save_episode(Episode(mini_episode.seeds, mini_episode.model_digests,
                                 mini_episode.records, moved), path)
        with pytest.raises(InvalidInputError, match=f"record {event - 2} holds limits"):
            save_episode(Episode(mini_episode.seeds, mini_episode.model_digests,
                                 mini_episode.records), path)
        assert list(tmp_path.iterdir()) == []

    def test_out_of_range_timestep_message(self, mini_episode, tmp_path):
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path)
        for t in (48, 9999, -1):
            with pytest.raises(InvalidInputError) as info:
                load_episode(path, t)
            assert str(info.value) == f"hour {t} not in episode (valid range 0..47)"

    def test_bad_header_calendar_rejected(self, mini_episode, tmp_path, reseal):
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path)
        bad = tmp_path / "bad_calendar.jsonl"
        rewrite_header(path, bad, lambda header: header["calendar"].update({"03": 1e3}))
        reseal(bad)
        with pytest.raises(DeserializationError, match="calendar: hour '03'"):
            load_episode(bad, 0)

    @pytest.mark.parametrize("part", ["second-hour", "base-value"])
    def test_save_refuses_what_the_file_derives(self, mini_episode, tmp_path, part):
        # The file stores neither a record's second hour nor an attribution's
        # base value, so a record that disagrees with the next record or with
        # the first record's base value is refused.
        records = list(mini_episode.records)
        record = records[5]
        if part == "second-hour":
            second = record.disturbance_t2
            record = dataclasses.replace(record, disturbance_t2=dataclasses.replace(
                second, oa_temp_c=second.oa_temp_c + 3.0))
            message = "record 5 holds second hour Disturbance(oa_temp_c="
        else:
            base_values = {**record.base_values, "fy": record.base_values["fy"] + 1}
            record = dataclasses.replace(record, base_values=base_values)
            message = "record 5 holds base values {'fx': "
        records[5] = record
        path = tmp_path / "episode.jsonl"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            save_episode(dataclasses.replace(mini_episode, records=records), path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seeds, digests", [
        ({}, None),
        ({"run": 5}, None),
        ({"run": 5, "testbed": -1}, None),
        ({"run": 5, "testbed": True}, None),
        ({"run": "5", "testbed": 0}, None),
        ([5, 0], None),
        (None, {}),
        (None, {"fx": "0" * 64}),
        (None, {"fx": "0" * 64, "fy": "0" * 63}),
        (None, {"fx": "0" * 64, "fy": "G" * 64}),
        (None, {"fx": "0" * 64, "fy": 7}),
        (None, {"fx": "0" * 64, "fy": "0" * 64, "fz": "0" * 64}),
    ])
    def test_malformed_provenance_refused(self, mini_episode, tmp_path, reseal, seeds, digests):
        seeds = mini_episode.seeds if seeds is None else seeds
        digests = mini_episode.model_digests if digests is None else digests
        field = "seeds" if seeds is not mini_episode.seeds else "model_digests"
        path = tmp_path / "episode.jsonl"
        with pytest.raises(InvalidInputError, match=f"^{field} must be "):
            save_episode(dataclasses.replace(mini_episode, seeds=seeds, model_digests=digests),
                         path)
        assert not path.exists()
        save_episode(mini_episode, path)
        rewrite_header(path, path, lambda header: header.update(seeds=seeds, model_digests=digests))
        reseal(path)
        for hour in (None, 3):
            with pytest.raises(EpisodeIntegrityError, match=f":1: {field} must be "):
                load_episode(path, hour)

    def test_second_hour_is_the_next_line(self, mini_episode, tmp_path, reseal):
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path)
        [record] = load_episode(path, 20).records
        assert record.disturbance_t2 == mini_episode.records[21].disturbance
        [last] = load_episode(path, 47).records
        assert last.disturbance_t2 == mini_episode.records[47].disturbance_t2
        # Hour 21's occupancy, on line 23, is hour 20's second hour's too.
        lines = path.read_bytes().splitlines(keepends=True)
        data = json.loads(lines[22])
        data["occupancy"] = -3
        lines[22] = json.dumps(data, separators=(",", ":")).encode() + b"\n"
        path.write_bytes(b"".join(lines))
        reseal(path)
        for hour in (None, 20, 21):
            with pytest.raises(EpisodeIntegrityError,
                               match=re.escape(":23: bad record (occupancy must be >= 0")):
                load_episode(path, hour)
        assert load_episode(path, 19).records[0].t == 19
        # The last hour's second hour is the header's, checked with the rest
        # of the header whenever a record is decoded.
        save_episode(mini_episode, path)
        rewrite_header(path, path, lambda header: header["after_last"].update(occupancy=-1))
        reseal(path)
        for hour in (None, 0, 47):
            with pytest.raises(EpisodeIntegrityError,
                               match=re.escape(":1: bad header (occupancy must be >= 0")):
                load_episode(path, hour)

    @pytest.mark.parametrize("edit, message", [
        (lambda header: header.update(base_values=None), "'NoneType' object is not subscriptable"),
        (lambda header: header["base_values"].pop("fy"), "'fy'"),
        (lambda header: header["base_values"].update(fy="1.0"),
         "fy base value must be a finite number, got '1.0'"),
        (lambda header: header.pop("after_last"), "'after_last'"),
        (lambda header: header["after_last"].pop("occupancy"),
         "after_last is missing keys ['occupancy']"),
        (lambda header: header.update(after_last=list(header["after_last"])),
         "after_last must be a JSON object, got list"),
        (lambda header: header["after_last"].update(oa_radiation_wm2=-1),
         "radiation must be >= 0, got -1"),
    ], ids=["base-null", "base-missing-fy", "base-string", "after-missing", "after-missing-key",
            "after-list", "after-negative-radiation"])
    def test_malformed_header_numbers_refused(self, mini_episode, tmp_path, reseal, edit, message):
        path = tmp_path / "episode.jsonl"
        save_episode(mini_episode, path)
        rewrite_header(path, path, edit)
        reseal(path)
        for hour in (None, 0, 47):
            with pytest.raises(EpisodeIntegrityError, match=re.escape(f":1: bad header ({message}")):
                load_episode(path, hour)

    def test_month_limits_are_the_calendars(self, episode, tmp_path):
        # A record line holds neither its hour nor a limit; loaded, its limits
        # are the header calendar's at the two reporting ticks ahead.
        path = tmp_path / "episode.jsonl"
        save_episode(episode, path, include_timing=False)
        for line in path.read_text().splitlines()[1:]:
            assert not {"t", "p_limit_t1_w", "p_limit_t2_w"} & set(json.loads(line))
            # Nor the second hour's conditions, nor an attribution's base value or prediction.
            data = json.loads(line)
            assert not [key for key in data if key.endswith("_t2") or "_t2_" in key]
            assert all(list(a) == ["phi"] for a in data["attributions"].values())
        loaded = load_episode(path)
        assert loaded.calendar == episode.calendar
        assert [r.t for r in loaded.records] == list(range(len(episode)))
        for record in loaded.records:
            assert record.p_limit_t1_w == power_limit_at(loaded.calendar, record.t + 1)
            assert record.p_limit_t2_w == power_limit_at(loaded.calendar, record.t + 2)
        events = [r for r in loaded.records if r.p_limit_t2_w < NORMAL_POWER_LIMIT_W]
        assert len(events) == len(loaded.calendar)
        # One base value per model, bitwise, as run_episode attributed it; each
        # attribution explains the decision's raw output, clamped or not.
        header = json.loads(path.read_text().partition("\n")[0])
        for orig, back in zip(episode.records, loaded.records):
            d = back.decision
            assert back.disturbance_t2 == orig.disturbance_t2
            for key, output in zip(ATTRIBUTION_KEYS, (d.x1_c, d.y1_w, d.x2_c, d.y2_w)):
                assert back.attributions[key].base_value == header["base_values"][key[:2]]
                assert back.attributions[key].base_value == orig.attributions[key].base_value
                assert back.attributions[key].prediction == output
        assert any(r.decision.y1_w < 0.0 or r.decision.y2_w < 0.0 for r in loaded.records)

    def test_decoded_record_memory(self, episode, tmp_path):
        # A decoded record holds its phi as one array and its base values as
        # the episode's dict; four Attribution objects per record, each with
        # its own feature vector, would take about 3,200 B.
        path = tmp_path / "episode.jsonl"
        save_episode(episode, path, include_timing=False)
        tracemalloc.start()
        try:
            loaded = load_episode(path)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == 744
        assert retained / len(loaded) <= 2200

    def test_month_episode_shape(self, episode):
        # The month-long fixture: 31 days of hourly records, every scenario
        # label present under daily events.
        assert len(episode) == 744
        labels = {r.scenario for r in episode.records}
        assert labels == {1, 2, 3}


def sealed_by_the_rule(lines: list[bytes]) -> bytes:
    """Join ``lines`` (the header first, its seal zeroed) under their seal.

    A reference for the rule in ``load_episode``'s docstring: the header line
    and then each non-blank record line, each with its CR/LF ending replaced
    by one ``\\n``.
    """
    header, *rest = lines
    seal = hashlib.sha256(header.rstrip(b"\r\n") + b"\n")
    for line in rest:
        line = line.rstrip(b"\r\n")
        if line.strip():
            seal.update(line + b"\n")
    zeroed = b'"records_sha256":"' + b"0" * 64
    sealed = b'"records_sha256":"' + seal.hexdigest().encode()
    return b"".join([header.replace(zeroed, sealed, 1), *rest])


# Per line: its ending, blanks before it, and blank or whitespace-only lines after it.
LINE_LAYOUTS = st.tuples(
    st.sampled_from([b"\n", b"\r\n"]),
    st.sampled_from([b"", b" ", b"\t ", b"\r"]),
    st.lists(st.sampled_from([b"", b" ", b"\t", b" \r", b"\x0c"]), max_size=2),
)


@pytest.fixture(scope="module")
def canonical_episode(mini_episode, tmp_path_factory):
    path = tmp_path_factory.mktemp("canonical") / "episode.jsonl"
    save_episode(mini_episode, path, include_timing=False)
    return path, load_episode(path)


@seed(23)
@settings(max_examples=40, deadline=None)
@given(layouts=st.lists(LINE_LAYOUTS, min_size=49, max_size=49), final_newline=st.booleans(),
       cut_hour=st.sampled_from([0, 23, 47]))
def test_any_line_layout_loads_the_canonical_records(
    canonical_episode, tmp_path_factory, layouts, final_newline, cut_hour
):
    canonical, expected = canonical_episode
    header, *records = canonical.read_bytes().split(b"\n")[:-1]
    header = re.sub(rb'("records_sha256":")[0-9a-f]{64}', rb"\g<1>" + b"0" * 64, header)
    assert len(records) == len(expected) == 48

    def layout(records: list[bytes]) -> tuple[list[bytes], list[int]]:
        """The file's lines and each record's line number."""
        lines, numbers = [], []
        for line, (ending, blanks, after) in zip([header, *records], layouts):
            lines.append(line + blanks + ending)
            numbers.append(len(lines))
            lines += [blank + ending for blank in after]
        if not final_newline:
            lines[-1] = lines[-1].rstrip(b"\r\n")
        return lines, numbers[1:]

    root = tmp_path_factory.mktemp("layout")
    messy = root / "messy.jsonl"
    messy.write_bytes(sealed_by_the_rule(layout(records)[0]))
    assert [r.to_json() for r in load_episode(messy).records] == [
        r.to_json() for r in expected.records]
    for t in (0, 23, 47):
        [record] = load_episode(messy, t).records
        assert record.to_json() == expected.records[t].to_json()

    # One record cut short, behind a seal over the cut line: both loads name its line.
    cut_records = list(records)
    cut_records[cut_hour] = records[cut_hour][: len(records[cut_hour]) // 2]
    lines, numbers = layout(cut_records)
    cut = root / "cut.jsonl"
    cut.write_bytes(sealed_by_the_rule(lines))
    line = lines[numbers[cut_hour] - 1].rstrip(b"\r\n")
    with pytest.raises(json.JSONDecodeError) as decoding:
        json.loads(line)
    for hour in (None, cut_hour):
        with pytest.raises(EpisodeIntegrityError) as info:
            load_episode(cut, hour)
        assert str(info.value) == f"{cut}:{numbers[cut_hour]}: bad record ({decoding.value})"
