"""Zone dynamics, synthetic boundary conditions, and dataset persistence."""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xmpc import testbed
from xmpc.errors import DeserializationError, InvalidInputError, SimulationDivergedError
from xmpc.hub import calendar_from_json, calendar_to_json
from xmpc.testbed import (
    COOLING_CAPACITY_W,
    CSV_COLUMNS,
    DT_SECONDS,
    EVENT_HOUR_MAX,
    EVENT_HOUR_MIN,
    EVENT_LIMIT_MAX_W,
    EVENT_LIMIT_MIN_W,
    HEATING_SETPOINT_C,
    INTERNAL_GAIN_PER_PERSON_W,
    NORMAL_POWER_LIMIT_W,
    OA_TEMP_MAX_C,
    OA_TEMP_SWING_K,
    OCCUPANTS,
    OCCUPIED_END_HOUR,
    OCCUPIED_START_HOUR,
    RADIATION_PEAK_WM2,
    SOLAR_GAIN_AREA_M2,
    THERMAL_CAPACITANCE,
    THERMAL_RESISTANCE,
    Disturbance,
    ExcitationData,
    TestbedConfig,
    ZoneState,
    generate_dr_calendar,
    load_config,
    power_limit_at,
    run_excitation,
    save_config,
    step,
    synth_disturbances,
)

CFG = TestbedConfig()


def heat_input_w(temp_c: float, d: Disturbance) -> float:
    """Independent restatement of the zone heat balance for oracle use."""
    conduction = (d.oa_temp_c - temp_c) / THERMAL_RESISTANCE
    gains = d.oa_radiation_wm2 * SOLAR_GAIN_AREA_M2 + d.occupancy * INTERNAL_GAIN_PER_PERSON_W
    return conduction + gains


class TestStep:
    def test_free_float_without_cooling(self):
        # oa below zone, no gains: the zone drifts down and the coil stays off.
        d = Disturbance(20.0, 0.0, 0.0)
        nxt, hvac = step(ZoneState(0, 24.0), d, 26.0, CFG)
        expected = 24.0 + DT_SECONDS / THERMAL_CAPACITANCE * (20.0 - 24.0) / THERMAL_RESISTANCE
        assert hvac.cooling_rate_w == 0.0
        assert nxt.zone_temp_c == pytest.approx(expected, rel=1e-12)
        assert nxt.hour == 1

    def test_hold_at_setpoint_matches_heat_balance(self):
        # Starting on the setpoint, the coil must remove exactly the heat input:
        # (35-24)/0.005 + 300*0.7 + 3*100 = 2710 W.
        d = Disturbance(35.0, 300.0, 3.0)
        nxt, hvac = step(ZoneState(5, 24.0), d, 24.0, CFG)
        assert nxt.zone_temp_c == pytest.approx(24.0, abs=1e-12)
        assert hvac.cooling_rate_w == pytest.approx(2710.0, rel=1e-9)
        assert hvac.cooling_rate_w == pytest.approx(heat_input_w(24.0, d), rel=1e-12)

    def test_capacity_clamp(self):
        # A 4 K pull-down in one hour needs far more than the coil can deliver.
        d = Disturbance(35.0, 300.0, 3.0)
        nxt, hvac = step(ZoneState(0, 26.0), d, 22.0, CFG)
        free_float = 26.0 + DT_SECONDS / THERMAL_CAPACITANCE * heat_input_w(26.0, d)
        assert hvac.cooling_rate_w == COOLING_CAPACITY_W
        assert nxt.zone_temp_c == pytest.approx(
            free_float - DT_SECONDS / THERMAL_CAPACITANCE * COOLING_CAPACITY_W, rel=1e-12
        )
        assert nxt.zone_temp_c > 22.0

    def test_heating_floor(self):
        d = Disturbance(0.0, 0.0, 0.0)
        nxt, hvac = step(ZoneState(0, 20.5), d, 26.0, CFG)
        assert hvac.cooling_rate_w == 0.0
        assert nxt.zone_temp_c == HEATING_SETPOINT_C

    def test_setpoint_out_of_range(self):
        d = Disturbance(30.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            step(ZoneState(0, 24.0), d, 35.0, CFG)
        with pytest.raises(InvalidInputError):
            step(ZoneState(0, 24.0), d, 19.0, CFG)

    def test_non_finite_input(self):
        with pytest.raises(InvalidInputError):
            step(ZoneState(0, float("nan")), Disturbance(30.0, 0.0, 0.0), 24.0, CFG)
        with pytest.raises(InvalidInputError):
            step(ZoneState(0, 24.0), Disturbance(math.inf, 0.0, 0.0), 24.0, CFG)

    def test_divergence_guard(self):
        # 1000 degC outdoors drives one Euler step far past the plausible band,
        # even with the coil at capacity.
        with pytest.raises(SimulationDivergedError):
            step(ZoneState(0, 26.0), Disturbance(1000.0, 0.0, 0.0), 26.0, CFG)

    @given(
        temp=st.floats(18.0, 32.0),
        oa=st.floats(5.0, 45.0),
        radiation=st.floats(0.0, 900.0),
        occupancy=st.floats(0.0, 10.0),
        setpoint=st.floats(20.0, 30.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_energy_balance_property(self, temp, oa, radiation, occupancy, setpoint):
        d = Disturbance(oa, radiation, occupancy)
        q_in = heat_input_w(temp, d)
        free_float = temp + DT_SECONDS / THERMAL_CAPACITANCE * q_in
        assume(free_float >= HEATING_SETPOINT_C)  # floor clamp breaks the balance

        nxt, hvac = step(ZoneState(0, temp), d, setpoint, CFG)
        q = hvac.cooling_rate_w
        assert 0.0 <= q <= COOLING_CAPACITY_W
        # C * dT/dt must equal heat input minus cooling in every branch.
        lhs = THERMAL_CAPACITANCE * (nxt.zone_temp_c - temp) / DT_SECONDS
        assert lhs == pytest.approx(q_in - q, abs=1e-6 * max(1.0, abs(q_in)))
        # When the coil modulates (neither off nor saturated) it lands on the setpoint.
        if 0.0 < q < COOLING_CAPACITY_W:
            assert nxt.zone_temp_c == pytest.approx(setpoint, abs=1e-9)

    @given(
        temp=st.floats(20.0, 30.0),
        oa=st.floats(10.0, 40.0),
        delta=st.floats(0.1, 5.0),
        setpoint=st.floats(22.0, 26.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_cooling_monotone_in_oa_temp(self, temp, oa, delta, setpoint):
        d_lo = Disturbance(oa, 200.0, 2.0)
        d_hi = Disturbance(oa + delta, 200.0, 2.0)
        _, hvac_lo = step(ZoneState(0, temp), d_lo, setpoint, CFG)
        _, hvac_hi = step(ZoneState(0, temp), d_hi, setpoint, CFG)
        assert hvac_hi.cooling_rate_w >= hvac_lo.cooling_rate_w - 1e-9


class TestSynthDisturbances:
    def test_profile_shape_and_peaks(self, monkeypatch):
        monkeypatch.setattr(testbed, "OA_TEMP_JITTER_K", 0.0)
        monkeypatch.setattr(testbed, "CLEARNESS_MIN", 1.0)
        profile = synth_disturbances(0, CFG)
        assert len(profile) == 24
        oa = [d.oa_temp_c for d in profile]
        rad = [d.oa_radiation_wm2 for d in profile]
        # Sinusoid peaks at 14:00 at the configured max, bottoms 10 K lower at 02:00.
        assert oa[14] == pytest.approx(OA_TEMP_MAX_C, abs=1e-9)
        assert oa[2] == pytest.approx(OA_TEMP_MAX_C - OA_TEMP_SWING_K, abs=1e-9)
        assert max(oa) == oa[14]
        # Radiation: zero outside 06..18, half-sine peak at noon.
        assert all(r == 0.0 for r in rad[:6])
        assert all(r == 0.0 for r in rad[19:])
        assert rad[12] == pytest.approx(RADIATION_PEAK_WM2, abs=1e-9)
        assert all(r >= 0.0 for r in rad)

    def test_occupancy_schedule(self):
        profile = synth_disturbances(0, CFG)  # day 0 is a Monday
        occ = [d.occupancy for d in profile]
        assert occ[OCCUPIED_START_HOUR] == OCCUPANTS
        assert occ[OCCUPIED_END_HOUR - 1] == OCCUPANTS
        assert occ[OCCUPIED_END_HOUR] == 0.0
        assert occ[0] == 0.0
        weekend = synth_disturbances(5, CFG)
        assert all(d.occupancy == 0.0 for d in weekend)

    def test_determinism_and_day_variation(self):
        a = synth_disturbances(3, CFG)
        b = synth_disturbances(3, CFG)
        assert a == b
        c = synth_disturbances(4, CFG)
        assert a[14].oa_temp_c != c[14].oa_temp_c

    def test_seed_changes_weather(self):
        other = TestbedConfig(rng_seed=99)
        assert synth_disturbances(0, CFG)[14].oa_temp_c != synth_disturbances(0, other)[14].oa_temp_c


def event_hours(calendar: dict[int, float]) -> list[int]:
    """Hours whose limit is below the normal one, i.e. the DR events."""
    return sorted(h for h, limit in calendar.items() if limit < NORMAL_POWER_LIMIT_W)


class TestDrCalendar:
    def test_probability_zero_means_no_events(self):
        cal = generate_dr_calendar(10, 0.0, seed=1)
        # The calendar lists event hours only; every hour gets the normal limit.
        assert cal == {}
        assert all(power_limit_at(cal, h) == NORMAL_POWER_LIMIT_W for h in range(240))
        assert event_hours(cal) == []

    def test_probability_one_means_one_event_per_day(self):
        cal = generate_dr_calendar(14, 1.0, seed=2)
        events = event_hours(cal)
        assert len(events) == 14
        assert sorted(h // 24 for h in events) == list(range(14))
        for h in events:
            assert EVENT_HOUR_MIN <= h % 24 <= EVENT_HOUR_MAX
            assert EVENT_LIMIT_MIN_W <= cal[h] <= EVENT_LIMIT_MAX_W
            assert power_limit_at(cal, h + 1) == NORMAL_POWER_LIMIT_W  # lasts one hour
        assert sorted(cal) == events  # and only events are listed

    def test_event_bounds_across_seeds(self):
        for seed in range(20):
            cal = generate_dr_calendar(30, 0.5, seed=seed)
            for h in event_hours(cal):
                assert EVENT_HOUR_MIN <= h % 24 <= EVENT_HOUR_MAX
                assert EVENT_LIMIT_MIN_W <= cal[h] <= EVENT_LIMIT_MAX_W

    def test_determinism(self):
        assert generate_dr_calendar(7, 0.5, seed=3) == generate_dr_calendar(7, 0.5, seed=3)
        assert generate_dr_calendar(7, 1.0, seed=3) != generate_dr_calendar(7, 1.0, seed=4)

    def test_power_limit_lookup_off_calendar(self):
        cal = generate_dr_calendar(2, 1.0, seed=0)
        assert power_limit_at(cal, 9999) == NORMAL_POWER_LIMIT_W

    def test_invalid_probability(self):
        with pytest.raises(InvalidInputError):
            generate_dr_calendar(5, 1.5, seed=0)

    def test_calendar_roundtrip(self):
        # Through JSON text, as an episode header carries it (``hub``'s episode codec).
        cal = generate_dr_calendar(5, 1.0, seed=11)
        assert calendar_from_json(json.loads(json.dumps(calendar_to_json(cal))), "header") == cal

    def test_calendar_integer_limits_load_as_floats(self):
        cal = calendar_from_json(json.loads('{"0": 5000, "13": 1200.5}'), "header")
        assert cal == {0: 5000.0, 13: 1200.5}
        assert all(type(limit) is float for limit in cal.values())

    @pytest.mark.parametrize("content, message", [
        (b"5", "expected a JSON object"),
        (b"[1, 2]", "expected a JSON object"),
        (b'{"x": 1000}', "hour 'x'"),
        (b'{"-1": 1000}', "hour '-1'"),
        (b'{"3": 1000, "03": 2000}', "hour '03'"),
        (b'{"00": 1000}', "hour '00'"),
        (b'{"3": "nan"}', "limit for hour 3"),
        (b'{"3": NaN}', "limit for hour 3"),
        (b'{"3": Infinity}', "limit for hour 3"),
        (b'{"3": -5}', "limit for hour 3"),
        (b'{"3": 0}', "limit for hour 3"),
        (b'{"3": true}', "limit for hour 3"),
        (b'{"3": 1' + b"0" * 400 + b"}", "limit for hour 3"),
        # More digits than int() converts: a bare ValueError before.
        (b'{"' + b"1" * 5000 + b'": 1000}', "hour '1111"),
    ], ids=["top-level-number", "limits-list", "hour-word", "hour-negative",
            "hour-leading-zero", "hour-double-zero", "limit-string", "limit-nan", "limit-inf",
            "limit-negative", "limit-zero", "limit-bool", "limit-oversized-int", "hour-huge"])
    def test_calendar_malformed_content_rejected(self, content, message):
        with pytest.raises(DeserializationError, match=f"header: .*{message}"):
            calendar_from_json(json.loads(content), "header")


class TestExcitation:
    def test_rows_form_consistent_transitions(self, excitation):
        # Re-derive each row's outcome from its own features; the dataset must
        # be exactly the trajectory it claims to be.
        rows = excitation.rows
        assert len(excitation) == 31 * 24
        for i in range(0, len(rows), 37):  # spot-check a spread of rows
            t, sp, tz, oa, rad, occ, tz_next, q = rows[i]
            nxt, hvac = step(ZoneState(int(t), tz), Disturbance(oa, rad, occ), sp, CFG)
            assert nxt.zone_temp_c == pytest.approx(tz_next, rel=1e-12)
            assert hvac.cooling_rate_w == pytest.approx(q, rel=1e-12, abs=1e-9)

    def test_chained_states(self, excitation):
        tz = excitation["zone_temp_c"]
        tz_next = excitation["next_zone_temp_c"]
        assert np.array_equal(tz[1:], tz_next[:-1])
        hours = excitation["time_hour"]
        assert np.array_equal(hours, np.arange(len(excitation)))

    def test_setpoints_cover_grid(self, excitation):
        assert set(np.unique(excitation["setpoint_c"])) == {22.0, 23.0, 24.0, 25.0, 26.0}

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2024])
    def test_setpoints_are_the_integer_draw(self, seed):
        # Drawing from the grid by index keeps the stream of the 22..26 integer draw.
        rng = np.random.default_rng(seed)
        expected = [float(rng.integers(22, 27)) for _ in range(48)]
        assert run_excitation(2, CFG, seed=seed)["setpoint_c"].tolist() == expected

    def test_determinism(self, testbed_cfg):
        a = run_excitation(2, testbed_cfg, seed=42)
        b = run_excitation(2, testbed_cfg, seed=42)
        assert np.array_equal(a.rows, b.rows)
        c = run_excitation(2, testbed_cfg, seed=43)
        assert not np.array_equal(a.rows, c.rows)

    def test_unknown_column(self, excitation):
        with pytest.raises(KeyError):
            excitation.column("bogus")

    def test_csv_roundtrip_byte_stable(self, tmp_path, testbed_cfg):
        data = run_excitation(2, testbed_cfg, seed=1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        data.to_csv(p1)
        loaded = ExcitationData.from_csv(p1)
        assert loaded.rows.shape == data.rows.shape
        assert np.allclose(loaded.rows, data.rows, atol=5e-7)
        loaded.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_csv_errors(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DeserializationError):
            ExcitationData.from_csv(empty)

        bad_header = tmp_path / "bad_header.csv"
        bad_header.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DeserializationError, match="header"):
            ExcitationData.from_csv(bad_header)

        short_row = tmp_path / "short.csv"
        short_row.write_text(",".join(CSV_COLUMNS) + "\n1,2,3\n")
        with pytest.raises(DeserializationError, match=":2"):
            ExcitationData.from_csv(short_row)

        no_rows = tmp_path / "no_rows.csv"
        no_rows.write_text(",".join(CSV_COLUMNS) + "\n")
        with pytest.raises(DeserializationError, match="no data"):
            ExcitationData.from_csv(no_rows)

        with pytest.raises(DeserializationError, match=re.escape(
                f"must have {len(CSV_COLUMNS)} columns, got shape (2, 7)")):
            ExcitationData(np.zeros((2, len(CSV_COLUMNS) - 1)))

    def test_field_over_the_csv_limit_names_its_line(self, tmp_path):
        long_header = tmp_path / "long_header.csv"
        long_header.write_text("a" * 200_000 + "\n")
        with pytest.raises(DeserializationError, match=re.escape(
                f"{long_header}:1: field larger than field limit (131072)")):
            ExcitationData.from_csv(long_header)

        long_field = tmp_path / "long_field.csv"
        row = ["1"] * len(CSV_COLUMNS)
        long_field.write_text(
            "\n".join([",".join(CSV_COLUMNS), ",".join(row), ",".join(["a" * 200_000, *row[1:]])])
        )
        with pytest.raises(DeserializationError, match=f"{re.escape(str(long_field))}:3: field"):
            ExcitationData.from_csv(long_field)

    @pytest.mark.parametrize("header, message", [
        (["time_hour", "setpoint", *CSV_COLUMNS[2:]], "column 2 is 'setpoint'; expected 'setpoint_c'"),
        (list(CSV_COLUMNS[:5]), "column 6 is missing; expected 'occupancy'"),
        ([*CSV_COLUMNS, "extra"], "column 9 is 'extra'; expected no such column"),
        (["time_hour", "x" * 5000], "column 2 is 'xxxxxxxxxxxx...xxxxxxxxxxxxx'; expected 'setpoint_c'"),
    ], ids=["renamed", "short", "long", "huge-name"])
    def test_unexpected_header_names_the_first_column_that_differs(self, tmp_path, header,
                                                                   message):
        path = tmp_path / "data.csv"
        path.write_text(",".join(header) + "\n" + ",".join(["1"] * len(header)) + "\n")
        with pytest.raises(DeserializationError) as info:
            ExcitationData.from_csv(path)
        assert str(info.value) == f"{path}:1: unexpected header: {message}"

    def test_invalid_day_count(self, testbed_cfg):
        with pytest.raises(InvalidInputError):
            run_excitation(0, testbed_cfg, seed=0)


class TestAtomicOutputs:
    def test_csv_rows_end_in_crlf(self, tmp_path):
        data = run_excitation(1, CFG, seed=1)
        path = tmp_path / "data.csv"
        data.to_csv(path)
        raw = path.read_bytes()
        assert raw.count(b"\r\n") == raw.count(b"\n") == len(data) + 1

    @pytest.mark.parametrize("write", [
        # The second row's hour is NaN, so the write fails after the first row.
        lambda path: ExcitationData(np.array([[0.0] * 8, [math.nan] * 8])).to_csv(path),
        lambda path: save_config(TestbedConfig(rng_seed=object()), path),
    ], ids=["csv", "config"])
    def test_failed_write_keeps_previous_file(self, tmp_path, write):
        path = tmp_path / "out"
        path.write_text("previous\n")
        with pytest.raises((TypeError, ValueError)):
            write(path)
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestConfigPersistence:
    def test_roundtrip(self, tmp_path):
        cfg = TestbedConfig(rng_seed=5)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert json.loads(path.read_text()) == {"rng_seed": 5}
        assert load_config(path) == cfg

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"rng_seed": 1, "wall_color": "blue"}')
        with pytest.raises(DeserializationError, match="wall_color"):
            load_config(path)

    def test_only_field_is_the_weather_seed(self):
        assert [f.name for f in dataclasses.fields(TestbedConfig)] == ["rng_seed"]

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError, match="rng_seed"):
            TestbedConfig(rng_seed=-1)
        path = tmp_path / "cfg.json"
        path.write_text('{"rng_seed": -3}')
        with pytest.raises(InvalidInputError, match="rng_seed"):
            load_config(path)
