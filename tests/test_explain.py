"""Scenario rubric, narration, templates, document rendering, QA context."""

from __future__ import annotations

import dataclasses
import re
import string

import numpy as np
import pytest

from xmpc import llm as llm_mod
from xmpc.errors import ConfigError, InvalidInputError, RenderError
from xmpc.explain import (
    ATTRIBUTION_TARGETS,
    COMFORT_CEILING_C,
    MPC_FORMULATION_SUMMARY,
    SCENARIO_NAMES,
    TEMPLATES,
    VARIABLE_DICTIONARY,
    build_qa_context,
    build_scenario_prompt,
    build_shap_prompt,
    classify,
    figure_name,
    fmt_mean,
    fmt_phi,
    fmt_value,
    narrate_attribution,
    parse_scenario,
    render_document,
    scenario_census,
    write_documents,
)
from xmpc.hub import ATTRIBUTION_KEYS, TimestepRecord
from xmpc.mpc import MpcDecision, clamp_power
from xmpc.shapley import Attribution
from xmpc.testbed import Disturbance

WORKED_ATTR = Attribution(
    feature_names=("oa_temp", "oa_radiation", "zone_temp", "zone_clg_tstat", "zone_occ"),
    feature_values=np.array([32.7, 513.0, 23.5, 25.0, 3.0]),
    shapley_values=np.array([680.369781, 33.052102, 18.838554, -113.826475, -98.523013]),
    base_value=1544.673602,
    prediction=2064.584551,
)


def fake_record(p_limit_t2: float, u1: float, t: int = 0) -> TimestepRecord:
    decision = MpcDecision(
        u1_c=u1, u2_c=26.0, x1_c=24.0, x2_c=24.5, y1_w=1000.0, y2_w=900.0,
        v1=0.0, v2=0.0, cost=1900.0,
    )
    return TimestepRecord(
        t=t, zone_temp_c=25.0, disturbance=Disturbance(33.0, 400.0, 3.0),
        disturbance_t2=Disturbance(33.5, 350.0, 3.0), cooling_rate_w=1100.0, p_limit_t1_w=5000.0,
        p_limit_t2_w=p_limit_t2,
        decision=decision, phi=np.zeros((4, 5)), base_values={"fx": 24.0, "fy": 1000.0},
    )


def first_of(episode, scenario: int) -> TimestepRecord:
    return next(r for r in episode.records if r.scenario == scenario)


def first_clamped(episode, output: str) -> TimestepRecord:
    """The first record whose cooling surrogate gave ``output`` ("y1_w" or "y2_w") below zero."""
    return next(r for r in episode.records if getattr(r.decision, output) < 0.0)


def expected_numerals(record: TimestepRecord, threshold_w: float = 5000.0) -> set[str]:
    """Every numeral a rendered document may cite, from the record alone.

    Built with the same fmt helpers the renderer documents as its contract,
    so any numeral outside this set cannot trace back to the record.  Tokens
    are stored unsigned because the extraction regex never captures a minus
    sign (negative cooling predictions render as e.g. "-99.04").  A cooling
    prediction is cited as costed, clamped at zero, and where it was
    negative also as the surrogate's raw output.
    """
    d = record.decision
    day, hod = divmod(record.t, 24)
    signed = {
        str(record.t), str(day), f"{hod:02d}", str(hod), "00",
        "1", "2", "3", "4",  # scenario labels and figure indices
        fmt_value(record.p_limit_t1_w), fmt_value(record.p_limit_t2_w),
        fmt_value(threshold_w),
        fmt_value(record.zone_temp_c), *map(fmt_value, dataclasses.astuple(record.disturbance)),
        fmt_value(d.u1_c), fmt_value(d.u2_c), fmt_value(d.x1_c), fmt_value(d.x2_c),
        fmt_value(d.y1_w), fmt_value(d.y2_w),
        fmt_value(clamp_power(d.y1_w)), fmt_value(clamp_power(d.y2_w)),
        fmt_value(record.cooling_rate_w),
        fmt_value(COMFORT_CEILING_C),
        f"{d.cost:.1f}",
    }
    try:
        signed.add(f"{d.candidate_cost(26.0, 26.0):.1f}")
    except KeyError:
        pass
    for key in ATTRIBUTION_KEYS:
        attr = record.attributions[key]
        signed.add(fmt_mean(attr.prediction))
        signed.add(fmt_mean(attr.base_value))
        for v in attr.feature_values:
            signed.add(fmt_value(float(v)))
        for phi in attr.shapley_values:
            signed.add(f"{abs(float(phi)):.2f}")
    return {token.lstrip("-") for token in signed}


class TestClassify:
    def test_rubric_corners(self):
        assert classify(fake_record(1500.0, 24.0)) == 1
        assert classify(fake_record(1500.0, 26.0)) == 3
        assert classify(fake_record(5000.0, 26.0)) == 2
        # An untightened limit never yields scenario 1, whatever the setpoint.
        assert classify(fake_record(5000.0, 22.0)) == 2

    def test_threshold_boundary(self):
        assert classify(fake_record(4999.99, 26.0)) == 3
        assert classify(fake_record(5000.0, 26.0)) == 2

    def test_scenario_names(self):
        assert SCENARIO_NAMES == {1: "Precool", 2: "Normal", 3: "EventNoPrecool"}

    def test_census_partitions_episode(self, episode):
        census = scenario_census(episode)
        assert set(census) == {1, 2, 3}
        assert sum(census.values()) == len(episode)
        # Stability: each record's label is exactly what reclassification gives.
        for record in episode.records:
            assert record.scenario == classify(record)
        assert census == scenario_census(episode)

    def test_events_daily_counts(self, episode):
        # One event per day, each visible in exactly one step's t+2 lookahead,
        # so event-labeled steps (precool or not) must number exactly 31.
        census = scenario_census(episode)
        assert census[1] + census[3] == 31
        assert census[2] == len(episode) - 31


class TestNarration:
    def test_worked_example_top3(self):
        # The worked example under schema names, which the variable dictionary describes.
        names = ("oa_temp_t", "oa_radiation_t", "zone_temp_t", "setpoint_t", "occupancy_t")
        attr = dataclasses.replace(WORKED_ATTR, feature_names=names)
        text = narrate_attribution(attr, "the cooling power")
        i_oa = text.index("outdoor air dry-bulb temperature")
        i_tstat = text.index("zone temperature setpoint")
        i_occ = text.index("occupancy")
        assert i_oa < i_tstat < i_occ
        assert "direct solar radiation" not in text  # rank 4 by |phi|, not narrated
        assert fmt_phi(680.369781) in text  # +680.37
        assert fmt_phi(-113.826475) in text  # -113.83
        assert fmt_mean(1544.673602) in text  # expected value 1544.67
        assert "pushing the prediction above the expected value" in text
        assert "pulling the prediction below the expected value" in text

    def test_zero_phi_degenerate(self):
        attr = Attribution(
            feature_names=("a", "b", "c", "d"),
            feature_values=np.zeros(4),
            shapley_values=np.zeros(4),
            base_value=2.0,
            prediction=2.0,
        )
        text = narrate_attribution(attr)
        # Top-3 fall back to schema order and the flat wording is used.
        assert text.index("a = ") < text.index("b = ") < text.index("c = ")
        assert "d = " not in text
        assert "leaving the prediction at the expected value" in text

    def test_tied_magnitudes_follow_schema_order(self):
        attr = Attribution(
            feature_names=("first", "second", "third"),
            feature_values=np.array([1.0, 2.0, 3.0]),
            shapley_values=np.array([-1.5, 1.5, 0.5]),
            base_value=0.0,
            prediction=0.5,
        )
        text = narrate_attribution(attr)
        assert text.index("first") < text.index("second") < text.index("third")

    def test_unknown_name_falls_back_to_raw(self):
        text = narrate_attribution(WORKED_ATTR, "the cooling power")
        assert "The oa_temp (oa_temp = " in text

    def test_default_dictionary_covers_schema_names(self, mini_episode):
        attr = mini_episode.records[0].attributions["fy_t1"]
        assert all(name in VARIABLE_DICTIONARY for name in attr.feature_names)
        text = narrate_attribution(attr)
        assert "zone" in text or "outdoor" in text or "setpoint" in text


class TestPrompts:
    def test_shap_prompt_structure(self):
        prompt = build_shap_prompt(WORKED_ATTR, "the cooling power P(t+1)")
        assert "Only introduce the largest 3 impactful features plus the expected value." in prompt
        assert "Shapley values: oa_temp 680.369781; " in prompt
        assert "expected_value 1544.673602" in prompt
        assert "Variable values: oa_temp 32.7; " in prompt
        assert "The variable dictionary is listed as follows: {" in prompt
        assert "setpoint_t: zone temperature setpoint" in prompt
        assert "the cooling power P(t+1)" in prompt

    def test_scenario_prompt_structure(self):
        record = fake_record(1500.0, 24.0, t=14)
        prompt = build_scenario_prompt(record)
        assert "judge what kind of scenario" in prompt
        assert "Scenario 1" in prompt and "Scenario 2" in prompt and "Scenario 3" in prompt
        assert "P_limit(t+2) = 1500.0W" in prompt
        assert "T_spt(t+1) = 24.0°C" in prompt

    def test_parse_scenario(self):
        assert parse_scenario("Scenario 2: the limit is not tightened") == 2
        assert parse_scenario("this is scenario3") == 3
        assert parse_scenario("I cannot tell") is None


class TestTemplates:
    def test_default_templates_load(self):
        assert set(TEMPLATES) == {1, 2, 3}
        assert "pre-cooled to T_spt(t+1) = {T_spt_t1}°C" in TEMPLATES[1]
        assert "{shap_para_fy2}" in TEMPLATES[2]

    def test_every_placeholder_is_filled(self, episode):
        # The keys render_document fills.
        filled = {
            "P_limit_t1", "P_limit_t2", "P_limit_threshold", "comfort_ceiling",
            "T_spt_t1", "T_spt_t2", "T_z_t1", "T_z_t2", "P_t1", "P_t2",
            "P_t2_vs_limit", "penalty_outcome", "shap_para_fx1", "shap_para_fy1",
            "shap_para_fx2", "shap_para_fy2", "fig_ref_1", "fig_ref_2", "fig_ref_3", "fig_ref_4",
        }
        for scenario, text in TEMPLATES.items():
            fields = [(name, spec, conv) for _, name, spec, conv in string.Formatter().parse(text)
                      if name is not None]
            assert fields, f"scenario {scenario}"
            for name, spec, conv in fields:
                assert name in filled and not spec and not conv, f"scenario {scenario}: {name!r}"
            text = render_document(first_of(episode, scenario))
            assert f"\n\nScenario {scenario} criteria:" in text  # the paragraph's start
            assert "{" not in text and "}" not in text


class TestRenderDocument:
    def test_scenario1_document(self, episode):
        record = first_of(episode, 1)
        text = render_document(record)
        d = record.decision
        assert text.startswith(f"# Timestep {record.t}: Scenario 1 (Precool)")
        assert f"pre-cooled to T_spt(t+1) = {fmt_value(d.u1_c)}°C" in text
        assert f"which is lower than the comfort ceiling of {fmt_value(COMFORT_CEILING_C)}°C" in text
        assert "[placeholder]" not in text
        for k in range(1, 5):
            assert figure_name(record.t, k) in text
        rationale = text.split("\n\n")[-2]  # the block ahead of the footer
        assert rationale.startswith("Rationale: pre-cooling ahead of the event was the cheapest")
        assert f"{d.cost:.1f}" in rationale

    def test_scenario2_document(self, episode):
        record = first_of(episode, 2)
        text = render_document(record)
        assert "Scenario 2 criteria" in text
        assert "no demand response event is expected" in text
        assert "[placeholder]" not in text

    def test_scenario3_document(self, episode):
        record = first_of(episode, 3)
        text = render_document(record)
        assert "Scenario 3 criteria" in text
        assert "pre-cooling is not engaged" in text
        assert f"T_spt(t+1) = {fmt_value(26.0)}°C" in text
        assert "[placeholder]" not in text

    def test_header_block_content(self, episode):
        record = episode.records[40]
        text = render_document(record)
        day, hod = divmod(record.t, 24)
        # The header block runs from the title to the scenario paragraph.
        header_block = text[text.index("\n\n"):text.index("\n\nScenario ")]
        assert f"In timestep {record.t} (day {day}, {hod:02d}:00)" in header_block
        assert f"P_limit(t+2) = {fmt_value(record.p_limit_t2_w)}W" in header_block
        assert f"T_z(t) = {fmt_value(record.zone_temp_c)}°C" in header_block
        assert f"Realized cooling this hour: {fmt_value(record.cooling_rate_w)}W" in header_block

    def test_unknown_mode(self, mini_episode):
        with pytest.raises(ConfigError, match="mode"):
            render_document(mini_episode.records[0], mode="interpretive_dance")

    def test_rendering_is_deterministic(self, episode):
        record = first_of(episode, 1)
        assert render_document(record) == render_document(record)


class TestNumeralFaithfulness:
    """Every numeral in a rendered document must trace to a record value."""

    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_documents_only_use_record_numbers(self, episode, scenario):
        record = first_of(episode, scenario)
        text = render_document(record)
        allowed = expected_numerals(record)
        for numeral in re.findall(r"\d+(?:\.\d+)?", text):
            assert numeral in allowed, f"untraceable numeral {numeral!r} in scenario {scenario}"

    @pytest.mark.parametrize("output", ["y1_w", "y2_w"])
    @pytest.mark.parametrize("mode", ["deterministic", "llm"])
    def test_clamped_cooling_prediction(self, episode, no_network, output, mode):
        # The document quotes the costed 0.0 W and the negative output that
        # the attribution paragraph explains, both traceable to the record.
        record = first_clamped(episode, output)
        raw = getattr(record.decision, output)
        text = render_document(record, mode=mode)
        hour = {"y1_w": "t+1", "y2_w": "t+2"}[output]
        assert f"P({hour}) = 0.0W (the surrogate's {fmt_value(raw)}W, clamped at zero)" in text
        key = {"y1_w": "fy_t1", "y2_w": "fy_t2"}[output]
        assert record.attributions[key].prediction == raw
        if mode == "deterministic":
            assert f"P({hour}) at {fmt_mean(raw)}, against" in text
        allowed = expected_numerals(record)
        for numeral in re.findall(r"\d+(?:\.\d+)?", text):
            assert numeral in allowed, f"untraceable numeral {numeral!r}"

    def test_unclamped_prediction_has_no_clause(self, episode):
        record = first_of(episode, 1)
        assert min(record.decision.y1_w, record.decision.y2_w) >= 0.0
        assert "clamped at zero" not in render_document(record)


class TestLlmModeRendering:
    def test_stub_narrations_and_agreement(self, episode, no_network):
        record = first_of(episode, 1)
        text = render_document(record, mode="llm")  # default gateway config is the stub
        assert text.endswith(
            "Rendering mode: llm. The language model's scenario judgment agrees with the rubric.\n"
        )
        for key in ATTRIBUTION_KEYS:
            paragraph = narrate_attribution(record.attributions[key], ATTRIBUTION_TARGETS[key])
            assert paragraph in text, key

    def test_stub_agreement_across_scenarios(self, episode, no_network):
        for scenario in (1, 2, 3):
            text = render_document(first_of(episode, scenario), mode="llm")
            assert "judgment agrees with the rubric" in text, f"scenario {scenario}"

    def test_disagreeing_judgment_keeps_the_rubric_label(self, episode, monkeypatch):
        def fake_complete(cfg, system_prompt, user_prompt):
            return llm_mod.ChatExchange(system_prompt, user_prompt, "Scenario 3.",
                                        cfg.model, "online")

        monkeypatch.setattr(llm_mod, "complete", fake_complete)
        record = first_of(episode, 1)
        text = render_document(record, mode="llm")
        assert text.startswith(f"# Timestep {record.t}: Scenario 1 (Precool)")
        assert text.endswith(
            "The language model's scenario judgment disagrees with the rubric; "
            "the rubric label is shown.\n"
        )

    def test_placeholder_token_in_a_narration_is_render_error(self, episode, monkeypatch):
        # An online model's reply is outside input; a "[placeholder]" it echoes must not ship.
        def fake_complete(cfg, system_prompt, user_prompt):
            return llm_mod.ChatExchange(system_prompt, user_prompt, "See [placeholder].",
                                        cfg.model, "online")

        monkeypatch.setattr(llm_mod, "complete", fake_complete)
        with pytest.raises(RenderError, match="placeholder"):
            render_document(first_of(episode, 2), mode="llm")


class TestWriteDocuments:
    def test_files_written(self, mini_episode, tmp_path):
        out = tmp_path / "docs"
        written = write_documents([mini_episode.records[0], mini_episode.records[7]], out)
        assert len(written) == 10  # md + 4 svg per timestep
        assert (out / "ts_0.md").is_file()
        for k in range(1, 5):
            assert (out / f"ts_7_attr{k}.svg").is_file()

    def test_byte_identical_reruns(self, mini_episode, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        write_documents(mini_episode.records[3:4], out1)
        write_documents(mini_episode.records[3:4], out2)
        for name in ("ts_3.md", "ts_3_attr1.svg", "ts_3_attr4.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestQaContext:
    def test_contains_summary_document_question(self, mini_episode):
        context = build_qa_context(mini_episode.records[5], "Why this setpoint?")
        assert MPC_FORMULATION_SUMMARY in context
        assert "# Timestep 5" in context
        assert context.rstrip().endswith("Question: Why this setpoint?")

    def test_invalid_inputs(self, mini_episode):
        with pytest.raises(InvalidInputError, match="question"):
            build_qa_context(mini_episode.records[5], "   ")

    def test_targets_cover_attribution_keys(self):
        assert set(ATTRIBUTION_TARGETS) == set(ATTRIBUTION_KEYS)
